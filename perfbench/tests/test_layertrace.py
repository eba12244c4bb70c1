"""Span arithmetic and wrapper installation."""

import hashlib
import json

import pytest

from layertrace import Tracer, layer_totals, self_times


def test_self_time_subtracts_child_coverage():
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]), b [50, 70]
    # and c [90, 120], which runs past the root and is clipped to it
    spans = [
        ("root", 0, 100, -1, 0, 0),
        ("a", 10, 40, 0, 0, 0),
        ("g", 15, 25, 1, 0, 0),
        ("b", 50, 70, 0, 0, 5),
        ("c", 90, 120, 0, 0, 0),
    ]
    assert self_times(spans) == [100 - 30 - 20 - 10, 30 - 10, 10, 20, 30]


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0, 100, -1, 0, 0),
             ("x", 10, 50, 0, 0, 0),
             ("y", 30, 60, 0, 0, 0)]
    assert self_times(spans)[0] == 100 - 50


def test_layer_totals_by_run_and_recursion():
    spans = [
        ("f", 0, 100, -1, 1, 3),
        ("f", 10, 30, 0, 1, 4),   # re-entrant call: inclusive counted once
        ("h", 40, 60, 0, 1, 0),
        ("f", 200, 210, -1, 2, 1),  # another run
    ]
    tot = layer_totals(spans, 1)
    assert tot["f"]["calls"] == 2
    assert tot["f"]["elems"] == 7
    assert tot["f"]["self_s"] == pytest.approx((60 + 20) / 1e9)
    assert tot["f"]["incl_s"] == pytest.approx(100 / 1e9)
    assert tot["h"]["incl_s"] == pytest.approx(20 / 1e9)
    assert layer_totals(spans, 2)["f"]["calls"] == 1


def _output_hash(backend):
    from mpcsyn import dataio
    from mpcsyn.pipeline import PrivacyBudget, run_pipeline

    ds = dataio.make_toy_dataset(120, 3)
    canon, plan = dataio.partition(ds, "vertical:2", seed=0)
    wl = dataio.build_workload(canon.schema)
    synth, log = run_pipeline(canon, plan, wl, PrivacyBudget(1, 1e-9, 2),
                              algo="AIM", noise_kind="gaussian-box-muller",
                              backend=backend, seed=5)
    h = hashlib.sha256(synth.rows.tobytes())
    h.update(json.dumps(log, sort_keys=True, default=str).encode())
    return h.hexdigest()


@pytest.mark.parametrize("backend", ["mpc", "cdp"])
def test_wrappers_leave_output_byte_identical(backend):
    from mpcsyn import marginals, mechanisms, pipeline, primitives, rss

    originals = (pipeline.sec_cmp, mechanisms.sec_ln, marginals.sec_eq,
                 primitives.sec_eq, pipeline.compute_workload_answers,
                 rss.Mpc3Engine.mul, pipeline.JointDistribution.marginal)
    untraced = _output_hash(backend)
    tracer = Tracer()
    tracer.install()
    try:
        # every module that imported a primitive by name sees the wrapper
        assert pipeline.sec_cmp is primitives.sec_cmp
        assert pipeline.sec_cmp is not originals[0]
        assert marginals.sec_eq is primitives.sec_eq is mechanisms.sec_eq
        traced = _output_hash(backend)
    finally:
        tracer.remove()
    assert traced == untraced
    assert (pipeline.sec_cmp, mechanisms.sec_ln, marginals.sec_eq,
            primitives.sec_eq, pipeline.compute_workload_answers,
            rss.Mpc3Engine.mul, pipeline.JointDistribution.marginal) \
        == originals
    assert _output_hash(backend) == untraced

    names = {s[0] for s in tracer.spans}
    assert {"pipeline.run_pipeline", "marginals.compute_workload_answers",
            "pipeline.select", "pipeline.mw_update",
            "pipeline.model_marginal", "mechanisms.pi_measure",
            "primitives.sec_ln"} <= names
    assert ("rss.mul" in names) == (backend == "mpc")
    assert ("rss.plain" in names) == (backend == "cdp")
    # spans nest: every parent opened before and closed after its child
    for name, start, end, parent, _, elems in tracer.spans:
        assert start <= end and elems >= 0
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2]
    roots = [s for s in tracer.spans if s[3] < 0]
    assert all(s[0] in ("pipeline.run_pipeline", "dataio.inputs",
                        "dataio.workload_error") for s in roots)


def test_install_twice_is_refused():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()


def test_written_spans_round_trip(tmp_path):
    import gzip

    tracer = Tracer()
    tracer.spans.extend([("a", 1, 5, -1, "setup", 0), ("b", 2, 3, 0, 0, 7)])
    path = tmp_path / "s.csv.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("index,name")
    assert lines[1:] == ["0,a,1,5,-1,setup,0", "1,b,2,3,0,0,7"]
