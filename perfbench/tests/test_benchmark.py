"""Workload determinism, metric lists, the comparison rule, and the
command's behaviour outside a checkout."""

import json
import subprocess
import sys

import numpy as np
import pytest

import metrics
import workloads
from compare import verdict
from conftest import BENCH, ROOT


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name):
    a = workloads.prepare(name, 11)
    b = workloads.prepare(name, 11)
    c = workloads.prepare(name, 12)
    assert np.array_equal(a.dataset.rows, b.dataset.rows)
    assert a.plan == b.plan and a.workload == b.workload
    assert a.budget == b.budget and a.seeds == b.seeds
    assert len(a.seeds) == a.spec.utility_seeds
    assert not np.array_equal(a.dataset.rows, c.dataset.rows)
    assert a.seeds != c.seeds
    # shapes do not depend on the seed
    assert a.dataset.rows.shape == c.dataset.rows.shape
    assert a.plan == c.plan and a.workload == c.workload


def test_workload_shapes():
    h = workloads.prepare("mpc-horizontal-bm", 1)
    assert h.dataset.n == 2000 and len(h.plan.holders) == 3
    v = workloads.prepare("mpc-vertical-join", 1)
    from mpcsyn.marginals import split_queries

    _, qstar = split_queries(v.plan, v.dataset.n, v.workload)
    assert len(qstar) == 6 and len(v.workload.queries) == 15
    w = workloads.prepare("cdp-wide-model", 1)
    assert w.dataset.n == 20_000
    assert w.dataset.schema.domain_size == 5 ** 8


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_iteration_layers_fill_every_traced_metric():
    summary = {"rounds": 3, "bytes": 80, "messages": 6,
               "counters": {"mul": 4}, "scopes": {"select": {"bytes": 8,
                                                              "messages": 1}}}
    totals = {"pipeline.mw_update": {"self_s": 0.5, "incl_s": 0.5,
                                     "calls": 2, "elems": 0}}
    out = metrics.iteration_layers(totals, summary, gen_s=2.0)
    assert set(out) | {"dataio.inputs_s", "trace.overhead_s"} \
        == set(metrics.PER_LAYER)
    assert out["pipeline.model_frac"] == 0.25
    assert out["rss.count.mul"] == 4 and out["net_bytes"] == 80
    assert out["pipeline.select.bytes"] == 8


def test_percentile_helpers():
    assert metrics.tail_percentile(3) is None
    assert metrics.tail_percentile(20) == 50.0
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.percentile(list(range(1, 101)), 90) == 90
    assert metrics.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert verdict(parent, parent, "lower", 0.1)["verdict"] == "no regression"
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 4.0, 16.0, 10.0, 9.0, 11.0]
    assert verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # higher is better: a drop is a regression
    ok = [1.0] * 10
    assert verdict(ok, [0.5] * 10, "higher", 0.05)["verdict"] == "regression"
    assert verdict(ok, ok, "higher", 0.05)["verdict"] == "no regression"


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "cdp-wide-model", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_pairs_runs_and_flags_regressions(tmp_path, monkeypatch,
                                                  capsys):
    import compare

    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, workload, seed))
        slow = 1.5 if root.name == "change" else 1.0
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "gen_s": {"value": slow * (10 + seed % 3 * 0.01), "unit": "s"},
            "setup_s": {"value": 0.2, "unit": "s"},
            "peak_rss_mb": {"value": 40.0, "unit": "MB"},
            "workload_error": {"value": 0.25, "unit": "L1"},
            "ok_frac": {"value": 1.0, "unit": "frac"}}}

    monkeypatch.setattr(compare, "run_side", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    code = compare.main(["--parent", str(tmp_path / "parent"),
                         "--change", str(tmp_path / "change"),
                         "--workload", "cdp-wide-model"])
    out = capsys.readouterr().out
    assert code == 1
    assert "regression" in out.splitlines()[1]  # gen_s row
    assert out.count("no regression") == 4
    # ten pairs, same seed on both sides, alternating which runs first
    assert len(calls) == 20
    assert [c[0] for c in calls[:4]] == ["parent", "change", "change",
                                         "parent"]
    assert all(calls[2 * i][2] == calls[2 * i + 1][2] == i + 1
               for i in range(10))


def test_compare_flags_a_worse_failed_frac(tmp_path, monkeypatch, capsys):
    import compare

    def fake_run(root, workload, seed, seconds):
        if root.name == "change" and seed == 3:
            return None  # the run printed no result
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            m: {"value": 1.0, "unit": u} for m, u in metrics.END_TO_END.items()}}

    monkeypatch.setattr(compare, "run_side", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    code = compare.main(["--parent", str(tmp_path / "parent"),
                         "--change", str(tmp_path / "change"),
                         "--workload", "mpc-vertical-join"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed_frac: parent 0.0000, change 0.0357  WORSE" in out
    assert out.count("no regression") == 5
