"""Artifact ingestion, partition builders, workloads, and the metric."""

import json
from pathlib import Path

import numpy as np
import pytest

from mpcsyn.dataio import (
    IngestionError,
    MetricError,
    MetricsReport,
    build_workload,
    discretize,
    load_dataset,
    load_domain,
    load_workload,
    make_toy_dataset,
    partition,
    save_dataset,
    workload_error,
)
from mpcsyn.marginals import AttrDomain, Dataset, Query, Schema, Workload

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_discretize_explicit_edges():
    edges = [0, 10, 20]
    assert discretize([5.0], edges).tolist() == [0]
    assert discretize([10.0], edges).tolist() == [1]  # half-open bins
    assert discretize([25.0], edges).tolist() == [1]  # clamp above
    assert discretize([-3.0], edges).tolist() == [0]  # clamp below


def test_discretize_rejects_non_finite():
    with pytest.raises(IngestionError):
        discretize([1.0, float("nan")], [0, 1, 2])
    with pytest.raises(IngestionError):
        discretize([float("inf")], [0, 1, 2])


def test_load_domain_forms(tmp_path):
    p = write(tmp_path, "d.json", json.dumps({"attrs": [
        {"name": "a", "cardinality": 3},
        {"name": "b", "bins": [0, 1, 2, 3]},
        {"name": "c", "labels": ["x", "y"]},
    ]}))
    schema, labels = load_domain(p)
    assert schema.cardinalities == (3, 3, 2)
    assert schema.attrs[1].bin_edges == (0.0, 1.0, 2.0, 3.0)
    assert labels == {"c": ["x", "y"]}


def test_load_domain_errors(tmp_path):
    bad = [
        {"attrs": [{"name": "a"}]},  # no size information
        {"attrs": [{"cardinality": 2}]},  # unnamed
        {"attrs": [{"name": "a", "cardinality": 3, "bins": [0, 1, 2]}]},
        {"attrs": [{"name": "a", "cardinality": 3, "labels": ["u", "v"]}]},
        {"attrs": [{"name": "a", "bins": [0, 1, 10**400]}]},  # beyond a float
    ]
    for i, doc in enumerate(bad):
        p = write(tmp_path, f"bad{i}.json", json.dumps(doc))
        with pytest.raises(IngestionError):
            load_domain(p)
    p = write(tmp_path, "notjson.json", "{nope")
    with pytest.raises(IngestionError):
        load_domain(p)


def test_load_dataset_small(tmp_path):
    dom = write(tmp_path, "d.json", json.dumps({"attrs": [
        {"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 2}]}))
    csvf = write(tmp_path, "t.csv", "a,b\n0,1\n1,0\n")
    ds = load_dataset(csvf, dom)
    assert ds.rows.tolist() == [[0, 1], [1, 0]]


def test_load_dataset_labels_and_bins(tmp_path):
    dom = write(tmp_path, "d.json", json.dumps({"attrs": [
        {"name": "color", "labels": ["red", "blue"]},
        {"name": "age", "bins": [0, 30, 60, 90]},
    ]}))
    csvf = write(tmp_path, "t.csv", "color,age\nred,25\nblue,61.5\nred,95\n")
    ds = load_dataset(csvf, dom)
    assert ds.rows.tolist() == [[0, 0], [1, 2], [0, 2]]


def test_load_dataset_errors_carry_location(tmp_path):
    dom = write(tmp_path, "d.json", json.dumps({"attrs": [
        {"name": "a", "labels": ["x", "y"]}, {"name": "b", "cardinality": 2}]}))
    cases = [
        ("a,b\nz,0\n", "unknown label"),
        ("a,b\nx,5\n", "outside"),
        ("a,b\nx\n", "cells"),
        ("b,a\nx,0\n", "header"),
        ("a,b\nx,0.5\n", "not an integer"),
    ]
    for body, fragment in cases:
        csvf = write(tmp_path, "t.csv", body)
        with pytest.raises(IngestionError, match=fragment):
            load_dataset(csvf, dom)


def test_bundled_toy_round_trip(tmp_path):
    ds = load_dataset(DATA_DIR / "toy.csv", DATA_DIR / "toy_domain.json")
    assert ds.n == 2000 and ds.schema.dims == 5
    out = tmp_path / "copy.csv"
    save_dataset(ds, out)
    assert out.read_bytes() == (DATA_DIR / "toy.csv").read_bytes()


def test_bundled_toy_matches_generator():
    ds = load_dataset(DATA_DIR / "toy.csv", DATA_DIR / "toy_domain.json")
    gen = make_toy_dataset()
    assert np.array_equal(ds.rows, gen.rows)
    assert ds.schema.cardinalities == gen.schema.cardinalities


def _random_dataset(n, cards, seed):
    rng = np.random.default_rng(seed)
    schema = Schema(tuple(AttrDomain(f"a{j}", c) for j, c in enumerate(cards)))
    return Dataset(rng.integers(0, list(cards), size=(n, len(cards))), schema)


def test_partition_horizontal_even_split():
    ds = _random_dataset(100, [2, 2, 2], 0)
    canon, plan = partition(ds, "horizontal:2", seed=3)
    sizes = [h.rows[1] - h.rows[0] for h in plan.holders]
    assert sizes == [50, 50]
    # shuffled rows are the same multiset as the original
    key = lambda r: r[np.lexsort(r.T[::-1])].tobytes()
    assert key(canon.rows) == key(ds.rows)


def test_partition_vertical_even_split():
    ds = _random_dataset(40, [2] * 9, 1)
    canon, plan = partition(ds, "vertical:2", seed=5)
    assert np.array_equal(canon.rows, ds.rows)  # columns stay in place
    sizes = sorted(len(h.attrs) for h in plan.holders)
    assert sizes == [4, 5]
    claimed = sorted(a for h in plan.holders for a in h.attrs)
    assert claimed == list(range(9))


def test_partition_mixed_from_file(tmp_path):
    ds = _random_dataset(60, [2, 3, 2], 2)
    spec = [
        {"rows": [0, 30], "attrs": [0, 1]},
        {"rows": [0, 30], "attrs": [2]},
        {"rows": [30, 60], "attrs": [0, 1, 2]},
    ]
    p = write(tmp_path, "mix.json", json.dumps(spec))
    canon, plan = partition(ds, f"mixed:{p}", seed=0)
    assert np.array_equal(canon.rows, ds.rows)
    assert [(h.rows, h.attrs) for h in plan.holders] == [
        (tuple(s["rows"]), tuple(s["attrs"])) for s in spec]


def test_partition_central_and_errors(tmp_path):
    ds = _random_dataset(10, [2, 2], 0)
    _, plan = partition(ds, "central")
    assert len(plan.holders) == 1
    for bad in ["horizontal:11", "vertical:3", "horizontal:1", "diagonal:2",
                "horizontal:x"]:
        with pytest.raises(ValueError):
            partition(ds, bad)
    with pytest.raises(ValueError):
        partition(ds, f"mixed:{tmp_path / 'absent.json'}")


def test_build_workload_all_2way():
    schema = _random_dataset(5, [2, 2, 2, 2], 0).schema
    wl = build_workload(schema)
    assert len(wl.queries) == 4 + 6
    assert wl.queries[:4] == tuple(Query((j,)) for j in range(4))
    assert wl.queries[4:] == tuple(
        Query(p) for p in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_load_workload(tmp_path):
    schema = Schema((AttrDomain("age", 3), AttrDomain("sex", 2)))
    p = write(tmp_path, "w.json", json.dumps(
        {"queries": [["age"], ["sex", "age"]], "weights": [1.0, 2.5]}))
    wl = load_workload(p, schema)
    assert wl.queries == (Query((0,)), Query((0, 1)))
    assert wl.weights == (1.0, 2.5)
    bare = write(tmp_path, "b.json", json.dumps([[0], [1]]))
    wl2 = load_workload(bare, schema)
    assert wl2.queries == (Query((0,)), Query((1,)))
    bad = write(tmp_path, "bad.json", json.dumps({"queries": [["height"]]}))
    with pytest.raises(IngestionError):
        load_workload(bad, schema)


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400", "10**400"])
def test_load_workload_rejects_non_finite_weights(tmp_path, weight):
    # JSON NaN and Infinity parse to floats, a 401-digit integer overflows one
    schema = Schema((AttrDomain("age", 3), AttrDomain("sex", 2)))
    p = write(tmp_path, "w.json", f'{{"queries": [[0], [1]], "weights": [1, {weight}]}}')
    with pytest.raises(IngestionError, match="weights must be a list of finite numbers") as err:
        load_workload(p, schema)
    assert str(p) in str(err.value)


@pytest.mark.parametrize("bins", ["[0, NaN, 10]", "[NaN, 0, 10]", "[0, 10, NaN]"])
def test_load_domain_rejects_nan_bin_edges(tmp_path, bins):
    # [0, NaN, 10] once binned 0.5, 3, 7 and 12 as 0, 0, 0 and 1
    p = write(tmp_path, "d.json", '{"attrs": [{"name": "x", "bins": %s}]}' % bins)
    with pytest.raises(ValueError, match="attribute 'x': bin edges must increase"):
        load_domain(p)


def test_load_domain_keeps_infinite_bin_edges(tmp_path):
    p = write(tmp_path, "d.json",
              '{"attrs": [{"name": "x", "bins": [-Infinity, 0, 10, Infinity]}]}')
    schema, _ = load_domain(p)
    edges = schema.attrs[0].bin_edges
    assert edges == (-np.inf, 0.0, 10.0, np.inf)
    assert discretize([-5.0, 0.5, 3.0, 12.0], edges).tolist() == [0, 1, 1, 2]


@pytest.mark.parametrize("index", [2, 9, -1])
def test_load_workload_rejects_index_outside_schema(tmp_path, index):
    schema = Schema((AttrDomain("age", 3), AttrDomain("sex", 2)))
    p = write(tmp_path, "w.json", json.dumps([[0, index]]))
    with pytest.raises(IngestionError, match=f"attribute index {index} "):
        load_workload(p, schema)


@pytest.mark.parametrize("attr", [1.7, 1.0, True, False, None, [1]])
def test_load_workload_rejects_non_integer_index(tmp_path, attr):
    # only JSON integers index attributes; int(1.7) or int(true) would
    # silently score attribute 1
    schema = Schema((AttrDomain("age", 3), AttrDomain("sex", 2)))
    p = write(tmp_path, "w.json", json.dumps([[0, attr]]))
    with pytest.raises(IngestionError, match="neither a name nor an integer index"):
        load_workload(p, schema)


def test_workload_error_identity_and_disjoint():
    ds = _random_dataset(50, [2, 2], 7)
    wl = build_workload(ds.schema)
    rep = workload_error(ds, ds, wl)
    assert rep.workload_error == 0.0
    left = Dataset(np.zeros((10, 2), dtype=np.int64), ds.schema)
    right = Dataset(np.ones((10, 2), dtype=np.int64), ds.schema)
    rep = workload_error(left, right, Workload((Query((0, 1)),)))
    assert rep.workload_error == pytest.approx(2.0)


def test_workload_error_against_brute_force():
    real = _random_dataset(200, [3, 2, 4], 11)
    synth = _random_dataset(150, [3, 2, 4], 12)
    wl = build_workload(real.schema)
    rep = workload_error(real, synth, wl)
    per = dict(rep.per_query)
    # independent tally: loop rows and cells directly
    for q in wl.queries:
        cards = [real.schema.attrs[a].cardinality for a in q.attrs]
        err = 0.0
        for cell in np.ndindex(*cards):
            fr = np.mean(np.all(real.rows[:, q.attrs] == cell, axis=1))
            fs = np.mean(np.all(synth.rows[:, q.attrs] == cell, axis=1))
            err += abs(fr - fs)
        assert abs(per[q.attrs] - err) <= 1e-9
    assert rep.workload_error == pytest.approx(np.mean(list(per.values())))


def test_workload_error_rejects_bad_inputs():
    ds = _random_dataset(10, [2, 2], 0)
    other = _random_dataset(10, [2, 3], 0)
    wl = Workload((Query((0,)),))
    with pytest.raises(MetricError):
        workload_error(ds, other, wl)
    empty = Dataset(np.zeros((0, 2), dtype=np.int64), ds.schema)
    with pytest.raises(MetricError):
        workload_error(ds, empty, wl)


def test_metrics_report_invariant_and_json():
    with pytest.raises(ValueError):
        MetricsReport(0.9, (((0,), 0.2), ((1,), 0.4)))
    rep = MetricsReport(0.3, (((0,), 0.2), ((1,), 0.4)), seed=7,
                        runtime_ms=12.5)
    d = rep.to_json()
    assert d["workload_error"] == 0.3
    assert d["seed"] == 7 and d["runtime_ms"] == 12.5
    assert "config" not in d and "transcript" not in d
    json.dumps(d)


def test_make_toy_dataset_deterministic():
    a = make_toy_dataset(n=300, seed=4)
    b = make_toy_dataset(n=300, seed=4)
    assert np.array_equal(a.rows, b.rows)
    assert a.schema.dims == 5


def test_json_inputs_reject_other_types(tmp_path):
    # the forms the malformed-input CLI tests leave out, one per check
    for i, attr in enumerate([{"name": 5, "cardinality": 2},
                              {"name": "a", "bins": "0123"},
                              {"name": "a", "bins": [0, "1", 2]},
                              {"name": "a", "cardinality": True}]):
        p = write(tmp_path, f"d{i}.json", json.dumps({"attrs": [attr]}))
        with pytest.raises(IngestionError, match=str(p)):
            load_domain(p)
    schema = Schema((AttrDomain("age", 3), AttrDomain("sex", 2)))
    for i, doc in enumerate([5, {"queries": [["age"]], "weights": "2"},
                             {"queries": [["age"]], "weights": [True]},
                             {"queries": ["age"]}]):
        p = write(tmp_path, f"w{i}.json", json.dumps(doc))
        with pytest.raises(IngestionError, match=str(p)):
            load_workload(p, schema)
    ds = _random_dataset(10, [2, 2], 0)
    for i, spec in enumerate([{"rows": [0, 10], "attrs": [0, 1]},
                              [{"rows": [0, 10.0], "attrs": [0, 1]}],
                              [{"rows": [0, 10], "attrs": [0, 1.0]}],
                              [{"rows": [0], "attrs": [0, 1]}],
                              ["holder"]]):
        p = write(tmp_path, f"m{i}.json", json.dumps(spec))
        with pytest.raises(ValueError, match="mixed partition spec"):
            partition(ds, f"mixed:{p}")
