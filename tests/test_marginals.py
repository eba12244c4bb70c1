"""Marginal computation over partitioned data: local shares, join, Q* path."""

import numpy as np
import pytest

from mpcsyn import marginals as M
from mpcsyn.rss import RangeContractError, make_engine


def small_schema():
    return M.Schema((M.AttrDomain("a1", 2), M.AttrDomain("a2", 2)))


def test_attr_domain_validation():
    with pytest.raises(M.SchemaError):
        M.AttrDomain("x", 1)
    with pytest.raises(M.SchemaError):
        M.AttrDomain("x", 3, bin_edges=(1.0, 1.0, 2.0))
    dom = M.AttrDomain("x", 3, bin_edges=(0.0, 0.5, 1.0))
    assert dom.bin_edges == (0.0, 0.5, 1.0)


def test_schema_and_dataset_validation():
    with pytest.raises(M.SchemaError):
        M.Schema((M.AttrDomain("a", 2), M.AttrDomain("a", 3)))
    schema = small_schema()
    with pytest.raises(M.SchemaError):
        M.Dataset(np.array([[0, 2]]), schema)  # 2 out of range
    with pytest.raises(M.SchemaError):
        M.Dataset(np.array([[0.5, 1.0]]), schema)
    with pytest.raises(M.SchemaError):
        M.Dataset(np.zeros((3, 3), dtype=int), schema)


def test_query_validation_and_cells():
    with pytest.raises(ValueError):
        M.Query((1, 0))
    with pytest.raises(ValueError):
        M.Query((0, 0))
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 4)))
    q = M.Query((0, 1))
    assert q.size(schema) == 12
    rows = np.array([[2, 3], [0, 0], [1, 2]])
    assert q.cell_of(rows, schema).tolist() == [2 * 4 + 3, 0, 1 * 4 + 2]


def test_workload_weights():
    q = M.Query((0,))
    assert M.Workload((q,)).weights == (1.0,)
    with pytest.raises(ValueError):
        M.Workload((q,), (1.0, 2.0))
    with pytest.raises(ValueError):
        M.Workload((q,), (-1.0,))


def test_local_compute_pinned_examples():
    eng = make_engine("cdp", seed=80)
    schema = small_schema()
    wl = M.Workload((M.Query((0,)), M.Query((0, 1))))
    # horizontal holder with rows (0,1),(1,1): q={a1} -> [1,1]
    h = M.Holding((0, 2), (0, 1))
    partials, cells = M.local_compute(
        eng, np.array([[0, 1], [1, 1]]), h, wl, schema, qstar=[], share_cells=False
    )
    assert eng.reconstruct(partials[M.Query((0,))]).tolist() == [1, 1]
    assert eng.reconstruct(partials[M.Query((0, 1))]).tolist() == [0, 1, 0, 1]
    assert cells is None
    # vertical holder owning only a1: 2-way query forced to zeros
    h = M.Holding((0, 2), (0,))
    partials, cells = M.local_compute(
        eng, np.array([[0], [1]]), h, wl, schema, qstar=[M.Query((0, 1))], share_cells=True
    )
    assert eng.reconstruct(partials[M.Query((0, 1))]).tolist() == [0, 0, 0, 0]
    assert cells.shape == (2, 1)
    # empty holder: all-zero partials
    h = M.Holding((0, 0), (0, 1))
    partials, _ = M.local_compute(
        eng, np.zeros((0, 2), dtype=int), h, wl, schema, qstar=[], share_cells=False
    )
    assert eng.reconstruct(partials[M.Query((0,))]).tolist() == [0, 0]


def test_local_compute_rejects_bad_shape():
    eng = make_engine("cdp", seed=81)
    h = M.Holding((0, 2), (0, 1))
    with pytest.raises(M.SchemaError):
        M.local_compute(eng, np.zeros((2, 1), dtype=int), h, M.Workload(()), small_schema(), [], False)


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_pi_comp_horizontal_sum(backend):
    eng = make_engine(backend, seed=82)
    rng = np.random.default_rng(82)
    schema = small_schema()
    rows = rng.integers(0, 2, size=(20, 2))
    ds = M.Dataset(rows, schema)
    wl = M.Workload((M.Query((0,)),))
    ans = M.compute_workload_answers(eng, ds, M.horizontal_plan(20, 2, 2), wl)
    want = M.exact_marginal(rows, M.Query((0,)), schema)
    assert np.array_equal(eng.reconstruct(ans[M.Query((0,))]).astype(np.int64), want)


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_pi_comp_vertical_pinned(backend):
    eng = make_engine(backend, seed=83)
    schema = small_schema()
    rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    ds = M.Dataset(rows, schema)
    wl = M.Workload((M.Query((0, 1)),))
    plan = M.vertical_plan(4, 2, [[0], [1]])
    ans = M.compute_workload_answers(eng, ds, plan, wl)
    assert eng.reconstruct(ans[M.Query((0, 1))]).tolist() == [1, 1, 1, 1]


def test_pi_comp_empty_qstar_runs_no_equality_tests():
    eng = make_engine("mpc", seed=84)
    rng = np.random.default_rng(84)
    rows = rng.integers(0, 2, size=(30, 2))
    ds = M.Dataset(rows, small_schema())
    wl = M.Workload((M.Query((0,)), M.Query((1,)), M.Query((0, 1))))
    M.compute_workload_answers(eng, ds, M.horizontal_plan(30, 2, 3), wl)
    assert "eq" not in eng.transcript.counters


def test_pi_comp_missing_shared_data():
    eng = make_engine("cdp", seed=85)
    with pytest.raises(M.OrchestrationError):
        M.pi_comp(eng, [], M.Workload((M.Query((0,)),)), [M.Query((0,))], shared_data=None)


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_pi_join_identity_and_concat(backend):
    eng = make_engine(backend, seed=86)
    rng = np.random.default_rng(86)
    rows = rng.integers(0, 2, size=(6, 2)).astype(np.uint64)
    # single holder: identity
    plan = M.PartitionPlan((M.Holding((0, 6), (0, 1)),))
    joined = M.pi_join(eng, plan, [eng.share(rows)], 6, 2)
    assert np.array_equal(eng.reconstruct(joined), rows)
    # two vertical holders: concatenation
    plan = M.vertical_plan(6, 2, [[0], [1]])
    joined = M.pi_join(
        eng, plan, [eng.share(rows[:, :1]), eng.share(rows[:, 1:])], 6, 2
    )
    assert np.array_equal(eng.reconstruct(joined), rows)


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_pi_join_quadrant_tiling(backend):
    eng = make_engine(backend, seed=87)
    rng = np.random.default_rng(87)
    rows = rng.integers(0, 3, size=(8, 4)).astype(np.uint64)
    plan = M.PartitionPlan((
        M.Holding((0, 4), (0, 1)), M.Holding((0, 4), (2, 3)),
        M.Holding((4, 8), (0, 2)), M.Holding((4, 8), (1, 3)),
    ))
    pieces = [
        eng.share(rows[0:4][:, [0, 1]]), eng.share(rows[0:4][:, [2, 3]]),
        eng.share(rows[4:8][:, [0, 2]]), eng.share(rows[4:8][:, [1, 3]]),
    ]
    before = eng.transcript.msg_count
    joined = M.pi_join(eng, plan, pieces, 8, 4)
    assert eng.transcript.msg_count == before  # placement only
    assert eng.transcript.counters["assign"] == 8 * 4
    assert np.array_equal(eng.reconstruct(joined), rows)


def test_pi_join_uncovered_cell_rejected():
    eng = make_engine("cdp", seed=88)
    plan = M.PartitionPlan((M.Holding((0, 3), (0,)),))
    with pytest.raises(M.CoverageError):
        M.pi_join(eng, plan, [eng.share(np.zeros((3, 1), dtype=np.uint64))], 3, 2)
    overlap = M.PartitionPlan((M.Holding((0, 3), (0, 1)), M.Holding((2, 3), (1,))))
    with pytest.raises(M.CoverageError):
        M.pi_join(
            eng,
            overlap,
            [eng.share(np.zeros((3, 2), dtype=np.uint64)),
             eng.share(np.zeros((1, 1), dtype=np.uint64))],
            3,
            2,
        )


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_local_compute_rejects_values_outside_cardinality(backend):
    schema = small_schema()
    wl = M.Workload((M.Query((0,)), M.Query((0, 1))))
    h = M.Holding((0, 3), (0, 1))
    for bad in ([[0, 1], [5, 0], [1, 1]], [[0, 1], [1, -1], [1, 1]]):
        eng = make_engine(backend, seed=82)
        with pytest.raises(M.SchemaError):
            M.local_compute(eng, np.array(bad), h, wl, schema, qstar=[], share_cells=True)
        # rejected on the plaintext, before anything was shared
        assert eng.transcript.msg_count == 0
    vert = M.Holding((0, 2), (1,))
    with pytest.raises(M.SchemaError):
        M.local_compute(make_engine(backend, seed=83), np.array([[1], [2]]), vert, wl,
                        schema, qstar=[M.Query((0, 1))], share_cells=True)


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_p_way_marginal_pinned_and_random(backend):
    eng = make_engine(backend, seed=89)
    rng = np.random.default_rng(89)
    schema = M.Schema((M.AttrDomain("a", 2), M.AttrDomain("b", 2), M.AttrDomain("c", 2)))
    zeros = np.zeros((8, 3), dtype=np.uint64)
    got = eng.reconstruct(M.p_way_marginal(eng, eng.share(zeros), M.Query((0, 1, 2)), schema))
    assert got.tolist() == [8, 0, 0, 0, 0, 0, 0, 0]
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2), M.AttrDomain("c", 2)))
    rows = np.stack([rng.integers(0, 3, 50), rng.integers(0, 2, 50), rng.integers(0, 2, 50)], axis=1)
    q = M.Query((0, 1, 2))
    got = eng.reconstruct(M.p_way_marginal(eng, eng.share(rows.astype(np.uint64)), q, schema))
    assert np.array_equal(got.astype(np.int64), M.exact_marginal(rows, q, schema))


def test_p_way_equality_count_instrumented():
    eng = make_engine("mpc", seed=90)
    rng = np.random.default_rng(90)
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2), M.AttrDomain("c", 2)))
    rows = rng.integers(0, 2, size=(50, 3)).astype(np.uint64)
    M.p_way_marginal(eng, eng.share(rows), M.Query((0, 1, 2)), schema)
    assert eng.transcript.counters["eq"] == 3 * 50 * 12
    assert eng.transcript.counters["mul"] == 2 * 50 * 12


def test_p_way_mask_bits_follow_cardinality_widths():
    # widths (3-1, 2-1, 2-1).bit_length() = (2, 1, 1) mask bits per compared cell
    eng = make_engine("mpc", seed=97)
    rng = np.random.default_rng(97)
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2), M.AttrDomain("c", 2)))
    rows = rng.integers(0, 2, size=(50, 3)).astype(np.uint64)
    M.p_way_marginal(eng, eng.share(rows), M.Query((0, 1, 2)), schema)
    assert eng.transcript.counters["mask_bit"] == (2 + 1 + 1) * 50 * 12


def test_p_way_cdp_fails_closed_on_cells_outside_width():
    for card, bad in ((2, 2), (2, 7), (4, 4), (3, 4), (5, 8), (3, (1 << 64) - 4)):
        eng = make_engine("cdp", seed=98)
        schema = M.Schema((M.AttrDomain("a", card), M.AttrDomain("b", 2)))
        rows = np.array([[0, 1], [bad, 0], [1, 1]], dtype=np.uint64)
        for q in (M.Query((0,)), M.Query((0, 1))):
            with pytest.raises(RangeContractError):
                M.p_way_marginal(eng, eng.share(rows), q, schema)


def test_p_way_cell_budget():
    eng = make_engine("cdp", seed=91)
    # 50^3 = 125,000 cells, over the 100,000-cell budget
    schema = M.Schema(tuple(M.AttrDomain(f"a{i}", 50) for i in range(3)))
    data = eng.share(np.zeros((2, 3), dtype=np.uint64))
    with pytest.raises(M.CellBudgetError):
        M.p_way_marginal(eng, data, M.Query((0, 1, 2)), schema)


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_p2_matches_pi_comp_qstar_path(backend):
    # same definition, so bit-identical outputs
    eng = make_engine(backend, seed=92)
    rng = np.random.default_rng(92)
    schema = small_schema()
    rows = rng.integers(0, 2, size=(25, 2))
    ds = M.Dataset(rows, schema)
    wl = M.Workload((M.Query((0, 1)),))
    plan = M.vertical_plan(25, 2, [[0], [1]])
    ans = M.compute_workload_answers(eng, ds, plan, wl)
    eng2 = make_engine(backend, seed=92)
    direct = M.p_way_marginal(
        eng2, eng2.share(rows.astype(np.uint64)), M.Query((0, 1)), schema
    )
    assert np.array_equal(eng.reconstruct(ans[M.Query((0, 1))]), eng2.reconstruct(direct))


def test_partition_invariance_across_modes():
    rng = np.random.default_rng(93)
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2), M.AttrDomain("c", 4)))
    rows = np.stack([rng.integers(0, 3, 40), rng.integers(0, 2, 40), rng.integers(0, 4, 40)], axis=1)
    ds = M.Dataset(rows, schema)
    wl = M.Workload(tuple(M.Query(a) for a in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]))
    plans = [
        M.horizontal_plan(40, 3, 2),
        M.vertical_plan(40, 3, [[0, 1], [2]]),
        M.PartitionPlan((
            M.Holding((0, 20), (0, 1, 2)),
            M.Holding((20, 40), (0,)), M.Holding((20, 40), (1, 2)),
        )),
    ]
    outs = []
    for plan in plans:
        eng = make_engine("mpc", seed=94)
        ans = M.compute_workload_answers(eng, ds, plan, wl)
        outs.append({q: eng.reconstruct(ans[q]).tolist() for q in wl.queries})
        for q in wl.queries:
            assert outs[-1][q] == M.exact_marginal(rows, q, schema).tolist(), (plan, q)
    assert outs[0] == outs[1] == outs[2]


def test_horizontal_messages_linear_in_holders():
    rng = np.random.default_rng(95)
    schema = small_schema()
    rows = rng.integers(0, 2, size=(24, 2))
    ds = M.Dataset(rows, schema)
    wl = M.Workload((M.Query((0,)), M.Query((1,)), M.Query((0, 1))))
    msgs = {}
    for n_holders in (2, 4, 8):
        eng = make_engine("mpc", seed=96)
        M.compute_workload_answers(eng, ds, M.horizontal_plan(24, 2, n_holders), wl)
        msgs[n_holders] = eng.transcript.msg_count
    # pure aggregation: 2 sharing messages per holder per query, nothing else
    assert msgs[2] == 2 * 2 * 3 and msgs[4] == 4 * 2 * 3 and msgs[8] == 8 * 2 * 3
