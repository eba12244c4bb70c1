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
    # a NaN edge compares false both ways, so it passed the pairwise check
    for edges in ((0.0, np.nan, 10.0), (np.nan, 0.0, 10.0), (0.0, 10.0, np.nan)):
        with pytest.raises(M.SchemaError, match="'x': bin edges must increase"):
            M.AttrDomain("x", 2, bin_edges=edges)
    inf = float("inf")
    assert M.AttrDomain("x", 3, bin_edges=(-inf, 0.0, inf)).bin_edges == (-inf, 0.0, inf)


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
    for attrs in ((-1,), (-2, 0)):
        with pytest.raises(ValueError, match=f"index {attrs[0]} is negative"):
            M.Query(attrs)
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
    for w in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            M.Workload((q,), (w,))


def test_holding_validation():
    h = M.Holding((0, 5), (2, 0))
    assert h.attrs == (0, 2) and h.n_rows == 5
    with pytest.raises(M.CoverageError, match="row range"):
        M.Holding((3, 2), (0,))
    # a negative attribute used to cover the last column by numpy's
    # negative indexing and validate; a repeated one validated silently
    for attrs in ((3, -1), (-2,), (3, 4, 4), (0, 0)):
        with pytest.raises(M.CoverageError, match="distinct nonnegative"):
            M.Holding((0, 2), attrs)


def test_local_compute_pinned_examples():
    eng = make_engine("cdp", seed=80)
    schema = small_schema()
    local = [M.Query((0,)), M.Query((0, 1))]
    # horizontal holder with rows (0,1),(1,1): q={a1} -> [1,1]
    h = M.Holding((0, 2), (0, 1))
    partials, cells = M.local_compute(
        eng, np.array([[0, 1], [1, 1]]), h, local, schema, share_cells=False
    )
    assert eng.reconstruct(partials[M.Query((0,))]).tolist() == [1, 1]
    assert eng.reconstruct(partials[M.Query((0, 1))]).tolist() == [0, 1, 0, 1]
    assert cells is None
    # vertical holder owning only a1: nothing shared for the 2-way query
    h = M.Holding((0, 2), (0,))
    partials, cells = M.local_compute(
        eng, np.array([[0], [1]]), h, local, schema, share_cells=True
    )
    assert list(partials) == [M.Query((0,))]
    assert eng.reconstruct(partials[M.Query((0,))]).tolist() == [1, 1]
    assert cells.shape == (2, 1)
    # only the listed queries are answered, even where the holding covers more
    partials, _ = M.local_compute(
        eng, np.array([[0], [1]]), h, [], schema, share_cells=False
    )
    assert partials == {}
    # empty holder: all-zero partials
    h = M.Holding((0, 0), (0, 1))
    partials, _ = M.local_compute(
        eng, np.zeros((0, 2), dtype=int), h, local, schema, share_cells=False
    )
    assert eng.reconstruct(partials[M.Query((0,))]).tolist() == [0, 0]


def test_local_compute_rejects_bad_shape():
    eng = make_engine("cdp", seed=81)
    h = M.Holding((0, 2), (0, 1))
    with pytest.raises(M.SchemaError):
        M.local_compute(eng, np.zeros((2, 1), dtype=int), h, [], small_schema(), False)


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
    wl = M.Workload((M.Query((0,)), M.Query((1,))))
    # no holder answered any query
    with pytest.raises(M.OrchestrationError):
        M.pi_comp(eng, [], wl, shared_data=None)
    # a holder answered a1 but none answered a2
    partials = {M.Query((0,)): eng.share(np.array([1, 1], dtype=np.uint64))}
    with pytest.raises(M.OrchestrationError):
        M.pi_comp(eng, [partials], wl, shared_data=None)
    # every query answered: no table needed
    partials[M.Query((1,))] = eng.share(np.array([2, 0], dtype=np.uint64))
    ans = M.pi_comp(eng, [partials, partials], wl, shared_data=None)
    assert eng.reconstruct(ans[M.Query((1,))]).tolist() == [4, 0]


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
            M.local_compute(eng, np.array(bad), h, wl.queries, schema, share_cells=True)
        # rejected on the plaintext, before anything was shared
        assert eng.transcript.msg_count == 0
    vert = M.Holding((0, 2), (1,))
    with pytest.raises(M.SchemaError):
        M.local_compute(make_engine(backend, seed=83), np.array([[1], [2]]), vert, [],
                        schema, share_cells=True)


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
    # widths (3-1, 2-1, 2-1).bit_length() = (2, 1, 1) mask bits per row,
    # each attribute's column opened once for all 12 cells
    eng = make_engine("mpc", seed=97)
    rng = np.random.default_rng(97)
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2), M.AttrDomain("c", 2)))
    rows = rng.integers(0, 2, size=(50, 3)).astype(np.uint64)
    M.p_way_marginal(eng, eng.share(rows), M.Query((0, 1, 2)), schema)
    assert eng.transcript.counters["mask_bit"] == (2 + 1 + 1) * 50


def test_p_way_exact_across_chunks(monkeypatch):
    # 24 cells per 256-element chunk: 10 rows a chunk, so 60 rows take 6
    # chunks, and each row of each queried column is opened once
    monkeypatch.setattr(M, "_CHUNK_ELEMS", 256)
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2), M.AttrDomain("c", 4)))
    rows = np.random.default_rng(99).integers(0, (3, 2, 4), size=(60, 3))
    q = M.Query((0, 1, 2))
    got = {}
    for backend in ("mpc", "cdp"):
        eng = make_engine(backend, seed=99)
        got[backend] = eng.reconstruct(
            M.p_way_marginal(eng, eng.share(rows.astype(np.uint64)), q, schema))
        assert eng.transcript.counters["eq"] == 3 * 60 * 24
        assert eng.transcript.counters["mul"] == 2 * 60 * 24
        if backend == "mpc":
            assert eng.transcript.counters["masked_open"] == 3 * 60
            # widths (3-1, 2-1, 4-1).bit_length() = (2, 1, 2) mask bits per row
            assert eng.transcript.counters["mask_bit"] == (2 + 1 + 2) * 60
    assert np.array_equal(got["mpc"], got["cdp"])
    assert np.array_equal(got["mpc"].astype(np.int64), M.exact_marginal(rows, q, schema))


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


def _tiles_rows(plan, n, q):
    """Reference for ``split_queries``: the holders owning all of q's
    attributes cover every row exactly once."""
    cover = np.zeros(n, dtype=np.int64)
    for h in plan.holders:
        if set(q.attrs) <= set(h.attrs):
            cover[h.rows[0] : h.rows[1]] += 1
    return bool((cover == 1).all())


def test_split_queries_mixed_plans_and_empty_query():
    from itertools import combinations

    mixed = M.PartitionPlan((
        M.Holding((0, 20), (0, 1, 2)),
        M.Holding((20, 40), (0,)), M.Holding((20, 40), (1, 2)),
    ))
    quadrants = M.PartitionPlan((
        M.Holding((0, 20), (0, 1)), M.Holding((0, 20), (2, 3)),
        M.Holding((20, 40), (0, 2)), M.Holding((20, 40), (1, 3)),
    ))
    cases = [
        # (0,) and (1, 2) are tiled by the full holder and a bottom one;
        # only the full holder owns (0, 1), so it covers half the rows
        (mixed, 3, {(0,), (1,), (2,), (1, 2)}),
        # every single attribute is tiled, no pair is
        (quadrants, 4, {(0,), (1,), (2,), (3,)}),
        (M.horizontal_plan(40, 3, 3), 3, None),  # everything local
        (M.vertical_plan(40, 3, [[0, 2], [1]]), 3, {(0,), (1,), (2,), (0, 2)}),
        (M.PartitionPlan((M.Holding((0, 40), (0, 1, 2)),)), 3, None),
    ]
    for plan, d, want in cases:
        plan.validate(40, d)
        queries = tuple(M.Query(a) for k in range(d + 1)
                        for a in combinations(range(d), k))
        local, qstar = M.split_queries(plan, 40, M.Workload(queries))
        assert local + qstar == sorted(queries, key=lambda q: q not in local)
        assert local == [q for q in queries if _tiles_rows(plan, 40, q)], plan
        if want is not None:
            assert {q.attrs for q in local} == want, plan
        # the empty query is owned by every holder: local iff the holders
        # do not share rows, as in a horizontal split
        empty_local = all(h.attrs == tuple(range(d)) for h in plan.holders)
        assert (M.Query(()) in local) == empty_local, plan


@pytest.mark.parametrize("case", ["vertical-join", "mixed"])
def test_input_phase_traffic_closed_form(case):
    # each holder shares one count vector per local query it covers and,
    # when Q* is nonempty, its cells: a sharing sends two parties two
    # components each, 2 messages of 16 bytes an element
    from mpcsyn import dataio

    if case == "vertical-join":
        ds, plan = dataio.partition(dataio.make_toy_dataset(200, 5), "vertical:2")
    else:
        rows = np.random.default_rng(7).integers(0, (3, 2, 4), size=(40, 3))
        ds = M.Dataset(rows, M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2),
                                       M.AttrDomain("c", 4))))
        plan = M.PartitionPlan((
            M.Holding((0, 20), (0, 1, 2)),
            M.Holding((20, 40), (0,)), M.Holding((20, 40), (1, 2)),
        ))
    wl = dataio.build_workload(ds.schema)
    local, qstar = M.split_queries(plan, ds.n, wl)
    assert qstar
    covered = [(h, q) for h in plan.holders for q in local
               if set(q.attrs) <= set(h.attrs)]
    messages = 2 * len(covered) + 2 * len(plan.holders)
    nbytes = 2 * 16 * (sum(q.size(ds.schema) for _, q in covered)
                   + sum(h.n_rows * len(h.attrs) for h in plan.holders))
    eng = make_engine("mpc", seed=8)
    M.compute_workload_answers(eng, ds, plan, wl)
    top = eng.transcript.summary()["scopes"]["top"]
    assert top == {"messages": messages, "bytes": nbytes}
    if case == "vertical-join":
        # 9 of the 15 queries are local, each covered by one holder
        assert (len(local), messages) == (9, 22)


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_p_way_empty_table_counts_zero(backend, monkeypatch):
    monkeypatch.setattr(M, "_CHUNK_ELEMS", 16)
    schema = M.Schema((M.AttrDomain("a", 3), M.AttrDomain("b", 2)))
    eng = make_engine(backend, seed=100)
    empty = eng.share(np.zeros((0, 2), dtype=np.uint64))
    got = eng.reconstruct(M.p_way_marginal(eng, empty, M.Query((0, 1)), schema))
    assert got.tolist() == [0] * 6


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_empty_query_on_column_split_answers_row_count(backend):
    # two holders share rows, so the empty query goes to Q*; its one cell
    # is the public row count, as a horizontal plan answers it
    rows = np.array([[0, 1], [1, 1], [1, 0]])
    ds = M.Dataset(rows, small_schema())
    wl = M.Workload((M.Query(()), M.Query((0,))))
    answers = {}
    for name, plan in (("vertical", M.vertical_plan(3, 2, [[0], [1]])),
                       ("horizontal", M.horizontal_plan(3, 2, 2))):
        eng = make_engine(backend, seed=101)
        ans = M.compute_workload_answers(eng, ds, plan, wl)
        answers[name] = {q: eng.reconstruct(ans[q]).tolist() for q in wl.queries}
        assert "pi_comp" not in eng.transcript.summary()["scopes"], name
    assert answers["vertical"] == answers["horizontal"]
    assert answers["vertical"][M.Query(())] == [3]


def _pi_comp_bytes(schema, qstar, n):
    """Closed form of the aggregation bytes over Q*: per queried attribute
    of width b, b masked words from party 2 to party 1 and one resharing
    of the b mask bits (32 b), one opening (48) and floor(b/2) one-hot
    products (24 each) per row, then ceil(b/2) - 1
    chunk ANDs per compared cell; k - 1 products join a cell's k tests."""
    total = 0
    for q in qstar:
        cells = q.size(schema)
        for a in q.attrs:
            b = (schema.attrs[a].cardinality - 1).bit_length()
            total += (32 * b + 48 + 24 * (b // 2)) * n
            total += 24 * ((b + 1) // 2 - 1) * cells * n
        total += 24 * (q.k - 1) * cells * n
    return total


@pytest.mark.parametrize("case", ["vertical-join", "wide"])
def test_pi_comp_bytes_closed_form_on_vertical_plan(case):
    from mpcsyn import dataio

    if case == "vertical-join":
        ds, plan = dataio.partition(dataio.make_toy_dataset(2000, 1), "vertical:2")
    else:
        # widths 3, 4 and 5 bits: a lone top chunk, and chunk ANDs per cell
        cards = (5, 16, 17)
        rows = np.random.default_rng(9).integers(0, cards, size=(30, 3))
        ds = M.Dataset(rows, M.Schema(tuple(M.AttrDomain(f"a{i}", c)
                                            for i, c in enumerate(cards))))
        plan = M.vertical_plan(30, 3, [[0], [1, 2]])
    wl = dataio.build_workload(ds.schema)
    _, qstar = M.split_queries(plan, ds.n, wl)
    eng = make_engine("mpc", seed=10)
    ans = M.compute_workload_answers(eng, ds, plan, wl)
    got = eng.transcript.summary()["scopes"]["pi_comp"]["bytes"]
    assert got == _pi_comp_bytes(ds.schema, qstar, ds.n)
    if case == "vertical-join":
        assert (len(qstar), got) == (6, 6_400_000)
    for q in qstar:
        assert eng.reconstruct(ans[q]).tolist() == M.exact_marginal(ds.rows, q, ds.schema).tolist()
