"""Selection scoring, model updates, sampling, and the full pipeline."""

import functools
import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mpcsyn import dataio, fixed, mechanisms, pipeline
from mpcsyn import primitives as prim
from mpcsyn.marginals import (
    AttrDomain,
    Dataset,
    Query,
    Schema,
    Workload,
    exact_marginal,
    horizontal_plan,
    vertical_plan,
)
from mpcsyn.mechanisms import (
    NOISE_TAIL,
    NoiseSpec,
    NoisyMeasurement,
    draw_noise,
    sample_noise,
)
from mpcsyn.pipeline import (
    JointDistribution,
    PrivacyBudget,
    SelectScoreParams,
    expected_noise_l1,
    mw_update,
    run_pipeline,
    sample_synthetic,
    select_aim,
    select_mwem,
)
from mpcsyn.rss import make_engine

BACKENDS = ["mpc", "cdp"]


def small_schema(cards):
    return Schema(tuple(AttrDomain(f"a{j}", c) for j, c in enumerate(cards)))


def share_counts(eng, per_query):
    return [eng.share(np.asarray(c).astype(np.int64).astype(np.uint64))
            for c in per_query]


def test_privacy_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(0, 1e-9, 5)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1.5, 5)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1e-9, 0)


@pytest.mark.parametrize("field,value", [
    ("epsilon_total", "inf"), ("epsilon_total", "1e400"),
    ("epsilon_total", "nan"), ("delta", "inf"),
])
def test_privacy_budget_rejects_non_finite(field, value):
    # as the CLI parses its flags: 1e400 overflows to inf
    args = {"epsilon_total": 1.0, "delta": 1e-9, field: float(value)}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PrivacyBudget(args["epsilon_total"], args["delta"], 5)


def test_privacy_budget_split_and_ledger():
    b = PrivacyBudget(1.0, 1e-9, 5)
    assert b.epsilon_select == Fraction(1, 10)
    assert b.epsilon_measure == Fraction(1, 10)
    for eps, rounds in [(1.0, 5), (0.1, 7), (Fraction(1, 3), 4)]:
        b = PrivacyBudget(eps, 1e-9, rounds)
        spent = sum(e["epsilon_select"] + e["epsilon_measure"]
                    for e in b.ledger())
        assert spent == b.epsilon_total  # exact rational bookkeeping


def test_privacy_budget_scales():
    b = PrivacyBudget(2.0, 1e-6, 4)
    eps_m = 2.0 / 8
    sigma = np.sqrt(2 * np.log(1.25 / 1e-6)) / eps_m
    assert abs(b.measure_scale("gaussian-box-muller") - sigma) < 1e-12
    assert abs(b.measure_scale("gaussian-irwin-hall") - sigma) < 1e-12
    assert abs(b.measure_scale("laplace-sign") - 1 / eps_m) < 1e-12


def test_expected_noise_l1_values():
    assert expected_noise_l1("gaussian-box-muller", 3.0, 4) == pytest.approx(
        np.sqrt(2 / np.pi) * 3.0 * 4)
    assert expected_noise_l1("laplace-sign", 3.0, 4) == pytest.approx(12.0)


def test_joint_distribution_validation():
    schema = small_schema([2, 3])
    JointDistribution(np.full(6, 1 / 6), schema)
    with pytest.raises(ValueError):
        JointDistribution(np.full(5, 1 / 5), schema)
    with pytest.raises(ValueError):
        JointDistribution(np.array([0.5, 0.6, -0.1, 0, 0, 0]), schema)
    with pytest.raises(ValueError):
        JointDistribution(np.full(6, 1 / 5), schema)
    big = small_schema([101, 101, 101])  # 1,030,301 cells
    with pytest.raises(ValueError):
        JointDistribution.uniform(big)


def test_joint_distribution_marginal():
    schema = small_schema([2, 3])
    probs = np.array([0.1, 0.2, 0.3, 0.15, 0.05, 0.2])  # row-major (a0, a1)
    d = JointDistribution(probs, schema)
    assert np.allclose(d.marginal(Query((0,))), [0.6, 0.4])
    assert np.allclose(d.marginal(Query((1,))), [0.25, 0.25, 0.5])
    assert np.allclose(d.marginal(Query((0, 1))), probs)


def test_joint_distribution_rejects_non_finite():
    schema = small_schema([2, 2])
    with pytest.raises(ValueError):
        JointDistribution(np.full(4, np.nan), schema)
    with pytest.raises(ValueError):
        JointDistribution(np.array([np.nan, 0.5, 0.5, 0.0]), schema)
    with pytest.raises(ValueError):
        JointDistribution(np.array([np.inf, 0.0, 0.0, 0.0]), schema)
    with pytest.raises(ValueError):
        JointDistribution(np.array([-np.inf, 1.0, 0.0, 0.0]), schema)


def _all_subsets(dims):
    return [tuple(a for a in range(dims) if mask >> a & 1)
            for mask in range(1 << dims)]


def _random_joint(cards, seed):
    probs = np.random.default_rng(seed).random(int(np.prod(cards)))
    return probs / probs.sum()


def test_joint_distribution_marginal_memo_matches_direct_sums():
    cards = (2, 3, 4, 5)
    schema = small_schema(cards)
    probs = _random_joint(cards, 4)
    table = probs.reshape(cards)
    subsets = _all_subsets(len(cards))
    rng = np.random.default_rng(5)
    orders = [sorted(subsets, key=len), sorted(subsets, key=len, reverse=True),
              *[[subsets[i] for i in rng.permutation(len(subsets))]
                for _ in range(4)]]
    for order in orders:
        d = JointDistribution(probs, schema)  # fresh memo per order
        for attrs in order:
            drop = tuple(a for a in range(len(cards)) if a not in attrs)
            want = table.sum(axis=drop).ravel()
            got = d.marginal(Query(attrs))
            assert got.shape == want.shape, attrs
            assert np.max(np.abs(got - want)) <= 1e-15, attrs


def test_joint_distribution_marginal_cannot_change_model():
    cards = (2, 3, 4, 5)
    schema = small_schema(cards)
    probs = _random_joint(cards, 6)
    d = JointDistribution(probs, schema)
    before = d.probs.copy()
    with pytest.raises(ValueError):
        d.probs[0] = 0.5
    firsts = {attrs: d.marginal(Query(attrs)).copy()
              for attrs in _all_subsets(len(cards))}
    for attrs in _all_subsets(len(cards)):
        got = d.marginal(Query(attrs))
        assert not np.shares_memory(got, d.probs), attrs
        if got.flags.writeable:  # a private copy: writing it is harmless
            got[...] = -1.0
        else:
            with pytest.raises(ValueError):
                got[...] = -1.0
    assert np.array_equal(d.probs, before)
    for attrs, first in firsts.items():
        assert np.array_equal(d.marginal(Query(attrs)), first), attrs


def test_mw_update_chain_matches_direct_formula():
    cards = (2, 3, 4, 5)
    schema = small_schema(cards)
    n = 500
    rng = np.random.default_rng(7)
    queries = [Query(a) for a in _all_subsets(len(cards))]
    dist = JointDistribution(_random_joint(cards, 8), schema)
    ref = dist.probs.reshape(cards).copy()
    for r in range(50):
        q = queries[int(rng.integers(len(queries)))]
        drop = tuple(a for a in range(len(cards)) if a not in q.attrs)
        current = n * ref.sum(axis=drop)
        target = current + rng.normal(0, 20, current.shape)
        m = NoisyMeasurement(q, target.ravel(), NoiseSpec("laplace-sign", 20.0), r)
        dist = mw_update(dist, m, n)
        # the formula before memoization: full-table product, full-table sum
        step = np.exp((target - current) / (2.0 * n))
        ref = ref * np.expand_dims(step, drop)
        ref = ref / ref.sum()
        assert np.max(np.abs(dist.probs - ref.ravel())) <= 1e-12, r
        assert abs(dist.probs.sum() - 1.0) <= 1e-12, r



def _noisy_measurements(dist, n, attrs_list, seed):
    rng = np.random.default_rng(seed)
    out = []
    for r, attrs in enumerate(attrs_list):
        current = n * dist.marginal(Query(attrs))
        target = current + rng.normal(0, 20, current.shape)
        out.append(NoisyMeasurement(Query(attrs), target,
                                    NoiseSpec("laplace-sign", 20.0), r))
    return out


def test_mw_update_replay_matches_chained_steps():
    cards = (2, 3, 4, 5)
    schema = small_schema(cards)
    n = 500
    subsets = _all_subsets(len(cards))
    rng = np.random.default_rng(9)
    for trial in range(4):
        dist = JointDistribution(_random_joint(cards, 10 + trial), schema)
        picks = [subsets[int(i)] for i in rng.integers(len(subsets), size=8)]
        # the empty and the full attribute set mid-replay, in every trial
        picks[2:2] = [(), tuple(range(len(cards)))]
        ms = _noisy_measurements(dist, n, picks, trial)
        for k in range(len(ms)):
            chained = dist
            for m in ms[:k + 1]:
                chained = mw_update(chained, m, n)
            replayed = mw_update(dist, ms[k], n, replay=ms[:k])
            assert np.array_equal(replayed.probs, chained.probs), (trial, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mw_update_replay_rejects_non_finite_measurement(bad):
    cards = (2, 3, 4, 5)
    schema = small_schema(cards)
    dist = JointDistribution(_random_joint(cards, 11), schema)
    ms = _noisy_measurements(dist, 500, [(0,), (1, 2), (3,), (0, 3)], 12)
    values = ms[1].values.copy()
    values[1] = bad
    ms[1] = NoisyMeasurement(ms[1].query, values, ms[1].noise,
                             ms[1].round_index)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        mw_update(dist, ms[-1], 500, replay=ms[:-1])


def test_mw_update_replay_leaves_input_model_unchanged():
    cards = (2, 3, 4, 5)
    schema = small_schema(cards)
    dist = JointDistribution(_random_joint(cards, 13), schema)
    for attrs in _all_subsets(len(cards)):
        dist.marginal(Query(attrs))  # fill the memo, as a round does
    probs = dist.probs.copy()
    memo = {k: v.copy() for k, v in dist._memo.items()}
    ms = _noisy_measurements(dist, 500, [(0, 1), (0, 1, 2, 3), (2,), (0, 1)],
                             14)
    mw_update(dist, ms[-1], 500, replay=ms[:-1])
    assert np.array_equal(dist.probs, probs)
    assert dist._memo.keys() == memo.keys()
    for k, v in memo.items():
        assert np.array_equal(dist._memo[k], v), k


def _broadcast_mw(dist, ms, n):
    """Probabilities after ``ms`` as plain broadcast multiplicative-weights
    steps: the reference layout for ``mw_update``."""
    shape = dist.schema.cardinalities
    table = dist.probs.reshape(shape)
    for meas in ms:
        attrs = meas.query.attrs
        marg = pipeline._partial_sum(table, attrs, {})
        target = np.asarray(meas.values, dtype=np.float64).reshape(marg.shape)
        step = np.exp((target - n * marg) / (2.0 * n))
        step /= (marg * step).sum()
        table = table * np.expand_dims(
            step, tuple(a for a in range(len(shape)) if a not in attrs))
    return table.ravel()


@pytest.mark.parametrize("min_run", [None, 1, 20, 100, 600, 7200])
def test_mw_update_step_layout_matches_broadcast(monkeypatch, min_run):
    # suffix sizes 1, 6, 30, 150, 600, 2400, 7200: the run lengths put the
    # materialized block at every depth, from none (1) to the whole table
    # (7,200); the default (2,048) starts it at axis 1
    if min_run is not None:
        monkeypatch.setattr(pipeline, "_MIN_RUN", min_run)
    cards = (3, 4, 4, 5, 5, 6)
    schema = small_schema(cards)
    n = 700
    dist = JointDistribution(_random_joint(cards, 21), schema)
    picks = [(0,), (2,), (5,), (0, 5), (2, 3), (), (0, 2, 4), (5,), (0,)]
    ms = _noisy_measurements(dist, n, picks, 22)
    for k in range(len(ms)):
        single = mw_update(dist, ms[k], n).probs
        assert np.array_equal(single, _broadcast_mw(dist, ms[k:k + 1], n)), k
        replayed = mw_update(dist, ms[k], n, replay=ms[:k]).probs
        assert np.array_equal(replayed, _broadcast_mw(dist, ms[:k + 1], n)), k


def test_select_score_params_validation():
    with pytest.raises(ValueError):
        SelectScoreParams("PGM", 1.0)
    with pytest.raises(ValueError):
        SelectScoreParams("AIM", 1.0, (0.0,), 0.0)


def test_select_aim_prefers_high_error_query():
    # one query far off, zero bias, generous epsilon: picked essentially
    # always (worst competitor weight is the e^-16 exponent clamp)
    schema = small_schema([2, 2, 2])
    wl = Workload(tuple(Query((j,)) for j in range(3)))
    params = SelectScoreParams("AIM", 4.0, (0.0, 0.0, 0.0), 1.0)
    hits = 0
    for seed in range(100):
        eng = make_engine("cdp", seed=seed)
        counts = share_counts(eng, [[28, 20], [24, 24], [24, 24]])
        model = [np.array([20.0, 28.0]), np.array([24.0, 24.0]),
                 np.array([24.0, 24.0])]
        if select_aim(eng, counts, model, wl, params) == Query((0,)):
            hits += 1
    assert hits >= 99


def test_select_aim_uniform_when_scores_tie():
    wl = Workload(tuple(Query((j,)) for j in range(4)))
    params = SelectScoreParams("AIM", 1.0, (0.0,) * 4, 1.0)
    eng = make_engine("cdp", seed=51)
    counts = share_counts(eng, [[30, 30]] * 4)
    model = [np.array([25.0, 35.0])] * 4
    tally = np.zeros(4)
    draws = 10_000
    for _ in range(draws):
        q = select_aim(eng, counts, model, wl, params)
        tally[q.attrs[0]] += 1
    chi2 = np.sum((tally - draws / 4) ** 2 / (draws / 4))
    assert chi2 < stats.chi2.ppf(0.99, df=3)


def test_select_aim_heterogeneous_weights_bias_choice():
    # equal raw errors, one query upweighted 8x: it should dominate
    wl = Workload(tuple(Query((j,)) for j in range(3)), (1.0, 8.0, 1.0))
    params = SelectScoreParams("AIM", 2.0, (0.0,) * 3, 8.0)
    eng = make_engine("cdp", seed=13)
    counts = share_counts(eng, [[40, 20]] * 3)
    model = [np.array([30.0, 30.0])] * 3
    tally = np.zeros(3)
    for _ in range(600):
        q = select_aim(eng, counts, model, wl, params)
        tally[q.attrs[0]] += 1
    assert tally[1] > 0.8 * 600


def test_select_mwem_uniform_when_model_matches():
    wl = Workload(tuple(Query((j,)) for j in range(4)))
    eng = make_engine("cdp", seed=7)
    counts = share_counts(eng, [[15, 45]] * 4)
    model = [np.array([15.0, 45.0])] * 4
    tally = np.zeros(4)
    draws = 6000
    for _ in range(draws):
        q = select_mwem(eng, counts, model, wl, 1.0)
        tally[q.attrs[0]] += 1
    chi2 = np.sum((tally - draws / 4) ** 2 / (draws / 4))
    assert chi2 < stats.chi2.ppf(0.99, df=3)


def test_select_mwem_matches_analytic_softmax():
    # L1 error 10 on one query, 0 on nine others, eps_select = 2:
    # exponential-mechanism probability e^10 / (e^10 + 9)
    wl = Workload(tuple(Query((j,)) for j in range(10)))
    eng = make_engine("cdp", seed=77)
    counts = share_counts(eng, [[25, 25]] + [[20, 20]] * 9)
    model = [np.array([20.0, 30.0])] + [np.array([20.0, 20.0])] * 9
    draws = 10_000
    hits = sum(
        select_mwem(eng, counts, model, wl, 2.0) == Query((0,))
        for _ in range(draws)
    )
    p = np.exp(10) / (np.exp(10) + 9)
    assert abs(hits - draws * p) <= 3 * np.sqrt(draws * p * (1 - p)) + 1


@pytest.mark.parametrize("algo", ["AIM", "MWEM"])
def test_select_backends_agree(algo):
    # secure and plaintext selection pick the same index when they share
    # one randomness stream, across 100 random instances
    rng = np.random.default_rng(99)
    for inst in range(100):
        nq = int(rng.integers(2, 5))
        counts = [rng.integers(0, 40, size=2) for _ in range(nq)]
        model = [rng.uniform(0, 40, size=2) for _ in range(nq)]
        wl = Workload(tuple(Query((j,)) for j in range(nq)))
        picks = []
        for backend in BACKENDS:
            eng = make_engine(backend, seed=1000 + inst)
            shared = share_counts(eng, counts)
            if algo == "AIM":
                params = SelectScoreParams(
                    "AIM", 1.0, tuple(1.0 for _ in range(nq)), 1.0)
                picks.append(select_aim(eng, shared, model, wl, params))
            else:
                picks.append(select_mwem(eng, shared, model, wl, 1.0))
        assert picks[0] == picks[1]


def _per_query_selection_weights(eng, shared_counts, model_answers, workload,
                                 params):
    """Selection weights with one lift, one subtraction, one index and one
    sum per query: the reference for the one-pass
    ``pipeline._selection_weights``."""
    diffs = [
        eng.sub_const(eng.mul_const_int(c, fixed.FX_ONE),
                      fixed.encode(np.asarray(a, dtype=np.float64)))
        for c, a in zip(shared_counts, model_answers)
    ]
    flat = eng.concat(diffs, axis=0)
    neg = prim.sec_cmp(eng, flat, eng.zeros(flat.shape), "LT")
    sgn = eng.add_const(eng.mul_const_int(neg, -2), np.asarray(1))
    absflat = eng.mul(sgn, flat)
    bounds = np.cumsum([0] + [d.size for d in diffs])
    scores = eng.stack(
        [eng.sum_axis(eng.index(absflat, slice(bounds[i], bounds[i + 1])))
         for i in range(len(diffs))],
        axis=0,
    )
    exponent_scale = 0.5 * params.epsilon_select
    if params.algo == "AIM":
        exponent_scale /= params.max_sensitivity
        scores = eng.sub_const(scores, fixed.encode(
            np.asarray(params.bias, dtype=np.float64)))
        weights = [float(w) for w in workload.weights]
        if len(set(weights)) == 1:
            exponent_scale *= weights[0]
        else:
            scores = eng.concat(
                [eng.scale_pub(eng.index(scores, slice(i, i + 1)), weights[i])
                 for i in range(len(weights))],
                axis=0,
            )
    top = eng.broadcast_to(prim.sec_max(eng, scores), scores.shape)
    shifted = eng.sub(scores, top)
    return prim.sec_softmax_unnorm(eng, eng.scale_pub(shifted, exponent_scale))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algo,weights", [
    ("MWEM", ()),
    ("AIM", ()),
    ("AIM", (1.0, 0.5, 2.0, 1.5, 0.75, 1.0, 3.0)),
])
def test_selection_weights_one_pass_matches_per_query(backend, algo, weights):
    # 1-cell queries first, mid-workload and last, between 3- to 20-cell ones
    schema = small_schema([3, 2, 4, 2, 5])
    wl = Workload(tuple(Query(a) for a in
                        [(), (0,), (0, 2), (), (1, 3), (2, 4), ()]), weights)
    sizes = [q.size(schema) for q in wl.queries]
    rng = np.random.default_rng(31)
    for inst in range(4):
        counts = [rng.integers(0, 40, size=k) for k in sizes]
        model = [rng.uniform(0, 40, size=k) for k in sizes]
        bias = tuple(rng.uniform(0, 30, size=len(sizes)))
        params = SelectScoreParams("AIM", 0.05, bias, max(wl.weights)) \
            if algo == "AIM" else SelectScoreParams("MWEM", 0.05)
        runs = []
        for fn in (pipeline._selection_weights, _per_query_selection_weights):
            eng = make_engine(backend, seed=40 + inst, record_messages=True)
            out = fn(eng, share_counts(eng, counts), model, wl, params)
            runs.append((eng, eng.reconstruct(out)))
        (one, got), (ref, want) = runs
        assert np.array_equal(got, want), inst
        assert len(np.unique(want)) > 1, inst  # the scores are not all tied
        assert one.transcript.counters == ref.transcript.counters, inst
        if backend == "mpc":
            assert one.transcript.records == ref.transcript.records, inst


def test_score_shift_edges():
    # the smallest k with the public score bound below 2^(15 + k)
    one = Workload((Query((0,)), Query((1,))))
    for rows, k in ((0, 0), (16_383, 0), (16_384, 1), (32_767, 1), (32_768, 2)):
        assert pipeline._score_shift(rows, SelectScoreParams("MWEM", 1.0), one) == k, rows
    # AIM, uniform weights: 2n + 1 plus the bias spread
    for bias, k in (((5.0, 32_771.0), 0), ((5.0, 32_772.0), 1)):
        params = SelectScoreParams("AIM", 1.0, bias, 1.0)
        assert pipeline._score_shift(0, params, one) == k, bias
    # non-uniform weights: (2n + 1 + max bias) times the largest weight
    weighted = Workload(one.queries, (0.5, 2.0))
    for bias, k in (((0.0, 16_382.0), 0), ((0.0, 16_383.0), 1)):
        params = SelectScoreParams("AIM", 1.0, bias, 2.0)
        assert pipeline._score_shift(0, params, weighted) == k, bias
    with pytest.raises(ValueError, match="nonnegative"):
        SelectScoreParams("AIM", 1.0, (-1.0, 0.0), 1.0)


@pytest.mark.parametrize("rows,k", [(16_383, 0), (16_384, 1)])
@pytest.mark.parametrize("algo", ["MWEM", "AIM"])
def test_selection_weights_at_the_shift_edge(algo, rows, k):
    # every row in one of 64 cells against a uniform model: L1 = 2n * 63/64,
    # 32,255 and 32,256 at the edge; a second query whose model is exact
    wl = Workload((Query((0,)), Query((1,))))
    far = np.zeros(64, dtype=np.int64)
    far[0] = rows
    exact = np.full(64, rows // 64)
    exact[: rows % 64] += 1
    model = [np.full(64, rows / 64), exact.astype(np.float64)]
    params = SelectScoreParams(algo, 0.0008, (1.0, 1.0) if algo == "AIM" else ())
    assert pipeline._score_shift(rows, params, wl) == k
    words = []
    for backend in BACKENDS:
        eng = make_engine(backend, seed=12)
        out = pipeline._selection_weights(
            eng, share_counts(eng, [far, exact]), model, wl, params)
        words.append(eng.reconstruct(out))
    assert np.array_equal(words[0], words[1])
    want = np.exp([0.0, -0.0004 * 2 * rows * 63 / 64])
    assert np.max(np.abs(fixed.decode(words[1]) - want)) < 2.0**-10


@pytest.mark.parametrize("algo", ["MWEM", "AIM"])
def test_run_pipeline_40k_rows_backends_agree(algo):
    # a constant attribute and a uniform one: the first round's scores lie
    # 64,000 apart, past scale_pub's |x| < 2^15 unless the scores are
    # shifted; k = 2 bits bring them in range
    n = 40_000
    rows = np.column_stack([np.zeros(n, dtype=np.int64), np.arange(n) % 5])
    ds = Dataset(rows, small_schema((5, 5)))
    wl = Workload((Query((0,)), Query((1,))))
    runs = [run_pipeline(ds, horizontal_plan(n, 2, 2), wl,
                         PrivacyBudget(1.0, 1e-9, 2), algo=algo,
                         noise_kind="laplace-sign", backend=backend, seed=4)
            for backend in BACKENDS]
    (synth_m, log_m), (synth_c, log_c) = runs
    assert np.array_equal(synth_m.rows, synth_c.rows)
    assert log_m["rounds"] == log_c["rounds"]
    assert log_c["rounds"][0]["selected_query"] == [0]


@pytest.mark.parametrize("side", [0.999, 1.001])
@pytest.mark.parametrize("algo", ["MWEM", "AIM"])
def test_selection_weights_floor_at_the_product_edge(algo, side):
    # 1,000 rows, bound 2n + 1 = 2,001, exponent scale c = side * 2^15 /
    # 2,001: the floor runs only above the edge, one comparison per query.
    # Query 0 is off by the full 2n, query 1 by 2n - 0.3 and query 2 is
    # exact: scaled, the shifted scores are 0, -0.3 c and -2n c, the last
    # of which reaches 2^15 above the edge unless it is floored
    n = 1000
    wl = Workload((Query((0,)), Query((1,)), Query((2,))))
    counts = [[n, 0], [n, 0], [n // 2, n // 2]]
    model = [np.array([0.0, n]), np.array([0.15, n - 0.15]),
             np.array([n / 2, n / 2])]
    c = side * 2**15 / (2 * n + 1)
    params = SelectScoreParams(algo, 2 * c, (0.0,) * 3 if algo == "AIM" else ())
    words = []
    for backend in BACKENDS:
        eng = make_engine(backend, seed=5)
        out = pipeline._selection_weights(
            eng, share_counts(eng, counts), model, wl, params)
        words.append(eng.reconstruct(out))
        # 6 signs, 2 for the max, 2 per query for sec_exp's clamp
        assert eng.transcript.counters["gt"] == 6 + 2 + 6 + 3 * (side > 1)
    assert np.array_equal(words[0], words[1])
    want = np.exp(np.maximum(c * np.array([0.0, -0.3, -2.0 * n]), -16.0))
    assert np.max(np.abs(fixed.decode(words[1]) - want)) < 2.0**-10


@pytest.mark.parametrize("scale", [1.0 + 2**-20, 16.376, 300_000.3, 1.25e8])
def test_score_floor_scales_below_the_exp_clamp(scale):
    # c = 1.25e8 is eps = 10^9 over two rounds, where a floor word rounded
    # to nearest would miss -16 by up to 0.015
    word = pipeline._score_floor(scale)
    raw = int(fixed.as_word(word).view(np.int64))
    assert -17 * 2**32 < raw * scale < 0
    assert Fraction(raw, 2**32) * Fraction(scale) < -16
    # the scaled floor exponentiates to the clamp's word on both backends
    for backend in BACKENDS:
        eng = make_engine(backend, seed=1)
        floored = eng.scale_pub(eng.const_vec(np.full(2, word)), scale)
        clamp = eng.const_vec(fixed.encode(np.full(2, -16.0)))
        assert np.array_equal(eng.reconstruct(prim.sec_exp(eng, floored)),
                              eng.reconstruct(prim.sec_exp(eng, clamp)))


@pytest.mark.parametrize("algo", ["MWEM", "AIM"])
def test_run_pipeline_wide_scaled_scores_backends_agree(algo):
    # 8,000 rows, a constant attribute and a uniform one: the scores lie
    # 12,800 apart, and at eps = 18 (c = 4.5) their scaled span passes
    # 2^15; without the floor, mpc wrapped and picked (1,) while cdp
    # raised RangeContractError
    n = 8000
    rows = np.column_stack([np.zeros(n, dtype=np.int64), np.arange(n) % 5])
    ds = Dataset(rows, small_schema((5, 5)))
    wl = Workload((Query((0,)), Query((1,))))
    runs = [run_pipeline(ds, horizontal_plan(n, 2, 2), wl,
                         PrivacyBudget(18, 1e-9, 1), algo=algo,
                         noise_kind="laplace-sign", backend=backend, seed=3)
            for backend in BACKENDS]
    (synth_m, log_m), (synth_c, log_c) = runs
    assert np.array_equal(synth_m.rows, synth_c.rows)
    assert log_m["rounds"] == log_c["rounds"]
    assert log_c["rounds"][0]["selected_query"] == [0]


@pytest.mark.parametrize("algo", ["MWEM", "AIM"])
def test_run_pipeline_integer_exponent_scale_backends_agree(algo):
    # eps = 10^8 over two rounds: the exponent scale c = 1.25e7 is an
    # integer, which scale_pub multiplies without a range check; without
    # the floor, mpc wrapped and picked another query while cdp's sec_exp
    # clamp raised RangeContractError. At this budget selection is the
    # argmax of the L1 errors against the uniform first model
    ds = dataio.make_toy_dataset(2000, 5)
    wl = dataio.build_workload(ds.schema)
    runs = [run_pipeline(ds, horizontal_plan(2000, ds.schema.dims, 2), wl,
                         PrivacyBudget(10**8, 1e-9, 2), algo=algo,
                         noise_kind="laplace-sign", backend=backend, seed=1)
            for backend in BACKENDS]
    (synth_m, log_m), (synth_c, log_c) = runs
    assert np.array_equal(synth_m.rows, synth_c.rows)
    assert log_m["rounds"] == log_c["rounds"]
    uniform = JointDistribution.uniform(ds.schema)
    l1 = [np.abs(exact_marginal(ds.rows, q, ds.schema)
                 - 2000 * uniform.marginal(q)).sum() for q in wl.queries]
    assert log_c["rounds"][0]["selected_query"] == \
        list(wl.queries[int(np.argmax(l1))].attrs)


def test_aim_bias_centers_noise_scores():
    # zero true error: scores over noise draws should average at or
    # below zero once the expected noise mass is subtracted
    rng = np.random.default_rng(8)
    sigma, cells, w = 4.0, 6, 1.5
    bias = expected_noise_l1("gaussian-box-muller", sigma, cells)
    scores = np.array([
        w * (np.sum(np.abs(rng.normal(0, sigma, size=cells))) - bias)
        for _ in range(1000)
    ])
    stderr = scores.std() / np.sqrt(len(scores))
    assert scores.mean() <= 3 * stderr


def test_mw_update_fixed_point():
    schema = small_schema([2, 2])
    d = JointDistribution(np.array([0.25, 0.25, 0.25, 0.25]), schema)
    # measurement equal to the current model marginal: no movement
    m = NoisyMeasurement(Query((0,)), np.array([50.0, 50.0]),
                         NoiseSpec("laplace-sign", 0.0), 0)
    d2 = mw_update(d, m, 100)
    assert np.allclose(d2.probs, d.probs, atol=1e-15)


def test_mw_update_moves_toward_measurement():
    schema = small_schema([2, 2])
    d = JointDistribution(np.full(4, 0.25), schema)
    m = NoisyMeasurement(Query((0, 1)), np.array([50.0, 25.0, 12.5, 12.5]),
                         NoiseSpec("laplace-sign", 0.0), 0)
    d2 = mw_update(d, m, 100)
    # cell (0,0) was told to double from n/4 to n/2: it must increase
    assert d2.probs[0] > d.probs[0]
    assert abs(d2.probs.sum() - 1.0) < 1e-12


def test_mw_update_noiseless_convergence():
    # replaying exact measurements of every workload query drives the
    # workload error down monotonically
    rng = np.random.default_rng(21)
    schema = small_schema([3, 2, 4])
    rows = rng.integers(0, [3, 2, 4], size=(150, 3))
    ds = Dataset(rows, schema)
    wl = Workload((Query((0,)), Query((1,)), Query((2,)),
                   Query((0, 1)), Query((1, 2))))
    true = {q: exact_marginal(ds.rows, q, schema).astype(float)
            for q in wl.queries}
    dist = JointDistribution.uniform(schema)

    def delta(d):
        return sum(np.abs(150 * d.marginal(q) - true[q]).sum()
                   for q in wl.queries)

    errs = [delta(dist)]
    for r in range(10):
        for q in wl.queries:
            m = NoisyMeasurement(q, true[q], NoiseSpec("laplace-sign", 0.0), r)
            dist = mw_update(dist, m, 150)
        errs.append(delta(dist))
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


def test_sample_synthetic_point_mass():
    schema = small_schema([2, 3])
    probs = np.zeros(6)
    probs[4] = 1.0  # cell (1, 1) in row-major (2, 3)
    d = JointDistribution(probs, schema)
    out = sample_synthetic(d, 50, np.random.default_rng(0))
    assert out.rows.shape == (50, 2)
    assert np.all(out.rows == [1, 1])


def test_sample_synthetic_empty():
    schema = small_schema([2, 3])
    out = sample_synthetic(JointDistribution.uniform(schema), 0,
                           np.random.default_rng(0))
    assert out.rows.shape == (0, 2)
    assert out.schema == schema


def test_sample_synthetic_frequencies():
    rng = np.random.default_rng(14)
    schema = small_schema([3, 3])
    p = rng.uniform(0.2, 1.0, size=9)
    p /= p.sum()
    d = JointDistribution(p, schema)
    n = 100_000
    out = sample_synthetic(d, n, np.random.default_rng(5))
    cells = out.rows[:, 0] * 3 + out.rows[:, 1]
    freq = np.bincount(cells, minlength=9) / n
    assert np.all(np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / n))


def _toy_instance(n=200, seed=0, cards=(3, 3, 3)):
    rng = np.random.default_rng(seed)
    schema = small_schema(list(cards))
    rows = rng.integers(0, list(cards), size=(n, len(cards)))
    ds = Dataset(rows, schema)
    queries = tuple(Query((j,)) for j in range(len(cards)))
    queries += (Query((0, 1)), Query((1, 2)))
    return ds, Workload(queries)


def test_run_pipeline_single_query_round():
    ds, _ = _toy_instance(n=60)
    wl = Workload((Query((0, 1)),))
    budget = PrivacyBudget(1.0, 1e-9, 1)
    plan = horizontal_plan(60, 3, 3)
    synth, log = run_pipeline(ds, plan, wl, budget, backend="cdp", seed=4)
    assert [r["selected_query"] for r in log["rounds"]] == [[0, 1]]
    assert synth.rows.shape == (60, 3)



def test_run_pipeline_one_mw_update_per_round(monkeypatch):
    calls = []

    def counted(dist, m, n, *, replay=()):
        calls.append(len(replay))
        return mw_update(dist, m, n, replay=replay)

    monkeypatch.setattr(pipeline, "mw_update", counted)
    ds, wl = _toy_instance(n=60, seed=6)
    budget = PrivacyBudget(1.0, 1e-9, 5)
    run_pipeline(ds, horizontal_plan(60, 3, 2), wl, budget, algo="MWEM",
                 backend="cdp", seed=3)
    # one call per round, replaying every earlier measurement
    assert calls == [0, 1, 2, 3, 4]


def test_run_pipeline_draws_noise_once(monkeypatch):
    calls = []

    def counted(eng, kind, length):
        calls.append((kind, length))
        return sample_noise(eng, kind, length)

    monkeypatch.setattr(mechanisms, "sample_noise", counted)
    ds, wl = _toy_instance(n=60, seed=6)
    budget = PrivacyBudget(1.0, 1e-9, 4)
    run_pipeline(ds, horizontal_plan(60, 3, 2), wl, budget, algo="MWEM",
                 noise_kind="laplace-sign", backend="cdp", seed=3)
    # one batch for all rounds: T times the largest query size (3 x 3)
    assert calls == [("laplace-sign", 4 * 9)]


@pytest.mark.parametrize("kind", ["gaussian-box-muller", "laplace-sign"])
def test_run_pipeline_measures_with_pool_slices(kind):
    # round r reveals its counts plus slice [r*w, r*w + len) of the pool;
    # on cdp nothing draws noise before the pool, so a fresh engine with
    # the run's seed redraws it
    ds, wl = _toy_instance(n=80, seed=7)
    budget = PrivacyBudget(1.0, 1e-9, 5)
    _, log = run_pipeline(ds, horizontal_plan(80, 3, 2), wl, budget,
                          algo="MWEM", noise_kind=kind, backend="cdp",
                          seed=12)
    width = max(q.size(ds.schema) for q in wl.queries)
    eng = make_engine("cdp", seed=12)
    spec = NoiseSpec(kind, budget.measure_scale(kind))
    pool = eng.open(draw_noise(eng, spec, budget.rounds * width))
    for r, entry in enumerate(log["rounds"]):
        q = Query(tuple(entry["selected_query"]))
        counts = exact_marginal(ds.rows, q, ds.schema).astype(np.uint64)
        noise = pool[r * width: r * width + counts.size]
        want = fixed.decode((counts << np.uint64(fixed.F)) + noise)
        assert np.array_equal(entry["measurement"]["values"], want), r


def test_run_pipeline_runs_box_muller_once():
    # the protocol's message pattern depends only on shapes, so one
    # batch sends as many messages as one standalone call of any length,
    # however many rounds share it
    ds, wl = _toy_instance(n=40, seed=8)
    plan = horizontal_plan(40, 3, 2)
    per_run = []
    for rounds in (2, 5):
        _, log = run_pipeline(ds, plan, wl, PrivacyBudget(1.0, 1e-9, rounds),
                              algo="MWEM", noise_kind="gaussian-box-muller",
                              backend="mpc", seed=5)
        per_run.append(log["transcript_summary"]["scopes"]["noise_bm"]
                       ["messages"])
    eng = make_engine("mpc", seed=5)
    sample_noise(eng, "gaussian-box-muller", 3)
    single = eng.transcript.summary()["scopes"]["noise_bm"]["messages"]
    assert per_run == [single, single]


def _budget_for_noise_bound(kind, bound):
    """One-round budget whose noise scale times the kind's tail is
    ``bound`` (the scale is inversely proportional to epsilon)."""
    unit = PrivacyBudget(1, 1e-9, 1).measure_scale(kind)
    return PrivacyBudget(Fraction(unit * NOISE_TAIL[kind] / bound), 1e-9, 1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["gaussian-box-muller", "laplace-sign"])
def test_run_pipeline_noise_range_edge(monkeypatch, backend, kind):
    ds, wl = _toy_instance(n=40, seed=9)
    plan = horizontal_plan(40, 3, 2)
    inside = _budget_for_noise_bound(kind, 0.999 * 2**15)
    outside = _budget_for_noise_bound(kind, 1.001 * 2**15)
    assert inside.measure_scale(kind) * NOISE_TAIL[kind] < 2**15
    _, log = run_pipeline(ds, plan, wl, inside, algo="MWEM", noise_kind=kind,
                          backend=backend, seed=2)
    assert len(log["rounds"]) == 1

    def no_engine(*args, **kwargs):
        raise AssertionError("protocol work started")

    monkeypatch.setattr(pipeline, "make_engine", no_engine)
    with pytest.raises(ValueError, match="2\\^15"):
        run_pipeline(ds, plan, wl, outside, algo="MWEM", noise_kind=kind,
                     backend=backend, seed=2)

class _EngineCreated(Exception):
    """Raised in place of an engine: the up-front checks passed."""


def _engine_created(*args, **kwargs):
    raise _EngineCreated


def _aim_edge_instance():
    # 200 rows over (5, 5, 2), queries (2,) and (0, 1): biases of 2 and 25
    # cells at the noise scale, against the L1 bound 2n = 400
    cards = (5, 5, 2)
    rng = np.random.default_rng(5)
    ds = Dataset(rng.integers(0, list(cards), size=(200, 3)),
                 small_schema(cards))
    return ds, horizontal_plan(200, 3, 2), (Query((2,)), Query((0, 1)))


def _aim_wide_instance():
    # 200 rows over (2, 108, 118), queries (0,) and (1, 2): biases of 2
    # and 12,744 cells at the noise scale, against the L1 bound 2n + 1 = 401
    cards = (2, 108, 118)
    rng = np.random.default_rng(5)
    ds = Dataset(rng.integers(0, list(cards), size=(200, 3)),
                 small_schema(cards))
    return ds, horizontal_plan(200, 3, 2), (Query((0,)), Query((1, 2)))


def _aim_run(ds, plan, wl, epsilon, backend):
    return run_pipeline(ds, plan, wl, PrivacyBudget(epsilon, 1e-9, 1),
                        algo="AIM", noise_kind="gaussian-irwin-hall",
                        backend=backend, seed=3)


def _wide_epsilon_at_product(product, weights):
    """epsilon_total of one round at which the exponent product that the
    data cannot avoid on ``_aim_wide_instance`` equals ``product``.

    With e = epsilon_select = epsilon_measure, a cell's noise mass is
    m = sqrt(2/pi) s0 / e for s0 = sqrt(2 ln(1.25/delta)). The scores
    w (L1 - C m) of the 2-cell (w_s) and the 12,744-cell (w_b) query lie
    at least w_b (12,744 m - 401) - 2 w_s m apart, and the exponent scale
    is e / (2 max w); their product is A - w_b 401 e / (2 max w) with A
    free of e.
    """
    w_s, w_b = weights or (1.0, 1.0)
    half_w = 2 * max(w_s, w_b)
    s0 = math.sqrt(2 * math.log(1.25e9))
    a = (12744 * w_b - 2 * w_s) * math.sqrt(2 / math.pi) * s0 / half_w
    return Fraction(2 * (a - product) * half_w / (401 * w_b))


@functools.cache
def _aim_wide_cdp(epsilon, weights):
    ds, plan, queries = _aim_wide_instance()
    return _aim_run(ds, plan, Workload(queries, weights), epsilon, "cdp")


def _check_aim_wide_run(backend, epsilon, weights):
    """``_aim_wide_instance`` runs on ``backend``, with the same rows and
    round logs as on cdp, which checks every range contract, and picks
    the 2-cell query, whose bias is the smaller one by far."""
    ds, plan, queries = _aim_wide_instance()
    synth, log = _aim_run(ds, plan, Workload(queries, weights), epsilon,
                          backend)
    ref_synth, ref_log = _aim_wide_cdp(epsilon, weights)
    assert np.array_equal(synth.rows, ref_synth.rows)
    assert log["rounds"] == ref_log["rounds"]
    assert log["rounds"][0]["selected_query"] == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_pipeline_aim_wide_bias_runs_floored(backend):
    # sigma = 64.7: the 12,744-cell query's bias exceeds the 2-cell one's
    # by 658k, so its max-shifted score times the exponent scale 0.05 is
    # below -2^15 whatever the data; the floor keeps it in scale_pub's range
    _check_aim_wide_run(backend, Fraction(1, 5), ())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("weights", [(), (0.5, 1.5)])
def test_run_pipeline_aim_scale_edge(backend, weights):
    # just below and just above the product that the data cannot avoid
    # reaching 2^15: both sides run, floored, and the backends agree
    for side in (0.999, 1.001):
        epsilon = _wide_epsilon_at_product(side * 2**15, weights)
        budget = PrivacyBudget(epsilon, 1e-9, 1)
        assert 0 < budget.epsilon_measure < 1  # a valid Gaussian budget
        assert 6 * budget.measure_scale("gaussian-irwin-hall") < 2**15
        _check_aim_wide_run(backend, epsilon, weights)


def test_run_pipeline_aim_wide_bias_spread_runs_shifted():
    # sigma = 2,589 spreads the biases by 47.5k, which puts |x| past 2^15
    # unless the scores are shifted: they shift by one bit, and both
    # backends agree
    ds, plan, queries = _aim_edge_instance()
    runs = [_aim_run(ds, plan, Workload(queries), Fraction(1, 200), backend)
            for backend in BACKENDS]
    (synth_m, log_m), (synth_c, log_c) = runs
    assert np.array_equal(synth_m.rows, synth_c.rows)
    assert log_m["rounds"] == log_c["rounds"]
    counters = log_c["transcript_summary"]["counters"]
    assert counters == {k: v for k, v in log_m["transcript_summary"]["counters"].items()
                        if k in counters}


def test_run_pipeline_backend_equivalence():
    ds, wl = _toy_instance(n=200, seed=2)
    budget = PrivacyBudget(1.0, 1e-9, 3)
    plan = horizontal_plan(200, 3, 3)
    runs = {}
    for backend in BACKENDS:
        runs[backend] = run_pipeline(ds, plan, wl, budget, algo="AIM",
                                     backend=backend, seed=11)
    synth_m, log_m = runs["mpc"]
    synth_c, log_c = runs["cdp"]
    sel_m = [r["selected_query"] for r in log_m["rounds"]]
    sel_c = [r["selected_query"] for r in log_c["rounds"]]
    assert sel_m == sel_c
    for rm, rc in zip(log_m["rounds"], log_c["rounds"]):
        vm = np.array(rm["measurement"]["values"])
        vc = np.array(rc["measurement"]["values"])
        assert np.max(np.abs(vm - vc)) <= 2.0 ** -9
    assert np.array_equal(synth_m.rows, synth_c.rows)


def test_run_pipeline_deterministic():
    ds, wl = _toy_instance(n=80, seed=3)
    budget = PrivacyBudget(0.5, 1e-9, 2)
    plan = vertical_plan(80, 3, [[0], [1], [2]])
    a = run_pipeline(ds, plan, wl, budget, backend="cdp", seed=21)
    b = run_pipeline(ds, plan, wl, budget, backend="cdp", seed=21)
    assert a[0].rows.tobytes() == b[0].rows.tobytes()
    assert json.dumps(a[1], sort_keys=True) == json.dumps(b[1], sort_keys=True)


def test_run_pipeline_log_schema_and_ledger():
    ds, wl = _toy_instance(n=60, seed=5)
    budget = PrivacyBudget(1.0, 1e-9, 4)
    plan = horizontal_plan(60, 3, 2)
    _, log = run_pipeline(ds, plan, wl, budget, algo="MWEM",
                          noise_kind="laplace-sign", backend="cdp", seed=9)
    assert set(log) == {"rounds", "budget_ledger", "transcript_summary"}
    assert len(log["rounds"]) == 4
    for r in log["rounds"]:
        assert set(r) == {"selected_query", "epsilon_select",
                          "epsilon_measure", "sigma", "measurement"}
        assert r["sigma"] == budget.measure_scale("laplace-sign")
    led = log["budget_ledger"]
    total = sum(Fraction(e["epsilon_select"]) + Fraction(e["epsilon_measure"])
                for e in led["per_round"])
    assert total == Fraction(led["epsilon_total"])
    json.dumps(log)  # must be serializable as-is


def test_run_pipeline_config_errors():
    ds, wl = _toy_instance(n=40)
    plan = horizontal_plan(40, 3, 2)
    budget = PrivacyBudget(1.0, 1e-9, 2)
    with pytest.raises(ValueError):
        run_pipeline(ds, plan, Workload(()), budget, backend="cdp")
    with pytest.raises(ValueError):
        run_pipeline(ds, plan, wl, budget, algo="PGM", backend="cdp")
    with pytest.raises(ValueError):
        run_pipeline(ds, plan, wl, budget, noise_kind="triangular",
                     backend="cdp")


_GAUSSIAN = ["gaussian-box-muller", "gaussian-irwin-hall"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", _GAUSSIAN)
def test_run_pipeline_gaussian_fails_closed_at_epsilon_measure_one(
        monkeypatch, backend, kind):
    # the classical Gaussian bound holds only for eps_measure < 1
    ds, wl = _toy_instance(n=40, seed=9)
    plan = horizontal_plan(40, 3, 2)
    monkeypatch.setattr(pipeline, "make_engine", _engine_created)
    for epsilon, rounds in ((10, 3), (2, 1)):  # eps_measure 5/3 and 1
        with pytest.raises(ValueError, match="epsilon_measure < 1"):
            run_pipeline(ds, plan, wl, PrivacyBudget(epsilon, 1e-9, rounds),
                         algo="MWEM", noise_kind=kind, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,epsilon", [
    ("laplace-sign", Fraction(10)),  # eps_measure 5/3
    ("gaussian-box-muller", Fraction(5997, 1000)),  # eps_measure 0.9995
    ("gaussian-irwin-hall", Fraction(5997, 1000)),
], ids=["laplace-5/3", "box-muller-0.9995", "irwin-hall-0.9995"])
def test_run_pipeline_runs_inside_noise_preconditions(backend, kind, epsilon):
    ds, wl = _toy_instance(n=40, seed=9)
    budget = PrivacyBudget(epsilon, Fraction(1, 10**9), 3)
    _, log = run_pipeline(ds, horizontal_plan(40, 3, 2), wl, budget,
                          algo="MWEM", noise_kind=kind, backend=backend,
                          seed=2)
    assert len(log["rounds"]) == 3
    # each Gaussian round spends the full delta; Laplace spends none
    want = "3/1000000000" if kind in _GAUSSIAN else "0"
    assert log["budget_ledger"]["delta_spent"] == want


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("partition", ["central", "vertical"])
def test_run_pipeline_empty_dataset_fails_closed(monkeypatch, backend,
                                                 partition):
    schema = small_schema([3, 3, 3])
    ds = Dataset(np.zeros((0, 3), dtype=np.int64), schema)
    plan = (horizontal_plan(0, 3, 1) if partition == "central"
            else vertical_plan(0, 3, [[0], [1, 2]]))
    wl = Workload((Query((0,)), Query((0, 1))))
    monkeypatch.setattr(pipeline, "make_engine", _engine_created)
    with pytest.raises(ValueError, match="dataset has no rows"):
        run_pipeline(ds, plan, wl, PrivacyBudget(1.0, 1e-9, 2),
                     backend=backend)


def test_generate_step_is_post_processing_only():
    # the generate interfaces accept only public model state and noisy
    # measurements: no share vectors, no raw dataset
    for fn in (mw_update, sample_synthetic):
        sig = inspect.signature(fn)
        names = {p.annotation for p in sig.parameters.values()}
        assert not any("Share" in str(a) or "Dataset" in str(a)
                       for a in names), fn.__name__
    assert inspect.signature(mw_update).parameters["m"].annotation \
        == "NoisyMeasurement"
