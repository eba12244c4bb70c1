"""Acceptance gate: one test per release criterion.

Each criterion is a single test function; the conftest summary hook turns
their outcomes into one pass/fail line apiece at the end of the run.
Tolerances and instance counts are pinned here and should not be loosened.
"""

import inspect
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import stats

from message_log import message_log
from mpcsyn import dataio, fixed
from mpcsyn.marginals import (
    AttrDomain,
    Dataset,
    Holding,
    PartitionPlan,
    Query,
    Schema,
    Workload,
    compute_workload_answers,
    horizontal_plan,
    vertical_plan,
)
from mpcsyn.mechanisms import NOISE_KINDS, pi_rc, sample_noise
from mpcsyn.pipeline import (
    PrivacyBudget,
    mw_update,
    run_pipeline,
    sample_synthetic,
)
from mpcsyn.primitives import sec_softmax_unnorm
from mpcsyn.rss import make_engine

DATA = Path(__file__).resolve().parents[1] / "data"


def ref_trunc(words: np.ndarray, g: int) -> np.ndarray:
    """Floor division by 2^g in the signed reading, on raw words."""
    return (words.astype(np.int64) >> np.int64(g)).astype(np.uint64)


def ref_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ref_trunc(a * b, fixed.F)


def uniform_schema(cards) -> Schema:
    return Schema(tuple(AttrDomain(f"a{i}", int(c))
                        for i, c in enumerate(cards)))


def brute_marginal(rows: np.ndarray, q: Query, cards) -> np.ndarray:
    dims = [cards[a] for a in q.attrs]
    out = np.zeros(int(np.prod(dims)), dtype=np.uint64)
    for flat, combo in enumerate(np.ndindex(*dims)):
        mask = np.ones(len(rows), dtype=bool)
        for a, v in zip(q.attrs, combo):
            mask &= rows[:, a] == v
        out[flat] = mask.sum()
    return out


def test_criterion_1_exact_engine_and_marginals():
    t0 = time.perf_counter()

    # 1a: random op compositions against an independent word-level oracle.
    # 20 programs x 6 steps over 50 lanes = 9000 exact reconstructions.
    rng = np.random.default_rng(424)
    lanes, programs, steps = 50, 20, 6
    checked = 0
    for prog in range(programs):
        eng = make_engine("mpc", seed=1000 + prog)
        vals = rng.uniform(-0.5, 0.5, size=(3, lanes))
        refs = [fixed.encode(v) for v in vals]
        shares = [eng.share(r) for r in refs]
        bounds = [0.5, 0.5, 0.5]
        for _ in range(steps):
            op = int(rng.integers(0, 5))
            i, j = (int(x) for x in rng.integers(0, len(refs), size=2))
            if op == 2 and bounds[i] * bounds[j] >= 0.45:
                op = 0  # keep products inside the wrap-free range
            if op == 0:
                shares.append(eng.add(shares[i], shares[j]))
                refs.append(refs[i] + refs[j])
                bounds.append(bounds[i] + bounds[j])
            elif op == 1:
                shares.append(eng.sub(shares[i], shares[j]))
                refs.append(refs[i] - refs[j])
                bounds.append(bounds[i] + bounds[j])
            elif op == 2:
                # fixed-point product: ring multiply, then drop F bits
                shares.append(eng.trunc(eng.mul(shares[i], shares[j])))
                refs.append(ref_mul(refs[i], refs[j]))
                bounds.append(bounds[i] * bounds[j] + 1e-6)
            elif op == 3:
                c = int(rng.integers(-4, 5))
                dw = fixed.encode(float(rng.uniform(-1.0, 1.0)))
                shares.append(eng.add_const(eng.mul_const_int(shares[i], c), dw))
                refs.append((refs[i].astype(np.int64) * c).astype(np.uint64) + dw)
                bounds.append(abs(c) * bounds[i] + 1.0)
            else:
                g = int(rng.integers(1, 9))
                shares.append(eng.trunc(shares[i], g))
                refs.append(ref_trunc(refs[i], g))
                bounds.append(bounds[i] / 2 ** g + 1.0)
        for sh, ref in zip(shares, refs):
            assert np.array_equal(eng.reconstruct(sh), ref)
            checked += lanes
    assert checked >= 1000

    # 1b: secure marginals equal brute-force contingency tables exactly,
    # for one dataset split three different ways
    cards = (3, 2, 4, 2)
    rows = np.random.default_rng(77).integers(0, cards, size=(120, 4))
    schema = uniform_schema(cards)
    ds = Dataset(rows, schema)
    wl = dataio.build_workload(schema)
    plans = {
        "horizontal": horizontal_plan(120, 4, 3),
        "vertical": vertical_plan(120, 4, [[0, 2], [1, 3]]),
        "mixed": PartitionPlan((
            Holding((0, 70), (0, 1)),
            Holding((0, 70), (2, 3)),
            Holding((70, 120), (0, 1, 2, 3)),
        )),
    }
    for name, plan in plans.items():
        eng = make_engine("mpc", seed=5)
        answers = compute_workload_answers(eng, ds, plan, wl)
        for q in wl.queries:
            got = eng.reconstruct(answers[q])
            assert np.array_equal(got, brute_marginal(rows, q, cards)), (name, q)

    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_comparison_counts_and_linearity():
    # column-partitioned aggregation with omega = 3 per attribute:
    # 2 * n * 9 equality tests and n * 9 products per cross-holder query
    cards = (3, 3, 3, 3)
    schema = uniform_schema(cards)
    crossing = (Query((0, 2)), Query((0, 3)), Query((1, 2)))
    times = {}
    for n in (250, 500, 1000):
        rows = np.random.default_rng(n).integers(0, cards, size=(n, 4))
        ds = Dataset(rows, schema)
        plan = vertical_plan(n, 4, [[0, 1], [2, 3]])
        for k in (1, 3):
            best = np.inf
            for rep in range(3 if k == 3 else 1):
                eng = make_engine("mpc", seed=rep)
                t0 = time.perf_counter()
                compute_workload_answers(eng, ds, plan, Workload(crossing[:k]))
                best = min(best, time.perf_counter() - t0)
                assert eng.transcript.counters["eq"] == 2 * n * 9 * k
                assert eng.transcript.counters["mul"] == n * 9 * k
            if k == 3:
                times[n] = best

    ns = np.array(sorted(times))
    ts = np.array([times[n] for n in ns])
    slope, intercept = np.polyfit(ns, ts, 1)
    fitted = slope * ns + intercept
    r2 = 1.0 - np.sum((ts - fitted) ** 2) / np.sum((ts - ts.mean()) ** 2)
    assert slope > 0
    assert r2 >= 0.99, (r2, dict(times))


def test_criterion_3_selection_fidelity():
    # uniform weights: chi-square against uniform over 2e4 draws
    eng = make_engine("cdp", seed=333)
    w = eng.share(fixed.encode(np.ones(4)))
    counts = np.zeros(4)
    for _ in range(20_000):
        counts[int(eng.open(pi_rc(eng, w))) - 1] += 1
    assert stats.chisquare(counts).pvalue > 0.01

    # analytic softmax instances: selection frequencies within 3 sigma
    # of the plaintext exponential-mechanism probabilities
    instances = (
        ([0.0, -1.0, -2.0, -3.0], 71),
        ([-0.5, 0.0, -0.25, -2.0, -1.0], 72),
    )
    draws = 5000
    for scores, seed in instances:
        eng = make_engine("cdp", seed=seed)
        weights = sec_softmax_unnorm(
            eng, eng.share(fixed.encode(np.asarray(scores))))
        freq = np.zeros(len(scores))
        for _ in range(draws):
            freq[int(eng.open(pi_rc(eng, weights))) - 1] += 1
        freq /= draws
        p = np.exp(scores) / np.sum(np.exp(scores))
        assert np.all(np.abs(freq - p) <= 3.0 * np.sqrt(p * (1 - p) / draws)), (
            scores, freq, p)

    # mock trace: ten unit weights and threshold 0.65 select index 7
    # (four prefix sums clear the threshold) on both backends
    for backend in ("mpc", "cdp"):
        eng = make_engine(backend, seed=11)
        w = eng.share(fixed.encode(np.ones(10)))
        eng.inject_uniform([0.65])
        assert int(eng.open(pi_rc(eng, w))) == 7


def test_criterion_4_noise_sampler_statistics():
    t0 = time.perf_counter()
    n = 100_000

    eng = make_engine("cdp", seed=444)
    ih = fixed.decode(eng.open(sample_noise(eng, "gaussian-irwin-hall", n)))
    assert abs(np.mean(ih)) <= 0.02
    assert abs(np.var(ih) - 1.0) <= 0.02
    assert np.all(np.abs(ih) <= 6.0)

    eng = make_engine("cdp", seed=929)
    bm = fixed.decode(eng.open(sample_noise(eng, "gaussian-box-muller", n)))
    assert abs(np.mean(bm)) <= 0.02
    assert abs(np.var(bm) - 1.0) <= 0.02
    assert stats.kstest(bm, "norm").pvalue > 0.01

    for kind in ("laplace-sign", "laplace-inverse-cdf"):
        eng = make_engine("cdp", seed=555)
        lap = fixed.decode(eng.open(sample_noise(eng, kind, n)))
        assert abs(np.var(lap) - 2.0) <= 0.1, kind

    # the protocol path emits the same words as the plaintext fast path,
    # so the statistics above transfer to the mpc engine verbatim
    for kind in NOISE_KINDS:
        outs = []
        for backend in ("mpc", "cdp"):
            eng = make_engine(backend, seed=46)
            outs.append(eng.open(sample_noise(eng, kind, 4096)))
        assert np.array_equal(outs[0], outs[1]), kind

    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_backend_equivalence():
    budget = PrivacyBudget(1.0, 1e-9, 5)
    for inst in range(20):
        rng = np.random.default_rng(5000 + inst)
        cards = rng.integers(2, 6, size=4)
        rows = rng.integers(0, cards, size=(200, 4))
        schema = uniform_schema(cards)
        ds = Dataset(rows, schema)
        wl = dataio.build_workload(schema)
        plan = horizontal_plan(200, 4, 2)
        runs = {
            b: run_pipeline(ds, plan, wl, budget, algo="AIM", backend=b,
                            seed=inst)
            for b in ("mpc", "cdp")
        }
        synth_m, log_m = runs["mpc"]
        synth_c, log_c = runs["cdp"]
        sels_m = [r["selected_query"] for r in log_m["rounds"]]
        sels_c = [r["selected_query"] for r in log_c["rounds"]]
        assert sels_m == sels_c, inst
        for rm, rc in zip(log_m["rounds"], log_c["rounds"]):
            vm = np.asarray(rm["measurement"]["values"])
            vc = np.asarray(rc["measurement"]["values"])
            assert np.max(np.abs(vm - vc)) <= 2.0 ** -9, inst
        assert np.array_equal(synth_m.rows, synth_c.rows), inst


def test_criterion_6_utility_on_toy_data():
    real = dataio.load_dataset(str(DATA / "toy.csv"), str(DATA / "toy_domain.json"))
    wl = dataio.build_workload(real.schema)
    cards = [a.cardinality for a in real.schema.attrs]
    plan = horizontal_plan(real.n, real.schema.dims, 1)
    seeds = range(20)

    deltas = {}
    for eps in (0.1, 1.0, 10.0):
        budget = PrivacyBudget(eps, 1e-9, 10)
        errs = []
        for seed in seeds:
            synth, _ = run_pipeline(real, plan, wl, budget, algo="MWEM",
                                    backend="cdp", seed=seed)
            errs.append(dataio.workload_error(real, synth, wl).workload_error)
        deltas[eps] = errs

    # (a) beats the independent-uniform baseline in >= 18 of 20 seeds
    wins = 0
    for seed in seeds:
        rng = np.random.default_rng(10_000 + seed)
        base = Dataset(rng.integers(0, cards, size=(real.n, len(cards))),
                       real.schema)
        base_err = dataio.workload_error(real, base, wl).workload_error
        wins += deltas[1.0][seed] < base_err
    assert wins >= 18, wins

    # (b) median error non-increasing in the privacy budget
    med = {eps: float(np.median(deltas[eps])) for eps in deltas}
    assert med[0.1] >= med[1.0] >= med[10.0], med


def test_criterion_7_privacy_mechanics():
    # single-party share views of a fixed secret are uniform words: one
    # chi-square per party over the high and low 4-bit slices of both
    # words that party holds (64 independent cells)
    eng = make_engine("mpc", seed=777)
    reps = 8192
    sh = eng.share(np.full(reps, 123_456_789, dtype=np.uint64))
    for party in range(3):
        held = sh.pairs[party]
        bins = np.concatenate([
            np.bincount(slice_.astype(np.int64), minlength=16)
            for words in held
            for slice_ in (words >> np.uint64(60), words & np.uint64(0xF))
        ])
        assert stats.chisquare(bins).pvalue > 0.01, party

    # selection transcript shape is independent of the chosen index
    cases = (([1.0, 0.0, 0.0, 0.0], 0.1), ([0.1, 0.2, 0.3, 0.4], 0.9),
             ([1.0, 1.0, 1.0, 1.0], 0.5))
    shapes, indices = [], []
    for weights, r in cases:
        eng = make_engine("mpc", seed=78)
        msgs = message_log(eng)
        w = eng.share(fixed.encode(np.asarray(weights)))
        eng.inject_uniform([r])
        indices.append(int(eng.open(pi_rc(eng, w))))
        shapes.append([rec for rec in msgs if rec[1] == "pi_rc"])
    assert len(set(indices)) >= 2
    assert shapes[0] == shapes[1] == shapes[2]
    assert len(shapes[0]) > 0

    # budget ledger sums exactly to the total, as rationals
    for eps, rounds in ((1.0, 7), (0.3, 10), (2.5, 3)):
        budget = PrivacyBudget(eps, 1e-9, rounds)
        spent = sum((e["epsilon_select"] + e["epsilon_measure"]
                     for e in budget.ledger()), Fraction(0))
        assert spent == budget.epsilon_total
    ds = Dataset(np.zeros((30, 2), dtype=np.int64), uniform_schema((2, 2)))
    _, log = run_pipeline(ds, horizontal_plan(30, 2, 1),
                          dataio.build_workload(uniform_schema((2, 2))),
                          PrivacyBudget(1.0, 1e-9, 4), backend="cdp", seed=1)
    spent = sum((Fraction(e["epsilon_select"]) + Fraction(e["epsilon_measure"])
                 for e in log["budget_ledger"]["per_round"]), Fraction(0))
    assert spent == Fraction(log["budget_ledger"]["epsilon_total"])

    # the generate step only ever sees public model state and noisy
    # measurements: no engine handles, share vectors, or raw datasets
    for fn in (mw_update, sample_synthetic):
        sig = inspect.signature(fn)
        assert "eng" not in sig.parameters
        for p in sig.parameters.values():
            ann = str(p.annotation)
            assert "Share" not in ann and "Vec" not in ann
            assert "Dataset" not in ann
    assert inspect.signature(mw_update).parameters["m"].annotation \
        == "NoisyMeasurement"
