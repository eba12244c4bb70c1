"""Weighted selection, shared noise samplers, and noisy measurement."""

import numpy as np
import pytest
from scipy import stats

from mpcsyn import fixed
from mpcsyn.marginals import Query
from mpcsyn.mechanisms import (
    NOISE_TAIL,
    NoiseSpec,
    NoisyMeasurement,
    draw_noise,
    gaussian_box_muller,
    gaussian_irwin_hall,
    laplace_noise,
    pi_measure,
    pi_rc,
    sample_noise,
)
from mpcsyn.rss import DegenerateInputError, make_engine

BACKENDS = ["mpc", "cdp"]


def share_reals(eng, vals):
    return eng.share(fixed.encode(np.asarray(vals, dtype=np.float64)))


def share_ints(eng, vals):
    return eng.share(np.asarray(vals).astype(np.int64).astype(np.uint64))


def test_noise_spec_validation():
    NoiseSpec("gaussian-irwin-hall", 0.0)  # exact measurement is legal
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", 1.0)
    with pytest.raises(ValueError):
        NoiseSpec("laplace-sign", -0.5)
    with pytest.raises(ValueError):
        NoiseSpec("laplace-sign", float("nan"))


def test_noisy_measurement_json():
    m = NoisyMeasurement(Query((0, 2)), np.array([1.5, -0.25]),
                         NoiseSpec("laplace-sign", 2.0), 3)
    d = m.to_json()
    assert d == {
        "query": [0, 2],
        "round": 3,
        "noise_kind": "laplace-sign",
        "scale": 2.0,
        "values": [1.5, -0.25],
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_rc_threshold_walkthrough(backend):
    # ten unit weights with threshold draw 0.65: four prefix sums exceed
    # the threshold, so the selected 1-based index is 7
    eng = make_engine(backend, seed=11)
    w = share_reals(eng, np.ones(10))
    eng.inject_uniform([0.65])
    s = eng.open(pi_rc(eng, w))
    assert int(s) == 7


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_rc_point_mass(backend):
    for seed in range(8):
        eng = make_engine(backend, seed=seed)
        w = share_reals(eng, [1.0, 0.0, 0.0])
        assert int(eng.open(pi_rc(eng, w))) == 1
        w = share_reals(eng, [0.0, 0.0, 1.0, 0.0])
        assert int(eng.open(pi_rc(eng, w))) == 3


def test_pi_rc_distribution_matches_weights():
    # chi-square on 8000 draws from weights proportional to 1:2:3:4
    eng = make_engine("cdp", seed=23)
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    counts = np.zeros(4)
    draws = 8000
    for _ in range(draws):
        w = share_reals(eng, probs)
        counts[int(eng.open(pi_rc(eng, w))) - 1] += 1
    chi2 = np.sum((counts - draws * probs) ** 2 / (draws * probs))
    assert chi2 < stats.chi2.ppf(0.99, df=3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_rc_scale_invariance_exact(backend):
    # a common positive factor must not move the selected index when the
    # threshold uniform is pinned to the same value
    rng = np.random.default_rng(5)
    for trial in range(20):
        w = rng.uniform(0.05, 1.0, size=6)
        r = rng.uniform(0.01, 0.99)
        picks = []
        for c in (1.0, 0.25, 0.0625):
            eng = make_engine(backend, seed=trial)
            shared = share_reals(eng, w * c)
            eng.inject_uniform([r])
            picks.append(int(eng.open(pi_rc(eng, shared))))
        assert picks[0] == picks[1] == picks[2]


def test_pi_rc_degenerate_weights_rejected():
    for backend in BACKENDS:
        eng = make_engine(backend, seed=3)
        w = share_reals(eng, np.zeros(5))
        with pytest.raises(DegenerateInputError):
            pi_rc(eng, w)
        with pytest.raises(DegenerateInputError):
            pi_rc(eng, share_reals(eng, np.zeros(0)))


def test_pi_rc_message_pattern_index_independent():
    # identical traffic shape whether the draw lands on index 1 or 6
    records = []
    for w, r in [(np.array([1.0, 0, 0, 0, 0, 0]), 0.9),
                 (np.array([0, 0, 0, 0, 0, 1.0]), 0.9),
                 (np.ones(6), 0.05)]:
        eng = make_engine("mpc", seed=9, record_messages=True)
        shared = share_reals(eng, w)
        eng.inject_uniform([r])
        pi_rc(eng, shared)
        records.append([rec for rec in eng.transcript.records
                        if rec[1] == "pi_rc"])
    assert records[0] == records[1] == records[2]
    assert len(records[0]) > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_rc_operation_counts(backend):
    eng = make_engine(backend, seed=4)
    w = share_reals(eng, np.ones(9))
    eng.inject_uniform([0.5])
    pi_rc(eng, w)
    c = eng.transcript.counters
    assert c["gt"] == 9  # one comparison per prefix sum
    assert c["eq"] == 1  # the degeneracy check
    assert c["mul"] == 1  # the threshold product


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_rc_largest_threshold_picks_last_index(backend):
    # r = 1 - 2^-32, the largest uniform, against a point mass on the last
    # index: t = trunc(total * r) stays below the total, so exactly one
    # prefix sum is above it and the index is |Q|
    for q_len in (1, 2, 5, 9):
        eng = make_engine(backend, seed=q_len)
        w = np.zeros(q_len)
        w[-1] = 1.0
        eng.inject_uniform([2**32 - 1])
        assert int(eng.open(pi_rc(eng, share_reals(eng, w)))) == q_len


def test_pi_rc_returns_share_not_value():
    eng = make_engine("mpc", seed=2)
    w = share_reals(eng, np.ones(4))
    s = pi_rc(eng, w)
    assert hasattr(s, "pairs")  # still secret-shared; nothing revealed
    assert 1 <= int(eng.open(s)) <= 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_irwin_hall_center_point(backend):
    eng = make_engine(backend, seed=6)
    eng.inject_uniform([0.5] * 12)
    out = fixed.decode(eng.open(gaussian_irwin_hall(eng, 1)))
    assert out[0] == 0.0


def test_irwin_hall_moments_and_support():
    eng = make_engine("cdp", seed=17)
    n = 100_000
    x = fixed.decode(eng.open(gaussian_irwin_hall(eng, n)))
    assert abs(np.mean(x)) <= 0.02
    assert abs(np.var(x) - 1.0) <= 0.02
    assert np.all(np.abs(x) <= 6.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_irwin_hall_bit_consumption(backend):
    eng = make_engine(backend, seed=1)
    gaussian_irwin_hall(eng, 40)
    assert eng.transcript.counters["rand_bit"] == 12 * 32 * 40


@pytest.mark.parametrize("backend", BACKENDS)
def test_box_muller_pinned_pair(backend):
    # u = e^-2 gives radius sqrt(-2 ln u) = 2; v = 0 puts the angle at 0,
    # so the pair is (2, 0); v = 0.25 rotates it to (0, 2)
    eng = make_engine(backend, seed=8)
    eng.inject_uniform([np.exp(-2.0), np.exp(-2.0), 0.0, 0.25])
    out = fixed.decode(eng.open(gaussian_box_muller(eng, 4)))
    assert np.allclose(out, [2.0, 0.0, 0.0, 2.0], atol=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_box_muller_odd_length(backend):
    eng = make_engine(backend, seed=10)
    out = fixed.decode(eng.open(gaussian_box_muller(eng, 3)))
    assert out.shape == (3,)
    # two full pairs were drawn even though one coordinate is dropped
    assert eng.transcript.counters["rand_bit"] >= 2 * 2 * 32


def test_box_muller_ks_against_normal():
    eng = make_engine("cdp", seed=29)
    n = 100_000
    x = fixed.decode(eng.open(gaussian_box_muller(eng, n)))
    assert stats.kstest(x, "norm").pvalue > 0.01


def test_box_muller_tail_is_clamped():
    # the log clamp at 2^-32 caps the radius at sqrt(64 ln 2)
    eng = make_engine("cdp", seed=12)
    eng.inject_uniform([0.0, 0.0, 0.0, 0.0])
    out = fixed.decode(eng.open(gaussian_box_muller(eng, 4)))
    cap = np.sqrt(64 * np.log(2))
    assert np.all(np.abs(out) <= cap + 1e-6)
    assert abs(out[0]) > cap - 1e-4


@pytest.mark.parametrize("backend", BACKENDS)
def test_laplace_sign_pinned(backend):
    eng = make_engine(backend, seed=3)
    # sign bit 1, uniform 1/2: gamma = (+1) * ln(1/2) = -ln 2
    eng.inject_uniform([0.5])
    eng.inject_bits([1])
    out = fixed.decode(eng.open(laplace_noise(eng, 1, "sign")))
    assert abs(out[0] + np.log(2.0)) <= 1e-7
    # sign bit 0, uniform e^-1: gamma = (-1) * (-1) = 1
    eng.inject_uniform([np.exp(-1.0)])
    eng.inject_bits([0])
    out = fixed.decode(eng.open(laplace_noise(eng, 1, "sign")))
    assert abs(out[0] - 1.0) <= 1e-7


@pytest.mark.parametrize("backend", BACKENDS)
def test_laplace_inverse_cdf_pinned(backend):
    eng = make_engine(backend, seed=3)
    eng.inject_uniform([0.75])  # centered u = 1/4: gamma = -ln(1/2) = ln 2
    out = fixed.decode(eng.open(laplace_noise(eng, 1, "inverse-cdf")))
    assert abs(out[0] - np.log(2.0)) <= 1e-7
    eng.inject_uniform([0.25])  # centered u = -1/4: gamma = -ln 2
    out = fixed.decode(eng.open(laplace_noise(eng, 1, "inverse-cdf")))
    assert abs(out[0] + np.log(2.0)) <= 1e-7


@pytest.mark.parametrize("variant", ["sign", "inverse-cdf"])
def test_laplace_median_and_variance(variant):
    eng = make_engine("cdp", seed=31)
    n = 100_000
    x = fixed.decode(eng.open(laplace_noise(eng, n, variant)))
    assert abs(np.median(x)) <= 0.02
    assert abs(np.var(x) - 2.0) <= 0.1


def test_laplace_unknown_variant():
    eng = make_engine("cdp", seed=0)
    with pytest.raises(ValueError):
        laplace_noise(eng, 4, "cauchy")
    with pytest.raises(ValueError):
        sample_noise(eng, "beta", 4)


@pytest.mark.parametrize("kind,uniforms,bits", [
    ("gaussian-irwin-hall", [0] * 12, []),
    ("gaussian-box-muller", [0, 0], []),  # u at the log clamp, angle 0
    ("laplace-sign", [0], [0]),
    ("laplace-inverse-cdf", [0], []),
])
def test_noise_tail_bound_is_each_samplers_extreme(kind, uniforms, bits):
    # the extreme uniforms put each sampler at its tail bound
    eng = make_engine("cdp", seed=17)
    eng.inject_uniform(uniforms)
    eng.inject_bits(bits)
    got = fixed.decode(eng.open(sample_noise(eng, kind, 1)))
    assert abs(abs(got[0]) - NOISE_TAIL[kind]) <= 2**-10


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_measure_zero_scale_is_exact(backend):
    eng = make_engine(backend, seed=13)
    counts = share_ints(eng, [4, 0, 11, 2])
    spec = NoiseSpec("laplace-sign", 0.0)
    m = pi_measure(eng, counts, draw_noise(eng, spec, 4), Query((1,)), spec, 0)
    assert np.array_equal(m.values, [4.0, 0.0, 11.0, 2.0])
    assert m.round_index == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_measure_injected_noise_arithmetic(backend):
    # unit noise (1, -1) at scale 2 on counts (5, 5) lands on (7, 3);
    # each Irwin-Hall coordinate is pinned through its twelve uniforms
    eng = make_engine(backend, seed=13)
    counts = share_ints(eng, [5, 5])
    eng.inject_uniform([7 / 12, 5 / 12] * 12)
    spec = NoiseSpec("gaussian-irwin-hall", 2.0)
    m = pi_measure(eng, counts, draw_noise(eng, spec, 2), Query((0,)), spec, 4)
    assert np.allclose(m.values, [7.0, 3.0], atol=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pi_measure_rejects_noise_of_another_length(backend):
    eng = make_engine(backend, seed=13)
    counts = share_ints(eng, [4, 0, 11])
    spec = NoiseSpec("laplace-sign", 1.0)
    with pytest.raises(ValueError):
        pi_measure(eng, counts, draw_noise(eng, spec, 4), Query((1,)), spec, 0)


def test_pi_measure_reveals_to_single_party():
    eng = make_engine("mpc", seed=19, record_messages=True)
    counts = share_ints(eng, [6, 1, 3])
    spec = NoiseSpec("gaussian-irwin-hall", 1.0)
    pi_measure(eng, counts, draw_noise(eng, spec, 3), Query((0,)), spec, 0)
    final_round = max(rec[0] for rec in eng.transcript.records)
    opening = [rec for rec in eng.transcript.records if rec[0] == final_round]
    assert len(opening) == 2  # both holders of the missing component
    assert {rec[3] for rec in opening} == {1}  # only party 1 receives


def test_pi_measure_is_unbiased():
    # average of repeated noisy measurements approaches the true counts
    eng = make_engine("cdp", seed=37)
    true = np.array([12, 3], dtype=np.uint64)
    reps = 2000
    acc = np.zeros(2)
    for r in range(reps):
        counts = eng.const_vec(true)
        spec = NoiseSpec("laplace-inverse-cdf", 3.0)
        m = pi_measure(eng, counts, draw_noise(eng, spec, 2), Query((0,)),
                       spec, r)
        acc += m.values
    # noise sd per coordinate is b * sqrt(2); allow four standard errors
    bound = 4 * 3.0 * np.sqrt(2) / np.sqrt(reps)
    assert np.all(np.abs(acc / reps - [12.0, 3.0]) <= bound)


@pytest.mark.parametrize("kind", list(NOISE_KINDS := (
    "gaussian-irwin-hall", "gaussian-box-muller",
    "laplace-sign", "laplace-inverse-cdf")))
def test_backends_draw_identical_noise(kind):
    outs = []
    for backend in BACKENDS:
        eng = make_engine(backend, seed=41)
        outs.append(eng.open(sample_noise(eng, kind, 33)))
    assert np.array_equal(outs[0], outs[1])


def test_pi_measure_backend_equivalence():
    vals = []
    for backend in BACKENDS:
        eng = make_engine(backend, seed=43)
        counts = share_ints(eng, [8, 0, 5, 5, 1])
        spec = NoiseSpec("gaussian-box-muller", 1.5)
        m = pi_measure(eng, counts, draw_noise(eng, spec, 5), Query((2,)),
                       spec, 2)
        vals.append(m.values)
    assert np.array_equal(vals[0], vals[1])
