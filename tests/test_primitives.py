"""Secure comparison, equality, max, and elementary-function contracts."""

import math

import numpy as np
import pytest

from message_log import message_log
from mpcsyn import fixed
from mpcsyn import primitives as prim
from mpcsyn.rss import Mpc3Engine, RangeContractError, make_engine

BACKENDS = ("mpc", "cdp")


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_eq_pinned(backend):
    eng = make_engine(backend, seed=40)
    assert int(eng.reconstruct(prim.sec_eq(eng, eng.share(np.uint64(5)), 5))) == 1
    assert int(eng.reconstruct(prim.sec_eq(eng, eng.share(np.uint64(5)), 6))) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_eq_exhaustive_small_range(backend):
    eng = make_engine(backend, seed=41)
    x = np.repeat(np.arange(32, dtype=np.uint64), 32)
    c = np.tile(np.arange(32, dtype=np.uint64), 32)
    got = eng.reconstruct(prim.sec_eq(eng, eng.share(x), c))
    assert np.array_equal(got, (x == c).astype(np.uint64))
    assert eng.transcript.counters["eq"] == 32 * 32


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_eq_shared_rhs(backend):
    eng = make_engine(backend, seed=42)
    rng = np.random.default_rng(42)
    a = rng.integers(0, 12, size=2000, dtype=np.uint64)
    b = rng.integers(0, 12, size=2000, dtype=np.uint64)
    got = eng.reconstruct(prim.sec_eq(eng, eng.share(a), eng.share(b)))
    assert np.array_equal(got, (a == b).astype(np.uint64))


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_eq_bounded_width_exhaustive(backend):
    # every x, c in [0, card) at the width a cardinality needs
    for card in range(2, 10):
        nbits = (card - 1).bit_length()
        eng = make_engine(backend, seed=100 + card)
        x = np.repeat(np.arange(card, dtype=np.uint64), card)
        c = np.tile(np.arange(card, dtype=np.uint64), card)
        want = (x == c).astype(np.uint64)
        got = eng.reconstruct(prim.sec_eq(eng, eng.share(x), c, nbits=nbits))
        assert np.array_equal(got, want), card
        got = eng.reconstruct(prim.sec_eq(eng, eng.share(x), eng.share(c), nbits=nbits))
        assert np.array_equal(got, want), card
        assert eng.transcript.counters["eq"] == 2 * card * card


def _eq_records(n: int, nbits: int, targets: int = 1) -> list[tuple[int, int, int, int]]:
    """(round, sender, receiver, bytes) of one sec_eq of n elements against
    ``targets`` public targets each, rounds counted from 1: one masked
    word per mask bit from party 2 to party 1, one resharing of x + r's
    word and the nbits mask bits, with the first of those words also sent
    to the right, per element, then one resharing of the floor(nbits/2)
    products that build the mask's 2-bit one-hots, per element, whatever
    the targets, then one resharing per level of the AND over the
    ceil(nbits/2) chunk indicators, per output element."""
    reshare = [(2, 1), (3, 2), (1, 3)]
    recs = [(1, 2, 1, 8 * nbits * n)] + [(2, s, t, 8 * (1 + nbits) * n) for s, t in reshare]
    recs += [(2, s, t, 8 * n) for s, t in ((1, 2), (2, 3), (3, 1))]
    rnd, length = 2, (nbits + 1) // 2
    if nbits > 1:
        rnd += 1
        recs += [(rnd, s, t, 8 * (nbits // 2) * n) for s, t in reshare]
    while length > 1:
        rnd += 1
        recs += [(rnd, s, t, 8 * (length // 2) * n * targets) for s, t in reshare]
        length = (length + 1) // 2
    return recs


@pytest.mark.parametrize("nbits", (None, 1, 2, 3, 5, 64))
def test_sec_eq_records_closed_form_and_data_independent(nbits):
    # None is the default call, whose records are those of the 64-bit test
    width = 64 if nbits is None else nbits
    kwargs = {} if nbits is None else {"nbits": nbits}
    n = 7
    for data_seed in (0, 1, 2):
        vals = np.random.default_rng(data_seed).integers(0, 1 << min(width, 8), n).astype(np.uint64)
        eng = Mpc3Engine(seed=110)
        msgs = message_log(eng)
        x = eng.share(vals)
        start, skip = eng.transcript.rounds, len(msgs)
        prim.sec_eq(eng, x, np.zeros(n, dtype=np.uint64), **kwargs)
        got = [(r - start, s, t, b) for r, _, s, t, b in msgs[skip:]]
        assert got == _eq_records(n, width)
        assert eng.transcript.rounds - start == 2 + (width - 1).bit_length()
        assert eng.transcript.counters["mask_bit"] == width * n


@pytest.mark.parametrize("nbits", (1, 2, 3, 8, 64))
def test_sec_eq_broadcast_records_closed_form(nbits):
    # a (1, n) column against (5, 1) targets opens the column once
    n, targets = 7, (np.arange(5, dtype=np.uint64) % 2).reshape(5, 1)
    for data_seed in (0, 1):
        vals = np.random.default_rng(data_seed).integers(0, 2, (1, n)).astype(np.uint64)
        eng = Mpc3Engine(seed=113)
        msgs = message_log(eng)
        x = eng.share(vals)
        start, skip = eng.transcript.rounds, len(msgs)
        got = eng.reconstruct(prim.sec_eq(eng, x, targets, nbits=nbits))
        assert np.array_equal(got, (vals == targets).astype(np.uint64))
        recs = [(r - start, s, t, b) for r, _, s, t, b in msgs[skip:]]
        assert recs == _eq_records(n, nbits, targets=5)
        assert eng.transcript.counters["eq"] == 5 * n


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_eq_every_in_contract_difference_against_all_targets(backend):
    # x = 0..2^b-1 as a (1, L) row against every target 0..2^b-1 as an
    # (L, 1) column meets every difference in (-2^b, 2^b)
    for nbits in range(1, 7):
        lim = 1 << nbits
        x = np.arange(lim, dtype=np.uint64).reshape(1, lim)
        targets = x.reshape(lim, 1)
        eng = make_engine(backend, seed=114)
        msgs = message_log(eng)
        shared = eng.share(x)
        start, skip = eng.transcript.rounds, len(msgs)
        got = eng.reconstruct(prim.sec_eq(eng, shared, targets, nbits=nbits))
        assert np.array_equal(got, (x == targets).astype(np.uint64)), nbits
        assert eng.transcript.counters["eq"] == lim * lim
        recs = [(r - start, s, t, b) for r, _, s, t, b in msgs[skip:]]
        assert recs == (_eq_records(lim, nbits, targets=lim) if backend == "mpc" else [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_eq_rejects_bad_width(backend):
    eng = make_engine(backend, seed=111)
    x = eng.share(np.uint64(1))
    for nbits in (0, 65):
        with pytest.raises(ValueError):
            prim.sec_eq(eng, x, 1, nbits=nbits)


def test_sec_eq_plain_fails_closed_outside_width():
    eng = make_engine("cdp", seed=112)
    for nbits in (1, 2, 3, 10, 63):
        edge = np.uint64((1 << nbits) - 1)
        # |d| = 2^nbits - 1 is inside the contract, on either sign
        assert int(eng.reconstruct(prim.sec_eq(eng, eng.share(edge), 0, nbits=nbits))) == 0
        assert int(eng.reconstruct(prim.sec_eq(eng, eng.share(np.uint64(0)), edge, nbits=nbits))) == 0
        for x, c in ((edge + np.uint64(1), 0), (0, edge + np.uint64(1))):
            with pytest.raises(RangeContractError):
                prim.sec_eq(eng, eng.share(np.uint64(x)), c, nbits=nbits)
    # one bad element anywhere fails the whole call
    with pytest.raises(RangeContractError):
        prim.sec_eq(eng, eng.share(np.array([0, 1, 5], dtype=np.uint64)), 1, nbits=2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_cmp_pinned(backend):
    eng = make_engine(backend, seed=43)
    one, half = eng.share(fixed.encode(1.0)), eng.share(fixed.encode(0.5))
    assert int(eng.reconstruct(prim.sec_cmp(eng, one, half, "GT"))) == 1
    neg = eng.share(fixed.encode(-0.5))
    zero = eng.share(fixed.encode(0.0))
    assert int(eng.reconstruct(prim.sec_cmp(eng, neg, zero, "LT"))) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_cmp_range_contract_edge(backend):
    # |decode| < 2^30 on both sides: the largest magnitudes inside compare
    # correctly on both engines, and the plaintext oracle rejects 2^30
    # (2^30 - 2^-32 has no float64 encoding, so the words are built as ints)
    eng = make_engine(backend, seed=69)
    edge = (1 << 62) - 1  # raw word of 2^30 - 2^-32
    x = eng.share(fixed.as_word(np.array([edge, -edge, 0, edge])))
    y = eng.share(fixed.as_word(np.array([-edge, edge, edge, edge])))
    assert np.array_equal(eng.reconstruct(prim.sec_cmp(eng, x, y, "LT")), [0, 1, 1, 0])
    assert np.array_equal(eng.reconstruct(prim.sec_cmp(eng, x, y, "GT")), [1, 0, 0, 0])
    if backend == "cdp":
        for bad in (1 << 62, -(1 << 62)):  # 2^30 and -2^30
            for a, b in ((bad, 0), (0, bad)):
                with pytest.raises(RangeContractError):
                    prim.sec_cmp(eng, eng.share(fixed.as_word(np.array([1, a]))),
                                 eng.share(fixed.as_word(np.array([1, b]))), "GT")


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_cmp_random_pairs_match_plaintext(backend):
    eng = make_engine(backend, seed=44)
    rng = np.random.default_rng(44)
    a = fixed.decode(fixed.encode(rng.uniform(-1e4, 1e4, size=10_000)))
    b = fixed.decode(fixed.encode(rng.uniform(-1e4, 1e4, size=10_000)))
    # make ties exercised too
    b[::7] = a[::7]
    xa, xb = eng.share(fixed.encode(a)), eng.share(fixed.encode(b))
    for mode, ref in (("LT", a < b), ("GT", a > b)):
        got = eng.reconstruct(prim.sec_cmp(eng, xa, xb, mode))
        assert np.array_equal(got, ref.astype(np.uint64)), mode


def test_sec_cmp_rejects_unknown_mode():
    eng = make_engine("cdp", seed=45)
    x = eng.share(fixed.encode(1.0))
    with pytest.raises(ValueError):
        prim.sec_cmp(eng, x, x, "LE")


@pytest.mark.parametrize("backend", BACKENDS)
def test_secure_bool_outputs_are_exact_integers(backend):
    eng = make_engine(backend, seed=46)
    rng = np.random.default_rng(46)
    a = fixed.encode(rng.uniform(-5, 5, size=300))
    b = fixed.encode(rng.uniform(-5, 5, size=300))
    for out in (
        prim.sec_cmp(eng, eng.share(a), eng.share(b), "LT"),
        prim.sec_eq(eng, eng.share(a), eng.share(b)),
    ):
        vals = eng.reconstruct(out)
        assert set(np.unique(vals).tolist()) <= {0, 1}


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_max_pinned_and_counted(backend):
    eng = make_engine(backend, seed=47)
    assert fixed.decode(eng.reconstruct(prim.sec_max(eng, eng.share(fixed.encode(np.array([3.0])))))) == 3.0
    vals = fixed.encode(np.array([-1.0, 4.0, 2.0]))
    before = eng.transcript.counters.get("gt", 0)
    got = fixed.decode(eng.reconstruct(prim.sec_max(eng, eng.share(vals))))
    assert got == 4.0
    assert eng.transcript.counters["gt"] - before == 2  # |xs| - 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_sec_max_random_vectors(backend):
    eng = make_engine(backend, seed=48)
    rng = np.random.default_rng(48)
    for length in (2, 5, 9, 17):
        vals = fixed.decode(fixed.encode(rng.uniform(-100, 100, size=(length, 250))))
        before = eng.transcript.counters.get("gt", 0)
        got = fixed.decode(eng.reconstruct(prim.sec_max(eng, eng.share(fixed.encode(vals)))))
        assert np.array_equal(got, vals.max(axis=0))
        assert eng.transcript.counters["gt"] - before == (length - 1) * 250


def test_sec_max_empty_rejected():
    eng = make_engine("cdp", seed=49)
    with pytest.raises(ValueError):
        prim.sec_max(eng, eng.share(np.zeros(0, dtype=np.uint64)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_subtract_normalizes_to_zero(backend):
    eng = make_engine(backend, seed=50)
    rng = np.random.default_rng(50)
    vals = fixed.encode(rng.uniform(-20, 20, size=11))
    xs = eng.share(vals)
    mx = prim.sec_max(eng, xs)
    shifted = eng.sub(xs, eng.broadcast_to(mx, xs.shape))
    dec = fixed.decode(eng.reconstruct(shifted))
    assert dec.max() == 0.0
    assert (dec <= 0.0).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_elementary_pinned_values(backend):
    eng = make_engine(backend, seed=52)
    assert fixed.decode(eng.reconstruct(prim.sec_exp(eng, eng.share(fixed.encode(0.0))))) == pytest.approx(1.0, abs=2**-10)
    got = fixed.decode(eng.reconstruct(prim.sec_sqrt(eng, eng.share(fixed.encode(4.0)))))
    assert got == pytest.approx(2.0, abs=2**-10)
    assert fixed.decode(eng.reconstruct(prim.sec_sqrt(eng, eng.share(fixed.encode(0.0))))) == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "fn,lo,hi,ref",
    [
        ("EXP", -16.0, 0.0, np.exp),
        ("LN", 2.0**-32, 2.0, np.log),
        ("SQRT", 0.0, 64.0, np.sqrt),
        ("SIN", 0.0, 2 * math.pi, np.sin),
        ("COS", 0.0, 2 * math.pi, np.cos),
    ],
)
def test_elementary_domain_sweeps(backend, fn, lo, hi, ref):
    eng = make_engine(backend, seed=53)
    dom = np.linspace(lo, hi, 1000)
    snapped = fixed.decode(fixed.encode(dom))
    impl = {
        "EXP": prim.sec_exp,
        "LN": prim.sec_ln,
        "SQRT": prim.sec_sqrt,
        "SIN": lambda eng, x: prim.sec_sin_cos(eng, x)[0],
        "COS": lambda eng, x: prim.sec_sin_cos(eng, x)[1],
    }[fn]
    got = fixed.decode(eng.reconstruct(impl(eng, eng.share(fixed.encode(dom)))))
    assert np.abs(got - ref(snapped)).max() <= 2**-10


@pytest.mark.parametrize("backend", BACKENDS)
def test_elementary_out_of_domain_clamps(backend):
    eng = make_engine(backend, seed=54)
    x = eng.share(fixed.encode(np.array([-25.0, 3.0])))
    got = fixed.decode(eng.reconstruct(prim.sec_exp(eng, x)))
    assert got[0] == pytest.approx(math.exp(-16.0), abs=2**-10)
    assert got[1] == pytest.approx(1.0, abs=2**-10)
    x = eng.share(fixed.encode(np.array([-1.0, 100.0])))
    got = fixed.decode(eng.reconstruct(prim.sec_sqrt(eng, x)))
    assert got[0] == pytest.approx(0.0, abs=2**-10)
    assert got[1] == pytest.approx(8.0, abs=2**-10)
    x = eng.share(fixed.encode(np.array([0.0, 7.0])))
    got = fixed.decode(eng.reconstruct(prim.sec_ln(eng, x)))
    assert got[0] == pytest.approx(-32 * math.log(2.0), abs=2**-10)
    assert got[1] == pytest.approx(math.log(2.0), abs=2**-10)


def _sequential_clamp_words(x, lo: float, hi: float) -> np.ndarray:
    """The words of clamping below, then above, on signed words x."""
    s = x.view(np.int64)
    lo_w, hi_w = (int(prim._enc_at(v, fixed.F).view(np.int64)) for v in (lo, hi))
    below = np.where(s < lo_w, lo_w, s)
    return np.where(below > hi_w, hi_w, below).astype(np.int64).view(np.uint64)


@pytest.mark.parametrize("backend", BACKENDS)
def test_clamp_words_at_domain_edges(backend):
    # the batched clamp gives the words of the sequential one, at each
    # domain edge, one ulp either side of it and well outside
    ulp = 2.0**-fixed.F
    for lo, hi in (prim.EXP_DOMAIN, prim.LN_DOMAIN, prim.SQRT_DOMAIN,
                   prim.TRIG_DOMAIN):
        vals = np.array([lo - 5, lo - ulp, lo, lo + ulp, (lo + hi) / 2,
                         hi - ulp, hi, hi + ulp, hi + 5])
        x = fixed.encode(vals).reshape(3, 3)
        eng = make_engine(backend, seed=56)
        got = eng.reconstruct(prim._clamp(eng, eng.share(x), lo, hi))
        assert np.array_equal(got, _sequential_clamp_words(x, lo, hi)), (lo, hi)


def test_clamp_rounds_and_counters():
    # one batched comparison (masked opening 2 + borrow network 6) and
    # one product: 8 + 1 rounds; still two comparisons per element
    eng = Mpc3Engine(seed=57)
    x = eng.share(fixed.encode(np.linspace(-20.0, 4.0, 7)))
    before = eng.transcript.rounds
    prim._clamp(eng, x, *prim.EXP_DOMAIN)
    assert eng.transcript.rounds - before == 8 + 1
    assert eng.transcript.counters["gt"] == 2 * 7
    assert eng.transcript.counters["dabit"] == 2 * 7


@pytest.mark.parametrize("backend", BACKENDS)
def test_sin_cos_quadrant_width_keeps_words(backend, monkeypatch):
    # the 3-bit quadrant one-hot reveals the words of the 64-bit one on a
    # grid through 0, the quadrant edges and the 2pi clamp boundary
    grid = np.concatenate([np.linspace(0.0, 2 * math.pi, 401),
                           [-1.0, 2 * math.pi + 1e-9, 7.0],
                           np.arange(5) * math.pi / 2])
    words = fixed.encode(grid)

    def run():
        eng = make_engine(backend, seed=61)
        return [eng.reconstruct(v)
                for v in prim.sec_sin_cos(eng, eng.share(words))]

    narrow = run()
    wide_eq = prim.sec_eq
    monkeypatch.setattr(prim, "sec_eq",
                        lambda eng, x, other, nbits=64: wide_eq(eng, x, other))
    wide = run()
    for got, want in zip(narrow, wide):
        assert np.array_equal(got, want)


def test_sin_cos_mask_bits_pinned():
    # per element: 2 clamp comparisons and 21 truncations at 64 mask
    # bits each, and 5 quadrant equality tests on one 3-bit opening
    eng = Mpc3Engine(seed=62)
    prim.sec_sin_cos(eng, eng.share(fixed.encode(np.linspace(0.0, 6.0, 7))))
    assert eng.transcript.counters["mask_bit"] == 7 * (64 * (2 + 21) + 3)
    assert eng.transcript.counters["eq"] == 7 * 5


def test_sin_cos_plain_fails_closed_outside_quadrants(monkeypatch):
    # the clamp keeps k in [0, 4]; widened, it lets k leave on either side
    monkeypatch.setattr(prim, "TRIG_DOMAIN", (-math.pi, 4 * math.pi))
    eng = make_engine("cdp", seed=63)
    for x in (-1.0, 3 * math.pi):
        with pytest.raises(RangeContractError):
            prim.sec_sin_cos(eng, eng.share(fixed.encode(np.array([x]))))
    prim.sec_sin_cos(eng, eng.share(fixed.encode(np.array([0.0, 2.0]))))


@pytest.mark.parametrize("backend", BACKENDS)
def test_softmax_unnorm_pinned(backend):
    eng = make_engine(backend, seed=56)
    errs = eng.share(fixed.encode(np.array([0.0, -1000.0])))  # second clamps to -16
    got = fixed.decode(eng.reconstruct(prim.sec_softmax_unnorm(eng, errs)))
    assert got[0] == pytest.approx(1.0, abs=2**-10)
    assert got[1] == pytest.approx(math.exp(-16.0), abs=2**-10)
    flat = fixed.decode(eng.reconstruct(prim.sec_softmax_unnorm(eng, eng.share(fixed.encode(np.zeros(3))))))
    assert np.abs(flat - 1.0).max() <= 2**-10


@pytest.mark.parametrize("backend", BACKENDS)
def test_softmax_unnorm_proportional_to_plaintext(backend):
    eng = make_engine(backend, seed=57)
    rng = np.random.default_rng(57)
    for _ in range(10):
        errs = -rng.uniform(0.0, 8.0, size=12)
        errs[rng.integers(0, 12)] = 0.0  # max-subtracted vectors contain a zero
        got = fixed.decode(eng.reconstruct(prim.sec_softmax_unnorm(eng, eng.share(fixed.encode(errs)))))
        want = np.exp(errs)
        got_n, want_n = got / got.sum(), want / want.sum()
        assert np.abs(got_n / want_n - 1.0).max() <= 2**-9


def test_primitive_words_identical_across_backends():
    rng = np.random.default_rng(58)
    vals = rng.uniform(0.05, 1.9, size=200)
    w = fixed.encode(vals)
    results = {}
    for backend in BACKENDS:
        eng = make_engine(backend, seed=59)
        x = eng.share(w)
        results[backend] = [
            eng.reconstruct(prim.sec_ln(eng, x)),
            eng.reconstruct(prim.sec_sqrt(eng, x)),
            eng.reconstruct(prim.sec_exp(eng, eng.neg(x))),
            eng.reconstruct(prim.sec_sin_cos(eng, x)[0]),
            eng.reconstruct(prim.sec_cmp(eng, x, eng.share(w[::-1].copy()), "LT")),
        ]
    for got_m, got_p in zip(results["mpc"], results["cdp"]):
        assert np.array_equal(got_m, got_p)


def test_message_pattern_data_independent():
    # same shapes, different data: byte-identical transcript records
    def run(vals):
        eng = Mpc3Engine(seed=60)
        msgs = message_log(eng)
        x = eng.share(fixed.encode(vals))
        y = eng.share(fixed.encode(vals[::-1].copy()))
        prim.sec_cmp(eng, x, y, "LT")
        prim.sec_eq(eng, x, np.zeros(vals.size, dtype=np.uint64))
        prim.sec_exp(eng, x)
        return msgs

    rng = np.random.default_rng(61)
    recs_a = run(-rng.uniform(0, 16, size=40))
    recs_b = run(-rng.uniform(0, 16, size=40))
    assert recs_a == recs_b


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nbits", [34, 39])
def test_value_bits_and_msb_onehot_match_plaintext(backend, nbits):
    eng = make_engine(backend, seed=62)
    rng = np.random.default_rng(62 + nbits)
    vals = rng.integers(0, 1 << nbits, size=(4, 6), dtype=np.uint64)
    vals[0, :3] = [0, 1, (1 << nbits) - 1]
    vals[1] >>= rng.integers(0, nbits, size=6).astype(np.uint64)  # spread the msb
    # long zero runs below the msb: the suffix-OR must span all nbits
    vals[2, :3] = [1 << (nbits - 1), (1 << (nbits - 1)) | 1, 1 << 32]
    x = eng.share(vals)
    bits = eng.reconstruct(eng.value_bits(x, range(nbits)))
    want_bits = (vals >> np.arange(nbits, dtype=np.uint64).reshape(-1, 1, 1)) & np.uint64(1)
    assert np.array_equal(bits, want_bits)
    onehot = eng.reconstruct(eng.msb_onehot(x, nbits))
    want = np.zeros_like(want_bits)
    for idx in np.ndindex(vals.shape):
        if vals[idx]:
            want[(int(vals[idx]).bit_length() - 1,) + idx] = 1
    assert np.array_equal(onehot, want)


def test_msb_onehot_round_count_log_depth():
    # packed value bits: masked opening (2) + borrow network
    # (ceil(log2 (nbits - 1)) = 6, its last AND reshared); suffix-OR scan
    # ceil(log2 nbits) = 6 instead of nbits - 1, its last AND fused with
    # the opening that makes the one-hot arithmetic
    for nbits in (34, 39):
        eng = Mpc3Engine(seed=63)
        x = eng.share(np.arange(5, dtype=np.uint64))
        before = eng.transcript.rounds
        eng.msb_onehot(x, nbits)
        assert eng.transcript.rounds - before == 2 + 6 + 6, nbits


def test_sec_cmp_round_count_closed_form():
    # masked opening (2) + borrow into bit 63 (ceil(log2 63) = 6), the
    # last level fused with the opening of m_63 ^ r_63 ^ borrow ^ daBit
    eng = Mpc3Engine(seed=64)
    x = eng.share(fixed.encode(np.linspace(-2, 2, 9)))
    y = eng.share(fixed.encode(np.zeros(9)))
    before = eng.transcript.rounds
    prim.sec_cmp(eng, x, y, "LT")
    assert eng.transcript.rounds - before == 2 + 6


def test_log_depth_networks_records_data_independent():
    # the borrow network and the suffix-OR scan run in sec_ln and sec_sqrt
    def run(vals):
        eng = Mpc3Engine(seed=65)
        msgs = message_log(eng)
        x = eng.share(fixed.encode(vals))
        prim.sec_ln(eng, x)
        prim.sec_sqrt(eng, x)
        eng.value_bits(eng.share(np.arange(vals.size, dtype=np.uint64)), range(34))
        return msgs

    rng = np.random.default_rng(66)
    recs_a = run(rng.uniform(0.01, 2.0, size=(2, 7)))
    recs_b = run(rng.uniform(0.01, 2.0, size=(2, 7)))
    assert recs_a == recs_b


def _sign_network_records(n: int) -> list[tuple[int, int, int, int]]:
    """(round, sender, receiver, bytes) of a lone sign network on n
    elements, rounds counted from 1: one masked word for each of the 64
    mask bits and the daBit from party 2 to party 1, one resharing of two
    words (x + r's word and the daBit), the first also sent to the right,
    five two-word AND levels of the borrow scan into bit 63, then the
    sixth level's AND fused with the opening of bit 63 (one word to each
    other party)."""
    reshare = [(2, 1), (3, 2), (1, 3)]
    opening = [(2, 1), (3, 1), (3, 2), (1, 2), (1, 3), (2, 3)]
    recs = [(1, 2, 1, 8 * 65 * n)] + [(2, s, t, 16 * n) for s, t in reshare]
    recs += [(2, s, t, 8 * n) for s, t in ((1, 2), (2, 3), (3, 1))]
    recs += [(r, s, t, 16 * n) for r in range(3, 8) for s, t in reshare]
    return recs + [(8, s, t, 8 * n) for s, t in opening]


_SIGN_VALUES = np.array([0, -1, 1 << 30, -(1 << 30)], dtype=np.int64)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(4,), (2, 2)])
def test_value_bits_at_63_is_the_sign_bit(backend, shape):
    eng = make_engine(backend, seed=67)
    vals = _SIGN_VALUES.reshape(shape)
    bits = eng.reconstruct(eng.value_bits(eng.share(vals.astype(np.uint64)), (63,)))
    assert bits.shape == (1,) + shape
    assert np.array_equal(bits[0], (vals < 0).astype(np.uint64))
    lt = eng.reconstruct(prim.sec_cmp(eng, eng.share(vals.astype(np.uint64)),
                                      eng.share(np.zeros(shape, dtype=np.uint64)), "LT"))
    assert np.array_equal(lt, (vals < 0).astype(np.uint64))


def test_value_bits_at_63_messages_match_a_lone_sign_network():
    # the sign bit costs what a network for bit 63 alone costs: one daBit,
    # a borrow scan of depth 6 and no round for the XOR with m_63 ^ r_63
    for shape in ((4,), (2, 2)):
        eng = Mpc3Engine(seed=68)
        msgs = message_log(eng)
        d = eng.share(_SIGN_VALUES.astype(np.uint64).reshape(shape))
        start, skip = eng.transcript.rounds, len(msgs)
        eng.value_bits(d, (63,))
        got = [(r - start, s, t, b) for r, _, s, t, b in msgs[skip:]]
        assert got == _sign_network_records(4), shape
        assert eng.transcript.counters["dabit"] == 4


def test_packed_networks_records_data_independent():
    # zeros, ties, the ends of the ln and sqrt domains and random values:
    # byte-identical records for truncation, comparison, ln and sqrt
    def run(vals):
        eng = Mpc3Engine(seed=70)
        msgs = message_log(eng)
        x = eng.share(fixed.encode(vals))
        eng.trunc(x, 16)
        prim.sec_cmp(eng, x, eng.share(fixed.encode(vals[::-1].copy())), "LT")
        prim.sec_ln(eng, x)
        prim.sec_sqrt(eng, x)
        return msgs

    rng = np.random.default_rng(70)
    runs = [run(v) for v in (
        np.zeros(8), np.full(8, 64.0),
        np.array([2.0**-32, 2.0, 0.0, 64.0, 1.0, 0.5, 1e-3, 63.9]),
        rng.uniform(0.0, 64.0, size=8))]
    assert all(r == runs[0] for r in runs[1:])


def test_dabit_counter_closed_form():
    # one daBit per opened bit per element: the two borrow taps of a
    # truncation, the sign bit of a comparison, every requested value bit
    # and every one-hot bit; equality opens no bit and draws none
    n = 6
    per_element = {
        "trunc": (lambda e, x: e.trunc(x, 16), 2),
        "sec_cmp": (lambda e, x: prim.sec_cmp(e, x, x, "GT"), 1),
        "value_bits": (lambda e, x: e.value_bits(x, range(34)), 34),
        "msb_onehot": (lambda e, x: e.msb_onehot(x, 39), 39),
        # 2 clamp comparisons, the msb one-hot and 9 truncations
        "sec_ln": (prim.sec_ln, 2 + 34 + 2 * 9),
        # 2 clamp comparisons, the msb one-hot and 19 truncations
        "sec_sqrt": (prim.sec_sqrt, 2 + 39 + 2 * 19),
        # 2 clamp comparisons and 21 truncations
        "sec_sin_cos": (prim.sec_sin_cos, 2 + 2 * 21),
        "sec_eq": (lambda e, x: prim.sec_eq(e, x, x, nbits=3), 0),
    }
    for name, (call, k) in per_element.items():
        for backend in BACKENDS:
            eng = make_engine(backend, seed=71)
            call(eng, eng.share(fixed.encode(np.linspace(0.5, 1.5, n))))
            want = k * n if backend == "mpc" else 0
            assert eng.transcript.counters.get("dabit", 0) == want, (name, backend)
