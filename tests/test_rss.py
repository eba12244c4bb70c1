"""Replicated sharing engine: reconstruction, messaging, shared randomness."""

import numpy as np
import pytest
from scipy import stats

from fixed_reference import fx_mul_trunc
from mpcsyn import fixed
from mpcsyn.rss import (
    IntegrityError,
    Mpc3Engine,
    PlainEngine,
    RangeContractError,
    make_engine,
)


def test_share_reconstruct_round_trip():
    eng = Mpc3Engine(seed=1)
    rng = np.random.default_rng(1)
    v = rng.integers(0, 1 << 64, size=10_000, dtype=np.uint64)
    assert np.array_equal(eng.reconstruct(eng.share(v)), v)
    assert int(eng.reconstruct(eng.share(np.uint64(0)))) == 0


def test_share_component_sum_identity():
    eng = Mpc3Engine(seed=2)
    rng = np.random.default_rng(2)
    v = rng.integers(0, 1 << 64, size=10_000, dtype=np.uint64)
    x = eng.share(v)
    c0, c1, c2 = (x.pairs[i][0] for i in range(3))
    assert np.array_equal(c0 + c1 + c2, v)


def test_single_party_pair_uniform():
    # 10^4 fresh sharings of the constant 7: each party's view must look
    # uniform. Chi-square on the low 8 bits of both pair components.
    eng = Mpc3Engine(seed=3)
    x = eng.share(np.full(10_000, 7, dtype=np.uint64))
    for party in range(3):
        for comp in x.pairs[party]:
            counts = np.bincount((comp & np.uint64(0xFF)).astype(np.int64), minlength=256)
            chi2 = float(((counts - counts.mean()) ** 2 / counts.mean()).sum())
            assert chi2 < stats.chi2.ppf(0.99, df=255), (party, chi2)


def test_tampered_share_raises_integrity_error():
    eng = Mpc3Engine(seed=4)
    x = eng.share(np.arange(5, dtype=np.uint64))
    x.pairs[2][1][3] += np.uint64(9)
    with pytest.raises(IntegrityError):
        eng.reconstruct(x)


def test_open_checks_both_copies():
    eng = Mpc3Engine(seed=5)
    x = eng.share(np.arange(8, dtype=np.uint64))
    assert np.array_equal(eng.open(x, to=0), np.arange(8, dtype=np.uint64))
    # party 1's replicated copy of component 2 disagrees with party 2's
    x.pairs[1][1][0] ^= np.uint64(1)
    with pytest.raises(IntegrityError):
        eng.open(x, to=0)


def test_linearity_of_reconstruction():
    eng = Mpc3Engine(seed=6)
    rng = np.random.default_rng(6)
    a = rng.integers(0, 1 << 64, size=200, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=200, dtype=np.uint64)
    s = eng.add(eng.share(a), eng.share(b, owner=1))
    assert np.array_equal(eng.reconstruct(s), a + b)


def test_const_vec_is_public_constant_convention():
    eng = Mpc3Engine(seed=8)
    out = eng.const_vec(fixed.encode(4.25))
    # party 1 carries the constant, the others hold zero
    assert int(out.pairs[0][0]) == int(fixed.encode(4.25))
    assert int(out.pairs[1][0]) == 0
    assert int(out.pairs[2][0]) == 0
    assert fixed.decode(eng.reconstruct(out)) == 4.25


def test_mul_exact_and_three_messages():
    eng = Mpc3Engine(seed=10)
    rng = np.random.default_rng(10)
    assert int(eng.reconstruct(eng.mul(eng.share(np.uint64(0)), eng.share(np.uint64(9))))) == 0
    assert int(eng.reconstruct(eng.mul(eng.share(np.uint64(3)), eng.share(np.uint64(5))))) == 15
    a = rng.integers(0, 1 << 64, size=1000, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=1000, dtype=np.uint64)
    xa, xb = eng.share(a), eng.share(b)
    before_msgs = eng.transcript.msg_count
    prod = eng.mul(xa, xb)
    assert eng.transcript.msg_count - before_msgs == 3
    assert np.array_equal(eng.reconstruct(prod), a * b)
    assert eng.transcript.counters["mul"] == 1002


def test_mul_message_shape_and_channels():
    eng = Mpc3Engine(seed=11, record_messages=True)
    x = eng.share(np.arange(4, dtype=np.uint64))
    y = eng.share(np.arange(4, dtype=np.uint64))
    with eng.scope("probe"):
        eng.mul(x, y)
    recs = [r for r in eng.transcript.records if r[1] == "probe"]
    # one ring element per input element per party, ring around the triangle
    assert sorted((s, r) for _, _, s, r, _ in recs) == [(1, 3), (2, 1), (3, 2)]
    assert all(nbytes == 4 * 8 for *_, nbytes in recs)


def test_trunc_removes_extra_fractional_bits():
    eng = Mpc3Engine(seed=12)
    # 6.0 carried at 16 extra fractional bits shifts back down exactly
    word = np.uint64(6 << (32 + 16))
    assert fixed.decode(eng.reconstruct(eng.trunc(eng.share(word), 16))) == 6.0
    assert int(eng.reconstruct(eng.trunc(eng.share(np.uint64(0))))) == 0
    # through a real product: operands whose product stays representable
    prod = eng.mul(eng.share(fixed.encode(6.0)), eng.share(fixed.encode(0.0625)))
    assert fixed.decode(eng.reconstruct(eng.trunc(prod))) == 0.375


def test_trunc_generalized_shift_matches_word_oracle():
    eng = Mpc3Engine(seed=13)
    rng = np.random.default_rng(13)
    for g in (8, 16, 32, 48):
        w = rng.integers(0, 1 << 64, size=400, dtype=np.uint64)
        got = eng.reconstruct(eng.trunc(eng.share(w), g))
        assert np.array_equal(got, fixed.trunc_word(w, g)), g


def test_trunc_mul_matches_fx_oracle_bitwise():
    # the wrapped 64-bit product agrees with the 128-bit reference exactly
    # when the true product is representable at 2f fractional bits
    eng = Mpc3Engine(seed=14)
    rng = np.random.default_rng(14)
    a = rng.uniform(-0.7, 0.7, size=500)
    b = rng.uniform(-0.7, 0.7, size=500)
    wa, wb = fixed.encode(a), fixed.encode(b)
    got = eng.reconstruct(eng.trunc(eng.mul(eng.share(wa), eng.share(wb))))
    assert np.array_equal(got, fx_mul_trunc(wa, wb))


@pytest.mark.parametrize("backend", ("mpc", "cdp"))
def test_trunc_of_product_matches_reference_at_every_shift(backend):
    # every shift the primitives truncate by; |a|, |b| < 2^31 keeps the
    # product a representable signed word, where the wrapped 64-bit
    # product and the 128-bit reference agree
    eng = make_engine(backend, seed=35)
    rng = np.random.default_rng(35)
    edge = np.array([0, 1, -1, (1 << 31) - 1, -(1 << 31) + 1], dtype=np.int64)
    for g in (2, 6, 16, 26, 27, 28, 30, 32):
        a = np.concatenate([edge, edge[::-1], rng.integers(-(1 << 31) + 1, 1 << 31, size=200)])
        b = np.concatenate([edge, edge, rng.integers(-(1 << 31) + 1, 1 << 31, size=200)])
        wa, wb = fixed.as_word(a), fixed.as_word(b)
        got = eng.reconstruct(eng.trunc(eng.mul(eng.share(wa), eng.share(wb)), g))
        assert np.array_equal(got, fx_mul_trunc(wa, wb, g)), g


def test_rand_bit_support_mean_and_determinism():
    eng = Mpc3Engine(seed=15)
    bits = eng.reconstruct(eng.rand_bit(100_000))
    assert set(np.unique(bits).tolist()) <= {0, 1}
    assert 0.49 <= bits.mean() <= 0.51
    again = Mpc3Engine(seed=15).reconstruct(Mpc3Engine(seed=15).rand_bit(100_000))
    assert np.array_equal(bits, again)
    other = Mpc3Engine(seed=16).reconstruct(Mpc3Engine(seed=16).rand_bit(100_000))
    assert not np.array_equal(bits, other)


def test_mask_bits_are_uniform_bits_per_position():
    eng = Mpc3Engine(seed=19)
    bits = eng.reconstruct(eng.mask_bits((3, 1000)).bits)
    assert bits.shape == (64, 3, 1000)
    assert set(np.unique(bits).tolist()) <= {0, 1}
    # every position of the unpacked words is a fair coin
    means = bits.reshape(64, -1).mean(axis=1)
    assert np.all(np.abs(means - 0.5) < 0.05)
    assert eng.transcript.counters["mask_bit"] == 64 * 3000
    again = Mpc3Engine(seed=19).reconstruct(Mpc3Engine(seed=19).mask_bits((3, 1000)).bits)
    assert np.array_equal(bits, again)


@pytest.mark.parametrize("nbits", (1, 2, 5, 63))
def test_mask_bits_width(nbits):
    eng = Mpc3Engine(seed=21)
    bits = eng.reconstruct(eng.mask_bits((2, 500), nbits).bits)
    assert bits.shape == (nbits, 2, 500)
    assert set(np.unique(bits).tolist()) <= {0, 1}
    assert np.all(np.abs(bits.reshape(nbits, -1).mean(axis=1) - 0.5) < 0.07)
    assert eng.transcript.counters["mask_bit"] == nbits * 1000
    assert eng.transcript.rounds == 2
    with pytest.raises(ValueError):
        eng.mask_bits(3, 0)


@pytest.mark.parametrize("nbits", (1, 2, 5, 64))
def test_masked_open_word_uniform_for_fixed_input(nbits):
    eng = Mpc3Engine(seed=22)
    n = 40_000
    x = np.full(n, 3, dtype=np.uint64)
    m, mask = eng.masked_open(eng.share(x), nbits)
    # the low nbits bits of the opened word are (x + mask bits) mod 2^nbits
    low = np.sum(eng.reconstruct(mask.bits) << np.arange(nbits, dtype=np.uint64)[:, None],
                 axis=0, dtype=np.uint64)
    keep = np.uint64((1 << nbits) - 1)
    assert np.array_equal((m - x - low) & keep, np.zeros(n, dtype=np.uint64))
    for byte in (m & np.uint64(0xFF), m >> np.uint64(56)):
        counts = np.bincount(byte.astype(np.int64), minlength=256)
        assert stats.chisquare(counts).pvalue > 1e-3, nbits


def test_transcript_summary_names_channels():
    eng = Mpc3Engine(seed=20)
    eng.mul(eng.share(np.arange(3, dtype=np.uint64)),
            eng.share(np.arange(3, dtype=np.uint64)))
    t = eng.transcript
    chans = t.summary()["channels"]
    assert list(chans) == sorted(chans)
    assert {"1->3", "2->1", "3->2"} <= set(chans)
    assert all(k in {f"{s}->{r}" for s in (1, 2, 3) for r in (1, 2, 3)} for k in chans)
    assert sum(c["messages"] for c in chans.values()) == t.msg_count
    assert sum(c["bytes"] for c in chans.values()) == t.byte_count


def test_rand_uniform01_range_and_ks():
    eng = Mpc3Engine(seed=17)
    u = fixed.decode(eng.reconstruct(eng.rand_uniform01(100_000)))
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_rand_streams_consume_counters():
    eng = Mpc3Engine(seed=18)
    eng.rand_uniform01(10)
    assert eng.transcript.counters["rand_bit"] == 32 * 10


def test_injected_randomness_overrides_stream():
    for backend in ("mpc", "cdp"):
        eng = make_engine(backend, seed=19)
        eng.inject_uniform([0.65, 0.25])
        u = fixed.decode(eng.reconstruct(eng.rand_uniform01(2)))
        assert np.max(np.abs(u - [0.65, 0.25])) < 2.0**-32
        eng.inject_bits([1, 1, 0])
        assert eng.reconstruct(eng.rand_bit(3)).tolist() == [1, 1, 0]


def test_noise_streams_identical_across_backends():
    mpc = Mpc3Engine(seed=20)
    cdp = PlainEngine(seed=20)
    assert np.array_equal(
        mpc.reconstruct(mpc.rand_uniform01(64)), cdp.reconstruct(cdp.rand_uniform01(64))
    )
    assert np.array_equal(mpc.reconstruct(mpc.rand_bit(64)), cdp.reconstruct(cdp.rand_bit(64)))


def test_scale_pub_accuracy_and_integer_fast_path():
    for backend in ("mpc", "cdp"):
        eng = make_engine(backend, seed=21)
        rng = np.random.default_rng(21)
        vals = rng.uniform(-200.0, 200.0, size=64)
        x = eng.share(fixed.encode(vals))
        before = eng.transcript.msg_count if backend == "mpc" else 0
        y = eng.scale_pub(x, -3.0)
        if backend == "mpc":
            assert eng.transcript.msg_count == before  # integer path is local
        assert np.max(np.abs(fixed.decode(eng.reconstruct(y)) - vals * -3.0)) < 2.0**-30
        z = eng.scale_pub(x, 0.4915)
        got = fixed.decode(eng.reconstruct(z))
        assert np.max(np.abs(got - vals * 0.4915)) < 2.0**-30 * (1 + np.abs(vals).max())



def test_scale_pub_plain_fails_closed_outside_contract():
    # both reproduce silent wraps: |x| >= 2^15, and |x * c| >= 2^15
    eng = make_engine("cdp", seed=23)
    for x, c in ((-100000.0, 0.025), (22.0, 3000.3)):
        with pytest.raises(RangeContractError):
            eng.scale_pub(eng.share(fixed.encode(x)), c)
    # one bad element anywhere fails the whole call
    with pytest.raises(RangeContractError):
        eng.scale_pub(eng.share(fixed.encode([1.0, 2.0**15, 3.0])), 0.5)
    # integer constants are exact at any magnitude and carry no contract
    y = eng.scale_pub(eng.share(fixed.encode(-100000.0)), 3.0)
    assert fixed.decode(eng.reconstruct(y)) == -300000.0


def test_scale_pub_just_inside_contract():
    top = 2.0**15 - 2.0**-16
    vals = np.array([top, -top, 32767.0, 3000.0, -3000.0])
    consts = np.array([0.5, 0.999, -0.999, 10.9, -10.9])
    for backend in ("mpc", "cdp"):
        eng = make_engine(backend, seed=24)
        for v, c in zip(vals, consts):
            y = eng.scale_pub(eng.share(fixed.encode(v)), c)
            got = fixed.decode(eng.reconstruct(y))
            assert abs(got - v * c) < 2.0**-30 * (1 + abs(v)), (backend, v, c)

def test_transcript_byte_totals_match_records():
    eng = Mpc3Engine(seed=22, record_messages=True)
    x = eng.share(np.arange(16, dtype=np.uint64))
    y = eng.share(np.arange(16, dtype=np.uint64))
    eng.trunc(eng.mul(x, y))
    eng.open(x)
    t = eng.transcript
    assert t.byte_count == sum(r[4] for r in t.records)
    assert t.msg_count == len(t.records)
    assert sum(c["bytes"] for c in t.channels.values()) == t.byte_count


def test_full_run_deterministic_for_fixed_seed():
    def run(seed):
        eng = Mpc3Engine(seed=seed, record_messages=True)
        x = eng.share(fixed.encode(np.linspace(-4, 4, 33)))
        y = eng.trunc(eng.mul(x, x))
        u = eng.rand_uniform01(33)
        out = eng.reconstruct(eng.add(y, u))
        return out, eng.transcript.records, eng.transcript.summary()

    out1, recs1, sum1 = run(23)
    out2, recs2, sum2 = run(23)
    assert np.array_equal(out1, out2)
    assert recs1 == recs2
    assert sum1 == sum2


def test_transcript_json_round_trip():
    import json

    eng = Mpc3Engine(seed=24)
    eng.mul(eng.share(np.uint64(2)), eng.share(np.uint64(3)))
    blob = json.loads(json.dumps(eng.transcript.summary()))
    assert blob["messages"] == eng.transcript.msg_count
    assert blob["counters"]["mul"] == 1


def test_plain_engine_matches_mpc_on_arithmetic():
    rng = np.random.default_rng(25)
    a = rng.uniform(-30.0, 30.0, size=100)
    b = rng.uniform(-30.0, 30.0, size=100)
    outs = []
    for backend in ("mpc", "cdp"):
        eng = make_engine(backend, seed=26)
        x, y = eng.share(fixed.encode(a)), eng.share(fixed.encode(b))
        z = eng.add(eng.trunc(eng.mul(x, y)), eng.mul_const_int(x, 3))
        z = eng.sub(z, eng.scale_pub(y, 1.5))
        outs.append(eng.reconstruct(z))
    assert np.array_equal(outs[0], outs[1])


def _masked(eng, rng, shape, taps):
    """A masked opening of random words with the daBits ``taps`` need (a
    fifth of the words are 0, so m = r there and every tap ties); returns
    (m, mask, r) with r the word the arithmetic mask bits encode."""
    x = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    x = np.where(rng.random(shape) < 0.2, np.uint64(0), x)
    m, mask = eng.masked_open(eng.share(x), dabits=[t - 1 for t in taps if t])
    bits = eng.reconstruct(mask.bits)
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64)).reshape((64,) + (1,) * len(shape))
    return m, mask, np.sum(bits * weights, axis=0, dtype=np.uint64)


def _borrow_into(m, r, t):
    """Plaintext borrow into bit t of m - r: [m mod 2^t < r mod 2^t]."""
    if t == 64:
        return (m < r).astype(np.uint64)
    low = np.uint64((1 << t) - 1)
    return ((m & low) < (r & low)).astype(np.uint64)


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_borrow_taps_match_plaintext_borrow(shape):
    eng = Mpc3Engine(seed=27)
    rng = np.random.default_rng(27 + len(shape))
    tap_sets = [[0], [1], [63], [64], list(range(34)), list(range(39))]
    tap_sets += [[g, 64] for g in range(1, 64)]
    for taps in tap_sets:
        m, mask, r = _masked(eng, rng, shape, taps)
        got = eng.reconstruct(eng.borrow_taps(m, mask, taps))
        assert got.shape == (len(taps),) + shape
        for i, t in enumerate(taps):
            assert np.array_equal(got[i], _borrow_into(m, r, t)), (taps, t)


def test_borrow_taps_rounds_are_log_depth():
    eng = Mpc3Engine(seed=28)
    rng = np.random.default_rng(28)
    for taps, depth in (([0], 0), ([1], 0), ([2], 1), ([63], 6), ([64], 6),
                        ([6, 64], 6), (list(range(34)), 6), ([5], 3)):
        m, mask, _ = _masked(eng, rng, (4,), taps)
        before = eng.transcript.rounds
        eng.borrow_taps(m, mask, taps)
        assert eng.transcript.rounds - before == depth, taps


def test_trunc_round_count_closed_form():
    # mask bits (2 rounds) + opening (1) + borrow network (ceil(log2 64) = 6);
    # the 64-step borrow chain this replaces took 64 rounds after the opening
    eng = Mpc3Engine(seed=29)
    x = eng.share(fixed.encode(np.linspace(-3, 3, 12)))
    for g in (1, 16, 30, 63):
        before = eng.transcript.rounds
        eng.trunc(x, g)
        assert eng.transcript.rounds - before == 2 + 1 + 6, g


def test_borrow_network_records_data_independent():
    def run(x):
        eng = Mpc3Engine(seed=30, record_messages=True)
        for taps in ([63], [30, 64], list(range(39))):
            m, mask = eng.masked_open(eng.share(x), dabits=[t - 1 for t in taps if t])
            eng.borrow_taps(m, mask, taps)
        eng.trunc(eng.share(x), 26)
        return eng.transcript.records

    rng = np.random.default_rng(30)
    runs = [run(rng.integers(0, 1 << 64, size=(3, 5), dtype=np.uint64)) for _ in range(2)]
    assert runs[0] == runs[1]


def _fused_opening(run):
    """Run ``run(eng)`` on a fresh engine and return the word its last
    round opened: the XOR of the three parties' words in that round."""
    eng = Mpc3Engine(seed=36)
    sent = {}
    send = eng._send

    def spy(sender, receiver, arr):
        sent[(eng.transcript.rounds, sender)] = arr.copy()
        return send(sender, receiver, arr)

    eng._send = spy
    run(eng)
    last = eng.transcript.rounds
    return sent[(last, 0)] ^ sent[(last, 1)] ^ sent[(last, 2)]


def test_fused_opening_reveals_uniform_bits():
    # a fixed secret in every lane: the opened bit ^ daBit words must be
    # uniform on the opened positions, and zero on every other position
    lanes, x = 8192, np.full(8192, 123_456_789, dtype=np.uint64)
    cases = (
        (lambda e: e.trunc(e.share(x), 16), (15, 63)),
        (lambda e: e.value_bits(e.share(x), (63,)), (63,)),
        (lambda e: e.msb_onehot(e.share(x), 34), tuple(range(34))),
    )
    for run, positions in cases:
        word = _fused_opening(run)
        keep = sum(1 << p for p in positions)
        assert not np.any(word & ~np.uint64(keep)), positions
        for group in (positions[:4], positions[-4:]):
            cells = np.zeros(lanes, dtype=np.int64)
            for i, p in enumerate(group):
                cells |= ((word >> np.uint64(p)) & np.uint64(1)).astype(np.int64) << i
            counts = np.bincount(cells, minlength=1 << len(group))
            assert stats.chisquare(counts).pvalue > 0.01, (positions, group)


def test_share_array_pairs_are_independent_views():
    eng = Mpc3Engine(seed=31)
    x = eng.share(np.arange(6, dtype=np.uint64).reshape(2, 3))
    assert x.data.shape == (3, 2, 2, 3) and x.shape == (2, 3) and x.size == 6
    for i in range(3):
        # party i's second slot and party i+1's first slot hold one component
        assert np.array_equal(x.pairs[i][1], x.pairs[(i + 1) % 3][0])
    x.pairs[0][1][1, 2] += np.uint64(1)
    assert x.data[0, 1, 1, 2] != x.data[1, 0, 1, 2]


def test_layout_helpers_broadcast_like_plaintext():
    rng = np.random.default_rng(32)
    a = rng.integers(0, 1 << 64, size=(4, 3), dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=(3,), dtype=np.uint64)
    outs = []
    for backend in ("mpc", "cdp"):
        eng = make_engine(backend, seed=33)
        x, y = eng.share(a), eng.share(b)
        got = [
            eng.add(x, y), eng.sub(y, x), eng.mul(x, y), eng.mul_const_int(y, a),
            eng.broadcast_to(y, (2, 4, 3)), eng.reshape(x, (3, 4)),
            eng.index(x, (slice(None), [2, 0])), eng.index(x, -1),
            eng.stack([x, x], axis=-1), eng.concat([x, x], axis=1),
            eng.sum_axis(x), eng.sum_axis(x, axis=(0, 1)), eng.sum_axis(x, axis=-1),
            eng.cumsum_axis(x, axis=1), eng.add_const(x, b),
        ]
        outs.append([eng.reconstruct(v) for v in got])
    for m, p in zip(*outs):
        assert m.shape == p.shape and np.array_equal(m, p)


# -- ring wraparound on 0-d and 1-element operands ---------------------------
#
# An op on 0-d words returns a numpy scalar, and numpy's +, - and * on two
# scalars warn on overflow; the engines' ring ops wrap silently on both.
# Each chain feeds one op's result into a second op, so on the plaintext
# engine the second op sees numpy scalars. The RuntimeWarning filter
# (also set project-wide) turns any overflow warning into a failure.

_TOP = (1 << 64) - 1
_HALF = 1 << 63


def _ring_chains(eng, word):
    def w(v):
        return eng.share(word(v))

    half, top = w(_HALF), w(_TOP)
    m3 = eng.mul_const_int(top, 3)  # (2^64 - 1) * 3 = 2^64 - 3
    zero = eng.add(half, half)  # 2^63 + 2^63 = 0
    return [
        ("add", zero, 0),
        ("add.add", eng.add(m3, m3), -6),
        ("sub.sub", eng.sub(eng.sub(zero, m3), top), 4),
        ("neg.neg", eng.neg(eng.neg(m3)), -3),
        ("mul_const_int.mul_const_int", eng.mul_const_int(m3, 3), -9),
        ("mul", eng.mul(m3, m3), 9),
        ("_mul_raw", eng._mul_raw(m3, m3), 9),
        ("mul.add", eng.add(eng.mul(top, top), m3), -2),
        ("add_const", eng.add_const(m3, np.uint64(_HALF)), _HALF - 3),
        ("sub_const", eng.sub_const(m3, np.uint64(5)), -8),
        ("const_vec.add", eng.add(eng.const_vec(word(_TOP)), m3), -4),
        ("scale_pub int", eng.scale_pub(m3, 3.0), -9),
        ("trunc", eng.trunc(m3, 1), -2),
        ("trunc 2^63-1", eng.trunc(w(_HALF - 1), 1), (_HALF - 1) >> 1),
        ("trunc -2^63", eng.trunc(half, 1), -(1 << 62)),
        ("trunc -2^63+1", eng.trunc(w(_HALF + 1), 63), -1),
        ("trunc.add", eng.add(eng.trunc(eng.add(half, top), 3), m3),
         ((_HALF - 1) >> 3) - 3),
        ("sum_axis.add", eng.add(eng.sum_axis(eng.stack([m3, m3, top])), m3),
         -10),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", ["mpc", "cdp"])
@pytest.mark.parametrize("shape", [(), (1,)], ids=["0d", "1elem"])
def test_ring_ops_wrap_silently_on_scalars(backend, shape):
    eng = make_engine(backend, seed=71)

    def word(v):
        return np.full(shape, v % (1 << 64), dtype=np.uint64)

    for name, out, want in _ring_chains(eng, word):
        got = eng.open(out)
        assert np.shape(got) == shape, name
        assert np.array_equal(got, word(want)), (name, got, want % (1 << 64))
        assert out.shape == shape, name


# -- weighted bit-sums ----------------------------------------------------------


def _bit_sum_reference(bits: np.ndarray, weights) -> np.ndarray:
    """sum_j w_j * b_j mod 2^64 in Python integers."""
    out = np.zeros(bits.shape[1:], dtype=np.uint64)
    for idx in np.ndindex(out.shape):
        total = sum(int(w) * int(bits[(j,) + idx]) for j, w in enumerate(weights))
        out[idx] = total % (1 << 64)
    return out


_BIT_SUM_WEIGHTS = {
    "uint64": np.array([1, 1 << 32, 1 << 63, _TOP, 0xDEADBEEF12345678],
                       dtype=np.uint64),
    "python-int": [1 << 32, (1 << 40) + 7, 1 << 63, _TOP, 3],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("backend", ["mpc", "cdp"])
@pytest.mark.parametrize("kind", sorted(_BIT_SUM_WEIGHTS))
@pytest.mark.parametrize("shape", [(), (0,), (2, 3)], ids=["0d", "empty", "2x3"])
def test_bit_sum_matches_reference(backend, kind, shape):
    weights = _BIT_SUM_WEIGHTS[kind]
    eng = make_engine(backend, seed=73)
    rng = np.random.default_rng(73)
    bits = rng.integers(0, 2, size=(len(weights),) + shape, dtype=np.uint64)
    if bits.size:
        bits.reshape(len(weights), -1)[:, 0] = 1  # one element uses every weight
    x = eng.share(bits)
    before = eng.transcript.msg_count
    out = eng.bit_sum(x, weights)
    assert eng.transcript.msg_count == before  # local
    assert out.shape == shape
    assert np.array_equal(eng.open(out), _bit_sum_reference(bits, weights))
