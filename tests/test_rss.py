"""Replicated sharing engine: reconstruction, messaging, shared randomness."""

import numpy as np
import pytest
from scipy import stats

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


def test_linear_zero_messages_and_oracle():
    eng = Mpc3Engine(seed=7)
    rng = np.random.default_rng(7)
    xs = [eng.share(fixed.encode(rng.uniform(-50, 50, size=30))) for _ in range(4)]
    plain = [fixed.decode(eng.reconstruct(x)) for x in xs]
    before = eng.transcript.msg_count
    out = eng.linear([2, -1, 5, 3], xs, const=0.75)
    assert eng.transcript.msg_count == before
    want = 2 * plain[0] - plain[1] + 5 * plain[2] + 3 * plain[3] + 0.75
    assert np.max(np.abs(fixed.decode(eng.reconstruct(out)) - want)) < 2.0**-29


def test_linear_empty_is_public_constant_convention():
    eng = Mpc3Engine(seed=8)
    out = eng.linear([], [], const=4.25)
    # party 1 carries the constant, the others hold zero
    assert int(out.pairs[0][0]) == int(fixed.encode(4.25))
    assert int(out.pairs[1][0]) == 0
    assert int(out.pairs[2][0]) == 0
    assert fixed.decode(eng.reconstruct(out)) == 4.25


def test_linear_rejects_fractional_coefficients():
    eng = Mpc3Engine(seed=9)
    x = eng.share(fixed.encode(np.array([1.0])))
    with pytest.raises(ValueError):
        eng.linear([0.5], [x])


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
    assert np.array_equal(got, fixed.fx_mul_trunc(wa, wb))


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
    bits = eng.reconstruct(eng.mask_bits((3, 1000)))
    assert bits.shape == (64, 3, 1000)
    assert set(np.unique(bits).tolist()) <= {0, 1}
    # every position of the unpacked words is a fair coin
    means = bits.reshape(64, -1).mean(axis=1)
    assert np.all(np.abs(means - 0.5) < 0.05)
    assert eng.transcript.counters["mask_bit"] == 64 * 3000
    again = Mpc3Engine(seed=19).reconstruct(Mpc3Engine(seed=19).mask_bits((3, 1000)))
    assert np.array_equal(bits, again)


@pytest.mark.parametrize("nbits", (1, 2, 5, 63))
def test_mask_bits_width(nbits):
    eng = Mpc3Engine(seed=21)
    bits = eng.reconstruct(eng.mask_bits((2, 500), nbits))
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
    m, bits = eng.masked_open(eng.share(x), nbits)
    # the low nbits bits of the opened word are (x + mask bits) mod 2^nbits
    low = np.sum(eng.reconstruct(bits) << np.arange(nbits, dtype=np.uint64)[:, None],
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
    blob = json.loads(eng.transcript.to_json())
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


def _shared_mask(eng, rng, shape):
    """Shared bit tensor (64, *shape) and the word r it encodes."""
    bits = rng.integers(0, 2, size=(64,) + shape, dtype=np.uint64)
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64)).reshape((64,) + (1,) * len(shape))
    return eng.share(bits), np.sum(bits * weights, axis=0, dtype=np.uint64)


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
        bits, r = _shared_mask(eng, rng, shape)
        m = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        m = np.where(rng.random(shape) < 0.2, r, m)  # ties: equal low bits too
        got = eng.reconstruct(eng.borrow_taps(m, bits, taps))
        assert got.shape == (len(taps),) + shape
        for i, t in enumerate(taps):
            assert np.array_equal(got[i], _borrow_into(m, r, t)), (taps, t)


def test_borrow_taps_rounds_are_log_depth():
    eng = Mpc3Engine(seed=28)
    rng = np.random.default_rng(28)
    for taps, depth in (([0], 0), ([1], 0), ([2], 1), ([63], 6), ([64], 6),
                        ([6, 64], 6), (list(range(34)), 6), ([5], 3)):
        bits, _ = _shared_mask(eng, rng, (4,))
        m = rng.integers(0, 1 << 64, size=4, dtype=np.uint64)
        before = eng.transcript.rounds
        eng.borrow_taps(m, bits, taps)
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
    def run(m, bit_vals):
        eng = Mpc3Engine(seed=30, record_messages=True)
        bits = eng.share(bit_vals)
        for taps in ([63], [30, 64], list(range(39))):
            eng.borrow_taps(m, bits, taps)
        eng.trunc(eng.share(m), 26)
        return eng.transcript.records

    rng = np.random.default_rng(30)
    runs = [run(rng.integers(0, 1 << 64, size=(3, 5), dtype=np.uint64),
                rng.integers(0, 2, size=(64, 3, 5), dtype=np.uint64)) for _ in range(2)]
    assert runs[0] == runs[1]


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
