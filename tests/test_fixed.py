"""Fixed-point ring arithmetic: encode/decode, wrapping, truncated products."""

import numpy as np
import pytest

from fixed_reference import fx_mul_trunc
from mpcsyn import fixed


def test_encode_pinned_values():
    assert int(fixed.encode(0.0)) == 0
    assert int(fixed.encode(1.0)) == 1 << 32
    assert int(fixed.encode(-1.5)) == (1 << 64) - 3 * (1 << 31)


def test_decode_pinned_values():
    assert fixed.decode(np.uint64(1 << 32)) == 1.0
    assert fixed.decode(np.uint64(0)) == 0.0
    assert fixed.decode(np.uint64((1 << 64) - (1 << 31))) == -0.5


def test_round_trip_exact_on_grid():
    rng = np.random.default_rng(101)
    k = rng.integers(-(1 << 40), 1 << 40, size=2000)
    r = k.astype(np.float64) * 2.0**-32
    assert np.array_equal(fixed.decode(fixed.encode(r)), r)


def test_round_trip_within_granularity():
    rng = np.random.default_rng(102)
    r = rng.uniform(-(2.0**30), 2.0**30, size=2000)
    back = fixed.decode(fixed.encode(r))
    assert np.max(np.abs(back - r)) <= 2.0**-33 * np.maximum(1.0, np.abs(r)).max()


def test_encode_rounds_half_away_from_zero():
    # exactly-half ulp cases
    assert int(fixed.encode(2.0**-33)) == 1
    assert int(fixed.encode(-(2.0**-33))) == (1 << 64) - 1
    assert int(fixed.encode(1.5 * 2.0**-32)) == 2
    assert int(fixed.encode(-1.5 * 2.0**-32)) == (1 << 64) - 2


def test_encode_range_error():
    with pytest.raises(ValueError):
        fixed.encode(float(1 << 31))
    with pytest.raises(ValueError):
        fixed.encode(-float(1 << 31) - 1.0)
    with pytest.raises(ValueError):
        fixed.encode(float("nan"))


def test_addition_is_ring_addition():
    rng = np.random.default_rng(103)
    a = rng.uniform(-(2.0**29), 2.0**29, size=500)
    b = rng.uniform(-(2.0**29), 2.0**29, size=500)
    s = fixed.decode(fixed.encode(a) + fixed.encode(b))
    assert np.max(np.abs(s - (a + b))) <= 2.0**-31


def test_fx_mul_trunc_pinned_examples():
    assert fixed.decode(fx_mul_trunc(fixed.encode(2.0), fixed.encode(3.0))) == 6.0
    assert int(fx_mul_trunc(fixed.encode(123.456), fixed.encode(0.0))) == 0
    got = fixed.decode(fx_mul_trunc(fixed.encode(0.1), fixed.encode(0.2)))
    assert abs(got - 0.02) <= 2.0**-31


def test_fx_mul_trunc_error_bound_property():
    rng = np.random.default_rng(104)
    for _ in range(20):
        a = rng.uniform(-1000.0, 1000.0, size=500)
        b = rng.uniform(-1000.0, 1000.0, size=500)
        got = fixed.decode(fx_mul_trunc(fixed.encode(a), fixed.encode(b)))
        ea, eb = fixed.decode(fixed.encode(a)), fixed.decode(fixed.encode(b))
        assert np.max(np.abs(got - ea * eb)) <= 2.0**-31


def test_fx_mul_trunc_signs_and_negatives():
    cases = [(-2.5, 4.0), (2.5, -4.0), (-2.5, -4.0), (-0.001, 0.003), (7.25, -0.125)]
    for a, b in cases:
        got = fixed.decode(fx_mul_trunc(fixed.encode(a), fixed.encode(b)))
        assert abs(got - a * b) <= 2.0**-31, (a, b, got)


def test_fx_mul_trunc_matches_integer_shift_oracle():
    # exhaustive cross-check against arbitrary-precision python ints
    rng = np.random.default_rng(105)
    words_a = rng.integers(0, 1 << 64, size=300, dtype=np.uint64)
    words_b = rng.integers(0, 1 << 64, size=300, dtype=np.uint64)
    got = fx_mul_trunc(words_a, words_b)
    for wa, wb, g in zip(words_a.tolist(), words_b.tolist(), got.tolist()):
        sa = wa - (1 << 64) if wa >= 1 << 63 else wa
        sb = wb - (1 << 64) if wb >= 1 << 63 else wb
        want = ((sa * sb) >> 32) % (1 << 64)
        assert g == want


def test_trunc_word_is_arithmetic_shift():
    rng = np.random.default_rng(106)
    words = rng.integers(0, 1 << 64, size=1000, dtype=np.uint64)
    for g in (1, 16, 32, 48, 63):
        got = fixed.trunc_word(words, g)
        for w, y in zip(words.tolist(), got.tolist()):
            s = w - (1 << 64) if w >= 1 << 63 else w
            assert y == (s >> g) % (1 << 64)


def test_trunc_word_rejects_bad_shift():
    with pytest.raises(ValueError):
        fixed.trunc_word(np.uint64(1), 0)
    with pytest.raises(ValueError):
        fixed.trunc_word(np.uint64(1), 64)
