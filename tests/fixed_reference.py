"""Reference fixed-point product for tests: the full-width 128-bit signed
product, arithmetically right-shifted. The engines realize it as a
wrapped 64-bit product followed by a truncation whenever the true
product is representable."""

import numpy as np

from mpcsyn.fixed import F, as_word

MASK32 = np.uint64(0xFFFFFFFF)


def _mul_128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) words of the unsigned 128-bit product, via 32-bit limbs."""
    s32 = np.uint64(32)
    a_lo, a_hi = a & MASK32, a >> s32
    b_lo, b_hi = b & MASK32, b >> s32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    lo_hi = a_lo * b_hi
    cross = (lo_lo >> s32) + (hi_lo & MASK32) + lo_hi  # never overflows
    high = (hi_lo >> s32) + (cross >> s32) + a_hi * b_hi
    low = (cross << s32) | (lo_lo & MASK32)
    return high, low


def fx_mul_trunc(a, b, g: int = F) -> np.ndarray:
    """Full-width signed product of the words a and b >> g, mod 2^64.

    With g = F this is the fixed-point product: exact truncation semantics
    (floor of the real product scaled by 2^F) as long as the true product
    magnitude stays below 2^(63-F); beyond that the result wraps.
    """
    aw0, bw0 = as_word(a), as_word(b)
    shape = np.broadcast_shapes(aw0.shape, bw0.shape)
    # flat 1-d operands: every operator below is an array op, never the
    # numpy-scalar arithmetic a 0-d operand would decay into
    aw, bw = (np.ravel(w) for w in np.broadcast_arrays(aw0, bw0))
    high, low = _mul_128(aw, bw)
    # adjust the high word for two's-complement signs: A*B = a*b - 2^64*(s_a*b + s_b*a) (mod 2^128)
    sign_a = aw >> np.uint64(63)
    sign_b = bw >> np.uint64(63)
    high = high - sign_a * bw - sign_b * aw
    out = (high << np.uint64(64 - g)) | (low >> np.uint64(g))
    return np.asarray(out, dtype=np.uint64).reshape(shape)
