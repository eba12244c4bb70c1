"""Fixed-point arithmetic over the ring Z_{2^64}.

Reals are encoded as two's-complement words with F = 32 fractional bits:
a word w represents signed(w) / 2^F. All arithmetic wraps modulo 2^64;
nothing here ever traps on overflow. Values are numpy uint64 arrays or
numpy uint64 scalars: an operation on 0-d arrays returns a scalar. Ring
operations are therefore ufunc calls (``np.add``, ``np.subtract``,
``np.multiply``) or operators on arrays of at least one dimension, which
wrap silently on arrays and scalars alike; the ``+``, ``-`` and ``*``
operators on two numpy scalars would warn on overflow instead.

The representable range is |r| < 2^(63-F) = 2^31 with granularity 2^-F.
``fx_mul_trunc`` is the reference product semantics: the full-width
128-bit signed product arithmetically right-shifted by F. The protocol
layer realizes the same result as a wrapped 64-bit product followed by
``trunc_word`` whenever the true product is representable.
"""

from __future__ import annotations

import numpy as np


F = 32
MASK32 = np.uint64(0xFFFFFFFF)
HALF = 1 << 63  # sign threshold / truncation bias
FX_ONE = np.uint64(1) << np.uint64(F)
RANGE_LIMIT = float(1 << (63 - F))  # strict bound on |r|


def as_word(x) -> np.ndarray:
    """Coerce ints / int arrays to uint64 words (wrapping negatives)."""
    a = np.asarray(x)
    if a.dtype == np.uint64:
        return a
    if np.issubdtype(a.dtype, np.signedinteger):
        return a.astype(np.int64).astype(np.uint64)
    if a.dtype == object or np.issubdtype(a.dtype, np.integer):
        # python ints of either sign, reduced mod 2^64
        flat = [int(v) & 0xFFFFFFFFFFFFFFFF for v in np.ravel(a)]
        return np.array(flat, dtype=np.uint64).reshape(a.shape)
    raise TypeError(f"cannot interpret dtype {a.dtype} as ring words")


def encode(r) -> np.ndarray:
    """Encode reals onto the fixed-point grid, rounding half away from zero.

    Raises ValueError outside the representable range |r| < 2^(63-F).
    """
    x = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot encode non-finite value")
    if np.any(np.abs(x) >= RANGE_LIMIT):
        raise ValueError(f"value out of fixed-point range (|r| < {RANGE_LIMIT:g})")
    scaled = x * float(FX_ONE)  # exact: scaling by a power of two
    rounded = np.trunc(scaled + np.copysign(0.5, scaled))
    if np.any(np.abs(rounded) >= float(HALF)):
        raise ValueError("value rounds out of fixed-point range")
    return rounded.astype(np.int64).astype(np.uint64)


def decode(w) -> np.ndarray:
    """Decode words to reals; words >= 2^63 are negative (two's complement)."""
    a = as_word(w)
    signed = a.view(np.int64) if a.ndim else a.reshape(1).view(np.int64)[0]
    return np.asarray(signed, dtype=np.float64) / float(FX_ONE)


def trunc_word(w, g: int = F) -> np.ndarray:
    """Arithmetic right shift of a 64-bit word by g bits (sign-correct)."""
    if not 0 < g < 64:
        raise ValueError("shift amount out of range")
    a = as_word(w)
    shifted = (a.reshape(a.shape or (1,)).view(np.int64) >> np.int64(g)).astype(np.uint64)
    return shifted.reshape(a.shape)


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


def fx_mul_trunc(a, b) -> np.ndarray:
    """Fixed-point multiply: full-width signed product >> F, mod 2^64.

    Exact truncation semantics (floor of the real product scaled by 2^F)
    as long as the true product magnitude stays below 2^(63-F); beyond
    that the result wraps, documented and untrapped.
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
    out = (high << np.uint64(64 - F)) | (low >> np.uint64(F))
    return np.asarray(out, dtype=np.uint64).reshape(shape)
