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
"""

from __future__ import annotations

import numpy as np


F = 32
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
