"""Secure nonlinear primitives: equality, comparison, max, elementary functions.

Every construction here follows the masked-opening pattern: blind the
relevant value with fresh shared random bits, open the blinded word (it
is uniform, so the opening leaks nothing), then recover the predicate
from the public word and the shared mask bits. Equality ANDs the
mask bits against the opened ones; the sign bit of a comparison and the
most-significant-bit one-hot of ln and sqrt come from the engine's
packed borrow network (``Mpc3Engine.value_bits`` and ``msb_onehot``).
The message pattern of each primitive therefore depends only on shapes,
never on the data.

Elementary functions run on pre-shifted working scales with fewer
fractional bits than the global F = 32 so that intermediate 64-bit
products never wrap: EXP and SIN/COS use 30 fractional bits, LN 28,
SQRT 26. Inputs and outputs are ordinary F-bit values; the final upshift
back to F is an exact local power-of-two multiply. Polynomial
coefficients below are least-squares fits on Chebyshev nodes; the
fitting error is at most 3.4e-8 on each stated domain, far inside the
2^-10 end-to-end accuracy contract.

On a plaintext engine the same code runs with the bit extractions done
locally; all word-level results are bit-identical to the multi-party
execution because truncation, wrapping, and the shared randomness
streams coincide.
"""

from __future__ import annotations

import math

import numpy as np

from .fixed import F, FX_ONE, as_word, encode
from .rss import PlainVec, RangeContractError, U64, check_width

EXP_DOMAIN = (-16.0, 0.0)
LN_DOMAIN = (2.0**-F, 2.0)
SQRT_DOMAIN = (0.0, 64.0)
TRIG_DOMAIN = (0.0, 2.0 * math.pi)

# e^y on [-1, 0] (input pre-divided by 16, output raised to the 16th power)
_EXP_COEFS = [
    0.99999999998683964, 0.99999999785528659, 0.49999994237710865,
    0.16666606931701095, 0.041663554499005287, 0.0083241772091915238,
    0.0013729186851004036, 0.00018187769720753386, 1.514771460404101e-05,
]
# ln(3+u) on u in [-1, 1] (mantissa normalized to [2, 4))
_LN_COEFS = [
    1.0986122843529345, 0.33333308302933851, -0.055555342056720011,
    0.012348968954750938, -0.0030881011462034402, 0.00081147904726607337,
    -0.00022403659443679132, 8.0029911179825834e-05, -2.4029183441476754e-05,
]
# sin(pi*g/2) and cos(pi*g/2) on g in [0, 1] (quarter-period reduction)
_SIN_COEFS = [
    3.2280972601162373e-11, 1.5707963203923869, 2.0909744038296182e-07,
    -0.64596673854127551, 1.6866352730280901e-05, 0.079631180382951569,
    0.00013470301501648137, -0.0048605124413088818, 0.00013626000861306179,
    0.00011171173583936164,
]
_COS_COEFS = [
    0.99999999918238069, 1.310899371276264e-07, -1.2337039997968122,
    3.4799049380619497e-05, 0.25349485275934674, 0.00048673690045245092,
    -0.021642858777100746, 0.00069137765834154335, 0.00063896281864657726,
]
# linear seed a + b*m for 1/sqrt(m) on [64, 256]; 11% relative error,
# gone after the five Newton iterations below
_INVSQRT_INIT = (0.12962990740726268, -0.00028935293691835718)

_LN2 = int(encode(math.log(2.0)))


def _enc_at(c: float, frac_bits: int) -> np.uint64:
    """Encode a small public real at an arbitrary fractional scale."""
    raw = int(round(c * (1 << frac_bits)))
    return np.uint64(raw & 0xFFFFFFFFFFFFFFFF)


def _const_like(eng, x, c: float, frac_bits: int = F):
    return eng.const_vec(np.broadcast_to(_enc_at(c, frac_bits), x.shape).copy())


def _pub_bits(word: np.ndarray, positions) -> np.ndarray:
    """Bits of public words at ``positions``, stacked on a new leading axis."""
    pos = np.asarray(positions, dtype=U64).reshape((-1,) + (1,) * np.ndim(word))
    return (word >> pos) & np.uint64(1)


def _xor_pub(eng, b, m: np.ndarray):
    """b XOR m = m + (1 - 2m) b for shared bits b, public bits m (local)."""
    m = np.asarray(m, dtype=U64)
    return eng.add_const(eng.mul_const_int(b, np.uint64(1) - m - m), m)


def _and_reduce(eng, leaves):
    """AND over axis 0 of shared bits; n-1 bit-multiplications, log depth."""
    cur, length = leaves, leaves.shape[0]
    while length > 1:
        half = length // 2
        a = eng.index(cur, slice(0, 2 * half, 2))
        b = eng.index(cur, slice(1, 2 * half, 2))
        prod = eng._mul_raw(a, b)
        if length % 2:
            prod = eng.concat([prod, eng.index(cur, slice(2 * half, length))], axis=0)
        cur, length = prod, (length + 1) // 2
    return eng.index(cur, 0)


def sec_eq(eng, x, other, nbits: int = 64):
    """Share of [x == other]; ``other`` is a public integer array or a share.

    Width contract: the signed difference d = x - other satisfies
    |d| < 2^nbits, so d == 0 iff its low ``nbits`` bits are zero (bounded
    equality, Catrina-de Hoogh). The default of 64 holds for any words.
    The masked difference is opened with a width-``nbits`` mask and its
    low bits are compared with the mask's shared bits. Cost per element:
    ``nbits`` mask bits, one opened word and nbits - 1 ANDs in a tree of
    depth ceil(log2 nbits), so 3 + ceil(log2 nbits) rounds. The plaintext
    engine raises ``RangeContractError`` when the contract is broken.
    """
    check_width(nbits)
    if isinstance(other, (int, np.integer, np.ndarray)):
        d = eng.sub_const(x, as_word(np.broadcast_to(np.asarray(other), x.shape)))
    else:
        d = eng.sub(x, other)
    eng.count("eq", d.size)
    if eng.is_plain:
        if nbits < 64 and np.any(_outside_width(d.raw, nbits)):
            raise RangeContractError(f"sec_eq: a difference has |d| >= 2^{nbits}")
        return PlainVec((d.raw == 0).astype(U64))
    m, mask = eng.masked_open(d, nbits)
    # d == 0 iff the opened low bits equal the mask bits, all nbits pairs
    return _and_reduce(eng, _xor_pub(eng, mask.bits, np.uint64(1) - _pub_bits(m, range(nbits))))


def _outside_width(d: np.ndarray, nbits: int) -> np.ndarray:
    """[|d| >= 2^nbits] for signed words d, nbits < 64: d lies in
    (-2^nbits, 2^nbits) iff d + 2^nbits - 1 (mod 2^64) < 2^(nbits+1) - 1."""
    return np.add(d, np.uint64((1 << nbits) - 1)) >= np.uint64((2 << nbits) - 1)


def sec_cmp(eng, x, y, mode: str):
    """Signed fixed-point comparison; returns a shared 0/1 indicator.

    Range contract: |decode| < 2^(62-F) on both sides so x - y cannot
    wrap; the plaintext engine raises ``RangeContractError`` when it is
    broken. LT/GT/GTE all cost one comparison (counted under "gt").
    """
    if eng.is_plain and (_outside_width(x.raw, 62).any()
                         or _outside_width(y.raw, 62).any()):
        raise RangeContractError(
            f"sec_cmp: an input has magnitude >= 2^{62 - F}")
    if mode == "LT":
        d = eng.sub(x, y)
    elif mode == "GT":
        d = eng.sub(y, x)
    elif mode == "GTE":
        d = eng.sub(x, y)
    else:
        raise ValueError(f"unknown comparison mode {mode!r}")
    eng.count("gt", d.size)
    sign = eng.index(_value_bits(eng, d, (63,)), 0)  # signed d < 0
    if mode == "GTE":
        return eng.sub(eng.const_vec(np.broadcast_to(np.uint64(1), sign.shape).copy()), sign)
    return sign


def sec_max(eng, xs):
    """Share of max over axis 0 by tournament; exactly len-1 comparisons."""
    length = xs.shape[0]
    if length == 0:
        raise ValueError("sec_max of empty vector")
    cur = xs
    while length > 1:
        half = length // 2
        a = eng.index(cur, slice(0, 2 * half, 2))
        b = eng.index(cur, slice(1, 2 * half, 2))
        gt = sec_cmp(eng, a, b, "GT")
        best = eng.add(b, eng._mul_raw(gt, eng.sub(a, b)))
        if length % 2:
            best = eng.concat([best, eng.index(cur, slice(2 * half, length))], axis=0)
        cur, length = best, (length + 1) // 2
    return eng.index(cur, 0)


def _clamp(eng, x, lo: float, hi: float):
    """Replace out-of-domain values by the nearest endpoint (two comparisons)."""
    lo_c = _const_like(eng, x, lo)
    hi_c = _const_like(eng, x, hi)
    below = sec_cmp(eng, x, lo_c, "LT")
    x = eng.add(x, eng._mul_raw(below, eng.sub(lo_c, x)))
    above = sec_cmp(eng, x, hi_c, "GT")
    return eng.add(x, eng._mul_raw(above, eng.sub(hi_c, x)))


def _horner(eng, x, coeffs, frac_bits: int):
    """Polynomial evaluation at a working scale; one mul+trunc per degree."""
    acc = _const_like(eng, x, coeffs[-1], frac_bits)
    for c in coeffs[-2::-1]:
        acc = eng.trunc(eng._mul_raw(acc, x), frac_bits)
        acc = eng.add_const(acc, _enc_at(c, frac_bits))
    return acc


def _value_bits(eng, x, positions):
    """Shared bits of the word x at bit ``positions``, stacked on a new
    leading axis in that order; exact for any word."""
    positions = tuple(positions)
    if eng.is_plain:
        return PlainVec(_pub_bits(x.raw, positions))
    return eng.value_bits(x, positions)


def _msb_onehot(eng, x, nbits: int):
    """One-hot of the most significant set bit among positions 0..nbits-1.

    Contract: the bits of x at nbits and above are zero. All-zero input
    yields the all-zero vector (callers exploit this for the x = 0 edge
    case). The plaintext engine computes it directly: the suffix ORs
    s_j = OR of bits j..nbits-1 by shifted ORs, then s ^ (s >> 1); the
    protocol runs the same scan on packed shares (``msb_onehot``).
    """
    if eng.is_plain:
        s = x.raw & np.uint64((1 << nbits) - 1)
        for k in range(6):
            s = s | (s >> np.uint64(1 << k))
        return PlainVec(_pub_bits(s ^ (s >> np.uint64(1)), range(nbits)))
    return eng.msb_onehot(x, nbits)


def sec_exp(eng, x):
    """e^x for x in [-16, 0], clamped outside; error well under 2^-10.

    Range reduction: evaluate e^(x/16) by polynomial at scale 2^-30,
    then square four times. All intermediates stay in [e^-1, 1], so the
    30-bit working scale leaves 3 integer bits of headroom.
    """
    x = _clamp(eng, x, *EXP_DOMAIN)
    y = eng.trunc(x, 6)  # x/16 at 30 fractional bits
    h = _horner(eng, y, _EXP_COEFS, 30)
    for _ in range(4):
        h = eng.trunc(eng._mul_raw(h, h), 30)
    return eng.mul_const_int(h, 1 << (F - 30))


def sec_ln(eng, x):
    """ln(x) for x in [2^-32, 2], clamped outside.

    The most significant bit of the raw word locates x within a binade;
    multiplying by the shared power-of-two factor normalizes the
    mantissa into [2, 4), where a degree-8 fit of ln(3+u) applies. The
    binade index re-enters through an exact integer-times-public-constant
    term p * ln 2.
    """
    x = _clamp(eng, x, *LN_DOMAIN)
    onehot = _msb_onehot(eng, x, 34)  # raw in [1, 2^33]
    factor = eng.bit_sum(onehot, [1 << (33 - j) for j in range(34)])
    m = eng._mul_raw(x, factor)  # mantissa in [2, 4) at full scale
    u = eng.trunc(eng.sub_const(m, encode(3.0)), F - 28)
    lnm = _horner(eng, u, _LN_COEFS, 28)
    p = eng.bit_sum(onehot, list(range(34)))
    out = eng.mul_const_int(lnm, 1 << (F - 28))
    # exact local term (p - 33) * ln 2: integer share times public word
    return eng.add(out, eng.mul_const_int(eng.add_const(p, as_word(-33)), _LN2))


def sec_sqrt(eng, x):
    """sqrt(x) for x in [0, 64], clamped above; sqrt(0) = 0 exactly.

    Normalizes into [64, 256) by a shared power-of-four factor, runs
    five Newton iterations for the inverse square root at scale 2^-26,
    multiplies back, and undoes the normalization with the exact shared
    power of two 2^-s.
    """
    x = _clamp(eng, x, *SQRT_DOMAIN)
    onehot = _msb_onehot(eng, x, 39)  # raw in [0, 2^38]
    shifts = [(39 - p) // 2 for p in range(39)]  # x * 4^s lands in [64, 256)
    scale_up = eng.bit_sum(onehot, [1 << (2 * s) for s in shifts])
    m = eng._mul_raw(x, scale_up)
    m26 = eng.trunc(m, F - 26)
    a, b = _INVSQRT_INIT
    z = eng.add_const(
        eng.trunc(eng.mul_const_int(m26, int(round(b * (1 << 26)))), 26),
        _enc_at(a, 26),
    )
    three = _enc_at(3.0, 26)
    for _ in range(5):
        w = eng.trunc(eng._mul_raw(m26, z), 26)
        w = eng.trunc(eng._mul_raw(w, z), 26)
        t = eng.add_const(eng.neg(w), three)
        z = eng.trunc(eng._mul_raw(z, t), 27)  # z*(3 - m*z^2)/2
    root = eng.trunc(eng._mul_raw(m26, z), 26)  # sqrt(m) = m * invsqrt(m)
    scale_down = eng.bit_sum(onehot, [1 << (26 - s) for s in shifts])
    out = eng.trunc(eng._mul_raw(root, scale_down), 26)
    return eng.mul_const_int(out, 1 << (F - 26))


def sec_sin_cos(eng, x):
    """(sin x, cos x) for x in [0, 2pi], clamped outside.

    Quarter-period reduction: y = x * 2/pi splits into quadrant k and
    offset g in [0, 1); quarter-wave polynomials recombine by the shared
    quadrant one-hot (k = 4 only arises from the clamp boundary and
    behaves as k = 0). Since k lies in [0, 4], each of its differences
    with 0..4 has |d| <= 4, so the one-hot's equality tests run at 3
    bits; the plaintext engine raises ``RangeContractError`` if k ever
    leaves [0, 4].
    """
    x = _clamp(eng, x, *TRIG_DOMAIN)
    y = eng.scale_pub(x, 2.0 / math.pi)  # in [0, 4]
    k = eng.trunc(y, F)  # integer quadrant share
    if eng.is_plain and np.any(k.raw > np.uint64(4)):
        raise RangeContractError("sec_sin_cos: a quadrant lies outside [0, 4]")
    g = eng.sub(y, eng.mul_const_int(k, FX_ONE))
    g30 = eng.trunc(g, 2)
    ks = eng.stack([k] * 5, axis=0)
    consts = as_word(np.arange(5).reshape((5,) + (1,) * len(x.shape)))
    onehot = sec_eq(eng, ks, np.broadcast_to(consts, (5,) + x.shape), nbits=3)
    oh = [eng.index(onehot, j) for j in range(5)]
    sinp = eng.mul_const_int(_horner(eng, g30, _SIN_COEFS, 30), 1 << (F - 30))
    cosp = eng.mul_const_int(_horner(eng, g30, _COS_COEFS, 30), 1 << (F - 30))
    s_sel = eng.sub(eng.add(oh[0], oh[4]), oh[2])  # quadrant signs for sin
    c_cross = eng.sub(oh[1], oh[3])
    sin = eng.add(eng._mul_raw(sinp, s_sel), eng._mul_raw(cosp, c_cross))
    cos = eng.sub(eng._mul_raw(cosp, s_sel), eng._mul_raw(sinp, c_cross))
    return sin, cos


def sec_softmax_unnorm(eng, errs):
    """Elementwise e^err for max-subtracted scores (all entries <= 0).

    Unnormalized on purpose: the resampling threshold downstream is
    scale-invariant, so dividing by the sum would only cost a secure
    division without changing the sampled index distribution.
    """
    return sec_exp(eng, errs)
