"""Differentially private randomizers executed inside the share arithmetic.

Noise is generated jointly from the shared randomness streams, so no
party ever sees a noise value or an unperturbed aggregate: the weighted
selection protocol consumes shared uniforms for its threshold, and the
measurement step adds shared noise (``draw_noise``) to shared counts
before revealing the perturbed vector to party 1 alone.

All samplers draw from the engine's noise-purpose streams, which the
plaintext backend consumes identically; with a fixed seed both backends
produce bit-identical noise words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixed import FX_ONE, decode
from .marginals import Query
from .primitives import sec_cmp, sec_eq, sec_ln, sec_sin_cos, sec_sqrt
from .rss import DegenerateInputError

NOISE_KINDS = (
    "gaussian-irwin-hall",
    "gaussian-box-muller",
    "laplace-sign",
    "laplace-inverse-cdf",
)

# largest |unit sample| each sampler can return: Box-Muller and both
# Laplace constructions clamp their log input at 2^-32, Irwin-Hall sums
# twelve uniforms minus 6
NOISE_TAIL = {
    "gaussian-irwin-hall": 6.0,
    "gaussian-box-muller": math.sqrt(64.0 * math.log(2.0)),
    "laplace-sign": 32.0 * math.log(2.0),
    "laplace-inverse-cdf": 32.0 * math.log(2.0),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family plus public scale (sigma for Gaussian, b for Laplace).

    Scale zero is allowed (exact measurement); the samplers still run so
    that randomness-stream consumption does not depend on the scale.
    """

    kind: str
    scale: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not self.scale >= 0.0:
            raise ValueError("noise scale must be nonnegative")


@dataclass(frozen=True)
class NoisyMeasurement:
    query: Query
    values: np.ndarray  # decoded reals, length = flat size of the query
    noise: NoiseSpec
    round_index: int

    def to_json(self) -> dict:
        return {
            "query": list(self.query.attrs),
            "round": self.round_index,
            "noise_kind": self.noise.kind,
            "scale": self.noise.scale,
            "values": [float(v) for v in self.values],
        }


def pi_rc(eng, weights):
    """Shared 1-based index drawn proportionally to shared weights.

    Weights must reconstruct to values in [0, 1] (softmax outputs). They
    are first scaled down by a public power of two so the cumulative sum
    stays below 1/2 and the threshold product cannot wrap; the sampled
    distribution is invariant to that common scaling. The only opened
    value is the one-bit "all weights zero" degeneracy check. The scan
    runs over the full vector regardless of where the threshold falls,
    so the message pattern reveals nothing about the outcome.
    """
    q_len = weights.shape[0]
    if q_len == 0:
        raise DegenerateInputError("empty weight vector")
    with eng.scope("pi_rc"):
        guard = max(1, (q_len - 1).bit_length()) + 1  # sum of scaled weights <= 1/2
        scaled = eng.trunc(weights, guard)
        cum = eng.cumsum_axis(scaled, axis=0)
        total = eng.index(cum, q_len - 1)
        degenerate = eng.open(sec_eq(eng, total, 0))
        if int(degenerate) == 1:
            raise DegenerateInputError("all selection weights are zero")
        r = eng.rand_uniform01(())
        t = eng.trunc(eng.mul(total, r))
        above = sec_cmp(eng, cum, eng.broadcast_to(t, cum.shape), "GT")
        k = eng.sum_axis(above, axis=0)
        # t = trunc(total * r) < total for r < 1, so the last prefix sum
        # is always above t: k >= 1, and s = |Q| + 1 - k lies in [1, |Q|]
        return eng.add_const(eng.neg(k), np.uint64(q_len + 1))


def gaussian_irwin_hall(eng, length: int):
    """Shared unit Gaussian approximation: sum of 12 uniforms minus 6.

    Exact mean 0 and variance 1, support [-6, 6]; costs 12 uniform draws
    (12 * 32 shared bits) per coordinate and no interaction beyond them.
    """
    with eng.scope("noise_ih"):
        u = eng.rand_uniform01((12, length))
        return eng.sub_const(eng.sum_axis(u, axis=0), np.asarray(6 * int(FX_ONE)))


def gaussian_box_muller(eng, length: int):
    """Shared unit Gaussian via Box-Muller on shared uniforms.

    Each uniform pair yields two coordinates; odd lengths keep the first
    of a final pair. The log argument is clamped at 2^-32 by the LN
    domain rule, truncating the tail at sqrt(64 ln 2) = 6.66 sigma.
    """
    pairs = (length + 1) // 2
    with eng.scope("noise_bm"):
        u = eng.rand_uniform01(pairs)
        v = eng.rand_uniform01(pairs)
        radius = sec_sqrt(eng, eng.mul_const_int(sec_ln(eng, u), -2))
        theta = eng.scale_pub(v, 2.0 * math.pi)
        sin_t, cos_t = sec_sin_cos(eng, theta)
        # products up to 6.66 in magnitude: multiply at 30 fractional bits
        r30 = eng.trunc(radius, 2)
        z0 = eng.trunc(eng._mul_raw(r30, eng.trunc(cos_t, 2)), 28)
        z1 = eng.trunc(eng._mul_raw(r30, eng.trunc(sin_t, 2)), 28)
        both = eng.reshape(eng.stack([z0, z1], axis=1), (2 * pairs,))
        return eng.index(both, slice(0, length))


def laplace_noise(eng, length: int, variant: str = "sign"):
    """Shared unit Laplace noise (b = 1), two constructions.

    sign: gamma = (2B - 1) * ln(U) for a shared fair bit B — a random
    sign on an Exp(1) magnitude. inverse-cdf: gamma = -sgn(u) *
    ln(1 - 2|u|) for u uniform on (-1/2, 1/2). Both clamp the log input
    at 2^-32, truncating the tail at 32 ln 2.
    """
    with eng.scope("noise_lap"):
        if variant == "sign":
            mag = sec_ln(eng, eng.rand_uniform01(length))
            sign = eng.add_const(
                eng.mul_const_int(eng.rand_bit(length), 2), np.asarray(-1)
            )
            return eng.mul(sign, mag)
        if variant == "inverse-cdf":
            u = eng.sub_const(eng.rand_uniform01(length), FX_ONE >> np.uint64(1))
            neg = sec_cmp(eng, u, eng.zeros(length), "LT")
            sgn = eng.add_const(eng.mul_const_int(neg, -2), np.asarray(1))
            absu = eng.mul(sgn, u)
            inner = eng.add_const(eng.mul_const_int(absu, -2), FX_ONE)
            return eng.mul(eng.neg(sgn), sec_ln(eng, inner))
        raise ValueError(f"unknown laplace variant {variant!r}")


def sample_noise(eng, kind: str, length: int):
    if kind == "gaussian-irwin-hall":
        return gaussian_irwin_hall(eng, length)
    if kind == "gaussian-box-muller":
        return gaussian_box_muller(eng, length)
    if kind == "laplace-sign":
        return laplace_noise(eng, length, "sign")
    if kind == "laplace-inverse-cdf":
        return laplace_noise(eng, length, "inverse-cdf")
    raise ValueError(f"unknown noise kind {kind!r}")


def draw_noise(eng, noise: NoiseSpec, length: int):
    """Shared noise of ``noise``'s kind and scale: ``length`` unit samples
    scaled by the public scale, in one place for every noise kind.

    Nothing here depends on data, so a run draws all of its rounds' noise
    in one call ahead of the rounds (``run_pipeline``). Recorded under the
    ``pi_measure`` scope that consumes it.
    """
    with eng.scope("pi_measure"):
        return eng.scale_pub(sample_noise(eng, noise.kind, length),
                             noise.scale)


def pi_measure(eng, shared_counts, noise_share, query: Query,
               noise: NoiseSpec, round_index: int) -> NoisyMeasurement:
    """Perturb a shared count vector and reveal it to party 1 only.

    Counts are integer shares; the fixed-point lift is a local
    power-of-two multiply. ``noise_share`` is already scaled shared noise
    of the counts' length (from ``draw_noise``); it is added and the sum
    opened, one opening and no other interaction.
    """
    length = shared_counts.shape[0]
    if noise_share.shape != (length,):
        raise ValueError(f"noise share of shape {noise_share.shape} for "
                         f"{length} counts")
    with eng.scope("pi_measure"):
        mu = eng.mul_const_int(shared_counts, FX_ONE)
        revealed = eng.open(eng.add(mu, noise_share), to=0)
    return NoisyMeasurement(query, decode(revealed), noise, round_index)
