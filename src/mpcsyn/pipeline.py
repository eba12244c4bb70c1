"""Select-measure-generate synthesis driven by the shared-count engine.

Each round scores every workload query by the L1 gap between its shared
true marginal and the public marginal of the current model, picks one
query with the exponential mechanism (shared weighted selection), then
measures it with calibrated noise. The noise depends only on public
values (noise kind, scale, rounds, query sizes), so it is drawn offline:
one batch for all rounds ahead of the first, from which each round
takes its own slice; unused samples are discarded, never opened. Only
the noisy measurement crosses into the generate step: the model update
and the final sampling operate exclusively on NoisyMeasurement values
and the public model state, so the synthesis side never touches shares
or raw rows.

Budget bookkeeping is exact rational arithmetic: the per-round select
and measure shares are Fractions that sum back to the configured total.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fixed import F, FX_ONE, RANGE_LIMIT, as_word, encode
from .marginals import (
    Dataset,
    PartitionPlan,
    Query,
    Schema,
    Workload,
    compute_workload_answers,
)
from .mechanisms import (
    NOISE_KINDS,
    NOISE_TAIL,
    NoiseSpec,
    NoisyMeasurement,
    draw_noise,
    pi_measure,
    pi_rc,
)
from .primitives import EXP_DOMAIN, sec_cmp, sec_max, sec_softmax_unnorm
from .rss import PURPOSE_SAMPLE, SCALE_PUB_LIMIT, make_engine

MAX_JOINT_CELLS = 1_000_000
# numpy's ufunc buffer, in elements, while the model update runs: numpy
# copies each loop shorter than its buffer (8,192 by default) through it
_UPDATE_BUFSIZE = 1 << 11
# shortest inner loop, in cells, a model-update multiply is left to run
_MIN_RUN = _UPDATE_BUFSIZE

_GAUSSIAN_KINDS = ("gaussian-irwin-hall", "gaussian-box-muller")
# selection's exponent scale c * 2^k stays below this (_score_scaling)
_EXPONENT_SCALE_LIMIT = 2.0**62


def _is_gaussian(noise_kind: str) -> bool:
    """Whether a noise kind is Gaussian; ``ValueError`` for an unknown kind."""
    if noise_kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    return noise_kind in _GAUSSIAN_KINDS


@dataclass(frozen=True)
class PrivacyBudget:
    """Total (epsilon, delta) over a fixed number of rounds.

    The budget splits evenly: each round spends epsilon_total/(2T) on
    selection and the same on measurement. The Gaussian scale uses the
    classical bound sigma = sqrt(2 ln(1.25/delta)) * D2 / eps_measure
    with per-query L2 sensitivity D2 = 1, which holds only for
    eps_measure < 1 (Dwork-Roth, Thm A.1); each Gaussian round spends
    delta, so T rounds spend T * delta under basic composition. Laplace
    uses b = 1/eps_measure and spends no delta.
    """

    epsilon_total: Fraction
    delta: Fraction
    rounds: int

    def __post_init__(self):
        for name in ("epsilon_total", "delta"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, Fraction(value))
            except (OverflowError, ValueError):
                raise ValueError(f"{name} must be finite, got {value}") from None
        if self.epsilon_total <= 0:
            raise ValueError("epsilon_total must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        try:  # any integer type, numpy's too; a bool is not a count
            rounds = None if isinstance(self.rounds, bool) \
                else operator.index(self.rounds)
        except TypeError:
            rounds = None
        if rounds is None or rounds < 1:
            raise ValueError(
                f"rounds must be a positive integer, got {self.rounds!r}")
        object.__setattr__(self, "rounds", rounds)

    @property
    def epsilon_select(self) -> Fraction:
        return self.epsilon_total / (2 * self.rounds)

    @property
    def epsilon_measure(self) -> Fraction:
        return self.epsilon_total / (2 * self.rounds)

    def measure_scale(self, noise_kind: str) -> float:
        """Noise scale of one measurement; raises ``ValueError`` for a
        Gaussian kind at eps_measure >= 1, outside its bound's validity,
        and for an eps_measure that rounds to the float 0.0."""
        eps = float(self.epsilon_measure)
        if eps == 0.0:
            raise ValueError("epsilon_measure = epsilon_total / (2 * rounds) = "
                             f"{float(self.epsilon_total):.6g} / {2 * self.rounds} "
                             "rounds to 0.0 as a float")
        if _is_gaussian(noise_kind):
            if self.epsilon_measure >= 1:
                raise ValueError(
                    f"{noise_kind} noise needs epsilon_measure < 1, got "
                    f"{self.epsilon_measure} (epsilon_total / (2 * rounds))")
            return math.sqrt(2.0 * math.log(1.25 / float(self.delta))) / eps
        return 1.0 / eps

    def ledger(self) -> list[dict]:
        return [
            {
                "round": r,
                "epsilon_select": self.epsilon_select,
                "epsilon_measure": self.epsilon_measure,
            }
            for r in range(self.rounds)
        ]

    def ledger_json(self, noise_kind: str) -> dict:
        spent = [
            {
                "round": e["round"],
                "epsilon_select": str(e["epsilon_select"]),
                "epsilon_measure": str(e["epsilon_measure"]),
            }
            for e in self.ledger()
        ]
        return {
            "epsilon_total": str(self.epsilon_total),
            "delta": str(self.delta),
            "rounds": self.rounds,
            "per_round": spent,
            "delta_spent": str(self.rounds * self.delta
                               if _is_gaussian(noise_kind) else 0),
        }


@functools.lru_cache(maxsize=None)
def _reduction_plan(ndim: int, attrs: tuple) -> tuple:
    """How a table over all ``ndim`` attributes reduces to the sorted
    ``attrs``: the axes summed, in order, and the attributes left after
    each sum.

    This is the one reduction order: the lowest missing attribute goes
    first, so the table over S is the table over S + {a}, a the largest
    attribute outside S, summed over a's axis. Queries that agree below
    their first missing attribute thus share every sum down from the
    full table, and a marginal has the same floats whichever table, memo
    or pass (``_mul_reduce``) computes it.
    """
    missing = [a for a in range(ndim) if a not in attrs]
    axes = tuple(a - j for j, a in enumerate(missing))
    keys = tuple(tuple(sorted(attrs + tuple(missing[j + 1:])))
                 for j in range(len(missing)))
    return axes, keys


def _partial_sum(full: np.ndarray, attrs: tuple, memo: dict) -> np.ndarray:
    """Table over the sorted ``attrs`` of the full table ``full``, reduced
    in ``_reduction_plan``'s order.

    The walk starts from the smallest table on the way that ``memo``
    holds (``full`` itself if none), and every table it sums is kept
    read-only in ``memo``: a round's 1- and 2-way queries make a few
    full-table passes instead of one each.
    """
    axes, keys = _reduction_plan(full.ndim, attrs)
    table, start = full, 0
    for j in range(len(keys) - 1, -1, -1):
        hit = memo.get(keys[j])
        if hit is not None:
            table, start = hit, j + 1
            break
    for axis, key in zip(axes[start:], keys[start:]):
        table = np.asarray(table.sum(axis=axis))
        table.flags.writeable = False  # cached: shared by every caller
        memo[key] = table
    return table


@dataclass(frozen=True)
class JointDistribution:
    """Explicit joint model over the full attribute domain (party 1 state).

    Marginals are memoized per instance (each round's ``mw_update`` builds
    one new instance), so ``probs`` is a read-only view; it is not a copy
    of the caller's array, which must not be written afterwards either.
    Every marginal is reduced in the one order of ``_reduction_plan``, the
    order ``mw_update``'s passes reduce the working table in, so the two
    give the same floats.
    """

    probs: np.ndarray
    schema: Schema
    # sorted attribute tuple -> read-only table over those attributes
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64).ravel()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        size = self.schema.domain_size
        if size > MAX_JOINT_CELLS:
            raise ValueError(
                f"joint domain has {size} cells, above the {MAX_JOINT_CELLS} cap"
            )
        if probs.shape != (size,):
            raise ValueError("probability vector does not match the domain")
        # written so that NaN fails: every comparison with NaN is False
        if not (probs.min() >= 0 and abs(float(probs.sum()) - 1.0) <= 1e-9):
            raise ValueError("probabilities must be nonnegative and sum to 1")

    @classmethod
    def uniform(cls, schema: Schema) -> "JointDistribution":
        size = schema.domain_size
        return cls(np.full(size, 1.0 / size), schema)

    def _table(self, attrs: tuple) -> np.ndarray:
        """Read-only table over the sorted ``attrs``, axes in attribute
        order, from the instance's memo (see ``_partial_sum``)."""
        return _partial_sum(self.probs.reshape(self.schema.cardinalities),
                            attrs, self._memo)

    def marginal(self, query: Query) -> np.ndarray:
        """Model marginal on the query attrs, row-major, as probabilities.

        Served from the instance's memo of partial sums (see ``_table``),
        so the result is read-only; the full-domain marginal is a copy,
        never a view of ``probs``.
        """
        out = self._table(query.attrs).ravel()
        return out.copy() if len(query.attrs) == self.schema.dims else out


@dataclass(frozen=True)
class SelectScoreParams:
    """Scoring configuration for one selection round."""

    algo: str  # "AIM" or "MWEM"
    epsilon_select: float
    bias: tuple = ()  # per-query expected noise mass, AIM only

    def __post_init__(self):
        if self.algo not in ("AIM", "MWEM"):
            raise ValueError(f"unknown selection algorithm {self.algo!r}")
        if not (math.isfinite(self.epsilon_select) and self.epsilon_select > 0):
            raise ValueError("epsilon_select must be finite and positive, "
                             f"got {self.epsilon_select!r}")
        if not all(0 <= b < math.inf for b in self.bias):
            raise ValueError("AIM bias terms must be finite and nonnegative, "
                             f"got {self.bias!r}")


def expected_noise_l1(noise_kind: str, scale: float, cells: int) -> float:
    """Expected L1 mass the measurement noise adds to a marginal."""
    per_cell = scale * math.sqrt(2.0 / math.pi) \
        if _is_gaussian(noise_kind) else scale
    return per_cell * cells


def _score_scaling(n: int, params: SelectScoreParams, workload: Workload):
    """Selection's public score scaling on n rows: (k, c * 2^k, per-query
    weights or None, floor word or None).

    AIM weights each query by its workload weight; MWEM is AIM with unit
    weights and no bias, and this is the one place the two differ. The
    score's sensitivity is the largest weight, so the exponent scale c is
    epsilon_select / (2 max w); all-zero weights raise ``ValueError``.
    Uniform weights fold into c, where they commute with the
    max-subtract, and the weights come back as ``None``.

    Counts and model answers each sum to n, so a query's L1 lies in
    [0, 2n + 1]: one count of slack covers the model's normalization
    tolerance and the fixed-point rounding of its answers. With uniform
    weights the max-shifted scores L1 - b_q are within
    2n + 1 + (max bias - min bias) of 0. Non-uniform weights w_q scale
    each L1 - b_q in [-b_q, 2n + 1 - b_q], so the weighted scores, their
    products and their max-shifted span are all within
    max(1, max w) * (2n + 1 + max bias). That bound covers every value
    scale_pub sees before the scores are shifted right by k bits, the
    smallest k >= 0 with the bound below 2^(15 + k); the exponent scale
    then grows to c * 2^k.

    Where the bound times c reaches 2^15, the max-shifted scores are
    floored (``_score_floor``) at -ceil((16 + 2^-10) 2^F / (c 2^k)) raw,
    which is -1 once c * 2^k >= 2^36 + 2^22. scale_pub multiplies by an integer scale
    exactly and unchecked, so a one-ulp floor scales to the raw word
    -c * 2^k, which sec_exp's clamp compares: inside sec_cmp's
    |x| < 2^(62-F), a raw 2^62, iff c * 2^k < 2^62. A non-integer scale
    is encoded, which needs it below 2^(63-F) = 2^31; below that the
    floor's product stays under 2^36 + 2^22 + 2^31 raw, inside
    scale_pub's 2^15. Every float from 2^52 on is an integer, so
    ``ValueError`` is raised unless c * 2^k < 2^62, and unless
    c * 2^k < 2^31 where it is not an integer.
    """
    weights = [float(w) for w in workload.weights] \
        if params.algo == "AIM" else [1.0]
    if not max(weights) > 0:
        raise ValueError("AIM needs a positive workload weight")
    c = 0.5 * params.epsilon_select / max(weights)
    if len(set(weights)) == 1:
        c, weights = c * weights[0], None
        bound = 2 * n + 1 + (max(params.bias, default=0)
                             - min(params.bias, default=0))
    else:
        bound = (2 * n + 1 + max(params.bias)) * max(1.0, *weights)
    k = 0
    while bound >= SCALE_PUB_LIMIT * 2**k:
        k += 1
    scale = c * 2**k
    if scale >= _EXPONENT_SCALE_LIMIT:
        edge = "reaches 2^62"
    elif scale >= RANGE_LIMIT and scale != int(scale):
        edge = "is not an integer and reaches 2^31"
    else:
        floor = _score_floor(scale) if bound * c >= SCALE_PUB_LIMIT else None
        return k, scale, weights, floor
    raise ValueError(f"selection's exponent scale c * 2^k = {scale:.6g} {edge}, "
                     f"where a floored score breaks a range contract")


def _score_floor(scale: float) -> int:
    """Raw word of -(16 + 2^-10) / scale, rounded away from zero, so that
    the floor times ``scale`` lies below -16, where sec_exp clamps."""
    raw = math.ceil((Fraction(-EXP_DOMAIN[0]) + Fraction(1, 1024)) * 2**F
                    / Fraction(scale))
    return int(as_word(-raw))


def _selection_weights(eng, shared_counts, model_answers, workload, params):
    """Unnormalized exponential-mechanism weights over the workload.

    Scores every query by w_q * (L1 - b_q) (MWEM: unit weights and no
    bias, so plain L1), subtracts the shared maximum so the softmax
    argument is nonpositive, applies the public exponent scale, and
    exponentiates. The L1 scores take one pass over the concatenated
    workload: one integer multiply lifts the counts to fixed point, one
    public vector subtracts the model answers, one batched comparison
    extracts the signs, and one segment sum adds up each query's cells.
    Ring sums are exact mod 2^64, so the scores are the words that
    per-query sums give. Uniform query weights fold into the exponent
    scale instead of costing a truncation each.

    The public scaling comes first, before any engine call, from
    ``_score_scaling`` on the row count n that every query's model answers
    sum to; it raises ``ValueError`` where a scaled score could wrap. Where
    the public score bound reaches scale_pub's 2^15 (from n = 16,384 rows
    on), one batched truncation shifts the L1 scores right by its k bits;
    the bias is subtracted in the shifted domain and the exponent scale
    is c * 2^k. Where the bound times c reaches 2^15, the max-shifted
    scores are floored at its floor word first (one batched comparison
    and one multiply): every score below it would scale under -16, where
    sec_exp clamps, so every weight keeps the word an unwrapped scaling
    gives.
    """
    n = round(float(np.sum(model_answers[0])))
    k, scale, weights, floor = _score_scaling(n, params, workload)
    starts = np.cumsum([0] + [c.shape[0] for c in shared_counts[:-1]])
    answers = np.concatenate([np.asarray(a, dtype=np.float64)
                              for a in model_answers])
    flat = eng.sub_const(
        eng.mul_const_int(eng.concat(shared_counts, axis=0), FX_ONE),
        encode(answers))
    neg = sec_cmp(eng, flat, eng.zeros(flat.shape), "LT")
    sgn = eng.add_const(eng.mul_const_int(neg, -2), np.asarray(1))
    scores = eng.sum_segments(eng.mul(sgn, flat), starts)
    if k:
        scores = eng.trunc(scores, k)
    if params.bias:
        scores = eng.sub_const(scores, encode(
            np.asarray(params.bias, dtype=np.float64) / 2**k))
    if weights is not None:
        scores = eng.concat(
            [eng.scale_pub(eng.index(scores, slice(i, i + 1)), weights[i])
             for i in range(len(weights))],
            axis=0,
        )
    top = eng.broadcast_to(sec_max(eng, scores), scores.shape)
    shifted = eng.sub(scores, top)
    if floor is not None:
        floor = eng.const_vec(np.full(shifted.shape, floor, dtype=np.uint64))
        below = sec_cmp(eng, shifted, floor, "LT")
        shifted = eng.add(shifted, eng._mul_raw(below, eng.sub(floor, shifted)))
    return sec_softmax_unnorm(eng, eng.scale_pub(shifted, scale))


def _select(eng, shared_counts, model_answers, workload: Workload,
            params: SelectScoreParams) -> Query:
    with eng.scope("select"):
        weights = _selection_weights(eng, shared_counts, model_answers,
                                     workload, params)
        idx = int(eng.open(pi_rc(eng, weights), to=0))
    return workload.queries[idx - 1]


def select_aim(eng, shared_counts, model_answers, workload: Workload,
               params: SelectScoreParams) -> Query:
    """One AIM selection round; the chosen query is revealed to party 1."""
    if params.algo != "AIM" or len(params.bias) != len(workload.queries):
        raise ValueError("AIM selection needs one bias term per query")
    return _select(eng, shared_counts, model_answers, workload, params)


def select_mwem(eng, shared_counts, model_answers, workload: Workload,
                epsilon_select: float) -> Query:
    """One MWEM selection round (unweighted L1 utility)."""
    return _select(eng, shared_counts, model_answers, workload,
                   SelectScoreParams("MWEM", epsilon_select))


@functools.lru_cache(maxsize=None)
def _step_plan(attrs: tuple, shape: tuple, min_run: int):
    """``_step_layout``'s plan: the step's shape broadcast against a table
    of ``shape``, and the shape it is materialized to (None: left a
    broadcast)."""
    expanded = tuple(c if a in attrs else 1 for a, c in enumerate(shape))
    lead = len(shape)
    while lead > 0 and math.prod(shape[lead:]) < min_run:
        lead -= 1
    if not attrs or attrs[-1] < lead or math.prod(shape) < min_run:
        return expanded, None
    return expanded, expanded[:lead] + shape[lead:]


def _step_layout(step: np.ndarray, attrs: tuple, shape: tuple) -> np.ndarray:
    """A step over the query ``attrs``, laid out against a table of ``shape``.

    Broadcast along the dropped axes, a table multiply runs its inner loop
    over the cells after the query's last attribute. When that run is
    shorter than ``_MIN_RUN`` cells, the step is materialized over the
    fewest trailing axes that hold ``_MIN_RUN`` cells, so table and step
    share one long contiguous inner loop; otherwise it stays a broadcast,
    as it does on a table shorter than one run, where no loop is long.
    Either way every cell meets the same step value. The rule reads only
    the public shape.
    """
    expanded, full = _step_plan(attrs, shape, _MIN_RUN)
    step = step.reshape(expanded)
    return step if full is None \
        else np.ascontiguousarray(np.broadcast_to(step, full))


def _reduce(table: np.ndarray, axes: tuple) -> np.ndarray:
    """``table`` summed over each of ``axes`` in turn."""
    for axis in axes:
        table = table.sum(axis=axis)
    return np.asarray(table)


def _mul_reduce(out: np.ndarray, src: np.ndarray, step: np.ndarray,
                axes: tuple) -> np.ndarray:
    """Write ``src * step`` into ``out`` and return the product summed
    over ``axes`` (a ``_reduction_plan``), in one pass over axis-0 slabs.

    Each slab is reduced while it is still in cache, in the plan's order:
    when axis 0 goes first, the slabs are added up in order, as numpy sums
    a leading axis; otherwise every sum keeps axis 0, and each slab is
    reduced on its own. So the floats are ``_partial_sum``'s on the
    product. A 1-attribute table is one slab: its slabs would be scalars,
    and numpy sums a lone axis pairwise, not in order. With no axes the
    product itself is returned.
    """
    if out.ndim == 1:
        return _reduce(np.multiply(src, step, out=out), axes)
    acc, parts = None, []
    for i in range(out.shape[0]):
        slab = np.multiply(src[i], step[i if step.shape[0] > 1 else 0],
                           out=out[i])
        if not axes:
            continue
        if axes[0] > 0:
            parts.append(_reduce(slab, tuple(a - 1 for a in axes)))
        elif i == 0:
            acc = slab
        elif i == 1:
            acc = acc + slab  # a new array: slab 0 stays in the table
        else:
            acc += slab
    if not axes:
        return out
    return np.stack(parts) if axes[0] > 0 else _reduce(acc, axes[1:])


def mw_update(dist: JointDistribution, m: NoisyMeasurement, n: int, *,
              replay: Sequence[NoisyMeasurement] = ()) -> JointDistribution:
    """Multiplicative-weights steps toward noisy marginals: each of
    ``replay`` in order, then ``m``.

    The steps run on one private working table, one pass per step
    (``_mul_reduce``): the first step writes its product with the model's
    table into it, later steps multiply it in place, and only the result
    is wrapped (and validated) as a new model. Each pass also reduces
    every slab it has multiplied toward the next step's query, in the one
    reduction order (``_reduction_plan``), so each step reads its current
    marginal from the table it updates without another pass over it: the
    first step reads it from the model's memo, and the last pass only
    multiplies. Since the step is constant along the dropped axes, the
    normalizer sum_cells table * step equals sum_(query cells) marginal *
    step, so the step is divided by that small sum before the multiply.

    The multiply runs with a long contiguous inner loop (``_step_layout``),
    and numpy's ufunc buffer is cut to ``_UPDATE_BUFSIZE`` for the steps,
    so that loops that long run in place, not copied through the buffer.
    Products and sums are those of plain broadcast multiplies and
    ``_partial_sum`` reductions, so every float is identical. A NaN or
    +inf in any measurement turns the result into NaN and fails the
    validation. Post-processing only: consumes NoisyMeasurements and the
    public model, never shares or raw rows.
    """
    shape = dist.schema.cardinalities
    steps = (*replay, m)
    src, table = dist.probs.reshape(shape), np.empty(shape)
    marg = dist._table(steps[0].query.attrs)
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(_UPDATE_BUFSIZE)
        for k, meas in enumerate(steps):
            attrs = meas.query.attrs
            target = np.asarray(meas.values,
                                dtype=np.float64).reshape(marg.shape)
            step = np.exp((target - n * marg) / (2.0 * n))
            step /= (marg * step).sum()
            axes = _reduction_plan(len(shape), steps[k + 1].query.attrs)[0] \
                if k + 1 < len(steps) else ()
            marg = _mul_reduce(table, src, _step_layout(step, attrs, shape),
                               axes)
            src = table
    return JointDistribution(table.ravel(), dist.schema)


def sample_synthetic(dist: JointDistribution, n_out: int,
                     rng: np.random.Generator) -> Dataset:
    """n_out rows drawn i.i.d. from the model (post-processing only)."""
    if n_out == 0:
        rows = np.zeros((0, dist.schema.dims), dtype=np.int64)
        return Dataset(rows, dist.schema)
    p = dist.probs / dist.probs.sum()
    cells = rng.choice(dist.probs.size, size=n_out, p=p)
    coords = np.unravel_index(cells, dist.schema.cardinalities)
    return Dataset(np.column_stack(coords).astype(np.int64), dist.schema)


def run_pipeline(dataset: Dataset, plan: PartitionPlan, workload: Workload,
                 budget: PrivacyBudget, algo: str = "AIM",
                 noise_kind: str = "gaussian-box-muller",
                 backend: str = "mpc", seed: int = 0):
    """Full synthesis run; returns (synthetic Dataset, JSON-ready run log).

    Workload answers are computed once up front (local partial counts,
    then the aggregation protocol). The noise for all T rounds follows in
    one batch of T * w scaled samples, w the largest flat query size:
    round r measures with the slice [r*w, r*w + len) and the rest of its
    w samples are discarded unopened. Then come the T
    select-measure-generate rounds, and the model is resampled into n
    synthetic rows at the end. The cdp backend runs the identical logic
    on plaintext words with the same seeded randomness streams.

    Raises ``ValueError`` before any protocol work when the dataset has
    no rows, when a query names an attribute outside the schema, when a
    Gaussian noise kind meets eps_measure >= 1, or any kind an
    eps_measure that rounds to the float 0.0
    (``PrivacyBudget.measure_scale``), when the noise scale times the
    sampler's tail bound (``NOISE_TAIL``) reaches scale_pub's 2^15 range,
    where the scaled noise would wrap, for an unknown selection algorithm
    (``SelectScoreParams``), and when selection's exponent scale reaches
    2^62, or 2^31 without being an integer (``_score_scaling``, which each
    selection round calls again on the same public values).
    """
    schema = dataset.schema
    n = int(dataset.rows.shape[0])
    if n == 0:
        raise ValueError("dataset has no rows")
    if len(workload.queries) == 0:
        raise ValueError("workload must contain at least one query")
    if max(max(q.attrs, default=-1) for q in workload.queries) >= schema.dims:
        raise ValueError(f"a workload attribute index is outside [0, {schema.dims})")
    if schema.domain_size > MAX_JOINT_CELLS:
        raise ValueError("joint domain too large for the explicit model")
    scale = budget.measure_scale(noise_kind)
    noise = NoiseSpec(noise_kind, scale)
    if scale * NOISE_TAIL[noise_kind] >= SCALE_PUB_LIMIT:
        raise ValueError(
            f"noise scale {scale:.6g} times the {noise_kind} tail bound "
            f"{NOISE_TAIL[noise_kind]:.4g} reaches 2^15, outside "
            f"scale_pub's range")

    params = SelectScoreParams(algo, float(budget.epsilon_select), tuple(
        expected_noise_l1(noise_kind, scale, q.size(schema))
        for q in workload.queries) if algo == "AIM" else ())
    _score_scaling(n, params, workload)

    eng = make_engine(backend, seed=seed)
    answers = compute_workload_answers(eng, dataset, plan, workload)
    shared_counts = [answers[q] for q in workload.queries]
    width = max(q.size(schema) for q in workload.queries)
    pool = draw_noise(eng, noise, budget.rounds * width)

    dist = JointDistribution.uniform(schema)
    measurements: list[NoisyMeasurement] = []
    rounds_log = []
    for r in range(budget.rounds):
        model = [n * dist.marginal(q) for q in workload.queries]
        if algo == "AIM":
            selected = select_aim(eng, shared_counts, model, workload, params)
        else:
            selected = select_mwem(eng, shared_counts, model, workload,
                                   params.epsilon_select)
        qi = workload.queries.index(selected)
        counts = shared_counts[qi]
        noise_share = eng.index(
            pool, slice(r * width, r * width + counts.shape[0]))
        m = pi_measure(eng, counts, noise_share, selected, noise, r)
        measurements.append(m)
        dist = mw_update(dist, m, n, replay=measurements[:-1])
        rounds_log.append({
            "selected_query": list(selected.attrs),
            "epsilon_select": str(budget.epsilon_select),
            "epsilon_measure": str(budget.epsilon_measure),
            "sigma": scale,
            "measurement": m.to_json(),
        })

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(PURPOSE_SAMPLE, 0)))
    synthetic = sample_synthetic(dist, n, rng)
    log = {
        "rounds": rounds_log,
        "budget_ledger": budget.ledger_json(noise_kind),
        "transcript_summary": eng.transcript.summary(),
    }
    return synthetic, log
