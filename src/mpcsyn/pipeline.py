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

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fixed import F, FX_ONE, as_word, encode
from .marginals import (
    Dataset,
    PartitionPlan,
    Query,
    Schema,
    Workload,
    compute_workload_answers,
)
from .mechanisms import (
    NOISE_TAIL,
    NoiseSpec,
    NoisyMeasurement,
    draw_noise,
    pi_measure,
    pi_rc,
)
from .primitives import sec_cmp, sec_max, sec_softmax_unnorm
from .rss import SCALE_PUB_LIMIT, make_engine

MAX_JOINT_CELLS = 1_000_000
_SAMPLE_PURPOSE = 4  # engine streams use purposes 0..3; sampling gets its own
# shortest inner loop, in cells, a model-update multiply is left to run
_MIN_RUN = 1 << 11

_GAUSSIAN_KINDS = ("gaussian-irwin-hall", "gaussian-box-muller")


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
        if not (isinstance(self.rounds, int) and self.rounds >= 1):
            raise ValueError("rounds must be a positive integer")

    @property
    def epsilon_select(self) -> Fraction:
        return self.epsilon_total / (2 * self.rounds)

    @property
    def epsilon_measure(self) -> Fraction:
        return self.epsilon_total / (2 * self.rounds)

    def measure_scale(self, noise_kind: str) -> float:
        """Noise scale of one measurement; raises ``ValueError`` for a
        Gaussian kind at eps_measure >= 1, outside its bound's validity."""
        eps = float(self.epsilon_measure)
        if noise_kind in _GAUSSIAN_KINDS:
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
                               if noise_kind in _GAUSSIAN_KINDS else 0),
        }


def _partial_sum(full: np.ndarray, attrs: tuple, memo: dict) -> np.ndarray:
    """Table over the sorted ``attrs`` of the full table ``full``.

    The table over S is the table over S + {a}, a the largest attribute
    outside S, summed over a's axis; the full set is ``full`` itself, and
    every smaller table is kept read-only in ``memo``. Going down from the
    full table, the lowest attributes outside S go first, so queries that
    agree below their first missing attribute share each pass: a round's
    1- and 2-way queries make a few full-table passes instead of one each.
    Every caller reduces in this one order, so a marginal has the same
    floats whichever table or memo it comes from.
    """
    if len(attrs) == full.ndim:
        return full
    hit = memo.get(attrs)
    if hit is not None:
        return hit
    a = max(set(range(full.ndim)) - set(attrs))
    parent = tuple(sorted(attrs + (a,)))
    table = np.asarray(_partial_sum(full, parent, memo)
                       .sum(axis=parent.index(a)))
    table.flags.writeable = False  # cached: shared by every caller
    memo[attrs] = table
    return table


@dataclass(frozen=True)
class JointDistribution:
    """Explicit joint model over the full attribute domain (party 1 state).

    Marginals are memoized per instance (each round's ``mw_update`` builds
    one new instance), so ``probs`` is a read-only view; it is not a copy
    of the caller's array, which must not be written afterwards either.
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
    max_sensitivity: float = 1.0

    def __post_init__(self):
        if self.algo not in ("AIM", "MWEM"):
            raise ValueError(f"unknown selection algorithm {self.algo!r}")
        if not self.max_sensitivity > 0:
            raise ValueError("max-sensitivity must be positive")
        if any(b < 0 for b in self.bias):
            raise ValueError("AIM bias terms must be nonnegative")


def expected_noise_l1(noise_kind: str, scale: float, cells: int) -> float:
    """Expected L1 mass the measurement noise adds to a marginal."""
    per_cell = scale * math.sqrt(2.0 / math.pi) \
        if noise_kind in _GAUSSIAN_KINDS else scale
    return per_cell * cells


def _score_scales(params: SelectScoreParams, workload: Workload):
    """Public score scales: (exponent scale, per-query weights).

    AIM weights each query by its workload weight; MWEM is AIM with unit
    weights and no bias, and this is the one place the two differ.
    Uniform weights fold into the exponent scale, where they commute with
    the max-subtract, and the weights come back as ``None``.
    """
    scale = 0.5 * params.epsilon_select / params.max_sensitivity
    weights = [float(w) for w in workload.weights] \
        if params.algo == "AIM" else [1.0]
    if len(set(weights)) == 1:
        return scale * weights[0], None
    return scale, weights


def _score_bound(n: int, params: SelectScoreParams,
                 workload: Workload) -> float:
    """Public bound on every value scale_pub sees in selection, before
    the shift by ``_score_shift``.

    Counts and model answers each sum to the row count n, so a query's
    L1 lies in [0, 2n + 1]: one count of slack covers the model's
    normalization tolerance and the fixed-point rounding of its answers.
    With uniform weights the max-shifted scores L1 - b_q are within
    2n + 1 + (max bias - min bias) of 0; with no bias that is 2n + 1.
    Non-uniform weights w_q scale each L1 - b_q in [-b_q, 2n + 1 - b_q],
    so the weighted scores, their products and their max-shifted span
    are all within max(1, max w) * (2n + 1 + max bias).
    """
    _, weights = _score_scales(params, workload)
    if weights is None:
        return 2 * n + 1 + (max(params.bias, default=0)
                            - min(params.bias, default=0))
    return (2 * n + 1 + max(params.bias)) * max(1.0, *weights)


def _score_shift(n: int, params: SelectScoreParams,
                 workload: Workload) -> int:
    """Bits k by which selection shifts its scores right before scaling
    them: the smallest k >= 0 with ``_score_bound`` below 2^(15 + k)."""
    bound = _score_bound(n, params, workload)
    k = 0
    while bound >= SCALE_PUB_LIMIT * 2**k:
        k += 1
    return k


def _score_floor(scale: float) -> int:
    """Raw word of -(16 + 2^-10) / scale, rounded away from zero, so that
    the floor times ``scale`` lies below -16, where sec_exp clamps."""
    raw = math.ceil((16 + Fraction(1, 1024)) * 2**F / Fraction(scale))
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

    Where the public score bound reaches scale_pub's 2^15 (from n =
    16,384 rows on; every query's model answers sum to n), one batched
    truncation shifts the L1 scores right by k bits (``_score_shift``);
    the bias is subtracted in the shifted domain and the exponent scale
    grows by 2^k. Where the bound times the exponent scale reaches 2^15,
    the max-shifted scores are floored at ``_score_floor`` first (one
    batched comparison and one multiply): every score below it would
    scale under -16, where sec_exp clamps, so every weight keeps the word
    an unwrapped scaling gives. Both conditions read public values only.
    """
    starts = np.cumsum([0] + [c.shape[0] for c in shared_counts[:-1]])
    answers = np.concatenate([np.asarray(a, dtype=np.float64)
                              for a in model_answers])
    flat = eng.sub_const(
        eng.mul_const_int(eng.concat(shared_counts, axis=0), FX_ONE),
        encode(answers))
    neg = sec_cmp(eng, flat, eng.zeros(flat.shape), "LT")
    sgn = eng.add_const(eng.mul_const_int(neg, -2), np.asarray(1))
    scores = eng.sum_segments(eng.mul(sgn, flat), starts)
    n = round(float(np.sum(model_answers[0])))
    k = _score_shift(n, params, workload)
    if k:
        scores = eng.trunc(scores, k)
    if params.bias:
        scores = eng.sub_const(scores, encode(
            np.asarray(params.bias, dtype=np.float64) / 2**k))
    exponent_scale, weights = _score_scales(params, workload)
    if weights is not None:
        scores = eng.concat(
            [eng.scale_pub(eng.index(scores, slice(i, i + 1)), weights[i])
             for i in range(len(weights))],
            axis=0,
        )
    top = eng.broadcast_to(sec_max(eng, scores), scores.shape)
    shifted = eng.sub(scores, top)
    scale = exponent_scale * 2**k
    if _score_bound(n, params, workload) * exponent_scale >= SCALE_PUB_LIMIT:
        floor = eng.const_vec(np.full(shifted.shape, _score_floor(scale),
                                      dtype=np.uint64))
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
    step = np.expand_dims(step, tuple(a for a in range(len(shape))
                                      if a not in attrs))
    lead = len(shape)
    while lead > 0 and math.prod(shape[lead:]) < _MIN_RUN:
        lead -= 1
    if not attrs or attrs[-1] < lead or math.prod(shape) < _MIN_RUN:
        return step
    return np.ascontiguousarray(
        np.broadcast_to(step, step.shape[:lead] + shape[lead:]))


def mw_update(dist: JointDistribution, m: NoisyMeasurement, n: int, *,
              replay: Sequence[NoisyMeasurement] = ()) -> JointDistribution:
    """Multiplicative-weights steps toward noisy marginals: each of
    ``replay`` in order, then ``m``.

    The steps run on one private working table: the first step's product
    with the model's table is the copy, later steps multiply into it in
    place, and only the result is wrapped (and validated) as a new
    model. Each step reads its current marginal from the table it
    updates: the first from the model's memo, the others by the same
    reduction order on the working table. Since the step is constant
    along the dropped axes, the normalizer sum_cells table * step equals
    sum_(query cells) marginal * step, so the step is divided by that
    small sum before the one full-table multiply. That multiply runs as
    one pass with a long contiguous inner loop (``_step_layout``); it
    forms the same products as a plain broadcast, so every float is
    identical. A NaN or +inf in any measurement turns the result into
    NaN and fails the validation. Post-processing only: consumes
    NoisyMeasurements and the public model, never shares or raw rows.
    """
    shape = dist.schema.cardinalities
    table = None
    for meas in (*replay, m):
        attrs = meas.query.attrs
        marg = dist._table(attrs) if table is None \
            else _partial_sum(table, attrs, {})
        target = np.asarray(meas.values, dtype=np.float64).reshape(marg.shape)
        step = np.exp((target - n * marg) / (2.0 * n))
        step /= (marg * step).sum()
        step = _step_layout(step, attrs, shape)
        if table is None:
            table = dist.probs.reshape(shape) * step
        else:
            table *= step
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
    no rows, when a Gaussian noise kind meets eps_measure >= 1
    (``PrivacyBudget.measure_scale``), when the noise scale times the
    sampler's tail bound (``NOISE_TAIL``) reaches scale_pub's 2^15 range,
    where the scaled noise would wrap.
    """
    schema = dataset.schema
    n = int(dataset.rows.shape[0])
    if n == 0:
        raise ValueError("dataset has no rows")
    if len(workload.queries) == 0:
        raise ValueError("workload must contain at least one query")
    if algo not in ("AIM", "MWEM"):
        raise ValueError(f"unknown selection algorithm {algo!r}")
    if schema.domain_size > MAX_JOINT_CELLS:
        raise ValueError("joint domain too large for the explicit model")
    scale = budget.measure_scale(noise_kind)
    noise = NoiseSpec(noise_kind, scale)
    if scale * NOISE_TAIL[noise_kind] >= SCALE_PUB_LIMIT:
        raise ValueError(
            f"noise scale {scale:.6g} times the {noise_kind} tail bound "
            f"{NOISE_TAIL[noise_kind]:.4g} reaches 2^15, outside "
            f"scale_pub's range")

    eps_select = float(budget.epsilon_select)
    bias = tuple(expected_noise_l1(noise_kind, scale, q.size(schema))
                 for q in workload.queries)
    params = SelectScoreParams("AIM", eps_select, bias,
                               max(workload.weights)) if algo == "AIM" else None

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
                                   eps_select)
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
        np.random.SeedSequence(entropy=seed, spawn_key=(_SAMPLE_PURPOSE, 0)))
    synthetic = sample_synthetic(dist, n, rng)
    log = {
        "rounds": rounds_log,
        "budget_ledger": budget.ledger_json(noise_kind),
        "transcript_summary": eng.transcript.summary(),
    }
    return synthetic, log
