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

from .fixed import FX_ONE, encode
from .marginals import (
    DEFAULT_CELL_BUDGET,
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

_GAUSSIAN_KINDS = ("gaussian-irwin-hall", "gaussian-box-muller")


@dataclass(frozen=True)
class PrivacyBudget:
    """Total (epsilon, delta) over a fixed number of rounds.

    The budget splits evenly: each round spends epsilon_total/(2T) on
    selection and the same on measurement. The Gaussian scale uses the
    analytic bound sigma = sqrt(2 ln(1.25/delta)) * D2 / eps_measure
    with per-query L2 sensitivity D2 = 1; Laplace uses b = 1/eps_measure.
    """

    epsilon_total: Fraction
    delta: Fraction
    rounds: int

    def __post_init__(self):
        object.__setattr__(self, "epsilon_total", Fraction(self.epsilon_total))
        object.__setattr__(self, "delta", Fraction(self.delta))
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
        eps = float(self.epsilon_measure)
        if noise_kind in _GAUSSIAN_KINDS:
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

    def ledger_json(self) -> dict:
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
        if self.algo == "AIM" and not self.max_sensitivity > 0:
            raise ValueError("AIM max-sensitivity must be positive")


def expected_noise_l1(noise_kind: str, scale: float, cells: int) -> float:
    """Expected L1 mass the measurement noise adds to a marginal."""
    per_cell = scale * math.sqrt(2.0 / math.pi) \
        if noise_kind in _GAUSSIAN_KINDS else scale
    return per_cell * cells


def _selection_weights(eng, shared_counts, model_answers, workload, params):
    """Unnormalized exponential-mechanism weights over the workload.

    Scores every query (AIM: w * (L1 - bias); MWEM: plain L1), subtracts
    the shared maximum so the softmax argument is nonpositive, applies
    the public exponent scale, and exponentiates. The per-query sign
    extractions run as one batched comparison over the concatenated
    difference vectors; uniform query weights fold into the exponent
    scale instead of costing a truncation each.
    """
    diffs = [
        eng.sub_const(
            eng.mul_const_int(shared_counts[i], FX_ONE),
            encode(np.asarray(model_answers[i], dtype=np.float64)),
        )
        for i in range(len(workload.queries))
    ]
    flat = eng.concat(diffs, axis=0)
    neg = sec_cmp(eng, flat, eng.zeros(flat.shape), "LT")
    sgn = eng.add_const(eng.mul_const_int(neg, -2), np.asarray(1))
    absflat = eng.mul(sgn, flat)
    bounds = np.cumsum([0] + [d.size for d in diffs])
    scores = eng.stack(
        [eng.sum_axis(eng.index(absflat, slice(bounds[i], bounds[i + 1])))
         for i in range(len(diffs))],
        axis=0,
    )
    exponent_scale = 0.5 * params.epsilon_select
    if params.algo == "AIM":
        exponent_scale /= params.max_sensitivity
        scores = eng.sub_const(scores, encode(np.asarray(params.bias,
                                                         dtype=np.float64)))
        weights = [float(w) for w in workload.weights]
        if len(set(weights)) == 1:
            exponent_scale *= weights[0]  # commutes with the max-subtract
        else:
            scores = eng.concat(
                [eng.scale_pub(eng.index(scores, slice(i, i + 1)), weights[i])
                 for i in range(len(weights))],
                axis=0,
            )
    top = eng.broadcast_to(sec_max(eng, scores), scores.shape)
    shifted = eng.sub(scores, top)
    return sec_softmax_unnorm(eng, eng.scale_pub(shifted, exponent_scale))


def select_aim(eng, shared_counts, model_answers, workload: Workload,
               params: SelectScoreParams) -> Query:
    """One AIM selection round; the chosen query is revealed to party 1."""
    if params.algo != "AIM" or len(params.bias) != len(workload.queries):
        raise ValueError("AIM selection needs one bias term per query")
    with eng.scope("select"):
        weights = _selection_weights(eng, shared_counts, model_answers,
                                     workload, params)
        idx = int(eng.open(pi_rc(eng, weights), to=0))
    return workload.queries[idx - 1]


def select_mwem(eng, shared_counts, model_answers, workload: Workload,
                epsilon_select: float) -> Query:
    """One MWEM selection round (unweighted L1 utility)."""
    params = SelectScoreParams("MWEM", epsilon_select)
    with eng.scope("select"):
        weights = _selection_weights(eng, shared_counts, model_answers,
                                     workload, params)
        idx = int(eng.open(pi_rc(eng, weights), to=0))
    return workload.queries[idx - 1]


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
    small sum before the one full-table multiply. A NaN or +inf in any
    measurement turns the result into NaN and fails the validation.
    Post-processing only: consumes NoisyMeasurements and the public
    model, never shares or raw rows.
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
        step = np.expand_dims(step, tuple(a for a in range(len(shape))
                                          if a not in attrs))
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
                 backend: str = "mpc", seed: int = 0,
                 cell_budget: int = DEFAULT_CELL_BUDGET):
    """Full synthesis run; returns (synthetic Dataset, JSON-ready run log).

    Workload answers are computed once up front (local partial counts,
    then the aggregation protocol). The noise for all T rounds follows in
    one batch of T * w scaled samples, w the largest flat query size:
    round r measures with the slice [r*w, r*w + len) and the rest of its
    w samples are discarded unopened. Then come the T
    select-measure-generate rounds, and the model is resampled into n
    synthetic rows at the end. The cdp backend runs the identical logic
    on plaintext words with the same seeded randomness streams.

    Raises ``ValueError`` before any protocol work when the noise scale
    times the sampler's tail bound (``NOISE_TAIL``) reaches scale_pub's
    2^15 range, where the scaled noise would wrap.
    """
    schema = dataset.schema
    n = int(dataset.rows.shape[0])
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

    eng = make_engine(backend, seed=seed)
    answers = compute_workload_answers(eng, dataset, plan, workload,
                                       cell_budget=cell_budget)
    shared_counts = [answers[q] for q in workload.queries]
    width = max(q.size(schema) for q in workload.queries)
    pool = draw_noise(eng, noise, budget.rounds * width)

    eps_select = float(budget.epsilon_select)
    bias = tuple(expected_noise_l1(noise_kind, scale, q.size(schema))
                 for q in workload.queries)
    params = SelectScoreParams("AIM", eps_select, bias,
                               max(workload.weights)) if algo == "AIM" else None

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
        "budget_ledger": budget.ledger_json(),
        "transcript_summary": eng.transcript.summary(),
    }
    return synthetic, log
