"""The benchmark's workloads: fixed shapes, inputs generated from a seed.

Each workload drives the entry points ``mpcsyn gen`` calls
(``dataio.partition``, ``dataio.build_workload``, ``pipeline.run_pipeline``
and ``dataio.workload_error``) on inputs made from the workload seed:

- mpc-horizontal-bm: many tiny protocol calls (selection, Box-Muller noise);
  aggregation is local and sends nothing.
- mpc-vertical-join: few, large protocol calls (secure join and
  equality-product counting over column-split holders).
- cdp-wide-model: no protocol at all; a joint model 1,000x larger than the
  toy domain, so the multiplicative-weights update dominates.

The shapes (rows, attributes, holders, rounds, mechanism) are constants so
that two seeds do the same amount of work; only the data values and the
pipeline randomness depend on the seed. The holder split uses its own fixed
seed for the same reason: on the vertical workload it decides which queries
cross holders.

Importing this module imports nothing from ``mpcsyn``; the caller puts the
program under test on ``sys.path`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PARTITION_SEED = 0


@dataclass(frozen=True)
class Spec:
    name: str
    make_data: Callable  # (seed) -> mpcsyn.marginals.Dataset
    partition: str
    algo: str
    noise: str
    rounds: int
    backend: str
    # pipeline seeds averaged into workload_error: one DP run is too noisy
    # a utility estimate to compare two commits with (see README.md)
    utility_seeds: int
    epsilon: float = 1.0
    delta: float = 1e-9


def toy_data(seed: int):
    from mpcsyn import dataio

    return dataio.make_toy_dataset(2000, seed)


def chain_data(seed: int, n: int = 20_000, dims: int = 8, card: int = 5):
    """Correlated chain: each attribute copies its predecessor with
    probability 0.7 and is otherwise uniform, so every adjacent pair
    carries signal and the model has something to learn."""
    from mpcsyn.marginals import AttrDomain, Dataset, Schema

    rng = np.random.default_rng(seed)
    cols = [rng.choice(card, size=n, p=[0.35, 0.25, 0.2, 0.12, 0.08])]
    for _ in range(dims - 1):
        stay = rng.random(n) < 0.7
        cols.append(np.where(stay, cols[-1], rng.integers(0, card, size=n)))
    schema = Schema(tuple(AttrDomain(f"x{j}", card) for j in range(dims)))
    return Dataset(np.column_stack(cols).astype(np.int64), schema)


WORKLOADS = {
    s.name: s
    for s in (
        Spec("mpc-horizontal-bm", toy_data, "horizontal:3", "MWEM",
             "gaussian-box-muller", 10, "mpc", utility_seeds=32),
        Spec("mpc-vertical-join", toy_data, "vertical:2", "AIM",
             "gaussian-irwin-hall", 3, "mpc", utility_seeds=8),
        Spec("cdp-wide-model", chain_data, "horizontal:3", "MWEM",
             "laplace-sign", 40, "cdp", utility_seeds=3),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything ``run_pipeline`` needs, prepared once per process."""

    spec: Spec
    dataset: object
    plan: object
    workload: object
    budget: object
    seeds: tuple  # pipeline seeds; seeds[0] is the timed one


def pipeline_seeds(seed: int, count: int) -> tuple:
    return tuple(int(s) for s in
                 np.random.SeedSequence(seed).generate_state(count))


def prepare(name: str, seed: int) -> Inputs:
    """Generate the workload's inputs from ``seed``, as ``mpcsyn gen`` would
    after loading its CSV: partition, build the workload, fix the budget."""
    from mpcsyn import dataio
    from mpcsyn.pipeline import PrivacyBudget

    spec = WORKLOADS[name]
    dataset, plan = dataio.partition(spec.make_data(seed), spec.partition,
                                     seed=PARTITION_SEED)
    workload = dataio.build_workload(dataset.schema)
    budget = PrivacyBudget(spec.epsilon, spec.delta, spec.rounds)
    return Inputs(spec, dataset, plan, workload, budget,
                  pipeline_seeds(seed, spec.utility_seeds))


def synthesize(inputs: Inputs, seed: int, backend: str | None = None):
    """One ``run_pipeline`` call; returns (synthetic Dataset, run log)."""
    from mpcsyn.pipeline import run_pipeline

    spec = inputs.spec
    return run_pipeline(inputs.dataset, inputs.plan, inputs.workload,
                        inputs.budget, algo=spec.algo, noise_kind=spec.noise,
                        backend=backend or spec.backend, seed=seed)
