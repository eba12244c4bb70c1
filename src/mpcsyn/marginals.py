"""Workload marginals over partitioned data.

Data holders each own a rectangle of the logical table (a row range and
an attribute set). Queries whose attributes are fully owned by a set of
holders that exactly tile the rows are answered locally and aggregated
by share addition (zero messages). Every other query is computed from
the assembled secret-shared table by the equality-product counting
protocol, which touches each row once per cell and keeps counts exact:
integers never pass through truncation.

Every shared cell lies in [0, cardinality): ``local_compute`` rejects a
holder's plaintext outside it before anything is shared. So a cell and a
candidate value differ by at most cardinality - 1 < 2^b with
b = (cardinality - 1).bit_length(), and each equality test runs at width
b: b mask bits, b - 1 ANDs and one opened word per compared cell, instead
of 64 bits and 63 ANDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .fixed import as_word
from .rss import U64
from .primitives import sec_eq

DEFAULT_CELL_BUDGET = 100_000

# elements per equality batch when sweeping cells x rows
_CHUNK_ELEMS = 1 << 20


class SchemaError(ValueError):
    """Data does not conform to the declared schema."""


class CoverageError(ValueError):
    """Holder rectangles do not tile the logical table."""


class CellBudgetError(ValueError):
    """A marginal's flattened domain exceeds ``DEFAULT_CELL_BUDGET`` cells."""


class OrchestrationError(RuntimeError):
    """Protocol inputs are inconsistent with the partition plan."""


@dataclass(frozen=True)
class AttrDomain:
    name: str
    cardinality: int
    bin_edges: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.cardinality < 2:
            raise SchemaError(f"attribute {self.name!r}: cardinality must be >= 2")
        if self.bin_edges is not None:
            edges = tuple(float(e) for e in self.bin_edges)
            if any(a >= b for a, b in zip(edges, edges[1:])):
                raise SchemaError(f"attribute {self.name!r}: bin edges must increase")
            object.__setattr__(self, "bin_edges", edges)


@dataclass(frozen=True)
class Schema:
    attrs: tuple[AttrDomain, ...]

    def __post_init__(self):
        object.__setattr__(self, "attrs", tuple(self.attrs))
        names = [a.name for a in self.attrs]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")

    @property
    def dims(self) -> int:
        return len(self.attrs)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(a.cardinality for a in self.attrs)

    @property
    def domain_size(self) -> int:
        return prod(self.cardinalities)


@dataclass(frozen=True)
class Dataset:
    rows: np.ndarray  # (n, d) category indices
    schema: Schema

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != self.schema.dims:
            raise SchemaError(f"row matrix must be n x {self.schema.dims}")
        if not np.issubdtype(rows.dtype, np.integer):
            raise SchemaError("cells must be integer category indices")
        for j, dom in enumerate(self.schema.attrs):
            col = rows[:, j]
            if col.size and (col.min() < 0 or col.max() >= dom.cardinality):
                raise SchemaError(
                    f"attribute {dom.name!r}: values outside [0, {dom.cardinality})"
                )
        object.__setattr__(self, "rows", rows.astype(np.int64))

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True)
class Query:
    """A marginal over a sorted tuple of attribute indices.

    Cells flatten row-major in attribute order: for a 2-way query the
    cell of values (j, k) is j * cardinality(a2) + k.
    """

    attrs: tuple[int, ...]

    def __post_init__(self):
        attrs = tuple(int(a) for a in self.attrs)
        if len(set(attrs)) != len(attrs):
            raise ValueError("query attributes must be distinct")
        if attrs != tuple(sorted(attrs)):
            raise ValueError("query attributes must be sorted")
        object.__setattr__(self, "attrs", attrs)

    @property
    def k(self) -> int:
        return len(self.attrs)

    def size(self, schema: Schema) -> int:
        return prod(schema.attrs[a].cardinality for a in self.attrs)

    def cell_of(self, rows: np.ndarray, schema: Schema) -> np.ndarray:
        """Flat cell index of each data row."""
        idx = np.zeros(rows.shape[0], dtype=np.int64)
        for a in self.attrs:
            idx = idx * schema.attrs[a].cardinality + rows[:, a]
        return idx


@dataclass(frozen=True)
class Workload:
    queries: tuple[Query, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        queries = tuple(self.queries)
        weights = tuple(float(w) for w in self.weights) or (1.0,) * len(queries)
        if len(weights) != len(queries):
            raise ValueError("one weight per query required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class Holding:
    """One holder's rectangle: rows [start, stop) of the listed attributes."""

    rows: tuple[int, int]
    attrs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", (int(self.rows[0]), int(self.rows[1])))
        object.__setattr__(self, "attrs", tuple(sorted(int(a) for a in self.attrs)))
        if self.rows[0] < 0 or self.rows[1] < self.rows[0]:
            raise CoverageError("invalid row range")

    @property
    def n_rows(self) -> int:
        return self.rows[1] - self.rows[0]


@dataclass(frozen=True)
class PartitionPlan:
    holders: tuple[Holding, ...]

    def __post_init__(self):
        object.__setattr__(self, "holders", tuple(self.holders))

    def validate(self, n: int, d: int) -> None:
        cover = np.zeros((n, d), dtype=np.int64)
        for h in self.holders:
            if h.rows[1] > n or any(a >= d for a in h.attrs):
                raise CoverageError("holding exceeds table bounds")
            cover[h.rows[0] : h.rows[1], list(h.attrs)] += 1
        if (cover == 0).any():
            raise CoverageError("partition leaves table cells uncovered")
        if (cover > 1).any():
            raise CoverageError("holdings overlap")


def horizontal_plan(n: int, d: int, n_holders: int) -> PartitionPlan:
    """Split rows as evenly as possible; every holder owns all attributes."""
    if n_holders < 1:
        raise CoverageError("need at least one holder")
    bounds = np.linspace(0, n, n_holders + 1).astype(int)
    return PartitionPlan(
        tuple(
            Holding((int(bounds[i]), int(bounds[i + 1])), tuple(range(d)))
            for i in range(n_holders)
        )
    )


def vertical_plan(n: int, d: int, col_groups: list[list[int]]) -> PartitionPlan:
    return PartitionPlan(tuple(Holding((0, n), tuple(g)) for g in col_groups))


def exact_marginal(rows: np.ndarray, query: Query, schema: Schema) -> np.ndarray:
    """Plaintext contingency counts; the oracle all secure paths must match."""
    cells = query.cell_of(rows, schema)
    return np.bincount(cells, minlength=query.size(schema)).astype(np.int64)


def split_queries(
    plan: PartitionPlan, n: int, workload: Workload
) -> tuple[list[Query], list[Query]]:
    """Partition the workload into locally-computable queries and Q*.

    A query stays local when the holders owning all of its attributes
    tile the full row range exactly once; anything else is recomputed
    from the joined shared table.
    """
    local, qstar = [], []
    for q in workload.queries:
        covering = [h for h in plan.holders if set(q.attrs) <= set(h.attrs)]
        rowmask = np.zeros(n, dtype=np.int64)
        for h in covering:
            rowmask[h.rows[0] : h.rows[1]] += 1
        (local if (rowmask == 1).all() else qstar).append(q)
    return local, qstar


def local_compute(
    eng,
    holder_rows: np.ndarray,
    holding: Holding,
    workload: Workload,
    schema: Schema,
    qstar: list[Query],
    share_cells: bool,
):
    """One holder's contribution: shares of its partial marginals.

    ``holder_rows`` is the holder's plaintext view, shaped
    (n_rows, len(holding.attrs)) in holding-attribute order, with every
    value in [0, cardinality) of its attribute (``SchemaError`` otherwise,
    raised before anything is shared). Queries the
    holder cannot answer (or that were routed to Q*) get zero vectors,
    keeping the aggregation shape-uniform. When ``share_cells`` is set
    the raw cells are shared too, for the join.
    """
    holder_rows = np.asarray(holder_rows, dtype=np.int64)
    if holder_rows.shape != (holding.n_rows, len(holding.attrs)):
        raise SchemaError("holder data shape does not match its holding")
    for col, a in zip(holder_rows.T, holding.attrs):
        dom = schema.attrs[a]
        if col.size and (col.min() < 0 or col.max() >= dom.cardinality):
            raise SchemaError(
                f"attribute {dom.name!r}: holder values outside [0, {dom.cardinality})"
            )
    col_of = {a: i for i, a in enumerate(holding.attrs)}
    qstar_set = set(qstar)
    partials = {}
    for q in workload.queries:
        if q not in qstar_set and set(q.attrs) <= set(holding.attrs):
            local_view = holder_rows[:, [col_of[a] for a in q.attrs]]
            counts = exact_marginal(local_view, Query(tuple(range(q.k))),
                                    Schema(tuple(schema.attrs[a] for a in q.attrs)))
        else:
            counts = np.zeros(q.size(schema), dtype=np.int64)
        partials[q] = eng.share(as_word(counts))
    cells = eng.share(as_word(holder_rows)) if share_cells else None
    return partials, cells


def pi_join(eng, plan: PartitionPlan, shared_cells: list, n: int, d: int):
    """Assemble holder rectangles into one shared n x d table.

    Pure placement: n*d share-component assignments, zero messages.
    """
    plan.validate(n, d)
    if len(shared_cells) != len(plan.holders):
        raise OrchestrationError("one shared rectangle per holder required")
    placements = []
    for h, cells in zip(plan.holders, shared_cells):
        if cells is None:
            raise OrchestrationError(f"holder {h} did not share its cells")
        if cells.shape != (h.n_rows, len(h.attrs)):
            raise OrchestrationError("shared rectangle shape mismatch")
        placements.append((slice(h.rows[0], h.rows[1]), list(h.attrs), cells))
        eng.count("assign", h.n_rows * len(h.attrs))
    return eng.assemble((n, d), placements)


def p_way_marginal(eng, shared_data, query: Query, schema: Schema):
    """Shared counts of a k-way marginal from the joined shared table.

    Per cell, the count is the sum over rows of the product of one
    equality test per attribute: k * n * prod(cardinalities) equality
    tests, (k-1) * n * prod(cardinalities) multiplications. Counts are
    exact integers.

    Contract: every shared cell of a queried attribute lies in
    [0, cardinality). The test on an attribute then runs at width
    b = (cardinality - 1).bit_length() (``sec_eq``'s ``nbits``), taken
    from the public schema: b mask bits, b - 1 ANDs and one opened word
    per compared cell. A cell of 2^b or more breaks the width contract;
    the plaintext engine raises ``RangeContractError`` on it.
    """
    sizes = [schema.attrs[a].cardinality for a in query.attrs]
    total = prod(sizes)
    if total > DEFAULT_CELL_BUDGET:
        raise CellBudgetError(
            f"marginal has {total} cells, over the budget of {DEFAULT_CELL_BUDGET}"
        )
    n = shared_data.shape[0]
    cols = [eng.index(shared_data, (slice(None), a)) for a in query.attrs]
    cell_values = np.stack(
        np.unravel_index(np.arange(total), sizes), axis=1
    )  # (total, k), row-major
    step = max(1, _CHUNK_ELEMS // max(n, 1))
    parts = []
    for start in range(0, total, step):
        chunk = cell_values[start : start + step]
        m = None
        for j in range(query.k):
            col = eng.broadcast_to(eng.reshape(cols[j], (1, n)), (len(chunk), n))
            target = np.broadcast_to(
                chunk[:, j : j + 1].astype(np.uint64), (len(chunk), n)
            )
            e = sec_eq(eng, col, target, nbits=(sizes[j] - 1).bit_length())
            m = e if m is None else eng.mul(m, e)
        parts.append(eng.sum_axis(m, axis=1))
    return eng.concat(parts, axis=0)


def pi_comp(eng, partials_per_holder: list[dict], workload: Workload,
            qstar: list[Query], shared_data=None, schema: Schema | None = None):
    """Aggregate workload answers: local sums for covered queries, the
    equality-product protocol for Q*.

    Returns a dict query -> shared count vector. Reconstructions equal
    the plaintext marginals exactly in every partition mode.
    """
    if qstar and shared_data is None:
        raise OrchestrationError("Q* nonempty but no shared table supplied")
    qstar_set = set(qstar)
    answers = {}
    with eng.scope("pi_comp"):
        for q in workload.queries:
            if q in qstar_set:
                answers[q] = p_way_marginal(eng, shared_data, q, schema)
            else:
                acc = None
                for partials in partials_per_holder:
                    acc = partials[q] if acc is None else eng.add(acc, partials[q])
                answers[q] = acc
    return answers


def compute_workload_answers(eng, dataset: Dataset, plan: PartitionPlan,
                             workload: Workload):
    """End-to-end holder simulation: split, local shares, join, aggregate."""
    n, d = dataset.n, dataset.schema.dims
    plan.validate(n, d)
    local, qstar = split_queries(plan, n, workload)
    need_cells = bool(qstar)
    partials_per_holder, cells_per_holder = [], []
    for h in plan.holders:
        view = dataset.rows[h.rows[0] : h.rows[1]][:, list(h.attrs)]
        partials, cells = local_compute(
            eng, view, h, workload, dataset.schema, qstar, need_cells
        )
        partials_per_holder.append(partials)
        cells_per_holder.append(cells)
    shared_data = None
    if need_cells:
        shared_data = pi_join(eng, plan, cells_per_holder, n, d)
    return pi_comp(
        eng, partials_per_holder, workload, qstar, shared_data, dataset.schema
    )
