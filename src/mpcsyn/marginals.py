"""Workload marginals over partitioned data.

Data holders each own a rectangle of the logical table (a row range and
an attribute set). Queries whose attributes are fully owned by a set of
holders that exactly tile the rows are answered locally: each of those
holders shares its partial counts, and the partials are aggregated by
share addition (zero messages). The plan is public, so a holder shares
nothing for a query it does not answer. Every other query (Q*) is
computed from the assembled secret-shared table by the
equality-product counting protocol, which touches each row once per cell
and keeps counts exact: integers never pass through truncation.

Every shared cell lies in [0, cardinality): ``local_compute`` rejects a
holder's plaintext outside it before anything is shared. So a cell and a
candidate value differ by at most cardinality - 1 < 2^b with
b = (cardinality - 1).bit_length(), and each equality test runs at width
b. Each row of a column is opened under a mask once for all the
candidate values it meets, so the b mask bits, the opened word and the
floor(b/2) products that build the mask's 2-bit one-hots are paid per
row; a compared cell costs ceil(b/2) - 1 ANDs, none at b <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .fixed import as_word
from .rss import U64
from .primitives import sec_eq

DEFAULT_CELL_BUDGET = 100_000

# elements per equality batch when sweeping rows x cells
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
            if any(a >= b for a, b in zip(edges, edges[1:])) or np.isnan(edges).any():
                raise SchemaError(f"attribute {self.name!r}: bin edges must increase, none NaN")
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
        if min(attrs, default=0) < 0:
            raise ValueError(f"query attribute index {min(attrs)} is negative")
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
        if not all(0 <= w < np.inf for w in weights):
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "weights", weights)


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
        if min(self.attrs, default=0) < 0 or len(set(self.attrs)) != len(self.attrs):
            raise CoverageError(f"holding attributes {list(self.attrs)} are not "
                                "distinct nonnegative indices")

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

    Precondition: ``plan`` is valid for n rows (``PartitionPlan.validate``).
    The holders owning all of a query's attributes then cannot share a
    row, so they tile the rows exactly once iff their row counts sum to
    n: such a query stays local. Anything else is recomputed from the
    joined shared table.
    """
    local, qstar = [], []
    for q in workload.queries:
        rows = sum(h.n_rows for h in plan.holders if set(q.attrs) <= set(h.attrs))
        (local if rows == n else qstar).append(q)
    return local, qstar


def local_compute(
    eng,
    holder_rows: np.ndarray,
    holding: Holding,
    queries: list[Query],
    schema: Schema,
    share_cells: bool,
):
    """One holder's contribution: shares of its partial marginals.

    ``holder_rows`` is the holder's plaintext view, shaped
    (n_rows, len(holding.attrs)) in holding-attribute order, with every
    value in [0, cardinality) of its attribute (``SchemaError`` otherwise,
    raised before anything is shared). ``queries`` are the local queries
    (``split_queries``); the holder shares counts for those whose
    attributes it owns and nothing for the rest. When ``share_cells`` is
    set the raw cells are shared too, for the join.
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
    partials = {}
    for q in queries:
        if set(q.attrs) <= set(holding.attrs):
            local_view = holder_rows[:, [col_of[a] for a in q.attrs]]
            counts = exact_marginal(local_view, Query(tuple(range(q.k))),
                                    Schema(tuple(schema.attrs[a] for a in q.attrs)))
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
    from the public schema: ceil(b/2) - 1 ANDs per compared cell, and b
    mask bits, one opened word and floor(b/2) products per row, since
    each chunk of rows compares the (1, rows) slice of the column with
    all (cells, 1) values in one ``sec_eq``; the chunks' counts add up. A
    cell of 2^b or more breaks the width contract; the plaintext engine
    raises ``RangeContractError`` on it.

    The empty query's one cell counts every row: it is the public row
    count, a constant, with no protocol.
    """
    if not query.attrs:
        return eng.const_vec(as_word([shared_data.shape[0]]))
    sizes = [schema.attrs[a].cardinality for a in query.attrs]
    total = prod(sizes)
    if total > DEFAULT_CELL_BUDGET:
        raise CellBudgetError(
            f"marginal has {total} cells, over the budget of {DEFAULT_CELL_BUDGET}"
        )
    cell_values = np.stack(
        np.unravel_index(np.arange(total), sizes), axis=1
    )  # (total, k), row-major
    step = max(1, _CHUNK_ELEMS // total)
    counts = None
    # an empty table still runs one (empty) chunk, so its counts are zeros
    for start in range(0, max(shared_data.shape[0], 1), step):
        rows = slice(start, start + step)
        m = None
        for j, a in enumerate(query.attrs):
            col = eng.index(shared_data, (np.newaxis, rows, a))  # (1, rows)
            e = sec_eq(eng, col, cell_values[:, j : j + 1],
                       nbits=(sizes[j] - 1).bit_length())
            m = e if m is None else eng.mul(m, e)
        part = eng.sum_axis(m, axis=1)
        counts = part if counts is None else eng.add(counts, part)
    return counts


def pi_comp(eng, partials_per_holder: list[dict], workload: Workload,
            shared_data=None, schema: Schema | None = None):
    """Aggregate workload answers: the sum of the holders' partials where
    any holder answered a query, the equality-product protocol on the
    joined table for every other query (Q*).

    Returns a dict query -> shared count vector. Reconstructions equal
    the plaintext marginals exactly in every partition mode.
    """
    held = {q: [p[q] for p in partials_per_holder if q in p]
            for q in workload.queries}
    if shared_data is None and not all(held.values()):
        raise OrchestrationError("Q* nonempty but no shared table supplied")
    answers = {}
    with eng.scope("pi_comp"):
        for q, parts in held.items():
            if not parts:
                answers[q] = p_way_marginal(eng, shared_data, q, schema)
            else:
                answers[q] = reduce(eng.add, parts)
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
            eng, view, h, local, dataset.schema, need_cells
        )
        partials_per_holder.append(partials)
        cells_per_holder.append(cells)
    shared_data = None
    if need_cells:
        shared_data = pi_join(eng, plan, cells_per_holder, n, d)
    return pi_comp(eng, partials_per_holder, workload, shared_data, dataset.schema)
