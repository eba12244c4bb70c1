"""Dataset artifacts and metrics: CSV + domain JSON ingestion, binning,
partition builders, standard workloads, and the workload-error report.

File formats are deliberately plain: comma-separated UTF-8 with a header
row for data, and a JSON document {"attrs": [{name, cardinality, bins?,
labels?}]} for the domain. Continuous attributes declare bin edges and
are discretized on load; labeled attributes map strings to indices.
A JSON input must have the objects, lists and integers its format names
(an integer is a JSON integer, never a float or a bool); anything else
raises ``IngestionError`` or ``ValueError`` naming the file, and is never
coerced.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .marginals import (
    AttrDomain,
    Dataset,
    Holding,
    PartitionPlan,
    Query,
    Schema,
    Workload,
    exact_marginal,
    horizontal_plan,
    vertical_plan,
)


class IngestionError(ValueError):
    """Input artifact does not parse or does not fit the domain."""


class MetricError(ValueError):
    """Metric inputs are unusable (empty data or schema mismatch)."""


def discretize(col, edges) -> np.ndarray:
    """Bin a real column into half-open intervals [e_i, e_{i+1}).

    Out-of-range values clamp to the first/last bin.
    """
    col = np.asarray(col, dtype=np.float64)
    if not np.all(np.isfinite(col)):
        raise IngestionError("continuous column contains non-finite values")
    edges = np.asarray(edges, dtype=np.float64)
    idx = np.searchsorted(edges, col, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2).astype(np.int64)


def _is_int(v) -> bool:
    """A JSON integer: an int and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_domain(path):
    """Parse a domain JSON file into (Schema, label maps by attribute)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise IngestionError(f"domain file {path}: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("attrs"), list):
        raise IngestionError(f"domain file {path}: missing 'attrs' list")
    attrs, labels = [], {}
    for spec in doc["attrs"]:
        if not isinstance(spec, dict):
            raise IngestionError(
                f"domain file {path}: attribute {json.dumps(spec)} is not an object")
        name = spec.get("name")
        if not name or not isinstance(name, str):
            raise IngestionError(f"domain file {path}: every attribute needs a name")
        card = spec.get("cardinality")
        bins = spec.get("bins")
        labs = spec.get("labels")
        if card is not None and not _is_int(card):
            raise IngestionError(
                f"domain file {path}: attribute {name!r}: cardinality "
                f"{json.dumps(card)} is not an integer")
        if bins is not None and not (isinstance(bins, list) and all(map(_is_number, bins))):
            raise IngestionError(
                f"domain file {path}: attribute {name!r}: bins must be a list of numbers")
        if labs is not None and not isinstance(labs, list):
            raise IngestionError(
                f"domain file {path}: attribute {name!r}: labels must be a list")
        if bins is not None:
            if card is not None and card != len(bins) - 1:
                raise IngestionError(
                    f"attribute {name!r}: cardinality {card} != {len(bins) - 1} bins")
            card = len(bins) - 1
        if labs is not None:
            if card is not None and card != len(labs):
                raise IngestionError(
                    f"attribute {name!r}: cardinality {card} != {len(labs)} labels")
            card = len(labs)
            labels[name] = [str(v) for v in labs]
        if card is None:
            raise IngestionError(
                f"attribute {name!r}: needs cardinality, bins, or labels")
        attrs.append(AttrDomain(name, card,
                                tuple(bins) if bins is not None else None))
    return Schema(tuple(attrs)), labels


def load_dataset(csv_path, domain_path) -> Dataset:
    """Read a CSV against a domain file; errors carry row/column context."""
    schema, labels = load_domain(domain_path)
    names = [a.name for a in schema.attrs]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != names:
            raise IngestionError(
                f"{csv_path}: header {header} does not match domain {names}")
        raw = [row for row in reader]
    n, d = len(raw), len(names)
    cols = np.empty((d, n), dtype=np.float64)
    for i, row in enumerate(raw):
        if len(row) != d:
            raise IngestionError(f"{csv_path}: row {i + 2} has {len(row)} cells, "
                                 f"expected {d}")
        for j, cell in enumerate(row):
            dom = schema.attrs[j]
            if dom.name in labels:
                try:
                    cols[j, i] = labels[dom.name].index(cell)
                except ValueError:
                    raise IngestionError(
                        f"{csv_path}: row {i + 2}, column {dom.name!r}: "
                        f"unknown label {cell!r}") from None
            else:
                try:
                    cols[j, i] = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{csv_path}: row {i + 2}, column {dom.name!r}: "
                        f"cannot parse {cell!r}") from None
    out = np.empty((n, d), dtype=np.int64)
    for j, dom in enumerate(schema.attrs):
        if dom.bin_edges is not None:
            out[:, j] = discretize(cols[j], dom.bin_edges)
        else:
            vals = cols[j]
            if np.any(vals != np.floor(vals)):
                bad = int(np.nonzero(vals != np.floor(vals))[0][0])
                raise IngestionError(
                    f"{csv_path}: row {bad + 2}, column {dom.name!r}: "
                    "categorical cell is not an integer index")
            if vals.size and (vals.min() < 0 or vals.max() >= dom.cardinality):
                bad = int(np.nonzero(
                    (vals < 0) | (vals >= dom.cardinality))[0][0])
                raise IngestionError(
                    f"{csv_path}: row {bad + 2}, column {dom.name!r}: "
                    f"index {int(vals[bad])} outside [0, {dom.cardinality})")
            out[:, j] = vals.astype(np.int64)
    return Dataset(out, schema)


def save_dataset(dataset: Dataset, path) -> None:
    """Write rows as integer category indices, comma-separated."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a.name for a in dataset.schema.attrs])
        writer.writerows(dataset.rows.tolist())


def partition(dataset: Dataset, mode: str, seed: int = 0):
    """Simulate a holder split; returns (canonical dataset, plan).

    horizontal:N shuffles rows (seeded) and hands out even contiguous
    blocks of the shuffled table, which becomes the canonical dataset;
    vertical:N assigns columns randomly and evenly; mixed:<file> reads an
    explicit tiling; central is the single-holder degenerate plan.
    """
    n, d = dataset.n, dataset.schema.dims
    if mode == "central":
        return dataset, horizontal_plan(n, d, 1)
    kind, _, arg = mode.partition(":")
    if kind == "horizontal":
        holders = _parse_holder_count(arg, mode)
        if holders > n:
            raise ValueError(f"cannot split {n} rows across {holders} holders")
        perm = np.random.default_rng(seed).permutation(n)
        shuffled = Dataset(dataset.rows[perm], dataset.schema)
        return shuffled, horizontal_plan(n, d, holders)
    if kind == "vertical":
        holders = _parse_holder_count(arg, mode)
        if holders > d:
            raise ValueError(
                f"cannot split {d} attributes across {holders} holders")
        cols = np.random.default_rng(seed).permutation(d)
        groups = [sorted(int(c) for c in g)
                  for g in np.array_split(cols, holders)]
        return dataset, vertical_plan(n, d, groups)
    if kind == "mixed":
        try:
            spec = json.loads(Path(arg).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            raise ValueError(f"mixed partition spec {arg!r}: {e}") from e
        if not isinstance(spec, list):
            raise ValueError(f"mixed partition spec {arg!r}: not a list of holdings")
        plan = PartitionPlan(tuple(_holding(h, arg) for h in spec))
        plan.validate(n, d)
        return dataset, plan
    raise ValueError(f"unknown partition mode {mode!r}")


def _holding(h, arg: str) -> Holding:
    """One mixed-spec entry {"rows": [start, stop], "attrs": [index, ...]}."""
    if not (isinstance(h, dict) and isinstance(h.get("rows"), list)
            and len(h["rows"]) == 2 and all(map(_is_int, h["rows"]))
            and isinstance(h.get("attrs"), list) and all(map(_is_int, h["attrs"]))):
        raise ValueError(
            f"mixed partition spec {arg!r}: holding {json.dumps(h)} is not "
            '{"rows": [start, stop], "attrs": [index, ...]} with integers')
    return Holding(tuple(h["rows"]), tuple(h["attrs"]))


def _parse_holder_count(arg: str, mode: str) -> int:
    try:
        holders = int(arg)
    except ValueError:
        raise ValueError(f"partition mode {mode!r}: holder count required") \
            from None
    if holders < 2:
        raise ValueError("distributed partitions need at least 2 holders")
    return holders


def build_workload(schema: Schema) -> Workload:
    """The all-2way workload: every singleton plus every pair."""
    d = schema.dims
    queries = [Query((j,)) for j in range(d)]
    queries += [Query(pair) for pair in combinations(range(d), 2)]
    queries.sort(key=lambda q: (len(q.attrs), q.attrs))
    return Workload(tuple(queries))


def load_workload(path, schema: Schema) -> Workload:
    """Workload JSON: {"queries": [[attr...], ...], "weights": [...]}
    or a bare list of queries; attrs by name or by JSON integer index in
    [0, d) (a float or a bool is not an index)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise IngestionError(f"workload file {path}: {e}") from e
    if isinstance(doc, list):
        doc = {"queries": doc}
    if not isinstance(doc, dict):
        raise IngestionError(f"workload file {path}: not an object or a list of queries")
    queries, weights = doc.get("queries", []), doc.get("weights", [])
    if not (isinstance(queries, list) and all(isinstance(q, list) for q in queries)):
        raise IngestionError(f"workload file {path}: queries must be a list of lists")
    if not (isinstance(weights, list) and all(map(_is_number, weights))):
        raise IngestionError(f"workload file {path}: weights must be a list of numbers")
    by_name = {a.name: j for j, a in enumerate(schema.attrs)}

    def resolve(a):
        if isinstance(a, str):
            if a not in by_name:
                raise IngestionError(f"unknown attribute {a!r} in workload")
            return by_name[a]
        if not _is_int(a):
            raise IngestionError(
                f"attribute {json.dumps(a)} in workload is neither a name nor an integer index")
        j = a
        if not 0 <= j < schema.dims:
            raise IngestionError(
                f"attribute index {j} in workload is outside [0, {schema.dims})")
        return j

    return Workload(tuple(Query(tuple(sorted(resolve(a) for a in q))) for q in queries),
                    tuple(float(w) for w in weights))


@dataclass(frozen=True)
class MetricsReport:
    workload_error: float
    per_query: tuple  # ((attrs...), error) pairs in workload order
    config: dict | None = None
    seed: int | None = None
    runtime_ms: float | None = None
    transcript: dict | None = None

    def __post_init__(self):
        errs = [e for _, e in self.per_query]
        mean = float(np.mean(errs)) if errs else 0.0
        if abs(mean - self.workload_error) > 1e-12:
            raise ValueError("workload error must equal the per-query mean")

    def to_json(self) -> dict:
        out = {
            "workload_error": self.workload_error,
            "per_query": [{"query": list(q), "error": e}
                          for q, e in self.per_query],
        }
        for key in ("config", "seed", "runtime_ms", "transcript"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def workload_error(real: Dataset, synth: Dataset,
                   workload: Workload, **extra) -> MetricsReport:
    """Mean L1 distance between frequency-normalized marginals."""
    if real.schema != synth.schema:
        raise MetricError("datasets must share a schema")
    if real.n == 0 or synth.n == 0:
        raise MetricError("workload error needs nonempty datasets")
    per_query = []
    for q in workload.queries:
        f_real = exact_marginal(real.rows, q, real.schema) / real.n
        f_syn = exact_marginal(synth.rows, q, synth.schema) / synth.n
        per_query.append((q.attrs, float(np.abs(f_real - f_syn).sum())))
    delta = float(np.mean([e for _, e in per_query]))
    return MetricsReport(delta, tuple(per_query), **extra)


def make_toy_dataset(n: int = 2000, seed: int = 108) -> Dataset:
    """Five categorical attributes with planted pairwise structure.

    a1 tracks a0 with small jitter and a3 tracks a2, so the (0,1) and
    (2,3) marginals carry most of the signal; a4 is independent filler
    with a skewed marginal.
    """
    rng = np.random.default_rng(seed)
    a0 = rng.choice(3, size=n, p=[0.5, 0.3, 0.2])
    a1 = (a0 + (rng.random(n) < 0.2) + (rng.random(n) < 0.05)) % 4
    a2 = rng.choice(2, size=n, p=[0.65, 0.35])
    a3 = np.clip(a2 + rng.choice(2, size=n, p=[0.75, 0.25]), 0, 2) \
        + (rng.random(n) < 0.1)
    a4 = rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1])
    schema = Schema((
        AttrDomain("a0", 3), AttrDomain("a1", 4), AttrDomain("a2", 2),
        AttrDomain("a3", 4), AttrDomain("a4", 4),
    ))
    rows = np.column_stack([a0, a1, a2, a3, a4]).astype(np.int64)
    return Dataset(rows, schema)
