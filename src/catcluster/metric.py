"""Simple matching dissimilarity: the number of attributes two records disagree on.

The measure is a true metric on category-id vectors (non-negative, zero only
for equal vectors, symmetric, triangle inequality), which
``check_metric_properties`` certifies empirically on seeded random triples,
reading the distances from the kernel below. Beside it, ``audit_lemma1``
certifies the paper's Lemma 1 on random subsets (the best member costs at
most twice the mode), from count tables alone.

Every distance in the package comes from one kernel, :func:`hamming`. It
packs consecutive attributes into groups of at most 256 joint categories and
gives each record one code per group; for a block of the other side's
records, each group gets a lookup table of how many of its attributes each
joint category disagrees on. A block of distances is then a sum of table
rows, one per group, in unsigned integers that never exceed m: exact, with
no float and no matrix product. The weighted category counts within each
cluster form one (k, sum of domain sizes) table (:func:`cluster_counts`);
every cluster's mode and mode cost (:func:`heaviest`) and every record's cost
as its cluster's representative (:func:`member_costs`) are read from it,
without any pairwise block.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import CategoricalDataset, unsigned_dtype

_BLOCK_BYTES = 1 << 22  # the lookup tables of one block of b rows, with the mismatch rows they sum
_ROW_BYTES = 1 << 18  # one block of distance rows, and again the table rows added to it: within a core's L2
_GROUP_CODES = 256  # most joint categories of one group of attributes: the rows of its table
_AUDIT_PAIRS = 256  # pairs whose distances the metric audit reads from one block
_PASS_BYTES = 1 << 20  # the temporaries of one block of records in a pass over them (:func:`_blocks`)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """First column of each attribute in a row of the count table."""
    return np.cumsum(sizes) - sizes


def _blocks(n: int, record_bytes: int):
    """Slices that cover records 0..n in order, each of at most
    ``_PASS_BYTES // record_bytes`` records and at least one: the one block
    rule of every pass over records, given the bytes it holds per record."""
    rows = max(1, _PASS_BYTES // record_bytes)
    return (slice(s, s + rows) for s in range(0, n, rows))


def _groups(sizes: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Consecutive attributes packed into groups whose domain sizes multiply
    to at most ``_GROUP_CODES``, an attribute above that alone in its group:
    each group's (first, end) attribute, and each attribute's place value in
    its group's mixed-radix code, the product of the sizes before it there.
    A one-category attribute joins a group as if it had two, so that every
    place value is below its group's code count and fits the codes' width."""
    starts, places, product = [], [], _GROUP_CODES + 1
    for r, size in enumerate(sizes):
        if product * max(size, 2) > _GROUP_CODES:
            starts.append(r)
            product = 1
        places.append(product)
        product *= size
    return list(zip(starts, starts[1:] + [len(sizes)])), places


def _tables(block: np.ndarray, sizes: list[int], groups, dtype) -> list[np.ndarray]:
    """Each group's lookup table for one block of b rows, in ``dtype``: row c
    holds, per b record, the number of the group's attributes on which joint
    category c differs from it.

    A table sums one mismatch row per attribute of its group. The mismatch
    rows come from one comparison: the row of (attribute r, category v <
    sizes[r]) marks the records whose category at r is not v, so a category
    that only b has differs from every one of a's."""
    offsets = list(itertools.accumulate(sizes, initial=0))
    attribute_of = np.repeat(np.arange(len(sizes)), sizes)
    category_of = (np.arange(offsets[-1]) - np.array(offsets)[attribute_of]).astype(unsigned_dtype(max(sizes) - 1))
    mismatch = np.empty((offsets[-1], block.shape[0]), dtype=dtype)
    np.not_equal(block.T[attribute_of], category_of[:, None], out=mismatch)
    tables = []
    for s, e in groups:
        # the group's last attribute varies slowest in its code: it indexes the leading axis
        table = mismatch[offsets[e - 1] : offsets[e]]
        for r in range(e - 2, s - 1, -1):
            table = (table[:, None] + mismatch[offsets[r] : offsets[r + 1]]).reshape(-1, block.shape[0])
        tables.append(table)
    return tables


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances d(a_i, b_j) between two code matrices, shape (len(a), len(b)),
    in the smallest unsigned width that holds m.

    Consecutive attributes form groups of at most ``_GROUP_CODES`` joint
    categories (:func:`_groups`, over the domain sizes of ``a``), and every a
    record gets one mixed-radix joint code per group. Each block of b rows
    gets one lookup table per group (:func:`_tables`), and a block of
    distance rows is the sum over the groups of the table rows its codes
    pick. These are integer adds whose total never exceeds m, so the result
    is exact by construction: no float, no product.
    """
    m = a.shape[1]
    dtype = np.dtype(unsigned_dtype(m))
    out = np.empty((a.shape[0], b.shape[0]), dtype=dtype)
    if out.size == 0:
        return out
    columns = np.ascontiguousarray(a.T)  # one row per attribute
    sizes = [top + 1 for top in columns.max(axis=1).tolist()]
    groups, places = _groups(sizes)
    joint = [math.prod(sizes[s:e]) for s, e in groups]  # rows of each group's table
    # each a record's joint code per group, (groups, len(a)), in the narrowest width
    code = unsigned_dtype(max(joint) - 1)
    digits = np.multiply(columns, np.array(places)[:, None], dtype=code, casting="unsafe")
    codes = np.empty((len(groups), a.shape[0]), dtype=code)
    for g, (s, e) in enumerate(groups):
        np.add.reduce(digits[s:e], axis=0, out=codes[g])
    del columns, digits  # the lookups need only the codes: less held per record

    # the tables of one b block and the mismatch rows they sum
    b_rows = max(1, _BLOCK_BYTES // ((sum(joint) + sum(sizes)) * dtype.itemsize))
    for bs in range(0, b.shape[0], b_rows):
        tables = _tables(b[bs : bs + b_rows], sizes, groups, dtype)
        nb = tables[0].shape[1]
        a_rows = max(1, _ROW_BYTES // (nb * dtype.itemsize))
        part = np.empty((min(a_rows, a.shape[0]), nb), dtype=dtype)
        # with b in one block, a block of out's rows is contiguous and sums in place
        total = None if nb == b.shape[0] else np.empty_like(part)
        for s in range(0, a.shape[0], a_rows):
            picks = codes[:, s : s + a_rows]
            rows, picked = picks.shape[1], part[: picks.shape[1]]
            acc = out[s : s + rows] if total is None else total[:rows]
            # every code is in range: "clip" only spares take its buffered bounds check
            np.take(tables[0], picks[0], axis=0, out=acc, mode="clip")
            for table, pick in zip(tables[1:], picks[1:]):
                np.take(table, pick, axis=0, out=picked, mode="clip")
                acc += picked
            if total is not None:
                out[s : s + rows, bs : bs + nb] = acc
    return out


def cluster_counts(
    values: np.ndarray, weights: np.ndarray, sizes: np.ndarray, assignment: np.ndarray, k: int
) -> np.ndarray:
    """(k, sum of sizes) int64 table: the total weight of every (cluster,
    attribute, category) triple, each row attribute by attribute and within
    one by category id. Exact for any total weight that fits in int64.

    Built by ``np.add.at`` over :func:`_blocks` of records, each holding an
    int64 cell index and an int64 weight per entry, 16 * m bytes a record.
    """
    offsets, width = _offsets(sizes), int(np.sum(sizes))
    first = np.asarray(assignment, dtype=np.int64) * width  # each record's row in the flat table
    weights = np.asarray(weights, dtype=np.int64)
    counts = np.zeros(k * width, dtype=np.int64)
    for block in _blocks(values.shape[0], 16 * values.shape[1]):
        cells = values[block] + offsets + first[block, None]
        np.add.at(counts, cells.ravel(), np.repeat(weights[block], values.shape[1]))
    return counts.reshape(k, width)


def heaviest(counts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a count table and per attribute, the first category of
    maximal count (the smallest id) and that count: two (k, m) arrays."""
    offsets = _offsets(sizes)
    top = np.maximum.reduceat(counts, offsets, axis=1)
    width = counts.shape[1]
    columns = np.where(counts == np.repeat(top, sizes, axis=1), np.arange(width), width)
    return np.minimum.reduceat(columns, offsets, axis=1) - offsets, top


def member_costs(
    counts: np.ndarray, sizes: np.ndarray, values: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """sum_i w_i * d(i, c) over the members i of c's own cluster, for every
    record c, int64.

    With W the cluster's total weight, a row of the count table sums to
    m * W, so the cost is m * W - sum_r count_r[v_cr]: O(n * m) from the
    table, with no pairwise block. Read over :func:`_blocks` of records,
    each holding int64 codes, cell indices and counts, 24 * m bytes a record.
    """
    width, offsets, flat = counts.shape[1], _offsets(sizes), counts.ravel()
    assignment = np.asarray(assignment, dtype=np.int64)
    costs = counts.sum(axis=1)[assignment]
    for block in _blocks(values.shape[0], 24 * values.shape[1]):
        costs[block] -= flat[assignment[block, None] * width + (values[block] + offsets)].sum(axis=1)
    return costs


@dataclass(frozen=True)
class AuditReport:
    """Outcome of an audit, as ``verify`` prints it: the number of trials, each
    violation as a JSON-ready record, and the suite's own ``figures`` (such
    as the largest cost ratio seen)."""

    trials: int
    violations: tuple[dict, ...]
    figures: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_metric_properties(dataset: CategoricalDataset, trials: int, seed: int) -> AuditReport:
    """Assert the four metric axioms on ``trials`` seeded random triples,
    with the distances read from :func:`hamming`, the kernel every solver
    runs. Each is also counted directly, attribute by attribute; a difference
    is a "kernel mismatch" violation.

    Violations are returned as data, not raised; any one indicates
    an implementation bug, never a property of the input data.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    v = dataset.values
    n = dataset.n_records
    i = rng.integers(0, n, size=trials)
    j = rng.integers(0, n, size=trials)
    k = rng.integers(0, n, size=trials)

    def kernel(a, b):  # d(v[a_t], v[b_t]) as the diagonals of small blocks of hamming, and counted directly
        out = np.empty((2, len(a)), dtype=np.int64)
        for s in range(0, len(a), _AUDIT_PAIRS):
            block = slice(s, s + _AUDIT_PAIRS)
            x, y = v[a[block]], v[b[block]]
            out[0, block] = np.diagonal(hamming(x, y))
            out[1, block] = (x != y).sum(axis=1)
        return out

    (d_ij, direct_ij), (d_ji, direct_ji) = kernel(i, j), kernel(j, i)
    (d_jk, direct_jk), (d_ik, direct_ik) = kernel(j, k), kernel(i, k)

    violations = []

    def record_violations(mask: np.ndarray, axiom: str):
        for t in np.flatnonzero(mask):
            violations.append({"triple": [int(i[t]), int(j[t]), int(k[t])], "axiom": axiom})

    record_violations(
        (d_ij != direct_ij) | (d_ji != direct_ji) | (d_jk != direct_jk) | (d_ik != direct_ik),
        "kernel mismatch",
    )
    record_violations(d_ij < 0, "non-negativity")
    record_violations((direct_ij == 0) & (d_ij != 0), "identity: d(x,x) must be 0")
    record_violations((direct_ij != 0) & (d_ij == 0), "positivity: d(x,y) must be > 0 for x != y")
    record_violations(d_ij != d_ji, "symmetry")
    record_violations(d_ij + d_jk < d_ik, "triangle inequality")

    return AuditReport(trials, tuple(violations), {"triples_checked": trials})


def audit_lemma1(dataset: CategoricalDataset, trials: int, seed: int) -> AuditReport:
    """Sample random non-empty record subsets; check that the best member
    representative costs at most twice the mode on every one. The 0/0 case
    (singleton or all-identical subsets) counts as ratio 1. Both costs come
    from the subset's one-cluster count table; no distance block is built.
    Figures: the largest ratio and a 20-bin histogram of the ratios over
    [0, 2], as [low, high, count] bins."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = dataset.n_records
    values, weights = dataset.values, dataset.weights
    sizes = dataset.schema.domain_sizes()

    ratios = np.empty(trials, dtype=np.float64)
    violations = []
    for t in range(trials):
        s = int(rng.integers(1, n + 1))
        idx = np.sort(rng.choice(n, size=s, replace=False))
        vs, one = values[idx], np.zeros(s, dtype=np.int64)
        counts = cluster_counts(vs, weights[idx], sizes, one, 1)
        medoid_cost = int(member_costs(counts, sizes, vs, one).min())
        m_cost = int(counts.sum()) - int(heaviest(counts, sizes)[1].sum())
        ratios[t] = 1.0 if m_cost == 0 else medoid_cost / m_cost
        if medoid_cost > 2 * m_cost:
            violations.append({"subset_size": s, "medoid_cost": medoid_cost, "mode_cost": m_cost})

    counts, edges = np.histogram(ratios, bins=20, range=(0.0, 2.0))
    histogram = [[float(edges[i]), float(edges[i + 1]), int(counts[i])] for i in range(len(counts))]
    return AuditReport(trials, tuple(violations), {"max_ratio": float(ratios.max()), "histogram": histogram})
