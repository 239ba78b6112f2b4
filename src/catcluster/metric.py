"""Simple matching dissimilarity: the number of attributes two records disagree on.

The measure is a true metric on category-id vectors (non-negative, zero only
for equal vectors, symmetric, triangle inequality), which
``check_metric_properties`` certifies empirically on seeded random triples,
reading the distances from the kernel below.

Every distance and cluster cost in the package comes from one kernel. With X
the one-hot encoding of the codes, d(x, y) = m - <X_x, X_y>, so a block of
distances is one matrix product (:func:`hamming`). The column sums of w * X
within each cluster, the weighted category counts, form one (k, sum of domain
sizes) table (:func:`cluster_counts`); every cluster's mode and mode cost
(:func:`heaviest`) and every record's cost as its cluster's representative
(:func:`member_costs`) are read from it, without any pairwise block.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import CategoricalDataset, unsigned_dtype

_BLOCK_BYTES = 1 << 22  # one one-hot block; an a-side block with its scatter index and product
# each side is encoded again for every block of the other: fewer rows than
# this and the encoding, not the product, takes the time on wide domains
_MIN_BLOCK_ROWS = 256
_AUDIT_PAIRS = 128  # pairs whose distances the metric audit reads from one block
_COUNT_ROWS = 4096  # records one scatter of the count table takes: bounds its temporaries


def matrix_dtype(m: int):
    """Smallest unsigned integer width that holds a distance in [0, m]."""
    return unsigned_dtype(m)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """First one-hot column of each attribute."""
    return np.cumsum(sizes) - sizes


def _onehot(codes: np.ndarray, offsets: np.ndarray, width: int, dtype) -> np.ndarray:
    out = np.zeros((codes.shape[0], width), dtype=dtype)
    out[np.arange(codes.shape[0])[:, None], codes + offsets] = 1
    return out


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances d(a_i, b_j) between two code matrices, shape (len(a), len(b)),
    in the smallest unsigned width that holds m.

    Computed as m - onehot(a) @ onehot(b).T, each side encoded per block of
    rows and never whole. The product is float32 while m < 2**24: every
    product and partial sum is then an integer below 2**24, so the result is
    exact whatever the BLAS blocking or thread count.
    """
    m = a.shape[1]
    out = np.empty((a.shape[0], b.shape[0]), dtype=matrix_dtype(m))
    if out.size == 0:
        return out
    sizes = np.maximum(a.max(axis=0), b.max(axis=0)).astype(np.int64) + 1
    offsets, width = _offsets(sizes), int(sizes.sum())
    ftype = np.dtype(np.float32 if m < 1 << 24 else np.float64)
    b_rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (width * ftype.itemsize))
    for bs in range(0, b.shape[0], b_rows):
        xb = _onehot(b[bs : bs + b_rows], offsets, width, ftype)
        # an a-side row costs its one-hot row, its int64 scatter index and its row of the product
        a_rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // ((width + xb.shape[0]) * ftype.itemsize + m * 8))
        for s in range(0, a.shape[0], a_rows):
            # one expression: neither the one-hot block nor its product outlives this step
            np.subtract(m, _onehot(a[s : s + a_rows], offsets, width, ftype) @ xb.T,
                        out=out[s : s + a_rows, bs : bs + b_rows], casting="unsafe")
    return out


def cluster_counts(
    values: np.ndarray, weights: np.ndarray, sizes: np.ndarray, assignment: np.ndarray, k: int
) -> np.ndarray:
    """(k, sum of sizes) int64 table: the total weight of every (cluster,
    attribute, category) triple, each row in one-hot column order. Exact for
    any total weight that fits in int64.

    Built by ``np.add.at`` over blocks of ``_COUNT_ROWS`` records, so its
    code and weight temporaries never span all n * m entries.
    """
    offsets, width = _offsets(sizes), int(np.sum(sizes))
    first = np.asarray(assignment, dtype=np.int64) * width  # each record's row in the flat table
    weights = np.asarray(weights, dtype=np.int64)
    counts = np.zeros(k * width, dtype=np.int64)
    for s in range(0, values.shape[0], _COUNT_ROWS):
        block = slice(s, s + _COUNT_ROWS)
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
    table, with no pairwise block.
    """
    width = counts.shape[1]
    cells = np.asarray(assignment, dtype=np.int64)[:, None] * width + (values + _offsets(sizes))
    return counts.sum(axis=1)[assignment] - counts.ravel()[cells].sum(axis=1)


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

    def kernel(a, b):  # d(v[a_t], v[b_t]): the diagonals of small blocks of hamming
        out = np.empty(len(a), dtype=np.int64)
        for s in range(0, len(a), _AUDIT_PAIRS):
            block = slice(s, s + _AUDIT_PAIRS)
            out[block] = np.diagonal(hamming(v[a[block]], v[b[block]]))
        return out

    d_ij, d_ji, d_jk, d_ik = kernel(i, j), kernel(j, i), kernel(j, k), kernel(i, k)
    direct_ij = (v[i] != v[j]).sum(axis=1)
    direct_jk = (v[j] != v[k]).sum(axis=1)
    direct_ik = (v[i] != v[k]).sum(axis=1)
    equal_ij = (v[i] == v[j]).all(axis=1)

    violations = []

    def record_violations(mask: np.ndarray, axiom: str):
        for t in np.flatnonzero(mask):
            violations.append({"triple": [int(i[t]), int(j[t]), int(k[t])], "axiom": axiom})

    record_violations(
        (d_ij != direct_ij) | (d_ji != direct_ij) | (d_jk != direct_jk) | (d_ik != direct_ik),
        "kernel mismatch",
    )
    record_violations(d_ij < 0, "non-negativity")
    record_violations(equal_ij & (d_ij != 0), "identity: d(x,x) must be 0")
    record_violations(~equal_ij & (d_ij == 0), "positivity: d(x,y) must be > 0 for x != y")
    record_violations(d_ij != d_ji, "symmetry")
    record_violations(d_ij + d_jk < d_ik, "triangle inequality")

    return AuditReport(trials, tuple(violations), {"triples_checked": trials})
