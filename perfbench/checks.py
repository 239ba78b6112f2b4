"""Independent checks of the program's reports.

Everything here is recomputed with the benchmark's own numpy code from the
generated category codes; nothing calls into the package under test. Each
check returns a list of failure messages, empty when the report is correct.
Distances use a one-hot encoding: d(x, y) = m - <onehot(x), onehot(y)>, which
is exact in float32 because every value is an integer below 2**24.
"""
from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from planted import Planted, label_token

_CHECK_BLOCK = 1024  # candidate columns per block in the swap check


def onehot(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    out = np.zeros((values.shape[0], int(sizes.sum())), dtype=np.float32)
    out[np.arange(values.shape[0])[:, None], values + offsets] = 1.0
    return out


def distances(a: np.ndarray, b: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Hamming distances as float32 integers."""
    return np.float32(a.shape[1]) - onehot(a, sizes) @ onehot(b, sizes).T


def decode(rows) -> np.ndarray:
    return np.array([[ord(tok) - ord("a") for tok in row] for row in rows], dtype=np.int64)


def digest(assignment: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(assignment, dtype=np.int64).tobytes()).hexdigest()


def mode_cost(values, weights, assignment, k, sizes) -> int:
    """Sum over clusters and attributes of cluster weight minus the heaviest category's weight."""
    cost = 0
    for j, size in enumerate(sizes):
        counts = np.bincount(assignment * size + values[:, j], weights=weights, minlength=k * size)
        counts = counts.astype(np.int64).reshape(k, size)
        cost += int(counts.sum() - counts.max(axis=1).sum())
    return cost


def _partition_fields(report, planted: Planted, values, weights, labels, assignment, k) -> list[str]:
    """Checks shared by every `run` report: digest, cluster weights, mode
    objective and confusion counts of the reported partition."""
    errors = []
    sol = report["solution"]
    if sol["assignment_sha256"] != digest(assignment):
        errors.append("assignment_sha256 differs from the recomputed assignment")
    cluster_weights = np.bincount(assignment, weights=weights, minlength=k).astype(np.int64)
    if sol["cluster_weights"] != cluster_weights.tolist():
        errors.append(f"cluster_weights {sol['cluster_weights']} != {cluster_weights.tolist()}")
    objective = mode_cost(values, weights, assignment, k, planted.sizes)
    if report["objectives"]["mode_objective"] != objective:
        errors.append(f"mode_objective {report['objectives']['mode_objective']} != {objective}")
    conf = report["evaluation"]["confusion"]
    column = {name: i for i, name in enumerate(conf["labels"])}
    counts = np.zeros((k, len(column)), dtype=np.int64)
    label_cols = np.array([column[label_token(int(c))] for c in range(planted.modes.shape[0])])
    np.add.at(counts, (assignment, label_cols[labels]), weights)
    if conf["counts"] != counts.tolist():
        errors.append("confusion counts differ from the recomputed ones")
    return errors


def _medoid_partition(planted: Planted, medoids: list[int]):
    cols = distances(planted.values, planted.values[medoids], planted.sizes)
    assignment = np.argmin(cols, axis=1)  # first minimum = lowest position
    return cols, assignment


def check_exhaustive(report_bytes: bytes, reference_bytes: bytes, planted: Planted, k: int) -> list[str]:
    """Optimal objective and lexicographically smallest optimal tuple by a
    separate enumeration (k >= 2); the multi-worker report equals the
    one-worker one."""
    errors = []
    if report_bytes != reference_bytes:
        errors.append("--threads 2 report differs from the --threads 1 report")
    report = json.loads(report_bytes)
    n = planted.values.shape[0]
    d = distances(planted.values, planted.values, planted.sizes).astype(np.int64)
    best = None
    # prefixes in lexicographic order, every completion of a prefix at once
    for prefix in itertools.combinations(range(n - 1), k - 1):
        last = prefix[-1]
        base = d[:, list(prefix)].min(axis=1)
        costs = np.minimum(base[:, None], d[:, last + 1 :]).sum(axis=0)
        c = int(np.argmin(costs))  # first minimum = smallest last index
        if best is None or costs[c] < best[0]:
            best = (int(costs[c]), (*prefix, last + 1 + c))
    sol = report["solution"]
    if report["objectives"]["medoid_objective"] != best[0]:
        errors.append(f"medoid_objective {report['objectives']['medoid_objective']} != optimum {best[0]}")
    if tuple(sol["medoid_indices"]) != best[1]:
        errors.append(f"medoid_indices {sol['medoid_indices']} != smallest optimal tuple {list(best[1])}")
    _, assignment = _medoid_partition(planted, list(sol["medoid_indices"]))
    weights = np.ones(n, dtype=np.int64)
    errors += _partition_fields(report, planted, planted.values, weights, planted.labels, assignment, k)
    return errors


def check_local_search(report_bytes: bytes, planted: Planted, k: int, p: int) -> list[str]:
    """Objective recomputes; no single swap improves it by a cost unit or more;
    the objective is within 2(3 + 2/p) of the planted partition's mode cost."""
    errors = []
    report = json.loads(report_bytes)
    medoids = list(report["solution"]["medoid_indices"])
    if len(medoids) != k:
        return [f"expected {k} medoids, got {medoids}"]
    cols, assignment = _medoid_partition(planted, medoids)
    objective = int(cols.min(axis=1).astype(np.int64).sum())
    if report["objectives"]["medoid_objective"] != objective:
        errors.append(f"medoid_objective {report['objectives']['medoid_objective']} != {objective}")
    n = planted.values.shape[0]
    x = onehot(planted.values, planted.sizes)
    m = np.float32(planted.values.shape[1])
    best_swap = None
    for r in range(k):
        kept = np.delete(cols, r, axis=1)
        base = kept.min(axis=1) if kept.shape[1] else np.full(n, np.inf, dtype=np.float32)
        for s in range(0, n, _CHECK_BLOCK):
            block = m - x @ x[s : s + _CHECK_BLOCK].T
            costs = np.minimum(base[:, None], block).astype(np.int64).sum(axis=0)
            low = int(costs.min())
            best_swap = low if best_swap is None else min(best_swap, low)
    if best_swap < objective:
        errors.append(f"a single swap reaches {best_swap} < reported {objective}")
    weights = np.ones(n, dtype=np.int64)
    planted_cost = mode_cost(planted.values, weights, planted.labels, planted.modes.shape[0], planted.sizes)
    if objective > 2 * (3 + 2 / p) * planted_cost:
        errors.append(f"objective {objective} exceeds 2(3+2/p) x planted mode cost {planted_cost}")
    errors += _partition_fields(report, planted, planted.values, weights, planted.labels, assignment, k)
    return errors


def _dedupe(planted: Planted):
    """Distinct (values, label) rows in first-appearance order, with weights."""
    key = np.concatenate([planted.values, planted.labels[:, None]], axis=1)
    _, first, counts = np.unique(key, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return planted.values[first[order]], planted.labels[first[order]], counts[order].astype(np.int64)


def check_kmodes(report_bytes: bytes, reference_bytes: bytes, planted: Planted, k: int) -> list[str]:
    """The converged fixpoint holds on the deduplicated records, and the
    objectives and confusion counts equal those of a run without --dedupe."""
    errors = []
    report = json.loads(report_bytes)
    reference = json.loads(reference_bytes)
    sol = report["solution"]
    if not sol["converged"]:
        errors.append("k-modes did not report convergence")
    values, labels, weights = _dedupe(planted)
    modes = decode(sol["modes"])
    if modes.shape != (k, values.shape[1]):
        return errors + [f"expected {k} modes, got shape {modes.shape}"]
    assignment = np.argmin(distances(values, modes, planted.sizes), axis=1)
    errors += _partition_fields(report, planted, values, weights, labels, assignment, k)
    # each mode is a weighted mode of its cluster, ties to the category that
    # appears first in the file's column
    for j, size in enumerate(planted.sizes):
        counts = np.bincount(assignment * size + values[:, j], weights=weights, minlength=k * size)
        counts = counts.reshape(k, size)
        first_seen = np.full(size, planted.values.shape[0])
        cats, first = np.unique(planted.values[:, j], return_index=True)
        first_seen[cats] = first
        heaviest = counts == counts.max(axis=1, keepdims=True)
        expected = np.argmin(np.where(heaviest, first_seen[None, :], np.iinfo(np.int64).max), axis=1)
        if not np.array_equal(expected, modes[:, j]):
            errors.append(f"attribute {j}: reported modes are not the cluster modes")
            break
    if report["objectives"] != reference["objectives"]:
        errors.append(f"objectives {report['objectives']} differ without --dedupe: {reference['objectives']}")
    if report["evaluation"]["confusion"] != reference["evaluation"]["confusion"]:
        errors.append("confusion counts differ without --dedupe")
    return errors


def check_lemma1(report_bytes: bytes, trials: int) -> list[str]:
    """Passed, all trials counted, and every ratio in [1, 2]: the mode is the
    unrestricted optimum, so no ratio lies below 1."""
    errors = []
    report = json.loads(report_bytes)
    if report["passed"] is not True or report["violations"]:
        errors.append("lemma1 audit did not pass")
    if report["trials"] != trials:
        errors.append(f"trials {report['trials']} != {trials}")
    histogram = report["histogram"]
    if sum(count for _, _, count in histogram) != trials:
        errors.append("histogram does not count every trial in [0, 2]")
    if any(count for _, hi, count in histogram if hi <= 1.0):
        errors.append("histogram has mass below ratio 1")
    if not 1.0 <= report["max_ratio"] <= 2.0:
        errors.append(f"max_ratio {report['max_ratio']} outside [1, 2]")
    return errors
