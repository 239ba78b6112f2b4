"""k-median solvers over the simple matching metric, representatives restricted
to dataset members.

Two routes: deterministic exhaustive enumeration of all k-subsets (optimal for
the member-restricted objective, hence a 2-approximation to the unrestricted
mode objective), and seeded swap-based local search for instances where
enumeration is not affordable. Both need only distance rows d(j, .), and
each call picks their source once, from the input size: the n x n matrix
while it fits ``MATRIX_BUDGET``, rows computed on the fly past it, with
identical results. Every sum of weighted distances runs through one exact
sweep (:func:`_sweep`) over columns grouped by record weight.

The audits empirically certify the two bounds the approximation argument
rests on (:func:`audit_lemma1`, :func:`audit_lemma2`) and the scan against
its enumeration oracle (:func:`audit_oracle`). Each returns a
:class:`~catcluster.metric.AuditReport`, as the metric-axiom audit does. The
oracles they compare with, :func:`exhaustive_search_naive` and
:func:`brute_force_kmodes_objective`, enumerate every subset or partition
with plain counts, apart from the kernel and the sweep.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import CategoricalDataset, random_dataset, unsigned_dtype
from .metric import AuditReport, cluster_counts, hamming, heaviest, member_costs

# distance terms n * C(n, k) the scan may sum without force=True: 15 to 50 s
# on one thread at the 1e9 to 3.3e9 terms/s measured on 2 vCPUs
EXHAUSTIVE_GATE = 5 * 10**10
MATRIX_BUDGET = 1 << 30  # bytes: the largest n x n distance matrix a solver holds
_CHUNK = 512  # distance rows read per call: on the fly, every read encodes all n records again
_SCAN_BYTES = 1 << 18  # one block of minima: sets the peak memory of every sweep
# exact width of a group sum of at most max // m distances, one above the distances' width
_GROUP_SUM = {np.dtype(np.uint8): np.uint16, np.dtype(np.uint16): np.uint32, np.dtype(np.uint32): np.int64}
# fewest records of one weight value summed as a group: np.add.reduceat pays
# about 0.2 ns per term and 20 ns per group and row, einsum 0.5 ns per int32
# term (numpy 2.4.6, 2 vCPUs)
_GROUP_MIN = 64
_NO_COST = np.iinfo(np.int64).max  # marks a (prefix, completion) pair that is not a subset
# Lemma 2 audit instances: k medoids, at most N records, M attributes, CATEGORIES per attribute;
# the partition oracle enumerates k**n labelings, so these stay small
_LEMMA2_K, _LEMMA2_N, _LEMMA2_M, _LEMMA2_CATEGORIES = 2, 10, 4, 3


class InstanceTooLargeError(RuntimeError):
    """Refusal to run an enumeration whose cost the caller did not acknowledge."""


@dataclass(frozen=True)
class LocalSearchConfig:
    p: int = 1
    seed: int = 0
    min_relative_improvement: float = 1e-9
    max_steps: int = 1000
    restarts: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("swap width p must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not (math.isfinite(self.min_relative_improvement) and self.min_relative_improvement >= 0):
            raise ValueError("min_relative_improvement must be finite and >= 0")


@dataclass
class MedoidSolution:
    medoid_indices: tuple[int, ...]
    assignment: np.ndarray
    medoid_objective: int
    algorithm: str  # "exhaustive" | "local-search"
    guarantee: float | None  # mode-objective approximation factor; None when its premise failed


class _Columns(NamedTuple):
    """The summation axis of every sweep. The records whose weight value at
    least ``_GROUP_MIN`` records share come first, sorted by weight, stably,
    and cut into groups of one weight value and at most ``max(dtype) // m``
    records, ``dtype`` being one unsigned width above the distances' (uint16
    over uint8). A group's distances then sum exactly in ``dtype``, and the
    group sums times their weights exactly in int64. The other records, the
    tail, follow in weight order and are summed with their own weights, in
    int32 while m times their total weight fits, else in int64: a group of a
    few records costs more than it saves."""

    order: np.ndarray  # the record behind each column
    starts: np.ndarray  # first column of each group
    weights: np.ndarray  # each group's weight, int64
    dtype: type  # width in which one group's distances sum
    tail: np.ndarray  # weights of the last columns, summed one by one


def _columns(dataset: CategoricalDataset) -> _Columns:
    """The summation axis of ``dataset``'s sweeps (see :class:`_Columns`)."""
    dtype = _GROUP_SUM[np.dtype(unsigned_dtype(dataset.m))]
    cap = np.iinfo(dtype).max // dataset.m
    order = np.argsort(dataset.weights, kind="stable")
    weights = dataset.weights[order]
    runs = np.diff(np.flatnonzero(np.diff(weights, prepend=0, append=0)))  # records per weight value
    grouped = np.repeat(runs >= _GROUP_MIN, runs)
    order, head = np.r_[order[grouped], order[~grouped]], weights[grouped]
    position = np.arange(len(head))
    new_weight = np.diff(head, prepend=0) != 0
    first = np.maximum.accumulate(np.where(new_weight, position, 0))  # where each weight's run starts
    starts = np.flatnonzero((position - first) % cap == 0)
    tail = weights[~grouped]
    if dataset.m * int(tail.sum()) <= np.iinfo(np.int32).max:
        tail = tail.astype(np.int32)  # every partial sum fits
    return _Columns(order, starts, head[starts], dtype, tail)


def _distance_rows(values: np.ndarray, order: np.ndarray):
    """``rows(index)``: the distance rows d(j, .) of the records selected by
    ``index`` (a list or a slice), shape (count, n). Rows are records in file
    order; columns are the records in ``order``, the summation order of
    :func:`_columns`.

    While the n x n matrix takes at most ``MATRIX_BUDGET`` bytes it is built
    once and the rows are read from it (a contiguous slice is a view, not a
    copy); past that, each call computes its rows with :func:`hamming`. Both
    give the same integers, so the choice changes time and memory only.
    """
    n, m = values.shape
    columns = values[order]
    if n * n * np.dtype(unsigned_dtype(m)).itemsize <= MATRIX_BUDGET:
        return hamming(values, columns).__getitem__
    return lambda index: hamming(values[index], columns)


def _kept_base(rows, kept) -> np.ndarray:
    """Scan base of the medoids ``kept``: each record's distance to the
    nearest. With none kept it is the dtype's maximum, at least m, so every
    minimum the scan takes with it yields the other side."""
    block = rows(list(kept))
    return block.min(axis=0, initial=np.iinfo(block.dtype).max)


def cost_of_medoid_set(dataset: CategoricalDataset, indices) -> tuple[int, np.ndarray]:
    """Weighted nearest-medoid objective and assignment for a fixed medoid set.

    Assignment ties go to the lowest position within the medoid list.
    """
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate medoid indices in {idx}")
    if any(i < 0 or i >= dataset.n_records for i in idx):
        raise ValueError(f"medoid index out of range in {idx}")
    # the medoids as b: the kernel's tables cover k records, not all n
    columns = hamming(dataset.values, dataset.values[idx])
    assignment = np.argmin(columns, axis=1)  # first minimum = lowest position
    objective = int(dataset.weights @ columns.min(axis=1))
    return objective, assignment


def _sweep(rows, columns, bases, start):
    """sum_i w_i * min(bases[r, i], d(c, i)) for every row r of ``bases`` and
    every record c >= start: shape (len(bases), n - start), int64, exact.

    Each pass over the distance rows is one sweep. Rows are read ``_CHUNK``
    at a time, and their minima with all of ``bases`` taken in blocks of at
    most ``_SCAN_BYTES``. A block is summed per weight group of ``columns``
    by one ``np.add.reduceat`` in the group width, and the group sums times
    the group weights in int64; the tail columns add their terms by one
    ``einsum`` in the width of the tail weights.
    """
    n = len(columns.order)
    split = n - len(columns.tail)  # first tail column
    step = max(1, _SCAN_BYTES // bases.nbytes)  # rows per block of minima
    costs = np.empty((len(bases), n - start), dtype=np.int64)
    for s in range(start, n, _CHUNK):
        chunk = rows(slice(s, s + _CHUNK))
        for t in range(0, len(chunk), step):
            block = np.minimum(bases[:, None, :], chunk[None, t : t + step, :])
            sums = np.add.reduceat(block[..., :split], columns.starts, axis=2, dtype=columns.dtype)
            cost = sums @ columns.weights
            if split < n:
                cost += np.einsum("bcn,n->bc", block[..., split:], columns.tail)
            at = s - start + t
            costs[:, at : at + block.shape[1]] = cost
    return costs


def _best_extension(rows, columns, bases, after, excluded):
    """First row-major minimum of sum_i w_i * min(bases[r, i], d(c, i)) over the
    rows r of ``bases`` and the records c > after[r] (``after`` ascending) that
    are not ``excluded``: (cost, r, c), or None when no pair qualifies."""
    start = int(after[0]) + 1
    costs = _sweep(rows, columns, bases, start)
    invalid = (np.arange(start, len(excluded)) <= after[:, None]) | excluded[start:]
    costs[invalid] = _NO_COST
    r, t = divmod(int(np.argmin(costs)), costs.shape[1])  # first minimum, row-major
    if invalid[r, t]:
        return None
    return int(costs[r, t]), r, start + t


def _scan(rows, columns, base, excluded, size, share=(0, 1)):
    """Lowest (cost, subset) over the ascending ``size``-subsets of the records
    not ``excluded``, added to the medoids behind ``base`` (each record's
    distance to its nearest kept medoid, see :func:`_kept_base`); None when
    no subset exists.

    Python loops only over the (size - 2)-prefixes, in lexicographic order.
    For each, a block of next members j is taken at once, and all their
    completions c > j are scored by one array pass per block
    (:func:`_best_extension`); blocks are sized so that their minima take at
    most ``_SCAN_BYTES``. Only a strictly lower cost replaces the incumbent,
    so ties keep the lexicographically smallest subset; nothing is pruned.
    Size 1 is the one-row case: ``base`` itself is the block.

    ``share`` = (w, parts) scores only the (prefix, block) units whose
    ordinal in that order is w modulo parts, and at size 1 the one row only
    for w = 0: the parts shares of a scan cover each unit exactly once.
    """
    w, parts = share
    if size == 1:
        found = None if w else _best_extension(rows, columns, base[None, :], np.array([-1]), excluded)
        return None if found is None else (found[0], (found[2],))
    pool = np.flatnonzero(~excluded)
    n, row_bytes = len(base), base.nbytes
    end = len(pool) - 1  # the last pool member has no completion
    best, units = None, itertools.count()
    for positions in itertools.combinations(range(len(pool)), size - 2):  # pool positions of the prefix
        a, qbase = positions[-1] + 1 if positions else 0, None
        while a < end:
            # as many next members as keep their minima with all of their
            # completions within _SCAN_BYTES, and at least one
            width = n - 1 - int(pool[a])
            js = pool[a : min(end, a + max(1, _SCAN_BYTES // (width * row_bytes)))]
            a += len(js)
            if next(units) % parts != w:
                continue
            if qbase is None:  # the first block of this prefix that the share owns
                prefix = [int(x) for x in pool[list(positions)]]
                qbase = np.minimum(base, _kept_base(rows, prefix))
            bases = np.minimum(qbase, rows(js))
            found = _best_extension(rows, columns, bases, js, excluded)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], (*prefix, int(js[found[1]]), found[2]))
    return best


def exhaustive_search(
    dataset: CategoricalDataset, k: int, workers: int = 1, force: bool = False
) -> MedoidSolution:
    """Optimal medoid k-subset by a full scan of all k-subsets, ties broken by
    the lexicographically smallest index tuple.

    The result is optimal for the member-restricted objective, which bounds
    the unrestricted mode objective within a factor of 2. The scan sums
    n * C(n, k) weighted distance terms, exactly (see :func:`_sweep`), and
    skips no subset: Python loops
    over the (k-2)-prefixes only, and one array pass scores a block of next
    members with all of their completions (see :func:`_scan`). Instances of
    more than ``EXHAUSTIVE_GATE`` terms are refused unless ``force`` is set.
    ``workers`` threads, at most one per CPU, take turns at the scan's
    blocks of next members (the shares of :func:`_scan`); each finds its own
    lowest (cost, tuple), and the lowest of those wins, so the output is
    independent of their number.
    """
    n = dataset.n_records
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n * math.comb(n, k) > EXHAUSTIVE_GATE and not force:
        raise InstanceTooLargeError(
            f"exhaustive enumeration over {n} records at k={k} exceeds the gate of "
            f"{EXHAUSTIVE_GATE:.3g} distance terms, n * C(n, k); "
            "pass force=True (CLI: --force) to run anyway"
        )
    columns = _columns(dataset)
    rows = _distance_rows(dataset.values, columns.order)
    base, excluded = _kept_base(rows, ()), np.zeros(n, dtype=bool)
    parts = min(workers, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=parts) as ex:  # numpy releases the GIL
        found = ex.map(lambda w: _scan(rows, columns, base, excluded, k, (w, parts)), range(parts))
        results = [r for r in found if r is not None]  # a share may own no block

    best_cost, best_subset = min(results)  # by (cost, tuple): the smallest optimal tuple wins ties
    objective, assignment = cost_of_medoid_set(dataset, best_subset)
    if objective != best_cost:
        raise RuntimeError(f"scan cost {best_cost} != recomputed objective {objective}")
    return MedoidSolution(
        medoid_indices=best_subset,
        assignment=assignment,
        medoid_objective=objective,
        algorithm="exhaustive",
        guarantee=2.0,
    )


def exhaustive_search_naive(dataset: CategoricalDataset, k: int) -> MedoidSolution:
    """Enumeration oracle: full cost for every k-subset, one at a time, same
    tie rule as :func:`exhaustive_search`. Kept deliberately independent of
    the scan and of the distance kernel: distances are counted directly."""
    n = dataset.n_records
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    dist = (dataset.values[:, None, :] != dataset.values[None, :, :]).sum(axis=2)
    best: tuple[int, tuple[int, ...]] | None = None
    for subset in itertools.combinations(range(n), k):
        objective = int(dataset.weights @ dist[:, subset].min(axis=1))
        if best is None or objective < best[0]:
            best = (objective, subset)
    return MedoidSolution(
        medoid_indices=best[1],
        assignment=np.argmin(dist[:, best[1]], axis=1),  # first minimum = lowest position
        medoid_objective=best[0],
        algorithm="exhaustive",
        guarantee=2.0,
    )


def local_search(
    dataset: CategoricalDataset,
    k: int,
    config: LocalSearchConfig,
) -> MedoidSolution:
    """Swap-based local search: from a seeded random k-subset, repeatedly apply
    the best improving exchange of up to p medoids for equally many
    non-medoids, accepting only relative improvements of at least
    ``min_relative_improvement``; best of ``restarts`` restarts wins.

    A p-swap local optimum carries the known (3 + 2/p) factor for metric
    k-median, annotated here as 2 * (3 + 2/p) on the mode objective. The
    annotation is None when the winning restart is not one: it stopped on
    ``max_steps``, or the threshold refused a strictly improving swap.
    """
    n = dataset.n_records
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    columns = _columns(dataset)
    rows = _distance_rows(dataset.values, columns.order)
    rng = np.random.default_rng(config.seed)
    starts = [np.sort(rng.choice(n, size=k, replace=False)) for _ in range(config.restarts)]

    best_overall: tuple[int, tuple[int, ...], bool] | None = None
    for start in starts:
        medoids = [int(i) for i in start]
        cost, _ = cost_of_medoid_set(dataset, medoids)
        stable = False  # set once no strictly improving exchange of up to p medoids is left
        last = {}  # the last step's single-swap cost rows, by kept medoid set
        for _ in range(config.max_steps):
            swap = _best_swap(rows, columns, medoids, config.p, last)
            if swap is None or swap[0] >= cost:
                stable = True
                break
            new_cost, removals, additions = swap
            if cost - new_cost < config.min_relative_improvement * cost:
                break
            kept = [m for pos, m in enumerate(medoids) if pos not in removals]
            medoids = sorted(kept + list(additions))
            cost = new_cost
        candidate = (cost, tuple(medoids), stable)
        if best_overall is None or candidate[0] < best_overall[0]:
            best_overall = candidate

    objective, assignment = cost_of_medoid_set(dataset, best_overall[1])
    if objective != best_overall[0]:
        raise RuntimeError(f"swap bookkeeping cost {best_overall[0]} != recomputed objective {objective}")
    return MedoidSolution(
        medoid_indices=best_overall[1],
        assignment=assignment,
        medoid_objective=objective,
        algorithm="local-search",
        guarantee=2.0 * (3.0 + 2.0 / config.p) if best_overall[2] else None,
    )


def _single_swap_costs(rows, columns, medoids, last):
    """(k, n) int64 table of sum_i w_i * min(d(c, i), base_r(i)) for every
    removal position r and record c, base_r being the distance to the nearest
    medoid kept without position r (see :func:`_kept_base`).

    ``last`` maps kept medoid sets to their rows from the previous step and
    is refilled with this step's. After an accepted swap r -> c, removing c
    keeps exactly the set the previous step kept for removal r, so a step
    after the first has k - 1 fresh rows instead of k. The fresh rows come
    from one sweep, which reads or computes each distance row once.
    """
    kept_sets = [(*medoids[:r], *medoids[r + 1 :]) for r in range(len(medoids))]
    fresh = [kept for kept in kept_sets if kept not in last]
    if fresh:
        bases = np.stack([_kept_base(rows, kept) for kept in fresh])
        last.update(zip(fresh, _sweep(rows, columns, bases, 0)))
    table = {kept: last[kept] for kept in kept_sets}
    last.clear()
    last.update(table)
    return np.stack(list(table.values()))


def _best_swap(rows, columns, medoids, p, last):
    """Best (cost, removal positions, added indices) over swap sizes 1..p;
    None when every record is a medoid. Deterministic:
    sizes ascending, removal positions and additions in lexicographic order,
    strict improvement to move the incumbent.

    Size 1 is the first row-major minimum of :func:`_single_swap_costs` over
    the non-medoid columns, which reuses and refreshes ``last``; larger sizes
    run :func:`_scan` once per removal set.
    """
    k, n = len(medoids), len(columns.order)
    if k == n:
        return None
    costs = _single_swap_costs(rows, columns, medoids, last)
    costs[:, medoids] = _NO_COST
    r, c = divmod(int(np.argmin(costs)), n)  # first minimum, row-major
    best = (int(costs[r, c]), (r,), (c,))
    in_medoids = np.zeros(n, dtype=bool)
    in_medoids[medoids] = True
    for s in range(2, min(p, k, n - k) + 1):
        for removals in itertools.combinations(range(k), s):
            kept = [m for pos, m in enumerate(medoids) if pos not in removals]
            found = _scan(rows, columns, _kept_base(rows, kept), in_medoids, s)
            if found is not None and found[0] < best[0]:
                best = (found[0], removals, found[1])
    return best


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


def brute_force_kmodes_objective(dataset: CategoricalDataset, k: int, cap: int = 5_000_000) -> int:
    """Optimal mode objective by enumerating every assignment of records to k
    clusters and fitting modes per cluster. Exponential; guarded by ``cap`` on
    k**n * n."""
    n, m = dataset.n_records, dataset.m
    if k ** n * n > cap:
        raise InstanceTooLargeError(
            f"partition oracle over k^n = {k}^{n} assignments is too large"
        )
    rows = [tuple(int(v) for v in row) for row in dataset.values]
    weights = [int(w) for w in dataset.weights]
    sizes = [int(s) for s in dataset.schema.domain_sizes()]
    best = None
    for labeling in itertools.product(range(k), repeat=n):
        cost = 0
        for c in range(k):
            members = [i for i in range(n) if labeling[i] == c]
            if not members:
                continue
            total = sum(weights[i] for i in members)
            for r in range(m):
                counts = [0] * sizes[r]
                for i in members:
                    counts[rows[i][r]] += weights[i]
                cost += total - max(counts)
            if best is not None and cost >= best:
                break
        if best is None or cost < best:
            best = cost
    return best


def audit_lemma2(trials: int, seed: int) -> AuditReport:
    """On seeded random instances of ``_LEMMA2_K`` to ``_LEMMA2_N`` records,
    certify that the optimal member-restricted objective is at most twice the
    optimal mode objective. Figure: the largest ratio of the two."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    violations = []
    for _ in range(trials):
        n = int(rng.integers(_LEMMA2_K, _LEMMA2_N + 1))
        m = int(rng.integers(1, _LEMMA2_M + 1))
        inst_seed = int(rng.integers(0, 2**63 - 1))
        inst = random_dataset(n=n, m=m, max_categories=_LEMMA2_CATEGORIES, seed=inst_seed)
        medoid_opt = exhaustive_search_naive(inst, _LEMMA2_K).medoid_objective
        mode_opt = brute_force_kmodes_objective(inst, _LEMMA2_K)
        ratio = 1.0 if mode_opt == 0 else medoid_opt / mode_opt
        max_ratio = max(max_ratio, ratio)
        if medoid_opt > 2 * mode_opt:
            violations.append(
                {"instance_seed": inst_seed, "medoid_optimum": medoid_opt, "mode_optimum": mode_opt}
            )
    return AuditReport(trials, tuple(violations), {"max_ratio": max_ratio})


def audit_oracle(trials: int, seed: int) -> AuditReport:
    """On seeded random instances of 2 to 40 records and k <= 3, certify that
    :func:`exhaustive_search` returns the objective and the medoid tuple of
    the enumeration oracle :func:`exhaustive_search_naive`."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(trials):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, 7))
        cats = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(3, n) + 1))
        inst_seed = int(rng.integers(0, 2**63 - 1))
        inst = random_dataset(n=n, m=m, max_categories=cats, seed=inst_seed)
        scan, naive = exhaustive_search(inst, k), exhaustive_search_naive(inst, k)
        found = [[sol.medoid_objective, list(sol.medoid_indices)] for sol in (scan, naive)]
        if found[0] != found[1]:
            violations.append(
                {"instance_seed": inst_seed, "n": n, "k": k, "scan": found[0], "naive": found[1]}
            )
    return AuditReport(trials, tuple(violations))
