"""k-median solvers over the simple matching metric, representatives restricted
to dataset members.

Two routes: deterministic exhaustive enumeration of all k-subsets (optimal for
the member-restricted objective, hence a 2-approximation to the unrestricted
mode objective), which skips the subsets an exact Lagrangian lower bound
closes, and seeded swap-based local search for instances where
enumeration is not affordable. Both read their distances from one store
(:class:`_Store`), which holds each distance once, the metric being
symmetric, in column blocks of a summation order that groups the records by
weight. It is built once while it fits ``MATRIX_BUDGET`` and computed again
on every read past it, with identical results. Every sum of weighted
distances is one exact sweep over it (:func:`_sweep`). Candidates come back
by position in that order; ties are broken by record index all the same.

The audits empirically certify the bound on the optima that the
approximation argument rests on (:func:`audit_lemma2`) and the scan against
its enumeration oracle (:func:`audit_oracle`). Each returns a
:class:`~catcluster.metric.AuditReport`, as the metric-axiom audit does. The
oracles they compare with, :func:`exhaustive_search_naive` and
:func:`brute_force_kmodes_objective`, enumerate every subset or partition
with plain counts, apart from the kernel and the sweep. The per-subset bound
(Lemma 1) needs nothing but count tables, so its audit,
:func:`~catcluster.metric.audit_lemma1`, sits beside the metric-axiom audit,
and `verify --suite lemma1` loads no solver module.
"""
from __future__ import annotations

import bisect
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import CategoricalDataset, random_dataset, unsigned_dtype
from .metric import AuditReport, cluster_counts, hamming, member_costs

# distance terms n * C(n, k) the scan may sum without force=True: 15 to 50 s
# on one thread at the 1e9 to 3.3e9 terms/s measured on 2 vCPUs
EXHAUSTIVE_GATE = 5 * 10**10
MATRIX_BUDGET = 1 << 30  # bytes: the largest distance store a solver keeps (see _Store)
_BLOCK = 512  # columns per block of the distance store, which holds about n * _BLOCK / 2 more than n^2 / 2
_TILE_BYTES = 1 << 22  # rows of a block computed at once when the store is not kept
_SCAN_BYTES = 1 << 18  # one piece of minima: sets the peak memory of every sweep
# exact width of a group sum of at most max // m distances, one above the distances' width
_GROUP_SUM = {np.dtype(np.uint8): np.uint16, np.dtype(np.uint16): np.uint32, np.dtype(np.uint32): np.int64}
# fewest records of one weight value summed as a group: along a block's
# columns np.add.reduceat pays about 0.2 ns per term and 20 ns per group and
# row, along its rows a reduce per group about 4 us per piece of minima,
# einsum 0.5 ns per int32 term (numpy 2.4.6, 2 vCPUs)
_GROUP_MIN = 64
_BOUND_STEPS = 20  # the most subgradient steps the exhaustive scan's lower bound takes (see _lower_bound)
_BOUND_UNIT = 256  # those steps move each threshold in 1 / _BOUND_UNIT of a distance
_NO_COST = np.iinfo(np.int64).max  # marks a pair that is not a subset; caps a limit compared with int64
# Lemma 2 audit instances: k medoids, at most N records, M attributes, CATEGORIES per attribute;
# the partition oracle enumerates k**n labelings, so these stay small
_LEMMA2_K, _LEMMA2_N, _LEMMA2_M, _LEMMA2_CATEGORIES = 2, 10, 4, 3


class InstanceTooLargeError(RuntimeError, ValueError):
    """Refusal to run an enumeration whose cost the caller did not acknowledge.
    A ValueError too, so the CLI's ``main`` reports it without importing this
    module."""


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
    """The summation order of every sweep, which both axes of the distance
    store follow (:class:`_Store`), so the rows that are candidates and the
    columns that are summed share it. The records whose weight value at
    least ``_GROUP_MIN`` records share come first, sorted by weight, stably,
    and cut into groups of one weight value and at most ``max(dtype) // m``
    records, ``dtype`` being one unsigned width above the distances' (uint16
    over uint8). A group's distances then sum exactly in ``dtype``, and the
    group sums times their weights exactly in int64. The other records, the
    tail, follow in weight order and are summed with their own weights, in
    int32 while m times their total weight fits, else in int64: a group of a
    few records costs more than it saves."""

    order: np.ndarray  # the record at each position
    starts: np.ndarray  # first position of each group
    weights: np.ndarray  # each group's weight, int64
    dtype: type  # width in which one group's distances sum
    tail: np.ndarray  # weights of the last positions, summed one by one


def _columns(dataset: CategoricalDataset) -> _Columns:
    """The summation order of ``dataset``'s sweeps (see :class:`_Columns`)."""
    dtype = _GROUP_SUM[np.dtype(unsigned_dtype(dataset.m))]
    cap = np.iinfo(dtype).max // dataset.m
    order, weights = np.argsort(dataset.weights, kind="stable"), np.sort(dataset.weights)
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


class _Span(NamedTuple):
    """How :func:`_weigh` sums a span [lo, hi) of the summation axis: group by
    group up to its last group position, then its tail positions one by one."""

    bounds: list  # from lo: where each group's part of the span begins, then where the last ends
    weights: np.ndarray  # those groups' weights, int64
    tail: np.ndarray  # the weights of the span's tail positions


def _span(columns: _Columns, lo: int, hi: int) -> _Span:
    """The span [lo, hi) of ``columns`` (see :class:`_Span`)."""
    split = len(columns.order) - len(columns.tail)  # first tail position
    cut = min(max(lo, split), hi)  # the span's first tail position
    tail = columns.tail[cut - split : hi - split] if cut < hi else columns.tail[:0]
    if cut == lo:
        return _Span([0], columns.weights[:0], tail)
    first = bisect.bisect_right(columns.starts, lo) - 1  # the group of position lo
    end = bisect.bisect_left(columns.starts, cut, first)
    return _Span([0, *(columns.starts[first + 1 : end] - lo).tolist(), cut - lo], columns.weights[first:end], tail)


class _Store(NamedTuple):
    """Every distance d(q, p) once, on both axes in the summation order of
    :class:`_Columns` (position t is record ``columns.order[t]``), and the
    record weights in that order, which every cost the solvers sum reads.

    A staircase of column blocks: the block at s covers the positions
    [s, e), ``width`` of them or the rest, and holds d(q, p) for every
    q >= s and every p in it, shape (n - s, e - s); its top rows are the
    square of its own records. A pair is held by the block of its lower
    position, twice when both lie in one square. While the blocks take at
    most ``MATRIX_BUDGET`` bytes they are built once and kept; past that,
    ``blocks`` is None and every read computes its tiles with :func:`hamming`
    again. Both give the same integers, so the choice changes time and memory
    only."""

    columns: _Columns
    values: np.ndarray  # the records in summation order
    position: np.ndarray  # each record's position
    weights: np.ndarray  # the weight at each position, int64
    width: int  # columns per block, _BLOCK when it was built
    spans: list  # each block's columns as a _Span
    blocks: list | None  # the kept blocks, in position order


def _store(dataset: CategoricalDataset) -> _Store:
    """The distance store of ``dataset`` (see :class:`_Store`)."""
    columns = _columns(dataset)
    values = dataset.values[columns.order]
    n = len(values)
    position = np.empty(n, dtype=np.intp)
    position[columns.order] = np.arange(n)
    width = _BLOCK
    tops = range(0, n, width)
    spans = [_span(columns, s, min(s + width, n)) for s in tops]
    size = sum((n - s) * min(width, n - s) for s in tops) * np.dtype(unsigned_dtype(dataset.m)).itemsize
    # the block's records as hamming's b side: its tables span them, not all n - s rows
    blocks = [hamming(values[s:], values[s : s + width]) for s in tops] if size <= MATRIX_BUDGET else None
    return _Store(columns, values, position, dataset.weights[columns.order], width, spans, blocks)


def _tiles(store: _Store, s: int, lo: int):
    """(q, tile) pairs: the rows of the block at s from row lo on, as the
    kept block's view, or computed in tiles of at most ``_TILE_BYTES``, q
    being each tile's first row."""
    values = store.values
    if store.blocks is not None:
        yield lo, store.blocks[s // store.width][lo - s :]
        return
    itemsize = np.dtype(unsigned_dtype(values.shape[1])).itemsize  # of a distance
    step = max(1, _TILE_BYTES // (min(store.width, len(values) - s) * itemsize))
    for q in range(lo, len(values), step):
        yield q, hamming(values[q : q + step], values[s : s + store.width])


def _rows(store: _Store, index) -> np.ndarray:
    """Distance rows d(j, .) of the positions ``index``, shape (len(index), n),
    columns in position order."""
    index = np.asarray(index, dtype=np.intp)
    values, blocks, width = store.values, store.blocks, store.width
    if blocks is None:
        return hamming(values, values[index]).T  # the rows as b: tables over len(index) records
    if len(blocks) == 1:  # one square, symmetric
        return blocks[0][index]
    own = index // width  # the block of each position
    if len(index) and own.min() != own.max():  # one call per block of them
        out = np.empty((len(index), len(values)), dtype=blocks[0].dtype)
        for b in set(own.tolist()):  # np.unique's first call imports 1 MB of code
            out[own == b] = _rows(store, index[own == b])
        return out
    # positions in block b: their rows in the blocks up to b, then their columns below b's square
    b = int(own[0]) if len(index) else 0
    parts = [blocks[a][index - a * width] for a in range(b + 1)]
    return np.concatenate([*parts, blocks[b][blocks[b].shape[1] :, index - b * width].T], axis=1)


def _kept_base(store: _Store, kept) -> np.ndarray:
    """Base of the medoids at the positions ``kept``, the one rule of every
    sweep: each position's distance to the nearest, m where none is kept. A
    distance is at most m, so every minimum taken with the base yields it."""
    return _rows(store, kept).min(axis=0, initial=store.values.shape[1])


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


def _weigh(out: np.ndarray, block: np.ndarray, span: _Span, dtype, axis: int) -> None:
    """Add sum_i w_i * block[..., i, ...] along ``axis`` (1 or 2), whose
    positions are those of ``span``, to the int64 ``out``: exact. Each
    weight group's part sums in ``dtype`` (:class:`_Columns`) by one
    ``np.add.reduce``, and the group sums times the group weights in int64;
    the tail positions add their terms by one ``einsum`` in the width of the
    tail weights. Along the last axis, several groups sum by one
    ``np.add.reduceat``: a reduce call per group costs more there, and
    ``reduceat`` along the middle axis about 8 times as much."""
    along, bounds = (slice(None),) * axis, span.bounds
    if axis == 2 and len(span.weights) > 1:
        out += np.add.reduceat(block[..., : bounds[-1]], bounds[:-1], axis=2, dtype=dtype) @ span.weights
    else:
        for weight, a, b in zip(span.weights, bounds, bounds[1:]):
            sums = np.add.reduce(block[along + (slice(a, b),)], axis=axis, dtype=dtype)
            out += sums if weight == 1 else sums * weight
    if len(span.tail):
        terms = "bqp,p->bq" if axis == 2 else "bqp,q->bp"
        out += np.einsum(terms, block[along + (slice(bounds[-1], None),)], span.tail)


def _sweep(store: _Store, bases: np.ndarray, start: int) -> np.ndarray:
    """sum_i w_i * min(bases[r, i], d(c, i)) for every row r of ``bases`` and
    every position c >= start: shape (len(bases), n - start), int64, exact.

    One pass over the store reads each block once, from row start or its
    square on, and takes the minima of its tiles with all of ``bases`` in
    pieces of at most ``_SCAN_BYTES``. Each piece gives one or two sums (see
    :func:`_weigh`): over the block's columns, with their weights, for the
    candidates among its rows, square included; and, below the square, over
    its rows, with theirs, for the candidates among the block's columns. The
    square is symmetric, so its rows' sums serve its columns too.
    """
    n, columns = len(store.values), store.columns
    costs = np.zeros((len(bases), n - start), dtype=np.int64)
    for s, span in zip(range(0, n, store.width), store.spans):
        e = min(s + store.width, n)
        first = max(s, start)  # the block's first candidate, as a row and as a column
        step = max(1, _SCAN_BYTES // (bases.nbytes // n * (e - s)))  # rows per piece of minima
        for q, tile in _tiles(store, s, first):
            for t in range(0, len(tile), step):
                lo, rows = q + t, tile[t : t + step]
                hi = lo + len(rows)
                piece = np.minimum(bases[:, None, s:e], rows[None])
                _weigh(costs[:, lo - start : hi - start], piece, span, columns.dtype, 2)
                below = max(lo, e)  # the piece's first row under the square
                if first < e and below < hi:
                    piece = np.minimum(bases[:, below:hi, None], rows[None, below - lo :, first - s :])
                    _weigh(costs[:, first - start : e - start], piece, _span(columns, below, hi), columns.dtype, 1)
    return costs


def _smallest(records: np.ndarray) -> tuple[int, ...]:
    """The smallest subset, sorted, of the rows of ``records``, each a subset
    of record indices in any order."""
    subsets = np.sort(records, axis=1)
    return tuple(subsets[np.lexsort(subsets.T[::-1])[0] if len(subsets) > 1 else 0].tolist())


def _lower_bound(store: _Store, k: int):
    """(rho, limit) for the exhaustive scan at k >= 2 on ``store``: every
    k-subset S whose sum of rho over its positions exceeds ``limit`` costs
    more than a subset already known, so no optimal subset is among them.

    rho_x = sum_i w_i * min(d(x, i), b_i), w being the store's weights, for
    an integer threshold b_i in [0, m] per position i, and limit = U + (k - 1)
    * sum_i w_i * b_i, U being the cost of a p = 1 swap descent
    (:func:`_descend`) from the first k positions, with no threshold and the
    default cap of steps: where the cap stops it, U is higher and the bound
    closes less, still exactly. For each i, with x* the member of S nearest
    to it,
    sum_{x in S} min(d(x, i), b_i) <= d(x*, i) + (k - 1) * b_i; weighted and
    summed, sum_S rho - (k - 1) * sum_i w_i * b_i <= cost(S), the Lagrangian
    bound of the p-median problem (Beasley, EJOR 21, 1985). Any b gives a
    valid bound. Polyak subgradient steps towards U start from the descent's
    own distances, at most ``_BOUND_STEPS``, until the target stands still; of
    the b they visit, the one kept leaves the fewest positions x that may join
    an open subset (rho_x plus the k - 1 smallest rho within the limit), then
    bounds highest, as the highest alone can close less. The steps move b in
    fixed point, in units of 1 / ``_BOUND_UNIT``, and round it for each sweep:
    integers throughout, so the choice is the same on every machine, and no
    float loop of numpy is loaded. Each rho is at most m * total weight < 2**62
    (:class:`CategoricalDataset`): longer sums than two are Python ints."""
    order, weights, unit, m = store.columns.order, store.weights, _BOUND_UNIT, store.values.shape[1]
    cost, medoids, _ = _descend(store, order[:k], LocalSearchConfig(min_relative_improvement=0.0))
    target = _kept_base(store, store.position[list(medoids)]).astype(np.int64) * unit  # b, in 1 / unit
    best, highest, halved, stale = None, None, 0, 0
    for _ in range(_BOUND_STEPS):
        b = ((target + unit // 2) // unit).astype(unsigned_dtype(m))
        rho = _sweep(store, b[None, :], 0)[0]
        ranked = np.argsort(rho, kind="stable")
        total, lowest = int(weights @ b), rho[ranked[:k]].tolist()
        value, limit = sum(lowest) - (k - 1) * total, cost + (k - 1) * total  # the bound at this b
        # the positions x that rho_x and the k - 1 smallest rho keep within the limit, which may join an open subset
        joining = int((rho <= min(limit - sum(lowest[:-1]), _NO_COST)).sum())
        if best is None or (-joining, value) > best[0]:
            best = ((-joining, value), rho, limit)
        if highest is None or value > highest:
            highest, stale = value, 0
        elif (stale := stale + 1) == 2:  # halve the step after two steps that found no higher bound
            halved, stale = halved + 1, 0
        # a subgradient in u_i = w_i * b_i: 1 less the chosen within b_i, strictly
        slope = 1 - (_rows(store, ranked[:k]) < b).sum(axis=0)
        norm = int(slope @ slope)
        if value >= cost or not norm:
            break
        step = min(2 * (cost - value) * unit // (norm << halved), 2**62)  # in u, times unit
        target, last = np.clip(target + np.minimum(step // weights, m * unit) * slope, 0, m * unit), target
        if np.array_equal(target, last):  # it stands still: b, rho and the slope repeat, and no step grows
            break
    return best[1], best[2]


def _scan(store, base, excluded, size, bound, share=(0, 1)):
    """Lowest (cost, subset) over the open ``size``-subsets, size >= 2, of
    the positions not ``excluded``, added to the medoids behind ``base``
    (each position's distance to its nearest kept medoid, see
    :func:`_kept_base`); None when none is open. A subset is given by its
    record indices, sorted, and among subsets of one cost the smallest wins.

    ``bound`` = (rho, limit) closes the subsets whose sum of rho exceeds
    ``limit`` (:func:`_lower_bound`, :func:`_best_swap`; zero rho and limit 0
    close none): a prefix is skipped when even its cheapest pair of later
    positions does, and a next member j is dropped when even its cheapest
    completion c > j does. Suffix minima of rho make both tests O(1).

    Python loops only over the open (size - 2)-prefixes of positions, in
    lexicographic order. For each, a block of next members j is taken at
    once, sized so that its minima take at most ``_SCAN_BYTES``, and all
    their completions c > j are scored by one :func:`_sweep` from the
    block's first j + 1 on; a c <= j or ``excluded`` is masked out.

    ``share`` = (w, parts) scores only the (prefix, block) units whose
    ordinal in that order is w modulo parts: the parts shares of a scan
    cover each unit exactly once.
    """
    w, parts = share
    order = store.columns.order
    pool = np.flatnonzero(~excluded)
    n, row_bytes = len(base), base.nbytes
    end = len(pool) - 1  # the last pool member has no completion
    rho, limit = bound[0][pool], bound[1]
    lead = rho[:end] + np.minimum.accumulate(rho[::-1])[::-1][1:]  # rho_j + its cheapest completion's
    pair = np.minimum.accumulate(lead[::-1])[::-1].tolist()  # the cheapest pair j < c from each position on
    rho = rho.tolist()
    best, units = None, itertools.count()
    for positions in itertools.combinations(range(len(pool)), size - 2):  # pool positions of the prefix
        a, qbase = positions[-1] + 1 if positions else 0, None
        fixed = sum(rho[p] for p in positions)
        if a >= end or fixed + pair[a] > limit:
            continue
        nexts = pool[a:end][lead[a:] <= min(limit - fixed, _NO_COST)]  # the open next members
        i = 0
        while i < len(nexts):
            # as many next members as keep their minima with all of their
            # completions within _SCAN_BYTES, and at least one
            width = n - 1 - int(nexts[i])
            js = nexts[i : i + max(1, _SCAN_BYTES // (width * row_bytes))]
            i += len(js)
            if next(units) % parts != w:
                continue
            if qbase is None:  # the first block of this prefix that the share owns
                prefix = pool[list(positions)]
                qbase = np.minimum(base, _kept_base(store, prefix))
            start = int(js[0]) + 1
            costs = _sweep(store, np.minimum(qbase, _rows(store, js)), start)
            costs[(np.arange(start, n) <= js[:, None]) | excluded[start:]] = _NO_COST
            low = int(costs.min())
            if low == _NO_COST or (best is not None and low > best[0]):
                continue
            r, c = np.divmod(np.flatnonzero(costs == low), costs.shape[1])  # every pair at the lowest cost
            records = np.empty((len(r), size), dtype=np.intp)
            records[:, :-2], records[:, -2], records[:, -1] = order[prefix], order[js[r]], order[start + c]
            found = (low, _smallest(records))
            if best is None or found < best:
                best = found
    return best


def exhaustive_search(
    dataset: CategoricalDataset, k: int, workers: int = 1, force: bool = False
) -> MedoidSolution:
    """Optimal medoid k-subset by a scan of all k-subsets, ties broken by the
    lexicographically smallest index tuple.

    The result is optimal for the member-restricted objective, which bounds
    the unrestricted mode objective within a factor of 2. At k = 1 each
    record's cost is read from the one-cluster count table: no distance is
    summed, so no store, no thread and no gate. At k >= 2 an exact lower
    bound computed first (:func:`_lower_bound`) closes the subsets that cost
    more than one already known, never one at the optimum, and the scan
    scores the rest, exactly (see :func:`_scan` and :func:`_sweep`).
    Instances of more than ``EXHAUSTIVE_GATE`` terms, counted before the
    bound, are refused unless ``force`` is set. ``workers`` threads, at
    most one per CPU, take turns at the scan's blocks of next members (the
    shares of :func:`_scan`); the calling thread is one of them. Each finds
    its own lowest (cost, tuple), and the lowest of those wins; the bound is
    computed before they start, so the output and the units each scores are
    independent of their number.
    """
    n = dataset.n_records
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if k == 1:
        values, sizes, one = dataset.values, dataset.schema.domain_sizes(), np.zeros(n, dtype=np.int64)
        costs = member_costs(cluster_counts(values, dataset.weights, sizes, one, 1), sizes, values, one)
        best = int(np.argmin(costs))  # first minimum = lowest record index
        return _rechecked(dataset, int(costs[best]), (best,), "count table", "exhaustive", 2.0)
    if n * math.comb(n, k) > EXHAUSTIVE_GATE and not force:
        raise InstanceTooLargeError(
            f"exhaustive enumeration over {n} records at k={k} exceeds the gate of "
            f"{EXHAUSTIVE_GATE:.3g} distance terms, n * C(n, k); "
            "pass force=True (CLI: --force) to run anyway"
        )
    store = _store(dataset)
    base, excluded = _kept_base(store, ()), np.zeros(n, dtype=bool)
    bound = _lower_bound(store, k)
    parts = min(workers, os.cpu_count() or 1)
    found, errors = [], []

    def share(w):
        try:
            found.append(_scan(store, base, excluded, k, bound, (w, parts)))
        except BaseException as exc:  # raised again in the calling thread, once every share is done
            errors.append(exc)

    threads = [threading.Thread(target=share, args=(w,)) for w in range(1, parts)]  # numpy releases the GIL
    for t in threads:
        t.start()
    share(0)  # the calling thread takes share 0: one worker starts no thread
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    # by (cost, tuple): the smallest optimal tuple wins ties; a share may own no block
    cost, subset = min(r for r in found if r is not None)
    return _rechecked(dataset, cost, subset, "scan", "exhaustive", 2.0)


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
    """Swap-based local search: from each of ``restarts`` seeded random
    k-subsets, a p-swap descent (:func:`_descend`); the first restart of the
    lowest cost wins.

    A p-swap local optimum carries the known (3 + 2/p) factor for metric
    k-median, annotated here as 2 * (3 + 2/p) on the mode objective. The
    annotation is None when the winning restart is not one: it stopped on
    ``max_steps``, or the threshold refused a strictly improving swap.
    """
    n = dataset.n_records
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    store, rng = _store(dataset), np.random.default_rng(config.seed)
    starts = [rng.choice(n, size=k, replace=False) for _ in range(config.restarts)]
    # min keeps the first of equal costs
    cost, best, stable = min((_descend(store, start, config) for start in starts), key=lambda r: r[0])
    guarantee = 2.0 * (3.0 + 2.0 / config.p) if stable else None
    return _rechecked(dataset, cost, best, "swap bookkeeping", "local-search", guarantee)


def _rechecked(dataset, cost, medoids, source, algorithm, guarantee) -> MedoidSolution:
    """The solution at ``medoids`` once :func:`cost_of_medoid_set`, apart
    from the store, gives the ``cost`` that the solver's ``source`` found."""
    objective, assignment = cost_of_medoid_set(dataset, medoids)
    if objective != cost:
        raise RuntimeError(f"{source} cost {cost} != recomputed objective {objective}")
    return MedoidSolution(medoids, assignment, objective, algorithm, guarantee)


def _descend(store, medoids, config: LocalSearchConfig):
    """(cost, medoids, stable) of a p-swap descent on ``store``, costs
    weighed by its weights, from the record indices ``medoids``: each step
    makes the best exchange of up to ``config.p`` medoids for as many
    non-medoids (:func:`_best_swap`) while it lowers the cost by at least
    ``min_relative_improvement`` of it, for at most ``max_steps`` steps. The
    medoids come back sorted; ``stable`` is whether no strictly improving
    exchange was left."""
    medoids = sorted(int(i) for i in medoids)
    num, den = config.min_relative_improvement.as_integer_ratio()  # the threshold compared exactly
    cost = int(store.weights @ _kept_base(store, store.position[medoids]))
    last = {}  # the last step's single-swap cost rows, by kept medoid set
    for _ in range(config.max_steps):
        swap = _best_swap(store, medoids, config.p, last)
        if swap is None or swap[0] >= cost:
            return cost, tuple(medoids), True
        new_cost, removals, additions = swap
        if (cost - new_cost) * den < num * cost:
            break
        medoids = sorted([m for r, m in enumerate(medoids) if r not in removals] + list(additions))
        cost = new_cost
    return cost, tuple(medoids), False


def _best_swap(store, medoids, p, last):
    """Best (cost, removal positions, added indices) over swap sizes 1..p;
    None when every record is a medoid. Deterministic: sizes ascending,
    removal positions and additions in lexicographic order, strict
    improvement to move the incumbent. Each w_i below is the store's weight
    at position i.

    Size 1 is the first row-major minimum, over the non-medoids, of a (k, n)
    table: for each removal position r the row of sum_i w_i * min(d(c, i),
    b_i) over positions c put back in record order, b being the kept base
    (:func:`_kept_base`) of the medoids but r. ``last`` maps kept medoid sets
    to their rows from the previous step and is refilled with this step's.
    After an accepted swap r -> c, removing c keeps exactly the set the
    previous step kept for removal r, so a step after the first sweeps k - 1
    fresh rows instead of k, all in one sweep. A size s >= 2 runs
    :func:`_scan` once per removal set, under the bound of
    :func:`_lower_bound` at b = the kept base, with B = sum_i w_i * b_i:
    every added S costs at least sum_S rho - (s - 1) * B, so the limit, the
    incumbent's cost - 1 + (s - 1) * B, closes only what cannot move it.
    """
    k, n = len(medoids), len(store.values)
    if k == n:
        return None
    kept_sets = [(*medoids[:r], *medoids[r + 1 :]) for r in range(k)]
    fresh = [kept for kept in kept_sets if kept not in last]
    if fresh:
        bases = np.stack([_kept_base(store, store.position[list(kept)]) for kept in fresh])
        last.update(zip(fresh, _sweep(store, bases, 0)))
    rows = [last[kept] for kept in kept_sets]
    last.clear()
    last.update(zip(kept_sets, rows))
    costs = np.take(np.stack(rows), store.position, axis=1)
    costs[:, medoids] = _NO_COST
    r, c = divmod(int(np.argmin(costs)), n)  # first minimum, row-major
    best = (int(costs[r, c]), (r,), (c,))
    in_medoids = np.zeros(n, dtype=bool)
    in_medoids[store.position[medoids]] = True
    for s in range(2, min(p, k, n - k) + 1):
        for removals in itertools.combinations(range(k), s):
            kept = [m for pos, m in enumerate(medoids) if pos not in removals]
            b = _kept_base(store, store.position[kept])
            bound = _sweep(store, b[None, :], 0)[0], best[0] - 1 + (s - 1) * int(store.weights @ b)
            found = _scan(store, b, in_medoids, s, bound)
            if found is not None and found[0] < best[0]:
                best = (found[0], removals, found[1])
    return best


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
