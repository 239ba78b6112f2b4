"""Lloyd-style k-modes heuristic.

Alternates nearest-representative assignment with frequency-based mode
updates, every cluster's mode read from one grouped category-count table,
until the assignment stops changing. Both half-steps are exact
minimizers of the integer objective given the other half fixed, so the
objective is non-increasing except across empty-cluster reseeds, which
every run checks; the run is deterministic for a given dataset and config.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset, DatasetError
from .metric import _blocks, cluster_counts, hamming, heaviest, member_costs

INIT_METHODS = ("first-k-distinct", "random")


@dataclass(frozen=True)
class KModesConfig:
    k: int
    init: str = "first-k-distinct"
    seed: int = 0
    max_iterations: int = 100

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.init not in INIT_METHODS:
            raise ValueError(f"unknown init {self.init!r}; choose from {INIT_METHODS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class KModesResult:
    assignment: np.ndarray
    modes: np.ndarray
    mode_objective: int
    iterations: int
    converged: bool
    # the objective after each iteration, and which iterations had an
    # empty-cluster reseed (iteration 0 is the initial assignment); the
    # objective never rises in an iteration without a reseed
    objective_history: tuple[int, ...]
    reseeded_iterations: tuple[int, ...]
    # the (k, sum of domain sizes) category-count table of ``assignment``
    counts: np.ndarray


def init_modes(dataset: CategoricalDataset, config: KModesConfig) -> np.ndarray:
    """Initial k mode vectors: the first k pairwise-distinct records in file
    order, or a seeded uniform draw of k distinct value vectors."""
    distinct = dataset.distinct_records
    if config.k > len(distinct):
        raise DatasetError(
            f"k={config.k} exceeds the {len(distinct)} distinct value vectors in the dataset"
        )
    if config.init == "first-k-distinct":
        chosen = distinct[: config.k]
    else:
        rng = np.random.default_rng(config.seed)
        picks = rng.choice(len(distinct), size=config.k, replace=False)
        chosen = distinct[picks]
    return dataset.values[chosen]


def assign_points(values: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Nearest-mode index per record, ties broken by lowest cluster index.

    The distances are taken one of :func:`_blocks` at a time, so beyond its
    int64 output the call holds the same memory whatever the number of
    records. The kernel holds less than two bytes per attribute and three
    per mode for a record on domains of at most 256 categories (first its
    codes, transposed and as digits; then its distances, the table rows
    added to them and its int64 index into a table)."""
    if modes.shape[0] == 0:
        raise ValueError("modes must be non-empty")
    out = np.empty(values.shape[0], dtype=np.int64)
    for block in _blocks(values.shape[0], 2 * values.shape[1] + 3 * modes.shape[0]):
        # first minimum = lowest cluster index
        np.argmin(hamming(values[block], modes), axis=1, out=out[block])
    return out


def _farthest_record(values: np.ndarray, modes: np.ndarray, c: int) -> int:
    """Index of the record farthest from mode ``c`` (ties by lowest record
    index) among those equal to no other mode, read in the blocks of
    :func:`assign_points`."""
    best, pick = -1, -1
    for block in _blocks(values.shape[0], 2 * values.shape[1] + 3 * modes.shape[0]):
        dists = hamming(values[block], modes)
        matched = dists == 0
        matched[:, c] = False
        d = np.where(matched.any(axis=1), -1, dists[:, c].astype(np.int64))
        i = int(np.argmax(d))  # first maximum = lowest record index
        if d[i] > best:  # strictly: an equal distance in a later block does not win
            best, pick = int(d[i]), block.start + i
    if best < 0:
        raise RuntimeError("no reseed candidate for empty cluster")
    return pick


def _reseed_empty_clusters(values, assignment, modes, k) -> tuple[np.ndarray, np.ndarray, bool]:
    """Reseed each empty cluster's mode with the record farthest from its
    current representative (ties by lowest record index), skipping records
    whose vector already serves as another cluster's mode, then reassign."""
    reseeded = False
    for _ in range(k + 1):
        counts = np.bincount(assignment, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return assignment, modes, reseeded
        reseeded = True
        modes = modes.copy()
        for c in empty:
            modes[c] = values[_farthest_record(values, modes, c)]
        assignment = assign_points(values, modes)
    raise RuntimeError("empty-cluster reseeding did not stabilize")


def run_kmodes(dataset: CategoricalDataset, config: KModesConfig) -> KModesResult:
    """Run the alternating heuristic until the assignment repeats or
    ``max_iterations`` is hit, recording the objective after each iteration
    and raising if it rises in an iteration without a reseed.

    An iteration whose updated modes equal the modes that made the current
    assignment (after its reseeds) reuses that assignment: assigning again
    would give it back with no empty cluster, so the run converges there
    without another pass over the records."""
    values, weights = dataset.values, dataset.weights
    sizes = dataset.schema.domain_sizes()
    k = config.k

    modes = init_modes(dataset, config)
    assignment = assign_points(values, modes)
    assignment, modes, reseeded = _reseed_empty_clusters(values, assignment, modes, k)
    counts = cluster_counts(values, weights, sizes, assignment, k)

    history: list[int] = []
    reseeded_iters: list[int] = [0] if reseeded else []
    for it in range(1, config.max_iterations + 1):
        # per attribute, a category of maximal weight in each cluster; first maximum = smallest id
        new_modes = heaviest(counts, sizes)[0].astype(values.dtype)
        if np.array_equal(new_modes, modes):  # the modes that made the assignment make it again
            new_assignment, reseeded = assignment, False
        else:
            new_assignment = assign_points(values, new_modes)
            new_assignment, new_modes, reseeded = _reseed_empty_clusters(values, new_assignment, new_modes, k)
        modes = new_modes  # after any reseed, the modes that made new_assignment
        if reseeded:
            reseeded_iters.append(it)
        converged = not reseeded and np.array_equal(new_assignment, assignment)
        if not converged:  # the table of the new assignment, which the next mode update reads
            assignment = new_assignment
            counts = cluster_counts(values, weights, sizes, assignment, k)
        # each mode's cost as its own cluster's representative, with no (n, m) block
        objective = int(member_costs(counts, sizes, modes, np.arange(k)).sum())
        if history and not reseeded and objective > history[-1]:
            raise RuntimeError(f"objective increased {history[-1]} -> {objective} at iteration {it}")
        history.append(objective)
        if converged:
            break

    return KModesResult(
        assignment=assignment,
        modes=modes,
        mode_objective=history[-1],
        iterations=it,
        converged=converged,
        objective_history=tuple(history),
        reseeded_iterations=tuple(reseeded_iters),
        counts=counts,
    )
