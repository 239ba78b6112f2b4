"""Clustering quality measurement: confusion matrix against true labels,
accuracy/error in exact rational arithmetic, and the two objective readings
(mode-based and member-restricted) for any partition, both read from one
grouped category-count table. A partition's clusters are 0 to its largest id.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import CategoricalDataset
from .metric import cluster_counts, heaviest, member_costs


def format_rounded(x, places: int = 3) -> str:
    """Decimal string rounded half-up, e.g. 59/435 -> '0.136'.

    Exact for Fraction input; floats are converted exactly first.
    """
    frac = x if isinstance(x, Fraction) else Fraction(x)
    if frac < 0:
        raise ValueError("negative values are not expected here")
    scale = 10 ** places
    units = math.floor(frac * scale + Fraction(1, 2))
    return f"{units // scale}.{units % scale:0{places}d}"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Weighted cluster-by-class contingency table."""

    counts: np.ndarray  # (k, L) int64
    label_names: tuple[str, ...]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_max_total(self) -> int:
        """Sum over clusters of the dominant class's weight."""
        if self.counts.size == 0:
            return 0
        return int(self.counts.max(axis=1).sum())

    def to_lists(self) -> list[list[int]]:
        return [[int(c) for c in row] for row in self.counts]

    def to_text(self, indent: str = "") -> str:
        header = ["cluster", *self.label_names]
        rows = [[str(i), *(str(int(c)) for c in row)] for i, row in enumerate(self.counts)]
        widths = [max(len(r[c]) for r in [header, *rows]) for c in range(len(header))]
        lines = [
            indent + "  ".join(cell.rjust(w) for cell, w in zip(r, widths))
            for r in [header, *rows]
        ]
        return "\n".join(lines)


def confusion(dataset: CategoricalDataset, assignment) -> ConfusionMatrix:
    """counts[i][j] = total weight of records in cluster i carrying class j,
    for i from 0 to the largest id of ``assignment``."""
    if dataset.labels is None:
        raise ValueError("confusion matrix needs a labeled dataset")
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (dataset.n_records,):
        raise ValueError(
            f"assignment shape {assignment.shape} does not cover {dataset.n_records} records"
        )
    label_names = tuple(dataset.schema.label_domain.categories)
    counts = np.zeros((int(assignment.max()) + 1, len(label_names)), dtype=np.int64)
    np.add.at(counts, (assignment, dataset.labels), dataset.weights)
    if int(counts.sum()) != dataset.total_weight:
        raise RuntimeError(f"confusion counts sum to {counts.sum()}, total weight is {dataset.total_weight}")
    return ConfusionMatrix(counts=counts, label_names=label_names)


def accuracy_error(matrix: ConfusionMatrix) -> tuple[Fraction, Fraction]:
    """Accuracy r = (sum of per-cluster dominant-class weights) / n and error
    e = 1 - r, both as exact rationals."""
    total = matrix.total
    if total <= 0:
        raise ValueError("empty confusion matrix")
    r = Fraction(matrix.row_max_total(), total)
    return r, 1 - r


def _partition_counts(dataset: CategoricalDataset, assignment):
    """The partition as int64 cluster ids and its (k, sum of sizes) count
    table, k one above the largest id; raises ValueError when a cluster
    below it is empty."""
    assignment = np.asarray(assignment, dtype=np.int64)
    members = np.bincount(assignment)
    if (members == 0).any():
        raise ValueError(f"cluster {int(np.argmin(members))} is empty")
    sizes = dataset.schema.domain_sizes()
    return assignment, cluster_counts(dataset.values, dataset.weights, sizes, assignment, len(members))


def objective_under_modes(dataset: CategoricalDataset, assignment, counts: np.ndarray | None = None) -> int:
    """Refit a mode on each cluster of the partition and sum the weighted
    distances; minimal over all per-cluster representative vectors. Per
    cluster and attribute that is the total weight minus the heaviest
    category's weight. ``counts`` is the partition's count table where the
    caller already holds it (a k-modes run ends with the one of its
    assignment); else it is built here."""
    if counts is None:
        _, counts = _partition_counts(dataset, assignment)
    return int(counts.sum()) - int(heaviest(counts, dataset.schema.domain_sizes())[1].sum())


def objective_under_medoids(dataset: CategoricalDataset, assignment) -> int:
    """Member-restricted objective of a partition: each cluster's best member
    representative, summed."""
    assignment, counts = _partition_counts(dataset, assignment)
    costs = member_costs(counts, dataset.schema.domain_sizes(), dataset.values, assignment)
    best = np.full(counts.shape[0], np.iinfo(np.int64).max)
    np.minimum.at(best, assignment, costs)
    return int(best.sum())


@dataclass(frozen=True)
class EvalReport:
    accuracy: Fraction
    error: Fraction
    mode_objective: int
    medoid_objective: int | None
    confusion: ConfusionMatrix

    def to_dict(self) -> dict:
        return {
            "accuracy": {
                "exact": f"{self.accuracy.numerator}/{self.accuracy.denominator}",
                "display": format_rounded(self.accuracy),
            },
            "error": {
                "exact": f"{self.error.numerator}/{self.error.denominator}",
                "display": format_rounded(self.error),
            },
            "mode_objective": self.mode_objective,
            "medoid_objective": self.medoid_objective,
            "confusion": {
                "labels": list(self.confusion.label_names),
                "counts": self.confusion.to_lists(),
            },
        }

    def to_text(self) -> str:
        rows = [
            ("accuracy", f"{format_rounded(self.accuracy)} ({self.accuracy})"),
            ("error", f"{format_rounded(self.error)} ({self.error})"),
            ("mode objective", str(self.mode_objective)),
        ]
        if self.medoid_objective is not None:
            rows.append(("medoid objective", str(self.medoid_objective)))
        width = max(len(name) for name, _ in rows)
        lines = [f"{name.ljust(width)}  {value}" for name, value in rows]
        lines.append("confusion matrix:")
        lines.append(self.confusion.to_text(indent="  "))
        return "\n".join(lines)


def evaluate(
    dataset: CategoricalDataset,
    assignment,
    medoid_objective: int | None = None,
    counts: np.ndarray | None = None,
) -> EvalReport:
    """Full quality report for a labeled dataset and a partition. For medoid
    solutions pass the solver's objective so both readings are reported;
    ``counts`` as in :func:`objective_under_modes`."""
    matrix = confusion(dataset, assignment)
    r, e = accuracy_error(matrix)
    return EvalReport(
        accuracy=r,
        error=e,
        mode_objective=objective_under_modes(dataset, assignment, counts=counts),
        medoid_objective=medoid_objective,
        confusion=matrix,
    )
