"""Categorical dataset ingestion and encoding.

CSV rows are interned into dense integer category ids, one domain per
column, in first-appearance order. An optional label column is split off
and never takes part in distance computation. Identical rows can be merged
into weighted records; every objective in this package is weight-linear,
so the merge is exact.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed input file or invalid dataset operation."""


@dataclass(frozen=True)
class AttributeDomain:
    """Ordered category universe of one attribute; a category's id is its position."""

    name: str
    categories: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.categories)) != len(self.categories):
            raise DatasetError(f"duplicate category strings in attribute {self.name!r}")

    @property
    def size(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class Schema:
    """Feature attribute domains plus the optional class-label domain."""

    attributes: tuple[AttributeDomain, ...]
    label_domain: AttributeDomain | None = None

    def __post_init__(self):
        if len(self.attributes) < 1:
            raise DatasetError("schema needs at least one feature attribute")

    @property
    def m(self) -> int:
        return len(self.attributes)

    def domain_sizes(self) -> np.ndarray:
        return np.array([a.size for a in self.attributes], dtype=np.int64)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CategoricalDataset:
    """Encoded categorical data: value matrix, weights, optional labels.

    ``values`` is an (n_records, m) int32 matrix of category ids.
    ``total_weight`` is the original row count; it equals ``weights.sum()``
    whether or not duplicates were merged. Arrays are frozen read-only, so
    a dataset is safe to share across threads.
    """

    schema: Schema
    values: np.ndarray
    weights: np.ndarray
    labels: np.ndarray | None
    source_rows: tuple[tuple[int, ...], ...]
    total_weight: int

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.ascontiguousarray(self.values, dtype=np.int32)))
        object.__setattr__(self, "weights", _readonly(np.ascontiguousarray(self.weights, dtype=np.int64)))
        if self.labels is not None:
            object.__setattr__(self, "labels", _readonly(np.ascontiguousarray(self.labels, dtype=np.int32)))
        if self.values.ndim != 2 or self.values.shape[1] != self.schema.m:
            raise DatasetError("value matrix shape does not match schema")
        if int(self.weights.sum()) != self.total_weight:
            raise DatasetError("record weights do not add up to total_weight")
        if (self.weights < 1).any():
            raise DatasetError("record weights must be positive")
        sizes = self.schema.domain_sizes()
        if (self.values < 0).any() or (self.values >= sizes[None, :]).any():
            raise DatasetError("category id out of domain range")

    @property
    def n_records(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.schema.m

    def __len__(self) -> int:
        return self.n_records

    def decode(self, values: np.ndarray) -> list[str]:
        """Map a vector of category ids back to the original text fields."""
        return [a.categories[int(v)] for a, v in zip(self.schema.attributes, values)]

    def label_name(self, label_id: int) -> str:
        if self.schema.label_domain is None:
            raise DatasetError("dataset has no label column")
        return self.schema.label_domain.categories[label_id]

    def distinct_value_count(self) -> int:
        return len(distinct_rows(self.values)[0])


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row of ``keys``, in first-appearance order,
    and each row's group: the position of its distinct row in that order."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)  # sorted distinct rows -> first-appearance order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.ravel()]


def _resolve_label_column(label_column, names: list[str] | None, n_cols: int) -> int:
    if isinstance(label_column, int):
        if not 0 <= label_column < n_cols:
            raise DatasetError(f"label column index {label_column} out of range (file has {n_cols} columns)")
        return label_column
    if names is None:
        raise DatasetError("label column by name requires a header row")
    try:
        return names.index(label_column)
    except ValueError:
        raise DatasetError(f"unknown label column {label_column!r}; header has {names}") from None


def load_csv(
    path,
    label_column: int | str | None = None,
    missing_token: str = "?",
    missing_policy: str = "treat-as-category",
    header: bool = False,
    delimiter: str = ",",
) -> CategoricalDataset:
    """Load a CSV of categorical text fields into an encoded dataset.

    Category ids are assigned in first-appearance order per column, which
    keeps downstream "first k distinct records" initialization reproducible.
    Under the default ``treat-as-category`` policy a missing token is interned
    like any other category; ``reject`` raises on the first occurrence.
    """
    if missing_policy not in ("treat-as-category", "reject"):
        raise DatasetError(f"unknown missing_policy {missing_policy!r}")
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    names: list[str] | None = None
    if header:
        if not rows:
            raise DatasetError(f"{path}: empty input")
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise DatasetError(f"{path}: empty input (no data rows)")

    row_offset = 2 if header else 1  # 1-based file line of the first data row
    n_cols = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise DatasetError(
                f"{path}: ragged row {i + row_offset} has {len(row)} fields, expected {n_cols}"
            )
    if n_cols == 0:
        raise DatasetError(f"{path}: rows have no fields")

    label_idx = None
    if label_column is not None:
        label_idx = _resolve_label_column(label_column, names, n_cols)
    feature_cols = [c for c in range(n_cols) if c != label_idx]
    if not feature_cols:
        raise DatasetError(f"{path}: no feature columns left after removing the label column")
    if names is None:
        names = [f"col{c}" for c in range(n_cols)]

    interns: list[dict[str, int]] = [{} for _ in feature_cols]
    label_intern: dict[str, int] = {}
    values = np.empty((len(rows), len(feature_cols)), dtype=np.int32)
    labels = np.empty(len(rows), dtype=np.int32) if label_idx is not None else None

    for i, row in enumerate(rows):
        for j, c in enumerate(feature_cols):
            tok = row[c]
            if missing_policy == "reject" and tok == missing_token:
                raise DatasetError(
                    f"{path}: missing value {missing_token!r} at row {i + row_offset}, "
                    f"column {names[c]!r} (policy=reject)"
                )
            table = interns[j]
            vid = table.get(tok)
            if vid is None:
                vid = len(table)
                table[tok] = vid
            values[i, j] = vid
        if labels is not None:
            tok = row[label_idx]
            lid = label_intern.get(tok)
            if lid is None:
                lid = len(label_intern)
                label_intern[tok] = lid
            labels[i] = lid

    attributes = tuple(
        AttributeDomain(name=names[c], categories=tuple(interns[j]))
        for j, c in enumerate(feature_cols)
    )
    label_domain = None
    if label_idx is not None:
        label_domain = AttributeDomain(name=names[label_idx], categories=tuple(label_intern))
    return CategoricalDataset(
        schema=Schema(attributes=attributes, label_domain=label_domain),
        values=values,
        weights=np.ones(len(rows), dtype=np.int64),
        labels=labels,
        source_rows=tuple((i,) for i in range(len(rows))),
        total_weight=len(rows),
    )


def dedupe(dataset: CategoricalDataset) -> CategoricalDataset:
    """Merge records with identical value vectors and identical labels.

    Weights are summed, first-appearance order is preserved, and
    ``total_weight`` is unchanged. Exact for every objective in this
    package: distances and category frequencies are weight-linear.
    """
    labels = dataset.labels
    keys = dataset.values if labels is None else np.column_stack([dataset.values, labels])
    reps, group = distinct_rows(keys)
    weights = np.zeros(reps.size, dtype=np.int64)
    np.add.at(weights, group, dataset.weights)
    merged: list[list[int]] = [[] for _ in range(reps.size)]
    for g, rows in zip(group.tolist(), dataset.source_rows):
        merged[g].extend(rows)
    source_rows = tuple(tuple(rows) for rows in merged)
    return CategoricalDataset(
        schema=dataset.schema,
        values=dataset.values[reps],
        weights=weights,
        labels=None if labels is None else labels[reps],
        source_rows=source_rows,
        total_weight=dataset.total_weight,
    )


def dataset_stats(dataset: CategoricalDataset) -> dict:
    """Summary counts: n (= total weight), m, per-attribute category counts, label histogram."""
    stats = {
        "n": dataset.total_weight,
        "n_records": dataset.n_records,
        "m": dataset.m,
        "category_counts": [a.size for a in dataset.schema.attributes],
        "attribute_names": [a.name for a in dataset.schema.attributes],
    }
    if dataset.labels is not None and dataset.schema.label_domain is not None:
        hist = np.zeros(dataset.schema.label_domain.size, dtype=np.int64)
        np.add.at(hist, dataset.labels, dataset.weights)
        stats["label_histogram"] = {
            dataset.schema.label_domain.categories[i]: int(hist[i]) for i in range(hist.size)
        }
    else:
        stats["label_histogram"] = None
    return stats


def random_dataset(
    n: int,
    m: int,
    max_categories: int,
    seed: int,
    n_labels: int = 0,
    min_categories: int = 1,
) -> CategoricalDataset:
    """Seeded random dataset for audits and benchmarks (unit weights)."""
    if n < 1 or m < 1 or max_categories < min_categories or min_categories < 1:
        raise DatasetError("invalid random_dataset parameters")
    rng = np.random.default_rng(seed)
    sizes = rng.integers(min_categories, max_categories + 1, size=m)
    values = np.empty((n, m), dtype=np.int32)
    for r in range(m):
        values[:, r] = rng.integers(0, sizes[r], size=n)
    attributes = tuple(
        AttributeDomain(name=f"a{r}", categories=tuple(f"v{c}" for c in range(sizes[r])))
        for r in range(m)
    )
    labels = None
    label_domain = None
    if n_labels > 0:
        labels = rng.integers(0, n_labels, size=n).astype(np.int32)
        label_domain = AttributeDomain(name="label", categories=tuple(f"L{c}" for c in range(n_labels)))
    return CategoricalDataset(
        schema=Schema(attributes=attributes, label_domain=label_domain),
        values=values,
        weights=np.ones(n, dtype=np.int64),
        labels=labels,
        source_rows=tuple((i,) for i in range(n)),
        total_weight=n,
    )
