"""Planted-cluster inputs for the benchmark.

Each input has k hidden mode vectors; every record is a copy of one mode in
which each attribute is, with probability ``flip``, replaced by a different
category of that attribute drawn uniformly. The record's true cluster is
written as label column 0 of the CSV. Category c of an attribute is written as
the letter ``chr(ord("a") + c)``, so the checks can decode any field the
program reports without reading the CSV back.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fixed domain sizes (2-8 categories) so that only the modes and the noise,
# not the shape of the input, depend on the seed.
_WIDE_SIZES = (6, 4, 8, 2, 8, 2, 2, 2, 8, 2, 5, 4, 4, 8, 8, 2, 4, 3, 5, 8, 6, 7)


@dataclass(frozen=True)
class Shape:
    n: int
    sizes: tuple[int, ...]
    k: int
    flip: float
    distinct: bool = False  # redraw the noise of repeated rows until every row is distinct


SHAPES = {
    # Congressional-votes-like: few records, so enumeration of 3-subsets is
    # the whole cost.
    "votes": Shape(n=150, sizes=(3,) * 16, k=3, flip=0.15),
    # Mushroom-like: 8124 records, all distinct like the real file. A fixed
    # record count after dedupe keeps the lemma1 audit's subset sizes, which
    # the program draws from its own seed and the record count, the same for
    # every input seed.
    "mushroom": Shape(n=8124, sizes=_WIDE_SIZES, k=2, flip=0.3, distinct=True),
    # Large k-modes input: flip noise of 0.14 leaves about a fifth of the
    # rows as exact duplicates, so --dedupe merges them into weights.
    "large": Shape(n=100_000, sizes=_WIDE_SIZES, k=20, flip=0.14),
}


@dataclass(frozen=True)
class Planted:
    """Generated input: category codes, true cluster per row, hidden modes."""

    values: np.ndarray  # (n, m) int64 codes
    labels: np.ndarray  # (n,) int64 true cluster
    modes: np.ndarray  # (k, m) int64 hidden mode vectors
    sizes: np.ndarray  # (m,) domain sizes


def generate(shape: Shape, seed: int) -> Planted:
    rng = np.random.default_rng(seed)
    sizes = np.asarray(shape.sizes, dtype=np.int64)
    m = sizes.size
    modes = rng.integers(0, sizes, size=(shape.k, m))
    # Rows 0..k-1 hold one record of each cluster, so that first-k-distinct
    # initialisation starts from one record per cluster and the number of
    # k-modes iterations does not depend on the seed. The rest are shuffled.
    labels = np.concatenate(
        [np.arange(shape.k), rng.permutation(np.arange(shape.n - shape.k) % shape.k)]
    )
    values = modes[labels]
    redraw = np.arange(shape.n)
    while redraw.size:
        flips = rng.random((redraw.size, m)) < shape.flip
        # a different category: add 1..size-1 modulo the domain size
        shift = (rng.random((redraw.size, m)) * (sizes - 1)).astype(np.int64) + 1
        values[redraw] = np.where(flips, (modes[labels[redraw]] + shift) % sizes, modes[labels[redraw]])
        if not shape.distinct:
            break
        _, first = np.unique(values, axis=0, return_index=True)
        redraw = np.setdiff1d(np.arange(shape.n), first)
    return Planted(values=values, labels=labels, modes=modes, sizes=sizes)


def label_token(c: int) -> str:
    return f"k{c}"


def write(planted: Planted, directory: Path) -> Path:
    """Write data.csv and truth.npz (hidden modes and true labels); returns the CSV path."""
    np.savez(directory / "truth.npz", modes=planted.modes, labels=planted.labels)
    n, m = planted.values.shape
    width = 2 * m + 1  # ",a,b,...,z\n" after the label
    body = np.full((n, width), ord(","), dtype=np.uint8)
    body[:, 1::2] = planted.values + ord("a")
    body[:, -1] = ord("\n")
    rows = body.tobytes()
    labels = [label_token(int(c)).encode() for c in planted.labels]
    path = directory / "data.csv"
    path.write_bytes(b"".join(lab + rows[i * width : (i + 1) * width] for i, lab in enumerate(labels)))
    return path
