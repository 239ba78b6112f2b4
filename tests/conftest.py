import functools
import random

import numpy as np
import pytest

from catcluster import CategoricalDataset, dedupe, load_csv
from catcluster.cli import NAMED_DATASETS, dataset_path
from catcluster.dataset import AttributeDomain, Schema


def dataset_from_rows(rows, labels=None, weights=None) -> CategoricalDataset:
    """Build a dataset directly from text rows, interning categories in
    first-appearance order exactly like the CSV loader."""
    rows = [[str(v) for v in row] for row in rows]
    n, m = len(rows), len(rows[0])
    attributes = []
    values = np.empty((n, m), dtype=np.int32)
    for j in range(m):
        seen: dict[str, int] = {}
        for i in range(n):
            seen.setdefault(rows[i][j], len(seen))
            values[i, j] = seen[rows[i][j]]
        categories = tuple(sorted(seen, key=seen.get))
        attributes.append(AttributeDomain(name=f"c{j}", categories=categories))

    label_domain = None
    label_ids = None
    if labels is not None:
        seen = {}
        for v in labels:
            seen.setdefault(str(v), len(seen))
        label_domain = AttributeDomain(name="label", categories=tuple(sorted(seen, key=seen.get)))
        label_ids = np.array([seen[str(v)] for v in labels], dtype=np.int32)

    w = (
        np.ones(n, dtype=np.int64)
        if weights is None
        else np.asarray(weights, dtype=np.int64)
    )
    return CategoricalDataset(
        schema=Schema(attributes=tuple(attributes), label_domain=label_domain),
        values=values,
        weights=w,
        labels=label_ids,
        total_weight=int(w.sum()),
    )


def _votes(rng: random.Random, n: int) -> list[list[str]]:
    """Votes-shaped rows: a party label and 16 y/n votes that mostly follow
    it, with about 4 % of the votes missing ("?")."""
    rows = []
    for _ in range(n):
        party = rng.choice(["democrat", "republican"])
        lean, other = ("y", "n") if party == "democrat" else ("n", "y")
        rows.append([party, *("?" if rng.random() < 0.04 else lean if rng.random() < 0.8 else other
                              for _ in range(16))])
    return rows


# the domain sizes of the 22 mushroom attributes
_MUSHROOM_SIZES = (6, 4, 8, 2, 8, 2, 2, 2, 8, 2, 5, 4, 4, 8, 8, 2, 4, 3, 5, 8, 6, 7)


def _mushroom(rng: random.Random, n: int) -> list[list[str]]:
    """Mushroom-shaped rows: an e/p label and 22 attributes copied from that
    label's hidden mode, each redrawn uniformly with probability 0.3."""
    modes = {label: [rng.randrange(size) for size in _MUSHROOM_SIZES] for label in "ep"}
    rows = []
    for _ in range(n):
        label = rng.choice("ep")
        rows.append([label, *("abcdefgh"[rng.randrange(size) if rng.random() < 0.3 else v]
                              for v, size in zip(modes[label], _MUSHROOM_SIZES))])
    return rows


@pytest.fixture
def four_point() -> CategoricalDataset:
    """{[a,a],[a,b],[c,d],[c,e]}: hand-enumerable k=2 instance with optimum 2."""
    return dataset_from_rows([["a", "a"], ["a", "b"], ["c", "d"], ["c", "e"]])


@pytest.fixture
def aq_cluster() -> CategoricalDataset:
    """{[a,p],[a,q],[b,q]}: mode [a,q] at cost 2; best member also costs 2."""
    return dataset_from_rows([["a", "p"], ["a", "q"], ["b", "q"]])


def _fetch_hint(name: str) -> str:
    filename = NAMED_DATASETS[name]["filename"]
    return (
        f"{name} dataset file not available in this environment; run "
        f"`catcluster fetch --name {name}` where network access exists, or place "
        f"{filename} under $CATCLUSTER_DATA_DIR or ./data"
    )


VOTES_PATH = dataset_path("votes")
MUSHROOM_PATH = dataset_path("mushroom")

needs_votes = pytest.mark.skipif(VOTES_PATH is None, reason=_fetch_hint("votes"))
needs_mushroom = pytest.mark.skipif(MUSHROOM_PATH is None, reason=_fetch_hint("mushroom"))


@functools.lru_cache(maxsize=None)
def _load_cached(name: str, deduped: bool) -> CategoricalDataset:
    path = {"votes": VOTES_PATH, "mushroom": MUSHROOM_PATH}[name]
    ds = load_csv(path, label_column=0)
    return dedupe(ds) if deduped else ds


@pytest.fixture
def votes_raw() -> CategoricalDataset:
    return _load_cached("votes", False)


@pytest.fixture
def votes() -> CategoricalDataset:
    return _load_cached("votes", True)


@pytest.fixture
def mushroom_raw() -> CategoricalDataset:
    return _load_cached("mushroom", False)


@pytest.fixture
def mushroom() -> CategoricalDataset:
    return _load_cached("mushroom", True)
