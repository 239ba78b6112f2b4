"""Categorical dataset ingestion and encoding.

CSV rows are interned into dense integer category ids, one domain per
column, in first-appearance order. An optional label column is split off
and never takes part in distance computation. Identical rows can be merged
into weighted records; every objective in this package is weight-linear,
so the merge is exact.
"""
from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 4096  # CSV rows held as Python strings at a time by csv.reader
_CHUNK_BYTES = 1 << 16  # file bytes tokenized at a time by the byte path: 256 KiB broke the ingest memory bound
_HASH_SLOTS = 1 << 16  # most slots of a chunk's token hash table, so at most 127 distinct tokens
# odd 64-bit multipliers of the token hash, tried in order
_HASH_MULTIPLIERS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93)


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


def unsigned_dtype(top: int):
    """Smallest unsigned integer width that holds every integer in [0, top]:
    the width of category codes (``top`` = largest domain size - 1) and of
    distances (``top`` = m)."""
    if top < 1 << 8:
        return np.uint8
    if top < 1 << 16:
        return np.uint16
    return np.uint32


def _codes(ids, sizes: np.ndarray) -> np.ndarray:
    """Category ids checked against their domain sizes (one per column, or one
    for a vector) in the caller's integer dtype, so that no id wraps and no
    wider copy is made, then held read-only in the narrowest unsigned width
    of the largest domain."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise DatasetError(f"category ids must be integers, not {ids.dtype}")
    if ids.size and (ids.min() < 0 or (ids.max(axis=0) >= sizes).any()):
        raise DatasetError("category id out of domain range")
    return _readonly(np.ascontiguousarray(ids, dtype=unsigned_dtype(int(np.max(sizes, initial=0)) - 1)))


@dataclass(frozen=True)
class CategoricalDataset:
    """Encoded categorical data: value matrix, weights, optional labels.

    ``values`` is an (n_records, m) matrix of category ids and ``labels`` a
    vector of label ids, each in the narrowest unsigned width that holds its
    largest domain (:func:`unsigned_dtype`): uint8 up to 256 categories,
    uint16 up to 65 536, else uint32. Ids are checked against the domains in
    the dtype they are given in; cast them to a signed type before signed
    arithmetic. ``total_weight`` is the original row count; it equals
    ``weights.sum()`` whether or not duplicates were merged, and m times it,
    which bounds every objective, is below 2**62, so two sum in int64. Arrays
    are frozen read-only, so a dataset is safe to share across threads.
    """

    schema: Schema
    values: np.ndarray
    weights: np.ndarray
    labels: np.ndarray | None
    total_weight: int

    def __post_init__(self):
        if np.ndim(self.values) != 2 or np.shape(self.values)[1] != self.schema.m:
            raise DatasetError("value matrix shape does not match schema")
        object.__setattr__(self, "values", _codes(self.values, self.schema.domain_sizes()))
        object.__setattr__(self, "weights", _readonly(np.ascontiguousarray(self.weights, dtype=np.int64)))
        if self.labels is not None:
            domain = self.schema.label_domain
            if domain is None or np.shape(self.labels) != (self.n_records,):
                raise DatasetError("labels need a label domain and one label per record")
            object.__setattr__(self, "labels", _codes(self.labels, np.int64(domain.size)))
        if int(self.weights.sum()) != self.total_weight:
            raise DatasetError("record weights do not add up to total_weight")
        if (self.weights < 1).any():
            raise DatasetError("record weights must be positive")
        if self.m * int(self.total_weight) >= 2**62:
            raise DatasetError(f"m * total_weight = {self.m} * {self.total_weight} must be below 2**62")

    @property
    def n_records(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.schema.m

    def decode(self, values: np.ndarray) -> list[str]:
        """Map a vector of category ids back to the original text fields."""
        return [a.categories[int(v)] for a, v in zip(self.schema.attributes, values)]

    @cached_property
    def distinct_records(self) -> np.ndarray:
        """First index of each distinct value vector, in first-appearance order;
        computed on first use and then kept. :func:`dedupe` hands it to the
        dataset it builds, from the grouping pass that built it."""
        return _readonly(_group_rows(self.values, self.schema.domain_sizes())[0])


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of entries equal in every one of
    ``keys``, 1-D arrays of one length."""
    new = np.ones(keys[0].shape[0], dtype=bool)
    new[1:] = keys[0][1:] != keys[0][:-1]
    for key in keys[1:]:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _group_rows(
    values: np.ndarray,
    sizes: np.ndarray,
    weights: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    label_size: int = 1,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Group equal rows of ``values``, with ``labels`` as a last column when
    given, by stable sorts of packed keys. Codes must lie below ``sizes``
    (one per column) and labels below ``label_size``.

    Returns, with the groups in first-appearance order: the first row of
    each group; each group's summed ``weights`` (None without weights); and
    the groups that hold the first occurrence of a value vector, ascending,
    which are the ``distinct_records`` of the grouped records.

    Each row is packed into uint64 mixed-radix keys, a new key starting
    only where the product of its sizes would pass 2**64, and the label is
    the last digit of the last key. Sorted by each key in turn, the last
    first, the rows of one value vector lie next to each other whatever
    their labels, so the same pass gives the distinct value vectors.
    """
    columns, radix = list(values.T), list(map(int, sizes))
    if labels is not None:
        columns.append(labels)
        radix.append(int(label_size))
    keys, product = [np.zeros(values.shape[0], dtype=np.uint64)], 1
    for column, size in zip(columns, radix):
        if product * size > 1 << 64:
            keys.append(np.zeros(values.shape[0], dtype=np.uint64))
            product = 1
        keys[-1] *= np.uint64(size)
        keys[-1] += column
        product *= size
    # the arrays below are released as soon as they are used up: past the
    # keys and the permutation, the pass holds a few int64 entries per group
    perm = np.argsort(keys[-1], kind="stable")  # a group's first member is its first row
    for i in reversed(range(len(keys) - 1)):
        perm = perm[np.argsort(keys[i][perm], kind="stable")]
    for i in range(len(keys)):  # one key at a time, so at most one more n-long key is held
        keys[i] = keys[i][perm]
    starts = _run_starts(*keys)
    if labels is not None:  # the groups of one value vector are adjacent in key order
        keys = [key[starts] for key in keys]
        keys[-1] //= np.uint64(label_size)  # drop the label digit
        runs = _run_starts(*keys)
    del keys
    sums = None if weights is None else np.add.reduceat(weights[perm], starts)
    first = perm[starts]  # groups in key order
    del perm, starts
    order = np.argsort(first)  # key order -> first-appearance order
    if sums is not None:
        sums = sums[order]
    reps = first[order]
    del order
    if labels is None:  # every group is its own value vector
        distinct = np.arange(reps.size)
    else:  # a value vector first occurs at the earliest first row of its groups
        distinct = np.searchsorted(reps, np.sort(np.minimum.reduceat(first, runs)))
    return reps, sums, distinct


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
    like any other category; ``reject`` raises on its first occurrence in a
    feature column.
    Blank lines are skipped; error messages name the physical file line. A
    header row, when present, fixes the number of fields of every row.

    Two tokenizers give the same dataset. A regular file is read first as
    bytes, ``_CHUNK_BYTES`` (64 KiB) of whole lines at a time
    (:func:`_tokenize_bytes`), which takes plain ASCII fields of at most 8
    bytes. On any other input it declines, and the file is read again from
    its start by ``csv.reader``, ``_CHUNK_ROWS`` rows at a time
    (:func:`_tokenize_rows`); so is any source that is not a regular file,
    such as a pipe, which cannot be read twice. Only the ``csv.reader`` path
    raises on what it reads. Neither knows the missing-token policy: under
    ``reject`` the code blocks of the feature columns are scanned here, in
    file order, for the token's id, and the first hit's line is counted by
    ``csv.reader`` (:func:`_line_of`). Each chunk is encoded into a block of
    codes in the narrowest unsigned width of the largest table so far; the
    feature columns are copied from those narrow blocks into the dataset's
    own width, one block at a time.
    """
    if missing_policy not in ("treat-as-category", "reject"):
        raise DatasetError(f"unknown missing_policy {missing_policy!r}")
    path = Path(path)
    tokens = _tokenize_bytes(path, header, delimiter) if path.is_file() else None
    names, tables, blocks = tokens or _tokenize_rows(path, header, delimiter)
    n_cols, n_rows = len(tables), sum(map(len, blocks))

    label_idx = None if label_column is None else _resolve_label_column(label_column, names, n_cols)
    feature_cols = [c for c in range(n_cols) if c != label_idx]
    if not feature_cols:
        raise DatasetError(f"{path}: no feature columns left after removing the label column")
    names = names or [f"col{c}" for c in range(n_cols)]
    missing = [c for c in feature_cols if missing_token in tables[c]] if missing_policy == "reject" else []
    if missing:  # raise on the first data row, then column, that holds the token
        token_ids = [list(tables[c]).index(missing_token) for c in missing]
        for start, block in zip(itertools.accumulate(map(len, blocks), initial=0), blocks):
            hits = np.argwhere(block[:, missing] == token_ids)  # in row-major order
            if hits.size:
                row, c = start + int(hits[0, 0]), missing[hits[0, 1]]
                line = _line_of(path, delimiter, int(header) + row)
                raise DatasetError(
                    f"{path}: missing value {missing_token!r} at row {line}, column {names[c]!r} (policy=reject)"
                )

    attributes = tuple(AttributeDomain(name=names[c], categories=tuple(tables[c])) for c in feature_cols)
    values = np.empty((n_rows, len(feature_cols)), dtype=unsigned_dtype(max(a.size for a in attributes) - 1))
    start = 0
    for block in blocks:
        values[start : start + len(block)] = block.take(feature_cols, axis=1)
        start += len(block)
    labels = label_domain = None
    if label_idx is not None:
        labels = np.concatenate([block[:, label_idx] for block in blocks])
        label_domain = AttributeDomain(name=names[label_idx], categories=tuple(tables[label_idx]))
    return CategoricalDataset(
        schema=Schema(attributes=attributes, label_domain=label_domain),
        values=values,
        weights=np.ones(n_rows, dtype=np.int64),
        labels=labels,
        total_weight=n_rows,
    )


def _tokenize_rows(path: Path, header: bool, delimiter: str):
    """The file read by ``csv.reader``, ``_CHUNK_ROWS`` rows at a time: the
    header names (None without a header), each column's tokens in
    first-appearance order, and one narrow (chunk rows, columns) code block
    per chunk. Raises on an empty input, on a ragged row and on a row that
    ``csv.reader`` refuses (:func:`_csv_rows`)."""
    with open(path, newline="") as fh:
        rows = filter(None, _csv_rows(path, csv.reader(fh, delimiter=delimiter)))  # a blank line reads as []
        names = [c.strip() for c in next(rows, ())] if header else None  # [] only if the file is empty
        first = next(rows, None)
        if first is None:
            raise DatasetError(f"{path}: empty input" + ("" if names == [] else " (no data rows)"))

        n_cols = len(first) if names is None else len(names)  # a header fixes the width
        tables: list[dict[str, int]] = [{} for _ in range(n_cols)]
        blocks: list[np.ndarray] = []  # one narrow (chunk rows, n_cols) id block per chunk
        n_rows = 0
        rows = itertools.chain([first], rows)
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {n_cols}:
                bad = next(i for i, row in enumerate(chunk) if len(row) != n_cols)
                raise DatasetError(
                    f"{path}: ragged row {_line_of(path, delimiter, int(header) + n_rows + bad)} "
                    f"has {len(chunk[bad])} fields, expected {n_cols}"
                )
            block = np.empty((len(chunk), n_cols), dtype=np.int32)
            for c, col in enumerate(zip(*chunk)):
                table = tables[c]
                unseen = [tok for tok in dict.fromkeys(col) if tok not in table]
                table.update(zip(unseen, itertools.count(len(table))))
                block[:, c] = operator.itemgetter(*col)(table)  # a 1-row chunk gives a scalar
            blocks.append(block.astype(unsigned_dtype(max(map(len, tables)) - 1)))
            n_rows += len(chunk)
    return names, tables, blocks


def _csv_rows(path: Path, reader):
    """The rows of ``reader``, a ``csv.reader`` of ``path``; a row it refuses,
    say for a field past ``csv.field_size_limit()``, raises DatasetError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None


def _line_chunks(fh):
    """A binary file's bytes in pieces of about ``_CHUNK_BYTES`` that end at
    a newline; a last line without one is given one. A line longer than a
    read is gathered from its pieces once, not copied on every read."""
    pieces: list[bytes] = []  # since the last newline
    while data := fh.read(_CHUNK_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pieces, data[:cut]])
            pieces = []
            data = data[cut:]
        pieces.append(data)
    if rest := b"".join(pieces):
        yield rest + b"\n"


def _tokenize_bytes(path: Path, header: bool, delimiter: str):
    """:func:`_tokenize_rows`' result for a file of plain ASCII fields of at
    most 8 bytes, read as bytes. None (decline) for a file that needs
    ``csv.reader``'s rules or an error message: a quote, a CR, a NUL or a
    byte >= 0x80, a longer data field, a row whose field count is not the
    first row's (or the header's), or no data row. None too for a chunk
    whose columns times distinct tokens exceed both its byte count and
    65 536, so that its two int64 tables of (column, token) cells hold at
    most 16 bytes per byte of text, 1 MiB for a 64 KiB chunk.

    Each chunk of whole lines is split at every delimiter and newline, and
    blank lines are dropped. A field's bytes, read through a stride-1 uint64
    view and masked by the field's length, form one little-endian integer
    key, so tokens compare as integers. The chunk's distinct keys come from
    one sort and each field's token from :func:`_token_ids`. One
    ``np.minimum.at`` finds where each (column, token) cell first appears;
    only the cells met go through Python, in that order, to extend the
    column tables, and one gather through the resulting lookup table gives
    the chunk's codes. ``words.take(starts)`` copies the overlapping view,
    8 bytes per chunk byte, and about ten 8-byte arrays per field live until
    the next chunk rebinds them (a 2.6 MB ``load_csv`` peak on 8124 rows of
    23 one-byte fields). Deleting them at each chunk's end made the
    allocator return their pages and fault them in again: 29 908 minor
    faults against 6 334, and 0.16 s against 0.11, on 100 000 such rows.
    """
    if len(delimiter) != 1 or delimiter in '"\r\n\0' or not delimiter.isascii():
        return None
    masks = np.array([(1 << 8 * size) - 1 for size in range(9)], dtype=np.uint64)
    names = None
    tables: list[dict[int, int]] = []  # per column, token key -> id
    blocks: list[np.ndarray] = []
    with open(path, "rb") as fh:
        for chunk in _line_chunks(fh):
            # bytes that csv.reader reads apart, or that need decoding
            if not chunk.isascii() or b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                return None
            if header and names is None:
                line, _, chunk = chunk.lstrip(b"\n").partition(b"\n")
                if not line:  # only blank lines so far
                    continue
                if len(line) > csv.field_size_limit():  # csv.reader may refuse a name this long
                    return None
                names = [c.strip() for c in line.decode("ascii").split(delimiter)]
                if not chunk:
                    continue
            raw = np.frombuffer(chunk, dtype=np.uint8)
            ends = np.flatnonzero((raw == ord(delimiter)) | (raw == ord("\n")))
            starts = np.empty_like(ends)
            starts[0] = 0
            np.add(ends[:-1], 1, out=starts[1:])
            sizes = ends - starts
            line_end = raw[ends] == ord("\n")
            blank = line_end & (sizes == 0)
            blank[1:] &= line_end[:-1]  # an empty field that is a whole line
            if blank.all():
                continue
            if blank.any():
                starts, sizes, line_end = starts[~blank], sizes[~blank], line_end[~blank]
            if sizes.max() > 8:
                return None
            if not tables:  # the header, or else the first data row, fixes the width
                tables = [{} for _ in range(len(names) if header else int(np.argmax(line_end)) + 1)]
            n_cols = len(tables)
            if line_end.size % n_cols:
                return None
            grid = line_end.reshape(-1, n_cols)
            if not grid[:, -1].all() or grid[:, :-1].any():
                return None

            padded = np.zeros(raw.size + 8, dtype=np.uint8)
            padded[: raw.size] = raw
            words = np.ndarray(raw.size, dtype="<u8", buffer=padded, strides=(1,))  # 8 bytes from every offset
            keys = words.take(starts) & masks.take(sizes)
            ordered = np.sort(keys)
            distinct = ordered[_run_starts(ordered)]
            if n_cols * distinct.size > max(raw.size, 1 << 16):  # the cell table below would outgrow the chunk
                return None
            # cell = column * len(distinct) + token, in file order
            cells = (_token_ids(distinct, keys).reshape(-1, n_cols) + np.arange(n_cols) * distinct.size).ravel()
            first = np.full(n_cols * distinct.size, cells.size)
            np.minimum.at(first, cells, np.arange(cells.size))
            met = np.flatnonzero(first < cells.size)
            lookup = np.empty(first.size, dtype=np.int64)
            tokens = distinct.tolist()
            for cell in met[np.argsort(first[met])].tolist():
                column, token = divmod(cell, distinct.size)
                table = tables[column]
                lookup[cell] = table.setdefault(tokens[token], len(table))
            lookup = lookup.astype(unsigned_dtype(max(map(len, tables)) - 1))
            blocks.append(lookup[cells].reshape(-1, n_cols))
    if not blocks:
        return None
    categories = [[key.to_bytes(8, "little").rstrip(b"\0").decode("ascii") for key in table] for table in tables]
    return names, categories, blocks


def _token_ids(distinct: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each of ``keys`` in ``distinct``, the sorted distinct
    uint64 keys that hold every one of them: ``np.searchsorted(distinct,
    keys)``, found by a multiply-shift hash when one is one-to-one on
    ``distinct``.

    The hash of a key is the top 2·bit_length(d)+1 bits of its product with
    a multiplier of ``_HASH_MULTIPLIERS`` modulo 2**64 (d = ``distinct.size``;
    numpy arrays wrap uint64 products without a warning), used while that
    table has at most ``_HASH_SLOTS`` slots. The first multiplier that sends
    no two distinct keys to one slot is taken, and each key's position is
    one gather from the table; without one, or with too many keys, the
    binary search gives it."""
    bits = 2 * distinct.size.bit_length() + 1
    if 1 << bits <= _HASH_SLOTS:
        shift = np.uint64(64 - bits)
        table = np.empty(1 << bits, dtype=np.uint8)
        ids = np.arange(distinct.size, dtype=np.uint8)
        for multiplier in map(np.uint64, _HASH_MULTIPLIERS):
            slots = distinct * multiplier
            slots >>= shift
            table[slots] = ids
            if np.array_equal(table[slots], ids):  # two keys in one slot read back one id
                slots = keys * multiplier
                slots >>= shift
                return table.take(slots)
    return np.searchsorted(distinct, keys)


def _line_of(path: Path, delimiter: str, record: int) -> int:
    """1-based file line on which the ``record``-th non-blank CSV row (from 0,
    header included) starts; only error messages need it. A source that cannot
    be read twice, such as a pipe, gets the row's 1-based ordinal instead."""
    if not path.is_file():
        return record + 1
    with open(path, newline="") as fh:
        reader, end = csv.reader(fh, delimiter=delimiter), 0
        for row in _csv_rows(path, reader):
            if row and (record := record - 1) < 0:
                return end + 1
            end = reader.line_num


def dedupe(dataset: CategoricalDataset) -> CategoricalDataset:
    """Merge records with identical value vectors and identical labels.

    Weights are summed, first-appearance order is preserved, and
    ``total_weight`` is unchanged. Exact for every objective in this
    package: distances and category frequencies are weight-linear. The
    merged dataset's ``distinct_records`` come from the same grouping pass.
    """
    labels, domain = dataset.labels, dataset.schema.label_domain
    reps, weights, distinct = _group_rows(dataset.values, dataset.schema.domain_sizes(), dataset.weights,
                                         labels, 1 if domain is None else domain.size)
    merged = CategoricalDataset(
        schema=dataset.schema,
        values=dataset.values[reps],
        weights=weights,
        labels=None if labels is None else labels[reps],
        total_weight=dataset.total_weight,
    )
    object.__setattr__(merged, "distinct_records", _readonly(distinct))  # fills the cached property
    return merged


def dataset_stats(dataset: CategoricalDataset) -> dict:
    """Summary counts: n (= total weight), m, per-attribute category counts, label histogram."""
    stats = {
        "n": dataset.total_weight,
        "n_records": dataset.n_records,
        "m": dataset.m,
        "category_counts": [a.size for a in dataset.schema.attributes],
        "attribute_names": [a.name for a in dataset.schema.attributes],
        "label_histogram": None,
    }
    domain = dataset.schema.label_domain
    if dataset.labels is not None and domain is not None:
        hist = np.zeros(domain.size, dtype=np.int64)
        np.add.at(hist, dataset.labels, dataset.weights)
        stats["label_histogram"] = dict(zip(domain.categories, hist.tolist()))
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
    values = np.empty((n, m), dtype=unsigned_dtype(int(sizes.max()) - 1))
    for r in range(m):
        values[:, r] = rng.integers(0, sizes[r], size=n)
    attributes = tuple(
        AttributeDomain(name=f"a{r}", categories=tuple(f"v{c}" for c in range(sizes[r])))
        for r in range(m)
    )
    labels = label_domain = None
    if n_labels > 0:
        labels = rng.integers(0, n_labels, size=n)
        label_domain = AttributeDomain(name="label", categories=tuple(f"L{c}" for c in range(n_labels)))
    return CategoricalDataset(
        schema=Schema(attributes=attributes, label_domain=label_domain),
        values=values,
        weights=np.ones(n, dtype=np.int64),
        labels=labels,
        total_weight=n,
    )
