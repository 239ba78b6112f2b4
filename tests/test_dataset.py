import csv
import io
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcluster import DatasetError, dataset, dataset_stats, dedupe, load_csv, random_dataset
from catcluster.dataset import AttributeDomain, CategoricalDataset, Schema, _group_rows, unsigned_dtype

from conftest import dataset_from_rows


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_basic_no_label(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "a,b\n"))
        assert ds.total_weight == 1
        assert ds.m == 2
        assert all(a.size == 1 for a in ds.schema.attributes)
        assert ds.labels is None

    def test_label_by_index(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "x,a,b\ny,a,c\n"), label_column=0)
        assert ds.m == 2
        assert ds.schema.label_domain.categories == ("x", "y")
        assert [ds.schema.label_domain.categories[l] for l in ds.labels] == ["x", "y"]

    def test_label_by_name_needs_header(self, tmp_path):
        p = write_csv(tmp_path, "cls,f1\nx,a\n")
        ds = load_csv(p, label_column="cls", header=True)
        assert ds.m == 1
        assert ds.total_weight == 1
        with pytest.raises(DatasetError, match="header"):
            load_csv(write_csv(tmp_path, "x,a\n", "h.csv"), label_column="cls")

    def test_unknown_label_column(self, tmp_path):
        p = write_csv(tmp_path, "cls,f1\nx,a\n")
        with pytest.raises(DatasetError, match="nope"):
            load_csv(p, label_column="nope", header=True)
        with pytest.raises(DatasetError, match="out of range"):
            load_csv(p, label_column=9, header=True)

    def test_ragged_row_reports_index(self, tmp_path):
        p = write_csv(tmp_path, "a,b\nc\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(p)

    def test_empty_input(self, tmp_path):
        with pytest.raises(DatasetError, match="empty"):
            load_csv(write_csv(tmp_path, ""))

    def test_first_appearance_interning(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "b,x\na,y\nb,z\n"))
        assert ds.schema.attributes[0].categories == ("b", "a")
        assert ds.values[:, 0].tolist() == [0, 1, 0]

    def test_missing_token_as_category(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "a\n?\n"))
        assert ds.schema.attributes[0].categories == ("a", "?")
        assert ds.total_weight == 2

    def test_missing_token_rejected(self, tmp_path):
        p = write_csv(tmp_path, "a,b\na,?\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(p, missing_policy="reject")

    def test_delimiter(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "a;b\nc;d\n"), delimiter=";")
        assert ds.m == 2
        assert ds.n_records == 2

    def test_roundtrip_decode(self, tmp_path):
        rows = [["red", "hot"], ["blue", "cold"], ["red", "cold"]]
        p = write_csv(tmp_path, "\n".join(",".join(r) for r in rows) + "\n")
        ds = load_csv(p)
        assert [ds.decode(ds.values[i]) for i in range(3)] == rows

    def test_trailing_blank_line_skipped(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "a,b\nc,d\n\n"))
        assert [ds.decode(v) for v in ds.values] == [["a", "b"], ["c", "d"]]

    def test_interior_blank_line_skipped_and_lines_counted(self, tmp_path):
        p = write_csv(tmp_path, "h1,h2\na,b\n\n\nc,d\n")
        ds = load_csv(p, header=True)
        assert [ds.decode(v) for v in ds.values] == [["a", "b"], ["c", "d"]]
        assert [a.name for a in ds.schema.attributes] == ["h1", "h2"]
        with pytest.raises(DatasetError, match="ragged row 6 has 1 fields"):
            load_csv(write_csv(tmp_path, "a,b\n\nc,d\r\n\r\n\ne\n", "r.csv"), header=True)

    def test_header_fixes_the_width(self, tmp_path):
        with pytest.raises(DatasetError, match="ragged row 2 has 2 fields, expected 1"):
            load_csv(write_csv(tmp_path, "h\na,b\n"), header=True)
        with pytest.raises(DatasetError, match="ragged row 2 has 1 fields, expected 2"):
            load_csv(write_csv(tmp_path, "h,i\na\n", "w.csv"), header=True, label_column="i")

    def test_only_blank_lines_is_empty(self, tmp_path):
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(write_csv(tmp_path, "\n\n"))
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(write_csv(tmp_path, "x,y\n\n", "h.csv"), header=True)

    def test_errors_name_the_line_a_row_starts_on(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_ROWS", 2)
        p = write_csv(tmp_path, 'a,"multi\nline"\nb,c\nd,?\ne,f\n')
        with pytest.raises(DatasetError, match=r"at row 4, column 'col1'"):
            load_csv(p, missing_policy="reject")
        p = write_csv(tmp_path, 'a,"multi\nline"\nb,c\nd,e\nf,g\nh\n', "r.csv")
        with pytest.raises(DatasetError, match="ragged row 6 has 1 fields, expected 2"):
            load_csv(p)

    def test_over_long_field_names_file_and_line(self, tmp_path):
        # a field past csv.field_size_limit() is declined by the byte path and
        # refused by csv.reader, in load_csv and in the line lookup alike
        p = write_csv(tmp_path, "a,b\n\nc," + "x" * (csv.field_size_limit() + 1) + "\nd,e\n")
        message = re.escape(f"{p}: line 3: field larger than field limit")
        with pytest.raises(DatasetError, match=message):
            load_csv(p)
        with pytest.raises(DatasetError, match=message):
            dataset._line_of(p, ",", 2)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_error_on_a_pipe_names_the_row_ordinal(self, tmp_path):
        # a pipe cannot be read again to find the file line, so the row's ordinal stands in
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("a,b\n\nc\n",))
        writer.start()
        with pytest.raises(DatasetError, match="ragged row 2 has 1 fields"):
            load_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_one_row_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "_tokenize_bytes", lambda *args: None)  # the csv.reader path
        monkeypatch.setattr(dataset, "_CHUNK_ROWS", 1)
        ds = load_csv(write_csv(tmp_path, "x,a,b\ny,a,c\nx,d,b\n"), label_column=0)
        assert ds.values.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert ds.labels.tolist() == [0, 1, 0]


def oracle_load(path, label_column=None, missing_token="?", missing_policy="treat-as-category",
                header=False, delimiter=","):
    """Row-by-row, field-by-field dict interning: (feature names, categories,
    values, label name, label categories, labels) or the DatasetError message.
    Blank lines are skipped; a row is named by the file line it starts on."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows, start = [], 1
        for row in reader:
            if row:
                rows.append((start, row))
            start = reader.line_num + 1
    names = None
    if header:
        if not rows:
            return f"{path}: empty input"
        names = [c.strip() for c in rows.pop(0)[1]]
    if not rows:
        return f"{path}: empty input (no data rows)"
    n_cols = len(rows[0][1]) if names is None else len(names)
    for line, row in rows:
        if len(row) != n_cols:
            return f"{path}: ragged row {line} has {len(row)} fields, expected {n_cols}"
    label_idx = label_column
    if isinstance(label_column, int) and not 0 <= label_column < n_cols:
        return f"label column index {label_column} out of range (file has {n_cols} columns)"
    if isinstance(label_column, str):
        if names is None:
            return "label column by name requires a header row"
        if label_column not in names:
            return f"unknown label column {label_column!r}; header has {names}"
        label_idx = names.index(label_column)
    features = [c for c in range(n_cols) if c != label_idx]
    if not features:
        return f"{path}: no feature columns left after removing the label column"
    names = names or [f"col{c}" for c in range(n_cols)]
    tables = [{} for _ in range(n_cols)]
    codes = []
    for line, row in rows:
        for c in features:
            if missing_policy == "reject" and row[c] == missing_token:
                return (f"{path}: missing value {missing_token!r} at row {line}, "
                        f"column {names[c]!r} (policy=reject)")
        codes.append([tables[c].setdefault(tok, len(tables[c])) for c, tok in enumerate(row)])
    return (
        [names[c] for c in features],
        [tuple(tables[c]) for c in features],
        [[code[c] for c in features] for code in codes],
        None if label_idx is None else names[label_idx],
        None if label_idx is None else tuple(tables[label_idx]),
        None if label_idx is None else [code[label_idx] for code in codes],
    )


def loaded(path, **kwargs):
    """load_csv's result in the oracle's shape, or its DatasetError message."""
    try:
        ds = load_csv(path, **kwargs)
    except DatasetError as e:
        return str(e)
    attrs, label = ds.schema.attributes, ds.schema.label_domain
    assert ds.weights.tolist() == [1] * ds.n_records and ds.total_weight == ds.n_records
    return (
        [a.name for a in attrs],
        [a.categories for a in attrs],
        ds.values.tolist(),
        None if label is None else label.name,
        None if label is None else label.categories,
        None if ds.labels is None else ds.labels.tolist(),
    )


FIELD = st.one_of(st.sampled_from(["a", "b", "?"]), st.text(alphabet="ab?,; \"\n\r", max_size=3))


@st.composite
def csv_files(draw):
    """CSV text with quoted delimiters and newlines, blank lines, CRLF or LF
    line ends, ',' or ';', and now and then a ragged row; plus load_csv options."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 10))
    rows = [draw(st.lists(FIELD, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows + 1)]
    if rows[1:] and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(1, len(rows) - 1))
        rows[i] = rows[i] + ["x"] if draw(st.booleans()) or n_cols == 1 else rows[i][1:]
    delimiter = draw(st.sampled_from(",;"))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    blank = set(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=terminator)
    for i, row in enumerate(rows):
        if i in blank:
            out.write(terminator)
        writer.writerow(row)
    if len(rows) in blank:
        out.write(terminator)
    header = draw(st.booleans())
    label_column = draw(st.one_of(
        st.none(), st.integers(-1, n_cols), st.sampled_from([*[c.strip() for c in rows[0]], "nope"])
    ))
    options = dict(header=header, label_column=label_column, delimiter=delimiter,
                   missing_policy=draw(st.sampled_from(["treat-as-category", "reject"])))
    return out.getvalue(), options


class TestLoadCsvAgainstOracle:
    @given(csv_files(), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_field_loop(self, file, chunk_rows):
        text, options = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text(text, newline="")
            with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows):
                assert loaded(path, **options) == oracle_load(path, **options)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4096])
    def test_messages_in_later_chunks(self, tmp_path, chunk_rows):
        rows = [["p", "q", "r"]] * 7
        with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows):
            for path, options in [
                (write_csv(tmp_path, "\n".join(map(",".join, rows + [["p", "?", "?"]])) + "\n", "m.csv"),
                 dict(missing_policy="reject", label_column=0)),
                (write_csv(tmp_path, "h,i,j\n" + "\n".join(map(",".join, rows + [["?"], ["p", "?", "q"]])), "r.csv"),
                 dict(missing_policy="reject", header=True)),
                (write_csv(tmp_path, "\n".join(map(",".join, rows[:4] + [["?", "q", "?"], ["p", "?", "r"]])), "c.csv"),
                 dict(missing_policy="reject", label_column=0)),
            ]:
                message = loaded(path, **options)
                assert isinstance(message, str) and message == oracle_load(path, **options)


def byte_path_only():
    """A context in which load_csv fails the test if it reads through csv.reader."""
    return mock.patch.object(dataset, "_tokenize_rows", side_effect=AssertionError("csv.reader ran"))


def outcome(load, path, **options):
    """``load``'s result, or the ``csv.Error`` it raises: before Python 3.11,
    csv.reader refuses a NUL."""
    try:
        return load(path, **options)
    except csv.Error as e:
        return f"csv.Error: {e}"


PLAIN_TOKEN = st.text(alphabet="abcXYZ019? ", max_size=8)


@st.composite
def plain_files(draw):
    """CSV text the byte path takes: fields of 0-8 ASCII letters, digits, '?'
    and spaces (none empty in a one-column file, where that is a blank line),
    blank lines, ',' or ';', a header now and then, a missing final newline
    now and then; plus load_csv options."""
    n_cols = draw(st.integers(1, 4))
    token = PLAIN_TOKEN if n_cols > 1 else PLAIN_TOKEN.filter(bool)
    rows = draw(st.lists(st.lists(token, min_size=n_cols, max_size=n_cols), min_size=1, max_size=12))
    header = draw(st.booleans())
    if header:  # names are stripped, and may be longer than 8 bytes
        names = st.text(alphabet="abc01 ", min_size=int(n_cols == 1), max_size=12)
        rows.insert(0, draw(st.lists(names, min_size=n_cols, max_size=n_cols)))
    delimiter = draw(st.sampled_from(",;"))
    lines = [delimiter.join(row) for row in rows]
    for i in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(i, "")
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    names = [c.strip() for c in rows[0]] if header else []
    label_column = draw(st.one_of(st.none(), st.integers(0, n_cols - 1), *([st.sampled_from(names)] if names else [])))
    return text, dict(header=header, label_column=label_column, delimiter=delimiter)


class TestBytePath:
    @given(plain_files(), st.integers(1, 24))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_at_every_chunk_cut(self, file, chunk_bytes):
        text, options = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode())
            expected = oracle_load(path, **options)
            with mock.patch.object(dataset, "_CHUNK_BYTES", chunk_bytes), byte_path_only():
                assert loaded(path, **options) == expected

    PLAIN = "".join(f"k{i % 3},v{i % 5},w\n" for i in range(40))  # 8 bytes a row: taken

    @pytest.mark.parametrize(
        "row, options",
        [
            ('k1,"v 1",w\n', {}),
            ("k1,v1,w\r\n", {}),
            ("k1,v\0,w\n", {}),
            ("k1,v\u00e9,w\n", {}),
            ("k1,ninebytes,w\n", {}),
            ("k1,v1\n", {}),
            ("k1\nk2\nk3\n", {}),  # as many fields as one row
        ],
        ids=["quote", "CR", "NUL", "non-ASCII", "9-byte field", "ragged row", "ragged rows"],
    )
    def test_declines_in_a_later_chunk(self, tmp_path, row, options):
        # the byte path has encoded the rows before, and leaves no trace of them
        path = tmp_path / "data.csv"
        path.write_bytes((self.PLAIN + row + self.PLAIN).encode())
        with mock.patch.object(dataset, "_CHUNK_BYTES", 64), \
                mock.patch.object(dataset, "_tokenize_bytes", wraps=dataset._tokenize_bytes) as byte_path, \
                mock.patch.object(dataset, "_tokenize_rows", wraps=dataset._tokenize_rows) as row_path:
            assert outcome(loaded, path, **options) == outcome(oracle_load, path, **options)
        assert byte_path.call_count == row_path.call_count == 1

    def test_reject_in_a_later_chunk_is_raised_after_the_byte_path(self, tmp_path):
        # load_csv scans the byte path's codes; the line comes from csv.reader all the same
        path = tmp_path / "data.csv"
        path.write_bytes((self.PLAIN + "\n" + self.PLAIN + "k1,?,w\n" + self.PLAIN).encode())
        options = dict(missing_policy="reject", label_column=0)
        with mock.patch.object(dataset, "_CHUNK_BYTES", 64), byte_path_only():
            message = loaded(path, **options)
        assert message == oracle_load(path, **options)
        assert message.endswith("missing value '?' at row 82, column 'col1' (policy=reject)")

    def test_reject_takes_the_token_in_the_label_column(self, tmp_path):
        # the policy covers feature columns only, so the byte path need not decline
        path = write_csv(tmp_path, "?,v1,w\n" + self.PLAIN + "?,v2,w\n")
        options = dict(missing_policy="reject", label_column=0)
        with mock.patch.object(dataset, "_tokenize_bytes", lambda *args: None):  # the csv.reader path
            by_rows = loaded(path, **options)
        assert by_rows[4] == ("?", "k0", "k1", "k2")  # the label's categories
        with byte_path_only():
            assert loaded(path, **options) == by_rows

    def test_declines_a_cell_table_past_the_chunk(self, tmp_path):
        # 300 columns of distinct tokens: 300 x 600 (column, token) cells
        # against 3.6 KB of text
        path = write_csv(tmp_path, "".join(",".join(f"r{r}c{c}" for c in range(300)) + "\n" for r in range(2)))
        with mock.patch.object(dataset, "_tokenize_rows", wraps=dataset._tokenize_rows) as row_path:
            assert loaded(path, label_column=0) == oracle_load(path, label_column=0)
        assert row_path.call_count == 1

    def test_eight_byte_fields_are_taken(self, tmp_path):
        path = write_csv(tmp_path, self.PLAIN + "k1,eightbyt,w\n")
        with byte_path_only():
            assert loaded(path) == oracle_load(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_once_by_csv_reader(self, tmp_path):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(self.PLAIN,))
        writer.start()
        with mock.patch.object(dataset, "_tokenize_bytes", side_effect=AssertionError("a pipe read as bytes")):
            result = loaded(fifo, label_column=0)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert result == oracle_load(write_csv(tmp_path, self.PLAIN), label_column=0)


def ascii_keys(count: int) -> np.ndarray:
    """The sorted keys of ``count`` distinct short ASCII tokens, packed as the byte path packs them."""
    return np.sort(np.array([int.from_bytes(f"t{i}".encode(), "little") for i in range(count)], dtype=np.uint64))


class TestTokenIds:
    @given(st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 1 << 16)), min_size=1, max_size=200,
                    unique=True), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted(self, distinct, data):
        distinct = np.array(sorted(distinct), dtype=np.uint64)
        keys = distinct[data.draw(st.lists(st.integers(0, distinct.size - 1), min_size=1, max_size=300))]
        assert np.array_equal(dataset._token_ids(distinct, keys), np.searchsorted(distinct, keys))

    @staticmethod
    def searched(distinct: np.ndarray) -> bool:
        """Whether _token_ids ran the binary search on every key of
        ``distinct``, each present twice; its result is checked either way."""
        keys = np.concatenate([distinct[::-1], distinct])
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            ids = dataset._token_ids(distinct, keys)
        assert np.array_equal(ids, np.searchsorted(distinct, keys))
        return search.call_count > 0

    def test_hashes_up_to_127_keys(self):
        assert not self.searched(ascii_keys(1))
        assert not self.searched(ascii_keys(127))  # 2**15 slots

    def test_more_than_127_keys_fall_back(self):
        assert self.searched(ascii_keys(128))  # 2**17 slots

    def test_colliding_multipliers_fall_back(self):
        # a multiplier of 1 keeps the top bits of keys below 2**24: one slot for all
        with mock.patch.object(dataset, "_HASH_MULTIPLIERS", (1, 1)):
            assert self.searched(ascii_keys(10))


class TestDedupe:
    def test_merges_weights_in_order(self):
        ds = dataset_from_rows([["a", "b"], ["a", "b"], ["c", "d"]])
        dd = dedupe(ds)
        assert dd.n_records == 2
        assert dd.weights.tolist() == [2, 1]
        assert dd.total_weight == 3
        assert [dd.decode(v) for v in dd.values] == [["a", "b"], ["c", "d"]]

    def test_all_distinct_is_identity(self):
        ds = dataset_from_rows([["a"], ["b"], ["c"]])
        dd = dedupe(ds)
        assert dd.n_records == 3
        assert dd.weights.tolist() == [1, 1, 1]
        assert np.array_equal(dd.values, ds.values)

    def test_distinct_labels_not_merged(self):
        ds = dataset_from_rows([["a"], ["a"]], labels=["x", "y"])
        dd = dedupe(ds)
        assert dd.n_records == 2

    def test_weighted_frequencies_preserved(self):
        rng = np.random.default_rng(0)
        rows = [[str(rng.integers(0, 3)) for _ in range(3)] for _ in range(40)]
        ds = dataset_from_rows(rows)
        dd = dedupe(ds)
        assert dd.total_weight == ds.total_weight
        for j in range(ds.m):
            raw = np.bincount(ds.values[:, j], weights=ds.weights, minlength=4)
            merged = np.bincount(dd.values[:, j], weights=dd.weights, minlength=4)
            assert np.array_equal(raw, merged)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_weights_count_each_distinct_row(self, rows):
        ds = dataset_from_rows([[str(a), str(b)] for a, b in rows])
        dd = dedupe(ds)
        counts = dict.fromkeys(rows, 0)
        for row in rows:
            counts[row] += 1
        assert [tuple(int(t) for t in dd.decode(v)) for v in dd.values] == list(counts)
        assert dd.weights.tolist() == list(counts.values())
        assert dd.labels is None

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from("xy"), st.integers(1, 2**58)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=80)
    def test_matches_dict_oracle(self, rows):
        # weights up to 2**58 sum past 2**53, where float64 sums would round
        groups: dict[tuple, list[int]] = {}
        for i, (a, b, label, _) in enumerate(rows):
            groups.setdefault((a, b, label), []).append(i)
        ds = dataset_from_rows(
            [[str(a), str(b)] for a, b, _, _ in rows],
            labels=[label for *_, label, _ in rows],
            weights=[w for *_, w in rows],
        )
        keys = list(groups)
        first = _group_rows(ds.values, ds.schema.domain_sizes(), None, ds.labels, ds.schema.label_domain.size)[0]
        assert first.tolist() == [members[0] for members in groups.values()]

        dd = dedupe(ds)
        assert [(*dd.decode(v), dd.schema.label_domain.categories[l]) for v, l in zip(dd.values, dd.labels)] == [
            (str(a), str(b), label) for a, b, label in keys
        ]
        assert [int(w) for w in dd.weights] == [
            sum(rows[i][3] for i in members) for members in groups.values()
        ]
        first_of = {}
        for i, row in enumerate(rows):
            first_of.setdefault(row[:2], i)
        assert ds.distinct_records.tolist() == list(first_of.values())
        # dedupe hands over the first record of each value vector from its own pass
        record_of = {}
        for r, key in enumerate(keys):
            record_of.setdefault(key[:2], r)
        assert dd.distinct_records.tolist() == list(record_of.values())

    @pytest.mark.parametrize("top", [255, 256, 65535, 65536, 2**31 - 1])
    def test_codes_wider_than_the_sort_width_stay_distinct(self, top):
        # codes equal modulo 2**8 or 2**16 must not merge, in the narrowest
        # width that holds ``top``, whether each row is packed into one key
        # (radix top + 1) or into two (sizes whose product is past 2**64)
        keys = np.array([[0, 1], [256, 1], [0, 1], [65536, 1], [top, 1], [256, 1]], dtype=np.int64)
        keys = keys[(keys <= top).all(axis=1)].astype(unsigned_dtype(top))
        rows = [tuple(r) for r in keys.tolist()]
        order = list(dict.fromkeys(rows))
        for sizes in ([top + 1, 2], [2**40, 2**40]):
            first, _, distinct = _group_rows(keys, np.array(sizes))
            assert first.tolist() == [rows.index(r) for r in order]
            assert distinct.tolist() == list(range(len(order)))


def group_oracle(values, labels, weights):
    """First row and summed weight of each distinct (values, label) row, and
    the first group of each value vector, all in first-appearance order."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(values.tolist()):
        key = (*row, None if labels is None else int(labels[i]))
        groups.setdefault(key, [i, 0])[1] += int(weights[i])
    first_group: dict[tuple, int] = {}
    for g, key in enumerate(groups):
        first_group.setdefault(key[:-1], g)
    return [f for f, _ in groups.values()], [w for _, w in groups.values()], list(first_group.values())


def grouped(values, sizes, weights, labels, label_size, n_keys):
    """``_group_rows``' results as lists, checking how many keys each row was packed into."""
    with mock.patch.object(dataset, "_run_starts", wraps=dataset._run_starts) as run_starts:
        first, sums, distinct = _group_rows(values, np.array(sizes), weights, labels, label_size)
    assert [len(call.args) for call in run_starts.call_args_list] == [n_keys] * (1 + (labels is not None))
    return first.tolist(), sums.tolist(), distinct.tolist()


class TestGroupRows:
    @given(
        rows=st.lists(
            st.tuples(*[st.integers(0, 3)] * 4, st.integers(0, 2), st.integers(1, 2**58)),
            min_size=1,
            max_size=40,
        ),
        labelled=st.booleans(),
        label_dtype=st.sampled_from([np.uint8, np.uint16]),
    )
    @settings(max_examples=120)
    def test_one_to_four_keys_agree(self, rows, labelled, label_dtype):
        values = np.array([r[:4] for r in rows], dtype=np.uint8)
        labels = np.array([r[4] for r in rows], dtype=label_dtype) if labelled else None
        weights = np.array([r[5] for r in rows], dtype=np.int64)
        # the same rows packed into one key below 4**4 * 3, and into two,
        # three and four keys under sizes of 2**40, no two of which fit in
        # one key; the label joins the last key each time
        want = group_oracle(values, labels, weights)
        for sizes, n_keys in ([4] * 4, 1), ([2**40] * 2 + [4] * 2, 2), ([2**40] * 3 + [4], 3), ([2**40] * 4, 4):
            assert grouped(values, sizes, weights, labels, 3, n_keys) == want

    @pytest.mark.parametrize(
        "sizes, label_size, n_keys",
        [
            ([16] * 16, 0, 1),  # product exactly 2**64: the all-maxima row's key is 2**64 - 1
            ([17] + [16] * 15, 0, 2),  # one more category: past 2**64, the last column in a second key
            ([16] * 16, 300, 2),  # a uint16 label wider than the uint8 codes, alone in a second key
            ([16] * 2, 300, 1),  # the same label as the last digit of the one key
        ],
    )
    def test_key_width_edge(self, sizes, label_size, n_keys):
        top = np.array(sizes) - 1
        near = top.copy()
        near[0] = 0
        values = np.array([top, 0 * top, top, 0 * top, near, top])
        labels = np.array([label_size - 1, 0, 1, 0, label_size - 1, 1]) if label_size else None
        ds = coded(sizes, values, labels, label_size)
        weights = ds.weights
        assert grouped(ds.values, sizes, weights, ds.labels, max(label_size, 1), n_keys) == group_oracle(
            ds.values, ds.labels, weights
        )
        dd = dedupe(ds)
        first, sums, distinct = group_oracle(ds.values, ds.labels, weights)
        assert dd.values.tolist() == ds.values[first].tolist() and dd.weights.tolist() == sums
        # the handed-over distinct records are those a fresh pass finds
        assert dd.distinct_records.tolist() == distinct == _group_rows(dd.values, np.array(sizes))[0].tolist()


class TestStatsAndValidation:
    def test_stats_counts(self):
        ds = dataset_from_rows([["a", "p"], ["b", "p"]], labels=["x", "x"])
        stats = dataset_stats(ds)
        assert stats["n"] == 2
        assert stats["m"] == 2
        assert stats["category_counts"] == [2, 1]
        assert stats["label_histogram"] == {"x": 2}

    def test_stats_without_labels(self):
        stats = dataset_stats(dataset_from_rows([["a"]]))
        assert stats["label_histogram"] is None

    def test_schema_requires_attributes(self):
        with pytest.raises(DatasetError):
            Schema(attributes=(), label_domain=None)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(DatasetError):
            AttributeDomain(name="a", categories=("x", "x"))

    def test_weight_sum_must_match(self):
        ds = dataset_from_rows([["a"], ["b"]])
        from catcluster.dataset import CategoricalDataset

        with pytest.raises(DatasetError):
            CategoricalDataset(
                schema=ds.schema,
                values=ds.values,
                weights=ds.weights,
                labels=None,
                total_weight=5,
            )

    def test_arrays_are_readonly(self):
        ds = dataset_from_rows([["a"], ["b"]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1

    def test_random_dataset_shape(self):
        ds = random_dataset(n=7, m=3, max_categories=4, seed=0, n_labels=2)
        assert ds.n_records == 7
        assert ds.m == 3
        assert ds.labels is not None
        assert all(ds.values[:, j].max() < ds.schema.attributes[j].size for j in range(3))

    def test_record_accessor(self):
        ds = dataset_from_rows([["a", "p"]], labels=["x"])
        assert ds.weights[0] == 1
        assert ds.schema.label_domain.categories[ds.labels[0]] == "x"
        assert ds.decode(ds.values[0]) == ["a", "p"]


def coded(sizes, values, labels=None, label_size=0):
    """A dataset over domains of the given sizes, from raw id arrays."""
    attributes = tuple(
        AttributeDomain(name=f"a{j}", categories=tuple(map(str, range(s)))) for j, s in enumerate(sizes)
    )
    label_domain = AttributeDomain("y", tuple(map(str, range(label_size)))) if label_size else None
    n = len(values)
    return CategoricalDataset(
        schema=Schema(attributes=attributes, label_domain=label_domain),
        values=values,
        weights=np.ones(n, dtype=np.int64),
        labels=labels,
        total_weight=n,
    )


class TestCodeWidth:
    @pytest.mark.parametrize(
        "largest, width", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)]
    )
    def test_codes_take_the_narrowest_width_of_the_largest_domain(self, largest, width):
        values = np.array([[0, largest - 1], [1, 0]], dtype=np.int64)
        ds = coded([2, largest], values, labels=np.array([largest - 1, 0]), label_size=largest)
        assert ds.values.dtype == width and ds.labels.dtype == width
        assert ds.values.tolist() == values.tolist() and ds.labels.tolist() == [largest - 1, 0]
        assert dataset.unsigned_dtype(largest - 1) == width

    def test_labels_follow_the_label_domain(self):
        ds = coded([300], np.array([[299], [0]]), labels=np.array([1, 0]), label_size=2)
        assert (ds.values.dtype, ds.labels.dtype) == (np.uint16, np.uint8)
        ds = coded([2], np.array([[1], [0]]), labels=np.array([299, 0]), label_size=300)
        assert (ds.values.dtype, ds.labels.dtype) == (np.uint8, np.uint16)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8])
    def test_out_of_range_ids_raise_in_the_given_dtype(self, dtype):
        good = np.array([[0, 2], [1, 0]], dtype=dtype)
        ds = coded([2, 3], good, labels=np.array([1, 0], dtype=dtype), label_size=2)
        assert ds.values.tolist() == good.tolist() and ds.values.dtype == np.uint8
        assert not ds.values.flags.writeable and not ds.labels.flags.writeable
        signed = np.dtype(dtype).kind == "i"
        for bad in [3, -1] if signed else [3]:  # -1 must not wrap to 255
            values = good.copy()
            values[0, 1] = bad
            with pytest.raises(DatasetError, match="out of domain range"):
                coded([2, 3], values)
        for bad in [2, -1] if signed else [2]:
            with pytest.raises(DatasetError, match="out of domain range"):
                coded([2, 3], good, labels=np.array([bad, 0], dtype=dtype), label_size=2)

    def test_non_integer_ids_and_stray_labels_raise(self):
        with pytest.raises(DatasetError, match="integers"):
            coded([2], np.array([[0.0], [1.0]]))
        with pytest.raises(DatasetError, match="label domain"):
            coded([2], np.array([[0], [1]]), labels=np.array([0, 1]))
        with pytest.raises(DatasetError, match="one label per record"):
            coded([2], np.array([[0], [1]]), labels=np.array([0]), label_size=2)


class TestWidthBoundary:
    @pytest.mark.parametrize("chunk_rows", [2, 3])
    @pytest.mark.parametrize("label_column", [None, 0, 1])
    def test_257th_category_in_a_later_chunk_widens_the_codes(self, tmp_path, chunk_rows, label_column):
        path = self.wide_file(tmp_path)
        with mock.patch.object(dataset, "_tokenize_bytes", lambda *args: None), \
                mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows):  # csv.reader's row chunks
            self.check(path, label_column)

    @pytest.mark.parametrize("chunk_bytes", [16, 1000])
    @pytest.mark.parametrize("label_column", [None, 0, 1])
    def test_257th_category_in_a_later_byte_chunk_widens_the_codes(self, tmp_path, chunk_bytes, label_column):
        path = self.wide_file(tmp_path)
        with mock.patch.object(dataset, "_CHUNK_BYTES", chunk_bytes), byte_path_only():
            self.check(path, label_column)

    @staticmethod
    def wide_file(tmp_path):
        # column 1 meets its 257th category on row 257, chunks after the first
        rows = [[f"k{i % 3}", f"c{i}", "xyz"[i % 2]] for i in range(300)] + [["k0", "c5", "x"]]
        return write_csv(tmp_path, "".join(",".join(r) + "\n" for r in rows))

    @staticmethod
    def check(path, label_column):
        ds = load_csv(path, label_column=label_column)
        if label_column == 1:  # the wide column is the label
            assert (ds.values.dtype, ds.labels.dtype) == (np.uint8, np.uint16)
        else:
            assert ds.values.dtype == np.uint16
        assert ds.n_records == 301
        assert loaded(path, label_column=label_column) == oracle_load(path, label_column=label_column)


class TestIngestMemory:
    N, M = 60_000, 22
    # the codes held once narrow, plus the grouping sort: measured 3.6, 7.1 before
    # dedupe packed its keys; int32 codes need about 14
    BYTES_PER_CODE = 4
    CHUNK_TEXT = 2 << 20  # one 4096-row chunk of single-letter fields peaks at about 1.7 MB in all

    def test_load_and_dedupe_peak_per_code(self, tmp_path):
        # distinct random rows: the dedupe sort keeps every one of them
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 6, size=(self.N, self.M + 1))
        lines = np.full((self.N, 2 * self.M + 2), ord(","), dtype=np.uint8)
        lines[:, 0::2] = codes + ord("a")
        lines[:, -1] = ord("\n")
        path = tmp_path / "wide.csv"
        path.write_bytes(lines.tobytes())
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ds = dedupe(load_csv(path, label_column=0))
            distinct = ds.distinct_records.size  # handed over by dedupe, not sorted again
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= self.BYTES_PER_CODE * self.N * self.M + self.CHUNK_TEXT, peak / (self.N * self.M)
        assert ds.n_records == distinct == self.N and ds.values.dtype == np.uint8
