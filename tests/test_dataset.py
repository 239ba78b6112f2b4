import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcluster import DatasetError, dataset_stats, dedupe, load_csv, random_dataset
from catcluster.dataset import AttributeDomain, Schema, distinct_rows

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
        assert [ds.label_name(l) for l in ds.labels] == ["x", "y"]

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


class TestDedupe:
    def test_merges_weights_in_order(self):
        ds = dataset_from_rows([["a", "b"], ["a", "b"], ["c", "d"]])
        dd = dedupe(ds)
        assert dd.n_records == 2
        assert dd.weights.tolist() == [2, 1]
        assert dd.total_weight == 3
        assert dd.source_rows == ((0, 1), (2,))

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
    def test_source_rows_partition_the_input(self, rows):
        ds = dataset_from_rows([[str(a), str(b)] for a, b in rows])
        dd = dedupe(ds)
        flattened = sorted(i for group in dd.source_rows for i in group)
        assert flattened == list(range(len(rows)))
        assert int(dd.weights.sum()) == len(rows)

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
        first, group = distinct_rows(np.column_stack([ds.values, ds.labels]))
        assert first.tolist() == [members[0] for members in groups.values()]
        keys = list(groups)
        assert group.tolist() == [keys.index(row[:3]) for row in rows]

        dd = dedupe(ds)
        assert [(*dd.decode(v), dd.label_name(l)) for v, l in zip(dd.values, dd.labels)] == [
            (str(a), str(b), label) for a, b, label in keys
        ]
        assert [int(w) for w in dd.weights] == [
            sum(rows[i][3] for i in members) for members in groups.values()
        ]
        assert dd.source_rows == tuple(tuple(members) for members in groups.values())
        assert ds.distinct_value_count() == len({row[:2] for row in rows})


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
                source_rows=ds.source_rows,
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
        assert ds.label_name(ds.labels[0]) == "x"
        assert ds.decode(ds.values[0]) == ["a", "p"]
