import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcluster import (
    accuracy_error,
    confusion,
    cost_of_medoid_set,
    evaluate,
    format_rounded,
    objective_under_medoids,
    objective_under_modes,
    random_dataset,
)
from catcluster.dataset import CategoricalDataset
from catcluster.evaluate import ConfusionMatrix

from conftest import dataset_from_rows


def matrix_of(rows) -> ConfusionMatrix:
    counts = np.array(rows, dtype=np.int64)
    return ConfusionMatrix(counts=counts, label_names=tuple(f"L{j}" for j in range(counts.shape[1])))


class TestAccuracyError:
    # known confusion tables with their expected error displays
    @pytest.mark.parametrize(
        "rows,total,err_display",
        [
            ([[154, 45], [14, 222]], 435, "0.136"),
            ([[158, 55], [10, 212]], 435, "0.149"),
            ([[1470, 1856], [2738, 2060]], 8124, "0.435"),
            ([[4182, 960], [26, 2956]], 8124, "0.121"),
        ],
    )
    def test_reference_tables(self, rows, total, err_display):
        matrix = matrix_of(rows)
        assert matrix.total == total
        r, e = accuracy_error(matrix)
        assert r + e == 1
        assert format_rounded(e) == err_display

    def test_exact_fractions(self):
        r, e = accuracy_error(matrix_of([[154, 45], [14, 222]]))
        assert r == Fraction(376, 435)
        assert e == Fraction(59, 435)

    def test_row_relabeling_invariance(self):
        a = accuracy_error(matrix_of([[154, 45], [14, 222]]))
        b = accuracy_error(matrix_of([[14, 222], [154, 45]]))
        assert a == b

    def test_empty_matrix_errors(self):
        with pytest.raises(ValueError):
            accuracy_error(matrix_of([[0, 0]]))

    @given(
        st.lists(
            st.lists(st.integers(0, 50), min_size=2, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_error_complements_accuracy(self, rows):
        width = len(rows[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in rows]
        matrix = matrix_of(rows)
        if matrix.total == 0:
            return
        r, e = accuracy_error(matrix)
        assert 0 <= r <= 1
        assert e == 1 - r


class TestFormatRounded:
    def test_half_up(self):
        assert format_rounded(Fraction(1, 2000)) == "0.001"  # 0.0005 rounds up
        assert format_rounded(Fraction(1355, 10000)) == "0.136"
        assert format_rounded(Fraction(13549, 100000)) == "0.135"
        assert format_rounded(Fraction(1)) == "1.000"
        assert format_rounded(Fraction(0)) == "0.000"

    def test_places(self):
        assert format_rounded(Fraction(2, 3), places=2) == "0.67"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            format_rounded(Fraction(-1, 2))


class TestConfusion:
    def test_counts_by_cluster_and_class(self):
        ds = dataset_from_rows(
            [["a"], ["a"], ["b"], ["b"]], labels=["x", "y", "y", "y"]
        )
        matrix = confusion(ds, [0, 0, 1, 1])
        assert matrix.to_lists() == [[1, 1], [0, 2]]
        assert matrix.label_names == ("x", "y")
        assert matrix.total == 4

    def test_single_cluster_single_class(self):
        ds = dataset_from_rows([["a"], ["b"]], labels=["x", "x"])
        matrix = confusion(ds, [0, 0])
        assert matrix.to_lists() == [[2]]

    def test_weighted_counts(self):
        ds = dataset_from_rows([["a"], ["b"]], labels=["x", "y"], weights=[5, 2])
        matrix = confusion(ds, [0, 1])
        assert matrix.to_lists() == [[5, 0], [0, 2]]

    def test_requires_labels(self):
        ds = dataset_from_rows([["a"]])
        with pytest.raises(ValueError, match="label"):
            confusion(ds, [0])

    def test_count_total_mismatch_raises(self, monkeypatch):
        ds = dataset_from_rows([["a"], ["b"]], labels=["x", "y"])
        monkeypatch.setattr(CategoricalDataset, "total_weight", property(lambda self: 3), raising=False)
        with pytest.raises(RuntimeError, match="total weight is 3"):
            confusion(ds, [0, 1])

    def test_requires_full_assignment(self):
        ds = dataset_from_rows([["a"], ["b"]], labels=["x", "y"])
        with pytest.raises(ValueError, match="cover"):
            confusion(ds, [0])


class TestObjectives:
    def test_singletons_are_free(self):
        ds = dataset_from_rows([["a", "p"], ["b", "q"]])
        assert objective_under_modes(ds, [0, 1]) == 0
        assert objective_under_medoids(ds, assignment=[0, 1]) == 0

    def test_hand_cluster(self, aq_cluster):
        assert objective_under_modes(aq_cluster, [0, 0, 0]) == 2
        assert objective_under_medoids(aq_cluster, assignment=[0, 0, 0]) == 2

    def test_medoid_set_route(self, four_point):
        assert cost_of_medoid_set(four_point, [0, 2])[0] == 2

    def test_empty_cluster_errors(self, four_point):
        # the clusters are 0 to the largest id, so an unused id below it is an empty cluster
        with pytest.raises(ValueError, match="cluster 1 is empty"):
            objective_under_modes(four_point, [0, 0, 2, 2])
        with pytest.raises(ValueError, match="cluster 1 is empty"):
            objective_under_medoids(four_point, assignment=[0, 0, 2, 2])

    @given(
        n=st.integers(2, 20),
        seed=st.integers(0, 10_000),
        assign_seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_mode_medoid_sandwich(self, n, seed, assign_seed):
        ds = random_dataset(n=n, m=3, max_categories=3, seed=seed)
        rng = np.random.default_rng(assign_seed)
        k = int(rng.integers(1, n + 1))
        assignment = rng.integers(0, k, size=n)
        present = np.unique(assignment)
        assignment = np.searchsorted(present, assignment)  # compact, no empties
        modes = objective_under_modes(ds, assignment)
        medoids = objective_under_medoids(ds, assignment=assignment)
        assert modes <= medoids <= 2 * modes


class TestEvalReport:
    def test_full_report_round_trip(self):
        ds = dataset_from_rows(
            [["a"], ["a"], ["b"], ["b"]], labels=["x", "x", "y", "y"]
        )
        report = evaluate(ds, [0, 0, 1, 1], medoid_objective=0)
        assert report.accuracy == 1
        assert report.error == 0
        assert report.mode_objective == 0
        assert report.medoid_objective == 0
        payload = report.to_dict()
        json.dumps(payload)  # must be serializable as-is
        assert payload["accuracy"]["display"] == "1.000"
        assert payload["confusion"]["counts"] == [[2, 0], [0, 2]]
        text = report.to_text()
        assert "confusion matrix:" in text
        assert "error" in text

    def test_report_without_medoid_objective(self):
        ds = dataset_from_rows(
            [["a", "p"], ["a", "q"], ["b", "q"]], labels=["x", "x", "y"]
        )
        report = evaluate(ds, [0, 0, 0])
        assert report.medoid_objective is None
        assert report.mode_objective == 2
        assert report.to_dict()["medoid_objective"] is None
