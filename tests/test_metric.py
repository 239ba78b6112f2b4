from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcluster import KModesConfig, check_metric_properties, dedupe, medoids, metric, random_dataset, run_kmodes
from catcluster.metric import (
    cluster_counts,
    hamming,
    heaviest,
    matrix_dtype,
    member_costs,
)

from conftest import dataset_from_rows


def broadcast_count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent oracle: mismatching attributes counted by direct comparison."""
    return (a[:, None, :] != b[None, :, :]).sum(axis=2)


class TestPairwiseMatrix:
    def test_single_record(self):
        one = dataset_from_rows([["a", "b"]]).values
        m = hamming(one, one)
        assert m.shape == (1, 1)
        assert m[0, 0] == 0

    def test_all_different(self):
        ds = dataset_from_rows([["a", "x"], ["b", "y"], ["c", "z"]])
        m = hamming(ds.values, ds.values)
        off = m[~np.eye(3, dtype=bool)]
        assert (off == 2).all()

    def test_matches_naive_and_columns(self):
        ds = random_dataset(n=40, m=6, max_categories=4, seed=3)
        m = hamming(ds.values, ds.values)
        assert (m == m.T).all()
        assert (np.diag(m) == 0).all()
        naive = np.array(
            [
                [(ds.values[i] != ds.values[j]).sum() for j in range(40)]
                for i in range(40)
            ]
        )
        assert np.array_equal(m.astype(np.int64), naive)
        cols = hamming(ds.values, ds.values[[5, 17]])
        assert np.array_equal(cols.astype(np.int64), naive[:, [5, 17]])

    def test_matches_broadcast_oracle(self):
        ds = random_dataset(n=200, m=8, max_categories=3, seed=1)
        d = hamming(ds.values, ds.values)
        assert d.dtype == np.uint8
        assert np.array_equal(d, broadcast_count(ds.values, ds.values))

    def test_dtype_scales_with_m(self):
        assert matrix_dtype(22) == np.uint8
        assert matrix_dtype(255) == np.uint8
        assert matrix_dtype(256) == np.uint16
        assert matrix_dtype(70000) == np.uint32

    def test_budget_refusal(self, monkeypatch):
        # the solvers hold the 100 x 100 uint8 matrix at exactly its 10 000
        # bytes of budget, and compute rows per call one byte below that
        ds = random_dataset(n=100, m=4, max_categories=3, seed=0)
        calls = []

        def counting_hamming(a, b):
            calls.append((len(a), len(b)))
            return hamming(a, b)

        monkeypatch.setattr(medoids, "hamming", counting_hamming)
        order = np.arange(100)[::-1]  # columns in summation order, rows in file order
        want = broadcast_count(ds.values[10:20], ds.values[order])
        for budget, built, per_read in ((10_000, [(100, 100)], []), (9_999, [], [(10, 100)])):
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", budget)
            calls.clear()
            rows = medoids._distance_rows(ds.values, order)
            assert calls == built
            calls.clear()
            assert np.array_equal(rows(slice(10, 20)), want)
            assert calls == per_read


class TestHammingKernel:
    @given(
        data=st.data(),
        na=st.integers(1, 25),
        nb=st.integers(1, 25),
        # wide records: the uint16 matrix, and sums beyond float16's exact range
        m=st.one_of(st.integers(1, 6), st.integers(256, 300), st.integers(2049, 2100)),
        cats=st.integers(1, 5),
        wide=st.booleans(),
        block_bytes=st.sampled_from([1, 64, 4096, 1 << 22]),
        min_rows=st.sampled_from([1, 7, 256]),
    )
    @settings(max_examples=80, deadline=None)
    def test_blocks_match_broadcast_count(self, data, na, nb, m, cats, wide, block_bytes, min_rows):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        a = rng.integers(0, cats, size=(na, m)).astype(np.int32)
        b = rng.integers(0, cats, size=(nb, m)).astype(np.int32)
        if wide:  # attribute 0 takes up to 1000 categories
            a[:, 0] = rng.integers(0, 1000, size=na)
            b[:, 0] = rng.integers(0, 1000, size=nb)
        with mock.patch.multiple(metric, _BLOCK_BYTES=block_bytes, _MIN_BLOCK_ROWS=min_rows):
            d = hamming(a, b)
        assert d.dtype == matrix_dtype(m)
        assert np.array_equal(d, broadcast_count(a, b))

    def test_single_record_and_empty_sides(self):
        one = np.array([[2, 0, 1]], dtype=np.int32)
        assert hamming(one, one).tolist() == [[0]]
        assert hamming(one[:0], one).shape == (0, 1)

    @given(
        s=st.integers(1, 12),
        m=st.integers(1, 4),
        cats=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        weights=st.lists(st.integers(1, 2**40), min_size=12, max_size=12),
        k=st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_member_costs_match_pairwise_sums(self, s, m, cats, seed, weights, k):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, cats, size=(s, m)).astype(np.int32)
        assignment = rng.integers(0, k, size=s)  # clusters may be empty
        w = weights[:s]
        d = broadcast_count(values, values).tolist()
        want = [
            sum(w[i] * d[i][c] for i in range(s) if assignment[i] == assignment[c])
            for c in range(s)
        ]
        sizes = np.full(m, cats)
        counts = cluster_counts(values, np.array(w, dtype=np.int64), sizes, assignment, k)
        assert member_costs(counts, sizes, values, assignment).tolist() == want

    def test_count_table_spans_row_blocks(self):
        n, m, k = 2 * metric._COUNT_ROWS + 123, 5, 3
        rng = np.random.default_rng(6)
        sizes = np.array([1, 2, 3, 4, 7])
        values = (rng.integers(0, 1 << 20, size=(n, m)) % sizes).astype(np.int32)
        weights = rng.integers(1, 2**40, size=n)
        assignment = rng.integers(0, k, size=n)
        # per cluster and attribute, counted on its own
        want = np.zeros((k, sizes.sum()), dtype=np.int64)
        for c in range(k):
            members = assignment == c
            for r, first in enumerate(np.cumsum(sizes) - sizes):
                np.add.at(want[c], first + values[members, r], weights[members])
        counts = cluster_counts(values, weights, sizes, assignment, k)
        assert np.array_equal(counts, want)
        modes, top = heaviest(counts, sizes)
        for c in range(k):
            for r, first in enumerate(np.cumsum(sizes) - sizes):
                segment = want[c, first : first + sizes[r]]
                assert (modes[c, r], top[c, r]) == (np.argmax(segment), segment.max())


class TestMetricAudit:
    def test_passes_on_random_data(self):
        ds = random_dataset(n=300, m=10, max_categories=5, seed=7)
        report = check_metric_properties(ds, 20000, seed=0)
        assert report.passed
        assert report.figures == {"triples_checked": 20000}
        assert report.violations == ()

    def test_single_record_dataset(self):
        report = check_metric_properties(dataset_from_rows([["a", "b"]]), 100, seed=0)
        assert report.passed

    def test_requires_positive_sample(self):
        ds = dataset_from_rows([["a"]])
        with pytest.raises(ValueError):
            check_metric_properties(ds, 0, seed=0)

    def test_corrupted_kernel_is_caught(self, monkeypatch):
        ds = random_dataset(n=60, m=5, max_categories=4, min_categories=2, seed=3)
        real = metric.hamming
        # a kernel that never reads the last attribute
        monkeypatch.setattr(metric, "hamming", lambda a, b: real(a[:, :-1], b[:, :-1]))
        report = check_metric_properties(ds, 500, seed=0)
        assert not report.passed
        assert {v["axiom"] for v in report.violations} >= {"kernel mismatch"}

    def test_seeded_reproducibility(self):
        ds = random_dataset(n=50, m=5, max_categories=4, seed=2)
        a = check_metric_properties(ds, 1000, seed=9)
        b = check_metric_properties(ds, 1000, seed=9)
        assert a == b


class TestFullByteDomain:
    """A 256-category attribute whose last id, 255, is present: its codes are
    one byte wide, so any ``max + 1`` taken in the code dtype would wrap to 0."""

    def dataset(self):
        base = [[f"c{j % 256}", "pq"[j % 2], "xyz"[j % 3]] for j in range(300)]
        rng = np.random.default_rng(8)
        return dataset_from_rows(base + base[:150], weights=rng.integers(1, 50, size=450))

    def test_kernel_and_count_table_match_direct_counts(self):
        ds = self.dataset()
        values, weights, sizes = ds.values, ds.weights, ds.schema.domain_sizes()
        assert values.dtype == np.uint8 and values[:, 0].max() == 255 and sizes[0] == 256
        wide = values.astype(np.int64)
        assert np.array_equal(hamming(values, values[250:300]), broadcast_count(wide, wide[250:300]))
        k = 3
        assignment = np.arange(ds.n_records) % k
        want = np.zeros((k, sizes.sum()), dtype=np.int64)
        for row, w, c in zip(wide.tolist(), weights.tolist(), assignment):
            for r, first in enumerate((np.cumsum(sizes) - sizes).tolist()):
                want[c, first + row[r]] += w
        counts = cluster_counts(values, weights, sizes, assignment, k)
        assert np.array_equal(counts, want)
        d = broadcast_count(wide, wide)
        same = assignment[:, None] == assignment[None, :]
        assert member_costs(counts, sizes, values, assignment).tolist() == (d * same * weights[:, None]).sum(0).tolist()

    def test_dedupe_and_kmodes_match_direct_counts(self):
        ds = self.dataset()
        merged = dedupe(ds)
        rows = [tuple(r) for r in ds.values.tolist()]
        totals = {}
        for row, w in zip(rows, ds.weights.tolist()):
            totals[row] = totals.get(row, 0) + w
        assert [tuple(r) for r in merged.values.tolist()] == list(totals)
        assert merged.weights.tolist() == list(totals.values())
        assert merged.values.dtype == np.uint8
        for data in (ds, merged):
            result = run_kmodes(data, KModesConfig(k=4))
            wide = data.values.astype(np.int64)
            for c in range(4):
                members = result.assignment == c
                for r in range(data.m):
                    tally = np.bincount(wide[members, r], weights=data.weights[members], minlength=256)
                    assert result.modes[c, r] == np.argmax(tally)  # first maximum: smallest id
            direct = (wide != result.modes[result.assignment].astype(np.int64)).sum(axis=1) * data.weights
            assert result.mode_objective == int(direct.sum())
        assert run_kmodes(merged, KModesConfig(k=4)).mode_objective == run_kmodes(ds, KModesConfig(k=4)).mode_objective


class TestHammingBlocks:
    def spy_rows(self, a, b):
        """hamming(a, b) and the row count of every one-hot block it encodes."""
        rows, real = [], metric._onehot
        def spy(codes, *args):
            rows.append(codes.shape[0])
            return real(codes, *args)
        with mock.patch.object(metric, "_onehot", spy):
            return hamming(a, b), rows

    def test_a_blocks_against_few_rows_stay_within_the_budget(self):
        rng = np.random.default_rng(2)
        sizes = np.array([6, 4, 8, 2, 8, 2, 2, 2, 8, 2, 5, 4, 4, 8, 8, 2, 4, 3, 5, 8, 6, 7])
        a = (rng.integers(0, 1 << 20, size=(30_000, sizes.size)) % sizes).astype(np.uint8)
        a[0] = sizes - 1
        b = a[:20]
        d, rows = self.spy_rows(a, b)
        assert np.array_equal(d, broadcast_count(a, b))
        # one b block, then a-side blocks: one-hot rows, their int64 scatter index and their product
        per_row = (sizes.sum() + b.shape[0]) * 4 + sizes.size * 8
        assert rows[0] == 20 and len(rows) > 2 and max(rows[1:]) * per_row <= metric._BLOCK_BYTES

    def test_square_build_keeps_its_block_shape(self):
        # a matrix over thousands of records: all of b in one block, a in blocks of the 256-row floor
        ds = random_dataset(n=4200, m=22, max_categories=8, seed=4)
        _, rows = self.spy_rows(ds.values, ds.values)
        assert rows[0] == 4200 and rows[1:] == [256] * 16 + [4200 - 16 * 256]
