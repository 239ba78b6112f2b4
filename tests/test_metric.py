import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcluster import (
    KModesConfig,
    check_metric_properties,
    dedupe,
    medoids,
    metric,
    objective_under_medoids,
    random_dataset,
    run_kmodes,
)
from catcluster.dataset import unsigned_dtype
from catcluster.metric import (
    cluster_counts,
    hamming,
    heaviest,
    member_costs,
)

from conftest import dataset_from_rows


def broadcast_count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent oracle: mismatching attributes counted by direct comparison."""
    return (a[:, None, :] != b[None, :, :]).sum(axis=2)


def traced_peak(call):
    """``call()``'s result, and the bytes it held at its peak beyond what it
    started with."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


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
        assert unsigned_dtype(22) == np.uint8
        assert unsigned_dtype(255) == np.uint8
        assert unsigned_dtype(256) == np.uint16
        assert unsigned_dtype(70000) == np.uint32

    @pytest.mark.parametrize(
        "block, size, built",
        [(512, 10_000, [(100, 100)]), (30, 6400, [(100, 30), (70, 30), (40, 30), (10, 10)])],
    )
    def test_budget_refusal(self, monkeypatch, block, size, built):
        # the solvers keep the distance store at exactly its bytes of budget:
        # the 100 x 100 uint8 square as one block, or the blocks of 30
        # columns, 100 x 30 down to 10 x 10; one byte below that, they
        # compute the rows a read asks for, and build nothing
        ds = random_dataset(n=100, m=4, max_categories=3, seed=0)
        ds = dataset_from_rows([[str(v) for v in row] for row in ds.values], weights=range(100, 0, -1))
        calls = []

        def counting_hamming(a, b):
            calls.append((len(a), len(b)))
            return hamming(a, b)

        monkeypatch.setattr(medoids, "hamming", counting_hamming)
        monkeypatch.setattr(medoids, "_BLOCK", block)
        order = medoids._columns(ds).order
        assert order.tolist() == list(range(99, -1, -1))  # weights ascend against the file
        values = ds.values[order]
        want = broadcast_count(values[10:20], values)  # rows and columns in summation order
        for budget, kept, per_read in ((size, built, []), (size - 1, [], [(100, 10)])):
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", budget)
            calls.clear()
            store = medoids._store(ds)
            assert calls == kept
            calls.clear()
            assert np.array_equal(medoids._rows(store, range(10, 20)), want)
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
        row_bytes=st.sampled_from([1, 7, 64, 1 << 18]),
    )
    @settings(max_examples=80, deadline=None)
    def test_blocks_match_broadcast_count(self, data, na, nb, m, cats, wide, block_bytes, row_bytes):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        a = rng.integers(0, cats, size=(na, m)).astype(np.int32)
        b = rng.integers(0, cats, size=(nb, m)).astype(np.int32)
        if wide:  # attribute 0 takes up to 1000 categories
            a[:, 0] = rng.integers(0, 1000, size=na)
            b[:, 0] = rng.integers(0, 1000, size=nb)
        with mock.patch.multiple(metric, _BLOCK_BYTES=block_bytes, _ROW_BYTES=row_bytes):
            d = hamming(a, b)
        assert d.dtype == unsigned_dtype(m)
        assert np.array_equal(d, broadcast_count(a, b))

    @pytest.mark.parametrize(
        "sizes, groups, width",
        [
            ((4, 8, 8), [(0, 3)], np.uint8),  # 256 joint categories: one group, one-byte codes
            ((4, 8, 8, 2), [(0, 3), (3, 4)], np.uint8),  # 512: the last attribute starts a group
            ((257, 2, 3), [(0, 1), (1, 3)], np.uint16),  # over 256 categories: a group of its own
            ((2, 300, 3, 1, 1), [(0, 1), (1, 2), (2, 5)], np.uint16),
            ((2, 128, 1, 1, 2), [(0, 2), (2, 5)], np.uint8),  # one category counts as two
        ],
    )
    def test_groups_and_their_code_width(self, sizes, groups, width):
        assert metric._groups(list(sizes))[0] == groups
        rng = np.random.default_rng(sum(sizes))
        a = np.stack([rng.integers(0, size, 400) for size in sizes], axis=1)
        a[0] = np.array(sizes) - 1  # every category present: the domain sizes are these
        a = a.astype(np.uint16)
        b = np.stack([rng.integers(0, size, 60) for size in sizes], axis=1).astype(np.uint16)
        table_rows = []
        real = metric._tables

        def spy(block, sizes, groups, dtype):
            tables = real(block, sizes, groups, dtype)
            table_rows.append([len(t) for t in tables])
            return tables

        with mock.patch.object(metric, "_tables", spy):
            assert np.array_equal(hamming(a, b), broadcast_count(a, b))
        assert table_rows == [[int(np.prod(sizes[s:e])) for s, e in groups]]  # one row per joint category
        places = metric._groups(list(sizes))[1]
        joint = max(int(np.prod(sizes[s:e])) for s, e in groups)
        assert metric.unsigned_dtype(joint - 1) == width and max(places) < joint

    def test_b_side_categories_a_lacks(self):
        # a holds categories 0-1 and 0-2; b also 2-9 and 3-5, in a wider dtype
        rng = np.random.default_rng(4)
        a = np.stack([rng.integers(0, 2, 50), rng.integers(0, 3, 50)], axis=1).astype(np.uint8)
        b = np.stack([rng.integers(0, 10, 80), rng.integers(0, 6, 80)], axis=1).astype(np.uint16)
        b[:3] = [[9, 5], [1, 4], [0, 2]]
        d = hamming(a, b)
        assert np.array_equal(d, broadcast_count(a, b))
        assert (d[:, 0] == 2).all() and (d[:, 1] >= 1).all()

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

    @pytest.mark.parametrize("rows", [3, 7])
    def test_member_costs_span_row_blocks(self, monkeypatch, rows):
        n, m, k = 52, 4, 3  # 52 records: a partial last block of 3 and of 7
        assert n % rows
        rng = np.random.default_rng(rows)
        weights = rng.integers(1, 2**40, size=n)
        ds = dataset_from_rows(rng.integers(0, 4, size=(n, m)).tolist(), weights=weights)
        assignment = rng.permutation(np.arange(n) % k)
        default = objective_under_medoids(ds, assignment)
        # member_costs holds 24 bytes per entry; the count table, at 16, takes 4 and 10 records
        monkeypatch.setattr(metric, "_PASS_BYTES", rows * 24 * m)
        assert [len(range(n)[b]) for b in metric._blocks(n, 24 * m)] == [rows] * (n // rows) + [n % rows]
        values, sizes = ds.values, ds.schema.domain_sizes()
        counts = cluster_counts(values, ds.weights, sizes, assignment, k)
        costs = member_costs(counts, sizes, values, assignment)
        same = assignment[:, None] == assignment[None, :]
        assert costs.tolist() == (broadcast_count(values, values) * same * weights[:, None]).sum(0).tolist()
        assert sum(int(costs[assignment == c].min()) for c in range(k)) == default

    def test_count_table_spans_row_blocks(self):
        # two whole blocks of the count table's 16 bytes per entry and a partial one
        m, k = 5, 3
        n = 2 * (metric._PASS_BYTES // (16 * m)) + 123
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

    def test_count_passes_memory_does_not_grow_with_m(self):
        # beyond their outputs, one block of 16 or 24 bytes per entry: 1.7 and
        # 0.8 MiB measured here at n = 5000, m = 2000, where blocks of a fixed
        # 4096 records held 125 MiB
        n, m, k = 5000, 2000, 3
        rng = np.random.default_rng(5)
        values = rng.integers(0, 3, size=(n, m)).astype(np.uint8)
        sizes, weights, assignment = np.full(m, 3), np.ones(n, dtype=np.int64), np.arange(n) % k
        counts = cluster_counts(values, weights, sizes, assignment, k)
        peaks = [
            traced_peak(lambda: cluster_counts(values, weights, sizes, assignment, k))[1],
            traced_peak(lambda: member_costs(counts, sizes, values, assignment))[1],
        ]
        assert max(peaks) <= 8 * n + (4 << 20), peaks


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

    def test_memory_does_not_grow_with_trials_times_m(self):
        # the direct counts are taken pair block by pair block: 20 000 trials
        # on 200 attributes held 4.4 MiB here, where counting them over all
        # trials at once held 13.0 MiB
        rng = np.random.default_rng(1)
        ds = dataset_from_rows(rng.integers(0, 3, size=(300, 200)).tolist())
        report, peak = traced_peak(lambda: check_metric_properties(ds, 20_000, seed=0))
        assert peak <= 8 << 20, peak
        assert report.passed and report.figures == {"triples_checked": 20_000}

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
    def spy_blocks(self, a, b):
        """hamming(a, b), the bytes of each table build (tables and the
        mismatch rows they sum) and the shape of each block of distance rows."""
        builds, blocks = [], []
        real_tables, real_take = metric._tables, np.take

        def tables(block, sizes, groups, dtype):
            out = real_tables(block, sizes, groups, dtype)
            builds.append(sum(t.nbytes for t in out) + sum(sizes) * block.shape[0] * np.dtype(dtype).itemsize)
            return out

        def take(table, pick, axis=None, out=None, mode="raise"):
            blocks.append(out.shape)
            return real_take(table, pick, axis=axis, out=out, mode=mode)

        with mock.patch.object(metric, "_tables", tables), mock.patch.object(metric.np, "take", take):
            return hamming(a, b), builds, blocks

    def test_a_blocks_against_few_rows_stay_within_the_budget(self):
        rng = np.random.default_rng(2)
        sizes = np.array([6, 4, 8, 2, 8, 2, 2, 2, 8, 2, 5, 4, 4, 8, 8, 2, 4, 3, 5, 8, 6, 7])
        a = (rng.integers(0, 1 << 20, size=(30_000, sizes.size)) % sizes).astype(np.uint8)
        a[0] = sizes - 1
        b = a[:20]
        d, builds, blocks = self.spy_blocks(a, b)
        assert np.array_equal(d, broadcast_count(a, b))
        # one table build; blocks of 13 107 rows of 20 one-byte distances, a take per group each
        groups = len(metric._groups(sizes.tolist())[0])
        assert len(builds) == 1 and builds[0] <= metric._BLOCK_BYTES
        rows = metric._ROW_BYTES // 20
        assert blocks == [(rows, 20)] * 2 * groups + [(30_000 - 2 * rows, 20)] * groups

    def test_square_build_splits_b_by_its_tables(self):
        # a matrix over thousands of records: the tables for all of b would pass
        # the budget, so b comes in the largest blocks whose tables fit, and a
        # in blocks of distance rows within _ROW_BYTES
        ds = random_dataset(n=8124, m=22, max_categories=8, seed=4)
        d, builds, blocks = self.spy_blocks(ds.values, ds.values)
        assert np.array_equal(d[::97], broadcast_count(ds.values[::97], ds.values))
        sizes = (ds.values.max(axis=0).astype(int) + 1).tolist()
        groups = metric._groups(sizes)[0]
        per_record = sum(int(np.prod(sizes[s:e])) for s, e in groups) + sum(sizes)  # one byte each
        b_rows = metric._BLOCK_BYTES // per_record
        assert len(builds) == -(-8124 // b_rows) > 1
        assert builds == [b_rows * per_record] * (len(builds) - 1) + [(8124 % b_rows) * per_record]
        assert blocks[0] == (metric._ROW_BYTES // b_rows, b_rows)
        assert all(rows * columns <= metric._ROW_BYTES for rows, columns in blocks)
