import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcluster import (
    DatasetError,
    KModesConfig,
    KModesResult,
    assign_points,
    dedupe,
    random_dataset,
    run_kmodes,
)
from catcluster import kmodes
from catcluster.kmodes import INIT_METHODS, init_modes
from catcluster.metric import cluster_counts, hamming, heaviest

from conftest import dataset_from_rows


def brute_force_mode_cost(ds) -> int:
    """Minimum of the summed weighted distance over the full category product."""
    best = None
    sizes = [a.size for a in ds.schema.attributes]
    for cand in itertools.product(*(range(s) for s in sizes)):
        cand = np.array(cand, dtype=np.int32)
        cost = int(((ds.values != cand).sum(axis=1) * ds.weights).sum())
        best = cost if best is None else min(best, cost)
    return best


def grouped_modes(values, weights, sizes, assignment, k):
    """(k, m) modes and the k clusters' mode costs, read from one count table."""
    counts = cluster_counts(values, weights, sizes, assignment, k)
    modes, top = heaviest(counts, sizes)
    return modes, counts.sum(axis=1) - top.sum(axis=1)


def dataset_mode(ds, indices=None):
    idx = slice(None) if indices is None else np.asarray(indices)
    values = ds.values[idx]
    one = np.zeros(len(values), dtype=np.int64)
    modes, _ = grouped_modes(values, ds.weights[idx], ds.schema.domain_sizes(), one, 1)
    return modes[0]


def dataset_mode_cost(ds) -> int:
    one = np.zeros(ds.n_records, dtype=np.int64)
    _, costs = grouped_modes(ds.values, ds.weights, ds.schema.domain_sizes(), one, 1)
    return int(costs[0])


class TestComputeMode:
    def test_hand_example(self, aq_cluster):
        mode = dataset_mode(aq_cluster)
        assert aq_cluster.decode(mode) == ["a", "q"]
        cost = int(((aq_cluster.values != mode).sum(axis=1)).sum())
        assert cost == 2
        assert cost == brute_force_mode_cost(aq_cluster)

    def test_singleton_is_itself(self):
        ds = dataset_from_rows([["x", "y", "z"]])
        assert np.array_equal(dataset_mode(ds), ds.values[0])

    def test_tie_breaks_to_smallest_id(self):
        ds = dataset_from_rows([["a"], ["b"]])
        assert ds.decode(dataset_mode(ds)) == ["a"]

    def test_weighted_tie(self):
        # weight pushes the later category past the earlier one
        ds = dataset_from_rows([["a"], ["b"]], weights=[1, 2])
        assert ds.decode(dataset_mode(ds)) == ["b"]

    def test_subset_indices(self):
        ds = dataset_from_rows([["a"], ["b"], ["b"]])
        assert ds.decode(dataset_mode(ds, indices=[0])) == ["a"]
        assert ds.decode(dataset_mode(ds, indices=[1, 2])) == ["b"]

    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 4),
        cats=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_category_product_oracle(self, n, m, cats, seed):
        ds = random_dataset(n=n, m=m, max_categories=cats, seed=seed)
        mode = dataset_mode(ds)
        cost = int(((ds.values != mode).sum(axis=1) * ds.weights).sum())
        assert cost == brute_force_mode_cost(ds)
        assert cost == dataset_mode_cost(ds)


class TestCategoryCounts:
    def test_mode_cost_exact_above_2_53(self):
        values = np.array([[0], [1], [1]], dtype=np.int32)
        weights = np.array([2**53 + 1, 1, 1], dtype=np.int64)
        _, costs = grouped_modes(values, weights, np.array([2]), np.zeros(3, dtype=np.int64), 1)
        assert costs.tolist() == [2]

    def test_mode_exact_above_2_53(self):
        # float64 counts would round both categories to 2**53 and tie on "a"
        ds = dataset_from_rows([["a"], ["b"]], weights=[2**53, 2**53 + 1])
        assert ds.decode(dataset_mode(ds)) == ["b"]
        assert dataset_mode_cost(ds) == 2**53

    @given(
        s=st.integers(1, 12),
        m=st.integers(1, 4),
        cats=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        weights=st.lists(st.integers(1, 2**40), min_size=12, max_size=12),
        k=st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_mode_and_cost_match_brute_force(self, s, m, cats, seed, weights, k):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, cats, size=(s, m)).astype(np.int32)
        assignment = rng.integers(0, k, size=s)  # clusters may be empty
        w = weights[:s]
        modes, costs = grouped_modes(values, np.array(w, dtype=np.int64), np.full(m, cats), assignment, k)
        # O(s^2) brute force with Python integers: per cluster, the best
        # representative built attribute by attribute from the members' own
        # categories (category 0 at cost 0 for an empty cluster)
        for c in range(k):
            members = [i for i in range(s) if assignment[i] == c]
            want_mode, want_cost = [], 0
            for r in range(m):
                per_category = {
                    v: sum(w[i] for i in members if values[i, r] != v) for v in range(cats)
                }
                best = min(per_category.values())
                want_mode.append(min(v for v in per_category if per_category[v] == best))
                want_cost += best
            assert modes[c].tolist() == want_mode
            assert int(costs[c]) == want_cost


class TestInitAndAssign:
    def test_first_k_distinct_skips_duplicates(self):
        ds = dataset_from_rows([["a", "b"], ["a", "b"], ["c", "d"]])
        modes = init_modes(ds, KModesConfig(k=2))
        assert [ds.decode(mo) for mo in modes] == [["a", "b"], ["c", "d"]]

    def test_k_above_distinct_count_errors(self):
        ds = dataset_from_rows([["a"], ["a"], ["b"]])
        with pytest.raises(DatasetError, match="distinct"):
            init_modes(ds, KModesConfig(k=3))

    def test_random_init_is_seeded_and_distinct(self):
        ds = dataset_from_rows([["a"], ["a"], ["b"], ["c"]])
        cfg = KModesConfig(k=3, init="random", seed=5)
        a = init_modes(ds, cfg)
        b = init_modes(ds, cfg)
        assert np.array_equal(a, b)
        assert len({row.tobytes() for row in a}) == 3

    def test_assign_tie_goes_to_lowest_cluster(self, aq_cluster):
        modes = np.array([[0, 1], [1, 0]], dtype=np.int32)  # [a,q], [b,p]
        assignment = assign_points(aq_cluster.values, modes)
        assert assignment.tolist() == [0, 0, 0]

    def test_assign_exact_match(self):
        ds = dataset_from_rows([["a"], ["b"]])
        modes = np.array([[1], [0]], dtype=np.int32)
        assert assign_points(ds.values, modes).tolist() == [1, 0]

    def test_assign_blocks_match_one_distance_block(self, monkeypatch):
        ds = random_dataset(n=50, m=5, max_categories=3, seed=8)
        modes = ds.values[[0, 7, 9, 20]]
        whole = np.argmin(hamming(ds.values, modes), axis=1)
        for rows in (1, 3, 49, 50, 64):  # blocks that do and do not divide the records
            monkeypatch.setattr(kmodes, "_block_rows", lambda values, modes: rows)
            assert np.array_equal(assign_points(ds.values, modes), whole)

    def test_assign_memory_does_not_grow_with_n(self):
        # beyond its int64 output, one block of the kernel's codes and
        # distances: measured 0.7 MB here, where one (n, k) distance block
        # alone is 4 MB
        n, k = 200_000, 20
        ds = random_dataset(n=n, m=22, max_categories=8, seed=3, min_categories=2)
        modes = ds.values[:k].copy()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assign_points(ds.values, modes)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 8 * n + (2 << 20), peak - 8 * n


class TestRunKModes:
    def test_k1_returns_dataset_mode(self, aq_cluster):
        result = run_kmodes(aq_cluster, KModesConfig(k=1))
        assert aq_cluster.decode(result.modes[0]) == ["a", "q"]
        assert result.mode_objective == 2
        assert result.converged
        assert result.objective_history == (2,) and result.reseeded_iterations == ()

    def test_k_equals_distinct_gives_zero(self):
        ds = dataset_from_rows([["a", "p"], ["b", "q"], ["c", "r"]])
        result = run_kmodes(ds, KModesConfig(k=3))
        assert result.mode_objective == 0

    def test_objective_recomputable(self, four_point):
        result = run_kmodes(four_point, KModesConfig(k=2))
        recomputed = int(
            (
                (four_point.values != result.modes[result.assignment]).sum(axis=1)
                * four_point.weights
            ).sum()
        )
        assert recomputed == result.mode_objective

    def test_deterministic(self):
        ds = random_dataset(n=120, m=6, max_categories=4, seed=13)
        a = run_kmodes(ds, KModesConfig(k=4, init="random", seed=2))
        b = run_kmodes(ds, KModesConfig(k=4, init="random", seed=2))
        assert np.array_equal(a.assignment, b.assignment)
        assert a.mode_objective == b.mode_objective

    @given(
        n=st.integers(2, 25),
        m=st.integers(1, 5),
        cats=st.integers(2, 4),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_objective_never_rises_outside_reseeds(self, n, m, cats, seed, k):
        ds = random_dataset(n=n, m=m, max_categories=cats, seed=seed)
        distinct = len({row.tobytes() for row in ds.values})
        if k > distinct:
            k = distinct
        result = run_kmodes(ds, KModesConfig(k=k))
        hist = result.objective_history
        for prev, cur, it in zip(hist, hist[1:], range(2, len(hist) + 1)):
            if it not in result.reseeded_iterations:
                assert cur <= prev
        assert np.unique(result.assignment).size == k

    def test_weight_equivalence_with_dedupe(self):
        rng = np.random.default_rng(4)
        rows = [[str(rng.integers(0, 2)) for _ in range(4)] for _ in range(60)]
        raw = dataset_from_rows(rows)
        merged = dedupe(raw)
        a = run_kmodes(raw, KModesConfig(k=3))
        b = run_kmodes(merged, KModesConfig(k=3))
        assert a.mode_objective == b.mode_objective
        # per-original-row assignments agree through each row's merged record
        record_of = {row.tobytes(): r for r, row in enumerate(merged.values)}
        record_of_row = [record_of[row.tobytes()] for row in raw.values]
        assert np.array_equal(merged.values[record_of_row], raw.values)
        assert np.array_equal(b.assignment[record_of_row], a.assignment)

    def test_empty_cluster_reseeded_with_farthest_record(self):
        from catcluster.kmodes import _reseed_empty_clusters

        ds = dataset_from_rows(
            [["a", "a", "a"], ["a", "a", "b"], ["z", "y", "x"]]
        )
        modes = ds.values[[0, 1]].copy()
        assignment = np.array([0, 0, 0], dtype=np.int64)  # cluster 1 starts empty
        new_assignment, new_modes, reseeded = _reseed_empty_clusters(
            ds.values, assignment, modes, 2
        )
        assert reseeded
        # record 2 is farthest from cluster 1's old mode and becomes its seed
        assert np.array_equal(new_modes[1], ds.values[2])
        assert (np.bincount(new_assignment, minlength=2) > 0).all()
        assert np.array_equal(new_modes[0], modes[0])

    @given(
        n=st.integers(1, 30),
        m=st.integers(1, 4),
        cats=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        picks=st.lists(st.integers(0, 29), min_size=1, max_size=5),
        rows=st.sampled_from([1, 3, 7, 2048]),
    )
    @settings(max_examples=150, deadline=None)
    def test_reseed_picks_match_the_whole_block(self, n, m, cats, seed, picks, rows):
        # modes copied from records, repeats included, so that ties and
        # records equal to another mode are common
        ds = random_dataset(n=n, m=m, max_categories=cats, seed=seed)
        modes = ds.values[[p % n for p in picks]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kmodes, "_block_rows", lambda values, modes: rows)
            for c in range(len(modes)):
                expected = farthest_oracle(ds.values, modes, c)
                if expected < 0:
                    with pytest.raises(RuntimeError, match="no reseed candidate"):
                        kmodes._farthest_record(ds.values, modes, c)
                else:
                    assert kmodes._farthest_record(ds.values, modes, c) == expected

    def test_reseed_memory_does_not_grow_with_n(self):
        # beyond the int64 assignment it returns, one block of distances:
        # the whole (n, k) block and its copy took 13.2 MB here
        n, k = 200_000, 20
        ds = random_dataset(n=n, m=22, max_categories=8, seed=3, min_categories=2)
        modes = ds.values[:k].copy()
        assignment = assign_points(ds.values, modes)
        assignment[assignment == 5] = 0  # cluster 5 is empty
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _, _, reseeded = kmodes._reseed_empty_clusters(ds.values, assignment, modes, k)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert reseeded
        assert peak <= 8 * n + (2 << 20), peak - 8 * n

    def test_objective_increase_raises(self, monkeypatch):
        ds = random_dataset(n=120, m=6, max_categories=4, seed=1)
        config = KModesConfig(k=4)
        result = run_kmodes(ds, config)
        assert len(result.objective_history) >= 2 and not result.reseeded_iterations
        # every run reads its objective as the summed member costs of the count table
        rising = iter(range(10**6))
        monkeypatch.setattr(kmodes, "member_costs", lambda *args: np.array([next(rising)]))
        with pytest.raises(RuntimeError, match="objective increased"):
            run_kmodes(ds, config)

    def test_max_iterations_caps_loop(self):
        ds = random_dataset(n=200, m=8, max_categories=5, seed=3)
        result = run_kmodes(ds, KModesConfig(k=5, max_iterations=1))
        assert result.iterations == 1


def farthest_oracle(values, modes, c) -> int:
    """The reseed pick from one whole (n, k) distance block: the first record
    farthest from mode ``c`` among those equal to no other mode, or -1."""
    dists = hamming(values, modes)
    d = dists[:, c].astype(np.int64)
    d[(np.delete(dists, c, axis=1) == 0).any(axis=1)] = -1
    pick = int(np.argmax(d))
    return pick if d[pick] >= 0 else -1


def direct_objective(ds, result) -> int:
    """Summed weighted mismatches of every record against its cluster's mode."""
    mismatches = (ds.values != result.modes[result.assignment]).sum(axis=1)
    return int((mismatches * ds.weights).sum())


# a weighted input on which k = 5 from the first distinct records empties a
# cluster in iteration 1 and reseeds it
RESEEDING_ROWS = [[1, 1, 2, 2], [0, 2, 2, 0], [0, 2, 2, 1], [2, 2, 2, 1], [1, 2, 2, 1],
                  [0, 1, 0, 2], [1, 0, 2, 2], [0, 1, 1, 2], [0, 1, 0, 1]]
RESEEDING = dataset_from_rows(RESEEDING_ROWS, weights=[1, 2, 3, 3, 1, 3, 1, 1, 3])

# the same rows under other weights: iteration 1 reseeds, and iteration 2's
# modes are the reseeded ones
RESEED_THEN_REPEAT = dataset_from_rows(RESEEDING_ROWS, weights=[1, 4, 2, 2, 2, 4, 2, 4, 2])


# converged and capped runs, each with and without a reseed in iteration 1
RUNS = pytest.mark.parametrize(
    "ds, config, converged, reseeded",
    [
        (random_dataset(n=300, m=7, max_categories=5, seed=21), KModesConfig(k=6), True, ()),
        (random_dataset(n=200, m=8, max_categories=5, seed=3), KModesConfig(k=5, max_iterations=1), False, ()),
        (RESEEDING, KModesConfig(k=5), True, (1,)),
        (RESEEDING, KModesConfig(k=5, max_iterations=1), False, (1,)),
    ],
)


class TestObjectiveFromCountTable:
    @RUNS
    def test_matches_the_direct_count(self, ds, config, converged, reseeded):
        result = run_kmodes(ds, config)
        assert (result.converged, result.reseeded_iterations) == (converged, reseeded)
        assert result.mode_objective == direct_objective(ds, result)
        # the i-th entry is the objective a run stopped after i iterations reports
        for i, objective in enumerate(result.objective_history, start=1):
            stopped = run_kmodes(ds, dataclasses.replace(config, max_iterations=i))
            assert objective == direct_objective(ds, stopped)
        assert result.objective_history[-1] == result.mode_objective

    @RUNS
    def test_one_count_table_per_iteration(self, monkeypatch, ds, config, converged, reseeded):
        # the table each iteration builds for its objective is the next mode
        # update's, and a converged run builds none for its unchanged assignment
        calls = []
        monkeypatch.setattr(kmodes, "cluster_counts", lambda *args: calls.append(1) or cluster_counts(*args))
        result = run_kmodes(ds, config)
        assert (result.converged, result.reseeded_iterations) == (converged, reseeded)
        assert len(result.objective_history) == result.iterations
        assert len(calls) == (result.iterations if converged else result.iterations + 1)


def always_assign(ds, config) -> KModesResult:
    """The k-modes loop with an assignment pass and a reseed check in every
    iteration, modes and objectives computed here: the reference for
    run_kmodes, which skips both when the updated modes are the ones that
    made the current assignment."""
    values, weights, sizes, k = ds.values, ds.weights, ds.schema.domain_sizes(), config.k
    modes = init_modes(ds, config)
    assignment, modes, reseeded = kmodes._reseed_empty_clusters(values, assign_points(values, modes), modes, k)
    history, reseeds = [], [0] if reseeded else []
    for it in range(1, config.max_iterations + 1):
        modes = grouped_modes(values, weights, sizes, assignment, k)[0].astype(values.dtype)
        new, modes, reseeded = kmodes._reseed_empty_clusters(values, assign_points(values, modes), modes, k)
        if reseeded:
            reseeds.append(it)
        converged = not reseeded and np.array_equal(new, assignment)
        assignment = new
        history.append(int(((values != modes[assignment]).sum(axis=1) * weights).sum()))
        if converged:
            break
    return KModesResult(assignment, modes, history[-1], it, converged, tuple(history), tuple(reseeds),
                        cluster_counts(values, weights, sizes, assignment, k))


def assert_same_run(result, reference):
    assert np.array_equal(result.assignment, reference.assignment)
    assert np.array_equal(result.modes, reference.modes) and result.modes.dtype == reference.modes.dtype
    fields = ("mode_objective", "iterations", "converged", "objective_history", "reseeded_iterations")
    assert [getattr(result, f) for f in fields] == [getattr(reference, f) for f in fields]
    assert np.array_equal(result.counts, reference.counts)  # the table of the final assignment


def count_assign_calls(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(kmodes, "assign_points", lambda *args: calls.append(1) or assign_points(*args))
    return calls


class TestRepeatedModes:
    @given(
        n=st.integers(1, 30),
        m=st.integers(1, 5),
        cats=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        init=st.sampled_from(INIT_METHODS),
        max_iterations=st.sampled_from([1, 2, 3, 100]),
        merged=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_always_assigning_loop(self, n, m, cats, seed, k, init, max_iterations, merged):
        ds = random_dataset(n=n, m=m, max_categories=cats, seed=seed)
        if merged:  # repeated rows become weights above 1
            ds = dedupe(ds)
        config = KModesConfig(k=min(k, len(ds.distinct_records)), init=init, seed=seed,
                              max_iterations=max_iterations)
        assert_same_run(run_kmodes(ds, config), always_assign(ds, config))

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 100])
    @pytest.mark.parametrize("ds", [RESEEDING, RESEED_THEN_REPEAT], ids=["modes-move", "modes-repeat"])
    def test_reseeding_run_equals_the_always_assigning_loop(self, ds, max_iterations):
        config = KModesConfig(k=5, max_iterations=max_iterations)
        result = run_kmodes(ds, config)
        assert result.reseeded_iterations == (1,)
        assert_same_run(result, always_assign(ds, config))

    def test_modes_repeat_right_after_a_reseed(self, monkeypatch):
        # the reseeded modes made the assignment that iteration 2 reuses
        calls = count_assign_calls(monkeypatch)
        result = run_kmodes(RESEED_THEN_REPEAT, KModesConfig(k=5))
        assert (result.iterations, result.converged, result.reseeded_iterations) == (2, True, (1,))
        assert len(calls) == 3  # the initial one, and iteration 1's before and after its reseed

    def test_repeated_modes_assign_once_per_iteration(self, monkeypatch):
        # one pass for the initial assignment and one per iteration but the
        # last, whose modes are the ones that made the assignment
        ds = random_dataset(n=300, m=7, max_categories=5, seed=21)
        config = KModesConfig(k=6)
        reference = always_assign(ds, config)
        calls = count_assign_calls(monkeypatch)
        result = run_kmodes(ds, config)
        assert result.converged and result.iterations >= 2 and not result.reseeded_iterations
        assert len(calls) == result.iterations
        assert_same_run(result, reference)

    def test_moved_modes_assign_again(self, monkeypatch, aq_cluster):
        # k = 1 from the first record: the cluster's mode is another vector,
        # so the converging iteration assigns once more
        calls = count_assign_calls(monkeypatch)
        result = run_kmodes(aq_cluster, KModesConfig(k=1))
        assert not np.array_equal(result.modes[0], aq_cluster.values[0])
        assert (result.converged, result.iterations) == (True, 1)
        assert len(calls) == result.iterations + 1
