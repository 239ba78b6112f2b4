import itertools
import math
import random
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcluster import (
    DatasetError,
    InstanceTooLargeError,
    dedupe,
    medoids,
    LocalSearchConfig,
    audit_lemma1,
    audit_lemma2,
    brute_force_kmodes_objective,
    cost_of_medoid_set,
    exhaustive_search,
    exhaustive_search_naive,
    local_search,
    objective_under_modes,
    random_dataset,
)

from conftest import dataset_from_rows

# all six k=2 medoid pairs of the four-point instance, hand-evaluated
FOUR_POINT_PAIR_COSTS = {
    (0, 1): 4,
    (0, 2): 2,
    (0, 3): 2,
    (1, 2): 2,
    (1, 3): 2,
    (2, 3): 4,
}


class TestCostOfMedoidSet:
    def test_hand_pairs(self, four_point):
        for pair, want in FOUR_POINT_PAIR_COSTS.items():
            got, _ = cost_of_medoid_set(four_point, pair)
            assert got == want, pair

    def test_assignment_and_ties(self, four_point):
        obj, assignment = cost_of_medoid_set(four_point, [0, 2])
        assert obj == 2
        assert assignment.tolist() == [0, 0, 1, 1]
        # records 2 and 3 sit at distance 2 from both of records 0 and 1:
        # the tie goes to the first position in the medoid list
        _, tied = cost_of_medoid_set(four_point, [0, 1])
        assert tied.tolist() == [0, 1, 0, 0]
        _, flipped = cost_of_medoid_set(four_point, [1, 0])
        assert flipped.tolist() == [1, 0, 0, 0]

    def test_all_records_as_medoids_is_free(self, four_point):
        obj, assignment = cost_of_medoid_set(four_point, range(4))
        assert obj == 0
        assert assignment.tolist() == [0, 1, 2, 3]

    def test_validation(self, four_point):
        with pytest.raises(ValueError, match="duplicate"):
            cost_of_medoid_set(four_point, [1, 1])
        with pytest.raises(ValueError, match="range"):
            cost_of_medoid_set(four_point, [0, 9])

    @pytest.mark.parametrize("block", [1, 3, 512])
    def test_matrix_backed_equals_on_the_fly(self, four_point, monkeypatch, block):
        # the solvers' rows, from the kept store and computed per call, give
        # the objective cost_of_medoid_set recomputes from its own rows
        monkeypatch.setattr(medoids, "_BLOCK", block)
        held = medoids._store(four_point)
        monkeypatch.setattr(medoids, "MATRIX_BUDGET", 0)
        on_the_fly = medoids._store(four_point)
        assert held.blocks is not None and on_the_fly.blocks is None
        for pair in FOUR_POINT_PAIR_COSTS:
            for store in (held, on_the_fly):
                got = int(store.weights @ medoids._rows(store, store.position[list(pair)]).min(axis=0))
                assert got == cost_of_medoid_set(four_point, pair)[0]

    def test_weighted_objective(self):
        ds = dataset_from_rows([["a"], ["b"]], weights=[3, 1])
        obj, _ = cost_of_medoid_set(ds, [0])
        assert obj == 1
        obj, _ = cost_of_medoid_set(ds, [1])
        assert obj == 3


def best_exchange(ds, current, p):
    """Every exchange of up to p medoids of ``current``, costed one by one:
    sizes ascending, removal positions then additions in lexicographic
    order, strict improvement to move the incumbent."""
    others = [i for i in range(ds.n_records) if i not in current]
    want = None
    for size in range(1, min(p, len(current), len(others)) + 1):
        for removals in itertools.combinations(range(len(current)), size):
            kept = [c for pos, c in enumerate(current) if pos not in removals]
            for additions in itertools.combinations(others, size):
                cost = cost_of_medoid_set(ds, kept + list(additions))[0]
                if want is None or cost < want[0]:
                    want = (cost, removals, additions)
    return want


def best_swap(store, current, p, last=None):
    """One swap step, ``medoids._best_swap``, with no rows carried over unless ``last`` is given."""
    return medoids._best_swap(store, current, p, {} if last is None else last)


class TestExhaustiveSearch:
    def test_four_point_optimum(self, four_point):
        sol = exhaustive_search(four_point, 2)
        assert sol.medoid_objective == 2
        assert sol.medoid_indices == (0, 2)  # lexicographically smallest optimum
        assert sol.guarantee == 2.0
        assert sol.algorithm == "exhaustive"

    def test_k_equals_n(self, four_point):
        sol = exhaustive_search(four_point, 4)
        assert sol.medoid_objective == 0

    def test_lexicographic_tie_rule(self):
        # four corners of a 2x2 grid: every pair costs 2, smallest tuple wins
        ds = dataset_from_rows([["a", "p"], ["a", "q"], ["b", "p"], ["b", "q"]])
        sol = exhaustive_search(ds, 2)
        naive = exhaustive_search_naive(ds, 2)
        assert sol.medoid_indices == naive.medoid_indices == (0, 1)
        assert sol.medoid_objective == naive.medoid_objective == 2

    def test_gate_refuses_without_force(self, monkeypatch):
        ds = random_dataset(n=30, m=2, max_categories=2, seed=0)  # 30 * C(30, 2) = 13 050 terms
        monkeypatch.setattr(medoids, "EXHAUSTIVE_GATE", 13_049)
        with pytest.raises(InstanceTooLargeError, match="force"):
            exhaustive_search(ds, 2)
        assert exhaustive_search(ds, 2, force=True).medoid_objective >= 0
        monkeypatch.setattr(medoids, "EXHAUSTIVE_GATE", 13_050)
        assert exhaustive_search(ds, 2).medoid_objective >= 0

    def test_default_gate_counts_work_not_records(self, monkeypatch):
        ds = random_dataset(n=2000, m=2, max_categories=2, seed=0)
        with pytest.raises(InstanceTooLargeError, match="k=3"):  # 2.7e12 terms
            exhaustive_search(ds, 3)
        # 4.0e9 terms at k=2 pass the gate: the call gets as far as the scan
        monkeypatch.setattr(medoids, "_scan", lambda *args: (-1, (0, 1)))
        with pytest.raises(RuntimeError, match="scan cost"):
            exhaustive_search(ds, 2)

    def test_invalid_k(self, four_point):
        with pytest.raises(ValueError):
            exhaustive_search(four_point, 0)
        with pytest.raises(ValueError):
            exhaustive_search(four_point, 5)

    @pytest.mark.parametrize("k", [1, 2])
    def test_invalid_workers(self, four_point, k):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                exhaustive_search(four_point, k, workers=workers)

    @pytest.mark.parametrize("block", [3, 7, 512])
    def test_worker_and_matrix_parity(self, monkeypatch, block):
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 64)  # 3 workers: 3 shares on any machine
        ds = random_dataset(n=55, m=5, max_categories=3, seed=21)
        base = exhaustive_search(ds, 3)
        monkeypatch.setattr(medoids, "_BLOCK", block)
        for workers, budget in ((3, medoids.MATRIX_BUDGET), (1, 0), (2, 0)):
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", budget)  # 0: tiles computed per sweep
            other = exhaustive_search(ds, 3, workers=workers)
            assert other.medoid_objective == base.medoid_objective
            assert other.medoid_indices == base.medoid_indices
            assert other.assignment.tolist() == base.assignment.tolist()

    @staticmethod
    def record_threads(monkeypatch):
        """Threads the scan starts, and the (thread, share) of every share it scores."""
        started, shares, scan = [], [], medoids._scan

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def recording_scan(store, base, excluded, size, bound, share=(0, 1)):
            shares.append((threading.current_thread(), share))
            return scan(store, base, excluded, size, bound, share)

        monkeypatch.setattr(medoids.threading, "Thread", RecordingThread)
        monkeypatch.setattr(medoids, "_scan", recording_scan)
        return started, shares

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 2)
        started, shares = self.record_threads(monkeypatch)
        ds = random_dataset(n=40, m=3, max_categories=2, seed=3)  # 39 first indices at k = 2
        sol = exhaustive_search(ds, 2, workers=4096)
        naive = exhaustive_search_naive(ds, 2)
        assert len(started) + 1 == 2  # the calling thread takes one of the 2 shares
        assert sorted(share for _, share in shares) == [(0, 2), (1, 2)]
        assert {thread for thread, _ in shares} == {threading.current_thread(), *started}
        assert (sol.medoid_objective, sol.medoid_indices) == (naive.medoid_objective, naive.medoid_indices)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 64)
        started, shares = self.record_threads(monkeypatch)
        ds = random_dataset(n=30, m=3, max_categories=2, seed=4)
        sol = exhaustive_search(ds, 3, workers=1)
        assert started == []
        assert shares == [(threading.current_thread(), (0, 1))]
        assert sol.medoid_indices == exhaustive_search_naive(ds, 3).medoid_indices

    def test_a_failed_share_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 2)
        scan = medoids._scan

        def failing_scan(store, base, excluded, size, bound, share=(0, 1)):
            if share[0] == 1:
                raise MemoryError("share 1")
            return scan(store, base, excluded, size, bound, share)

        monkeypatch.setattr(medoids, "_scan", failing_scan)
        with pytest.raises(MemoryError, match="share 1"):
            exhaustive_search(random_dataset(n=20, m=3, max_categories=2, seed=5), 2, workers=2)

    @pytest.mark.parametrize("n,k", [(5, 4), (9, 3), (24, 2), (30, 1)])
    def test_worker_counts_agree(self, n, k, monkeypatch):
        # n=5, k=4 has fewer blocks of next members than 7 workers, and k=1
        # is read from the count table, whatever the number of workers
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 64)  # 2, 3 and 7 shares on any machine
        ds = random_dataset(n=n, m=3, max_categories=2, seed=n)
        naive = exhaustive_search_naive(ds, k)
        for workers in (1, 2, 3, 7):
            sol = exhaustive_search(ds, k, workers=workers)
            assert (sol.medoid_objective, sol.medoid_indices) == (
                naive.medoid_objective,
                naive.medoid_indices,
            ), workers

    def test_ties_across_worker_ranges(self, monkeypatch):
        # every subset costs 0: each share finds its own optimum, the smallest tuple wins
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 64)
        ds = dataset_from_rows([["a", "b"]] * 12)
        sol = exhaustive_search(ds, 3, workers=3)
        assert sol.medoid_indices == (0, 1, 2)
        assert sol.medoid_objective == 0

    @given(
        n=st.integers(2, 18),
        m=st.integers(1, 4),
        cats=st.integers(2, 4),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 4),
        weights=st.lists(st.integers(1, 50), min_size=18, max_size=18),
        weighted=st.booleans(),
        repeated=st.booleans(),
        on_the_fly=st.booleans(),
        workers=st.sampled_from([1, 2, 3, 7]),
        scan_bytes=st.sampled_from([1, 1 << 30]),
        block=st.sampled_from([1, 3, 7, 512]),
    )
    @settings(max_examples=150, deadline=None)
    def test_scan_equals_naive(
        self, n, m, cats, seed, k, weights, weighted, repeated, on_the_fly, workers, scan_bytes, block
    ):
        # scan_bytes 1 scores one next member per block, 1 GiB all of a
        # prefix's at once; stores of 1 to 512 columns a block; every case
        # through exhaustive_search, with the lower bound closing subsets at
        # k >= 2, and k >= 2 through a scan whose bound closes nothing
        k = min(k, n)
        ds = random_dataset(n=n, m=m, max_categories=cats, seed=seed)
        names = [[f"v{v}" for v in row] for row in ds.values]
        if repeated:  # duplicate records: many subsets tie
            names = [names[i % ((n + 1) // 2)] for i in range(n)]
        if weighted or repeated:
            ds = dataset_from_rows(names, weights=weights[:n] if weighted else None)
        budget = 0 if on_the_fly else medoids.MATRIX_BUDGET
        naive = exhaustive_search_naive(ds, k)
        with mock.patch.multiple(medoids, _SCAN_BYTES=scan_bytes, MATRIX_BUDGET=budget, _BLOCK=block), \
                mock.patch.object(medoids.os, "cpu_count", lambda: 64):  # workers shares on any machine
            scan = exhaustive_search(ds, k, workers=workers)
            store = medoids._store(ds)
            base, open_all = medoids._kept_base(store, ()), (np.zeros(n, dtype=np.int64), 0)
            unbounded = medoids._scan(store, base, np.zeros(n, dtype=bool), k, open_all) if k >= 2 else None
        assert (scan.medoid_objective, scan.medoid_indices) == (naive.medoid_objective, naive.medoid_indices)
        assert k == 1 or unbounded == (naive.medoid_objective, naive.medoid_indices)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_medoid_from_the_count_table(self, weighted, monkeypatch):
        # k = 1 reads every record's cost from the one-cluster count table:
        # no store, no thread, no gate; ties (repeated rows, and rows of equal
        # cost) go to the lowest record index
        rows = [["a", "p"], ["b", "q"], ["a", "q"], ["b", "p"], ["a", "q"], ["b", "q"]]
        ds = dataset_from_rows(rows, weights=[3, 1, 2, 2, 2, 1] if weighted else None)

        def refused(*args, **kwargs):
            raise AssertionError("k = 1 sums no distance")

        monkeypatch.setattr(medoids, "_store", refused)
        monkeypatch.setattr(medoids.threading, "Thread", refused)
        monkeypatch.setattr(medoids, "EXHAUSTIVE_GATE", 0)
        naive = exhaustive_search_naive(ds, 1)
        for workers in (1, 3):
            sol = exhaustive_search(ds, 1, workers=workers)
            assert (sol.medoid_objective, sol.medoid_indices) == (naive.medoid_objective, naive.medoid_indices)
            assert sol.assignment.tolist() == [0] * 6 and sol.guarantee == 2.0
        assert naive.medoid_indices == ((2,) if weighted else (1,))  # 2 ties with 4; 1 with 2, 4 and 5

    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("scan_bytes", [1, 1 << 18])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_shares_partition_the_units(self, size, scan_bytes, bounded, monkeypatch):
        # the shares of a scan score disjoint (prefix, first next member)
        # units that together are the units of the whole scan, with the lower
        # bound closing some or, at zero rho and limit 0, none; scan_bytes 1
        # makes every next member a unit of its own
        ds = random_dataset(n=10, m=3, max_categories=3, seed=2)
        store = medoids._store(ds)
        bound = medoids._lower_bound(store, size) if bounded else (np.zeros(10, dtype=np.int64), 0)
        base, excluded = medoids._kept_base(store, ()), np.zeros(10, dtype=bool)
        excluded[4] = True  # a position outside the pool
        prefix, keys = [()], []
        kept_base, sweep = medoids._kept_base, medoids._sweep

        def recording_kept_base(store, kept):  # the scan asks for a prefix's base before its units
            prefix[0] = tuple(kept)
            return kept_base(store, kept)

        def recording_sweep(store, bases, start):  # one per unit, from its first next member + 1
            keys.append((prefix[0], start - 1))
            return sweep(store, bases, start)

        monkeypatch.setattr(medoids, "_kept_base", recording_kept_base)
        monkeypatch.setattr(medoids, "_sweep", recording_sweep)
        monkeypatch.setattr(medoids, "_SCAN_BYTES", scan_bytes)

        def scored(share):
            prefix[0], keys[:] = (), []
            medoids._scan(store, base, excluded, size, bound, share)
            assert len(set(keys)) == len(keys)
            return set(keys)

        whole = scored((0, 1))
        assert whole
        for parts in (2, 3):
            shares = [scored((w, parts)) for w in range(parts)]
            assert all(not a & b for a, b in itertools.combinations(shares, 2))
            assert set().union(*shares) == whole

    def test_scan_disagreement_raises(self, monkeypatch):
        ds = random_dataset(n=12, m=3, max_categories=3, seed=4)
        monkeypatch.setattr(medoids, "_scan", lambda *args: (-1, (0, 1)))
        with pytest.raises(RuntimeError, match="scan cost"):
            exhaustive_search(ds, 2)

    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_no_subset_beats_the_optimum(self, seed, pick):
        ds = random_dataset(n=14, m=3, max_categories=3, seed=seed)
        sol = exhaustive_search(ds, 2)
        rng = np.random.default_rng(pick)
        subset = rng.choice(14, size=2, replace=False)
        assert cost_of_medoid_set(ds, subset)[0] >= sol.medoid_objective


def planted_rows(seed, n, m, flip, k):
    """n rows of m features over "xyz", each a copy of one of k hidden modes
    with every feature redrawn as another letter with probability flip."""
    rng = random.Random(seed)
    modes = [[rng.choice("xyz") for _ in range(m)] for _ in range(k)]
    return [[rng.choice("xyz".replace(v, "")) if rng.random() < flip else v for v in modes[rng.randrange(k)]]
            for _ in range(n)]


class TestLowerBound:
    """The exhaustive scan's Lagrangian bound: rho_x = sum_i w_i * min(d(x, i), b_i)
    for integer thresholds b, and sum_S rho - (k - 1) * sum_i w_i * b_i <= cost(S)
    for every k-subset S."""

    @staticmethod
    def check_bound(ds, k, b, subsets):
        # rho from one sweep equals its sum in Python integers, and the bound
        # holds for each of ``subsets`` (record indices) against the cost
        # summed in Python integers; b is given in record order
        store = medoids._store(ds)
        order = store.columns.order
        rho = medoids._sweep(store, np.asarray(b, dtype=np.uint8)[order][None, :], 0)[0]
        values, w = ds.values.tolist(), [int(x) for x in ds.weights]
        members = {x for subset in subsets for x in subset}
        dist = {x: [sum(a != c for a, c in zip(values[x], v)) for v in values] for x in members}
        total = sum(wi * bi for wi, bi in zip(w, b))
        want = {x: sum(wi * min(dist[x][i], b[i]) for i, wi in enumerate(w)) for x in members}
        for x, value in want.items():
            assert int(rho[store.position[x]]) == value
        for subset in subsets:
            cost = sum(wi * min(dist[x][i] for x in subset) for i, wi in enumerate(w))
            assert sum(want[x] for x in subset) - (k - 1) * total <= cost, subset

    @given(
        n=st.integers(2, 9),
        m=st.integers(1, 4),
        k=st.integers(2, 4),
        seed=st.integers(0, 10_000),
        thresholds=st.sampled_from(["zero", "m", "random"]),
        deduped=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_below_every_subset(self, n, m, k, seed, thresholds, deduped):
        # unit weights, and the weights of --dedupe from rows drawn over 2
        # categories, which repeat
        ds = random_dataset(n=n, m=m, max_categories=2 if deduped else 3, seed=seed)
        if deduped:
            ds = dedupe(ds)
        k = min(k, ds.n_records)
        rng = np.random.default_rng(seed)
        b = {"zero": [0] * ds.n_records, "m": [m] * ds.n_records,
             "random": rng.integers(0, m + 1, size=ds.n_records).tolist()}[thresholds]
        self.check_bound(ds, k, b, list(itertools.combinations(range(ds.n_records), k)))

    def test_bound_below_every_subset_past_float_precision(self):
        # the 8200 records of test_sums_exact_past_float_precision, weights
        # just below 2**40: every subset of the first 8 records, the 6 rows
        # and two of them again
        values = np.random.default_rng(3).integers(0, 3, size=(6, 3))
        ds = dataset_from_rows([[f"v{v}" for v in values[i % 6]] for i in range(8200)],
                               weights=[2**40 - (i * 3 % 7) for i in range(8200)])
        assert ds.total_weight > 2**53
        b = np.random.default_rng(4).integers(0, 4, size=8200).tolist()
        for k in (2, 3):
            self.check_bound(ds, k, b, list(itertools.combinations(range(8), k)))

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12), k=st.integers(2, 4), weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_optimal_subset_stays_open(self, seed, n, k, weighted):
        ds = random_dataset(n=n, m=4, max_categories=3, seed=seed)
        if weighted:
            ds = dataset_from_rows([[f"v{v}" for v in row] for row in ds.values],
                                   weights=[seed % 7 + i % 3 + 1 for i in range(n)])
        k = min(k, n)
        store = medoids._store(ds)
        rho, limit = medoids._lower_bound(store, k)
        costs = {S: cost_of_medoid_set(ds, S)[0] for S in itertools.combinations(range(n), k)}
        optimum = min(costs.values())
        for subset, cost in costs.items():
            if cost == optimum:
                assert int(rho[store.position[list(subset)]].sum()) <= limit, subset

    @pytest.mark.parametrize("seed, n, m, k, units", [(1, 12, 6, 2, 6), (9, 15, 10, 3, 2)])
    def test_only_optimal_units_are_scored(self, seed, n, m, k, units, monkeypatch):
        # planted instances on which the bound closes every (prefix, next
        # member) unit that holds no optimal subset; each next member is a
        # unit of its own, and unit weights keep positions in record order
        ds = dataset_from_rows(planted_rows(seed, n, m, 0.08 if k == 3 else 0.1, k))
        costs = {S: cost_of_medoid_set(ds, S)[0] for S in itertools.combinations(range(n), k)}
        optimal = [S for S, cost in costs.items() if cost == min(costs.values())]
        prefix, scored = {}, []
        kept_base, sweep = medoids._kept_base, medoids._sweep

        def recording_kept_base(store, kept):  # the scan asks for a prefix's base before its units
            prefix[threading.current_thread()] = tuple(kept)
            return kept_base(store, kept)

        def recording_sweep(store, bases, start):
            # a unit's sweep starts at its next member + 1; the bound's and the descent's at 0
            if start:
                scored.append((*prefix[threading.current_thread()], start - 1))
            return sweep(store, bases, start)

        monkeypatch.setattr(medoids, "_SCAN_BYTES", 1)
        monkeypatch.setattr(medoids, "_kept_base", recording_kept_base)
        monkeypatch.setattr(medoids, "_sweep", recording_sweep)
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 64)
        naive = exhaustive_search_naive(ds, k)
        for workers in (1, 2, 3):
            scored.clear()
            sol = exhaustive_search(ds, k, workers=workers)
            assert (sol.medoid_objective, sol.medoid_indices) == (naive.medoid_objective, naive.medoid_indices)
            assert sorted(scored) == sorted({S[:-1] for S in optimal})
            assert len(scored) == units < math.comb(n, k - 1)

    @pytest.mark.parametrize("seed, n, m, flip, k, steps", [(3, 60, 10, 0.2, 2, 10), (1, 40, 8, 0.15, 3, 20)])
    def test_steps_stop_once_the_target_stands_still(self, seed, n, m, flip, k, steps, monkeypatch):
        # each subgradient step sweeps once; on the first planted instance the
        # target stops moving after 10 steps, where the rest would sweep the
        # same b again, and on the second it moves on every step
        calls, sweep, descend = [], medoids._sweep, medoids._descend

        def descended(*args):
            found = descend(*args)
            calls.append("descended")
            return found

        monkeypatch.setattr(medoids, "_sweep", lambda *args: calls.append("sweep") or sweep(*args))
        monkeypatch.setattr(medoids, "_descend", descended)
        ds = dataset_from_rows(planted_rows(seed, n, m, flip, k))
        medoids._lower_bound(medoids._store(ds), k)
        assert len(calls) - calls.index("descended") - 1 == steps <= medoids._BOUND_STEPS
        sol, naive = exhaustive_search(ds, k), exhaustive_search_naive(ds, k)
        assert (sol.medoid_objective, sol.medoid_indices) == (naive.medoid_objective, naive.medoid_indices)

    def test_oracle_audit_runs_the_bound(self, monkeypatch):
        # the oracle audit certifies the bounded scan: each of the 40 k >= 2
        # instances of its default 50 trials computes the bound once
        calls, lower_bound = [], medoids._lower_bound
        monkeypatch.setattr(medoids, "_lower_bound", lambda *args: calls.append(args[1]) or lower_bound(*args))
        report = medoids.audit_oracle(50, 0)
        assert report.violations == ()
        assert len(calls) == 40 and min(calls) == 2

    def test_int64_headroom_is_a_dataset_precondition(self):
        # m * total weight reaching 2**62 is refused when the dataset is
        # built: these three records made the k = 1 objectives wrap to negative
        with pytest.raises(DatasetError, match=r"m \* total_weight = 4 \* 4611686018427387905 must be below 2\*\*62"):
            dataset_from_rows([["a"] * 4, ["b"] * 4, ["c"] * 4], weights=[2**61, 2**61, 1])

    @pytest.mark.parametrize("k", [2, 3])
    def test_bound_below_the_int64_headroom(self, k, monkeypatch):
        # m * total weight one below 2**62 is accepted, and the bound, whose
        # rho and sums of two reach it, gives the naive optimum
        calls, lower_bound = [], medoids._lower_bound
        monkeypatch.setattr(medoids, "_lower_bound", lambda *args: calls.append(args[1]) or lower_bound(*args))
        rows = [["a", "p"], ["a", "q"], ["b", "q"], ["c", "r"], ["b", "p"], ["c", "q"]]
        total = (2**62 - 1) // 2  # m being 2
        ds = dataset_from_rows(rows, weights=[total // 6] * 5 + [total - 5 * (total // 6)])
        assert ds.total_weight == total and 2**62 - 2 <= ds.m * total < 2**62
        sol = exhaustive_search(ds, k)
        naive = exhaustive_search_naive(ds, k)
        assert (sol.medoid_objective, sol.medoid_indices) == (naive.medoid_objective, naive.medoid_indices)
        assert calls == [k]


class TestLocalSearch:
    def test_four_point_reaches_optimum_from_any_seed(self, four_point):
        for seed in range(20):
            sol = local_search(four_point, 2, LocalSearchConfig(seed=seed))
            assert sol.medoid_objective == 2

    def test_k_equals_n(self, four_point):
        sol = local_search(four_point, 4, LocalSearchConfig())
        assert sol.medoid_objective == 0

    def test_guarantee_annotation(self, four_point):
        assert local_search(four_point, 2, LocalSearchConfig(p=1)).guarantee == 10.0
        assert local_search(four_point, 2, LocalSearchConfig(p=2)).guarantee == 8.0

    def test_no_guarantee_without_a_local_optimum(self):
        ds = random_dataset(n=30, m=4, max_categories=3, seed=1)
        settled = local_search(ds, 3, LocalSearchConfig(seed=0))
        assert settled.guarantee == 10.0
        # this start needs at least two swaps to settle
        cut = local_search(ds, 3, LocalSearchConfig(seed=0, max_steps=1))
        assert cut.medoid_objective > settled.medoid_objective
        assert cut.guarantee is None
        # a strictly improving swap refused by the threshold
        refused = local_search(ds, 3, LocalSearchConfig(seed=0, min_relative_improvement=0.5))
        assert refused.medoid_objective > settled.medoid_objective
        assert refused.guarantee is None

    def test_threshold_is_compared_exactly(self):
        # the swap 0 -> 1 improves the cost 2**54 + 1 by 2**53, short of
        # 0.5 * (2**54 + 1) by one half, which a float product rounds away
        ds = dataset_from_rows([["x"], ["y"]], weights=[2**53 + 1, 2**54 + 1])
        refused = local_search(ds, 1, LocalSearchConfig(seed=1, min_relative_improvement=0.5))
        assert refused.medoid_indices == (0,) and refused.medoid_objective == 2**54 + 1
        assert refused.guarantee is None
        taken = local_search(ds, 1, LocalSearchConfig(seed=1, min_relative_improvement=0.4))
        assert taken.medoid_indices == (1,) and taken.guarantee == 10.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LocalSearchConfig(p=0)
        with pytest.raises(ValueError):
            LocalSearchConfig(restarts=0)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                LocalSearchConfig(min_relative_improvement=bad)

    def test_deterministic_given_seed(self):
        ds = random_dataset(n=80, m=5, max_categories=3, seed=17)
        a = local_search(ds, 4, LocalSearchConfig(seed=6, restarts=3))
        b = local_search(ds, 4, LocalSearchConfig(seed=6, restarts=3))
        assert a.medoid_indices == b.medoid_indices
        assert a.medoid_objective == b.medoid_objective

    @pytest.mark.parametrize("block", [7, 512])
    def test_matrix_parity(self, monkeypatch, block):
        ds = random_dataset(n=60, m=4, max_categories=3, seed=8)
        for p in (1, 2):
            a = local_search(ds, 3, LocalSearchConfig(p=p, seed=1))
            with monkeypatch.context() as patch:
                patch.setattr(medoids, "MATRIX_BUDGET", 0)  # tiles computed per sweep
                patch.setattr(medoids, "_BLOCK", block)
                b = local_search(ds, 3, LocalSearchConfig(p=p, seed=1))
            assert (a.medoid_indices, a.medoid_objective, a.guarantee) == (
                b.medoid_indices, b.medoid_objective, b.guarantee)
            assert a.assignment.tolist() == b.assignment.tolist()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dominates_exhaustive_and_is_swap_stable(self, seed):
        ds = random_dataset(n=16, m=3, max_categories=3, seed=seed)
        config = LocalSearchConfig(p=1, seed=seed)
        sol = local_search(ds, 3, config)
        best = exhaustive_search(ds, 3)
        assert sol.medoid_objective >= best.medoid_objective

        # swap stability: no single exchange clears the improvement threshold
        cur = sol.medoid_objective
        medoids = set(sol.medoid_indices)
        for out in sol.medoid_indices:
            for into in range(ds.n_records):
                if into in medoids:
                    continue
                trial = (medoids - {out}) | {into}
                new, _ = cost_of_medoid_set(ds, sorted(trial))
                assert not (
                    new < cur and cur - new >= config.min_relative_improvement * cur
                )

    def test_swap_bookkeeping_disagreement_raises(self, monkeypatch):
        ds = random_dataset(n=20, m=4, max_categories=3, seed=5)
        claims = iter([(0, (0,), (19,))])  # one swap claimed to reach cost 0, then none
        monkeypatch.setattr(medoids, "_best_swap", lambda *args: next(claims, None))
        with pytest.raises(RuntimeError, match="swap bookkeeping"):
            local_search(ds, 2, LocalSearchConfig(seed=0))

    @given(
        n=st.integers(3, 12),
        m=st.integers(1, 4),
        k=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        weights=st.lists(st.integers(1, 2**40), min_size=12, max_size=12),
        big=st.booleans(),
        repeated=st.booleans(),
        on_the_fly=st.booleans(),
        scan_bytes=st.sampled_from([1, 1 << 30]),
        pick=st.integers(0, 10_000),
        p=st.integers(2, 3),
        block=st.sampled_from([1, 3, 7, 512]),
    )
    @settings(max_examples=150, deadline=None)
    def test_wide_swap_equals_brute_force(
        self, n, m, k, seed, weights, big, repeated, on_the_fly, scan_bytes, pick, p, block
    ):
        # swaps of two and three medoids, scanned under the kept-base bound,
        # against every exchange; removing all k = 2 (or 3 at p = 3) medoids
        # keeps nothing; small weights, and weights up to 2**40
        k = min(k, n - 1)
        ds = random_dataset(n=n, m=m, max_categories=3, seed=seed)
        names = [[f"v{v}" for v in row] for row in ds.values]
        if repeated:
            names = [names[i % ((n + 1) // 2)] for i in range(n)]
        ds = dataset_from_rows(names, weights=weights[:n] if big else [x % 20 + 1 for x in weights[:n]])
        current = sorted(np.random.default_rng(pick).choice(n, size=k, replace=False).tolist())
        budget = 0 if on_the_fly else medoids.MATRIX_BUDGET
        with mock.patch.multiple(medoids, _SCAN_BYTES=scan_bytes, MATRIX_BUDGET=budget, _BLOCK=block):
            got = best_swap(medoids._store(ds), current, p)
        assert got == best_exchange(ds, current, p)

    def test_p2_swaps_escape_a_p1_optimum(self):
        # p=2 must do at least as well as p=1 on the same start
        ds = random_dataset(n=30, m=4, max_categories=3, seed=5)
        p1 = local_search(ds, 4, LocalSearchConfig(p=1, seed=0))
        p2 = local_search(ds, 4, LocalSearchConfig(p=2, seed=0))
        assert p2.medoid_objective <= p1.medoid_objective

    def test_restarts_keep_the_best(self):
        ds = random_dataset(n=40, m=4, max_categories=3, seed=23)
        single = [
            local_search(ds, 3, LocalSearchConfig(seed=0, restarts=1)).medoid_objective
        ]
        multi = local_search(ds, 3, LocalSearchConfig(seed=0, restarts=6))
        assert multi.medoid_objective <= min(single)

    def test_matches_exhaustive_on_tiny_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            seed = int(rng.integers(0, 2**31))
            ds = random_dataset(n=n, m=int(rng.integers(1, 5)), max_categories=3, seed=seed)
            ls = local_search(ds, 2, LocalSearchConfig(p=1, seed=0, restarts=3))
            ex = exhaustive_search(ds, 2)
            assert ls.medoid_objective == ex.medoid_objective, seed


class TestDistanceStore:
    """The half store: blocks of columns in the summation order, whose
    candidates come back by position while ties go by record index."""

    @staticmethod
    def tied(weighted: bool):
        # 24 records in 4 distinct rows, so that equal rows make equal-cost
        # subsets; the summation order puts the records against the file:
        # distinct weights falling along it (all in the tail), or
        # --dedupe-like ones, 1 for the last 20 records (a weight group, as
        # _GROUP_MIN is 3 here) and 20 down to 5 for the first 4 (the tail)
        rows = [[f"a{i % 4 % 2}", f"b{i % 4 // 2}", "c"] for i in range(24)]
        weights = [20, 15, 10, 5] + [1] * 20 if weighted else list(range(24, 0, -1))
        return dataset_from_rows(rows, weights=weights)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("block", [1, 3, 7, 512])
    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_ties_go_to_record_order(self, monkeypatch, weighted, block, on_the_fly):
        monkeypatch.setattr(medoids, "_GROUP_MIN", 3)
        monkeypatch.setattr(medoids, "_BLOCK", block)
        monkeypatch.setattr(medoids.os, "cpu_count", lambda: 64)  # 2 and 3 shares on any machine
        if on_the_fly:
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", 0)
        ds = self.tied(weighted)
        store = medoids._store(ds)
        assert (store.blocks is None) == on_the_fly
        assert len(store.columns.tail) == (4 if weighted else 24) and store.columns.order[0] != 0
        for k in (1, 2, 3):
            naive = exhaustive_search_naive(ds, k)
            for workers in (1, 2, 3):
                got = exhaustive_search(ds, k, workers=workers)
                assert (got.medoid_objective, got.medoid_indices) == (naive.medoid_objective, naive.medoid_indices)
        for current in ([0, 5], [1, 2, 3], [3, 10, 17, 22]):
            assert best_swap(store, current, 1) == TestSingleSwapTable.swap_oracle(ds, current)
            assert best_swap(store, current, 2) == best_exchange(ds, current, 2)

    @pytest.mark.parametrize("block", [1, 3, 7, 512])
    def test_rows_are_symmetric_reads(self, monkeypatch, block):
        # a row gathered from the blocks equals the row computed directly, in
        # the summation order, for positions in every block; with no position
        # the kept base is m, in the distances' dtype, kept or computed
        ds = random_dataset(n=30, m=5, max_categories=4, seed=6)
        ds = dataset_from_rows([[str(v) for v in row] for row in ds.values], weights=[i % 3 + 1 for i in range(30)])
        monkeypatch.setattr(medoids, "_GROUP_MIN", 2)
        monkeypatch.setattr(medoids, "_BLOCK", block)
        store = medoids._store(ds)
        values = ds.values[store.columns.order]
        want = (values[:, None, :] != values[None, :, :]).sum(axis=2)
        for index in ([29, 0, 13, 7, 7], []):
            assert np.array_equal(medoids._rows(store, index), want[index])
            assert np.array_equal(medoids._kept_base(store, index), want[index].min(axis=0, initial=5))
        for budget in (medoids.MATRIX_BUDGET, 0):
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", budget)
            base = medoids._kept_base(medoids._store(ds), [])
            assert base.dtype == np.uint8 and np.array_equal(base, np.full(30, 5))


class TestSingleSwapTable:
    """The p = 1 step: one table of single-swap costs, one row carried over."""

    @staticmethod
    def swap_oracle(ds, medoids_now):
        # every single swap per removal, summed in Python integers apart from
        # the sweep: lowest cost, then lowest removal position, then lowest
        # candidate
        values, w = ds.values.tolist(), [int(x) for x in ds.weights]
        dist = [[sum(a != b for a, b in zip(u, v)) for v in values] for u in values]
        best = None
        for r in range(len(medoids_now)):
            kept = medoids_now[:r] + medoids_now[r + 1 :]
            for c in range(ds.n_records):
                if c in medoids_now:
                    continue
                cost = sum(wi * min(dist[q][i] for q in (*kept, c)) for i, wi in enumerate(w))
                if best is None or cost < best[0]:
                    best = (cost, (r,), (c,))
        return best

    @given(
        n=st.integers(2, 14),
        m=st.integers(1, 4),
        k=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        weights=st.lists(st.integers(1, 2**40), min_size=14, max_size=14),
        big=st.booleans(),
        repeated=st.booleans(),
        on_the_fly=st.booleans(),
        pick=st.integers(0, 10_000),
        block=st.sampled_from([1, 3, 7, 512]),
    )
    @settings(max_examples=150, deadline=None)
    def test_steps_equal_per_removal_scan(
        self, n, m, k, seed, weights, big, repeated, on_the_fly, pick, block
    ):
        # small weights, and weights up to 2**40
        k = min(k, n)
        ds = random_dataset(n=n, m=m, max_categories=3, seed=seed)
        names = [[f"v{v}" for v in row] for row in ds.values]
        if repeated:  # duplicate records: many swaps tie
            names = [names[i % ((n + 1) // 2)] for i in range(n)]
        w = weights[:n] if big else [x % 50 + 1 for x in weights[:n]]
        ds = dataset_from_rows(names, weights=w)
        budget = 0 if on_the_fly else medoids.MATRIX_BUDGET
        with mock.patch.multiple(medoids, MATRIX_BUDGET=budget, _BLOCK=block):
            store = medoids._store(ds)
        current = sorted(np.random.default_rng(pick).choice(n, size=k, replace=False).tolist())
        cost = cost_of_medoid_set(ds, current)[0]
        last = {}
        for _ in range(4):  # later steps read the row carried over
            got = best_swap(store, current, 1, last)
            assert got == self.swap_oracle(ds, current)
            if got is None or got[0] >= cost:
                break
            cost, (r,), (c,) = got
            current = sorted(current[:r] + current[r + 1 :] + [c])
            assert cost_of_medoid_set(ds, current)[0] == cost

    @given(n=st.integers(2, 12), m=st.integers(1, 4), k=st.integers(1, 5), seed=st.integers(0, 10_000),
           weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_descent_ends_where_no_single_swap_improves(self, n, m, k, seed, weighted):
        # the p = 1 descent of the lower bound's incumbent, from the first k
        # records: its cost is the set's objective and no single swap lowers it
        k = min(k, n)
        ds = random_dataset(n=n, m=m, max_categories=3, seed=seed)
        if weighted:
            ds = dataset_from_rows([[f"v{v}" for v in row] for row in ds.values],
                                   weights=[seed % 5 + i % 4 + 1 for i in range(n)])
        config = LocalSearchConfig(min_relative_improvement=0.0)
        cost, found, stable = medoids._descend(medoids._store(ds), range(k), config)
        assert stable and list(found) == sorted(set(found)) and len(found) == k
        assert cost == cost_of_medoid_set(ds, found)[0]
        swap = self.swap_oracle(ds, list(found))
        assert swap is None or swap[0] >= cost

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_later_steps_sweep_one_row_less(self, monkeypatch, k):
        ds = random_dataset(n=300, m=6, max_categories=4, seed=2)
        sweeps, per_step = [], []
        sweep, best_swap = medoids._sweep, medoids._best_swap

        def counting_sweep(store, bases, start):
            sweeps.append(len(bases))
            return sweep(store, bases, start)

        def counting_step(*args):
            before = sum(sweeps)
            found = best_swap(*args)
            per_step.append(sum(sweeps) - before)
            return found

        monkeypatch.setattr(medoids, "_sweep", counting_sweep)
        monkeypatch.setattr(medoids, "_best_swap", counting_step)
        for budget in (medoids.MATRIX_BUDGET, 0):  # the kept store, then tiles computed per sweep
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", budget)
            per_step.clear()
            local_search(ds, k, LocalSearchConfig(p=1, seed=0))
            assert len(per_step) >= (2 if k == 1 else 4)  # steps after accepted swaps
            assert per_step == [k] + [k - 1] * (len(per_step) - 1)

    @pytest.mark.parametrize("m", [16, 255, 256])
    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_full_group_sums_exactly(self, m, on_the_fly, monkeypatch):
        # record 0, of weight 2, sits at distance m from the others, of weight
        # 1 and grouped; floor(65535 / m) of them fill a uint16 group
        # exactly, one more cuts a second group (uint8 distances) or fits the
        # uint32 group (m = 256); record 0 alone is the tail
        full = 65535 // m
        if on_the_fly:
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", 0)
        for others in (full, full + 1):
            ds = dataset_from_rows([["a"] * m] + [["b"] * m] * others, weights=[2] + [1] * others)
            store = medoids._store(ds)
            columns = store.columns
            assert columns.order[-1] == 0 and columns.tail.tolist() == [2]
            assert len(columns.starts) == (2 if others * m > 65535 and m < 256 else 1)
            got = medoids._sweep(store, medoids._kept_base(store, ())[None, :], 0)
            got = got[:, store.position]  # back to file order
            assert got[0, 0] == others * m == cost_of_medoid_set(ds, [0])[0]
            assert got[0, 1:].tolist() == [2 * m] * others

    @pytest.mark.parametrize("spread", [7, 8200])
    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_sums_exact_past_float_precision(self, on_the_fly, spread, monkeypatch):
        # 8200 records in 6 distinct rows, weights just below 2**40, in 7
        # groups or all distinct, so all in the tail: the total passes 2**53,
        # where float64 sums lose units
        values = np.random.default_rng(3).integers(0, 3, size=(6, 3))
        names = [[f"v{v}" for v in values[i % 6]] for i in range(8200)]
        w = [2**40 - (i * 3 % spread) for i in range(8200)]
        ds = dataset_from_rows(names, weights=w)
        assert ds.total_weight > 2**53
        if on_the_fly:
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", 0)
        store = medoids._store(ds)
        columns = store.columns
        assert (len(columns.starts), len(columns.tail)) == ((7, 0) if spread == 7 else (0, 8200))
        dist = (values[:, None, :] != values[None, :, :]).sum(axis=2)
        pattern_weight = [sum(w[i::6]) for i in range(6)]  # exact Python ints
        start = 8200 - 12  # the candidates at the last 12 positions
        for kept in ((), (1,), (0, 2)):
            base = medoids._kept_base(store, store.position[list(kept)])
            got = medoids._sweep(store, base[None, :], start)[0]
            near = [min([dist[q % 6, p] for q in kept], default=ds.m) for p in range(6)]
            want = [sum(pw * min(near[p], dist[c % 6, p]) for p, pw in enumerate(pattern_weight))
                    for c in columns.order[start:].tolist()]
            assert got.tolist() == want
            assert max(want) > 2**53
        best = min(sum(pw * dist[c, p] for p, pw in enumerate(pattern_weight)) for c in range(6))
        ex = exhaustive_search(ds, 1)
        ls = local_search(ds, 1, LocalSearchConfig(seed=0))
        assert ex.medoid_objective == ls.medoid_objective == best

    @pytest.mark.parametrize("total, width", [(2**31 - 1, np.int32), (2**31, np.int64)])
    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_sums_exact_at_the_width_boundary(self, total, width, on_the_fly, monkeypatch):
        # m = 1, four records of distinct weights, all in the tail: a
        # candidate's cost is the weight of the records unlike it, up to
        # total - 2 here, for record "b"
        ds = dataset_from_rows([["a"], ["b"], ["c"], ["a"]], weights=[1, 2, total - 7, 4])
        columns = medoids._columns(ds)
        assert len(columns.starts) == 0 and columns.tail.dtype == width
        if on_the_fly:
            monkeypatch.setattr(medoids, "MATRIX_BUDGET", 0)
        dist = (ds.values[:, None, :] != ds.values[None, :, :]).sum(axis=2)
        bases = np.stack([np.full(4, ds.m), dist[2], dist[[0, 1]].min(axis=0)])
        store = medoids._store(ds)
        got = medoids._sweep(store, bases[:, columns.order].astype(np.uint8), 0)
        got = got[:, store.position]  # back to file order
        want = [[sum(int(w) * min(int(b), int(d)) for w, b, d in zip(ds.weights, base, dist[c]))
                 for c in range(4)] for base in bases]
        assert got.tolist() == want
        assert got.max() == total - 2
        ex = exhaustive_search(ds, 1)
        ls = local_search(ds, 1, LocalSearchConfig(seed=0))
        assert ex.medoid_objective == ls.medoid_objective == min(want[0]) == 7

    @given(
        n=st.integers(1, 60),
        m=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        weights=st.lists(st.sampled_from([1, 2, 3, 2**40]), min_size=60, max_size=60),
        group_min=st.sampled_from([1, 2, 5, medoids._GROUP_MIN]),
        on_the_fly=st.booleans(),
        scan_bytes=st.sampled_from([1, 1 << 30]),
        block=st.sampled_from([1, 3, 7, 512]),
        tile_bytes=st.sampled_from([1, 5, 1 << 22]),
        kept=st.lists(st.integers(0, 59), max_size=3),
        start=st.integers(0, 59),
    )
    @settings(max_examples=150, deadline=None)
    def test_sweep_equals_direct_sum(
        self, n, m, seed, weights, group_min, on_the_fly, scan_bytes, block, tile_bytes, kept, start
    ):
        # groups of as few as one record, and the tail, over blocks of 1 to
        # 512 columns, kept or computed again in tiles of 1 row and up,
        # against sums in Python integers
        ds = random_dataset(n=n, m=m, max_categories=3, seed=seed)
        ds = dataset_from_rows([[f"v{v}" for v in row] for row in ds.values], weights=weights[:n])
        kept, start = sorted({q % n for q in kept}), start % n  # positions
        budget = 0 if on_the_fly else medoids.MATRIX_BUDGET
        with mock.patch.multiple(
            medoids, _GROUP_MIN=group_min, _SCAN_BYTES=scan_bytes, MATRIX_BUDGET=budget, _BLOCK=block,
            _TILE_BYTES=tile_bytes,
        ):
            store = medoids._store(ds)
            bases = np.stack([medoids._kept_base(store, kept), medoids._kept_base(store, kept[:1])])
            got = medoids._sweep(store, bases, start)
        order = store.columns.order.tolist()
        assert sorted(order) == list(range(n))
        assert group_min > 1 or len(store.columns.tail) == 0
        values, w = ds.values.tolist(), [int(x) for x in ds.weights]
        dist = [[sum(a != b for a, b in zip(u, v)) for v in values] for u in values]
        want = [[sum(wi * min([m] + [dist[order[q]][i] for q in near] + [dist[c][i]]) for i, wi in enumerate(w))
                 for c in order[start:]] for near in (kept, kept[:1])]
        assert got.tolist() == want


class TestLemmaAudits:
    def test_lemma1_hand_cluster(self, aq_cluster):
        report = audit_lemma1(aq_cluster, trials=50, seed=0)
        assert report.passed
        assert report.figures["max_ratio"] <= 2.0

    def test_lemma1_identical_rows_ratio_is_one(self):
        ds = dataset_from_rows([["a", "b"]] * 5)
        report = audit_lemma1(ds, trials=20, seed=1)
        assert report.passed
        assert report.figures["max_ratio"] == 1.0

    def test_lemma1_histogram_covers_trials(self):
        ds = random_dataset(n=50, m=5, max_categories=3, seed=11)
        report = audit_lemma1(ds, trials=200, seed=3)
        assert report.passed
        assert sum(count for _, _, count in report.figures["histogram"]) == 200
        assert report.trials == 200

    # reports of the matrix-backed audit that preceded the count-based one
    @pytest.mark.parametrize(
        "shape,deduped,trials,seed,max_ratio,histogram",
        [
            ({"n": 40, "m": 12, "max_categories": 6, "min_categories": 3, "seed": 3},
             False, 40, 1, 1.1764705882352942, {10: 36, 11: 4}),
            ({"n": 400, "m": 6, "max_categories": 3, "min_categories": 2, "seed": 5},
             True, 30, 2, 1.048780487804878, {10: 30}),
            ({"n": 25, "m": 300, "max_categories": 3, "seed": 8},
             False, 20, 0, 1.238341968911917, {10: 2, 11: 17, 12: 1}),
        ],
        ids=["wide-domains", "deduped-weights", "m300"],
    )
    def test_lemma1_golden_reports(self, shape, deduped, trials, seed, max_ratio, histogram):
        ds = random_dataset(**shape)
        if deduped:
            ds = dedupe(ds)
            assert ds.weights.max() > 1
        report = audit_lemma1(ds, trials=trials, seed=seed)
        assert report.figures["max_ratio"] == max_ratio
        assert [count for _, _, count in report.figures["histogram"]] == [histogram.get(b, 0) for b in range(20)]
        assert report.violations == ()

    def test_lemma2_small_run_passes(self):
        report = audit_lemma2(trials=40, seed=0)
        assert report.passed
        assert report.figures["max_ratio"] <= 2.0
        assert report.trials == 40

    def test_partition_oracle_on_hand_instance(self, four_point):
        assert brute_force_kmodes_objective(four_point, 2) == 2
        assert brute_force_kmodes_objective(four_point, 4) == 0

    def test_partition_oracle_matches_mode_cost_for_k1(self):
        ds = random_dataset(n=8, m=3, max_categories=3, seed=9)
        want = objective_under_modes(ds, np.zeros(ds.n_records, dtype=np.int64))
        assert brute_force_kmodes_objective(ds, 1) == want

    def test_partition_oracle_size_guard(self):
        ds = random_dataset(n=30, m=2, max_categories=2, seed=0)
        with pytest.raises(InstanceTooLargeError):
            brute_force_kmodes_objective(ds, 4)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_medoid_optimum_at_most_twice_mode_optimum(self, seed):
        ds = random_dataset(n=8, m=3, max_categories=3, seed=seed)
        medoid_opt = exhaustive_search_naive(ds, 2).medoid_objective
        mode_opt = brute_force_kmodes_objective(ds, 2)
        assert medoid_opt <= 2 * mode_opt
        assert mode_opt <= medoid_opt
