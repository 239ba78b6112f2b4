"""End-to-end acceptance checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s -q` to see every line. The checks
against the two reference datasets skip with a fetch hint when the files are
not available locally; everything else runs self-contained. Checks 2, 5, 6, 7
and 11 also run on votes- and mushroom-shaped stand-ins of the same sizes.
"""
import itertools
import random
import time

import numpy as np
import pytest

from catcluster import (
    KModesConfig,
    LocalSearchConfig,
    accuracy_error,
    audit_lemma1,
    audit_lemma2,
    audit_oracle,
    check_metric_properties,
    dedupe,
    evaluate,
    exhaustive_search,
    format_rounded,
    load_csv,
    local_search,
    objective_under_modes,
    random_dataset,
    run_kmodes,
)
from catcluster.evaluate import ConfusionMatrix
from catcluster.metric import cluster_counts, heaviest

from conftest import _load_cached, _mushroom, _votes, needs_mushroom, needs_votes


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"acceptance {tag}: {'pass' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {tag}: {detail}"


@pytest.fixture(scope="module")
def votes_kmodes():
    ds = _load_cached("votes", True)
    t0 = time.perf_counter()
    result = run_kmodes(ds, KModesConfig(k=2, init="first-k-distinct"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mushroom_kmodes():
    ds = _load_cached("mushroom", True)
    t0 = time.perf_counter()
    result = run_kmodes(ds, KModesConfig(k=2, init="first-k-distinct"))
    return result, time.perf_counter() - t0


# seed 6 of the generators: k-modes from the first two distinct records
# improves once on both stand-ins, so their histories have a decrease to check
_STAND_IN_SEED = 6


@pytest.fixture(scope="module")
def stand_ins(tmp_path_factory):
    """name -> the raw dataset of a stand-in file: 435 votes-shaped rows of 16
    attributes, 8124 mushroom-shaped rows of 22, each led by a label."""
    directory, loaded = tmp_path_factory.mktemp("stand-ins"), {}
    for name, rows in (("votes", _votes(random.Random(_STAND_IN_SEED), 435)),
                       ("mushroom", _mushroom(random.Random(_STAND_IN_SEED), 8124))):
        path = directory / f"{name}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        loaded[name] = load_csv(path, label_column=0)
    return loaded


def test_01_confusion_table_arithmetic():
    tables = [
        ([[154, 45], [14, 222]], "0.136"),
        ([[158, 55], [10, 212]], "0.149"),
        ([[1470, 1856], [2738, 2060]], "0.435"),
        ([[4182, 960], [26, 2956]], "0.121"),
    ]
    t0 = time.perf_counter()
    displays = []
    for rows, _ in tables:
        matrix = ConfusionMatrix(np.array(rows, dtype=np.int64), ("A", "B"))
        _, error = accuracy_error(matrix)
        displays.append(format_rounded(error))
    dt = time.perf_counter() - t0
    expected = [want for _, want in tables]
    _report(
        "1",
        displays == expected and dt < 1.0,
        f"exact error displays {displays} == {expected} in {dt:.3f}s (<1s)",
    )


@needs_votes
def test_02_votes_exhaustive_objective_and_determinism():
    ds = _load_cached("votes", True)
    t0 = time.perf_counter()
    runs = [exhaustive_search(ds, 2, workers=w) for w in (1, 1, 2)]
    dt = time.perf_counter() - t0
    obj = runs[0].medoid_objective
    identical = (
        len({r.medoid_objective for r in runs}) == 1
        and len({r.medoid_indices for r in runs}) == 1
        and all(np.array_equal(runs[0].assignment, r.assignment) for r in runs[1:])
    )
    within = abs(obj - 1701) <= 0.02 * 1701
    _report(
        "2",
        identical and within and dt < 60.0,
        f"objective {obj} vs 1701 +-2%, identical across repeats and worker "
        f"counts: {identical}, {dt:.1f}s (<60s)",
    )


def test_02b_votes_exhaustive_stand_in(stand_ins):
    # the optimum is at most the label partition's medoid cost, which Lemma 2
    # bounds by twice its mode cost
    ds = dedupe(stand_ins["votes"])
    t0 = time.perf_counter()
    runs = [exhaustive_search(ds, 2, workers=w) for w in (1, 1, 2)]
    dt = time.perf_counter() - t0
    obj, labelled = runs[0].medoid_objective, objective_under_modes(ds, ds.labels)
    identical = (
        len({r.medoid_objective for r in runs}) == 1
        and len({r.medoid_indices for r in runs}) == 1
        and all(np.array_equal(runs[0].assignment, r.assignment) for r in runs[1:])
    )
    _report(
        "2-stand-in",
        identical and obj <= 2 * labelled and dt < 60.0,
        f"{ds.n_records} records, objective {obj} <= 2 * {labelled} of the labels, identical across "
        f"repeats and worker counts: {identical}, {dt:.1f}s (<60s)",
    )


@needs_votes
def test_03_votes_kmodes_error_and_objective(votes_kmodes):
    result, dt = votes_kmodes
    ds = _load_cached("votes", True)
    report = evaluate(ds, result.assignment)
    error = float(report.error)
    obj = result.mode_objective
    ok = (
        abs(error - 0.136) <= 0.02
        and abs(obj - 1706) <= 0.02 * 1706
        and dt < 5.0
    )
    _report(
        "3",
        ok,
        f"error {format_rounded(report.error)} vs 0.136 +-0.02, "
        f"objective {obj} vs 1706 +-2%, {dt:.2f}s (<5s)",
    )


@needs_mushroom
def test_04_mushroom_kmodes_error_and_objective(mushroom_kmodes):
    result, dt = mushroom_kmodes
    ds = _load_cached("mushroom", True)
    report = evaluate(ds, result.assignment)
    error = float(report.error)
    obj = result.mode_objective
    ok = (
        abs(error - 0.435) <= 0.05
        and abs(obj - 63015) <= 0.03 * 63015
        and dt < 30.0
    )
    _report(
        "4",
        ok,
        f"error {format_rounded(report.error)} vs 0.435 +-0.05, "
        f"objective {obj} vs 63015 +-3%, {dt:.2f}s (<30s)",
    )


@needs_mushroom
def test_05_mushroom_local_search_quality():
    ds = _load_cached("mushroom", True)
    t0 = time.perf_counter()
    sol = local_search(ds, 2, LocalSearchConfig(p=1, seed=0, restarts=5))
    dt = time.perf_counter() - t0
    bound = 1.05 * 62512
    _report(
        "5",
        sol.medoid_objective <= bound and dt < 600.0,
        f"best-of-5 objective {sol.medoid_objective} <= 1.05 * 62512 = {bound:.0f}, "
        f"{dt:.1f}s (<600s)",
    )


def test_05b_mushroom_local_search_stand_in(stand_ins):
    # a stable p = 1 optimum, between the exhaustive optimum and 10 times the
    # label partition's mode cost, the factor it reports
    ds = dedupe(stand_ins["mushroom"])
    t0 = time.perf_counter()
    sol = local_search(ds, 2, LocalSearchConfig(p=1, seed=0, restarts=5))
    dt = time.perf_counter() - t0
    optimum = exhaustive_search(ds, 2, force=True).medoid_objective
    labelled = objective_under_modes(ds, ds.labels)
    _report(
        "5-stand-in",
        sol.guarantee == 10.0 and optimum <= sol.medoid_objective <= 10 * labelled and dt < 600.0,
        f"{ds.n_records} records, guarantee {sol.guarantee}, optimum {optimum} <= best-of-5 objective "
        f"{sol.medoid_objective} <= 10 * {labelled} of the labels, {dt:.1f}s (<600s)",
    )


def _check_metric_axioms(tag, ds):
    t0 = time.perf_counter()
    report = check_metric_properties(ds, 100_000, seed=0)
    dt = time.perf_counter() - t0
    _report(
        tag,
        report.passed and report.figures["triples_checked"] == 100_000 and dt < 10.0,
        f"{report.figures['triples_checked']} triples, {len(report.violations)} violations, "
        f"{dt:.2f}s (<10s)",
    )


@needs_votes
def test_06a_metric_axioms_votes():
    _check_metric_axioms("6-votes", _load_cached("votes", False))


@needs_mushroom
def test_06b_metric_axioms_mushroom():
    _check_metric_axioms("6-mushroom", _load_cached("mushroom", False))


@pytest.mark.parametrize("name", ["votes", "mushroom"])
def test_06c_metric_axioms_stand_in(stand_ins, name):
    _check_metric_axioms(f"6-{name}-stand-in", stand_ins[name])


def _check_lemma1(tag, ds):
    t0 = time.perf_counter()
    report = audit_lemma1(ds, 1000, seed=0)
    dt = time.perf_counter() - t0
    _report(
        tag,
        report.passed and report.figures["max_ratio"] <= 2.0 and dt < 60.0,
        f"1000 subsets, max best-medoid/mode ratio {report.figures['max_ratio']:.4f} <= 2, "
        f"{dt:.2f}s (<60s)",
    )


@needs_votes
def test_07_medoid_vs_mode_cost_ratio_votes():
    _check_lemma1("7", _load_cached("votes", False))


def test_07b_medoid_vs_mode_cost_ratio_stand_in(stand_ins):
    _check_lemma1("7-stand-in", stand_ins["votes"])


def test_08_medoid_vs_mode_optimum_random_instances():
    t0 = time.perf_counter()
    report = audit_lemma2(200, seed=0)
    dt = time.perf_counter() - t0
    _report(
        "8",
        report.passed and report.figures["max_ratio"] <= 2.0 and dt < 60.0,
        f"200 instances, max medoid-opt/mode-opt ratio {report.figures['max_ratio']:.4f} <= 2, "
        f"{dt:.2f}s (<60s)",
    )


def test_09_scan_matches_naive_enumeration():
    t0 = time.perf_counter()
    report = audit_oracle(50, seed=0)
    dt = time.perf_counter() - t0
    _report(
        "9",
        report.violations == () and dt < 60.0,
        f"50 instances, {len(report.violations)} objective/tuple mismatches, {dt:.2f}s (<60s)",
    )


def test_10_mode_matches_category_product_minimum():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        cats = int(rng.integers(1, 5))
        ds = random_dataset(n=n, m=m, max_categories=cats, seed=int(rng.integers(0, 2**63 - 1)))
        sizes = ds.schema.domain_sizes()
        one = np.zeros(n, dtype=np.int64)
        mode = heaviest(cluster_counts(ds.values, ds.weights, sizes, one, 1), sizes)[0][0]
        cost = int(((ds.values != mode[None, :]).sum(axis=1) * ds.weights).sum())
        cands = np.array(
            list(itertools.product(*(range(int(s)) for s in sizes))),
            dtype=np.int32,
        )
        per_cand = (ds.values[:, None, :] != cands[None, :, :]).sum(axis=2)
        best = int((ds.weights @ per_cand).min())
        if cost != best:
            mismatches += 1
    dt = time.perf_counter() - t0
    _report(
        "10",
        mismatches == 0 and dt < 10.0,
        f"1000 clusters, {mismatches} non-optimal modes, {dt:.2f}s (<10s)",
    )


def _history_is_monotone(result) -> bool:
    history = result.objective_history
    reseeded = set(result.reseeded_iterations)
    return history is not None and all(
        history[i] <= history[i - 1]
        for i in range(1, len(history))
        if (i + 1) not in reseeded  # history[i] belongs to iteration i + 1
    )


@needs_votes
def test_11a_objective_monotone_votes(votes_kmodes):
    result, _ = votes_kmodes
    _report(
        "11-votes",
        _history_is_monotone(result),
        f"objective history {list(result.objective_history)} non-increasing",
    )


@needs_mushroom
def test_11b_objective_monotone_mushroom(mushroom_kmodes):
    result, _ = mushroom_kmodes
    _report(
        "11-mushroom",
        _history_is_monotone(result),
        f"objective history {list(result.objective_history)} non-increasing",
    )


@pytest.mark.parametrize("name", ["votes", "mushroom"])
def test_11c_objective_monotone_stand_in(stand_ins, name):
    # a history that never moves would pass the monotone check vacuously
    result = run_kmodes(dedupe(stand_ins[name]), KModesConfig(k=2, init="first-k-distinct"))
    history = list(result.objective_history)
    _report(
        f"11-{name}-stand-in",
        _history_is_monotone(result) and any(b < a for a, b in zip(history, history[1:])),
        f"objective history {history} non-increasing, with a decrease",
    )
