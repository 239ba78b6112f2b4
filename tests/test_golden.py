"""Golden reports: each case's output from ``cli.main`` must equal, byte for
byte, the file of the same name under ``tests/golden/``.

The inputs are written afresh from ``random.Random`` under relative paths in
a temporary directory, so every report names the same input path wherever it
runs. A case that exits 0 is compared on its stdout, the report; a case that
fails is compared on its stderr. After a deliberate change of output, rewrite
the corpus and review its diff:

    PYTHONPATH=src python tests/test_golden.py

``golden/numpy.txt`` holds the numpy version the corpus was written with.
The local-search starts and ``--init random`` draw from numpy's
``default_rng``, whose streams numpy may change between versions; after a
numpy upgrade, regenerate, and expect only those reports to move.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import difflib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from catcluster import cli, load_csv

from conftest import _mushroom, _votes

GOLDEN = Path(__file__).parent / "golden"


def _uniform(rng: random.Random, n: int, m: int, labels: tuple[str, ...] = ()) -> list[list[str]]:
    """Rows of m features drawn from "abc", led by a label when ``labels`` is given."""
    return [[*([rng.choice(labels)] if labels else []), *(rng.choice("abc") for _ in range(m))] for _ in range(n)]


def _skewed(rng: random.Random, n: int) -> list[list[str]]:
    """Rows of 9 features from "abcd" with geometrically falling odds, so that
    many rows repeat and --dedupe merges them into a spread of weights."""
    return [[rng.choice(("L0", "L1")), *("abcd"[min(int(rng.expovariate(1.3)), 3)] for _ in range(9))]
            for _ in range(n)]


def _wide(rng: random.Random, n: int) -> list[list[str]]:
    """Rows of 12 features drawn from 100 categories each, led by one of 3
    labels: the domain sizes multiply past 2**64, so one uint64 key cannot
    hold a row."""
    return [[rng.choice(("L0", "L1", "L2")), *(f"c{rng.randrange(100)}" for _ in range(12))] for _ in range(n)]


def _planted(rng: random.Random, n: int, flip: float) -> list[list[str]]:
    """Votes-shaped rows: one of 3 labels and 16 features copied from that
    label's hidden mode over "yn?", each redrawn as another of the three
    with probability ``flip``."""
    modes = {label: [rng.choice("yn?") for _ in range(16)] for label in ("c0", "c1", "c2")}
    rows = []
    for _ in range(n):
        label = rng.choice(sorted(modes))
        rows.append([label, *(rng.choice("yn?".replace(v, "")) if rng.random() < flip else v
                              for v in modes[label])])
    return rows


def _lines(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def write_inputs(directory: Path) -> None:
    """Write every case's input file into ``directory``."""
    files = {
        "votes.csv": _lines(_votes(random.Random(1), 435)),
        "small.csv": _lines(_uniform(random.Random(2), 60, 6, ("L0", "L1", "L2"))),
        "plain.csv": _lines(_uniform(random.Random(3), 80, 5)),
        "mushroom.csv": _lines(_mushroom(random.Random(7), 1500)),
        "skewed.csv": _lines(_skewed(random.Random(8), 1700)),
    }
    distinct = [["L0", "a", "x", "p"], ["L1", "b", "y", "q"], ["L0", "a", "y", "q"]]
    repeated = distinct * 4
    random.Random(4).shuffle(repeated)
    files["repeated.csv"] = _lines(repeated)
    rows = _uniform(random.Random(5), 40, 4, ("L0", "L1"))
    for i in (0, 17, 33):
        rows[i][0] = "?"
    files["reject-label.csv"] = _lines(rows)
    rows = _uniform(random.Random(6), 40, 4, ("L0", "L1"))
    rows[29][3] = rows[31][2] = "?"
    files["reject-feature.csv"] = _lines(rows[:20]) + "\n" + _lines(rows[20:30]) + "\n\n" + _lines(rows[30:])
    # 240 rows; 100 of them again, and 40 again under the next label
    rows = _wide(random.Random(9), 240)
    relabelled = [[f"L{(int(row[0][1]) + 1) % 3}", *row[1:]] for row in rows[:40]]
    files["wide.csv"] = _lines(rows + rows[:100] + relabelled)
    # a header row, and the label named there as the last column
    rows = _votes(random.Random(10), 120)
    files["votes-header.csv"] = _lines([[*(f"v{j}" for j in range(1, 17)), "party"],
                                        *([*row[1:], row[0]] for row in rows)])
    # low noise, where the exhaustive scan's lower bound closes most subsets;
    # then 75 such rows twice, at i and i + 75, so that optima tie
    files["planted.csv"] = _lines(_planted(random.Random(11), 150, 0.1))
    rows = _planted(random.Random(12), 75, 0.1)
    files["tied.csv"] = _lines(rows + rows)
    # the size of the mushroom table, for its reproduction
    files["mushroom-table.csv"] = _lines(_mushroom(random.Random(13), 8124))
    for name, text in files.items():
        (directory / name).write_text(text)


RUN = ["run", "--label-column", "0"]
# golden file name, argv, exit code
CASES = [
    ("kmodes.json", [*RUN, "--data", "votes.csv", "--algorithm", "kmodes", "--k", "3", "--dedupe"], 0),
    ("kmodes-random.txt", [*RUN, "--data", "votes.csv", "--algorithm", "kmodes", "--k", "4", "--init", "random",
                           "--seed", "5", "--format", "text"], 0),
    ("exhaustive.tsv", [*RUN, "--data", "small.csv", "--algorithm", "exhaustive", "--k", "2", "--format", "tsv"], 0),
    ("local-search.json", [*RUN, "--data", "small.csv", "--algorithm", "local-search", "--k", "3", "--p", "2",
                           "--restarts", "2", "--seed", "1"], 0),
    # 1500 records, and the 985 that skewed.csv merges to (weights 1 and 2 in
    # groups, 115 records in the tail), span several 512-column blocks of the
    # medoid solvers' distance store. A p = 2 step scans every pair of
    # additions per removal set, so those runs stop after one step
    ("mushroom-p1.json", [*RUN, "--data", "mushroom.csv", "--algorithm", "local-search", "--k", "3", "--p", "1",
                          "--restarts", "2"], 0),
    ("mushroom-p2.json", [*RUN, "--data", "mushroom.csv", "--algorithm", "local-search", "--k", "2", "--p", "2",
                          "--max-steps", "1"], 0),
    ("skewed-exhaustive.json", [*RUN, "--data", "skewed.csv", "--dedupe", "--algorithm", "exhaustive",
                                "--k", "2"], 0),
    ("skewed-p2.json", [*RUN, "--data", "skewed.csv", "--dedupe", "--algorithm", "local-search", "--k", "4",
                        "--p", "2", "--max-steps", "1"], 0),
    # weighted records of the wide file, grouped by value and label
    ("wide-kmodes.json", [*RUN, "--data", "wide.csv", "--dedupe", "--algorithm", "kmodes", "--k", "3"], 0),
    ("wide-exhaustive.json", [*RUN, "--data", "wide.csv", "--dedupe", "--algorithm", "exhaustive", "--k", "2"], 0),
    # the exhaustive scan at k = 2 and 3 over two shares
    *((f"{name}-exhaustive-k{k}.json", [*RUN, "--data", f"{name}.csv", "--algorithm", "exhaustive",
                                         "--k", str(k), "--threads", "2"], 0)
      for name in ("planted", "tied") for k in (2, 3)),
    # bases with no medoid kept: the p = 1 table at k = 1, over weight groups
    # and a tail, and a removal set of all k medoids at p = k
    ("skewed-k1.json", [*RUN, "--data", "skewed.csv", "--dedupe", "--algorithm", "local-search", "--k", "1"], 0),
    ("small-p4.json", [*RUN, "--data", "small.csv", "--algorithm", "local-search", "--k", "4", "--p", "4",
                       "--max-steps", "2"], 0),
    ("verify-oracle.json", ["verify", "--suite", "oracle", "--format", "json"], 0),
    *((f"verify-{suite}.json", ["verify", "--suite", suite, "--data", "votes.csv", "--label-column", "0",
                                "--trials", trials, "--format", "json"], 0)
      for suite, trials in (("lemma1", "200"), ("metric", "5000"))),
    ("verify-lemma2.json", ["verify", "--suite", "lemma2", "--format", "json"], 0),
    ("header.json", ["run", "--data", "votes-header.csv", "--header", "--label-column", "party",
                     "--algorithm", "kmodes", "--k", "2", "--dedupe"], 0),
    ("unlabelled.json", ["run", "--data", "plain.csv", "--algorithm", "local-search", "--k", "3"], 0),
    ("empty-clusters.json", [*RUN, "--data", "repeated.csv", "--algorithm", "exhaustive", "--k", "4"], 0),
    ("empty-clusters.txt", [*RUN, "--data", "repeated.csv", "--algorithm", "exhaustive", "--k", "4",
                            "--format", "text"], 0),
    ("reproduce-votes.json", ["reproduce", "--table", "votes", "--data", "votes.csv", "--format", "json"], 0),
    ("reproduce-mushroom.json", ["reproduce", "--table", "mushroom", "--data", "mushroom-table.csv",
                                 "--format", "json"], 0),
    ("reject-label.json", [*RUN, "--data", "reject-label.csv", "--missing-policy", "reject",
                           "--algorithm", "kmodes", "--k", "2"], 0),
    ("reject-feature.stderr", [*RUN, "--data", "reject-feature.csv", "--missing-policy", "reject",
                               "--algorithm", "kmodes", "--k", "2"], 2),
]


def render(argv: list[str], code: int) -> str:
    """``cli.main(argv)``'s stdout when it returns ``code`` 0, else its stderr;
    fails on any other exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main(argv)
    if got != code:
        raise AssertionError(f"{argv} exited {got}, expected {code}: {err.getvalue()}")
    return out.getvalue() if code == 0 else err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_report_matches_golden(inputs, monkeypatch, name, argv, code):
    monkeypatch.chdir(inputs)
    got = render(argv, code).encode()
    want = (GOLDEN / name).read_bytes()
    if got != want:
        diff = difflib.unified_diff(want.decode().splitlines(True), got.decode().splitlines(True),
                                    f"golden/{name}", "now")
        written = (GOLDEN / "numpy.txt").read_text().strip()
        pytest.fail(f"{name} differs from its golden copy (written with numpy {written}, "
                    f"running {np.__version__}):\n{''.join(diff)}")


RUN_REPORTS = sorted(path.name for path in GOLDEN.glob("*.json") if json.loads(path.read_text())["command"] == "run")


@pytest.mark.parametrize("name", RUN_REPORTS)
def test_run_report_counts_its_input(inputs, name):
    # the report's dataset section against its input, read with the csv module
    # alone: n rows, weighed out over the clusters, and the label column's counts
    report = json.loads((GOLDEN / name).read_text())
    config, data = report["config"], report["dataset"]
    with open(inputs / config["data"], newline="") as f:
        rows = [row for row in csv.reader(f) if row]
    header = rows.pop(0) if config["header"] else None
    assert sum(report["solution"]["cluster_weights"]) == data["n"] == len(rows)
    label = config["label_column"]
    if label is None:
        assert data["label_histogram"] is None
    else:
        column = int(label) if label.isdigit() else header.index(label)
        assert data["label_histogram"] == collections.Counter(row[column] for row in rows)


def test_wide_domains_multiply_past_one_key(inputs):
    schema = load_csv(inputs / "wide.csv", label_column=0).schema
    sizes = [a.size for a in schema.attributes]
    assert math.prod(sizes) > 2**64 and len(sizes) == 12 and schema.label_domain.size == 3


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            reports = {name: render(argv, code) for name, argv, code in CASES}
        finally:
            os.chdir(here)
    for name, text in reports.items():
        (GOLDEN / name).write_bytes(text.encode())
    (GOLDEN / "numpy.txt").write_text(np.__version__ + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}", file=sys.stderr)
