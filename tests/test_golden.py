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

import contextlib
import difflib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from catcluster import cli

GOLDEN = Path(__file__).parent / "golden"


def _votes(rng: random.Random, n: int) -> list[list[str]]:
    """Votes-shaped rows: a party label and 16 y/n votes that mostly follow
    it, with about 4 % of the votes missing ("?")."""
    rows = []
    for _ in range(n):
        party = rng.choice(["democrat", "republican"])
        lean, other = ("y", "n") if party == "democrat" else ("n", "y")
        rows.append([party, *("?" if rng.random() < 0.04 else lean if rng.random() < 0.8 else other
                              for _ in range(16))])
    return rows


def _uniform(rng: random.Random, n: int, m: int, labels: tuple[str, ...] = ()) -> list[list[str]]:
    """Rows of m features drawn from "abc", led by a label when ``labels`` is given."""
    return [[*([rng.choice(labels)] if labels else []), *(rng.choice("abc") for _ in range(m))] for _ in range(n)]


def _lines(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def write_inputs(directory: Path) -> None:
    """Write every case's input file into ``directory``."""
    files = {
        "votes.csv": _lines(_votes(random.Random(1), 435)),
        "small.csv": _lines(_uniform(random.Random(2), 60, 6, ("L0", "L1", "L2"))),
        "plain.csv": _lines(_uniform(random.Random(3), 80, 5)),
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
    ("unlabelled.json", ["run", "--data", "plain.csv", "--algorithm", "local-search", "--k", "3"], 0),
    ("empty-clusters.json", [*RUN, "--data", "repeated.csv", "--algorithm", "exhaustive", "--k", "4"], 0),
    ("empty-clusters.txt", [*RUN, "--data", "repeated.csv", "--algorithm", "exhaustive", "--k", "4",
                            "--format", "text"], 0),
    ("reproduce-votes.json", ["reproduce", "--table", "votes", "--data", "votes.csv", "--format", "json"], 0),
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
