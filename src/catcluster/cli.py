"""Command-line front end: dataset fetching, clustering runs, reference-result
reproduction, and property verification.

JSON is the canonical output; tsv and text are projections of it. Output for a
given config is byte-identical across repeated runs and thread counts, so
wall-clock timings go to stderr and enter the JSON only behind --timings.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

# OpenBLAS worker threads busy-wait for about 2**28 cycles (0.1 s) after the
# library loads and after every product before they sleep. No distance uses
# BLAS, but numpy loads the library, and its idle workers still spin after
# that. 4 is the library's shortest wait (2**4 cycles), so they sleep at once.
# On 2 vCPUs (OpenBLAS 0.3.31) cpu_s of local search over 8124 records read
# 0.36-0.48 s at 4 against 0.50-0.65 s at 28, the default (5 runs each), with
# the same wall time. OpenBLAS reads the variable once, when numpy loads it,
# so this precedes every import of numpy; a value the user set is kept. The
# library (`import catcluster`) leaves the environment alone.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

# CPython's built-in SHA-256, the one hashlib itself falls back to: the same
# digest, without the 3.6 MB and 5 ms of OpenSSL that `import hashlib` loads.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .dataset import CategoricalDataset, DatasetError, dedupe, load_csv

if TYPE_CHECKING:
    from .evaluate import EvalReport


# Each command imports only the package modules it calls. dataset, which every
# command that reads a file needs, is imported above; any other public name is
# taken from the package on first use, whose own loader imports its submodule,
# and kept in this module's globals. Without a bytecode cache every module
# imported is compiled from source: importing them all here made `verify
# --suite lemma1` spend 25.9 ms of import self time on the package, where it
# now spends 8.7 ms (2 vCPUs). The commands call these names as
# `_resolve("name")`, which reads the globals, so a name set on this module (a
# tracing wrapper, a test's spy) is the one called; an import inside each
# function would bypass it.
def _resolve(name: str):
    """This module's global ``name``; a public name of the package that is not
    bound yet is taken from the package, which loads its submodule, and kept."""
    namespace = globals()
    if name not in namespace:
        package = sys.modules[__package__]
        if name not in package.__all__:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        namespace[name] = getattr(package, name)
    return namespace[name]


__getattr__ = _resolve  # PEP 562: getattr(cli, name) resolves a name the same way

DATA_DIR_ENV = "CATCLUSTER_DATA_DIR"

NAMED_DATASETS = {
    "votes": {
        "filename": "house-votes-84.data",
        "url": "https://archive.ics.uci.edu/ml/machine-learning-databases/voting-records/house-votes-84.data",
        "rows": 435,
        "columns": 17,
        "label_column": 0,
    },
    "mushroom": {
        "filename": "agaricus-lepiota.data",
        "url": "https://archive.ics.uci.edu/ml/machine-learning-databases/mushroom/agaricus-lepiota.data",
        "rows": 8124,
        "columns": 23,
        "label_column": 0,
    },
}

# Previously reported results on the two named datasets; `reproduce` prints
# measured values side by side with these. The approximation objective is
# compared under both readings (see evaluate module).
REFERENCE_RESULTS = {
    "votes": {
        "kmodes_error": "0.136",
        "kmodes_objective": 1706,
        "approx_error": "0.149",
        "approx_objective": 1701,
        "approx_algorithm": "exhaustive",
    },
    "mushroom": {
        "kmodes_error": "0.435",
        "kmodes_objective": 63015,
        "approx_error": "0.121",
        "approx_objective": 62512,
        "approx_algorithm": "local-search",
    },
}


class FetchError(RuntimeError):
    pass


def data_dir() -> Path:
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "catcluster"


def _candidate_paths(name: str) -> list[Path]:
    filename = NAMED_DATASETS[name]["filename"]
    return [data_dir() / filename, Path("data") / filename]


def dataset_path(name: str) -> Path | None:
    """First existing location of a named dataset file, if any."""
    for p in _candidate_paths(name):
        if p.exists():
            return p
    return None


def load_named(
    name: str, path=None, missing_token: str = "?", missing_policy: str = "treat-as-category"
) -> CategoricalDataset:
    """Load one of the named datasets from an explicit path or the cache, with
    the missing-value options of :func:`load_csv`, and check its shape. A
    missing explicit path fails in :func:`load_csv`, under its own name."""
    info = NAMED_DATASETS[name]
    p = path or dataset_path(name)
    if p is None:
        searched = ", ".join(str(c) for c in _candidate_paths(name))
        raise FetchError(
            f"dataset {name!r} not found (searched {searched}); run "
            f"`catcluster fetch --name {name}` or place {info['filename']} "
            f"in one of those directories ({DATA_DIR_ENV} overrides the cache)"
        )
    ds = load_csv(
        p, label_column=info["label_column"], missing_token=missing_token, missing_policy=missing_policy
    )
    if ds.total_weight != info["rows"] or ds.m != info["columns"] - 1:
        raise FetchError(
            f"{p} does not look like the {name} dataset: expected "
            f"{info['rows']} rows x {info['columns']} columns, found "
            f"{ds.total_weight} rows x {ds.m + 1} columns"
        )
    return ds


def _source_urls(sources_path=None) -> dict:
    """Per-dataset download URLs: built-in defaults, overridable by a JSON
    config file mapping dataset name to URL."""
    urls = {name: info["url"] for name, info in NAMED_DATASETS.items()}
    if sources_path:
        try:
            overrides = json.loads(Path(sources_path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FetchError(f"could not read source config {sources_path}: {exc}") from exc
        if not isinstance(overrides, dict) or not all(isinstance(url, str) for url in overrides.values()):
            raise FetchError(f"source config {sources_path} is not a JSON object of dataset name to URL string")
        unknown = set(overrides) - set(urls)
        if unknown:
            raise FetchError(f"unknown dataset names in {sources_path}: {sorted(unknown)}")
        urls.update(overrides)
    return urls


def fetch_dataset(
    name: str, dest_dir=None, refresh: bool = False, timeout: float = 60.0, sources_path=None
) -> Path:
    info = NAMED_DATASETS[name]
    url = _source_urls(sources_path)[name]
    directory = Path(dest_dir) if dest_dir else data_dir()
    directory.mkdir(parents=True, exist_ok=True)
    dest = directory / info["filename"]
    if dest.exists() and not refresh:
        return dest
    import urllib.error  # only fetch needs it: every other command skips its import cost
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            payload = resp.read()
    except (urllib.error.URLError, OSError) as exc:
        raise FetchError(
            f"could not download {name} from {url} ({exc}); "
            f"place the file manually at {dest}"
        ) from exc
    tmp = dest.with_suffix(dest.suffix + ".part")
    tmp.write_bytes(payload)
    tmp.replace(dest)
    try:
        load_named(name, path=dest)
    except (FetchError, DatasetError):
        dest.unlink(missing_ok=True)  # a bad file must not satisfy the next cache lookup
        raise
    return dest


def _assignment_digest(assignment: np.ndarray) -> str:
    return sha256(np.asarray(assignment, dtype=np.int64).tobytes()).hexdigest()


def _compact_assignment(assignment: np.ndarray, k: int):
    """Drop the empty ones of k clusters and renumber the rest in order; returns that and the dropped ids."""
    present = np.bincount(assignment, minlength=k) > 0
    if present.all():
        return assignment, []
    return (np.cumsum(present) - 1)[assignment], np.flatnonzero(~present).tolist()


def _solution_common(ds: CategoricalDataset, assignment: np.ndarray) -> dict:
    weights = np.zeros(int(assignment.max()) + 1, dtype=np.int64)
    np.add.at(weights, assignment, ds.weights)  # exact, where float64 sums past 2**53 are not
    return {
        "cluster_weights": [int(w) for w in weights],
        "assignment_sha256": _assignment_digest(assignment),
    }


def _evaluation_section(ds, assignment, medoid_objective=None, counts=None):
    """(report | None, objectives dict); labels are optional, objectives are
    not. ``counts`` is the partition's count table when the solver kept it."""
    report = None
    if ds.labels is not None:
        report = _resolve("evaluate")(ds, assignment, medoid_objective=medoid_objective, counts=counts)
        mode_objective = report.mode_objective
    else:
        mode_objective = _resolve("objective_under_modes")(ds, assignment, counts=counts)
    objectives = {
        "mode_objective": int(mode_objective),
        "medoid_objective": None if medoid_objective is None else int(medoid_objective),
    }
    return report, objectives


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        rows = []
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}."))
        return rows
    if isinstance(obj, (list, tuple)):
        return [(prefix[:-1], json.dumps(obj, sort_keys=True))]
    if obj is None:
        return [(prefix[:-1], "")]
    if isinstance(obj, bool):
        return [(prefix[:-1], "true" if obj else "false")]
    return [(prefix[:-1], str(obj))]


def _emit(record: dict, fmt: str, output, text: str | None = None) -> None:
    if fmt == "json":
        payload = json.dumps(record, sort_keys=True, indent=2) + "\n"
    elif fmt == "tsv":
        payload = "".join(f"{key}\t{value}\n" for key, value in _flatten(record))
    else:
        payload = (text or json.dumps(record, sort_keys=True, indent=2)) + "\n"
    if output:
        Path(output).write_text(payload)
    else:
        sys.stdout.write(payload)


def _parse_label_column(s):
    if s is None:
        return None
    try:
        return int(s)
    except ValueError:
        return s


def _load(args) -> CategoricalDataset:
    """The input of run, verify and reproduce: the ``--name`` dataset from ``--data`` or
    the cache, else the ``--data`` file with the ingestion options; merged into
    weighted records when ``args.dedupe`` is set."""
    if args.name:
        ds = load_named(
            args.name, path=args.data, missing_token=args.missing_token, missing_policy=args.missing_policy
        )
    elif args.data:
        ds = load_csv(
            args.data,
            label_column=_parse_label_column(args.label_column),
            missing_token=args.missing_token,
            missing_policy=args.missing_policy,
            header=args.header,
        )
    else:
        raise DatasetError(f"suite {args.suite!r} needs --name or --data")
    return dedupe(ds) if args.dedupe else ds


def _run_text(record: dict, report: EvalReport | None) -> str:
    cfg, data, obj = record["config"], record["dataset"], record["objectives"]
    lines = [
        f"catcluster {record['version']}  {cfg['algorithm']}  k={cfg['k']}  seed={cfg['seed']}",
        f"data: {data['path']}  n={data['n']}  m={data['m']}  distinct={data['distinct_values']}",
    ]
    sol = record["solution"]
    if cfg["algorithm"] == "kmodes":
        lines.append(f"iterations: {sol['iterations']}  converged: {sol['converged']}")
    else:
        lines.append(f"medoid indices: {sol['medoid_indices']}  guarantee: {sol['guarantee']}")
    if report is not None:
        lines.append(report.to_text())
    else:
        lines.append(f"mode objective    {obj['mode_objective']}")
        if obj["medoid_objective"] is not None:
            lines.append(f"medoid objective  {obj['medoid_objective']}")
    return "\n".join(lines)


def _solve(ds: CategoricalDataset, args):
    """Run ``args.algorithm``; returns (solution section, assignment with the
    empty clusters dropped, medoid objective or None, and the assignment's
    count table from k-modes or None: k-modes reseeds every empty cluster,
    so it drops none)."""
    if args.algorithm == "kmodes":
        config = _resolve("KModesConfig")(
            k=args.k, init=args.init, seed=args.seed, max_iterations=args.max_iterations
        )
        result = _resolve("run_kmodes")(ds, config)
        solution = {
            "algorithm": "kmodes",
            "iterations": result.iterations,
            "converged": result.converged,
            "modes": [ds.decode(mode) for mode in result.modes],
            "objective_history": list(result.objective_history),
            "reseeded_iterations": list(result.reseeded_iterations),
        }
        medoid_objective, counts = None, result.counts
    else:
        if args.algorithm == "exhaustive":
            result = _resolve("exhaustive_search")(ds, args.k, workers=args.threads, force=args.force)
        else:
            config = _resolve("LocalSearchConfig")(
                p=args.p,
                seed=args.seed,
                min_relative_improvement=args.min_relative_improvement,
                max_steps=args.max_steps,
                restarts=args.restarts,
            )
            result = _resolve("local_search")(ds, args.k, config)
        solution = {
            "algorithm": result.algorithm,
            "medoid_indices": [int(i) for i in result.medoid_indices],
            "medoids": [ds.decode(ds.values[i]) for i in result.medoid_indices],
            "guarantee": result.guarantee,
        }
        medoid_objective, counts = result.medoid_objective, None
    assignment, dropped = _compact_assignment(result.assignment, args.k)
    solution.update(_solution_common(ds, assignment))
    if dropped:
        solution["empty_clusters_dropped"] = dropped
    return solution, assignment, medoid_objective, counts


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    ds = _load(args)
    t_load = time.perf_counter() - t0

    t1 = time.perf_counter()
    solution, assignment, medoid_objective, counts = _solve(ds, args)
    t_solve = time.perf_counter() - t1

    t2 = time.perf_counter()
    report, objectives = _evaluation_section(ds, assignment, medoid_objective, counts)
    t_eval = time.perf_counter() - t2

    record = {
        "version": __version__,
        "command": "run",
        "config": {
            "algorithm": args.algorithm,
            "k": args.k,
            "seed": args.seed,
            "init": args.init,
            "max_iterations": args.max_iterations,
            "p": args.p,
            "restarts": args.restarts,
            "min_relative_improvement": args.min_relative_improvement,
            "max_steps": args.max_steps,
            "dedupe": args.dedupe,
            "data": str(args.data),
            "label_column": args.label_column,
            "header": args.header,
            "missing_token": args.missing_token,
            "missing_policy": args.missing_policy,
        },
        "dataset": {
            "path": str(args.data),
            "n": ds.total_weight,
            "n_records": ds.n_records,
            "m": ds.m,
            "distinct_values": ds.distinct_records.size,
            "label_histogram": None if report is None else dict(
                zip(report.confusion.label_names, report.confusion.counts.sum(axis=0).tolist())
            ),
        },
        "solution": solution,
        "objectives": objectives,
        "evaluation": None if report is None else report.to_dict(),
    }
    timings = {
        "load_s": round(t_load, 6),
        "solve_s": round(t_solve, 6),
        "evaluate_s": round(t_eval, 6),
    }
    if args.timings:
        record["timings"] = timings
    print(
        f"timings[s]: load={timings['load_s']:.3f} solve={timings['solve_s']:.3f} "
        f"evaluate={timings['evaluate_s']:.3f}",
        file=sys.stderr,
    )
    _emit(record, args.format, args.output, text=_run_text(record, report))
    return 0


def _deviation_rows(measured: dict, ref: dict) -> list[tuple[str, str, str, str]]:
    from fractions import Fraction  # it imports decimal: only reproduce needs either

    rows = []

    def err_row(label, measured_frac, ref_str):
        dev = float(measured_frac - Fraction(ref_str))
        rows.append((label, _resolve("format_rounded")(measured_frac), ref_str, f"{dev:+.3f}"))

    def obj_row(label, measured_val, ref_val):
        dev = (measured_val - ref_val) / ref_val * 100.0
        rows.append((label, str(measured_val), str(ref_val), f"{dev:+.2f}%"))

    err_row("kmodes error", measured["kmodes_error"], ref["kmodes_error"])
    obj_row("kmodes objective", measured["kmodes_objective"], ref["kmodes_objective"])
    err_row("approx error", measured["approx_error"], ref["approx_error"])
    obj_row("approx objective (medoid)", measured["approx_medoid_objective"], ref["approx_objective"])
    obj_row("approx objective (mode refit)", measured["approx_mode_objective"], ref["approx_objective"])
    return rows


def cmd_reproduce(args) -> int:
    name = args.name
    ref = REFERENCE_RESULTS[name]
    ds = _load(args)
    # each row is the `run` of these options on the deduped file, with every
    # other option at run's default; _solve reads no input, so --data is a stand-in
    run_argv = ["run", "--data", "-", "--k", "2", "--restarts", "5",
                "--seed", str(args.seed), "--threads", str(args.threads)]
    parse = build_parser().parse_args

    def measure(algorithm: str) -> EvalReport:
        _, assignment, medoid_objective, counts = _solve(ds, parse([*run_argv, "--algorithm", algorithm]))
        return _evaluation_section(ds, assignment, medoid_objective, counts)[0]

    km_report, ap_report = measure("kmodes"), measure(ref["approx_algorithm"])

    measured = {
        "kmodes_error": km_report.error,
        "kmodes_objective": km_report.mode_objective,
        "approx_error": ap_report.error,
        "approx_medoid_objective": ap_report.medoid_objective,
        "approx_mode_objective": ap_report.mode_objective,
    }
    rows = _deviation_rows(measured, ref)

    header = ("quantity", "measured", "reference", "deviation")
    widths = [max(len(r[c]) for r in [header, *rows]) for c in range(4)]
    text_lines = [
        f"{name} reproduction (k=2, first-k-distinct, approx={ref['approx_algorithm']})",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
    ]
    text_lines += ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows]

    record = {
        "version": __version__,
        "command": "reproduce",
        "table": name,
        "reference": ref,
        "measured": {
            "kmodes_error": _resolve("format_rounded")(measured["kmodes_error"]),
            "kmodes_error_exact": str(measured["kmodes_error"]),
            "kmodes_objective": measured["kmodes_objective"],
            "approx_error": _resolve("format_rounded")(measured["approx_error"]),
            "approx_error_exact": str(measured["approx_error"]),
            "approx_medoid_objective": measured["approx_medoid_objective"],
            "approx_mode_objective": measured["approx_mode_objective"],
        },
        "deviation": {label: dev for label, _, _, dev in rows},
        "kmodes_confusion": km_report.confusion.to_lists(),
        "approx_confusion": ap_report.confusion.to_lists(),
    }
    _emit(record, args.format, args.output, text="\n".join(text_lines))
    return 0


def cmd_verify(args) -> int:
    defaults = {"metric": 100000, "lemma1": 1000, "lemma2": 200, "oracle": 50}
    trials = args.trials if args.trials is not None else defaults[args.suite]
    if args.suite in ("metric", "lemma1"):
        audit = _resolve("check_metric_properties") if args.suite == "metric" else _resolve("audit_lemma1")
        report = audit(_load(args), trials, args.seed)
    elif args.name or args.data:
        raise DatasetError(f"suite {args.suite!r} reads no input: drop --name and --data")
    else:
        audit = _resolve("audit_lemma2") if args.suite == "lemma2" else _resolve("audit_oracle")
        report = audit(trials, args.seed)

    record = {
        "version": __version__,
        "command": "verify",
        "suite": args.suite,
        "trials": report.trials,
        "seed": args.seed,
        "violations": list(report.violations),
        "passed": report.passed,
        **report.figures,
    }
    summary = f"verify {args.suite}: trials={trials} violations={len(report.violations)} -> " + (
        "pass" if report.passed else "FAIL"
    )
    if "max_ratio" in report.figures:
        summary += f" (max ratio {report.figures['max_ratio']:.4f}, bound 2)"
    _emit(record, args.format, args.output, text=summary)
    return 0 if report.passed else 1


def cmd_fetch(args) -> int:
    names = list(NAMED_DATASETS) if args.name == "all" else [args.name]
    for name in names:
        dest = fetch_dataset(
            name,
            dest_dir=args.data_dir,
            refresh=args.refresh,
            timeout=args.timeout,
            sources_path=args.sources,
        )
        print(f"{name}: {dest}")
    return 0


def _add_output_options(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--format", choices=["json", "tsv", "text"], default=default_format)
    p.add_argument("--output", help="write the report here instead of stdout")


def _add_ingestion_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", default=None, help="class column, by index or by header name")
    p.add_argument("--header", action="store_true", help="first row is a header")
    p.add_argument("--missing-token", default="?")
    p.add_argument("--missing-policy", choices=["treat-as-category", "reject"], default="treat-as-category")


def _count(noun: str, least: int = 1):
    """The parser type of a count option (or of the seed, ``least`` 0): an int of at least
    ``least``, refused at the parser whatever the algorithm or suite, as ``noun`` in the message."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{noun} must be >= {least}, got {value}")
        return value

    return count


def _threshold(text: str) -> float:
    """`--min-relative-improvement`: a finite float of at least 0, refused at
    the parser whatever the algorithm."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"min_relative_improvement must be finite and >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catcluster",
        description="Clustering for categorical data: k-modes and member-restricted k-median.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fetch = sub.add_parser("fetch", help="download the named datasets into the cache")
    p_fetch.add_argument("--name", choices=[*NAMED_DATASETS, "all"], default="all")
    p_fetch.add_argument("--data-dir", default=None, help=f"override cache dir (default: ${DATA_DIR_ENV} or ~/.cache/catcluster)")
    p_fetch.add_argument("--refresh", action="store_true", help="re-download even if present")
    p_fetch.add_argument("--timeout", type=float, default=60.0)
    p_fetch.add_argument("--sources", default=None,
                         help="JSON file mapping dataset name to download URL (overrides the defaults)")
    p_fetch.set_defaults(func=cmd_fetch)

    p_run = sub.add_parser("run", help="cluster a CSV file and report quality")
    p_run.add_argument("--data", required=True)
    _add_ingestion_options(p_run)
    p_run.add_argument("--dedupe", action="store_true",
                       help="merge identical records into weighted ones (same results, faster)")
    p_run.add_argument("--algorithm", choices=["kmodes", "exhaustive", "local-search"], required=True)
    p_run.add_argument("--k", type=_count("k"), required=True)
    p_run.add_argument("--seed", type=_count("seed", 0), default=0)
    p_run.add_argument("--init", choices=["first-k-distinct", "random"], default="first-k-distinct")
    p_run.add_argument("--max-iterations", type=_count("max_iterations"), default=100)
    p_run.add_argument("--p", type=_count("swap width p"), default=1, help="local-search swap width")
    p_run.add_argument("--restarts", type=_count("restarts"), default=1)
    p_run.add_argument("--min-relative-improvement", type=_threshold, default=1e-9)
    p_run.add_argument("--max-steps", type=_count("max_steps"), default=1000)
    p_run.add_argument("--force", action="store_true",
                       help="run exhaustive enumeration past its work gate on n * C(n, k) distance terms")
    p_run.add_argument("--threads", type=_count("workers"), default=1)
    p_run.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
    _add_output_options(p_run)
    p_run.set_defaults(func=cmd_run, name=None)

    p_rep = sub.add_parser("reproduce", help="rerun the reference experiments and compare")
    p_rep.add_argument("--table", dest="name", choices=list(REFERENCE_RESULTS), required=True)
    p_rep.add_argument("--data", default=None, help="explicit dataset file (otherwise the cache is searched)")
    p_rep.add_argument("--seed", type=_count("seed", 0), default=0)
    p_rep.add_argument("--threads", type=_count("workers"), default=1)
    _add_output_options(p_rep, default_format="text")
    p_rep.set_defaults(func=cmd_reproduce, dedupe=True, missing_token="?", missing_policy="treat-as-category")

    p_ver = sub.add_parser("verify", help="run a property audit; exit 1 on any violation")
    p_ver.add_argument("--suite", choices=["metric", "lemma1", "lemma2", "oracle"], required=True)
    p_ver.add_argument("--name", choices=list(NAMED_DATASETS), default=None)
    p_ver.add_argument("--data", default=None)
    _add_ingestion_options(p_ver)
    p_ver.add_argument("--trials", type=_count("trials"), default=None)
    p_ver.add_argument("--seed", type=_count("seed", 0), default=0)
    _add_output_options(p_ver, default_format="text")
    p_ver.set_defaults(func=cmd_verify, dedupe=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error returns 2 like any other; --help and --version exit
        if not exc.code:
            raise
        return exc.code
    try:
        return args.func(args)
    except (DatasetError, FetchError, ValueError, OSError) as exc:  # InstanceTooLargeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Process entry of ``python -m catcluster.cli`` and the ``catcluster``
    script: :func:`main`, then exit with its return code."""
    # The seeded streams import numpy.random, which imports secrets, then
    # hmac, then OpenSSL's _hashlib. None in sys.modules makes that import
    # fail, and hmac and hashlib fall back to CPython's built-in digests, as
    # documented; every drawn number is unchanged. On 2 vCPUs importing
    # numpy.random then added 2.9 MB of RSS instead of 6.3 MB, and verify
    # --suite lemma1 on 8124 records peaked at 36.3 MB instead of 39.9 (35.2
    # since it loads only the modules it calls, see _resolve). ssl
    # links OpenSSL itself, so fetch over https still works. setdefault keeps
    # a _hashlib the process already imported. Like gc.freeze() below, only
    # here, never in main: the library and callers of main keep OpenSSL.
    sys.modules.setdefault("_hashlib", None)
    code = main()
    # The interpreter's last collection at exit walks every tracked object,
    # most of them built by the numpy import, though none is garbage: on 2
    # vCPUs a k-modes run on 100 000 rows spent 0.042 s from here to its end.
    # gc.freeze() moves them to the permanent generation, which that walk
    # skips (0.011 s); atexit handlers and the flush of stdout and stderr
    # still run. Only here, never in main: callers of main in a process that
    # goes on must keep a collectable heap.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
