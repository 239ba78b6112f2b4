"""Benchmark of the catcluster command-line pipeline on planted-cluster data.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exhaustive-k3 --seed 1 --seconds 25 --trace 0

Set-up generates the workload's input from --seed. With --trace 0 the
workload's CLI command is run as a fresh process, exactly as a user runs it,
again and again for about --seconds; every report is checked against
computations made apart from the program, and the end-to-end metrics are the
medians over those processes. With --trace 1 the same command runs in this
process untraced, then with spans around each layer (see tracing.py), then
untraced again, and the per-layer metrics come from the traced run. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 1 when a check fails and 2 when the checkout
holds no package source.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import planted
import tracing

LEMMA1_TRIALS = 15  # the first 15 subset sizes the audit draws include its largest, 8027 of 8124
MIN_PROCESSES = 3  # timed CLI processes per run, however short --seconds is
SETUP_PROBES = 5  # interpreter launches timed per run for setup_s
SETUP_PROBE = "import time, catcluster.cli; print(time.monotonic())"
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB; MB here means MiB

# Starts the CLI and reports "wall cpu maxrss_kib exit_code" from the CLI's
# own wait4 rusage, which covers the workers it reaped. A child's peak RSS
# includes the memory of the process that spawned it (its pre-exec image
# shares the spawner's pages), so the CLI is spawned from this small
# interpreter (-S: no site import) rather than from the benchmark process,
# whose generated inputs would otherwise show as the CLI's peak.
LAUNCHER = """
import os, sys, time
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


@dataclass(frozen=True)
class Workload:
    shape: str
    argv: tuple[str, ...]  # CLI arguments; "{data}" is replaced by the CSV path
    reference: tuple[str, ...] | None  # run once per benchmark run for the checks
    # (report, reference report or None, generated input) -> failure messages
    check: Callable[[bytes, bytes | None, planted.Planted], list[str]]


def _run_args(*extra: str) -> tuple[str, ...]:
    return ("run", "--data", "{data}", "--label-column", "0", *extra)


WORKLOADS = {
    "exhaustive-k3": Workload(
        "votes",
        _run_args("--algorithm", "exhaustive", "--k", "3", "--threads", "2"),
        _run_args("--algorithm", "exhaustive", "--k", "3", "--threads", "1"),
        lambda report, ref, inputs: checks.check_exhaustive(report, ref, inputs, k=3),
    ),
    "local-search-mushroom": Workload(
        "mushroom",
        _run_args("--algorithm", "local-search", "--k", "2", "--p", "1", "--restarts", "1"),
        None,
        lambda report, ref, inputs: checks.check_local_search(report, inputs, k=2, p=1),
    ),
    "kmodes-large": Workload(
        "large",
        _run_args("--algorithm", "kmodes", "--k", "20", "--dedupe"),
        _run_args("--algorithm", "kmodes", "--k", "20"),
        lambda report, ref, inputs: checks.check_kmodes(report, ref, inputs, k=20),
    ),
    "audit-lemma1": Workload(
        "mushroom",
        ("verify", "--suite", "lemma1", "--data", "{data}", "--label-column", "0",
         "--trials", str(LEMMA1_TRIALS), "--format", "json"),
        None,
        lambda report, ref, inputs: checks.check_lemma1(report, LEMMA1_TRIALS),
    ),
}


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    report: bytes


class Cli:
    """Runs the CLI as fresh processes against one checkout's source tree."""

    def __init__(self, root: Path, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = work

    def argv(self, args: tuple[str, ...], data: Path, output: Path) -> list[str]:
        return [a.replace("{data}", str(data)) for a in args] + ["--output", str(output)]

    def run(self, args: list[str]) -> Process:
        """One CLI process, started by a small launcher (see LAUNCHER)."""
        output = Path(args[args.index("--output") + 1])
        output.unlink(missing_ok=True)
        with open(self.work / "stderr.txt", "wb") as err:
            out = subprocess.run(
                [sys.executable, "-S", "-c", LAUNCHER, "-m", "catcluster.cli", *args],
                env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                check=True, text=True,
            )
        wall, cpu, maxrss_kib, code = out.stdout.split()
        if int(code) != 0:
            sys.stderr.write((self.work / "stderr.txt").read_text()[-2000:])
        report = output.read_bytes() if output.exists() else b""
        return Process(float(wall), float(cpu), int(maxrss_kib) / KIB_PER_MB, int(code), report)

    def setup_seconds(self) -> float:
        """Launch of a fresh interpreter until catcluster.cli is imported."""
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, check=True, text=True,
        )
        return float(out.stdout) - start


def make_inputs(workload: Workload, seed: int, work: Path) -> tuple[planted.Planted, Path]:
    inputs = planted.generate(planted.SHAPES[workload.shape], seed)
    return inputs, planted.write(inputs, work)


def timed(workload: Workload, cli: Cli, data: Path, inputs, seconds: float) -> dict:
    setup = [cli.setup_seconds() for _ in range(SETUP_PROBES)]
    output = cli.work / "report.json"
    procs: list[Process] = []
    start = time.perf_counter()
    while True:
        last = cli.run(cli.argv(workload.argv, data, output))
        procs.append(last)
        print(f"process {len(procs)}: wall {last.wall_s:.3f} s  cpu {last.cpu_s:.3f} s  "
              f"rss {last.peak_rss_mb:.1f} MB  exit {last.code}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in procs)
        if len(procs) >= MIN_PROCESSES and elapsed + typical > seconds:
            break
    ok = [p for p in procs if p.code == 0]
    errors = [] if ok else ["no CLI process succeeded"]
    if ok:
        if any(p.report != ok[0].report for p in ok):
            errors.append("reports differ between repeated runs")
        reference = None
        if workload.reference is not None:
            ref = cli.run(cli.argv(workload.reference, data, cli.work / "reference.json"))
            reference = ref.report
            if ref.code != 0:
                errors.append("reference run failed")
        if not errors:
            errors = workload.check(ok[0].report, reference, inputs)
    sample = ok or procs
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in sample), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in sample), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in sample), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return {"errors": errors, "attempted": len(procs), "failed": len(procs) - len(ok), "metrics": metrics}


def traced(workload: Workload, cli: Cli, data: Path, inputs) -> dict:
    """In-process runs: the command untraced, the command and the reference
    command traced, the command untraced again. The tracing overhead is the
    traced wall time minus the mean of the two untraced ones, so that warm-up
    and drift do not fall on one side. Per-layer metrics come from the traced
    run of the command."""
    out = {tag: cli.work / f"{tag}.json" for tag in ("untraced", "traced", "reference")}
    plain = [tracing.run_main(cli.argv(workload.argv, data, out["untraced"]), None)]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.run = "traced"
        code_traced, wall_traced = tracing.run_main(cli.argv(workload.argv, data, out["traced"]), tracer)
        codes = [code_traced]
        if workload.reference is not None:
            tracer.run = "reference"
            codes.append(tracing.run_main(cli.argv(workload.reference, data, out["reference"]), tracer)[0])
    finally:
        tracer.restore()
    tracer.write(cli.work / "spans.json")
    plain.append(tracing.run_main(cli.argv(workload.argv, data, out["untraced"]), None))
    codes += [code for code, _ in plain]

    failed = sum(code != 0 for code in codes)
    errors = [f"{failed} in-process runs failed"] if failed else []
    if not errors:
        report = out["traced"].read_bytes()
        if report != out["untraced"].read_bytes():
            errors.append("traced report differs from the untraced one")
        reference = out["reference"].read_bytes() if workload.reference is not None else None
        errors += workload.check(report, reference, inputs)

    main_spans = [s for s in tracer.spans if s["run"] == "traced"]
    metrics = tracing.layer_metrics(main_spans, out["traced"].stat().st_size if not failed else 0)
    # the reference command of exhaustive-k3 is the one-worker scan
    scans = {s["run"]: s["end"] - s["start"] for s in tracer.spans if s["name"] == "medoids.exhaustive_search"}
    efficiency = scans["reference"] / (2 * scans["traced"]) if len(scans) == 2 else 0.0
    metrics["medoids.exhaustive_parallel_efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead_s"] = (wall_traced - statistics.mean(wall for _, wall in plain), "s")
    return {"errors": errors, "attempted": len(codes), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "catcluster" / "cli.py").is_file():
        print(f"error: {root} holds no src/catcluster; run from the root of a catcluster checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    work = root / "perfbench" / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    inputs, data = make_inputs(workload, args.seed, work)
    cli = Cli(root, work)

    if args.trace:
        result = traced(workload, cli, data, inputs)
    else:
        result = timed(workload, cli, data, inputs, args.seconds)
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    line = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
