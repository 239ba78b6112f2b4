"""The package's import surface, the CLI's BLAS thread policy and its process
entry, each checked in a fresh interpreter: what a first import loads and sets,
and what happens at exit, cannot be seen from a process that has already
loaded them."""
import gc
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import catcluster

SRC = Path(catcluster.__file__).resolve().parents[1]
POLICY = "OPENBLAS_THREAD_TIMEOUT"


def child(*args: str, **env_overrides: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with `args`, this checkout's package and no
    inherited BLAS policy."""
    env = {key: value for key, value in os.environ.items() if key != POLICY}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.update(env_overrides)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def run_child(code: str, **env_overrides: str) -> str:
    """Run `code` in a child interpreter (see :func:`child`); return its stdout."""
    out = child("-c", textwrap.dedent(code), **env_overrides)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture
def data(tmp_path):
    """40 labelled records of 3 attributes."""
    path = tmp_path / "data.csv"
    path.write_text("".join(f"L{i % 2},{'ab'[i % 2]},{'xyz'[i % 3]},{'pq'[i % 5 // 3]}\n" for i in range(40)))
    return path


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        return ""


class TestLazyPackage:
    def test_import_loads_no_numpy_and_sets_nothing(self):
        out = run_child("""
            import os, sys
            before = dict(os.environ)
            import catcluster
            print("numpy" in sys.modules, dict(os.environ) == before)
        """)
        assert out.split() == ["False", "True"]

    def test_every_public_name_is_its_submodules_object(self):
        out = run_child("""
            import importlib
            import catcluster
            assert catcluster.kmodes.__name__ == "catcluster.kmodes"  # submodules load by name too
            names = [n for n in catcluster.__all__ if n != "__version__"]
            # a submodule imported directly must not rebind a public name of the same spelling
            import catcluster.evaluate
            for name in names:
                module = importlib.import_module("catcluster." + catcluster._SUBMODULE_OF[name])
                assert getattr(catcluster, name) is getattr(module, name), name
            assert catcluster.load_csv is catcluster.dataset.load_csv
            assert callable(catcluster.evaluate)
            missing = set(catcluster.__all__) - set(dir(catcluster))
            print(len(names), sorted(missing))
        """)
        assert out.split() == [str(len(catcluster.__all__) - 1), "[]"]

    def test_public_names_are_unchanged(self):
        assert catcluster.__all__ == [
            "AttributeDomain", "AuditReport", "CategoricalDataset", "ConfusionMatrix", "DatasetError",
            "EvalReport", "InstanceTooLargeError", "KModesConfig", "KModesResult", "LocalSearchConfig",
            "MedoidSolution", "Schema", "accuracy_error", "assign_points", "audit_lemma1", "audit_lemma2",
            "audit_oracle", "brute_force_kmodes_objective", "check_metric_properties", "confusion",
            "cost_of_medoid_set", "dedupe", "evaluate", "exhaustive_search",
            "exhaustive_search_naive", "format_rounded", "load_csv", "local_search",
            "objective_under_medoids", "objective_under_modes", "random_dataset", "run_kmodes",
            "__version__",
        ]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            catcluster.no_such_name

    def test_cli_takes_only_public_names_from_the_package(self):
        # a loaded submodule is an attribute of the package, but not a name the CLI calls
        import catcluster.metric
        from catcluster import cli

        assert catcluster.metric.__name__ == "catcluster.metric"
        with pytest.raises(AttributeError, match="no attribute 'metric'"):
            cli.metric

    def test_submodules_import_by_name(self):
        from catcluster import cli, dataset

        assert cli.load_csv is dataset.load_csv is catcluster.load_csv
        assert catcluster.medoids.local_search is catcluster.local_search


class TestResidentFloor:
    """What a CLI process loads: the report's digest comes from CPython's
    built-in SHA-256, not OpenSSL, the scan's threads need no executor, and
    the process entry keeps OpenSSL out of the commands that draw seeded
    numbers."""

    def test_cli_import_loads_no_openssl_and_no_executor(self):
        out = run_child("""
            import sys
            import catcluster.cli
            print(*sorted({"_hashlib", "hashlib", "concurrent.futures"} & set(sys.modules)))
        """)
        assert out.split() == []

    @pytest.mark.parametrize("n", [0, 1, 200_000])
    def test_digest_is_hashlib_sha256(self, n):
        import hashlib

        from catcluster import cli

        assignment = np.random.default_rng(n).integers(0, 7, size=n)
        want = hashlib.sha256(assignment.astype(np.int64).tobytes()).hexdigest()
        assert cli._assignment_digest(assignment) == want

    def test_digest_falls_back_to_hashlib(self):
        # None in sys.modules makes an import of that name fail
        out = run_child("""
            import hashlib, sys
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            from catcluster import cli
            import numpy as np
            print(cli.sha256 is hashlib.sha256, cli._assignment_digest(np.arange(5)) == hashlib.sha256(
                np.arange(5, dtype=np.int64).tobytes()).hexdigest())
        """)
        assert out.split() == ["True", "True"]

    # commands that draw seeded numbers, and so import numpy.random
    SEEDED = {
        "local-search": ("run", "--label-column", "0", "--algorithm", "local-search", "--k", "3", "--p", "1"),
        "lemma1": ("verify", "--suite", "lemma1", "--label-column", "0", "--trials", "30", "--format", "json"),
    }
    # printed at the exit of a child: is _hashlib blocked, and does the process
    # map libcrypto (None where there is no /proc/self/maps)
    AT_EXIT = """
        import atexit, os, sys
        def _probe():
            maps = "/proc/self/maps"
            mapped = "libcrypto" in open(maps).read() if os.path.exists(maps) else None
            print(sys.modules.get("_hashlib") is None, mapped)
        atexit.register(_probe)
    """

    @pytest.fixture
    def planted(self, tmp_path):
        """90 records of 8 attributes around 3 hidden modes, 1 value in 10 flipped."""
        rng = np.random.default_rng(5)
        modes = rng.integers(0, 3, size=(3, 8))
        hidden = np.arange(90) % 3
        values = np.where(rng.random((90, 8)) < 0.1, rng.integers(0, 3, size=(90, 8)), modes[hidden])
        path = tmp_path / "planted.csv"
        path.write_text("".join(f"c{h}," + ",".join("xyz"[v] for v in row) + "\n" for h, row in zip(hidden, values)))
        return path

    def entry_child(self, argv: list[str], before: str = "") -> str:
        """Run the CLI as `python -m catcluster.cli` does, after `before`, with
        the exit probe registered; return its stdout."""
        run = f"""
            import runpy
            sys.argv = ["catcluster", *{argv!r}]
            runpy.run_module("catcluster.cli", run_name="__main__")
        """
        return run_child("\n".join(textwrap.dedent(part) for part in (self.AT_EXIT, before, run)))

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_entry_keeps_openssl_out_and_the_report(self, tmp_path, planted, command):
        pytest.importorskip("_hashlib")  # so that cli.main below runs with OpenSSL loaded
        from catcluster import cli

        argv = [*self.SEEDED[command], "--data", str(planted)]
        out = self.entry_child([*argv, "--output", str(tmp_path / "child.json")])
        blocked, mapped = out.split()
        assert blocked == "True"
        assert mapped in ("False", "None")
        assert cli.main([*argv, "--output", str(tmp_path / "main.json")]) == 0
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    def test_entry_keeps_a_hashlib_the_host_imported(self, tmp_path, planted):
        pytest.importorskip("_hashlib")
        argv = [*self.SEEDED["lemma1"], "--data", str(planted), "--output", str(tmp_path / "r.json")]
        blocked, mapped = self.entry_child(argv, before="import hashlib").split()
        assert blocked == "False"
        assert mapped in ("True", "None")
        assert (tmp_path / "r.json").stat().st_size > 0

    def test_main_installs_no_block(self, tmp_path, planted):
        pytest.importorskip("_hashlib")
        out = run_child(f"""
            import sys
            from catcluster import cli
            code = cli.main([*{self.SEEDED["lemma1"]!r}, "--data", {str(planted)!r}, "--output", {str(tmp_path / "r.json")!r}])
            print(code, "numpy.random" in sys.modules, sys.modules.get("_hashlib") is not None)
        """)
        assert out.split() == ["0", "True", "True"]

    def test_fetch_works_under_the_block(self, tmp_path):
        # a file:// URL: the real urllib import and opener, offline
        line = ",".join(["democrat"] + ["y", "n", "?", "y"] * 4)
        payload = (line + "\n") * 435
        source = tmp_path / "votes-source.data"
        source.write_text(payload)
        sources = tmp_path / "sources.json"
        sources.write_text(json.dumps({"votes": source.as_uri()}))
        cache = tmp_path / "cache"
        out = child("-m", "catcluster.cli", "fetch", "--name", "votes", "--sources", str(sources),
                    "--data-dir", str(cache))
        assert out.returncode == 0, out.stderr
        dest = cache / "house-votes-84.data"
        assert dest.read_text() == payload
        assert out.stdout == f"votes: {dest}\n"


class TestBlasPolicy:
    def test_cli_sets_shortest_wait(self):
        assert run_child(f"import os, catcluster.cli; print(os.environ['{POLICY}'])").strip() == "4"

    def test_cli_keeps_a_preset_value(self):
        code = f"import os, catcluster.cli; print(os.environ['{POLICY}'])"
        assert run_child(code, **{POLICY: "12"}).strip() == "12"

    @pytest.mark.skipif((os.cpu_count() or 1) < 2 or "openblas" not in blas_name().lower(),
                        reason="needs OpenBLAS with a worker thread")
    def test_idle_workers_sleep_after_a_product(self):
        # with the library's default wait the worker spins about 0.12 s here
        out = run_child("""
            import time
            import catcluster.cli
            import numpy as np
            a = np.ones((512, 512), dtype=np.float32)
            a @ a
            start = time.process_time()
            time.sleep(0.3)
            print(time.process_time() - start)
        """)
        assert float(out) < 0.02


class TestProcessEntry:
    RUN = ("run", "--label-column", "0", "--algorithm", "kmodes", "--k", "2")

    def test_module_run_writes_the_in_process_report(self, tmp_path, data):
        from catcluster import cli

        out = child("-m", "catcluster.cli", *self.RUN, "--data", str(data), "--output", str(tmp_path / "child.json"))
        assert out.returncode == 0, out.stderr
        assert cli.main([*self.RUN, "--data", str(data), "--output", str(tmp_path / "main.json")]) == 0
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()
        assert gc.get_freeze_count() == 0  # main leaves the heap of a process that goes on alone

    def test_missing_data_file_exits_2_with_the_in_process_error(self, tmp_path, capsys):
        from catcluster import cli

        argv = [*self.RUN, "--data", str(tmp_path / "missing.csv")]
        out = child("-m", "catcluster.cli", *argv)
        assert cli.main(argv) == 2
        expected = capsys.readouterr().err
        assert (out.returncode, out.stderr) == (2, expected)
        assert expected.startswith("error:") and "missing.csv" in expected

    def test_entry_freezes_the_heap_and_runs_atexit_handlers(self, tmp_path, data):
        out = run_child(f"""
            import atexit, gc, sys
            from catcluster import cli
            atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
            sys.argv = ["catcluster", *{self.RUN!r}, "--data", {str(data)!r}, "--output", {str(tmp_path / "r.json")!r}]
            cli.entry()
        """)
        assert out == "frozen at exit: True\n"
        assert (tmp_path / "r.json").stat().st_size > 0

    def test_console_script_is_the_entry(self):
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        assert re.search(r'^catcluster = "catcluster\.cli:entry"$', pyproject, re.M)


class TestCommandModules:
    """Each command loads only the package modules it calls: the CLI imports
    dataset up front and every other module on first use of one of its names."""

    # command -> its argv ("{data}" is the input file) and the package modules it loads
    COMMANDS = {
        "verify-lemma1": (("verify", "--suite", "lemma1", "--data", "{data}", "--label-column", "0",
                           "--trials", "5"), {"dataset", "metric"}),
        "verify-metric": (("verify", "--suite", "metric", "--data", "{data}", "--label-column", "0",
                           "--trials", "5"), {"dataset", "metric"}),
        "run-kmodes": (("run", "--data", "{data}", "--label-column", "0", "--algorithm", "kmodes", "--k", "2"),
                       {"dataset", "evaluate", "kmodes", "metric"}),
        "run-exhaustive": (("run", "--data", "{data}", "--label-column", "0", "--algorithm", "exhaustive",
                            "--k", "2"), {"dataset", "evaluate", "medoids", "metric"}),
        "run-help": (("run", "--help"), {"dataset"}),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_loads_only_what_it_calls(self, data, command):
        args, modules = self.COMMANDS[command]
        argv = [arg.replace("{data}", str(data)) for arg in args]
        out = run_child(f"""
            import contextlib, io, sys
            from catcluster import cli
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main({argv!r})
                except SystemExit as exc:  # --help
                    code = exc.code
            loaded = sorted(name.split(".")[1] for name in sys.modules if name.startswith("catcluster."))
            print(code, ",".join(loaded), "fractions" in sys.modules)
        """)
        # fractions (and decimal with it) only with evaluate, which computes exact error rates
        assert out.split() == ["0", ",".join(sorted({"cli", *modules})), str("evaluate" in modules)]


class TestTracingSeam:
    """The benchmark's tracer wraps these names by getattr and setattr on the
    cli module; its per-layer figures read 0 unless the commands call what is
    set there."""

    DEFINED_IN = {"load_csv": "dataset", "dedupe": "dataset", "run_kmodes": "kmodes", "evaluate": "evaluate",
                  "exhaustive_search": "medoids", "local_search": "medoids", "audit_lemma1": "metric"}

    def test_names_are_their_modules_objects(self):
        from catcluster import cli

        for name, module in self.DEFINED_IN.items():
            assert getattr(cli, name) is getattr(importlib.import_module(f"catcluster.{module}"), name), name

    def test_unknown_name_raises(self):
        from catcluster import cli

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cli.no_such_name

    KMODES = ("run", "--label-column", "0", "--algorithm", "kmodes", "--k", "2")

    @pytest.mark.parametrize("name,argv", [
        ("audit_lemma1", ("verify", "--suite", "lemma1", "--label-column", "0", "--trials", "5")),
        ("exhaustive_search", ("run", "--label-column", "0", "--algorithm", "exhaustive", "--k", "2")),
        ("run_kmodes", KMODES),
        ("evaluate", KMODES),
    ])
    def test_main_calls_the_name_set_on_cli(self, monkeypatch, tmp_path, data, name, argv):
        from catcluster import cli

        original, calls = getattr(cli, name), []

        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        assert cli.main([*argv, "--data", str(data), "--output", str(tmp_path / "r.json")]) == 0
        assert calls == [name]
