"""The package's import surface, the CLI's BLAS thread policy and its process
entry, each checked in a fresh interpreter: what a first import loads and sets,
and what happens at exit, cannot be seen from a process that has already
loaded them."""
import gc
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
            "cost_of_medoid_set", "dataset_stats", "dedupe", "evaluate", "exhaustive_search",
            "exhaustive_search_naive", "format_rounded", "load_csv", "local_search",
            "objective_under_medoids", "objective_under_modes", "random_dataset", "run_kmodes",
            "__version__",
        ]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            catcluster.no_such_name

    def test_submodules_import_by_name(self):
        from catcluster import cli, dataset

        assert cli.load_csv is dataset.load_csv is catcluster.load_csv
        assert catcluster.medoids.local_search is catcluster.local_search


class TestResidentFloor:
    """What a CLI process loads before it reads its input: the report's digest
    comes from CPython's built-in SHA-256, not OpenSSL, and the scan's threads
    need no executor."""

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

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("".join(f"L{i % 2},{'ab'[i % 2]},{'xyz'[i % 3]},{'pq'[i % 5 // 3]}\n" for i in range(40)))
        return path

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
