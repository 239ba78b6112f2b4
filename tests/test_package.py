"""The package's import surface and the CLI's BLAS thread policy, each checked
in a fresh interpreter: what a first import loads and sets cannot be seen from
a process that has already loaded them."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import catcluster

SRC = Path(catcluster.__file__).resolve().parents[1]
POLICY = "OPENBLAS_THREAD_TIMEOUT"


def run_child(code: str, **env_overrides: str) -> str:
    """Run `code` in a new interpreter with this checkout's package and no
    inherited BLAS policy; return its stdout."""
    env = {key: value for key, value in os.environ.items() if key != POLICY}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.update(env_overrides)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=120)
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
