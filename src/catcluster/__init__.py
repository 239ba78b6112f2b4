"""Clustering toolkit for categorical data: k-modes, member-restricted
k-median solvers with an approximation guarantee, and the audits and
evaluation tools to certify both."""

from .dataset import (
    AttributeDomain,
    CategoricalDataset,
    DatasetError,
    Schema,
    dataset_stats,
    dedupe,
    load_csv,
    random_dataset,
)
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    accuracy_error,
    confusion,
    evaluate,
    format_rounded,
    objective_under_medoids,
    objective_under_modes,
)
from .kmodes import (
    KModesConfig,
    KModesResult,
    assign_points,
    run_kmodes,
)
from .medoids import (
    InstanceTooLargeError,
    LocalSearchConfig,
    MedoidSolution,
    audit_lemma1,
    audit_lemma2,
    audit_oracle,
    brute_force_kmodes_objective,
    cost_of_medoid_set,
    exhaustive_search,
    exhaustive_search_naive,
    local_search,
)
from .metric import AuditReport, check_metric_properties

__version__ = "0.1.0"

__all__ = [
    "AttributeDomain",
    "AuditReport",
    "CategoricalDataset",
    "ConfusionMatrix",
    "DatasetError",
    "EvalReport",
    "InstanceTooLargeError",
    "KModesConfig",
    "KModesResult",
    "LocalSearchConfig",
    "MedoidSolution",
    "Schema",
    "accuracy_error",
    "assign_points",
    "audit_lemma1",
    "audit_lemma2",
    "audit_oracle",
    "brute_force_kmodes_objective",
    "check_metric_properties",
    "confusion",
    "cost_of_medoid_set",
    "dataset_stats",
    "dedupe",
    "evaluate",
    "exhaustive_search",
    "exhaustive_search_naive",
    "format_rounded",
    "load_csv",
    "local_search",
    "objective_under_medoids",
    "objective_under_modes",
    "random_dataset",
    "run_kmodes",
    "__version__",
]
