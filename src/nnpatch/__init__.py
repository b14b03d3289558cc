"""Regression-aware weight repair for small feedforward classifiers.

Pipeline: train or load a subject model, localize suspicious weights from
failed/passed sample impacts, then search patched weight values with a
particle swarm whose fitness rewards fixes and punishes regressions.
"""
from .data import (
    Dataset,
    DriftSpec,
    NothingToRepairError,
    RepairInputError,
    RepairInputs,
    SplitSpec,
    apply_drift,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    select_repair_inputs,
    split,
)
from .harness import (
    AggregateResult,
    ExperimentSpec,
    GridEntry,
    RunResult,
    aggregate_runs,
    derive_run_seeds,
    emit_report,
    load_sweep_dir,
    run_repair_pipeline,
    run_sweep,
)
from .localization import (
    ImpactTable,
    LocalizedSet,
    compute_impacts,
    localization_curve,
    localize,
    localize_to_count,
)
from .metrics import EvalReport, RepairDiff, diff, evaluate
from .network import (
    LayerSpec,
    Model,
    ShapeError,
    build_mlp,
    forward,
    loss,
    read_weights,
    write_weights,
)
from .repair import (
    FitnessBreakdown,
    FitnessConfig,
    RepairResult,
    SwarmConfig,
    init_swarm,
    repair,
    sample_positives,
)
from .synth import make_clusters
from .training import SubjectSpec, train_subject

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "Dataset",
    "DriftSpec",
    "EvalReport",
    "ExperimentSpec",
    "FitnessBreakdown",
    "FitnessConfig",
    "GridEntry",
    "ImpactTable",
    "LayerSpec",
    "LocalizedSet",
    "Model",
    "NothingToRepairError",
    "RepairDiff",
    "RepairInputError",
    "RepairInputs",
    "RepairResult",
    "RunResult",
    "ShapeError",
    "SplitSpec",
    "SubjectSpec",
    "SwarmConfig",
    "aggregate_runs",
    "apply_drift",
    "build_mlp",
    "compute_impacts",
    "derive_run_seeds",
    "diff",
    "emit_report",
    "evaluate",
    "forward",
    "init_swarm",
    "load_dataset",
    "load_model",
    "load_sweep_dir",
    "localization_curve",
    "localize",
    "localize_to_count",
    "loss",
    "make_clusters",
    "read_weights",
    "repair",
    "run_repair_pipeline",
    "run_sweep",
    "sample_positives",
    "save_dataset",
    "save_model",
    "select_repair_inputs",
    "split",
    "train_subject",
    "write_weights",
]
