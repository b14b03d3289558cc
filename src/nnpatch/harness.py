"""End-to-end pipeline and the averaged sweep protocol.

A sweep trains one subject, then runs every grid config for a fixed number
of repetitions. Each run gets its own directory and RNG streams derived
from (master_seed, config index, repetition index); a present run.json
marks a completed run, which is what makes sweeps resumable. Wall-clock
runtimes live in timing.json sidecars so everything else is byte-stable.
"""
from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    SPLIT_NAMES,
    NothingToRepairError,
    save_model,
)
from .localization import localize_to_count, write_localized_csv
from .metrics import diff, evaluate
from .network import Model
from .repair import (
    VARIANTS,
    FitnessConfig,
    SwarmConfig,
    repair,
    sample_positives,
    write_trace_csv,
)
from .training import SubjectSpec, materialize_splits, train_subject
from .data import select_repair_inputs


@dataclass(frozen=True)
class GridEntry:
    """One hyperparameter combination of the sweep grid."""

    variant: str
    alpha: float
    pi: bool
    target_lw: int
    n_pos: int
    n_particles: int

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.target_lw < 1 or self.n_pos < 1:
            raise ValueError("target_lw and n_pos must be >= 1")
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")


@dataclass(frozen=True)
class ExperimentSpec:
    """A subject plus the grid and seeds of a full sweep. The search knobs
    default to those of SwarmConfig and FitnessConfig."""

    subject: SubjectSpec
    target_class: int
    grid: tuple[GridEntry, ...]
    repetitions: int = 10
    master_seed: int = 0
    repair_layer: int = -1
    n_iterations: int = SwarmConfig.n_iterations
    inertia: float = SwarmConfig.inertia
    cognitive: float = SwarmConfig.cognitive
    social: float = SwarmConfig.social
    velocity_clamp: float = SwarmConfig.velocity_clamp
    beta: float = FitnessConfig.beta
    delta: float = FitnessConfig.delta
    orientation: str = FitnessConfig.loss_ratio_orientation

    def __post_init__(self) -> None:
        grid = tuple(e if isinstance(e, GridEntry) else from_dict(GridEntry, e) for e in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("grid must not be empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class RunResult:
    """One (config, repetition) outcome, exactly as run.json holds it. Wall-clock
    time and search telemetry go to timing.json instead, so that records stay
    byte-identical across reruns."""

    config_id: str
    config: dict
    rep: int
    pos_seed: int
    swarm_seed: int
    status: str  # ok | no_op | error
    error: str | None = None
    note: str | None = None
    n_neg: int = 0
    n_pos: int = 0
    n_localized: int = 0
    localization_warning: str | None = None
    identity_fallback: bool = False
    no_search_space: bool = False
    best: dict | None = None
    splits: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AggregateResult:
    """Per-config means and the per-config minimum-regression run."""

    configs: tuple[dict, ...]
    runs: tuple[RunResult, ...]


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def as_dict(obj) -> dict:
    """A dataclass as the dict of its fields, unconverted: the `default=` hook of
    every JSON record written here, so nested dataclasses are encoded in place
    and tuples become lists. Raises TypeError on anything else, as json expects."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def _converter(hint):
    """A function that turns a JSON or YAML value into a value of type `hint`."""
    if dataclasses.is_dataclass(hint):
        return lambda v: v if isinstance(v, hint) else from_dict(hint, v)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        item = _converter(args[0])
        return lambda v: tuple(map(item, v))
    if type(None) in args:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        inner = _converter(inner)
        return lambda v: None if v is None else inner(v)
    return hint  # int, float, str, bool, dict


@functools.cache
def _converters(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {name: _converter(hints[name]) for name in _field_names(cls)}


def from_dict(cls, d):
    """Build dataclass `cls`, nested dataclasses included, from a JSON or YAML
    mapping. Each value is converted by its field's type hint; an omitted key
    takes the field's default; a key that names no field raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a mapping, got {type(d).__name__}")
    convert = _converters(cls)
    unknown = d.keys() - convert.keys()
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {', '.join(sorted(map(repr, unknown)))}")
    return cls(**{k: convert[k](v) for k, v in d.items()})


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, default=as_dict, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _read_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def derive_run_seeds(master_seed: int, config_idx: int, rep_idx: int) -> tuple[int, int]:
    """(pos_seed, swarm_seed) from non-overlapping spawned streams."""
    root = np.random.SeedSequence(master_seed, spawn_key=(config_idx, rep_idx))
    pos_ss, swarm_ss = root.spawn(2)
    return (
        int(pos_ss.generate_state(1, np.uint64)[0]),
        int(swarm_ss.generate_state(1, np.uint64)[0]),
    )


def _config_hash(entry: GridEntry) -> str:
    blob = json.dumps(entry, default=as_dict, sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


def _split_records(before: dict, after: dict) -> dict:
    out = {}
    for name in SPLIT_NAMES:
        d = diff(before[name], after[name])
        out[name] = {
            "n": len(before[name]),
            "before_accuracy": before[name].overall_accuracy,
            "after_accuracy": after[name].overall_accuracy,
            "broken": len(d.broken),
            "repaired": len(d.repaired),
            "broken_ids": sorted(d.broken),
            "repaired_ids": sorted(d.repaired),
        }
    return out


def run_repair_pipeline(
    model: Model,
    splits,
    entry: GridEntry,
    exp: ExperimentSpec,
    config_idx: int,
    rep_idx: int,
    out_dir: Path | None = None,
) -> RunResult:
    """Select inputs, localize, repair, evaluate all four splits, persist.

    A subject with no failures on the target class yields a recorded no-op
    run rather than an error.
    """
    t0 = time.perf_counter()
    config_id = f"cfg{config_idx:03d}"
    pos_seed, swarm_seed = derive_run_seeds(exp.master_seed, config_idx, rep_idx)
    layer = exp.repair_layer % model.n_layers
    before = {name: evaluate(model, ds) for name, ds in zip(SPLIT_NAMES, splits)}

    result = RunResult(
        config_id=config_id,
        config=as_dict(entry),
        rep=rep_idx,
        pos_seed=pos_seed,
        swarm_seed=swarm_seed,
        status="ok",
    )

    try:
        inputs = select_repair_inputs(model, splits[0], splits[2], exp.target_class)
    except NothingToRepairError as exc:
        result.status = "no_op"
        result.note = str(exc)
        result.identity_fallback = True
        result.splits = _split_records(before, before)
        if out_dir is not None:
            _persist_run(result, None, None, out_dir, {"runtime_seconds": time.perf_counter() - t0})
        return result

    localized = localize_to_count(
        model, inputs.negative_set, inputs.positive_pool, layer, entry.target_lw
    )
    i_pos = sample_positives(inputs.positive_pool, entry.n_pos, pos_seed)
    fcfg = FitnessConfig(
        variant=entry.variant,
        alpha=entry.alpha,
        beta=exp.beta,
        delta=exp.delta,
        perfect_intact=entry.pi,
        loss_ratio_orientation=exp.orientation,
    )
    scfg = SwarmConfig(
        n_particles=entry.n_particles,
        n_iterations=exp.n_iterations,
        inertia=exp.inertia,
        cognitive=exp.cognitive,
        social=exp.social,
        velocity_clamp=exp.velocity_clamp,
        seed=swarm_seed,
    )
    t_repair = time.perf_counter()
    rr = repair(model, localized, inputs.negative_set, i_pos, fcfg, scfg)
    telemetry = {
        "repair_s": time.perf_counter() - t_repair,
        "candidates_scored": rr.candidates_scored,
        "band_fallback_columns": rr.band_fallback_columns,
        "units_recomputed": rr.units_recomputed,
        "units_total": rr.units_total,
    }
    after = {name: evaluate(rr.model, ds) for name, ds in zip(SPLIT_NAMES, splits)}

    result.n_neg = len(inputs.negative_set)
    result.n_pos = len(i_pos)
    result.n_localized = len(localized)
    result.localization_warning = localized.warning
    result.identity_fallback = rr.identity_fallback
    result.no_search_space = rr.no_search_space
    result.best = as_dict(rr.best)
    result.splits = _split_records(before, after)
    if out_dir is not None:
        timing = {"runtime_seconds": time.perf_counter() - t0, **telemetry}
        _persist_run(result, rr, localized, out_dir, timing)
    return result


def _persist_run(result: RunResult, rr, localized, out_dir: Path, timing: dict) -> None:
    """The run's files, with run.json, the completion marker, written last."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if rr is not None:
        entry = from_dict(GridEntry, result.config)
        save_model(
            rr.model,
            out_dir / "model.json",
            provenance={"seed": result.swarm_seed, "config_hash": _config_hash(entry)},
        )
        write_trace_csv(rr.trace, out_dir / "trace.csv")
    if localized is not None:
        write_localized_csv(localized, out_dir / "localized.csv")
    _write_json(timing, out_dir / "timing.json")
    _write_json(result, out_dir / "run.json")


def _load_run(run_dir: Path) -> RunResult | None:
    """The persisted record of a run, or None when it is missing or unreadable
    (a truncated or malformed run.json or timing.json): such a run is not done."""
    if not (run_dir / "run.json").exists():
        return None
    try:
        result = from_dict(RunResult, _read_json(run_dir / "run.json"))
        timing = run_dir / "timing.json"
        if timing.exists():
            float(_read_json(timing).get("runtime_seconds", 0.0))  # it must read back
    except (ValueError, TypeError, AttributeError):
        return None
    return result


def aggregate_runs(exp: ExperimentSpec, runs) -> AggregateResult:
    """Per-config means over non-error runs, plus the run with the fewest
    test-split breaks per config (ties go to the lower repetition index)."""
    runs = tuple(runs)
    configs = []
    for ci, entry in enumerate(exp.grid):
        config_id = f"cfg{ci:03d}"
        config_runs = sorted(
            (r for r in runs if r.config_id == config_id), key=lambda r: r.rep
        )
        usable = [r for r in config_runs if r.status != "error"]
        means: dict = {}
        if usable:
            for name in SPLIT_NAMES:
                means[name] = {
                    key: float(np.mean([r.splits[name][key] for r in usable]))
                    for key in ("broken", "repaired", "before_accuracy", "after_accuracy")
                }
        if usable:
            min_run = min(usable, key=lambda r: (r.splits["test"]["broken"], r.rep))
            min_rep = min_run.rep
            min_broken = min_run.splits["test"]["broken"]
        else:
            min_rep = None
            min_broken = None
        configs.append(
            {
                "config_id": config_id,
                "config": as_dict(entry),
                "n_runs": len(config_runs),
                "n_usable": len(usable),
                "statuses": [r.status for r in config_runs],
                "means": means,
                "min_regression_rep": min_rep,
                "min_regression_test_broken": min_broken,
            }
        )
    return AggregateResult(tuple(configs), runs)


def run_sweep(exp: ExperimentSpec, out_dir, n_workers: int = 1) -> AggregateResult:
    """Train the subject once, run grid x repetitions, aggregate.

    Completed runs (a readable run.json) are reused; a run whose record is
    missing or unreadable is run again. A directory whose readable sweep.json
    holds a spec that differs from `exp` in anything but `repetitions` is
    refused with ValueError before anything is written: its runs were made by
    another spec. `repetitions` only decides how many runs exist, since each
    run's seeds come from (master_seed, config, rep). Failures are isolated:
    they become status="error" records and the sweep continues. Results are
    identical at any worker count because every run owns its directory and
    its RNG streams.
    """
    out = Path(out_dir)
    try:
        previous = from_dict(ExperimentSpec, _read_json(out / "sweep.json"))
    except (OSError, ValueError, TypeError, AttributeError):
        previous = None  # no sweep here yet, or an unreadable spec, rewritten below
    if previous is not None and dataclasses.replace(previous, repetitions=exp.repetitions) != exp:
        raise ValueError(
            f"{out} holds a sweep of another spec; only repetitions may change on a resume"
        )
    out.mkdir(parents=True, exist_ok=True)
    _write_json(exp, out / "sweep.json")

    _, splits = materialize_splits(exp.subject)
    subject_dir = out / "subject"
    subject_dir.mkdir(exist_ok=True)
    model = train_subject(exp.subject, splits)
    save_model(model, subject_dir / "model.json")
    _write_json(
        {
            "split_sizes": {name: len(ds) for name, ds in zip(SPLIT_NAMES, splits)},
            "split_accuracies": {
                name: evaluate(model, ds).overall_accuracy
                for name, ds in zip(SPLIT_NAMES, splits)
            },
            "target_class": exp.target_class,
        },
        subject_dir / "subject.json",
    )

    def job(ci: int, ri: int) -> RunResult:
        run_dir = out / "runs" / f"cfg{ci:03d}" / f"rep{ri:02d}"
        done = _load_run(run_dir)
        if done is not None:
            return done
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            run_repair_pipeline(model, splits, exp.grid[ci], exp, ci, ri, out_dir=run_dir)
        except Exception as exc:  # isolate-and-continue
            pos_seed, swarm_seed = derive_run_seeds(exp.master_seed, ci, ri)
            failed = RunResult(
                config_id=f"cfg{ci:03d}",
                config=as_dict(exp.grid[ci]),
                rep=ri,
                pos_seed=pos_seed,
                swarm_seed=swarm_seed,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            _write_json({"runtime_seconds": 0.0}, run_dir / "timing.json")
            _write_json(failed, run_dir / "run.json")
        # reload from disk so resumed and fresh sweeps aggregate identical bytes
        return _load_run(run_dir)

    jobs = [(ci, ri) for ci in range(len(exp.grid)) for ri in range(exp.repetitions)]
    if n_workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(job, ci, ri) for ci, ri in jobs]
            results = [f.result() for f in futures]
    else:
        results = [job(ci, ri) for ci, ri in jobs]

    agg = aggregate_runs(exp, results)
    _write_json(agg, out / "aggregate.json")
    return agg


def load_sweep_dir(out_dir) -> tuple[ExperimentSpec, AggregateResult]:
    """Rebuild the aggregate from persisted run records."""
    out = Path(out_dir)
    exp = from_dict(ExperimentSpec, _read_json(out / "sweep.json"))
    runs = []
    for ci in range(len(exp.grid)):
        for ri in range(exp.repetitions):
            run = _load_run(out / "runs" / f"cfg{ci:03d}" / f"rep{ri:02d}")
            if run is not None:
                runs.append(run)
    return exp, aggregate_runs(exp, runs)


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header] + rows) + "\n"


def emit_report(agg: AggregateResult, out_dir) -> list[Path]:
    """Report files: JSON summary, per-config means, min-regression
    accuracies, and a long-format per-run table. Headers are emitted even
    when there is nothing to report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "report.json"
    _write_json(agg, path)
    written.append(path)

    rows = []
    for r in agg.runs:
        if r.status == "error":
            continue
        for name in SPLIT_NAMES:
            s = r.splits[name]
            rows.append(
                ",".join(
                    [
                        r.config_id,
                        str(r.rep),
                        r.status,
                        name,
                        str(s["n"]),
                        repr(s["before_accuracy"]),
                        repr(s["after_accuracy"]),
                        str(s["broken"]),
                        str(s["repaired"]),
                    ]
                )
            )
    path = out / "runs_long.csv"
    header = "config_id,rep,status,split,n,before_accuracy,after_accuracy,broken,repaired"
    path.write_text(_csv_lines(header, rows), encoding="ascii")
    written.append(path)

    rows = []
    for cfg in agg.configs:
        c = cfg["config"]
        for name in SPLIT_NAMES:
            if name not in cfg["means"]:
                continue
            m = cfg["means"][name]
            rows.append(
                ",".join(
                    [
                        cfg["config_id"],
                        c["variant"],
                        repr(c["alpha"]),
                        str(c["pi"]).lower(),
                        str(c["target_lw"]),
                        str(c["n_pos"]),
                        str(c["n_particles"]),
                        str(cfg["n_usable"]),
                        name,
                        repr(m["broken"]),
                        repr(m["repaired"]),
                        repr(m["before_accuracy"]),
                        repr(m["after_accuracy"]),
                    ]
                )
            )
    path = out / "config_summary.csv"
    header = (
        "config_id,variant,alpha,pi,target_lw,n_pos,n_particles,n_usable,split,"
        "mean_broken,mean_repaired,mean_before_accuracy,mean_after_accuracy"
    )
    path.write_text(_csv_lines(header, rows), encoding="ascii")
    written.append(path)

    by_key = {(r.config_id, r.rep): r for r in agg.runs}
    rows = []
    for cfg in agg.configs:
        rep = cfg["min_regression_rep"]
        if rep is None:
            continue
        r = by_key[(cfg["config_id"], rep)]
        for name in SPLIT_NAMES:
            s = r.splits[name]
            rows.append(
                ",".join(
                    [
                        cfg["config_id"],
                        str(rep),
                        name,
                        repr(s["before_accuracy"]),
                        repr(s["after_accuracy"]),
                        str(s["broken"]),
                        str(s["repaired"]),
                    ]
                )
            )
    path = out / "min_regression.csv"
    header = "config_id,rep,split,before_accuracy,after_accuracy,broken,repaired"
    path.write_text(_csv_lines(header, rows), encoding="ascii")
    written.append(path)

    return written
