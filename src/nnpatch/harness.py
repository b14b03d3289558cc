"""End-to-end pipeline and the averaged sweep protocol.

A sweep trains one subject, then runs every grid config for a fixed number
of repetitions; a resume trains it only if some run is not done, and reruns
every run if the retrained subject differs from the saved one. Each run
gets its own directory and RNG streams derived from (master_seed, config
index, repetition index). A run.json that reads back, names its own
directory and grid entry, and holds every split (and, if ok, has its model,
trace and localized files beside it) marks a completed run of a directory
whose sweep.json reads back, which is what makes sweeps resumable; any other
record is rerun. Wall-clock runtimes live in timing.json sidecars so
everything else is byte-stable. Every file is written through
`nnpatch.formats`; a sweep hands its runs' files to one writer process.
"""
from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .data import SPLIT_NAMES, NothingToRepairError, load_model, save_model, select_repair_inputs
from .formats import RunWriter, as_dict, from_dict, read_json, remove, write_csv, write_json
from .localization import compute_impacts, localize_to_count, write_localized_csv
from .metrics import diff, evaluate
from .network import Model
from .repair import FitnessConfig, SwarmConfig, repair, sample_positives, write_trace_csv
from .training import SubjectSpec, materialize_splits, train_subject

try:  # a thread's own page faults, which runs on other threads do not add to (Linux)
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # no count per thread: timing.json leaves repair_minflt out
    RUSAGE_THREAD = None

# the outcome of one split, as runs_long.csv and min_regression.csv list it,
# and the order of the per-config means in report.json and config_summary.csv
_OUTCOME = ("before_accuracy", "after_accuracy", "broken", "repaired")
_MEANS = ("broken", "repaired", "before_accuracy", "after_accuracy")
_RUN_FILES = ("model.json", "trace.csv", "localized.csv")  # an ok run's, beside run.json


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
        if self.target_lw < 1 or self.n_pos < 1:
            raise ValueError("target_lw and n_pos must be >= 1")


@dataclass(frozen=True)
class ExperimentSpec:
    """A subject plus the grid and seeds of a full sweep. The search knobs
    default to those of SwarmConfig and FitnessConfig.

    Every value is checked when the spec is built: each grid entry's search
    configs are derived once, so their checks run before any file is written,
    and `repair_layer` must fit the subject's layers; `target_class` is checked on the data.
    """

    subject: SubjectSpec
    target_class: int
    grid: tuple[GridEntry, ...]
    repetitions: int = 10
    master_seed: int = 0
    repair_layer: int = -1
    n_iterations: int = SwarmConfig.n_iterations
    beta: float = FitnessConfig.beta
    delta: float = FitnessConfig.delta

    def __post_init__(self) -> None:
        grid = tuple(e if isinstance(e, GridEntry) else from_dict(GridEntry, e) for e in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("grid must not be empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        n_layers = len(self.subject.layer_sizes) - 1
        if not -n_layers <= self.repair_layer < n_layers:
            raise ValueError(f"layer must lie in [{-n_layers}, {n_layers}) for a "
                             f"{n_layers}-layer subject, got {self.repair_layer}")
        for ci in range(len(grid)):
            self.search(ci, swarm_seed=0)

    @property
    def layer(self) -> int:
        """The repair layer as an index in [0, number of layers)."""
        return self.repair_layer % (len(self.subject.layer_sizes) - 1)

    def search(self, ci: int, swarm_seed: int) -> tuple[FitnessConfig, SwarmConfig]:
        """The objective and swarm of grid entry `ci`, the swarm seeded with `swarm_seed`."""
        entry = self.grid[ci]
        fitness = FitnessConfig(variant=entry.variant, alpha=entry.alpha, beta=self.beta,
                                delta=self.delta, perfect_intact=entry.pi)
        swarm = SwarmConfig(n_particles=entry.n_particles, n_iterations=self.n_iterations,
                            seed=swarm_seed)
        return fitness, swarm


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


def derive_run_seeds(master_seed: int, config_idx: int, rep_idx: int) -> tuple[int, int]:
    """(pos_seed, swarm_seed) from non-overlapping spawned streams."""
    root = np.random.SeedSequence(master_seed, spawn_key=(config_idx, rep_idx))
    pos_ss, swarm_ss = root.spawn(2)
    return (
        int(pos_ss.generate_state(1, np.uint64)[0]),
        int(swarm_ss.generate_state(1, np.uint64)[0]),
    )


def _new_record(exp: ExperimentSpec, ci: int, ri: int, status: str, **fields) -> RunResult:
    """A record of run (ci, ri) under its identity: config id, grid entry, rep and seeds."""
    seeds = derive_run_seeds(exp.master_seed, ci, ri)
    return RunResult(f"cfg{ci:03d}", as_dict(exp.grid[ci]), ri, *seeds, status, **fields)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


def _run_dir(out: Path, ci: int, ri: int) -> Path:
    return out.joinpath("runs", f"cfg{ci:03d}", f"rep{ri:02d}")  # one join: a resume calls it per run


def _split_records(before, after) -> dict:
    out = {}
    for name, b, a in zip(SPLIT_NAMES, before, after):
        d = diff(b, a)
        out[name] = {
            "n": len(b),
            "before_accuracy": b.overall_accuracy,
            "after_accuracy": a.overall_accuracy,
            "broken": len(d.broken),
            "repaired": len(d.repaired),
            "broken_ids": sorted(d.broken),
            "repaired_ids": sorted(d.repaired),
        }
    return out


def run_repair_pipeline(model: Model, before, exp: ExperimentSpec, config_idx: int,
                        rep_idx: int, out_dir: Path) -> RunResult:
    """Run (config_idx, rep_idx) of `exp` on `model`, whose reports of the four
    splits are `before`: select inputs, localize, repair, evaluate the repair on
    the reports' data, persist to `out_dir`.

    Every outcome is persisted and returned as a record, nothing is raised: a
    subject with no failures on the target class yields a no_op record, and
    any other exception an error record that names it.
    """
    t0 = time.perf_counter()
    entry = exp.grid[config_idx]
    try:
        pool, i_neg = select_repair_inputs(before[0], before[2], exp.target_class)
        t_localize = time.perf_counter()
        localized = localize_to_count(compute_impacts(model, i_neg, pool, exp.layer), entry.target_lw)
        localize_s = time.perf_counter() - t_localize
        pos_seed, swarm_seed = derive_run_seeds(exp.master_seed, config_idx, rep_idx)
        i_pos = sample_positives(pool, entry.n_pos, pos_seed)
        fcfg, scfg = exp.search(config_idx, swarm_seed)
        minflt = 0 if RUSAGE_THREAD is None else getrusage(RUSAGE_THREAD).ru_minflt
        t_repair = time.perf_counter()
        rr = repair(model, localized, i_neg, i_pos, fcfg, scfg)
        t_after = time.perf_counter()
        faults = {} if RUSAGE_THREAD is None else {
            "repair_minflt": getrusage(RUSAGE_THREAD).ru_minflt - minflt}
        after = [evaluate(rr.model, r.data) for r in before]
        evaluate_s = time.perf_counter() - t_after
        result = _new_record(
            exp, config_idx, rep_idx, "ok", n_neg=len(i_neg), n_pos=len(i_pos),
            n_localized=len(localized), localization_warning=localized.warning,
            identity_fallback=rr.identity_fallback, no_search_space=len(localized) == 0,
            best=as_dict(rr.best), splits=_split_records(before, after),
        )
        timing = {"runtime_seconds": time.perf_counter() - t0, "localize_s": localize_s,
                  "repair_s": t_after - t_repair, "evaluate_s": evaluate_s, **faults, **rr.telemetry,
                  "n_g": localized.n_g, "localization_curve": localized.curve}
        _persist_run(result, rr, localized, out_dir, timing)
        return result
    except NothingToRepairError as exc:
        result = _new_record(exp, config_idx, rep_idx, "no_op", note=str(exc),
                             identity_fallback=True, splits=_split_records(before, before))
    except Exception as exc:  # isolate-and-continue
        result = _new_record(exp, config_idx, rep_idx, "error", error=f"{type(exc).__name__}: {exc}")
    _persist_run(result, None, None, out_dir, {"runtime_seconds": time.perf_counter() - t0})
    return result


def _persist_run(result: RunResult, rr, localized, out_dir: Path, timing: dict) -> None:
    """The run's files, with run.json, the completion marker, written last.
    Files of an earlier outcome that this one does not write are removed;
    timing.json gains `persist_s`, the time of the writes before it (in a
    sweep, of their hand-off: see `RunWriter`)."""
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    if rr is not None:
        save_model(
            rr.model,
            out_dir / "model.json",
            provenance={"seed": result.swarm_seed, "config_hash": _config_hash(result.config)},
        )
        write_trace_csv(rr.trace, out_dir / "trace.csv")
    if localized is not None:
        write_localized_csv(localized, out_dir / "localized.csv")
    for name, written in zip(_RUN_FILES, (rr, rr, localized)):
        if written is None:
            remove(out_dir / name)
    write_json(out_dir / "timing.json", {**timing, "persist_s": time.perf_counter() - t0})
    write_json(out_dir / "run.json", result)


def _load_run(out: Path, exp: ExperimentSpec, ci: int, ri: int) -> RunResult | None:
    """The persisted record of run (ci, ri), or None when the run is not done:
    its run.json or timing.json is missing, truncated or malformed, the
    record is stale (it names another directory or grid entry, or a run that
    did not fail lacks a split's outcome or holds one that is no finite
    number), or it is ok and lacks its model, trace or localized file (each is
    written whole, so one that exists is)."""
    run_dir = _run_dir(out, ci, ri)
    try:
        r = from_dict(RunResult, read_json(run_dir / "run.json"))
        float(read_json(run_dir / "timing.json").get("runtime_seconds", 0.0))  # it must read back
        complete = r.status == "error" or all(
            math.isfinite(r.splits[n][k]) for n in SPLIT_NAMES for k in _OUTCOME)
        files = r.status != "ok" or set(_RUN_FILES).issubset(os.listdir(run_dir))  # one syscall
    except (OSError, ValueError, TypeError, AttributeError, KeyError, OverflowError):
        return None
    own = (r.config_id, r.rep, r.config) == (f"cfg{ci:03d}", ri, as_dict(exp.grid[ci]))
    return r if own and complete and files else None


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
        means = {
            name: {key: float(np.mean([r.splits[name][key] for r in usable])) for key in _MEANS}
            for name in SPLIT_NAMES
        } if usable else {}
        min_run = min(usable, key=lambda r: (r.splits["test"]["broken"], r.rep), default=None)
        configs.append(
            {
                "config_id": config_id,
                "config": as_dict(entry),
                "n_runs": len(config_runs),
                "n_usable": len(usable),
                "statuses": [r.status for r in config_runs],
                "means": means,
                "min_regression_rep": None if min_run is None else min_run.rep,
                "min_regression_test_broken": None if min_run is None else min_run.splits["test"]["broken"],
            }
        )
    return AggregateResult(tuple(configs), runs)


def build_subject(exp: ExperimentSpec, model_path=None):
    """(model, before): the subject of `exp`, trained or read from
    `model_path`, and `before`, its reports of the four splits, each holding
    its split. Data without class `target_class`, and a model whose layer
    sizes are not the subject's or whose head is narrower than the data's
    classes, are refused before anything is evaluated."""
    _, splits = materialize_splits(exp.subject)
    n_classes = splits[0].n_classes
    if not 0 <= exp.target_class < n_classes:
        raise ValueError(f"target_class must lie in [0, {n_classes}), got {exp.target_class}")
    model = train_subject(exp.subject, splits) if model_path is None else load_model(model_path)
    sizes = (model.input_size, *(w.shape[1] for w in model.weights))
    if sizes != exp.subject.layer_sizes or sizes[-1] < n_classes:
        raise ValueError(f"model has layer sizes {list(sizes)}; the subject needs "
                         f"{list(exp.subject.layer_sizes)}, with at least {n_classes} outputs "
                         f"for the data's {n_classes} classes")
    return model, tuple(evaluate(model, ds) for ds in splits)


def train_and_save_subject(exp: ExperimentSpec, out_dir):
    """`build_subject(exp)`, with the subject's model.json and subject.json
    (split sizes and accuracies, and the target class) written to `out_dir`."""
    model, before = build_subject(exp)
    out = Path(out_dir)
    save_model(model, out / "model.json")
    write_json(out / "subject.json", {
        "split_sizes": dict(zip(SPLIT_NAMES, map(len, before))),
        "split_accuracies": {name: r.overall_accuracy for name, r in zip(SPLIT_NAMES, before)},
        "target_class": exp.target_class,
    })
    return model, before


def run_sweep(exp: ExperimentSpec, out_dir, n_workers: int = 1) -> AggregateResult:
    """Run grid x repetitions and aggregate them.

    Every run record is read once, first. Completed runs (see `_load_run`)
    are reused; a run whose record is missing, unreadable or stale is run
    again. Only when some run is to be run, and before sweep.json is written,
    the subject is trained and saved to subject/: data that does not fit the
    spec is refused with ValueError before any file is written, and a resume
    with nothing left to run reads no data. When the retrained subject's
    model.json differs from the one on disk (or there was none), every run is
    rerun, since the completed ones repaired another subject. A directory
    without a readable sweep.json has its records deleted first, since nothing
    there says which spec made its runs. A directory whose readable sweep.json
    holds a spec that differs from `exp` in anything but `repetitions` is
    refused too: its runs were made by another spec. `repetitions` only
    decides how many runs exist, since each run's seeds come from
    (master_seed, config, rep). Failures are isolated: they become
    status="error" records and the sweep continues. Results are identical at
    any worker count because every run owns its directory and its RNG streams.
    The runs' files go to one `RunWriter`, drained before any record is read back.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    out = Path(out_dir)
    try:
        previous = from_dict(ExperimentSpec, read_json(out / "sweep.json"))
    except (OSError, ValueError, TypeError, AttributeError):
        previous = None  # no sweep here yet, or an unreadable spec, rewritten below
        for record in out.glob("runs/*/*/run.json"):  # so none is taken as one of `exp`'s
            record.unlink()
    if previous is not None and dataclasses.replace(previous, repetitions=exp.repetitions) != exp:
        raise ValueError(
            f"{out} holds a sweep of another spec; only repetitions may change on a resume"
        )
    records = {(ci, ri): _load_run(out, exp, ci, ri)
               for ci in range(len(exp.grid)) for ri in range(exp.repetitions)}
    todo = [job for job, record in records.items() if record is None]
    if todo:
        subject = out / "subject" / "model.json"
        saved = subject.read_bytes() if subject.is_file() else None
        model, before = train_and_save_subject(exp, out / "subject")
        if subject.read_bytes() != saved:
            todo = list(records)
    write_json(out / "sweep.json", exp)
    # no longer written; a leftover one would contradict report/report.json
    (out / "aggregate.json").unlink(missing_ok=True)
    if not todo:
        return aggregate_runs(exp, records.values())

    writer = RunWriter()

    def run(job: tuple[int, int]) -> None:
        writer.hand_off(run_repair_pipeline, model, before, exp, *job, _run_dir(out, *job))

    try:
        if n_workers > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=n_workers) as pool:
                list(pool.map(run, todo))
        else:
            list(map(run, todo))
    finally:
        writer.close()
    # reload from disk so resumed and fresh sweeps aggregate identical bytes
    records.update((job, _load_run(out, exp, *job)) for job in todo)
    return aggregate_runs(exp, records.values())


def load_sweep_dir(out_dir) -> tuple[ExperimentSpec, AggregateResult]:
    """Rebuild the aggregate from persisted run records."""
    out = Path(out_dir)
    exp = from_dict(ExperimentSpec, read_json(out / "sweep.json"))
    runs = (_load_run(out, exp, ci, ri) for ci in range(len(exp.grid)) for ri in range(exp.repetitions))
    return exp, aggregate_runs(exp, [run for run in runs if run is not None])


def emit_report(agg: AggregateResult, out_dir) -> list[Path]:
    """Report files: JSON summary, a long-format per-run table, per-config
    means, and the min-regression run's outcome. Error runs and configs with
    no usable run have no rows; the headers are written regardless."""
    out = Path(out_dir)
    grid_keys = tuple(f.name for f in dataclasses.fields(GridEntry))
    grid, means = itemgetter(*grid_keys), itemgetter(*_MEANS)
    sized, outcome = itemgetter("n", *_OUTCOME), itemgetter(*_OUTCOME)
    runs = {(r.config_id, r.rep): r for r in agg.runs}
    tables = {
        "runs_long.csv": [
            ("config_id", "rep", "status", "split", "n", *_OUTCOME),
            *((r.config_id, r.rep, r.status, name, *sized(r.splits[name]))
              for r in agg.runs if r.status != "error" for name in SPLIT_NAMES),
        ],
        "config_summary.csv": [
            ("config_id", *grid_keys, "n_usable", "split", *(f"mean_{k}" for k in _MEANS)),
            *((c["config_id"], *grid(c["config"]), c["n_usable"], name, *means(c["means"][name]))
              for c in agg.configs for name in SPLIT_NAMES if name in c["means"]),
        ],
        "min_regression.csv": [
            ("config_id", "rep", "split", *_OUTCOME),
            *((c["config_id"], rep, name, *outcome(runs[c["config_id"], rep].splits[name]))
              for c in agg.configs if (rep := c["min_regression_rep"]) is not None
              for name in SPLIT_NAMES),
        ],
    }
    write_json(out / "report.json", agg)
    for name, rows in tables.items():
        write_csv(out / name, rows)
    return [out / "report.json", *(out / name for name in tables)]


