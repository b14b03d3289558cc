"""Span tracing from outside the program.

Each traced function is replaced, in the module namespace where its caller
looks the name up, by a wrapper that records one span: (repeat, name,
start, end, parent index, run id, extra). Spans stay in memory and are
written out once at the end. Nothing inside src/ is changed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

REPEAT, NAME, START, END, PARENT, RUN, EXTRA = range(7)

RUN_SPAN = "harness.run_repair_pipeline"


def _run_id(signature):
    def run_of(args, kwargs) -> str:
        bound = signature.bind(*args, **kwargs)
        return f"cfg{bound.arguments['config_idx']:03d}/rep{bound.arguments['rep_idx']:02d}"

    return run_of


def _forward_extra(args, kwargs, out):
    # (rows, computed flop): 2 * rows * sum(in * out) over every layer run
    model = args[0] if args else kwargs["model"]
    rows = len(out)
    return rows, 2 * rows * sum(l.input_size * l.output_size for l in model.layers)


def _fitness_extra(args, kwargs, out):
    # 1 when the perfect-intact gate zeroed this candidate
    return int(out.gated_fitness != out.raw_fitness)


def _repair_extra(args, kwargs, out):
    # (iterations after gbest n_patched last rose, iterations)
    rows = out.trace
    if not rows:
        return 0, 0
    last_rise = 0
    for prev, row in zip(rows, rows[1:]):
        if row.n_patched > prev.n_patched:
            last_rise = row.iteration
    return rows[-1].iteration - last_rise, rows[-1].iteration


def _targets():
    """(module, attribute, span name, extra) for every traced call site.

    Modules are reached through importlib: `nnpatch.repair` as an attribute
    is the re-exported function, not the module.
    """
    harness = importlib.import_module("nnpatch.harness")
    localization = importlib.import_module("nnpatch.localization")
    repair = importlib.import_module("nnpatch.repair")
    network = importlib.import_module("nnpatch.network")
    data = importlib.import_module("nnpatch.data")
    return [
        (harness, "run_sweep", "harness.run_sweep", None),
        (harness, "emit_report", "harness.report", None),
        (harness, "aggregate_runs", "harness.aggregate", None),
        (harness, "_persist_run", "harness.persist", None),
        (harness, "_load_run", "harness.load_run", None),
        (harness, "run_repair_pipeline", RUN_SPAN, None),
        (harness, "materialize_splits", "data.materialize_splits", None),
        (harness, "train_subject", "training.train_subject", None),
        (harness, "select_repair_inputs", "data.select_repair_inputs", None),
        (harness, "localize_to_count", "localization.localize_to_count", None),
        (harness, "repair", "repair.repair", _repair_extra),
        (harness, "evaluate", "metrics.evaluate", None),
        (harness, "diff", "metrics.diff", None),
        (localization, "compute_impacts", "localization.compute_impacts", None),
        (localization, "localize", "localization.localize", None),
        (repair, "fitness", "repair.fitness", _fitness_extra),
        (repair, "write_weights", "network.write_weights", None),
        (repair, "forward", "network.forward", _forward_extra),
        (network, "forward", "network.forward", _forward_extra),
        (data, "forward", "network.forward", _forward_extra),
    ]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.repeat = 0
        self.phase = "sweep"
        self._run: str | None = None
        self._stack: list[int] = []
        self._restore: list = []

    def install(self) -> None:
        for module, attr, name, extra in _targets():
            self._wrap(module, attr, name, extra)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def _wrap(self, module, attr, name, extra) -> None:
        orig = getattr(module, attr)
        run_of = _run_id(inspect.signature(orig)) if name == RUN_SPAN else None
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            outer_run = self._run
            if run_of is not None:
                self._run = run_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                run = self._run or self.phase
                self._run = outer_run
                spans[idx] = (self.repeat, name, start, end, parent, run, None)
            if extra is not None:
                spans[idx] = spans[idx][:EXTRA] + (extra(args, kwargs, out),)
            return out

        functools.update_wrapper(wrapper, orig)
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,repeat,name,start,end,parent,run,extra\n")
            for k, s in enumerate(self.spans):
                extra = "" if s[EXTRA] is None else str(s[EXTRA]).replace(",", ";")
                fh.write(f"{k},{s[REPEAT]},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[RUN]},{extra}\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children
    (calls are serial, so children never overlap)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def repeat_metrics(spans, repeat: int) -> dict:
    """Per-layer figures of one traced repeat (a fresh sweep plus its report,
    then resumes). Times in seconds are totals over the fresh sweep, except
    resume_load_s, which is per resume; counts are means per run; `_us`
    figures are means per call within runs."""
    selfs = self_times(spans)
    picked = [(s, selfs[k]) for k, s in enumerate(spans) if s[REPEAT] == repeat]
    fresh = [(s, st) for s, st in picked if s[RUN] != "resume"]
    in_runs = [(s, st) for s, st in fresh if s[RUN].startswith("cfg")]
    n_runs = sum(1 for s, _ in fresh if s[NAME] == RUN_SPAN)

    def total(name, among=fresh, self_only=False):
        return sum(st if self_only else s[END] - s[START] for s, st in among if s[NAME] == name)

    def calls(name, among=in_runs):
        return [s for s, _ in among if s[NAME] == name]

    def mean_us(name):
        durs = [s[END] - s[START] for s in calls(name)]
        return 1e6 * statistics.fmean(durs) if durs else 0.0

    forwards = calls("network.forward")
    forward_s = sum(s[END] - s[START] for s in forwards)
    mflop = sum(s[EXTRA][1] for s in forwards) / 1e6
    fitness = calls("repair.fitness")
    repairs = calls("repair.repair")
    iters = sum(s[EXTRA][1] for s in repairs)
    resume = [(s, st) for s, st in picked if s[RUN] == "resume"]
    n_resumes = sum(1 for s, _ in resume if s[NAME] == "harness.run_sweep")
    return {
        "data.materialize_splits_s": total("data.materialize_splits"),
        "training.train_subject_s": total("training.train_subject"),
        "data.select_repair_inputs_s": total("data.select_repair_inputs"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.diff_s": total("metrics.diff"),
        "harness.persist_s": total("harness.persist"),
        "harness.run_self_s": total(RUN_SPAN, self_only=True),
        "localization.compute_impacts_s": total("localization.compute_impacts"),
        "localization.localize_to_count_s": total("localization.localize_to_count"),
        "localization.localize_calls": len(calls("localization.localize")) / n_runs,
        "repair.repair_s": total("repair.repair"),
        "repair.fitness_evals": len(fitness) / n_runs,
        "repair.fitness_us": mean_us("repair.fitness"),
        "repair.self_s": total("repair.repair", self_only=True),
        "network.write_weights_us": mean_us("network.write_weights"),
        "network.forward_calls": len(forwards) / n_runs,
        "network.forward_rows": sum(s[EXTRA][0] for s in forwards) / n_runs,
        "network.forward_mflop": mflop / n_runs,
        "network.forward_us": mean_us("network.forward"),
        "network.forward_mflops_per_s": mflop / forward_s if forward_s else 0.0,
        "repair.gate_rejected_frac": sum(s[EXTRA] for s in fitness) / len(fitness) if fitness else 0.0,
        "repair.iters_after_last_fix_frac": sum(s[EXTRA][0] for s in repairs) / iters if iters else 0.0,
        "harness.aggregate_s": total("harness.aggregate"),
        "harness.report_s": total("harness.report"),
        "harness.resume_load_s": total("harness.load_run", among=resume) / n_resumes,
    }
