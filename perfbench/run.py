#!/usr/bin/env python3
"""nnpatch benchmark: one workload, one process, closed loop, serial.

    python3 perfbench/run.py --workload exp_c --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/. The sweep of the workload (fixed repetitions, see
workloads.py) is repeated, each time into a fresh directory followed by
resumes of copies of that directory, until --seconds have passed (at least
two repeats). Every repeat is checked; the last line printed is one JSON
object with the metrics. --trace 0 times end-to-end metrics with no wrappers other
than a start/end clock around each run; --trace 1 alternates untraced and
traced repeats and reports per-layer metrics plus the tracing overhead.
Exit codes: 0 all checks passed, 1 a check failed, 2 no checkout found.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

# every end-to-end figure printed; the JSON line carries those in
# BENCHMARK.json (see README.md for why the others are printed only)
END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "run_s_p50": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "fix_frac": "ratio",
    "pos_intact_frac": "ratio",
    "test_after_acc": "ratio",
    "test_broken_per_run": "count",
    "test_repaired_per_run": "count",
    "run_error_frac": "ratio",
}
PRINTED_ONLY = ("fix_frac", "test_broken_per_run", "test_repaired_per_run", "run_error_frac")

PER_LAYER_UNITS = {
    "data.materialize_splits_s": "s",
    "training.train_subject_s": "s",
    "data.select_repair_inputs_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.diff_s": "s",
    "harness.persist_s": "s",
    "harness.persist_bytes": "bytes",
    "harness.run_self_s": "s",
    "localization.compute_impacts_s": "s",
    "localization.localize_to_count_s": "s",
    "localization.localize_calls": "count",
    "repair.repair_s": "s",
    "repair.fitness_evals": "count",
    "repair.fitness_us": "us",
    "repair.self_s": "s",
    "network.write_weights_us": "us",
    "network.forward_calls": "count",
    "network.forward_rows": "count",
    "network.forward_mflop": "MFLOP_computed",
    "network.forward_us": "us",
    "network.forward_mflops_per_s": "MFLOP/s_computed",
    "repair.gate_rejected_frac": "ratio",
    "repair.iters_after_last_fix_frac": "ratio",
    "repair.identity_fallback_frac": "ratio",
    "harness.aggregate_s": "s",
    "harness.report_s": "s",
    "harness.resume_load_s": "s",
    "trace.overhead_s": "s",
}

MIN_REPEATS = 2
RESUMES_PER_REPEAT = 3
IMPORT_SAMPLES = 5
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class RunClock:
    """Start and end of every run_repair_pipeline call, taken where
    run_sweep looks the name up. The only instrumentation in untraced
    repeats: two clock reads per run."""

    def __init__(self, harness) -> None:
        self.calls: list[tuple[float, float]] = []
        orig = harness.run_repair_pipeline

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.calls.append((start, time.perf_counter()))

        harness.run_repair_pipeline = timed


def snapshot(out: Path) -> dict[str, bytes]:
    """Every persisted file except the wall-clock timing.json sidecars."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "timing.json"
    }


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode("ascii") + b"\0" + files[rel] + b"\0")
    return h.hexdigest()


def sweep_once(harness, load_exp, out: Path, clock: RunClock, tracer=None) -> dict:
    """Fresh sweep plus report, then resumes of the finished directory, each
    plus the report. A resume is short, so several are timed. Harness
    functions are looked up at call time so that tracer wrappers apply."""
    n_before = len(clock.calls)
    if tracer is not None:
        tracer.phase = "sweep"
    t0 = time.perf_counter()
    exp = load_exp()
    agg = harness.run_sweep(exp, out, n_workers=1)
    harness.emit_report(agg, out / "report")
    t1 = time.perf_counter()
    runs = clock.calls[n_before:]
    fresh = snapshot(out)
    if tracer is not None:
        tracer.phase = "resume"
    resumes, resumed = [], []
    for j in range(RESUMES_PER_REPEAT):
        # each resume gets its own copy of the just-finished directory: on
        # ext4 a second resume into one directory ran ~30x slower than the
        # first, because rewriting a just-rewritten file flushes it
        copy = out.with_name(f"{out.name}-resume{j}")
        shutil.copytree(out, copy)
        t2 = time.perf_counter()
        resumed_agg = harness.run_sweep(exp, copy, n_workers=1)
        harness.emit_report(resumed_agg, copy / "report")
        resumes.append(time.perf_counter() - t2)
        resumed.append(snapshot(copy))
        shutil.rmtree(copy)
    first_run = runs[0][0]
    return {
        "exp": exp,
        "agg": agg,
        "setup": first_run - t0,
        "sweep": t1 - first_run,
        "resume": resumes,
        "run_s": [end - start for start, end in runs],
        "fresh": fresh,
        "resumed": resumed,
    }


def check_repeat(rep: dict) -> list[str]:
    problems = []
    for r in rep["agg"].runs:
        where = f"{r.config_id}/rep{r.rep:02d}"
        if r.status not in ("ok", "no_op"):
            problems.append(f"{where}: status {r.status}: {r.error}")
        elif r.config["pi"] and not r.identity_fallback and r.best["n_intact"] != r.n_pos:
            problems.append(f"{where}: gated run kept {r.best['n_intact']}/{r.n_pos} of I_pos")
    fresh = rep["fresh"]
    for resumed in rep["resumed"]:
        for rel in sorted(set(fresh) | set(resumed)):
            if fresh.get(rel) != resumed.get(rel):
                problems.append(f"resume changed {rel}")
    return problems


def check_persisted_models(out: Path, exp, agg) -> list[str]:
    """Each patched model differs from the subject only at its localized
    weights, and re-evaluating it on the test split reproduces the
    recorded accuracy and broken/repaired counts."""
    import numpy as np
    from nnpatch import diff, evaluate, load_model
    from nnpatch.training import materialize_splits

    problems = []
    test = materialize_splits(exp.subject)[1][3]
    subject = load_model(out / "subject" / "model.json")
    before = evaluate(subject, test)
    for r in agg.runs:
        if r.status != "ok":
            continue
        where = f"{r.config_id}/rep{r.rep:02d}"
        run_dir = out / "runs" / r.config_id / f"rep{r.rep:02d}"
        model = load_model(run_dir / "model.json")
        rows = (run_dir / "localized.csv").read_text(encoding="ascii").splitlines()[1:]
        allowed = {tuple(int(v) for v in row.split(",")[1:]) for row in rows}
        changed = {
            (k, int(i), int(j))
            for k, (a, b) in enumerate(zip(subject.weights, model.weights))
            for i, j in zip(*np.nonzero(a != b))
        }
        if not changed <= allowed:
            problems.append(f"{where}: weights outside the localized set changed")
        if any((a != b).any() for a, b in zip(subject.biases, model.biases)):
            problems.append(f"{where}: biases changed")
        after = evaluate(model, test)
        d = diff(before, after)
        rec = r.splits["test"]
        got = (after.overall_accuracy, len(d.broken), len(d.repaired))
        if got != (rec["after_accuracy"], rec["broken"], rec["repaired"]):
            problems.append(f"{where}: test split re-evaluates to {got}, record says "
                            f"{(rec['after_accuracy'], rec['broken'], rec['repaired'])}")
    return problems


def quality(agg) -> dict:
    runs = agg.runs
    ok = [r for r in runs if r.status == "ok"]
    usable = [r for r in runs if r.status != "error"]
    n_neg = sum(r.n_neg for r in ok)
    n_pos = sum(r.n_pos for r in ok)
    return {
        "fix_frac": sum(r.best["n_patched"] for r in ok) / n_neg if n_neg else 0.0,
        "pos_intact_frac": sum(r.best["n_intact"] for r in ok) / n_pos if n_pos else 0.0,
        "test_after_acc": statistics.fmean(r.splits["test"]["after_accuracy"] for r in usable),
        "test_broken_per_run": statistics.fmean(r.splits["test"]["broken"] for r in usable),
        "test_repaired_per_run": statistics.fmean(r.splits["test"]["repaired"] for r in usable),
        "run_error_frac": (len(runs) - len(usable)) / len(runs),
    }


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def import_seconds() -> float:
    """Time to import the package and its config loader in a fresh
    interpreter, the import cost every user process pays."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import nnpatch.config; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def percentile_line(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"n={n} runs"
    if n >= 20:
        q = 100 * (1 - 10 / n)
        ordered = sorted(values)
        line += f", p{q:.0f}={ordered[max(0, n - 11)]:.6g} s"
    return line


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="master seed (default: the config's)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "nnpatch" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no nnpatch checkout around {HERE}: src/nnpatch and configs/ are required",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    args = parse_args(argv)

    harness = importlib.import_module("nnpatch.harness")
    import_s = statistics.median(import_seconds() for _ in range(IMPORT_SAMPLES))

    import workloads
    from spans import Tracer, repeat_metrics

    def load_exp():
        return workloads.load(ROOT, args.workload, args.seed)

    clock = RunClock(harness)
    tracer = Tracer() if args.trace else None
    seed_label = "config" if args.seed is None else str(args.seed)
    OUT_ROOT.mkdir(exist_ok=True)
    work = OUT_ROOT / f"{args.workload}-seed{seed_label}-trace{args.trace}-{os.getpid()}"
    repeats, problems = [], []
    try:
        start = time.perf_counter()
        while True:
            k = len(repeats)
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.repeat = k
                tracer.install()
            try:
                rep = sweep_once(harness, load_exp, work / f"r{k}", clock, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            rep["traced"] = traced
            problems += check_repeat(rep)
            # keep the digest, not the bytes, so memory does not grow with repeats
            del rep["resumed"]
            rep["persist_bytes"] = sum(len(b) for b in rep["fresh"].values())
            rep["digest"] = digest(rep.pop("fresh"))
            if k == 0:
                problems += check_persisted_models(work / "r0", rep["exp"], rep["agg"])
            elif rep["digest"] != repeats[0]["digest"]:
                problems.append(f"repeat {k}: persisted bytes differ from repeat 0")
            rep["n_runs"] = len(rep["agg"].runs)
            rep["n_failed"] = sum(r.status == "error" for r in rep["agg"].runs)
            if k > 0:
                del rep["agg"]  # peak RSS must not grow with the number of repeats
            repeats.append(rep)
            shutil.rmtree(work / f"r{k}")
            done = len(repeats) >= MIN_REPEATS and time.perf_counter() - start >= args.seconds
            if done and (tracer is None or len(repeats) % 2 == 0):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = repeats[0]
    runs_attempted = sum(r["n_runs"] for r in repeats)
    runs_failed = sum(r["n_failed"] for r in repeats)
    exp = first["exp"]
    print(f"perfbench {args.workload}: seed={seed_label} trace={args.trace} repeats={len(repeats)} "
          f"runs/sweep={len(first['agg'].runs)} grid={len(exp.grid)} reps={exp.repetitions} workers=1")
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    print(f"persisted_sha256: {first['digest']} ({first['persist_bytes']} bytes, timing.json excluded)")

    if tracer is None:
        q = quality(first["agg"])
        run_s = [t for r in repeats for t in r["run_s"]]
        values = {
            "setup_s": import_s + statistics.median(r["setup"] for r in repeats),
            "sweep_s": statistics.median(r["sweep"] for r in repeats),
            "run_s_p50": statistics.median(run_s),
            "resume_s": statistics.median(t for r in repeats for t in r["resume"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **q,
        }
        notes = {
            "setup_s": f"median import {import_s:.4f} s of {IMPORT_SAMPLES} fresh interpreters"
                       f" + median of {len(repeats)} in-process set-ups",
            "run_s_p50": percentile_line(run_s),
            "resume_s": f"median of {RESUMES_PER_REPEAT} resumes x {len(repeats)} repeats",
            "test_broken_per_run": "printed only: 0 or noisy across seeds",
            "test_repaired_per_run": "printed only: 0 or noisy across seeds",
            "fix_frac": "printed only: 0 on deep_l0",
            "run_error_frac": "printed only: 0 whenever the checks pass",
        }
        units = END_TO_END_UNITS
        reported = [m for m in units if m not in PRINTED_ONLY]
    else:
        traced_reps = [r for r in repeats if r["traced"]]
        per_rep = [repeat_metrics(tracer.spans, k) for k, r in enumerate(repeats) if r["traced"]]
        values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        agg = first["agg"]
        values["repair.identity_fallback_frac"] = (
            sum(r.identity_fallback for r in agg.runs if r.status == "ok") / len(agg.runs))
        values["harness.persist_bytes"] = first["persist_bytes"]
        untraced_sweep = statistics.median(r["sweep"] for r in repeats if not r["traced"])
        traced_sweep = statistics.median(r["sweep"] for r in traced_reps)
        values["trace.overhead_s"] = traced_sweep - untraced_sweep
        notes = {"trace.overhead_s": f"traced sweep_s {traced_sweep:.4f} - untraced {untraced_sweep:.4f}",
                 "network.forward_mflop": "computed: 2*rows*sum(in*out)"}
        units = PER_LAYER_UNITS
        reported = list(units)
        spans_path = OUT_ROOT / f"spans-{args.workload}-seed{seed_label}.csv"
        tracer.write(spans_path)
        print(f"spans: {os.path.relpath(spans_path, ROOT)} ({len(tracer.spans)} spans)")

    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {values[name]:>14.6g} {units[name]}{note}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": runs_attempted,
        "failed": runs_failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
