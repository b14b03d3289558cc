"""The benchmark's own tests: a tiny-size pass over every workload and the
closed forms of the traced counts.

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PARTICLES = 4
TINY_ITERATIONS = 3
# forward calls per run outside the search: evaluate on 4 splits before and
# after repair, 2 predictions in select_repair_inputs, 2 base losses in repair
FORWARD_CALLS_OUTSIDE_SEARCH = 8 + 2 + 2


def tiny(exp):
    return dataclasses.replace(
        exp,
        subject=dataclasses.replace(exp.subject, epochs=2),
        grid=tuple(dataclasses.replace(e, n_particles=TINY_PARTICLES) for e in exp.grid),
        n_iterations=TINY_ITERATIONS,
        repetitions=1,
    )


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    harness = importlib.import_module("nnpatch.harness")
    # main() wraps this name; monkeypatch puts the original back afterwards
    monkeypatch.setattr(harness, "run_repair_pipeline", harness.run_repair_pipeline)
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    real_load = workloads.load
    monkeypatch.setattr(workloads, "load", lambda *a: tiny(real_load(*a)))

    def call(workload: str, trace: int):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
        out = capsys.readouterr().out
        return code, out, json.loads(out.strip().splitlines()[-1])

    return call


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_prints_every_metric_and_counts_match_closed_forms(bench, workload):
    code, out, result = bench(workload, 0)
    assert code == 0 and result["correct"], out
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for name, unit in run.END_TO_END_UNITS.items():
        assert f" {name} " in out and f" {unit}" in out
    assert "persisted_sha256: " in out and '"blas_thread_env"' in out

    code, out, result = bench(workload, 1)
    assert code == 0 and result["correct"], out
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    m = {k: v["value"] for k, v in result["metrics"].items()}
    evals = TINY_PARTICLES * (TINY_ITERATIONS + 1) + 1
    assert m["repair.fitness_evals"] == evals
    assert m["network.forward_calls"] == 2 * evals + FORWARD_CALLS_OUTSIDE_SEARCH
    assert m["localization.localize_calls"] >= 1
    assert m["harness.persist_bytes"] > 0


def test_resume_that_changes_a_file_fails_the_check():
    rep = {
        "agg": type("Agg", (), {"runs": ()})(),
        "fresh": {"aggregate.json": b"{}\n"},
        "resumed": [{"aggregate.json": b"{ }\n"}],
    }
    assert run.check_repeat(rep) == ["resume changed aggregate.json"]


def test_without_a_checkout_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "exp_c", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
