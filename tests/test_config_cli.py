"""YAML config parsing and the command-line verbs."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from nnpatch import load_dataset, load_model
from nnpatch.cli import main
from nnpatch.config import (
    drift_spec_from_config,
    experiment_spec_from_config,
    load_config,
    subject_spec_from_config,
)

BASE_CONFIG = """\
config_version: 1
dataset:
  kind: clusters
  n_classes: 4
  n_per_class: 50
  cluster_std: 1.0
  confusion_pull: 0.7
  target_class: 1
  seed: 5
split:
  train: 0.5
  validation: 0.1
  repair: 0.2
  test: 0.2
  seed: 7
subject:
  layer_sizes: [2, 8, 4]
  epochs: 8
  learning_rate: 0.1
  batch_size: 16
  seed: 3
experiment:
  target_class: 1
  repetitions: 2
  master_seed: 42
  grid:
    - {variant: eq2, alpha: 4.0, pi: true, target_lw: 4, n_pos: 20, n_particles: 4}
repair:
  n_iterations: 3
"""

DRIFT_SECTION = """\
drift:
  target_class: 1
  train_fraction_of_class: 0.5
  repair_fraction_of_class: 1.0
  seed: 9
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(BASE_CONFIG)
    return path


def test_load_config_version_gate(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("config_version: 99\n")
    with pytest.raises(ValueError, match="config_version"):
        load_config(bad)
    nover = tmp_path / "nover.yaml"
    nover.write_text("dataset: {kind: clusters}\n")
    with pytest.raises(ValueError, match="config_version"):
        load_config(nover)
    notmap = tmp_path / "notmap.yaml"
    notmap.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config(notmap)


def test_experiment_spec_parsing(config_path):
    cfg = load_config(config_path)
    exp = experiment_spec_from_config(cfg)
    assert exp.master_seed == 42
    assert exp.repetitions == 2
    assert exp.n_iterations == 3
    assert exp.inertia == 0.7298  # default fills in
    assert exp.grid[0].variant == "eq2" and exp.grid[0].pi is True
    assert exp.subject.layer_sizes == (2, 8, 4)
    assert exp.subject.drift is None
    # master seed override
    assert experiment_spec_from_config(cfg, master_seed=7).master_seed == 7
    # the repair section's `layer` is the spec's repair_layer
    assert exp.repair_layer == -1
    cfg["repair"] = {**cfg["repair"], "layer": 0}
    assert experiment_spec_from_config(cfg).repair_layer == 0


def test_reference_grid_row_parses(tmp_path):
    text = BASE_CONFIG.replace(
        "- {variant: eq2, alpha: 4.0, pi: true, target_lw: 4, n_pos: 20, n_particles: 4}",
        "- {variant: eq2, alpha: 8.0, pi: true, target_lw: 32, n_pos: 500, n_particles: 200}",
    )
    path = tmp_path / "ref.yaml"
    path.write_text(text)
    exp = experiment_spec_from_config(load_config(path))
    e = exp.grid[0]
    assert (e.variant, e.alpha, e.pi, e.target_lw, e.n_pos, e.n_particles) == (
        "eq2", 8.0, True, 32, 500, 200,
    )


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("repair:\n  n_iterations: 3", "repair:\n  n_iteration: 5", "n_iteration"),
        ("  master_seed: 42\n", "  master_seed: 42\n  master_sed: 1\n", "master_sed"),
        ("  batch_size: 16\n", "  batch_size: 16\n  batchsize: 8\n", "batchsize"),
        ("  test: 0.2\n", "  test: 0.2\n  stratify: false\n", "stratify"),
        ("n_particles: 4}", "n_particles: 4, n_particle: 9}", "n_particle"),
        # a search knob set in both sections would silently take one of the values
        ("  master_seed: 42\n", "  master_seed: 42\n  n_iterations: 7\n", "n_iterations"),
    ],
    ids=["repair", "experiment", "subject", "split", "grid_row", "both_sections"],
)
def test_config_rejects_unknown_keys(tmp_path, old, new, key):
    assert BASE_CONFIG.count(old) == 1
    path = tmp_path / "typo.yaml"
    path.write_text(BASE_CONFIG.replace(old, new))
    with pytest.raises(ValueError, match=key):
        experiment_spec_from_config(load_config(path))


def test_drift_section_parsing(tmp_path):
    path = tmp_path / "drift.yaml"
    path.write_text(BASE_CONFIG + DRIFT_SECTION)
    cfg = load_config(path)
    drift = drift_spec_from_config(cfg)
    assert drift is not None
    assert drift.target_class == 1
    assert drift.train_fraction_of_class == 0.5
    subject = subject_spec_from_config(cfg)
    assert subject.drift == drift


def test_subject_seed_override(config_path):
    cfg = load_config(config_path)
    assert subject_spec_from_config(cfg).seed == 3
    assert subject_spec_from_config(cfg, seed=99).seed == 99


def test_cli_gen_data_and_seed_override(config_path, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["gen-data", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", str(config_path), "--out", str(out_b), "--seed", "123"]) == 0
    a = load_dataset(out_a)
    b = load_dataset(out_b)
    assert len(a) == 200 and a.n_classes == 4
    assert (a.features != b.features).any()


def test_cli_split_and_drift(config_path, tmp_path):
    split_dir = tmp_path / "splits"
    assert main(["split", "--config", str(config_path), "--out-dir", str(split_dir)]) == 0
    sizes = {}
    for name in ("train", "validation", "repair", "test"):
        ds = load_dataset(split_dir / f"{name}.csv")
        sizes[name] = len(ds)
    assert sum(sizes.values()) == 200
    assert sizes["train"] == 100

    # no drift section -> explicit failure code
    assert main(["drift", "--config", str(config_path), "--out-dir", str(tmp_path / "x")]) == 2

    drifted_cfg = tmp_path / "drift.yaml"
    drifted_cfg.write_text(BASE_CONFIG + DRIFT_SECTION)
    drift_dir = tmp_path / "drifted"
    assert main(["drift", "--config", str(drifted_cfg), "--out-dir", str(drift_dir)]) == 0
    train = load_dataset(drift_dir / "train.csv")
    assert (train.labels == 1).sum() < 25  # class 1 thinned out of train


def test_cli_train_localize_repair_evaluate(config_path, tmp_path):
    train_dir = tmp_path / "subject"
    assert main(["train", "--config", str(config_path), "--out-dir", str(train_dir)]) == 0
    model_path = train_dir / "model.json"
    assert model_path.exists()
    load_model(model_path)  # well-formed
    meta = json.loads((train_dir / "subject.json").read_text())
    assert set(meta["split_accuracies"]) == {"train", "validation", "repair", "test"}

    loc_dir = tmp_path / "loc"
    assert main([
        "localize", "--config", str(config_path),
        "--model", str(model_path), "--out-dir", str(loc_dir),
    ]) == 0
    assert (loc_dir / "impacts.csv").exists()
    localized_lines = (loc_dir / "localized.csv").read_text().strip().splitlines()
    assert len(localized_lines) == 1 + 4  # header + target_lw rows

    repair_dir = tmp_path / "repair"
    assert main([
        "repair", "--config", str(config_path),
        "--model", str(model_path), "--out-dir", str(repair_dir),
    ]) == 0
    run = json.loads((repair_dir / "run.json").read_text())
    assert run["status"] in ("ok", "no_op")

    eval_out = tmp_path / "eval.json"
    assert main([
        "evaluate", "--model", str(model_path),
        "--data", str(train_dir / "test.csv"), "--out", str(eval_out),
    ]) == 0
    rep = json.loads(eval_out.read_text())
    assert 0.0 <= rep["overall_accuracy"] <= 1.0
    assert len(rep["verdicts"]) == 40


def test_cli_sweep_and_report(config_path, tmp_path):
    sweep_dir = tmp_path / "sweep"
    assert main([
        "sweep", "--config", str(config_path),
        "--out-dir", str(sweep_dir), "--workers", "2",
    ]) == 0
    assert (sweep_dir / "aggregate.json").exists()
    report_dir = sweep_dir / "report"
    assert (report_dir / "runs_long.csv").exists()
    rows = (report_dir / "runs_long.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 4  # 1 config x 2 reps x 4 splits

    # regenerate the report from the persisted sweep alone
    (report_dir / "runs_long.csv").unlink()
    assert main(["report", "--sweep-dir", str(sweep_dir)]) == 0
    assert (report_dir / "runs_long.csv").exists()

    # a sweep of another spec into the same directory is refused
    assert main([
        "sweep", "--config", str(config_path), "--out-dir", str(sweep_dir), "--seed", "7",
    ]) == 2
