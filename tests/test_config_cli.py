"""YAML config parsing and the command-line verbs."""
from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest
import yaml

from nnpatch import (
    ClustersSource, DriftSpec, build_mlp, evaluate, load_dataset, load_model, make_clusters, run_sweep,
    save_dataset, save_model,
)
from nnpatch.cli import main
from nnpatch.config import experiment_spec_from_config, load_config

ROOT = Path(__file__).resolve().parents[1]

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
    assert exp.beta == 0.25  # default fills in
    assert exp.grid[0].variant == "eq2" and exp.grid[0].pi is True
    assert exp.subject.layer_sizes == (2, 8, 4)
    assert exp.subject.drift is None
    # master seed override
    assert experiment_spec_from_config(cfg, master_seed=7).master_seed == 7
    # the repair section's `layer` is the spec's repair_layer
    assert (exp.repair_layer, exp.layer) == (-1, 1)
    cfg["repair"] = {**cfg["repair"], "layer": 0}
    assert (experiment_spec_from_config(cfg).repair_layer, experiment_spec_from_config(cfg).layer) == (0, 0)


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


def test_bundled_scaled_config_is_exp_c_scaled_up():
    configs = ROOT / "configs"
    scaled = experiment_spec_from_config(load_config(configs / "exp_scaled.yaml"))
    exp_c = experiment_spec_from_config(load_config(configs / "exp_c.yaml"))
    assert (scaled.layer, len(scaled.subject.layer_sizes) - 1) == (2, 3)
    subject = dataclasses.replace(
        exp_c.subject, layer_sizes=(8, 128, 128, 7), epochs=10,
        source={**exp_c.subject.source, "n_features": 8, "n_per_class": 3000},
    )
    assert scaled == dataclasses.replace(exp_c, subject=subject, repair_layer=2)


def moved_to_repair(key):
    """(old, new) that move `key`'s line from the experiment section to the
    repair section, which ends BASE_CONFIG."""
    tail = BASE_CONFIG[BASE_CONFIG.index("experiment:"):]
    (line,) = (line for line in tail.splitlines(keepends=True) if line.startswith(f"  {key}:"))
    return tail, tail.replace(line, "") + line


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
        # a key in a section other than its own would be replaced or read from the wrong place
        ("  batch_size: 16\n", "  batch_size: 16\n  split: {train: 1.0}\n", "split"),
        ("  batch_size: 16\n", "  batch_size: 16\n  source: {kind: clusters}\n", "source"),
        ("  batch_size: 16\n", "  batch_size: 16\n  drift: {target_class: 1}\n", "drift"),
        ("  master_seed: 42\n", "  master_seed: 42\n  beta: 0.5\n", "beta"),
        ("  master_seed: 42\n", "  master_seed: 42\n  repair_layer: 0\n", "repair_layer"),
        (*moved_to_repair("master_seed"), "master_seed"),
        (*moved_to_repair("target_class"), "target_class"),
        # a misspelt section would otherwise be ignored, and its knobs take their defaults
        ("repair:\n  n_iterations: 3", "repiar:\n  n_iterations: 3", "repiar"),
        # the swarm's coefficients and the loss-ratio orientation are no settings
        ("repair:\n  n_iterations: 3", "repair:\n  n_iterations: 3\n  inertia: 0.5", "inertia"),
        ("repair:\n  n_iterations: 3", "repair:\n  n_iterations: 3\n  orientation: literal",
         "orientation"),
    ],
    ids=[
        "repair", "experiment", "subject", "split", "grid_row", "both_sections",
        "subject_split", "subject_source", "subject_drift", "experiment_knob",
        "experiment_layer", "repair_master_seed", "repair_target_class", "top_level",
        "repair_inertia", "repair_orientation",
    ],
)
def test_config_rejects_unknown_keys(tmp_path, old, new, key):
    assert BASE_CONFIG.count(old) == 1
    path = tmp_path / "typo.yaml"
    path.write_text(BASE_CONFIG.replace(old, new))
    with pytest.raises(ValueError, match=key):
        experiment_spec_from_config(load_config(path))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("repair", "beta", "-1"),
        ("grid", "alpha", "-1"),
        ("repair", "delta", "0"),
        ("grid", "alpha", ".nan"),
        ("repair", "beta", ".inf"),
        ("repair", "delta", ".inf"),
        ("grid", "variant", "eq9"),
        ("grid", "n_particles", "1"),
        ("repair", "n_iterations", "-1"),
        # keys that are no settings: refused whatever their value
        ("repair", "orientation", "sideways"),
        ("repair", "velocity_clamp", "0"),
        ("repair", "inertia", ".nan"),
        ("repair", "layer", "2"),
        ("repair", "layer", "-3"),
        ("experiment", "target_class", "4"),
        ("experiment", "master_seed", "-1"),
        ("subject", "seed", "-1"),
        ("subject", "layer_sizes", "[2, 0, 4]"),
        ("subject", "layer_sizes", "[4]"),
        ("subject", "learning_rate", ".nan"),
        ("subject", "learning_rate", ".inf"),
        ("split", "seed", "-1"),
        ("dataset", "seed", "-1"),
        ("split", "train", ".nan"),
        # a value of another type is refused, not coerced: "false" is no bool
        # (bool("false") is True), 8.9 no int, and a bool is neither int nor float
        ("grid", "pi", '"false"'),
        ("grid", "target_lw", "8.9"),
        ("grid", "n_particles", "20.5"),
        ("grid", "n_pos", "true"),
        ("grid", "alpha", "true"),
        # an int too large for a float is refused by name, not met by an OverflowError
        pytest.param("grid", "alpha", "1" + "0" * 400, id="grid-alpha-10**400"),
        ("repair", "n_iterations", '"20"'),
        ("subject", "layer_sizes", "[2, 8.5, 4]"),
        # a container takes only its own kind: a number, an empty value or a
        # mapping is no list, and a number no path
        ("subject", "layer_sizes", "5"),
        ("subject", "layer_sizes", "null"),
        ("subject", "layer_sizes", "{2: 1, 8: 1, 4: 1}"),
        ("experiment", "grid", "3"),
        ("experiment", "grid", "null"),
        ("file_dataset", "path", "5"),
        # the dataset section is checked against its data source's arguments
        ("dataset", "foo", "1"),
        ("dataset", "seed", '"x"'),
        ("dataset", "n_per_class", '"many"'),
        ("dataset", "kind", "file"),
        ("dataset", "kind", "[clusters]"),
        # and against their ranges, before the data is generated
        ("dataset", "n_classes", "1"),
        ("dataset", "n_per_class", "0"),
        ("dataset", "n_features", "1"),
        ("dataset", "confusion_pull", "1.0"),
        ("dataset", "target_class", "9"),
        ("dataset", "cluster_std", "-1"),
        # keys that are no longer settings: sample ids have one prefix, and
        # every split is stratified
        ("dataset", "id_prefix", "x"),
        ("split", "stratified", "false"),
        # and against the subject's layer sizes: a 2-8-4 subject takes 2 features
        # and at most 4 classes, and its drift targets one of them
        ("dataset", "n_features", "3"),
        ("dataset", "n_classes", "5"),
        ("drift", "target_class", "4"),
        ("drift", "target_class", "-1"),
        # the experiment's target class is checked against the data's classes, which
        # may be fewer than the subject's outputs (the "3_classes" section is the
        # experiment section of quickstart on 3 classes of data)
        ("3_classes", "target_class", "3"),
        ("subject", "epochs", "-1"),
        ("subject", "batch_size", "0"),
    ],
)
def test_spec_refuses_bad_values_before_any_file(tmp_path, capsys, section, key, value):
    cfg = load_config(ROOT / "configs" / "quickstart.yaml")
    if section == "drift":  # quickstart has none
        cfg["drift"] = {"target_class": 1, "train_fraction_of_class": 0.5,
                        "repair_fraction_of_class": 1.0}
    if section == "3_classes":
        cfg["dataset"]["n_classes"] = 3
    if section == "file_dataset":
        cfg["dataset"] = {"kind": "file"}
    target = {"repair": cfg["repair"], "experiment": cfg["experiment"],
              "3_classes": cfg["experiment"], "file_dataset": cfg["dataset"],
              "grid": cfg["experiment"]["grid"][0], "subject": cfg["subject"],
              "split": cfg["split"], "dataset": cfg["dataset"], "drift": cfg.get("drift")}[section]
    target[key] = yaml.safe_load(value)
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match=key):
        run_sweep(experiment_spec_from_config(cfg), out)
    assert not out.exists()
    # the command line refuses it as `error: ...`, exit 2
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["gen-data", "split", "train", "localize", "repair", "sweep"])
@pytest.mark.parametrize("section, key, value", [("grid", "n_particles", 1), ("repair", "beta", -1),
                                                 ("subject", "layer_sizes", 5)])
def test_every_config_verb_checks_the_whole_config(tmp_path, capsys, verb, section, key, value):
    # each verb reads the whole config into one spec, so it refuses a bad value
    # also in a section it does not use, before it writes a file
    cfg = load_config(ROOT / "configs" / "quickstart.yaml")
    {"grid": cfg["experiment"]["grid"][0], "repair": cfg["repair"],
     "subject": cfg["subject"]}[section][key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out" if verb == "gen-data" else "--out-dir",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["sweep", "localize", "train"])
@pytest.mark.parametrize("section, key", [("grid", "n_particles"), ("subject", "epochs"),
                                          ("experiment", "target_class")])
def test_cli_refuses_a_missing_key(tmp_path, capsys, verb, section, key):
    cfg = load_config(ROOT / "configs" / "quickstart.yaml")
    del {"grid": cfg["experiment"]["grid"][0], "subject": cfg["subject"],
         "experiment": cfg["experiment"]}[section][key]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"needs {key}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture()
def file_config(tmp_path):
    """quickstart on a file of 3 classes of 2-feature data: its 2-8-4 subject
    has a fourth output but the data no class 3."""
    data = tmp_path / "three.csv"
    save_dataset(make_clusters(ClustersSource(n_classes=3, n_per_class=40, seed=5)), data)
    cfg = load_config(ROOT / "configs" / "quickstart.yaml")
    cfg["dataset"] = {"kind": "file", "path": str(data)}
    return cfg


def test_file_data_that_fits_trains(tmp_path, file_config):
    path = tmp_path / "good.yaml"
    path.write_text(yaml.safe_dump(file_config))
    assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "subject")]) == 0
    assert json.loads((tmp_path / "subject" / "subject.json").read_text())["target_class"] == 1


@pytest.mark.parametrize("section, value, key", [
    ("experiment", {"target_class": 3}, "target_class"),
    ("drift", {"target_class": 3, "train_fraction_of_class": 0.5, "repair_fraction_of_class": 1.0},
     "target_class"),
    ("subject", {"layer_sizes": [3, 8, 4]}, "layer_sizes"),
], ids=["experiment_target_class", "drift_target_class", "layer_sizes"])
def test_file_data_that_does_not_fit_is_refused_before_any_file(tmp_path, capsys, file_config,
                                                                section, value, key):
    # a file is checked when it is read, as generated data is: before sweep.json
    cfg = file_config
    cfg[section] = {**(cfg.get(section) or {}), **value}
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match=key):
        run_sweep(experiment_spec_from_config(cfg), out)
    assert not out.exists()
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section, value", [("experiment", None), ("subject", [2, 8, 4])],
                         ids=["missing", "not_a_mapping"])
def test_config_refuses_a_missing_or_malformed_section(tmp_path, capsys, section, value):
    cfg = yaml.safe_load(BASE_CONFIG)
    if value is None:
        del cfg[section]
    else:
        cfg[section] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"'{section}'"):
        experiment_spec_from_config(load_config(path))
    assert main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config") and f"'{section}'" in err and "Traceback" not in err
    assert not out.exists()


def test_spec_reads_a_float_that_yaml_leaves_a_string(tmp_path):
    # PyYAML reads 1e-6 (no dot) as a string; a float field takes it as a number
    cfg = load_config(ROOT / "configs" / "quickstart.yaml")
    cfg["repair"]["delta"] = yaml.safe_load("1e-6")
    assert cfg["repair"]["delta"] == "1e-6"
    assert experiment_spec_from_config(cfg).delta == 1e-6


def test_cli_refuses_missing_and_malformed_files(config_path, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("subject: [2, 8\n")
    out = tmp_path / "out"
    for argv, word in (
        (["sweep", "--config", missing, "--out-dir", str(out)], "missing.json"),
        (["sweep", "--config", str(malformed), "--out-dir", str(out)], "malformed.yaml"),
        (["localize", "--config", str(config_path), "--model", missing, "--out-dir", str(out)],
         "missing.json"),
        (["evaluate", "--model", missing, "--data", missing], "missing.json"),
        (["report", "--sweep-dir", str(tmp_path / "nosweep")], "sweep.json"),
        # a directory is no readable file either
        (["sweep", "--config", str(tmp_path), "--out-dir", str(out)], str(tmp_path)),
        (["evaluate", "--model", str(tmp_path), "--data", missing], str(tmp_path)),
        # no worker count below 1 falls back to a serial sweep
        (["sweep", "--config", str(config_path), "--out-dir", str(out), "--workers", "0"], "n_workers"),
        (["sweep", "--config", str(config_path), "--out-dir", str(out), "--workers", "-3"],
         "n_workers"),
        # a negative master seed given by the flag is checked with the spec
        (["sweep", "--config", str(config_path), "--out-dir", str(out), "--seed", "-1"],
         "master_seed"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "nosweep").exists()


def test_cli_verbs_take_only_the_flags_they_read(config_path, tmp_path, capsys):
    # evaluate and report read no config, and localization draws nothing at random
    out = tmp_path / "loc"
    for argv, flag in (
        (["report", "--sweep-dir", str(tmp_path), "--seed", "1"], "--seed"),
        (["evaluate", "--model", "m.json", "--data", "d.csv", "--config", "x"], "--config"),
        (["localize", "--config", str(config_path), "--out-dir", str(out), "--seed", "1"], "--seed"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_drift_section_parsing(tmp_path):
    path = tmp_path / "drift.yaml"
    path.write_text(BASE_CONFIG + DRIFT_SECTION)
    cfg = load_config(path)
    drift = experiment_spec_from_config(cfg).subject.drift
    assert drift is not None
    assert drift.target_class == 1
    assert drift.train_fraction_of_class == 0.5
    assert drift == DriftSpec(target_class=1, train_fraction_of_class=0.5,
                              repair_fraction_of_class=1.0, seed=9)


def _outputs(out):
    """The bytes a verb wrote to `out`, a file or a directory of files."""
    if out.is_file():
        return out.read_bytes()
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_subject_seed_override(config_path, tmp_path):
    assert experiment_spec_from_config(load_config(config_path)).subject.seed == 3
    # --seed sets the seed of the one section the verb reads it for: the same
    # bytes as that section's `seed` written into the config, without the flag
    for verb, section, flag, value in (("train", "subject", "--out-dir", 99),
                                       ("split", "split", "--out-dir", 4),
                                       ("gen-data", "dataset", "--out", 123)):
        cfg = yaml.safe_load(BASE_CONFIG)
        assert cfg[section]["seed"] != value
        cfg[section]["seed"] = value
        seeded = tmp_path / f"{verb}.yaml"
        seeded.write_text(yaml.safe_dump(cfg))
        by_flag, by_config, default = (tmp_path / f"{verb}-{k}" for k in ("flag", "config", "default"))
        assert main([verb, "--config", str(config_path), flag, str(by_flag), "--seed", str(value)]) == 0
        assert main([verb, "--config", str(seeded), flag, str(by_config)]) == 0
        assert main([verb, "--config", str(config_path), flag, str(default)]) == 0
        assert _outputs(by_flag) == _outputs(by_config) != _outputs(default), verb


def test_cli_gen_data_and_seed_override(config_path, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["gen-data", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", str(config_path), "--out", str(out_b), "--seed", "123"]) == 0
    a = load_dataset(out_a)
    b = load_dataset(out_b)
    assert len(a) == 200 and a.n_classes == 4
    assert (a.features != b.features).any()
    # a negative seed is refused by its key, before the file is written
    out_c = tmp_path / "c.csv"
    assert main(["gen-data", "--config", str(config_path), "--out", str(out_c), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset seed must be >= 0") and "Traceback" not in err
    assert not out_c.exists()


def test_cli_split_and_drift(config_path, tmp_path, capsys):
    split_dir = tmp_path / "splits"
    assert main(["split", "--config", str(config_path), "--out-dir", str(split_dir)]) == 0
    sizes = {}
    for name in ("train", "validation", "repair", "test"):
        ds = load_dataset(split_dir / f"{name}.csv")
        sizes[name] = len(ds)
    assert sum(sizes.values()) == 200
    assert sizes["train"] == 100

    # split writes the splits the subject is trained on, the drift included:
    # the same bytes as train writes
    drifted_cfg = tmp_path / "drift.yaml"
    drifted_cfg.write_text(BASE_CONFIG + DRIFT_SECTION)
    drift_dir, subject_dir = tmp_path / "drifted", tmp_path / "subject"
    assert main(["split", "--config", str(drifted_cfg), "--out-dir", str(drift_dir)]) == 0
    assert main(["train", "--config", str(drifted_cfg), "--out-dir", str(subject_dir)]) == 0
    train = load_dataset(drift_dir / "train.csv")
    assert (train.labels == 1).sum() < 25  # class 1 thinned out of train
    for name in ("train", "validation", "repair", "test"):
        assert (drift_dir / f"{name}.csv").read_bytes() == (subject_dir / f"{name}.csv").read_bytes()

    # there is no separate drift verb
    with pytest.raises(SystemExit) as exc:
        main(["drift", "--config", str(drifted_cfg), "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "invalid choice: 'drift'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_train_localize_repair_evaluate(config_path, tmp_path):
    train_dir = tmp_path / "subject"
    assert main(["train", "--config", str(config_path), "--out-dir", str(train_dir)]) == 0
    model_path = train_dir / "model.json"
    assert model_path.exists()
    load_model(model_path)  # well-formed
    meta = json.loads((train_dir / "subject.json").read_text())
    assert set(meta["split_accuracies"]) == {"train", "validation", "repair", "test"}
    assert meta["split_sizes"] == {"train": 100, "validation": 20, "repair": 40, "test": 40}
    assert meta["target_class"] == 1

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
    # written through the one JSON writer: the report read back, no temp file left
    assert rep == evaluate(load_model(model_path), load_dataset(train_dir / "test.csv")).to_dict()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("verb", ["localize", "repair"])
@pytest.mark.parametrize("case", ["another_subject", "head_narrower_than_the_data"])
def test_cli_refuses_a_model_that_does_not_fit(tmp_path, capsys, verb, case):
    # --model must have the subject's layer sizes and a head wide enough for the data:
    # quickstart's 2-8-4 model against exp_c's 2-16-7 subject, and a model of the
    # config's 2-8-3 sizes on quickstart's 4 classes of data
    if case == "another_subject":
        config = ROOT / "configs" / "exp_c.yaml"
        assert main(["train", "--config", str(ROOT / "configs" / "quickstart.yaml"),
                     "--out-dir", str(tmp_path / "qs")]) == 0
        model = tmp_path / "qs" / "model.json"
    else:
        cfg = load_config(ROOT / "configs" / "quickstart.yaml")
        cfg["subject"]["layer_sizes"] = [2, 8, 3]
        config, model = tmp_path / "narrow.yaml", tmp_path / "narrow.json"
        config.write_text(yaml.safe_dump(cfg))
        save_model(build_mlp((2, 8, 3), seed=0), model)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([verb, "--config", str(config), "--model", str(model), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: model has layer sizes ") and "Traceback" not in captured.err
    assert not out.exists()


def test_cli_repair_records_a_failing_run(tmp_path, capsys, monkeypatch):
    # a run that fails is an error record, written and printed, and exit 1, as in a sweep
    import nnpatch.harness as harness

    def failing(*_):
        raise RuntimeError("search failed")

    monkeypatch.setattr(harness, "repair", failing)
    out = tmp_path / "run"
    assert main(["repair", "--config", str(ROOT / "configs" / "quickstart.yaml"),
                 "--out-dir", str(out)]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["status"] == "error" and printed["error"] == "RuntimeError: search failed"
    assert json.loads((out / "run.json").read_text()) == printed
    assert sorted(p.name for p in out.iterdir()) == ["run.json", "timing.json"]


def test_cli_localize_builds_one_impact_table(tmp_path, monkeypatch):
    # the table that ranks the weights is the table written to impacts.csv
    import nnpatch.cli as cli
    import nnpatch.localization as localization

    original, tables = localization.compute_impacts, []

    def counted(*args):
        tables.append(original(*args))
        return tables[-1]

    for module in (localization, cli):
        monkeypatch.setattr(module, "compute_impacts", counted)
    out = tmp_path / "loc"
    assert main(["localize", "--config", str(ROOT / "configs" / "quickstart.yaml"),
                 "--out-dir", str(out)]) == 0
    assert len(tables) == 1
    localization.write_impact_csv(tables[0], tmp_path / "impacts.csv")
    assert (out / "impacts.csv").read_bytes() == (tmp_path / "impacts.csv").read_bytes()


@pytest.mark.parametrize(
    "section",
    ["localization:\n  target_w: 3\n", "localization: [3]\n"],
    ids=["unknown_key", "not_a_mapping"],
)
def test_cli_localize_checks_localization_section(tmp_path, capsys, section):
    # the localize verb takes grid[0].target_lw, like repair; the section is gone,
    # so any localization section, well-formed or not, is refused as an unknown key
    path = tmp_path / "loc.yaml"
    path.write_text(BASE_CONFIG + section)
    assert main(["localize", "--config", str(path), "--out-dir", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'localization'" in err and "Traceback" not in err
    assert not (tmp_path / "bad").exists()


def test_cli_sweep_and_report(config_path, tmp_path):
    sweep_dir = tmp_path / "sweep"
    assert main([
        "sweep", "--config", str(config_path),
        "--out-dir", str(sweep_dir), "--workers", "2",
    ]) == 0
    report_dir = sweep_dir / "report"
    assert (report_dir / "report.json").exists()
    assert (report_dir / "runs_long.csv").exists()
    rows = (report_dir / "runs_long.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 4  # 1 config x 2 reps x 4 splits

    # regenerate the report from the persisted sweep alone
    (report_dir / "runs_long.csv").unlink()
    assert main(["report", "--sweep-dir", str(sweep_dir)]) == 0
    assert (report_dir / "runs_long.csv").exists()

    # train writes the subject the sweep trained, byte for byte
    assert main(["train", "--config", str(config_path), "--out-dir", str(tmp_path / "subject")]) == 0
    for name in ("model.json", "subject.json"):
        assert (tmp_path / "subject" / name).read_bytes() == (sweep_dir / "subject" / name).read_bytes()

    # a sweep of another spec into the same directory is refused
    assert main([
        "sweep", "--config", str(config_path), "--out-dir", str(sweep_dir), "--seed", "7",
    ]) == 2


def test_cli_localize_refuses_a_subject_with_nothing_to_repair(tmp_path, capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "quickstart.yaml"
    text = re.sub(r"(?m)^( *target_class:) 1$", r"\1 0", config.read_text())
    assert text.count("target_class: 0") == 2
    path = tmp_path / "nothing.yaml"
    path.write_text(text)
    assert main(["localize", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nothing to repair") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
