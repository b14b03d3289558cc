"""Subject training, the end-to-end repair pipeline, sweep protocol,
aggregation, and report emission."""
from __future__ import annotations

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from nnpatch import (
    Dataset,
    DriftSpec,
    ExperimentSpec,
    GridEntry,
    RunResult,
    SplitSpec,
    SubjectSpec,
    aggregate_runs,
    build_mlp,
    derive_run_seeds,
    emit_report,
    load_sweep_dir,
    run_repair_pipeline,
    run_sweep,
    train_subject,
)
from nnpatch.config import experiment_spec_from_config, load_config
from nnpatch.harness import AggregateResult, _write_json, as_dict, from_dict
from nnpatch.training import materialize_splits

from helpers import perceptron_separable

ROOT = Path(__file__).resolve().parents[1]


def small_subject(**overrides):
    params = dict(
        layer_sizes=(2, 8, 4),
        epochs=8,
        learning_rate=0.1,
        batch_size=16,
        seed=3,
        source={
            "kind": "clusters",
            "n_classes": 4,
            "n_per_class": 50,
            "cluster_std": 1.0,
            "confusion_pull": 0.7,
            "target_class": 1,
            "seed": 5,
        },
        split=SplitSpec(0.5, 0.1, 0.2, 0.2, seed=7),
    )
    params.update(overrides)
    return SubjectSpec(**params)


def small_experiment(**overrides):
    params = dict(
        subject=small_subject(),
        target_class=1,
        grid=(
            GridEntry("eq2", 4.0, True, 4, 20, 4),
            GridEntry("eq1", 1.0, False, 6, 30, 6),
        ),
        repetitions=3,
        master_seed=42,
        n_iterations=3,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


@pytest.fixture(scope="module")
def trained_subject():
    spec = small_subject()
    _, splits = materialize_splits(spec)
    model = train_subject(spec, splits)
    return spec, splits, model


def tree_bytes(root, skip=("timing.json",)):
    """Relative path -> bytes for every file under root, minus exclusions."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def test_grid_entry_validation():
    with pytest.raises(ValueError):
        GridEntry("eq9", 1.0, True, 4, 10, 4)
    with pytest.raises(ValueError):
        GridEntry("eq1", -1.0, True, 4, 10, 4)
    with pytest.raises(ValueError):
        GridEntry("eq1", 1.0, True, 0, 10, 4)
    with pytest.raises(ValueError):
        GridEntry("eq1", 1.0, True, 4, 10, 1)
    e = GridEntry("eq2", 8.0, True, 32, 500, 200)
    assert from_dict(GridEntry, as_dict(e)) == e


def test_experiment_spec_validation():
    with pytest.raises(ValueError, match="grid"):
        ExperimentSpec(subject=small_subject(), target_class=1, grid=())
    with pytest.raises(ValueError, match="repetitions"):
        small_experiment(repetitions=0)
    # dict entries are coerced to GridEntry
    exp = small_experiment(grid=({"variant": "eq2", "alpha": 1.0, "pi": False, "target_lw": 2, "n_pos": 5, "n_particles": 2},))
    assert isinstance(exp.grid[0], GridEntry)


def test_zero_epochs_returns_seeded_initialization():
    spec = small_subject(epochs=0)
    model = train_subject(spec)
    init = build_mlp(spec.layer_sizes, seed=spec.seed)
    for wa, wb in zip(model.weights, init.weights):
        np.testing.assert_array_equal(wa, wb)


def test_training_is_deterministic(trained_subject):
    spec, splits, model = trained_subject
    again = train_subject(spec, splits)
    for wa, wb in zip(model.weights, again.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(model.biases, again.biases):
        np.testing.assert_array_equal(ba, bb)


def test_training_learns_separable_data():
    rng = np.random.default_rng(17)
    x0 = rng.normal(size=(60, 2)) + np.array([3.0, 3.0])
    x1 = rng.normal(size=(60, 2)) - np.array([3.0, 3.0])
    features = np.vstack([x0, x1])
    labels = np.array([0] * 60 + [1] * 60)
    assert perceptron_separable(features, labels)
    ds = Dataset(
        features=features,
        labels=labels,
        sample_ids=tuple(f"s{k}" for k in range(120)),
        n_classes=2,
        class_names=("a", "b"),
    )
    tmp = Path("/tmp/nnpatch-separable.csv")
    from nnpatch import save_dataset, evaluate

    save_dataset(ds, tmp)
    spec = SubjectSpec(
        layer_sizes=(2, 4, 2),
        epochs=20,
        learning_rate=0.1,
        batch_size=16,
        seed=1,
        source={"kind": "file", "path": str(tmp)},
        split=SplitSpec(0.5, 0.1, 0.2, 0.2, seed=2),
    )
    _, splits = materialize_splits(spec)
    model = train_subject(spec, splits)
    assert evaluate(model, splits[0]).overall_accuracy >= 0.95


def test_training_divergence_reports_epoch():
    spec = small_subject(learning_rate=1e8, epochs=3)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="epoch"):
        train_subject(spec)


def test_derive_run_seeds_injective():
    seen = {}
    for master in (0, 1, 99):
        for ci in range(6):
            for ri in range(12):
                pair = derive_run_seeds(master, ci, ri)
                key = (master, ci, ri)
                assert pair not in seen.values(), f"collision at {key}"
                seen[key] = pair
    # stable across calls
    assert derive_run_seeds(0, 0, 0) == derive_run_seeds(0, 0, 0)


def test_pipeline_records_a_no_op_when_nothing_fails(trained_subject, tmp_path):
    spec, splits, model = trained_subject
    # a target class the model fully masters on the repair split
    from nnpatch import evaluate

    rep = evaluate(model, splits[2])
    per_class_ok = [
        c for c, acc in rep.per_class_accuracy.items() if acc == 1.0
    ]
    assert per_class_ok, "fixture needs one fully-correct class"
    exp = small_experiment(target_class=per_class_ok[0])
    out = tmp_path / "noop"
    result = run_repair_pipeline(model, splits, exp.grid[0], exp, 0, 0, out_dir=out)
    assert result.status == "no_op"
    assert result.identity_fallback
    for name in ("train", "validation", "repair", "test"):
        assert result.splits[name]["broken"] == 0
        assert result.splits[name]["repaired"] == 0
        assert result.splits[name]["before_accuracy"] == result.splits[name]["after_accuracy"]
    assert (out / "run.json").exists()
    assert not (out / "model.json").exists()  # no repair happened


def test_pipeline_gate_holds_on_sampled_positives(trained_subject):
    spec, splits, model = trained_subject
    exp = small_experiment()
    for ri in range(3):
        r = run_repair_pipeline(model, splits, exp.grid[0], exp, 0, ri)
        assert r.status == "ok"
        if not r.identity_fallback:
            assert r.best["n_intact"] == r.n_pos


def test_pipeline_rerun_is_byte_identical(trained_subject, tmp_path):
    spec, splits, model = trained_subject
    exp = small_experiment()
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_repair_pipeline(model, splits, exp.grid[1], exp, 1, 2, out_dir=a)
    run_repair_pipeline(model, splits, exp.grid[1], exp, 1, 2, out_dir=b)
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs between reruns"


def test_run_result_roundtrip_excludes_runtime():
    r = RunResult(
        config_id="cfg000",
        config={"variant": "eq2"},
        rep=1,
        pos_seed=11,
        swarm_seed=22,
        status="ok",
    )
    d = as_dict(r)
    assert "runtime" not in d
    back = from_dict(RunResult, json.loads(json.dumps(r, default=as_dict)))
    # the runtime lives in timing.json only, and a record carrying one is not a RunResult
    assert not hasattr(back, "runtime")
    with pytest.raises(ValueError, match="runtime"):
        from_dict(RunResult, {**d, "runtime": 123.456})
    assert back.config_id == "cfg000" and back.swarm_seed == 22
    assert back == r


def test_sweep_writes_everything_and_aggregates(tmp_path):
    exp = small_experiment()
    out = tmp_path / "sweep"
    agg = run_sweep(exp, out)
    assert len(agg.runs) == 6
    for ci in range(2):
        for ri in range(3):
            run_dir = out / "runs" / f"cfg{ci:03d}" / f"rep{ri:02d}"
            assert (run_dir / "run.json").exists()
            timing = json.loads((run_dir / "timing.json").read_text())
            record = json.loads((run_dir / "run.json").read_text())
            # every particle of every iteration, the identity, and a winner's full breakdown
            searched = exp.grid[ci].n_particles * (exp.n_iterations + 1)
            winner = 0 if record["identity_fallback"] else 1
            assert timing["candidates_scored"] == searched + 1 + winner
            assert 0 <= timing["band_fallback_columns"] <= timing["candidates_scored"] * exp.grid[ci].n_pos
            assert 0 < timing["repair_s"] <= timing["runtime_seconds"]
            # the repair layer is the last one; its units owning a localized weight
            localized = (run_dir / "localized.csv").read_text().splitlines()[1:]
            assert timing["units_total"] == exp.subject.layer_sizes[-1]
            assert timing["units_recomputed"] == len({line.split(",")[3] for line in localized})
    assert (out / "sweep.json").exists()
    assert (out / "aggregate.json").exists()
    assert (out / "subject" / "model.json").exists()
    subject_meta = json.loads((out / "subject" / "subject.json").read_text())
    assert subject_meta["split_sizes"]["train"] == 100

    for cfg in agg.configs:
        assert cfg["n_usable"] == 3
        assert cfg["min_regression_rep"] is not None
        # means match a direct recomputation from the runs
        mine = [r for r in agg.runs if r.config_id == cfg["config_id"]]
        for split_name, means in cfg["means"].items():
            for key, value in means.items():
                expect = float(np.mean([r.splits[split_name][key] for r in mine]))
                assert value == expect
        # min-regression run actually minimizes test breaks, ties to low rep
        breaks = [(r.splits["test"]["broken"], r.rep) for r in mine]
        assert (
            cfg["min_regression_test_broken"],
            cfg["min_regression_rep"],
        ) == min(breaks)


def _bundled(name, edit=lambda text: text):
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(edit((ROOT / "configs" / name).read_text()))
        return experiment_spec_from_config(load_config(path))

    return make


def _yaml_ints(text):
    text = text.replace("alpha: 8.0,", "alpha: 8,").replace("learning_rate: 0.1", "learning_rate: 1")
    assert "alpha: 8," in text and "learning_rate: 1\n" in text
    return text


@pytest.mark.parametrize(
    "make_exp, persisted",
    [
        (lambda _: small_experiment(subject=small_subject(drift=None)), ()),
        (lambda _: small_experiment(subject=small_subject(drift=DriftSpec(1, 0.5, 1.0, seed=9))), ()),
        (_bundled("quickstart.yaml"), ()),
        (_bundled("exp_c.yaml"), ()),
        # YAML ints in float fields are converted, so they persist as floats
        (_bundled("quickstart.yaml", _yaml_ints), (b'"alpha":8.0', b'"learning_rate":1.0')),
    ],
    ids=["no_drift", "drift", "quickstart", "exp_c", "yaml_ints"],
)
def test_sweep_spec_roundtrip(make_exp, persisted, tmp_path):
    exp = make_exp(tmp_path)
    path = tmp_path / "sweep.json"
    _write_json(exp, path)
    data = path.read_bytes()
    back = from_dict(ExperimentSpec, json.loads(data))
    assert back == exp
    for snippet in persisted:
        assert snippet in data
    _write_json(back, path)
    assert path.read_bytes() == data


def test_sweep_resume_matches_uninterrupted(tmp_path):
    exp = small_experiment()
    full_dir = tmp_path / "full"
    run_sweep(exp, full_dir)

    resumed_dir = tmp_path / "resumed"
    run_sweep(exp, resumed_dir)
    # wipe two runs and the aggregate, then resume
    import shutil

    shutil.rmtree(resumed_dir / "runs" / "cfg001" / "rep01")
    (resumed_dir / "aggregate.json").unlink()
    run_sweep(exp, resumed_dir)

    ta, tb = tree_bytes(full_dir), tree_bytes(resumed_dir)
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs after resume"


def test_sweep_reruns_a_truncated_record(tmp_path):
    exp = experiment_spec_from_config(load_config(ROOT / "configs" / "quickstart.yaml"))
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    record = out / "runs" / "cfg001" / "rep01" / "run.json"
    original = record.read_bytes()
    record.write_bytes(original[: len(original) // 2])
    # a report skips the unreadable record instead of crashing
    assert len(load_sweep_dir(out)[1].runs) == len(exp.grid) * exp.repetitions - 1
    # the resume treats it as not done and reruns that run
    agg = run_sweep(exp, out)
    assert len(agg.runs) == len(exp.grid) * exp.repetitions
    assert record.read_bytes() == original


def test_sweep_refuses_a_directory_of_another_spec(tmp_path):
    exp = small_experiment()
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    before = tree_bytes(out, skip=())
    for other in (small_experiment(master_seed=999), small_experiment(n_iterations=0)):
        with pytest.raises(ValueError, match=str(out)):
            run_sweep(other, out)
        assert tree_bytes(out, skip=()) == before
    # an unreadable spec is rewritten, as on a fresh directory
    (out / "sweep.json").write_text("{")
    run_sweep(exp, out)
    assert tree_bytes(out, skip=()) == before
    # more repetitions reuse every old run byte for byte, timing.json included
    run_sweep(small_experiment(repetitions=4), out)
    after = tree_bytes(out, skip=())
    old_runs = {k: v for k, v in before.items() if k.startswith("runs")}
    assert {k: after[k] for k in old_runs} == old_runs
    assert (out / "runs" / "cfg001" / "rep03" / "run.json").exists()
    assert load_sweep_dir(out)[0] == small_experiment(repetitions=4)


def test_sweep_concurrency_is_byte_identical(tmp_path):
    exp = small_experiment()
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    run_sweep(exp, serial, n_workers=1)
    run_sweep(exp, threaded, n_workers=4)
    ta, tb = tree_bytes(serial), tree_bytes(threaded)
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs under concurrency"


def test_sweep_isolates_failing_runs(tmp_path, monkeypatch):
    import nnpatch.harness as harness

    real_repair = harness.repair

    def flaky_repair(model, localized, i_neg, i_pos, fcfg, scfg):
        if fcfg.alpha == 99.0:
            raise RuntimeError("synthetic failure")
        return real_repair(model, localized, i_neg, i_pos, fcfg, scfg)

    monkeypatch.setattr(harness, "repair", flaky_repair)
    exp = small_experiment(
        grid=(
            GridEntry("eq2", 4.0, True, 4, 20, 4),
            GridEntry("eq2", 99.0, False, 4, 20, 4),
        ),
        repetitions=2,
    )
    out = tmp_path / "flaky"
    agg = run_sweep(exp, out)
    by_id = {c["config_id"]: c for c in agg.configs}
    assert by_id["cfg000"]["n_usable"] == 2
    assert by_id["cfg001"]["n_usable"] == 0
    assert by_id["cfg001"]["statuses"] == ["error", "error"]
    assert by_id["cfg001"]["min_regression_rep"] is None
    failed = [r for r in agg.runs if r.status == "error"]
    assert len(failed) == 2
    assert all("synthetic failure" in r.error for r in failed)
    # failed records persist for postmortem
    rec = json.loads((out / "runs" / "cfg001" / "rep00" / "run.json").read_text())
    assert rec["status"] == "error"


def test_load_sweep_dir_reproduces_aggregate(tmp_path):
    exp = small_experiment()
    out = tmp_path / "sweep"
    agg = run_sweep(exp, out)
    loaded_exp, loaded_agg = load_sweep_dir(out)
    assert loaded_exp == exp
    assert json.dumps(loaded_agg, default=as_dict, sort_keys=True) == json.dumps(
        agg, default=as_dict, sort_keys=True
    )


def test_emit_report_files(tmp_path):
    exp = small_experiment(grid=(GridEntry("eq2", 4.0, True, 4, 20, 4),), repetitions=1)
    out = tmp_path / "sweep"
    agg = run_sweep(exp, out)
    report_dir = tmp_path / "report"
    files = emit_report(agg, report_dir)
    names = {f.name for f in files}
    assert names == {"report.json", "runs_long.csv", "config_summary.csv", "min_regression.csv"}

    # single run: long rows are a verbatim passthrough of the RunResult
    run = agg.runs[0]
    lines = (report_dir / "runs_long.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + one row per split
    for line in lines[1:]:
        cells = line.split(",")
        s = run.splits[cells[3]]
        assert cells[0] == run.config_id
        assert int(cells[1]) == run.rep
        assert int(cells[4]) == s["n"]
        assert float(cells[5]) == s["before_accuracy"]
        assert float(cells[6]) == s["after_accuracy"]
        assert int(cells[7]) == s["broken"]
        assert int(cells[8]) == s["repaired"]

    # re-aggregation from the emitted rows reproduces the recorded means
    for cfg in agg.configs:
        relevant = [l for l in lines[1:] if l.startswith(cfg["config_id"] + ",")]
        for split_name, means in cfg["means"].items():
            rows = [l.split(",") for l in relevant if l.split(",")[3] == split_name]
            assert means["broken"] == float(np.mean([int(r[7]) for r in rows]))
            assert means["after_accuracy"] == float(np.mean([float(r[6]) for r in rows]))


def test_emit_report_empty_aggregate(tmp_path):
    agg = AggregateResult(configs=(), runs=())
    files = emit_report(agg, tmp_path / "empty")
    for f in files:
        if f.suffix == ".csv":
            text = f.read_text().strip().splitlines()
            assert len(text) == 1  # header only


def test_aggregate_min_regression_tie_goes_to_lower_rep():
    exp = small_experiment(grid=(GridEntry("eq2", 4.0, True, 4, 20, 4),), repetitions=2)
    splits_stub = {
        name: {
            "n": 10,
            "before_accuracy": 0.5,
            "after_accuracy": 0.5,
            "broken": 1,
            "repaired": 0,
            "broken_ids": ["x"],
            "repaired_ids": [],
        }
        for name in ("train", "validation", "repair", "test")
    }
    runs = [
        RunResult(
            config_id="cfg000",
            config=as_dict(exp.grid[0]),
            rep=rep,
            pos_seed=rep,
            swarm_seed=rep,
            status="ok",
            splits=json.loads(json.dumps(splits_stub)),
        )
        for rep in (0, 1)
    ]
    agg = aggregate_runs(exp, runs)
    assert agg.configs[0]["min_regression_rep"] == 0
