"""Subject training, the end-to-end repair pipeline, sweep protocol,
aggregation, and report emission."""
from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import re
import resource
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnpatch import (
    Dataset,
    DriftSpec,
    ExperimentSpec,
    GridEntry,
    LocalizedSet,
    Model,
    RunResult,
    SplitSpec,
    SubjectSpec,
    aggregate_runs,
    build_mlp,
    derive_run_seeds,
    emit_report,
    evaluate,
    load_sweep_dir,
    run_repair_pipeline,
    run_sweep,
    train_subject,
)
from nnpatch.config import experiment_spec_from_config, load_config
from nnpatch.formats import as_dict, from_dict, write_json
from nnpatch.harness import AggregateResult
from nnpatch.network import full_gradients
from nnpatch.repair import TELEMETRY
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
    """(spec, model, before): `before` the subject's report of each split."""
    spec = small_subject()
    _, splits = materialize_splits(spec)
    model = train_subject(spec, splits)
    return spec, model, tuple(evaluate(model, ds) for ds in splits)


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
        GridEntry("eq1", 1.0, True, 0, 10, 4)
    # the search knobs of an entry are checked where its search configs are
    # derived, when the spec is built
    for bad, field in ((GridEntry("eq9", 1.0, True, 4, 10, 4), "variant"),
                       (GridEntry("eq1", -1.0, True, 4, 10, 4), "alpha"),
                       (GridEntry("eq1", 1.0, True, 4, 10, 1), "n_particles")):
        with pytest.raises(ValueError, match=field):
            small_experiment(grid=(bad,))
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
    model = train_subject(spec, materialize_splits(spec)[1])
    init = build_mlp(spec.layer_sizes, seed=spec.seed)
    for wa, wb in zip(model.weights, init.weights):
        np.testing.assert_array_equal(wa, wb)
    # the data must fit the layer sizes at 0 epochs too
    wide = small_subject(layer_sizes=(3, 8, 4), source={**spec.source, "n_features": 3})
    with pytest.raises(ValueError, match="n_features must equal layer_sizes"):
        train_subject(spec, materialize_splits(wide)[1])


def test_training_is_deterministic(trained_subject):
    spec, model, before = trained_subject
    again = train_subject(spec, [r.data for r in before])
    for wa, wb in zip(model.weights, again.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(model.biases, again.biases):
        np.testing.assert_array_equal(ba, bb)


def test_training_learns_separable_data(tmp_path):
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
    tmp = tmp_path / "separable.csv"
    from nnpatch import save_dataset

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


def reference_training(spec, splits):
    """Minibatch SGD through the public API: `full_gradients` of a fresh
    `Model` per minibatch, in `train_subject`'s order of draws."""
    train = splits[0]
    model = build_mlp(spec.layer_sizes, seed=spec.seed)
    weights, biases = [w.copy() for w in model.weights], [b.copy() for b in model.biases]
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    for _ in range(spec.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), spec.batch_size):
            idx = order[start : start + spec.batch_size]
            step = Model(tuple(weights), tuple(biases))
            grad_w, grad_b = full_gradients(step, train.features[idx], train.labels[idx])
            for k in range(len(weights)):
                weights[k] -= spec.learning_rate * grad_w[k]
                biases[k] -= spec.learning_rate * grad_b[k]
    return Model(tuple(weights), tuple(biases))


@pytest.mark.parametrize(
    "spec",
    [small_subject(drift=DriftSpec(1, 0.5, 1.0, seed=9)),
     small_subject(layer_sizes=(2, 6, 5, 4), batch_size=7, epochs=5)],
    ids=["drift", "three_layers"],
)
def test_training_matches_a_reference_loop_bit_for_bit(spec):
    _, splits = materialize_splits(spec)
    model, expected = train_subject(spec, splits), reference_training(spec, splits)
    assert model.layers == expected.layers
    for a, b in zip(model.weights + model.biases, expected.weights + expected.biases):
        assert a.tobytes() == b.tobytes()


def test_training_divergence_reports_epoch():
    # the first epoch whose weights or training loss are non-finite
    for learning_rate, epochs, diverged_at in ((1e8, 3, 2), (50.0, 30, 12)):
        spec = small_subject(learning_rate=learning_rate, epochs=epochs)
        _, splits = materialize_splits(spec)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=rf"at epoch {diverged_at}\b"):
            train_subject(spec, splits)


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
    spec, model, before = trained_subject
    # a target class the model fully masters on the repair split
    per_class_ok = [
        c for c, acc in before[2].per_class_accuracy.items() if acc == 1.0
    ]
    assert per_class_ok, "fixture needs one fully-correct class"
    exp = small_experiment(target_class=per_class_ok[0])
    out = tmp_path / "noop"
    result = run_repair_pipeline(model, before, exp, 0, 0, out_dir=out)
    assert result.status == "no_op"
    assert result.identity_fallback
    for name in ("train", "validation", "repair", "test"):
        assert result.splits[name]["broken"] == 0
        assert result.splits[name]["repaired"] == 0
        assert result.splits[name]["before_accuracy"] == result.splits[name]["after_accuracy"]
    assert (out / "run.json").exists()
    assert not (out / "model.json").exists()  # no repair happened


def test_pipeline_gate_holds_on_sampled_positives(trained_subject, tmp_path):
    spec, model, before = trained_subject
    exp = small_experiment()
    for ri in range(3):
        r = run_repair_pipeline(model, before, exp, 0, ri, tmp_path / f"rep{ri:02d}")
        assert r.status == "ok"
        if not r.identity_fallback:
            assert r.best["n_intact"] == r.n_pos


def test_the_subject_is_evaluated_once_per_sweep(tmp_path, monkeypatch):
    # train_and_save_subject evaluates the subject on the four splits, and each run
    # reads those reports: it evaluates only its repaired model, on the same splits
    import nnpatch.harness as harness

    evaluated, real = [], harness.evaluate
    monkeypatch.setattr(harness, "evaluate", lambda m, ds: evaluated.append((m, ds)) or real(m, ds))
    exp = small_experiment()
    agg = run_sweep(exp, tmp_path / "sweep")
    ids = [(id(m), id(ds)) for m, ds in evaluated]
    subject, splits = {m for m, _ in ids[:4]}, [ds for _, ds in ids[:4]]
    runs = [ids[k:k + 4] for k in range(4, len(ids), 4)]
    assert len(subject) == 1 and len(set(splits)) == 4
    assert len(runs) == sum(r.status == "ok" for r in agg.runs) == len(exp.grid) * exp.repetitions
    for run in runs:  # one repaired model per run, on the subject's splits
        assert len({m for m, _ in run}) == 1 and [ds for _, ds in run] == splits


def test_pipeline_rerun_is_byte_identical(trained_subject, tmp_path):
    spec, model, before = trained_subject
    exp = small_experiment()
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_repair_pipeline(model, before, exp, 1, 2, out_dir=a)
    run_repair_pipeline(model, before, exp, 1, 2, out_dir=b)
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
            stages = [timing[k] for k in ("localize_s", "repair_s", "evaluate_s")]
            assert min(stages) > 0 and sum(stages) <= timing["runtime_seconds"]
            assert timing["persist_s"] > 0
            # the search's minor page faults, counted on its own thread where the OS can
            if hasattr(resource, "RUSAGE_THREAD"):
                assert type(timing["repair_minflt"]) is int and timing["repair_minflt"] >= 0
            else:
                assert "repair_minflt" not in timing
            # I_pos holds fewer than 4 * SCREEN samples here, so nothing is screened
            assert timing["gate_screened"] == 0
            # the repair layer is the last one; its units owning a localized weight
            localized = (run_dir / "localized.csv").read_text().splitlines()[1:]
            assert timing["units_total"] == exp.subject.layer_sizes[-1]
            assert timing["units_recomputed"] == len({line.split(",")[3] for line in localized})
            # |W_localized| for every n_g of the repair layer; n_g is the first to reach target_lw
            curve, n_g = timing["localization_curve"], timing["n_g"]
            assert len(curve) == exp.subject.layer_sizes[-2] * exp.subject.layer_sizes[-1]
            if record["localization_warning"] is None:
                assert curve[n_g - 1] >= record["n_localized"] == exp.grid[ci].target_lw
                assert all(size < exp.grid[ci].target_lw for size in curve[: n_g - 1])
    assert (out / "sweep.json").exists()
    assert not (out / "aggregate.json").exists()  # the report holds the aggregate
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
    write_json(path, exp)
    data = path.read_bytes()
    back = from_dict(ExperimentSpec, json.loads(data))
    assert back == exp
    for snippet in persisted:
        assert snippet in data
    write_json(path, back)
    assert path.read_bytes() == data


def test_sweep_resume_matches_uninterrupted(tmp_path):
    exp = small_experiment()
    full_dir = tmp_path / "full"
    run_sweep(exp, full_dir)

    resumed_dir = tmp_path / "resumed"
    run_sweep(exp, resumed_dir)
    # wipe a run, then resume
    import shutil

    shutil.rmtree(resumed_dir / "runs" / "cfg001" / "rep01")
    run_sweep(exp, resumed_dir)

    ta, tb = tree_bytes(full_dir), tree_bytes(resumed_dir)
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs after resume"


def test_finished_sweep_resumes_without_training(tmp_path, monkeypatch):
    import nnpatch.harness as harness

    exp = small_experiment()
    out = tmp_path / "sweep"
    agg = run_sweep(exp, out)
    before = tree_bytes(out, skip=())

    def untrainable(*_):
        raise AssertionError("a resume with nothing to run trains nothing")

    monkeypatch.setattr(harness, "train_subject", untrainable)
    assert run_sweep(exp, out) == agg
    assert tree_bytes(out, skip=()) == before


def test_partial_resume_trains_once_and_reruns_only_the_missing_run(tmp_path, monkeypatch):
    import nnpatch.harness as harness

    exp = small_experiment()
    run_sweep(exp, tmp_path / "fresh")
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    (out / "runs" / "cfg001" / "rep02" / "run.json").unlink()
    before = tree_bytes(out, skip=())
    trained, ran = [], []
    real_train, real_run = harness.train_subject, harness.run_repair_pipeline
    monkeypatch.setattr(harness, "train_subject", lambda *a: trained.append(a) or real_train(*a))
    monkeypatch.setattr(harness, "run_repair_pipeline",
                        lambda *a, **kw: ran.append(a[3:5]) or real_run(*a, **kw))
    run_sweep(exp, out)
    assert len(trained) == 1 and ran == [(1, 2)]
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")
    # every other run keeps its files, timing.json included
    others = lambda tree: {k: v for k, v in tree.items() if "cfg001/rep02" not in k}
    assert others(tree_bytes(out, skip=())) == others(before)


def test_partial_resume_on_another_subject_reruns_every_run(tmp_path, monkeypatch):
    # the runs kept were made on the subject saved before; when the retrained subject
    # differs from it (here: one weight edited on disk), none of them is reused
    import nnpatch.harness as harness
    from nnpatch.data import load_model, save_model

    exp = small_experiment()
    run_sweep(exp, tmp_path / "fresh")
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    subject = out / "subject" / "model.json"
    model = load_model(subject)
    weights = [w.copy() for w in model.weights]
    weights[0][0, 0] += 0.5
    save_model(Model(tuple(weights), model.biases), subject)
    (out / "runs" / "cfg001" / "rep02" / "run.json").unlink()
    ran, real_run = [], harness.run_repair_pipeline
    monkeypatch.setattr(harness, "run_repair_pipeline",
                        lambda *a, **kw: ran.append(a[3:5]) or real_run(*a, **kw))
    run_sweep(exp, out)
    assert sorted(ran) == [(ci, ri) for ci in range(len(exp.grid)) for ri in range(exp.repetitions)]
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")


def test_sweep_reruns_a_run_without_its_timing_json(tmp_path, monkeypatch):
    import nnpatch.harness as harness

    exp = small_experiment()
    run_sweep(exp, tmp_path / "fresh")
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    (out / "runs" / "cfg000" / "rep01" / "timing.json").unlink()
    ran, real_run = [], harness.run_repair_pipeline
    monkeypatch.setattr(harness, "run_repair_pipeline",
                        lambda *a, **kw: ran.append(a[3:5]) or real_run(*a, **kw))
    run_sweep(exp, out)
    assert ran == [(0, 1)]
    assert (out / "runs" / "cfg000" / "rep01" / "timing.json").exists()
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")


@pytest.mark.parametrize("name", ["model.json", "trace.csv", "localized.csv"])
def test_sweep_reruns_an_ok_run_without_one_of_its_files(tmp_path, monkeypatch, name):
    import nnpatch.harness as harness

    exp = small_experiment()
    run_sweep(exp, tmp_path / "fresh")
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    run = out / "runs" / "cfg000" / "rep01"
    assert json.loads((run / "run.json").read_text())["status"] == "ok"
    (run / name).unlink()
    before = tree_bytes(out, skip=())
    ran, real_run = [], harness.run_repair_pipeline
    monkeypatch.setattr(harness, "run_repair_pipeline",
                        lambda *a, **kw: ran.append(a[3:5]) or real_run(*a, **kw))
    run_sweep(exp, out)
    assert ran == [(0, 1)]
    assert (run / name).read_bytes() == (tmp_path / "fresh" / run.relative_to(out) / name).read_bytes()
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")
    # every other run keeps its files, timing.json included
    others = lambda tree: {k: v for k, v in tree.items() if "cfg000/rep01" not in k}
    assert others(tree_bytes(out, skip=())) == others(before)


def test_sweep_deletes_a_leftover_aggregate_json(tmp_path):
    # earlier versions wrote aggregate.json beside report/report.json; a resume
    # that changes the runs would leave it contradicting the report
    exp = small_experiment()
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    (out / "aggregate.json").write_text("{}\n")
    run_sweep(dataclasses.replace(exp, repetitions=4), out)
    assert not (out / "aggregate.json").exists()


def test_pipeline_records_no_search_space_for_an_empty_localized_set(trained_subject, tmp_path,
                                                                      monkeypatch):
    import nnpatch.harness as harness

    spec, model, before = trained_subject
    empty = LocalizedSet(1, [], [], n_g=1, warning="localized set is empty")
    monkeypatch.setattr(harness, "localize_to_count", lambda *a: empty)
    out = tmp_path / "run"
    result = run_repair_pipeline(model, before, small_experiment(), 0, 0, out_dir=out)
    assert result.status == "ok" and result.n_localized == 0
    assert result.no_search_space and result.identity_fallback
    assert all(result.splits[name]["broken"] == 0 for name in result.splits)
    timing = json.loads((out / "timing.json").read_text())
    assert {k: timing[k] for k in TELEMETRY} == dict.fromkeys(TELEMETRY, 0)


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="no per-thread page faults")
def test_hidden_layer_repair_faults_no_pages_per_iteration(tmp_path):
    # exp_c repaired at layer 0: 911 I_pos samples, so R's z stacks outgrow 128 KiB,
    # and scratch allocated per call would be faulted in again on every iteration
    cfg = load_config(ROOT / "configs" / "exp_c.yaml")
    cfg["repair"]["layer"] = 0
    exp = experiment_spec_from_config(cfg)
    _, splits = materialize_splits(exp.subject)
    model = train_subject(exp.subject, splits)
    before = tuple(evaluate(model, ds) for ds in splits)
    faults = {}
    for n_iterations in (4, 40):
        out = tmp_path / f"iters{n_iterations}"
        record = run_repair_pipeline(model, before,
                                     dataclasses.replace(exp, n_iterations=n_iterations), 0, 0, out)
        assert record.status == "ok" and record.n_pos >= 900
        faults[n_iterations] = json.loads((out / "timing.json").read_text())["repair_minflt"]
    assert faults[40] - faults[4] < 1000, faults


def test_persist_s_times_the_writes_before_timing_json(trained_subject, tmp_path, monkeypatch):
    import time

    import nnpatch.harness as harness

    _, model, before = trained_subject
    write_trace = harness.write_trace_csv

    def slow_trace(*args):
        time.sleep(0.05)
        write_trace(*args)

    monkeypatch.setattr(harness, "write_trace_csv", slow_trace)
    out = tmp_path / "run"
    run_repair_pipeline(model, before, small_experiment(), 0, 0, out_dir=out)
    timing = json.loads((out / "timing.json").read_text())
    assert timing["persist_s"] >= 0.05


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


def test_sweep_reruns_a_record_whose_runtime_overflows_a_float(tmp_path):
    exp = small_experiment()
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    timing = out / "runs" / "cfg001" / "rep01" / "timing.json"
    write_json(timing, {**json.loads(timing.read_text()), "runtime_seconds": 10 ** 400})
    # a report leaves the record out instead of raising OverflowError
    assert len(load_sweep_dir(out)[1].runs) == len(exp.grid) * exp.repetitions - 1
    # the resume treats it as not done and reruns that run
    agg = run_sweep(exp, out)
    assert len(agg.runs) == len(exp.grid) * exp.repetitions
    assert isinstance(json.loads(timing.read_text())["runtime_seconds"], float)


def test_sweep_reruns_a_record_without_splits(tmp_path):
    exp = small_experiment()
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    record = out / "runs" / "cfg001" / "rep01" / "run.json"
    original = record.read_bytes()
    write_json(record, {**json.loads(original), "splits": {}})
    # a record that parses but lacks a split's outcome is neither reported nor trusted
    assert len(load_sweep_dir(out)[1].runs) == len(exp.grid) * exp.repetitions - 1
    agg = run_sweep(exp, out)
    assert len(agg.runs) == len(exp.grid) * exp.repetitions
    assert record.read_bytes() == original


def test_sweep_reruns_a_record_copied_from_another_run(tmp_path):
    exp = small_experiment()
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    records = [out / "runs" / cfg / rep / "run.json" for cfg, rep in
               (("cfg000", "rep00"), ("cfg000", "rep01"), ("cfg001", "rep01"), ("cfg001", "rep02"))]
    originals = [r.read_bytes() for r in records]
    # another repetition's record, another config's record, and a record naming
    # its own directory but another grid entry
    records[1].write_bytes(originals[0])
    records[2].write_bytes(originals[1])
    other_entry = json.loads(originals[3])
    other_entry["config"] = json.loads(originals[0])["config"]
    write_json(records[3], other_entry)
    assert len(load_sweep_dir(out)[1].runs) == len(exp.grid) * exp.repetitions - 3
    agg = run_sweep(exp, out)
    assert sorted((r.config_id, r.rep) for r in agg.runs) == [
        (f"cfg{ci:03d}", ri) for ci in range(len(exp.grid)) for ri in range(exp.repetitions)
    ]
    assert [r.read_bytes() for r in records] == originals


def test_sweep_refuses_a_directory_of_another_spec(tmp_path):
    exp = small_experiment()
    out = tmp_path / "sweep"
    run_sweep(exp, out)
    before = tree_bytes(out, skip=())
    for other in (small_experiment(master_seed=999), small_experiment(n_iterations=0)):
        with pytest.raises(ValueError, match=str(out)):
            run_sweep(other, out)
        assert tree_bytes(out, skip=()) == before
    # an unreadable spec is rewritten and every run is rerun, as on a fresh
    # directory: the same spec gives the same bytes, timing.json aside
    (out / "sweep.json").write_text("{")
    run_sweep(exp, out)
    assert tree_bytes(out) == {k: v for k, v in before.items() if not k.endswith("timing.json")}
    # more repetitions reuse every old run byte for byte, timing.json included
    before = tree_bytes(out, skip=())
    run_sweep(small_experiment(repetitions=4), out)
    after = tree_bytes(out, skip=())
    old_runs = {k: v for k, v in before.items() if k.startswith("runs")}
    assert {k: after[k] for k in old_runs} == old_runs
    assert (out / "runs" / "cfg001" / "rep03" / "run.json").exists()
    assert load_sweep_dir(out)[0] == small_experiment(repetitions=4)


@pytest.mark.parametrize("damage", ["truncated", "missing", "inertia", "overflow"])
def test_sweep_reuses_no_run_without_a_readable_spec(tmp_path, damage):
    out = tmp_path / "sweep"
    run_sweep(small_experiment(n_iterations=2), out)
    spec = out / "sweep.json"
    if damage == "missing":
        spec.unlink()
    elif damage == "truncated":
        spec.write_bytes(spec.read_bytes()[:10])
    elif damage == "overflow":  # a float field holding an int no float can hold
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "beta": 10 ** 400}))
    else:  # a spec from before the swarm's coefficients became constants
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "inertia": 0.7298}))
    # nothing says which spec made the runs, so none of them is reused
    exp = small_experiment(n_iterations=5)
    agg = run_sweep(exp, out)
    assert agg == run_sweep(exp, tmp_path / "fresh")
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")
    trace = (out / "runs" / "cfg000" / "rep00" / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 1 + 5  # header, the initial swarm, one row per iteration


@pytest.mark.parametrize("outcome", ["no_op", "error"])
def test_sweep_rerun_leaves_no_file_of_an_earlier_outcome(trained_subject, tmp_path, monkeypatch,
                                                           outcome):
    import nnpatch.harness as harness

    *_, before = trained_subject
    out, run_dir = tmp_path / "sweep", tmp_path / "sweep" / "runs" / "cfg000" / "rep00"
    run_sweep(small_experiment(), out)
    artefacts = ("model.json", "trace.csv", "localized.csv")
    assert all((run_dir / name).exists() for name in artefacts)
    # without a spec every run is rerun, here with an outcome that writes fewer files
    (out / "sweep.json").unlink()
    if outcome == "no_op":  # a target class the subject fully masters on the repair split
        accuracy = before[2].per_class_accuracy
        exp = small_experiment(target_class=min(c for c, acc in accuracy.items() if acc == 1.0))
    else:
        exp = small_experiment()
        monkeypatch.setattr(harness, "repair", lambda *_: 1 / 0)
    agg = run_sweep(exp, out)
    assert {r.status for r in agg.runs} == {outcome}
    assert not any((run_dir / name).exists() for name in artefacts)
    run_sweep(exp, tmp_path / "fresh")
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")


def test_interrupted_rerun_without_a_spec_reuses_no_old_run(tmp_path, monkeypatch):
    import nnpatch.harness as harness

    class Interrupted(BaseException):
        pass

    out = tmp_path / "sweep"
    run_sweep(small_experiment(n_iterations=2), out)
    (out / "sweep.json").unlink()
    real, calls = harness.run_repair_pipeline, []

    def stopped_after_one_run(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise Interrupted
        return real(*args, **kwargs)

    exp = small_experiment(n_iterations=5)
    monkeypatch.setattr(harness, "run_repair_pipeline", stopped_after_one_run)
    with pytest.raises(Interrupted):
        run_sweep(exp, out)
    monkeypatch.setattr(harness, "run_repair_pipeline", real)
    # the resume finds this spec's sweep.json, yet no record of the old spec
    run_sweep(exp, out)
    run_sweep(exp, tmp_path / "fresh")
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")


def assert_nothing_left_behind(out):
    # no child process at all: the sweep reaped the writer it started, and
    # the writer left no temp file
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(Path(out).rglob("*.tmp"))


@pytest.mark.parametrize("n_workers", [1, 3])
def test_a_sweep_leaves_no_writer_process_or_temp_file(tmp_path, n_workers):
    # more workers than cores, switching threads often: a second writer started by a
    # racing hand-off, or hand-offs mixed on the pipe, would be left behind or garbled
    out = tmp_path / "sweep"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_sweep(small_experiment(), out, n_workers=n_workers)
    finally:
        sys.setswitchinterval(interval)
    assert_nothing_left_behind(out)
    run_sweep(small_experiment(), tmp_path / "serial")
    assert tree_bytes(out) == tree_bytes(tmp_path / "serial")


@pytest.mark.parametrize("n_workers", [1, 3])
def test_a_sweep_whose_runs_path_is_a_file_raises_oserror_naming_it(tmp_path, n_workers):
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "runs").write_text("")
    with pytest.raises(OSError, match=re.escape(str(out / "runs"))):
        run_sweep(small_experiment(), out, n_workers=n_workers)
    assert_nothing_left_behind(out)


def test_an_interrupted_sweep_writes_its_finished_runs_and_leaves_nothing_behind(tmp_path,
                                                                                 monkeypatch):
    import nnpatch.harness as harness

    class Interrupted(BaseException):
        pass

    exp = small_experiment()
    real, calls = harness.run_repair_pipeline, []

    def stopped_after_one_run(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise Interrupted
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_repair_pipeline", stopped_after_one_run)
    out = tmp_path / "sweep"
    with pytest.raises(Interrupted):
        run_sweep(exp, out)
    assert_nothing_left_behind(out)
    # the run handed off before the interrupt is written whole; the interrupted one not at all
    assert harness._load_run(out, exp, 0, 0) is not None
    assert not (out / "runs" / "cfg000" / "rep01").exists()


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


@pytest.fixture(scope="module")
def fault_free_2x2(tmp_path_factory):
    """A 2 configs x 2 repetitions spec, its fault-free sweep's bytes and its directory."""
    exp = small_experiment(repetitions=2)
    out = tmp_path_factory.mktemp("fault_free")
    run_sweep(exp, out)
    return exp, tree_bytes(out), out


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(ci=st.integers(0, 1), ri=st.integers(0, 1),
       stage=st.sampled_from(["select_repair_inputs", "localize_to_count", "repair",
                              "write_trace_csv"]))
def test_a_failing_run_becomes_one_error_record(fault_free_2x2, tmp_path_factory, ci, ri, stage):
    # one run fails in one of its stages (write_trace_csv after model.json is written):
    # it alone becomes an error record that names the exception, every other file of
    # the sweep is the fault-free sweep's, and a resume reruns it to the fault-free bytes
    import nnpatch.harness as harness

    exp, fault_free, _ = fault_free_2x2
    out = tmp_path_factory.mktemp("faulty")
    real, calls = getattr(harness, stage), []

    def faulty(*args):
        calls.append(args)
        if len(calls) == 1 + 2 * ci + ri:  # a serial sweep runs (0, 0), (0, 1), (1, 0), (1, 1)
            raise RuntimeError(f"injected into {stage}")
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, stage, faulty)
        agg = run_sweep(exp, out)
    failed = [r for r in agg.runs if r.status == "error"]
    assert [(r.config_id, r.rep, r.error) for r in failed] == [
        (f"cfg{ci:03d}", ri, f"RuntimeError: injected into {stage}")]
    run_dir = f"runs/cfg{ci:03d}/rep{ri:02d}/"
    assert sorted(p.name for p in (out / run_dir).iterdir()) == ["run.json", "timing.json"]
    others = lambda tree: {k: v for k, v in tree.items() if not k.startswith(run_dir)}
    assert others(tree_bytes(out)) == others(fault_free)
    (out / run_dir / "run.json").unlink()
    run_sweep(exp, out)
    assert tree_bytes(out) == fault_free


def damage_run(run_dir, name, how):
    path = run_dir / name
    if how == "delete":
        path.unlink()
    elif how == "truncate":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif how == "garble":
        path.write_bytes(path.read_bytes()[::-1])
    else:  # overflow: a number that no float holds, where a float is read
        record = json.loads(path.read_text())
        if name == "timing.json":
            record["runtime_seconds"] = 10 ** 400
        else:
            record["splits"]["test"]["broken"] = 10 ** 400
        write_json(path, record)


RUN_DAMAGES = [(name, how) for name in ("run.json", "timing.json")
               for how in ("delete", "truncate", "garble", "overflow")] + [("model.json", "delete")]


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(damaged=st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                               st.sampled_from(RUN_DAMAGES), max_size=4))
def test_a_resume_reruns_exactly_the_damaged_runs(fault_free_2x2, tmp_path_factory, damaged):
    # any set of runs, each with one damaged file: a resume reruns exactly those,
    # and every file but timing.json ends as the fault-free sweep's
    import nnpatch.harness as harness

    exp, fault_free, finished = fault_free_2x2
    out = tmp_path_factory.mktemp("damaged") / "sweep"
    shutil.copytree(finished, out)
    for (ci, ri), (name, how) in damaged.items():
        damage_run(out / "runs" / f"cfg{ci:03d}" / f"rep{ri:02d}", name, how)
    real, ran = harness.run_repair_pipeline, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_repair_pipeline",
                   lambda *a, **kw: ran.append(a[3:5]) or real(*a, **kw))
        run_sweep(exp, out)
    assert sorted(ran) == sorted(damaged)
    assert tree_bytes(out) == fault_free


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


def test_emit_report_bytes(tmp_path):
    exp = small_experiment(grid=(GridEntry("eq1", 0.5, False, 3, 10, 2),), repetitions=2)
    splits = {
        name: {"n": 10 + k, "before_accuracy": 0.1 + 0.2, "after_accuracy": 2 / 3, "broken": k,
               "repaired": 1, "broken_ids": [], "repaired_ids": []}
        for k, name in enumerate(("train", "validation", "repair", "test"))
    }
    agg = aggregate_runs(exp, [
        RunResult("cfg000", as_dict(exp.grid[0]), 0, 1, 2, "ok", splits=splits),
        RunResult("cfg000", as_dict(exp.grid[0]), 1, 3, 4, "error", error="RuntimeError: x"),
    ])
    emit_report(agg, tmp_path)
    assert (tmp_path / "runs_long.csv").read_text() == (
        "config_id,rep,status,split,n,before_accuracy,after_accuracy,broken,repaired\n"
        "cfg000,0,ok,train,10,0.30000000000000004,0.6666666666666666,0,1\n"
        "cfg000,0,ok,validation,11,0.30000000000000004,0.6666666666666666,1,1\n"
        "cfg000,0,ok,repair,12,0.30000000000000004,0.6666666666666666,2,1\n"
        "cfg000,0,ok,test,13,0.30000000000000004,0.6666666666666666,3,1\n"
    )
    assert (tmp_path / "config_summary.csv").read_text() == (
        "config_id,variant,alpha,pi,target_lw,n_pos,n_particles,n_usable,split,"
        "mean_broken,mean_repaired,mean_before_accuracy,mean_after_accuracy\n"
        "cfg000,eq1,0.5,false,3,10,2,1,train,0.0,1.0,0.30000000000000004,0.6666666666666666\n"
        "cfg000,eq1,0.5,false,3,10,2,1,validation,1.0,1.0,0.30000000000000004,0.6666666666666666\n"
        "cfg000,eq1,0.5,false,3,10,2,1,repair,2.0,1.0,0.30000000000000004,0.6666666666666666\n"
        "cfg000,eq1,0.5,false,3,10,2,1,test,3.0,1.0,0.30000000000000004,0.6666666666666666\n"
    )


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
