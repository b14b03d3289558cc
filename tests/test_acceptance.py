"""End-to-end acceptance gate.

Nine checks covering the whole pipeline: gradient correctness, localization
against brute force, gate soundness, patch confinement, the bundled drift
scenario, the alpha trend, fitness hand-arithmetic, byte-level determinism,
and sweep protocol bookkeeping. Each check prints one verdict line; run with
`pytest tests/test_acceptance.py -s -v` to see them all.
"""
from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import random_batch, random_model, samples, single_layer_model
from test_harness import small_experiment, tree_bytes
from test_localization import brute_localized, pairs, random_table
from test_repair import fixed_identity_setup, localized_over, repair_scenario

from nnpatch.config import experiment_spec_from_config, load_config
from nnpatch.data import Dataset
from nnpatch.harness import GridEntry, run_sweep, emit_report
from nnpatch.localization import localize
from nnpatch.metrics import diff, evaluate
from nnpatch.network import forward, full_gradients, loss, write_weights
from nnpatch.repair import (
    FitnessConfig,
    SwarmConfig,
    fitness,
    loss_ratio,
    raw_fitness,
    repair,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def verdict(num: int, label: str, passed: bool, detail: str) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num}] {state} {label}: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------- criterion 1

def _manual_trace(model, inputs):
    """Forward pass redone locally; returns hidden pre-activations and probs."""
    a = inputs
    hidden_z = []
    for idx in range(model.n_layers):
        z = a @ model.weights[idx] + model.biases[idx]
        if idx < model.n_layers - 1:
            hidden_z.append(z)
            a = np.maximum(z, 0.0)
        else:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
    return hidden_z, a


def _fd_valid(model, batch, eps):
    """Central differences lie where the loss is locally smooth: away from
    relu kinks and from the probability clamp."""
    hidden_z, probs = _manual_trace(model, batch.features)
    for z in hidden_z:
        if np.abs(z).min() < 10 * eps:
            return False
    true_p = probs[np.arange(len(batch)), batch.labels]
    return true_p.min() >= 1e-9


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    eps = 1e-4
    checked = entries = 0
    worst = 0.0
    attempts = 0
    while checked < 20 and attempts < 500:
        attempts += 1
        model = random_model(rng)
        batch = random_batch(rng, model)
        if not _fd_valid(model, batch, eps):
            continue
        for layer in range(model.n_layers):
            grads = full_gradients(model, batch.features, batch.labels)[0][layer]
            for (i, j), grad in np.ndenumerate(grads):
                w0 = float(model.weights[layer][i, j])
                up = loss(write_weights(model, layer, [i], [j], [w0 + eps]), batch.features, batch.labels)
                dn = loss(write_weights(model, layer, [i], [j], [w0 - eps]), batch.features, batch.labels)
                fd = (up - dn) / (2 * eps)
                err = abs(grad - fd)
                tol = 1e-6 + 1e-4 * abs(fd)
                worst = max(worst, err - tol)
                entries += 1
                assert err <= tol, f"layer {layer} ({i}, {j}): analytic {grad} vs fd {fd}"
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict(
        1, "gradient oracle",
        checked >= 20 and worst <= 0.0 and elapsed < 60.0,
        f"{checked} model/batch pairs, {entries} entries vs central "
        f"differences (eps=1e-4), worst slack {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_localization_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    tables = comparisons = 0
    for k in range(100):
        table = random_table(rng, ties=bool(k % 2))
        assert table.n_weights <= 200
        for n_g in range(1, table.n_weights + 1):
            got = frozenset(pairs(localize(table, n_g)))
            assert got == brute_localized(table, n_g), f"table {k}, n_g {n_g}"
            comparisons += 1
        tables += 1
    elapsed = time.perf_counter() - t0
    verdict(
        2, "localization oracle",
        tables >= 100 and elapsed < 10.0,
        f"{tables} random tables, {comparisons} (table, n_g) pairs against "
        f"brute force, {elapsed:.1f}s",
    )


# ---------------------------------------------------------- criteria 3 and 4

@pytest.fixture(scope="module")
def gate_battery():
    """50 seeded pi=true repairs on random scenarios, kept for inspection."""
    rng = np.random.default_rng(303)
    out = []
    for k in range(50):
        model, loc, i_neg, i_pos = repair_scenario(rng)
        fcfg = FitnessConfig(
            variant="eq1" if k % 2 else "eq2",
            alpha=float(2 ** rng.integers(0, 4)),
            perfect_intact=True,
        )
        scfg = SwarmConfig(n_particles=6, n_iterations=6, seed=k)
        out.append((model, loc, i_pos, repair(model, loc, i_neg, i_pos, fcfg, scfg)))
    return out


def test_criterion_03_gate_soundness(gate_battery):
    fallbacks = violations = 0
    for model, loc, i_pos, res in gate_battery:
        if res.identity_fallback:
            fallbacks += 1
            continue
        preds = np.argmax(forward(res.model, i_pos.features), axis=1)
        broken = int((preds != i_pos.labels).sum())
        if broken != 0:
            violations += 1
    verdict(
        3, "gate soundness",
        violations == 0,
        f"{len(gate_battery)} pi=true runs, {fallbacks} identity fallbacks, "
        f"{violations} runs with broken I_pos instances",
    )


def _confined(original, patched, loc) -> bool:
    """Bit-equality outside the localized weights, biases included."""
    for layer in range(original.n_layers):
        mask = np.ones(original.weights[layer].shape, dtype=bool)
        if layer == loc.layer:
            mask[loc.i, loc.j] = False
        if not np.array_equal(
            original.weights[layer][mask], patched.weights[layer][mask]
        ):
            return False
        if not np.array_equal(original.biases[layer], patched.biases[layer]):
            return False
    return True


def test_criterion_04_patch_confinement(gate_battery):
    bad = sum(
        not _confined(model, res.model, loc)
        for model, loc, _, res in gate_battery
    )
    verdict(
        4, "patch confinement",
        bad == 0,
        f"{len(gate_battery)} repaired models bit-compared outside their "
        f"localized sets, {bad} leaked",
    )


# ---------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def drift_sweep(tmp_path_factory):
    exp = experiment_spec_from_config(load_config(CONFIG_DIR / "exp_c.yaml"))
    out = tmp_path_factory.mktemp("exp_c")
    t0 = time.perf_counter()
    agg = run_sweep(exp, out, n_workers=2)
    return agg, out, time.perf_counter() - t0


def test_criterion_05_drift_scenario(drift_sweep):
    agg, out, elapsed = drift_sweep
    entry = agg.configs[0]["config"]
    assert entry["pi"] is True and entry["alpha"] == 8.0
    wins = 0
    for run in agg.runs:
        if run.status == "error":
            continue
        rep_split = run.splits["repair"]
        test_split = run.splits["test"]
        if (
            rep_split["broken"] == 0
            and rep_split["repaired"] >= 1
            and test_split["after_accuracy"] >= test_split["before_accuracy"]
        ):
            wins += 1
    verdict(
        5, "drift scenario",
        len(agg.runs) == 10 and wins >= 7 and elapsed < 600.0,
        f"{wins}/10 runs with zero repair-data breaks, >=1 repair and no "
        f"test accuracy loss ({elapsed:.0f}s)",
    )


def test_criterion_05b_pipeline_confinement(drift_sweep):
    # extends criterion 4 to the persisted pipeline runs
    agg, out, _ = drift_sweep
    from nnpatch.data import load_model

    original = load_model(out / "subject" / "model.json")
    checked = 0
    for run_dir in sorted((out / "runs" / "cfg000").iterdir()):
        model_path = run_dir / "model.json"
        if not model_path.exists():
            continue
        patched = load_model(model_path)
        with open(run_dir / "localized.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        layers = {int(row["layer"]) for row in rows}
        assert len(layers) <= 1, run_dir  # one layer per localized set
        loc = localized_over(layers.pop() if layers else 0, [(int(r["i"]), int(r["j"])) for r in rows])
        assert _confined(original, patched, loc), run_dir
        checked += 1
    verdict(
        4, "patch confinement (pipeline)",
        checked > 0,
        f"{checked} persisted drift-scenario models bit-compared outside "
        f"their localized.csv sets",
    )


# ---------------------------------------------------------------- criterion 6

def _two_branch_setup():
    """One localized weight w with a discrete trade-off: w slightly above 0
    patches one failure and breaks nothing; w past 1 patches a second
    failure but flips one passed sample. A third failure is unfixable from
    this weight, which keeps the loss-ratio reward bounded, so the branch
    preference crosses between alpha=4 and alpha=6."""
    model = single_layer_model([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    i_neg = samples(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.866, 0.0, 0.0]],
        [1, 1, 1],
        ("fix_easy", "fix_costly", "unfixable"),
    )
    pos_inputs = [[1.0, 0.0, 0.0]] * 9 + [[0.0, 1.0, 1.0]]
    i_pos = samples(pos_inputs, [0] * 10, tuple(f"p{k}" for k in range(9)) + ("frag",))
    loc = localized_over(0, [(2, 1)])
    return model, loc, i_neg, i_pos


def _trend_eval_set(i_neg, i_pos) -> Dataset:
    feats = np.vstack([i_pos.features, i_neg.features])
    labels = np.concatenate([i_pos.labels, i_neg.labels])
    return Dataset(feats, labels, i_pos.sample_ids + i_neg.sample_ids, 2, ("c0", "c1"))


def test_criterion_06_alpha_trend():
    # exact structural form first: one extra regression costs alpha/|I_pos|
    cfg46 = {}
    for alpha in (4.0, 6.0, 8.0):
        cfg = FitnessConfig(variant="eq2", alpha=alpha)
        full = raw_fitness(0, 4, 16, 16, 1.0, 1.0, cfg)
        one_broken = raw_fitness(0, 4, 15, 16, 1.0, 1.0, cfg)
        assert full - one_broken == alpha / 16  # no tolerance
        cfg46[alpha] = full - one_broken

    model, loc, i_neg, i_pos = _two_branch_setup()
    eval_set = _trend_eval_set(i_neg, i_pos)
    before = evaluate(model, eval_set)
    means = {}
    for alpha in (4.0, 6.0):
        broken = []
        for rep in range(10):  # paired: same swarm seeds at both alphas
            fcfg = FitnessConfig(variant="eq2", alpha=alpha, perfect_intact=False)
            scfg = SwarmConfig(n_particles=20, n_iterations=20, seed=rep)
            res = repair(model, loc, i_neg, i_pos, fcfg, scfg)
            assert _confined(model, res.model, loc)
            broken.append(len(diff(before, evaluate(res.model, eval_set)).broken))
        means[alpha] = float(np.mean(broken))
    verdict(
        6, "alpha trend",
        means[6.0] <= means[4.0],
        f"mean broken over 10 paired runs: alpha=4 -> {means[4.0]:.1f}, "
        f"alpha=6 -> {means[6.0]:.1f}; marginal-regression gap exact at "
        f"alpha/|I_pos| for alpha in (4, 6, 8)",
    )


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_fitness_examples():
    # identity patch scores alpha + beta, bit-exact
    for alpha in (1.0, 4.0, 8.0):
        model, i_neg, i_pos, cfg, base = fixed_identity_setup(alpha=alpha)
        bd = fitness(model, i_neg, i_pos, base, cfg)
        assert bd.raw_fitness == alpha + cfg.beta
        assert bd.gated_fitness == bd.raw_fitness

    # gate zeroes a candidate that breaks one I_pos sample
    model, i_neg, i_pos, _, base = fixed_identity_setup(alpha=8.0)
    gated_cfg = FitnessConfig(variant="eq2", alpha=8.0, perfect_intact=True)
    breaker = write_weights(model, 0, [1], [1], [2.0])
    bd = fitness(breaker, i_neg, i_pos, base, gated_cfg)
    assert bd.n_intact == len(i_pos) - 1
    assert bd.gated_fitness == 0.0 and bd.raw_fitness != 0.0

    # hand arithmetic: eq2, alpha=8, beta=0.25, 2/4 patched, 10/10 intact,
    # negative-set loss 1.0 -> 0.5, delta=1e-6
    cfg = FitnessConfig(variant="eq2", alpha=8.0, beta=0.25, delta=1e-6)
    got = raw_fitness(2, 4, 10, 10, loss_ratio(1.0, 0.5, cfg), 1.0, cfg)
    expected = 2 / 4 + 8.0 * (10 / 10) + 0.25 * ((1.0 + 1e-6) / (0.5 + 1e-6))
    err = abs(got - expected)
    verdict(
        7, "fitness hand arithmetic",
        err <= 1e-9,
        f"identity == alpha + beta bit-exact, gate zeroes on one break, "
        f"worked example off by {err:.1e}",
    )


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_determinism(tmp_path):
    exp = small_experiment()
    trees = []
    for name, workers in (("serial", 1), ("pool3", 3), ("again", 1)):
        run_sweep(exp, tmp_path / name, n_workers=workers)
        trees.append(tree_bytes(tmp_path / name))
    same = trees[0] == trees[1] == trees[2]
    verdict(
        8, "byte determinism",
        same,
        f"{len(trees[0])} persisted files identical across serial, 3-worker "
        f"and repeated sweeps (timing sidecars excluded)",
    )


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_sweep_protocol(tmp_path):
    exp = small_experiment(
        grid=(
            GridEntry("eq2", 8.0, True, 32, 500, 200),
            GridEntry("eq2", 4.0, True, 8, 30, 8),
            GridEntry("eq1", 1.0, False, 8, 30, 8),
        ),
        repetitions=10,
    )
    agg = run_sweep(exp, tmp_path / "sweep")
    emit_report(agg, tmp_path / "report")

    rows = []
    with open(tmp_path / "report" / "runs_long.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    ok = len(agg.runs) == 30
    worst = 0.0
    for cfg_rec in agg.configs:
        cid = cfg_rec["config_id"]
        ok = ok and cfg_rec["n_runs"] == 10
        ok = ok and cfg_rec["min_regression_rep"] is not None
        for split, means in cfg_rec["means"].items():
            for key in ("broken", "repaired", "before_accuracy", "after_accuracy"):
                vals = [
                    float(r[key])
                    for r in rows
                    if r["config_id"] == cid and r["split"] == split
                ]
                ok = ok and len(vals) == cfg_rec["n_usable"]
                worst = max(worst, abs(float(np.mean(vals)) - means[key]))
        # min-regression run is the argmin over test-split breaks
        usable = [
            r for r in agg.runs if r.config_id == cid and r.status != "error"
        ]
        best = min(usable, key=lambda r: (r.splits["test"]["broken"], r.rep))
        ok = ok and best.rep == cfg_rec["min_regression_rep"]
    verdict(
        9, "sweep protocol",
        ok and worst <= 1e-12,
        f"3 configs x 10 reps -> {len(agg.runs)} records, means recomputed "
        f"from report rows to {worst:.1e}, min-regression rep per config",
    )
