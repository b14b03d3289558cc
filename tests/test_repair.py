"""Fitness variants, gating, swarm initialization, and the PSO repair loop."""
from __future__ import annotations

import dataclasses
import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnpatch import (
    FitnessConfig,
    LocalizedSet,
    Model,
    SwarmConfig,
    init_swarm,
    repair,
    sample_positives,
)
from nnpatch.network import forward, loss, write_weights
from nnpatch.repair import (
    SCREEN,
    TELEMETRY,
    VARIANTS,
    BatchScorer,
    fitness,
    layer_weight_stats,
    loss_ratio,
    raw_fitness,
    write_trace_csv,
)

from helpers import random_batch, random_model, samples, single_layer_model, toy_dataset

repair_module = importlib.import_module("nnpatch.repair")  # `nnpatch.repair` is the function


def base_losses(model, i_neg, i_pos):
    return tuple(loss(model, s.features, s.labels) for s in (i_neg, i_pos))


def localized_over(layer, pairs):
    """The localized set of the (i, j) `pairs` of `layer`, in the order given."""
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return LocalizedSet(layer, i, j, n_g=len(pairs))


def write_localized(model, localized, values):
    return write_weights(model, localized.layer, localized.i, localized.j, values)


def set_chunk(scorer, chunk):
    """Chunk every set `scorer` caches, each part of I_pos included, by `chunk`
    candidates."""
    scorer.neg = scorer.neg._replace(chunk=chunk)
    scorer.pos = tuple(c._replace(chunk=chunk) for c in scorer.pos)


def repair_scenario(rng, pin_labels=True, any_layer=False):
    """Random model plus I_neg (all failing) and I_pos (all passing),
    localized on the last layer or, with any_layer, on a random one."""
    m = random_model(rng)
    neg = random_batch(rng, m, prefix="n")
    pos = random_batch(rng, m, prefix="p")
    if pin_labels:
        pred_n = np.argmax(forward(m, neg.features), axis=1)
        pred_p = np.argmax(forward(m, pos.features), axis=1)
        neg = samples(neg.features, (pred_n + 1) % m.n_classes, neg.sample_ids)
        pos = samples(pos.features, pred_p, pos.sample_ids)
    layer = int(rng.integers(0, m.n_layers)) if any_layer else m.n_layers - 1
    n_in, n_out = m.weights[layer].shape
    k = int(rng.integers(1, n_in * n_out + 1))
    i, j = np.divmod(np.sort(rng.choice(n_in * n_out, size=k, replace=False)), n_out)
    return m, LocalizedSet(layer, i, j, n_g=k), neg, pos


def test_fitness_config_validation():
    with pytest.raises(ValueError):
        FitnessConfig(variant="eq3")
    with pytest.raises(ValueError):
        FitnessConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        FitnessConfig(delta=0.0)
    with pytest.raises(ValueError):
        FitnessConfig(beta=-0.5)
    # a non-finite term would score every candidate nan or -inf, so the search
    # would end in an identity fallback instead of the spec being refused
    for name, value in [("alpha", float("nan")), ("alpha", float("inf")),
                        ("beta", float("inf")), ("delta", float("inf"))]:
        with pytest.raises(ValueError, match=name):
            FitnessConfig(**{name: value})


def test_batch_scorer_refuses_an_empty_set_or_a_label_out_of_range():
    model, localized, i_neg, i_pos = threshold_setup()
    empty = i_pos.subset([])
    for neg, pos, match in ((empty, i_pos, "non-empty"), (i_neg, empty, "non-empty"),
                            (samples([[1.0, 0.0]], [2], ("n0",)), i_pos, "label out of range")):
        with pytest.raises(ValueError, match=match):
            BatchScorer(model, localized, neg, pos, FitnessConfig())


def test_swarm_config_validation():
    with pytest.raises(ValueError):
        SwarmConfig(n_particles=1)
    with pytest.raises(ValueError):
        SwarmConfig(n_iterations=-1)
    SwarmConfig(n_iterations=0)  # no-step runs are legal


def test_sample_positives_saturation_and_determinism():
    pool = toy_dataset(n=20, n_classes=2, seed=0)
    assert sample_positives(pool, 100, seed=1) is pool
    a = sample_positives(pool, 7, seed=5)
    b = sample_positives(pool, 7, seed=5)
    assert a.sample_ids == b.sample_ids
    assert list(a.sample_ids) == sorted(a.sample_ids, key=pool.sample_ids.index)  # pool order
    with pytest.raises(ValueError):
        sample_positives(pool, 0, seed=1)
    empty = samples(np.zeros((0, pool.features.shape[1])), np.zeros(0, dtype=int), ())
    with pytest.raises(ValueError):
        sample_positives(empty, 5, seed=1)


def test_sample_positives_large_pool_scan():
    rng = np.random.default_rng(2)
    pool = samples(
        rng.normal(size=(2000, 3)),
        rng.integers(0, 4, 2000),
        tuple(f"s{k}" for k in range(2000)),
    )
    got = sample_positives(pool, 500, seed=9)
    assert len(got) == 500
    assert len(set(got.sample_ids)) == 500
    assert set(got.sample_ids) <= set(pool.sample_ids)


def test_raw_fitness_hand_arithmetic():
    cfg = FitnessConfig(variant="eq2", alpha=8.0, beta=0.25, delta=1e-6)
    r_neg = loss_ratio(1.0, 0.5, cfg)
    got = raw_fitness(2, 4, 10, 10, r_neg, r_pos=123.0, cfg=cfg)
    expected = 0.5 + 8.0 + 0.25 * (1.000001 / 0.500001)
    assert abs(got - expected) <= 1e-9
    assert loss_ratio(1.0, 0.25, cfg) > r_neg  # a smaller post-repair loss raises R
    # eq1 with the same inputs adds both ratios instead
    cfg1 = FitnessConfig(variant="eq1", alpha=8.0, delta=1e-6)
    got1 = raw_fitness(2, 4, 10, 10, r_neg, 2.0, cfg1)
    assert abs(got1 - (0.5 + 8.0 + r_neg + 2.0)) <= 1e-9


def fixed_identity_setup(alpha=8.0, n_pos=16):
    """Single-layer model where I_neg fails and I_pos passes.

    Feature 0 drives 15 passing samples and the failing one; feature 1
    drives one passing sample, so edits to row 1 touch exactly that sample.
    """
    model = single_layer_model([[1.0, 0.0], [1.0, 0.0]])
    i_neg = samples([[1.0, 0.0]], [1], ("neg0",))
    pos_inputs = [[1.0, 0.0]] * (n_pos - 1) + [[0.0, 1.0]]
    i_pos = samples(pos_inputs, [0] * n_pos, tuple(f"pos{k}" for k in range(n_pos)))
    cfg = FitnessConfig(variant="eq2", alpha=alpha, beta=0.25, perfect_intact=False)
    base = base_losses(model, i_neg, i_pos)
    return model, i_neg, i_pos, cfg, base


def test_identity_patch_scores_alpha_plus_beta_exactly():
    model, i_neg, i_pos, cfg, base = fixed_identity_setup()
    bd = fitness(model, i_neg, i_pos, base, cfg)
    assert bd.n_patched == 0
    assert bd.n_intact == len(i_pos)
    assert bd.raw_fitness == cfg.alpha + cfg.beta
    assert bd.gated_fitness == bd.raw_fitness
    # default coefficients too
    cfg_default = FitnessConfig()
    bd2 = fitness(model, i_neg, i_pos, base_losses(model, i_neg, i_pos), cfg_default)
    assert bd2.raw_fitness == cfg_default.alpha + cfg_default.beta


def test_gate_zeroes_fitness_on_a_single_break():
    model, i_neg, i_pos, cfg, base = fixed_identity_setup()
    gated_cfg = FitnessConfig(
        variant="eq2", alpha=cfg.alpha, beta=cfg.beta, perfect_intact=True
    )
    # push weight [1,1] up: the lone feature-1 sample flips to class 1
    broken = write_weights(model, 0, [1], [1], [2.0])
    bd = fitness(broken, i_neg, i_pos, base, gated_cfg)
    assert bd.n_intact == len(i_pos) - 1
    assert bd.gated_fitness == 0.0
    assert bd.raw_fitness != 0.0
    # same candidate without the gate keeps its raw score
    ungated = fitness(broken, i_neg, i_pos, base, cfg)
    assert ungated.gated_fitness == ungated.raw_fitness


def test_marginal_regression_costs_alpha_over_ipos_exactly():
    # every term is dyadic, so the gap is exact in floating point
    model, i_neg, i_pos, cfg, base = fixed_identity_setup(alpha=8.0, n_pos=16)
    identity = fitness(model, i_neg, i_pos, base, cfg)
    one_break = fitness(
        write_weights(model, 0, [1], [1], [2.0]), i_neg, i_pos, base, cfg
    )
    assert identity.n_intact - one_break.n_intact == 1
    assert one_break.n_patched == identity.n_patched
    assert identity.raw_fitness - one_break.raw_fitness == cfg.alpha / len(i_pos)


def test_raw_fitness_nondecreasing_in_alpha():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_pos = int(rng.integers(1, 30))
        n_intact = int(rng.integers(1, n_pos + 1))
        n_neg = int(rng.integers(1, 10))
        n_patched = int(rng.integers(0, n_neg + 1))
        r_neg = float(rng.uniform(0.1, 5))
        r_pos = float(rng.uniform(0.1, 5))
        alphas = sorted(rng.uniform(0, 10, size=3))
        vals = [
            raw_fitness(
                n_patched, n_neg, n_intact, n_pos, r_neg, r_pos,
                FitnessConfig(variant="eq2", alpha=a),
            )
            for a in alphas
        ]
        assert vals == sorted(vals)


def test_fitness_scores_nonfinite_loss_as_worst_candidate():
    model, i_neg, _, _, _ = fixed_identity_setup()
    # a passed sample with feature 0 at 2: under W[0,0] = 1e308 its class-0 logit overflows
    i_pos = samples([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], [0, 0, 0], ("p0", "p1", "p2"))
    base = base_losses(model, i_neg, i_pos)
    huge = write_weights(model, 0, [0], [0], [1e308])
    with np.errstate(over="ignore"):
        assert (i_pos.features @ huge.weights[0])[2, 0] == np.inf
    for variant in ("eq1", "eq2"):
        cfg = FitnessConfig(variant=variant)
        with np.errstate(over="ignore", invalid="ignore"):
            bd = fitness(huge, i_neg, i_pos, base, cfg)
        assert bd.raw_fitness == bd.gated_fitness == -np.inf


def test_init_swarm_half_half_two_particles():
    rng = np.random.default_rng(4)
    m, localized, neg, pos = repair_scenario(rng)
    original = m.weights[localized.layer][localized.i, localized.j]
    positions, velocities = init_swarm(
        localized, m, SwarmConfig(n_particles=2), np.random.default_rng(3)
    )
    assert positions.shape == velocities.shape == (2, len(localized))
    np.testing.assert_array_equal(positions[0], original)
    assert (positions[1] != original).any()
    np.testing.assert_array_equal(velocities, np.zeros_like(positions))
    # the sampled half is the stream's first normal block
    mu, sigma = layer_weight_stats(m, localized.layer)
    expected = np.random.default_rng(3).normal(mu, sigma, size=(1, len(localized)))
    np.testing.assert_array_equal(positions[1:], expected)


def test_init_swarm_original_half_matches_identity_fitness():
    rng = np.random.default_rng(5)
    m, localized, neg, pos = repair_scenario(rng)
    cfg = FitnessConfig()
    base = base_losses(m, neg, pos)
    identity = fitness(m, neg, pos, base, cfg)
    original = m.weights[localized.layer][localized.i, localized.j]
    positions, _ = init_swarm(localized, m, SwarmConfig(n_particles=5), np.random.default_rng(7))
    for row in positions[:3]:  # ceil(5/2) = 3 original-position particles
        assert row.tobytes() == original.tobytes()
        bd = fitness(write_localized(m, localized, row), neg, pos, base, cfg)
        assert bd.raw_fitness == identity.raw_fitness
        assert bd.n_intact == identity.n_intact


def test_init_swarm_sampled_half_statistics():
    m = single_layer_model([[0.8, -0.2], [0.4, 0.1]])
    mu, sigma = layer_weight_stats(m, 0)
    localized = localized_over(0, [(0, 0)])
    positions, _ = init_swarm(
        localized, m, SwarmConfig(n_particles=20000), np.random.default_rng(11)
    )
    draws = positions[10000:, 0]
    assert len(draws) == 10000
    assert abs(draws.mean() - mu) <= 3 * sigma / np.sqrt(10000)


def test_layer_weight_stats_degenerate_sigma():
    # fallback is max(|mu|, 1) * 1e-2
    m = single_layer_model([[0.5, 0.5], [0.5, 0.5]])
    mu, sigma = layer_weight_stats(m, 0)
    assert mu == 0.5
    assert sigma == 1e-2
    big = single_layer_model([[3.0, 3.0], [3.0, 3.0]])
    _, sigma_big = layer_weight_stats(big, 0)
    assert sigma_big == 3.0 * 1e-2
    m0 = single_layer_model(np.zeros((2, 2)))
    _, sigma0 = layer_weight_stats(m0, 0)
    assert sigma0 == 1e-2


def test_init_swarm_rejects_empty_localized():
    m = single_layer_model(np.eye(2))
    with pytest.raises(ValueError):
        init_swarm(localized_over(0, []), m, SwarmConfig(), np.random.default_rng(0))


def test_batch_scorer_matches_fitness_reference():
    rng = np.random.default_rng(31)
    for trial in range(24):
        m, localized, neg, pos = repair_scenario(rng, any_layer=True)
        cfg = FitnessConfig(
            variant=("eq1", "eq2")[trial % 2],
            alpha=float(rng.uniform(0.5, 8)),
            perfect_intact=bool(trial // 2 % 2),
        )
        scorer = BatchScorer(m, localized, neg, pos, cfg)
        assert scorer.base_losses == pytest.approx(base_losses(m, neg, pos), rel=1e-12)
        original = m.weights[localized.layer][localized.i, localized.j]
        p = int(rng.integers(8, 20))
        positions = original + rng.normal(0.0, 1.0, size=(p, len(localized)))
        positions[0] = original
        positions[1, 0] = 1e308
        positions[2, -1] = -1e308
        positions[3, 0] = np.nan
        positions[4, -1] = np.inf
        positions[5, 0] = -np.inf
        finite = np.isfinite(positions).all(axis=1)

        scores, full = scorer(positions, floor=np.zeros(p)), scorer(positions)
        for chunk in (1, 7, p):
            set_chunk(scorer, chunk)
            for a, b in zip(scorer(positions, floor=np.zeros(p)), scores):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(scorer(positions), full):
                np.testing.assert_array_equal(a, b)
        for s in (scores, full):
            assert (s.raw[~finite] == -np.inf).all()
            assert (s.gated[~finite] == -np.inf).all()
        reads_pos_loss = cfg.variant == "eq1"
        assert np.isnan(scores.loss_pos).all() != reads_pos_loss

        for k in np.flatnonzero(finite):
            candidate = write_localized(m, localized, positions[k])
            with np.errstate(over="ignore", invalid="ignore"):
                ref = fitness(candidate, neg, pos, scorer.base_losses, cfg)
            want = [ref.loss_neg_after, ref.loss_pos_after, ref.raw_fitness, ref.gated_fitness]
            for s in (scores, full):
                assert s.n_patched[k] == ref.n_patched
                assert s.n_intact[k] == ref.n_intact
                assert (s.gated[k] != s.raw[k]) == (ref.gated_fitness != ref.raw_fitness)
                got = [s.loss_neg[k], s.loss_pos[k], s.raw[k], s.gated[k]]
                read = [True, s is full or reads_pos_loss, True, True]
                np.testing.assert_allclose(np.array(got)[read], np.array(want)[read],
                                           rtol=1e-12, atol=0)
        base = scorer.base_losses
        assert full.breakdown(0, base) == scorer.identity.breakdown(0, base)
        assert (scores.raw[0], scores.gated[0]) == (scorer.identity.raw[0], scorer.identity.gated[0])


def test_count_path_matches_full_path_on_ties_band_and_extremes():
    rng = np.random.default_rng(57)
    n_fallback = 0
    for trial in range(24):
        m, localized, neg, pos = repair_scenario(rng, any_layer=True)
        w, b = m.weights[-1].copy(), m.biases[-1].copy()
        c1, c2 = sorted(int(c) for c in rng.choice(m.n_classes, size=2, replace=False))
        kind = trial % 4
        if kind < 3:
            # two output columns that lead every sample, equal or a bias apart inside the band
            w[:, c2] = w[:, c1]
            b[c1] += 10.0
            b[c2] = b[c1] + (0.0, 1e-12, -1e-12)[kind]
        else:
            # leading logits near zero and 1e-20 apart: their softmax rounds to a tie
            w[:, [c1, c2]] = 0.0
            b -= 1e3
            b[c1], b[c2] = 0.0, 1e-20
        m = Model(m.weights[:-1] + (w,), m.biases[:-1] + (b,))
        # the label sits on the later column for about half of I_pos
        on_later = rng.random(len(pos)) < 0.5
        pred = np.argmax(forward(m, pos.features), axis=1)
        pos = samples(pos.features, np.where(on_later, c2, pred), pos.sample_ids)
        cfg = FitnessConfig(
            variant="eq2",
            alpha=float(rng.uniform(0.5, 8)),
            perfect_intact=bool(trial // 4 % 2),
        )
        scorer = BatchScorer(m, localized, neg, pos, cfg)
        original = m.weights[localized.layer][localized.i, localized.j]
        p = int(rng.integers(12, 24))
        scale = np.array([0.0, 1e-14, 1e-12, 1e-10, 1.0])[np.arange(p) % 5][:, None]
        positions = original + scale * rng.normal(size=(p, len(localized)))
        positions[5, 0] = 1e308
        positions[6, -1] = -1e308
        positions[7, 0] = np.nan
        positions[8, -1] = np.inf
        positions[9, 0] = -np.inf
        positions[10] = 1e308

        want = scorer(positions)
        fallback_before = scorer.telemetry["band_fallback_columns"]
        scorer(positions, floor=np.zeros(p))
        n_fallback += scorer.telemetry["band_fallback_columns"] - fallback_before
        for chunk in (1, 7, p):
            set_chunk(scorer, chunk)
            for got in (scorer(positions, floor=np.zeros(p)), scorer(positions)):
                for name in ("n_patched", "n_intact", "raw", "gated"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
                assert (got.gated != got.raw).sum() == (want.gated != want.raw).sum()
    assert n_fallback > 0


def test_touched_units_kernel_matches_fitness_at_every_layer():
    # random 3-layer subjects, repaired at each layer with the localized weights
    # confined to one unit, to a strict subset of units, and spread over all units
    rng = np.random.default_rng(73)
    for trial in range(6):
        m = random_model(rng, n_layers=3)
        neg = random_batch(rng, m, prefix="n")
        pos = random_batch(rng, m, prefix="p")
        for layer in range(3):
            n_in, n_out = m.weights[layer].shape
            for n_units in (1, int(rng.integers(1, n_out)), n_out):
                units = rng.choice(n_out, size=n_units, replace=False)
                # every chosen unit owns a localized weight, some own more than one
                refs = {(int(rng.integers(n_in)), int(j)) for j in units}
                refs |= {(int(rng.integers(n_in)), int(rng.choice(units))) for _ in range(3)}
                localized = localized_over(layer, sorted(refs, key=lambda r: (r[1], r[0])))
                cfg = FitnessConfig(variant=("eq1", "eq2")[(trial + layer) % 2],
                                    alpha=float(rng.uniform(0.5, 8)),
                                    perfect_intact=bool(trial % 2))
                scorer = BatchScorer(m, localized, neg, pos, cfg)
                assert scorer.telemetry["units_recomputed"] == n_units
                assert scorer.telemetry["units_total"] == n_out
                original = m.weights[layer][localized.i, localized.j]
                p = int(rng.integers(8, 16))
                positions = original + rng.normal(0.0, 1.0, size=(p, len(localized)))
                positions[0] = original

                scores, full = scorer(positions, floor=np.zeros(p)), scorer(positions)
                for chunk in (1, 7, p):
                    set_chunk(scorer, chunk)
                    for got in (scorer(positions, floor=np.zeros(p)), scorer(positions)):
                        for name in ("n_patched", "n_intact", "raw", "gated"):
                            np.testing.assert_array_equal(getattr(got, name), getattr(scores, name))
                            np.testing.assert_array_equal(getattr(got, name), getattr(full, name))
                    for a, b in zip(scorer(positions), full):
                        np.testing.assert_array_equal(a, b)

                for k in range(p):
                    with np.errstate(over="ignore", invalid="ignore"):
                        ref = fitness(write_localized(m, localized, positions[k]), neg, pos,
                                      scorer.base_losses, cfg)
                    assert (full.n_patched[k], full.n_intact[k]) == (ref.n_patched, ref.n_intact)
                    np.testing.assert_allclose(
                        [full.loss_neg[k], full.loss_pos[k], full.raw[k], full.gated[k]],
                        [ref.loss_neg_after, ref.loss_pos_after, ref.raw_fitness, ref.gated_fitness],
                        rtol=1e-12, atol=0)
                base = scorer.base_losses
                assert full.breakdown(0, base) == scorer.identity.breakdown(0, base)
                assert (scores.raw[0], scores.gated[0]) == (scorer.identity.raw[0],
                                                            scorer.identity.gated[0])
                # no margin of these random candidates lies in the band, so every
                # count came from the margins, not from the softmax fallback
                assert scorer.telemetry["band_fallback_columns"] == 0


def test_overflowing_candidate_scores_minus_inf():
    # W[0,1] = 1e308 sends the class-1 logit of I_pos sample [3, 0.2] to +inf, so its
    # softmax is nan, while the I_neg sample is patched by a finite logit
    model = single_layer_model([[1.0, 0.0], [0.3, -0.7]])
    i_neg = samples([[1.0, 0.5]], [1], ("n0",))
    i_pos = samples([[0.5, 1.0], [3.0, 0.2]], [0, 0], ("p0", "p1"))
    localized = localized_over(0, [(0, 1)])
    base = base_losses(model, i_neg, i_pos)
    huge = write_localized(model, localized, [1e308])
    for variant in ("eq1", "eq2"):
        for gate in (False, True):
            cfg = FitnessConfig(variant=variant, perfect_intact=gate)
            with np.errstate(over="ignore", invalid="ignore"):
                bd = fitness(huge, i_neg, i_pos, base, cfg)
            assert bd.n_patched == 1
            assert bd.raw_fitness == bd.gated_fitness == -np.inf
            scorer = BatchScorer(model, localized, i_neg, i_pos, cfg)
            for floor in (None, np.zeros(1)):
                scores = scorer(np.array([[1e308]]), floor=floor)
                assert scores.raw[0] == scores.gated[0] == -np.inf


def test_batch_scorer_identity_equals_fitness_on_an_empty_set():
    # no localized weight: every candidate is the subject, at every layer, on the
    # full path, on the count path and (128 I_pos samples under the gate) the screen
    rng = np.random.default_rng(83)
    for trial in range(4):
        m = random_model(rng, n_layers=trial % 3 + 1)
        neg = random_batch(rng, m, prefix="n")
        x = rng.normal(0.0, 1.5, size=(4 * SCREEN, m.input_size))
        pos = samples(x, np.argmax(forward(m, x), axis=1), (f"p{k}" for k in range(len(x))),
                      m.n_classes)
        for layer in range(m.n_layers):
            empty = LocalizedSet(layer, [], [], n_g=1)
            for variant in VARIANTS:
                for gate in (False, True):
                    cfg = FitnessConfig(variant=variant, perfect_intact=gate)
                    scorer = BatchScorer(m, empty, neg, pos, cfg)
                    base = scorer.base_losses
                    assert base == pytest.approx(base_losses(m, neg, pos), rel=1e-12)
                    # the same counts as `fitness`, and its losses up to the rounding
                    # of another summation order, as for a set that is not empty
                    ref, got = fitness(m, neg, pos, base, cfg), scorer.identity.breakdown(0, base)
                    assert (got.n_patched, got.n_intact) == (ref.n_patched, ref.n_intact)
                    np.testing.assert_allclose(
                        [got.loss_neg_after, got.loss_pos_after, got.raw_fitness, got.gated_fitness],
                        [ref.loss_neg_after, ref.loss_pos_after, ref.raw_fitness, ref.gated_fitness],
                        rtol=1e-12, atol=0)
                    # and every candidate, on any path, scores as the identity does
                    for floor in (None, np.full(3, -np.inf), np.zeros(3)):
                        scores = scorer(np.empty((3, 0)), floor=floor)
                        for name in ("n_patched", "n_intact", "raw", "gated"):
                            want = np.repeat(getattr(scorer.identity, name), 3)
                            np.testing.assert_array_equal(getattr(scores, name), want)


def screened_scenario(rng, m, layer, n=None):
    """An I_pos of `n` passing samples for `m`, 4 * SCREEN or more by default, an
    I_neg of the 1..8 samples of the same draw with the smallest margin, each
    labelled with its runner-up class, and a random localized set of `layer`."""
    if n is None:
        n = int(rng.integers(4 * SCREEN, 6 * SCREEN))
    x = rng.normal(0.0, 1.5, size=(n + 8, m.input_size))
    probs = forward(m, x)
    ranked = np.argsort(probs, axis=1)
    order = np.argsort(np.diff(np.sort(probs, axis=1)[:, -2:], axis=1)[:, 0], kind="stable")
    n_neg = int(rng.integers(1, 9))
    neg, kept = np.sort(order[:n_neg]), np.sort(order[n_neg:n_neg + n])
    pos = samples(x[kept], ranked[kept, -1], (f"p{k}" for k in range(n)), m.n_classes)
    neg = samples(x[neg], ranked[neg, -2], (f"n{k}" for k in range(n_neg)), m.n_classes)
    n_in, n_out = m.weights[layer].shape
    k = int(rng.integers(1, n_in * n_out + 1))
    i, j = np.divmod(np.sort(rng.choice(n_in * n_out, size=k, replace=False)), n_out)
    return LocalizedSet(layer, i, j, n_g=k), neg, pos


def unscreened(monkeypatch, *args):
    """A BatchScorer of `args` built with the gate screen off."""
    with monkeypatch.context() as mp:
        mp.setattr(repair_module, "SCREEN", 10**9)
        return BatchScorer(*args)


def screen_positions(rng, original, p):
    """`p` candidates around `original`: at it, a little, somewhat and far off it,
    in turn, with non-finite and overflowing rows among them."""
    scale = np.array([0.0, 1e-3, 0.1, 1.0])[np.arange(p) % 4][:, None]
    positions = original + scale * rng.normal(size=(p, len(original)))
    positions[1, 0] = 1e308
    positions[2, -1] = -1e308
    positions[3, 0] = np.nan
    positions[5, -1] = np.inf
    positions[6, 0] = -np.inf
    positions[7] = 1e308
    return positions


def test_gate_screen_keeps_every_gated_score(monkeypatch):
    rng = np.random.default_rng(97)
    n_screened = n_passed = 0
    for trial in range(6):
        m = random_model(rng, n_layers=trial % 3 + 1)
        for layer in range(m.n_layers):
            localized, neg, pos = screened_scenario(rng, m, layer)
            for variant in ("eq1", "eq2"):
                cfg = FitnessConfig(variant=variant, alpha=float(rng.uniform(0.5, 8)),
                                    perfect_intact=True)
                scorer = BatchScorer(m, localized, neg, pos, cfg)
                ref = unscreened(monkeypatch, m, localized, neg, pos, cfg)
                original = m.weights[layer][localized.i, localized.j]
                p = int(rng.integers(24, 40))
                positions = screen_positions(rng, original, p)
                floor = np.where(rng.random(p) < 0.25, -np.inf, 0.0)

                assert len(scorer.pos) == 2  # I_pos is cached as S and R, each in C order
                assert all(c.a.flags.c_contiguous for c in scorer.pos)
                sets = (scorer.neg, *scorer.pos)
                scored = []  # (I_neg 0, S 1 or R 2, candidates) of each set the call scores
                score_set = scorer._set_scores

                def recording(c, candidates, *args, **kwargs):
                    scored.append((next(k for k, x in enumerate(sets) if x is c), len(candidates)))
                    return score_set(c, candidates, *args, **kwargs)

                with monkeypatch.context() as mp:
                    mp.setattr(scorer, "_set_scores", recording)
                    got = scorer(positions, floor=floor)
                want, full = ref(positions, floor=floor), scorer(positions)
                np.testing.assert_array_equal(full.gated, ref(positions).gated)
                screened = got.n_patched == -1
                skipped = (got.n_intact == -1) & ~screened
                assert not screened[0] and not screened[~np.isfinite(positions).all(axis=1)].any()
                assert not screened[floor < 0].any()
                # a screened candidate broke I_pos: the gate zeroes it, an upper bound of
                # its real gated score (0, or -inf if it is undefined), which does not beat
                # its floor; nor does a skipped one's
                assert (full.n_intact[screened] < len(pos)).all()
                assert got.gate[screened].all() and (got.gated[screened] == 0).all()
                assert np.isnan(got.raw[screened]).all() and np.isnan(got.loss_pos[screened]).all()
                cut = screened | skipped
                assert (full.gated[cut] <= floor[cut]).all()
                # S is scored for every candidate; a screened one on neither I_neg nor R,
                # a skipped one not on R
                assert np.isnan(got.loss_neg[screened]).all()
                assert scored == [(1, p), (0, (~screened).sum()), (2, (~cut).sum())]
                # every other candidate scores as without the screen
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a[~cut], b[~cut])
                # one chunk loop for I_neg, S and R: no score depends on the chunk
                for chunk in (1, 7, p):
                    set_chunk(scorer, chunk)
                    for a, b in zip(scorer(positions, floor=floor), got):
                        np.testing.assert_array_equal(a, b)
                assert full.breakdown(0, scorer.base_losses) == scorer.identity.breakdown(0, scorer.base_losses)
                n_screened += screened.sum()
                n_passed += (~got.gate & np.isfinite(got.gated)).sum()
    assert n_screened > 0 and n_passed > 0


def test_gate_screen_never_rejects_a_candidate_whose_floor_is_below_zero():
    # such a candidate could beat its floor with a gated 0, so it is scored on I_neg
    rng = np.random.default_rng(19)
    n_screened = 0
    for trial in range(6):
        m = random_model(rng, n_layers=trial % 3 + 1)
        for layer in range(m.n_layers):
            localized, neg, pos = screened_scenario(rng, m, layer)
            cfg = FitnessConfig(variant=VARIANTS[trial % 2], perfect_intact=True)
            scorer = BatchScorer(m, localized, neg, pos, cfg)
            original = m.weights[layer][localized.i, localized.j]
            p = int(rng.integers(24, 40))
            positions = screen_positions(rng, original, p)
            below = rng.choice([-np.inf, -1.0, -1e-300], size=p)
            got = scorer(positions, floor=below)
            assert scorer.telemetry["gate_screened"] == 0 and (got.n_patched >= 0).all()
            # the same candidates under floors of 0 are screened
            at_zero = scorer(positions, floor=np.zeros(p))
            assert scorer.telemetry["gate_screened"] == (at_zero.n_patched == -1).sum()
            n_screened += scorer.telemetry["gate_screened"]
            # and under mixed floors only those at 0
            mixed = np.where(rng.random(p) < 0.5, below, 0.0)
            screened = scorer(positions, floor=mixed).n_patched == -1
            assert not screened[mixed < 0].any()
    assert n_screened > 0


def test_reused_scorer_scores_every_call_like_a_fresh_one():
    # a scorer keeps one scratch arena for all its calls, grown with the chunk; over
    # calls of P, P // 3 and 2P candidates, at the default chunk (which the last call
    # grows) and at 1, 7 and P, no call may see what an earlier one left in it
    rng = np.random.default_rng(61)
    n_fixed = 0
    for n_layers in (1, 2, 3):
        m = random_model(rng, n_layers=n_layers)
        for layer in range(n_layers):
            localized, neg, pos = screened_scenario(rng, m, layer)
            one_unit = localized.j == localized.j[0]
            # at the last layer, also the weights of one unit: the softmax writes the
            # untouched rows beside the computed ones into its spare
            sets = [localized] + [LocalizedSet(layer, localized.i[one_unit], localized.j[one_unit],
                                               n_g=int(one_unit.sum()))] * (layer == n_layers - 1)
            for subset, variant, gated in itertools.product(sets, VARIANTS, (False, True)):
                original = m.weights[layer][subset.i, subset.j]
                p = int(rng.integers(24, 40))
                sizes = (p, p // 3, 2 * p)
                floors = [np.where(rng.random(size) < 0.25, -np.inf, 0.0) for size in sizes]
                calls = [(screen_positions(rng, original, size), floor)
                         for size, floor in zip(sizes * 2, floors + [None] * 3)]
                cfg = FitnessConfig(variant=variant, alpha=float(rng.uniform(0.5, 8)),
                                    perfect_intact=gated)
                scorer = BatchScorer(m, subset, neg, pos, cfg)
                n_fixed += scorer.fixed_rows is not None
                first = []  # each call's scores at the first chunk, which no chunk changes
                for chunk in (None, 1, 7, p):
                    if chunk is not None:
                        set_chunk(scorer, chunk)
                    for k, (positions, floor) in enumerate(calls):
                        fresh = BatchScorer(m, subset, neg, pos, cfg)
                        if chunk is not None:
                            set_chunk(fresh, chunk)
                        got = scorer(positions, floor)
                        if chunk is None:
                            first.append(got)
                        for want in (fresh(positions, floor), first[k]):
                            for name, a, b in zip(got._fields, got, want):
                                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                                    f"{name} of call {k} at chunk {chunk}")
    assert n_fixed > 0


def overflow_on_ineg_setup():
    """I_pos's inputs are at most 1, I_neg's is 1e200; W[0, 1] = 1e150 breaks every
    I_pos sample under finite logits but sends I_neg's class-1 logit to +inf, so
    its softmax is nan. Returns the model, localized set, I_neg and I_pos."""
    rng = np.random.default_rng(5)
    model = single_layer_model([[1.0, 0.0], [0.0, 1.0]])
    n = 4 * SCREEN
    x = np.column_stack([rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.4, n)])
    i_pos = samples(x, np.zeros(n), (f"p{k}" for k in range(n)), 2)
    i_neg = samples([[1e200, 0.0]], [1], ("n0",), 2)
    return model, localized_over(0, [(0, 1)]), i_neg, i_pos


def test_gate_screen_leaves_a_candidate_that_overflows_on_ineg_to_score_minus_inf(monkeypatch):
    # without a floor, or below a floor under 0, the candidate is scored: -inf
    model, localized, i_neg, i_pos = overflow_on_ineg_setup()
    positions = np.array([[0.0], [1e150]])
    for variant in ("eq1", "eq2"):
        cfg = FitnessConfig(variant=variant, perfect_intact=True)
        scorer = BatchScorer(model, localized, i_neg, i_pos, cfg)
        assert len(scorer.pos) == 2  # I_pos is cached as S and R
        want = unscreened(monkeypatch, model, localized, i_neg, i_pos, cfg)(positions)
        np.testing.assert_array_equal(scorer(positions).n_intact, [len(i_pos), 0])
        for floor in (None, np.full(2, -np.inf), np.array([0.0, -1.0])):
            got = scorer(positions, floor=floor)
            assert got.raw[1] == got.gated[1] == want.gated[1] == -np.inf
            assert got.gated[0] == want.gated[0] == scorer.identity.gated[0]
        assert scorer.telemetry["gate_screened"] == 0


def test_gate_screen_rejects_a_candidate_that_overflows_on_ineg():
    # with no finiteness certificate, the screen rejects it below a floor >= 0: its
    # gated 0 bounds its real score, -inf, which does not beat the floor either
    model, localized, i_neg, i_pos = overflow_on_ineg_setup()
    positions = np.array([[0.0], [1e150]])
    floor = np.zeros(2)
    for variant in ("eq1", "eq2"):
        cfg = FitnessConfig(variant=variant, perfect_intact=True)
        scorer = BatchScorer(model, localized, i_neg, i_pos, cfg)
        got, full = scorer(positions, floor=floor), scorer(positions)
        assert scorer.telemetry["gate_screened"] == 1
        np.testing.assert_array_equal(got.n_patched, [0, -1])
        assert got.gate[1] and got.gated[1] == 0.0
        assert full.gated[1] == -np.inf <= floor[1]
        assert got.gated[0] == full.gated[0] == scorer.identity.gated[0]


def test_gate_screen_is_not_stopped_by_a_large_ineg_input(monkeypatch):
    # I_pos's inputs are at most 1, I_neg's is 1e200: W[0, 1] = 2 breaks every I_pos
    # sample with logits finite on both sets, and the screen, which reads I_pos
    # alone, rejects it
    model, localized, i_neg, i_pos = overflow_on_ineg_setup()
    n = len(i_pos)
    positions = np.array([[0.0], [2.0]])
    for variant in ("eq1", "eq2"):
        cfg = FitnessConfig(variant=variant, perfect_intact=True)
        scorer = BatchScorer(model, localized, i_neg, i_pos, cfg)
        got = scorer(positions, floor=np.zeros(2))
        want = unscreened(monkeypatch, model, localized, i_neg, i_pos, cfg)(positions)
        assert scorer.telemetry["gate_screened"] == 1
        np.testing.assert_array_equal(got.n_intact, [n, -1])
        np.testing.assert_array_equal(want.n_intact, [n, 0])
        assert want.n_patched[1] == 1 and want.gate[1]
        np.testing.assert_array_equal(got.gated, want.gated)
        np.testing.assert_array_equal(got.gate, want.gate)


def test_gate_screen_rejects_a_break_inside_the_rounding_of_large_logits():
    # the first I_pos sample has logits of about 4e6; the candidate W[1, 1] = 1e-8
    # breaks it by a margin of about -1e-8, past BAND though within the rounding
    # that products over other sample sets could show at that size. The screen
    # counts that sample as I_pos's own count does, so it rejects the candidate,
    # whose full-path gated score (0: one sample broken) does not beat its floor
    model = single_layer_model([[1.0, 1.0], [0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(3)
    n = 4 * SCREEN
    x = np.column_stack([rng.uniform(1.0, 2.0, n), np.zeros(n), rng.uniform(2.0, 3.0, n)])
    x[0] = [4e6, 1.0, 0.0]
    i_pos = samples(x, np.zeros(n), (f"p{k}" for k in range(n)), 2)
    i_neg = samples([[1.0, 1.0, 0.0]], [1], ("n0",), 2)
    localized = localized_over(0, [(1, 1)])
    positions = np.array([[-1.0], [1e-8]])
    floor = np.zeros(2)
    for variant in ("eq1", "eq2"):
        cfg = FitnessConfig(variant=variant, perfect_intact=True)
        scorer = BatchScorer(model, localized, i_neg, i_pos, cfg)
        full = scorer(positions)
        np.testing.assert_array_equal(full.n_intact, [n, n - 1])
        got = scorer(positions, floor=floor)
        assert scorer.telemetry["gate_screened"] == 1
        np.testing.assert_array_equal(got.n_patched, [0, -1])
        assert got.gate[1] and got.gated[1] == 0.0
        assert full.gated[1] <= floor[1]
        assert got.gated[0] == full.gated[0] == scorer.identity.gated[0]


def test_skipped_candidate_cannot_beat_its_floor(monkeypatch):
    rng = np.random.default_rng(61)
    n_skipped = n_kept = 0
    for trial in range(8):
        m = random_model(rng, n_layers=trial % 3 + 1)
        for layer in range(m.n_layers):
            localized, neg, pos = screened_scenario(rng, m, layer)
            cfg = FitnessConfig(alpha=float(rng.uniform(0.5, 8)), perfect_intact=bool(trial % 2))
            scorer = BatchScorer(m, localized, neg, pos, cfg)
            original = m.weights[layer][localized.i, localized.j]
            p = int(rng.integers(24, 40))
            scale = np.array([0.0, 1e-3, 0.1, 1.0])[np.arange(p) % 4][:, None]
            positions = original + scale * rng.normal(size=(p, len(original)))
            positions[3, 0] = np.nan
            positions[5] = 1e308
            full = scorer(positions)
            # floors from the same scores: some exactly a candidate's own, some -inf
            floor = np.where(rng.random(p) < 0.3, full.gated, rng.permutation(full.gated))
            want = unscreened(monkeypatch, m, localized, neg, pos, cfg)(positions, floor=floor)
            before = scorer.telemetry["pos_skipped"]
            got = scorer(positions, floor=floor)
            screened = got.n_patched == -1
            skipped = (got.n_intact == -1) & ~screened
            assert scorer.telemetry["pos_skipped"] - before == skipped.sum()
            cut = screened | skipped
            assert (full.gated[cut] <= floor[cut]).all()
            assert not got.gate[skipped].any()
            assert (np.isnan(got.gated[skipped]) | (got.gated[skipped] == -np.inf)).all()
            assert np.isnan(got.loss_pos[skipped]).all()
            # the rest are scored as with neither the screen nor the skip; every
            # candidate that beats its floor is among them
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a[~cut], b[~cut])
            assert not cut[full.gated > floor].any()
            n_skipped += skipped.sum()
            n_kept += (~cut).sum()
    assert n_skipped > 0 and n_kept > 0


def test_repair_is_unchanged_by_the_pos_skip(monkeypatch):
    rng = np.random.default_rng(29)
    scorer_call = BatchScorer.__call__

    def floorless(self, positions, floor=None):
        return scorer_call(self, positions)

    n_skipped = 0
    for trial in range(12):
        m = random_model(rng)
        # hidden and last layers in turn
        layer = m.n_layers - 1 if trial % 2 else int(rng.integers(0, m.n_layers))
        localized, neg, pos = screened_scenario(rng, m, layer)
        fcfg = FitnessConfig(alpha=float(rng.uniform(0.5, 8)), perfect_intact=trial % 4 < 2)
        scfg = SwarmConfig(n_particles=int(rng.integers(8, 16)),
                           n_iterations=int(rng.integers(2, 8)), seed=trial)
        got = repair(m, localized, neg, pos, fcfg, scfg)
        with monkeypatch.context() as mp:
            mp.setattr(BatchScorer, "__call__", floorless)
            want = repair(m, localized, neg, pos, fcfg, scfg)
        assert want.telemetry["pos_skipped"] == 0
        assert got.best == want.best
        assert got.identity_fallback == want.identity_fallback
        np.testing.assert_array_equal(got.best_position, want.best_position)
        for wa, wb in zip(got.model.weights, want.model.weights):
            np.testing.assert_array_equal(wa, wb)
        assert len(got.trace) == len(want.trace)
        for a, b in zip(got.trace, want.trace):
            # a skipped candidate that broke I_pos is no longer counted as gated
            assert dataclasses.replace(a, n_gated=0) == dataclasses.replace(b, n_gated=0)
            assert a.n_gated <= b.n_gated if fcfg.perfect_intact else a.n_gated == b.n_gated == 0
        n_skipped += got.telemetry["pos_skipped"]
    assert n_skipped > 0


def test_repair_is_unchanged_by_the_gate_screen(monkeypatch):
    rng = np.random.default_rng(41)
    n_screened = n_repaired = 0
    for trial in range(10):
        m = random_model(rng)
        localized, neg, pos = screened_scenario(rng, m, int(rng.integers(0, m.n_layers)))
        fcfg = FitnessConfig(variant=("eq1", "eq2")[trial % 2], alpha=float(rng.uniform(0.5, 8)),
                             perfect_intact=True)
        scfg = SwarmConfig(n_particles=int(rng.integers(8, 16)),
                           n_iterations=int(rng.integers(2, 8)), seed=trial)
        broken = trial >= 8  # I_pos holds a sample the subject gets wrong: the identity is screened
        if broken:
            labels = pos.labels.copy()
            labels[0] = (labels[0] + 1) % m.n_classes
            pos = samples(pos.features, labels, pos.sample_ids, m.n_classes)
        got = repair(m, localized, neg, pos, fcfg, scfg)
        with monkeypatch.context() as mp:
            mp.setattr(repair_module, "SCREEN", len(pos) + 1)
            want = repair(m, localized, neg, pos, fcfg, scfg)
        assert want.telemetry["gate_screened"] == 0
        assert got.trace == want.trace
        assert got.best == want.best
        assert got.identity_fallback == want.identity_fallback
        np.testing.assert_array_equal(got.best_position, want.best_position)
        for wa, wb in zip(got.model.weights, want.model.weights):
            np.testing.assert_array_equal(wa, wb)
        if broken:
            assert got.telemetry["gate_screened"] > 0 and got.trace[0].n_intact == len(pos) - 1
        n_screened += got.telemetry["gate_screened"]
        n_repaired += not got.identity_fallback
    assert n_screened > 0 and n_repaired > 0


def test_repair_scores_only_the_identity_and_the_winner_without_a_floor(monkeypatch):
    # every other call is a search call, with the personal bests as floors; a gbest
    # is always a candidate scored on both sets, so it is never scored again
    rng = np.random.default_rng(47)
    scorer_call = BatchScorer.__call__
    n_repaired = 0
    for trial in range(10):
        m = random_model(rng)
        localized, neg, pos = screened_scenario(rng, m, int(rng.integers(0, m.n_layers)))
        if trial >= 6:  # I_pos holds a sample the subject gets wrong
            labels = pos.labels.copy()
            labels[0] = (labels[0] + 1) % m.n_classes
            pos = samples(pos.features, labels, pos.sample_ids, m.n_classes)
        fcfg = FitnessConfig(variant=VARIANTS[trial % 2], alpha=float(rng.uniform(0.5, 8)),
                             perfect_intact=trial % 4 > 0)
        scfg = SwarmConfig(n_particles=int(rng.integers(8, 16)),
                           n_iterations=int(rng.integers(2, 8)), seed=trial)
        floorless = []

        def recording(self, positions, floor=None):  # the identity's call included
            if floor is None:
                floorless.append(len(positions))
            return scorer_call(self, positions, floor)

        with monkeypatch.context() as mp:
            mp.setattr(BatchScorer, "__call__", recording)
            got = repair(m, localized, neg, pos, fcfg, scfg)
        assert floorless == [1] if got.identity_fallback else floorless == [1, 1]
        assert got.trace[0].n_intact >= 0 and all(row.n_patched >= 0 for row in got.trace)
        n_repaired += not got.identity_fallback
    assert n_repaired > 0


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_layers=st.integers(1, 3),
       variant=st.sampled_from(VARIANTS), gate=st.booleans(), split=st.booleans(),
       broken=st.booleans())
def test_floored_call_scores_every_candidate_it_keeps_as_the_floorless_call(
        seed, n_layers, variant, gate, split, broken):
    # at every layer, with I_pos on either side of 4 * SCREEN (the screen and the
    # bound need 4 * SCREEN samples) and floors of -inf, 0 and around each
    # candidate's own floorless gated score
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_layers=n_layers)
    cfg = FitnessConfig(variant=variant, alpha=float(rng.uniform(0.5, 8)), perfect_intact=gate)
    for layer in range(n_layers):
        n = int(rng.integers(4 * SCREEN, 5 * SCREEN) if split else rng.integers(1, 4 * SCREEN))
        localized, neg, pos = screened_scenario(rng, m, layer, n)
        if broken:  # I_pos holds a sample the subject gets wrong
            labels = pos.labels.copy()
            labels[0] = (labels[0] + 1) % m.n_classes
            pos = samples(pos.features, labels, pos.sample_ids, m.n_classes)
        scorer = BatchScorer(m, localized, neg, pos, cfg)
        p = int(rng.integers(8, 40))
        positions = screen_positions(rng, m.weights[layer][localized.i, localized.j], p)
        full = scorer(positions)
        near = full.gated + rng.choice([0.0, 1e-9, 1.0], size=p) * rng.normal(size=p)
        floor = np.choose(rng.integers(0, 3, size=p), [np.full(p, -np.inf), np.zeros(p), near])
        before = dict(scorer.telemetry)
        got = scorer(positions, floor=floor)

        screened = got.n_patched == -1
        skipped = (got.n_intact == -1) & ~screened
        kept = ~(screened | skipped)
        for name in ("n_patched", "n_intact", "loss_neg", "raw", "gated", "gate") + (
                ("loss_pos",) if variant == "eq1" else ()):
            np.testing.assert_array_equal(getattr(got, name)[kept], getattr(full, name)[kept])
        for name, want in zip(got._fields, (-1, -1, np.nan, np.nan, np.nan, 0.0, True)):
            np.testing.assert_array_equal(getattr(got, name)[screened], want)
        assert np.isnan(got.loss_pos[skipped]).all() and not got.gate[skipped].any()
        assert ((np.isnan(got.raw) & np.isnan(got.gated))
                | (got.raw == got.gated) & (got.raw == -np.inf))[skipped].all()
        np.testing.assert_array_equal(got.n_patched[skipped], full.n_patched[skipped])
        np.testing.assert_array_equal(got.loss_neg[skipped], full.loss_neg[skipped])
        assert (full.gated[~kept] <= floor[~kept]).all()
        assert scorer.telemetry["gate_screened"] - before["gate_screened"] == screened.sum()
        assert scorer.telemetry["pos_skipped"] - before["pos_skipped"] == skipped.sum()


def test_search_counters_follow_their_closed_forms():
    # the identity, P candidates at each iteration 0..n_iterations, and the winner
    # unless the run fell back; iteration 0's floors are -inf, so it screens nothing
    rng = np.random.default_rng(71)
    n_screened = n_repaired = n_fallbacks = 0
    for trial in range(8):
        m = random_model(rng)
        n = int(rng.integers(4 * SCREEN, 5 * SCREEN)) if trial % 2 else int(rng.integers(8, 48))
        localized, neg, pos = screened_scenario(rng, m, int(rng.integers(0, m.n_layers)), n)
        fcfg = FitnessConfig(variant=VARIANTS[trial // 2 % 2], alpha=float(rng.uniform(0.5, 8)),
                             perfect_intact=trial % 4 != 2)
        scfg = SwarmConfig(n_particles=int(rng.integers(4, 16)),
                           n_iterations=int(rng.integers(1, 8)), seed=trial)
        result = repair(m, localized, neg, pos, fcfg, scfg)
        p, iters = scfg.n_particles, scfg.n_iterations
        assert result.telemetry["candidates_scored"] == (
            1 + p * (iters + 1) + (not result.identity_fallback))
        assert result.telemetry["gate_screened"] <= p * iters
        n_screened += result.telemetry["gate_screened"]
        n_repaired += not result.identity_fallback
        n_fallbacks += result.identity_fallback
    assert n_screened > 0 and n_repaired > 0 and n_fallbacks > 0


def test_tie_with_identity_returns_the_original_model():
    # feature 1 is 0 on every sample, so its outgoing weights change nothing
    model = single_layer_model([[1.0, 0.0], [0.3, -0.7]])
    i_neg = samples([[1.0, 0.0], [2.0, 0.0]], [1, 1], ("n0", "n1"))
    i_pos = samples([[0.5, 0.0], [3.0, 0.0]], [0, 0], ("p0", "p1"))
    localized = localized_over(0, [(1, 0), (1, 1)])
    for gate in (False, True):
        out = repair(
            model, localized, i_neg, i_pos,
            FitnessConfig(perfect_intact=gate),
            SwarmConfig(n_particles=9, n_iterations=6, seed=4),
        )
        assert out.identity_fallback
        assert out.model is model
        assert out.best_position is None
        assert {row.gbest_fitness for row in out.trace} == {out.best.gated_fitness}


def test_a_patch_that_fixes_nothing_returns_the_original_model():
    # the I_neg sample shares its input with an I_pos sample of another label, so
    # any candidate that fixes it breaks I_pos and the gate zeroes it; moving
    # w[0, 1] toward 0.5 lowers its loss, and that ratio alone, scaled by a large
    # beta, beats the identity with nothing fixed
    model = single_layer_model([[0.5, 0.0], [0.0, 0.0]])
    i_neg = samples([[1.0, 0.0]], [1], ("n0",))
    i_pos = samples([[1.0, 0.0], [0.0, 1.0]], [0, 0], ("p0", "p1"))
    fcfg = FitnessConfig(variant="eq2", alpha=1.0, beta=4.0, delta=1e-12, perfect_intact=True)
    identity = fitness(model, i_neg, i_pos, base_losses(model, i_neg, i_pos), fcfg)
    out = repair(model, localized_over(0, [(0, 1)]), i_neg, i_pos, fcfg,
                 SwarmConfig(n_particles=10, n_iterations=20, seed=3))
    assert out.trace[-1].gbest_fitness > identity.gated_fitness + 1.0
    assert out.trace[-1].n_patched == 0
    assert out.identity_fallback and out.model is model and out.best_position is None
    assert (out.best.n_patched, out.best.n_intact, out.best.gated_fitness) == (
        0, 2, identity.gated_fitness)


def threshold_setup():
    """1-weight landscape: pushing w[0,1] past 0.5 flips the I_neg sample."""
    model = single_layer_model([[0.5, 0.0], [0.0, 0.0]])
    i_neg = samples([[1.0, 0.0]], [1], ("n0",))
    i_pos = samples([[0.0, 1.0]], [0], ("p0",))
    localized = localized_over(0, [(0, 1)])
    return model, localized, i_neg, i_pos


def test_pso_crosses_known_threshold():
    model, localized, i_neg, i_pos = threshold_setup()
    fcfg = FitnessConfig(variant="eq2", alpha=1.0, perfect_intact=True)
    scfg = SwarmConfig(n_particles=10, n_iterations=30, seed=2)
    result = repair(model, localized, i_neg, i_pos, fcfg, scfg)
    assert not result.identity_fallback
    assert result.best.n_patched == 1
    assert result.model.weights[0][0, 1] > 0.5
    # untouched weights stay put
    assert result.model.weights[0][0, 0] == 0.5
    assert result.model.weights[0][1, 0] == 0.0 and result.model.weights[0][1, 1] == 0.0


def test_zero_iterations_returns_best_initial_particle():
    model, localized, i_neg, i_pos = threshold_setup()
    fcfg = FitnessConfig(variant="eq2", alpha=1.0, perfect_intact=True)
    result = repair(model, localized, i_neg, i_pos, fcfg, SwarmConfig(n_particles=4, n_iterations=0, seed=6))
    assert len(result.trace) == 1
    identity = fitness(model, i_neg, i_pos, base_losses(model, i_neg, i_pos), fcfg)
    assert result.best.gated_fitness >= identity.gated_fitness
    assert identity.gated_fitness > 0  # pi gate keeps the identity patch positive


def test_repair_is_deterministic():
    rng = np.random.default_rng(8)
    m, localized, neg, pos = repair_scenario(rng)
    fcfg = FitnessConfig(variant="eq1", alpha=2.0)
    scfg = SwarmConfig(n_particles=6, n_iterations=5, seed=13)
    a = repair(m, localized, neg, pos, fcfg, scfg)
    b = repair(m, localized, neg, pos, fcfg, scfg)
    for wa, wb in zip(a.model.weights, b.model.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.trace == b.trace
    assert a.identity_fallback == b.identity_fallback


def test_repair_empty_localized_set_flags_no_search_space():
    model, _, i_neg, i_pos = threshold_setup()
    out = repair(
        model,
        LocalizedSet(0, [], [], n_g=1, warning="localized set is empty"),
        i_neg,
        i_pos,
        FitnessConfig(),
        SwarmConfig(n_particles=2, n_iterations=1, seed=0),
    )
    # no search ran: the original model, no trace, every counter 0 (a run records
    # no_search_space from the empty set itself)
    assert out.identity_fallback and out.best_position is None
    assert out.model is model
    assert out.trace == ()
    assert out.telemetry == dict.fromkeys(TELEMETRY, 0)


def test_repair_invariants_over_random_scenarios():
    rng = np.random.default_rng(21)
    fallbacks = 0
    for trial in range(12):
        m, localized, neg, pos = repair_scenario(rng)
        fcfg = FitnessConfig(
            variant="eq2" if trial % 2 else "eq1",
            alpha=float(rng.uniform(0.5, 8)),
            perfect_intact=True,
        )
        scfg = SwarmConfig(
            n_particles=int(rng.integers(2, 8)),
            n_iterations=int(rng.integers(0, 5)),
            seed=trial,
        )
        base = base_losses(m, neg, pos)
        identity = fitness(m, neg, pos, base, fcfg)
        result = repair(m, localized, neg, pos, fcfg, scfg)

        # trace is monotone non-decreasing
        fits = [row.gbest_fitness for row in result.trace]
        assert all(a <= b for a, b in zip(fits, fits[1:]))
        # returned best never loses to the identity patch
        assert result.best.gated_fitness >= identity.gated_fitness
        # gate soundness: clean I_pos or explicit fallback
        if result.identity_fallback:
            fallbacks += 1
            for wa, wb in zip(result.model.weights, m.weights):
                np.testing.assert_array_equal(wa, wb)
        else:
            assert result.best.n_intact == len(pos)
            assert result.best.n_patched > identity.n_patched  # a patch fixes something
        # the returned breakdown describes the returned model
        got = fitness(result.model, neg, pos, base, fcfg)
        assert (result.best.n_patched, result.best.n_intact) == (got.n_patched, got.n_intact)
        np.testing.assert_allclose(
            [result.best.loss_neg_after, result.best.loss_pos_after,
             result.best.raw_fitness, result.best.gated_fitness],
            [got.loss_neg_after, got.loss_pos_after, got.raw_fitness, got.gated_fitness],
            rtol=1e-9)
        # confinement: every weight outside the localized set is untouched
        touched = {(localized.layer, i, j) for i, j in zip(localized.i, localized.j)}
        for k in range(m.n_layers):
            n_in, n_out = m.weights[k].shape
            for i in range(n_in):
                for j in range(n_out):
                    if (k, i, j) not in touched:
                        assert result.model.weights[k][i, j] == m.weights[k][i, j]
    assert fallbacks < 12  # at least one genuine repair happened


def test_trace_csv_format(tmp_path):
    model, localized, i_neg, i_pos = threshold_setup()
    result = repair(
        model, localized, i_neg, i_pos,
        FitnessConfig(), SwarmConfig(n_particles=3, n_iterations=2, seed=1),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,gbest_fitness,n_patched,n_intact,n_gated,n_pbest_improved"
    assert len(lines) == 1 + len(result.trace)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == result.trace[0].gbest_fitness
    # every initial particle scores finite, so each sets its first pbest
    assert first[5] == "3" == str(result.trace[0].n_pbest_improved)
    for line, row in zip(lines[1:], result.trace):
        n_gated, n_improved = (int(v) for v in line.split(",")[4:])
        assert (n_gated, n_improved) == (row.n_gated, row.n_pbest_improved)
        assert 0 <= n_gated <= 3 and 0 <= n_improved <= 3
