"""Fitness variants, gating, swarm initialization, and the PSO repair loop."""
from __future__ import annotations

import numpy as np
import pytest

from nnpatch import (
    Batch,
    FitnessConfig,
    LocalizedSet,
    Model,
    SwarmConfig,
    WeightRef,
    fitness,
    init_swarm,
    repair,
    sample_positives,
)
from nnpatch.network import forward, loss, write_weights
from nnpatch.repair import (
    ORIENTATIONS,
    BatchScorer,
    layer_weight_stats,
    loss_ratio,
    raw_fitness,
    write_trace_csv,
)

from helpers import random_batch, random_model, single_layer_model, toy_dataset


def localized_over(refs):
    return LocalizedSet(refs=tuple(refs), provenance={}, warning=None)


def repair_scenario(rng, pin_labels=True, any_layer=False):
    """Random model plus I_neg (all failing) and I_pos (all passing),
    localized on the last layer or, with any_layer, on a random one."""
    m = random_model(rng)
    neg = random_batch(rng, m, prefix="n")
    pos = random_batch(rng, m, prefix="p")
    if pin_labels:
        pred_n = np.argmax(forward(m, neg), axis=1)
        pred_p = np.argmax(forward(m, pos), axis=1)
        neg = Batch(neg.inputs, (pred_n + 1) % m.n_classes, neg.sample_ids)
        pos = Batch(pos.inputs, pred_p, pos.sample_ids)
    layer = int(rng.integers(0, m.n_layers)) if any_layer else m.n_layers - 1
    n_in, n_out = m.weights[layer].shape
    all_refs = [WeightRef(layer, i, j) for i in range(n_in) for j in range(n_out)]
    k = int(rng.integers(1, len(all_refs) + 1))
    chosen = rng.choice(len(all_refs), size=k, replace=False)
    refs = tuple(all_refs[int(c)] for c in sorted(chosen))
    return m, localized_over(refs), neg, pos


def test_fitness_config_validation():
    with pytest.raises(ValueError):
        FitnessConfig(variant="eq3")
    with pytest.raises(ValueError):
        FitnessConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        FitnessConfig(delta=0.0)
    with pytest.raises(ValueError):
        FitnessConfig(beta=-0.5)
    with pytest.raises(ValueError):
        FitnessConfig(loss_ratio_orientation="upside-down")


def test_swarm_config_validation():
    with pytest.raises(ValueError):
        SwarmConfig(n_particles=1)
    with pytest.raises(ValueError):
        SwarmConfig(n_iterations=-1)
    with pytest.raises(ValueError):
        SwarmConfig(velocity_clamp=0.0)
    SwarmConfig(n_iterations=0)  # no-step runs are legal


def test_sample_positives_saturation_and_determinism():
    ds = toy_dataset(n=20, n_classes=2, seed=0)
    pool = ds.as_batch()
    assert sample_positives(pool, 100, seed=1) is pool
    a = sample_positives(pool, 7, seed=5)
    b = sample_positives(pool, 7, seed=5)
    assert a.sample_ids == b.sample_ids
    with pytest.raises(ValueError):
        sample_positives(pool, 0, seed=1)
    empty = Batch(np.zeros((0, pool.inputs.shape[1])), np.zeros(0, dtype=int), ())
    with pytest.raises(ValueError):
        sample_positives(empty, 5, seed=1)


def test_sample_positives_large_pool_scan():
    rng = np.random.default_rng(2)
    pool = Batch(
        rng.normal(size=(2000, 3)),
        rng.integers(0, 4, 2000),
        tuple(f"s{k}" for k in range(2000)),
    )
    got = sample_positives(pool, 500, seed=9)
    assert len(got) == 500
    assert len(set(got.sample_ids)) == 500
    assert set(got.sample_ids) <= set(pool.sample_ids)


def test_loss_ratio_orientations():
    prose = FitnessConfig(loss_ratio_orientation="prose")
    literal = FitnessConfig(loss_ratio_orientation="literal")
    assert loss_ratio(1.0, 0.5, prose) == pytest.approx((1.0 + 1e-6) / (0.5 + 1e-6))
    assert loss_ratio(1.0, 0.5, literal) == pytest.approx((0.5 + 1e-6) / (1.0 + 1e-6))
    # smaller post-repair loss must raise the prose ratio
    assert loss_ratio(1.0, 0.25, prose) > loss_ratio(1.0, 0.5, prose)


def test_raw_fitness_hand_arithmetic():
    cfg = FitnessConfig(variant="eq2", alpha=8.0, beta=0.25, delta=1e-6)
    r_neg = loss_ratio(1.0, 0.5, cfg)
    got = raw_fitness(2, 4, 10, 10, r_neg, r_pos=123.0, cfg=cfg)
    expected = 0.5 + 8.0 + 0.25 * (1.000001 / 0.500001)
    assert abs(got - expected) <= 1e-9
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
    i_neg = Batch([[1.0, 0.0]], [1], ("neg0",))
    pos_inputs = [[1.0, 0.0]] * (n_pos - 1) + [[0.0, 1.0]]
    i_pos = Batch(pos_inputs, [0] * n_pos, tuple(f"pos{k}" for k in range(n_pos)))
    cfg = FitnessConfig(variant="eq2", alpha=alpha, beta=0.25, perfect_intact=False)
    base = (loss(model, i_neg), loss(model, i_pos))
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
    bd2 = fitness(model, i_neg, i_pos, (loss(model, i_neg), loss(model, i_pos)), cfg_default)
    assert bd2.raw_fitness == cfg_default.alpha + cfg_default.beta


def test_gate_zeroes_fitness_on_a_single_break():
    model, i_neg, i_pos, cfg, base = fixed_identity_setup()
    gated_cfg = FitnessConfig(
        variant="eq2", alpha=cfg.alpha, beta=cfg.beta, perfect_intact=True
    )
    # push weight [1,1] up: the lone feature-1 sample flips to class 1
    broken = write_weights(model, [WeightRef(0, 1, 1)], [2.0])
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
        write_weights(model, [WeightRef(0, 1, 1)], [2.0]), i_neg, i_pos, base, cfg
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
    i_pos = Batch([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], [0, 0, 0], ("p0", "p1", "p2"))
    base = (loss(model, i_neg), loss(model, i_pos))
    huge = write_weights(model, [WeightRef(0, 0, 0)], [1e308])
    with np.errstate(over="ignore"):
        assert (i_pos.inputs @ huge.weights[0])[2, 0] == np.inf
    for variant in ("eq1", "eq2"):
        cfg = FitnessConfig(variant=variant)
        with np.errstate(over="ignore", invalid="ignore"):
            bd = fitness(huge, i_neg, i_pos, base, cfg)
        assert bd.raw_fitness == bd.gated_fitness == -np.inf


def test_init_swarm_half_half_two_particles():
    rng = np.random.default_rng(4)
    m, localized, neg, pos = repair_scenario(rng)
    original = np.array([m.weights[r.layer][r.i, r.j] for r in localized.refs])
    positions, velocities = init_swarm(
        localized, m, SwarmConfig(n_particles=2), np.random.default_rng(3)
    )
    assert positions.shape == velocities.shape == (2, len(localized.refs))
    np.testing.assert_array_equal(positions[0], original)
    assert (positions[1] != original).any()
    np.testing.assert_array_equal(velocities, np.zeros_like(positions))
    # the sampled half is the stream's first normal block
    mu, sigma = layer_weight_stats(m, localized.refs[0].layer)
    expected = np.random.default_rng(3).normal(mu, sigma, size=(1, len(localized.refs)))
    np.testing.assert_array_equal(positions[1:], expected)


def test_init_swarm_original_half_matches_identity_fitness():
    rng = np.random.default_rng(5)
    m, localized, neg, pos = repair_scenario(rng)
    cfg = FitnessConfig()
    base = (loss(m, neg), loss(m, pos))
    identity = fitness(m, neg, pos, base, cfg)
    original = np.array([m.weights[r.layer][r.i, r.j] for r in localized.refs])
    positions, _ = init_swarm(localized, m, SwarmConfig(n_particles=5), np.random.default_rng(7))
    for row in positions[:3]:  # ceil(5/2) = 3 original-position particles
        assert row.tobytes() == original.tobytes()
        bd = fitness(write_weights(m, localized.refs, row), neg, pos, base, cfg)
        assert bd.raw_fitness == identity.raw_fitness
        assert bd.n_intact == identity.n_intact


def test_init_swarm_sampled_half_statistics():
    m = single_layer_model([[0.8, -0.2], [0.4, 0.1]])
    mu, sigma = layer_weight_stats(m, 0)
    localized = localized_over([WeightRef(0, 0, 0)])
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
        init_swarm(localized_over([]), m, SwarmConfig(), np.random.default_rng(0))


def test_batch_scorer_matches_fitness_reference():
    rng = np.random.default_rng(31)
    for trial in range(24):
        m, localized, neg, pos = repair_scenario(rng, any_layer=True)
        refs = localized.refs
        cfg = FitnessConfig(
            variant=("eq1", "eq2")[trial % 2],
            alpha=float(rng.uniform(0.5, 8)),
            perfect_intact=bool(trial // 2 % 2),
            loss_ratio_orientation=ORIENTATIONS[trial // 4 % 2],
        )
        scorer = BatchScorer(m, refs, neg, pos, cfg)
        assert scorer.base_losses == pytest.approx((loss(m, neg), loss(m, pos)), rel=1e-12)
        original = np.array([m.weights[r.layer][r.i, r.j] for r in refs])
        p = int(rng.integers(8, 20))
        positions = original + rng.normal(0.0, 1.0, size=(p, len(refs)))
        positions[0] = original
        positions[1, 0] = 1e308
        positions[2, -1] = -1e308
        positions[3, 0] = np.nan
        positions[4, -1] = np.inf
        positions[5, 0] = -np.inf
        finite = np.isfinite(positions).all(axis=1)

        scores, full = scorer(positions), scorer(positions, full=True)
        for chunk in (1, 7, p):
            scorer.chunks = [chunk, chunk]
            for a, b in zip(scorer(positions), scores):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(scorer(positions, full=True), full):
                np.testing.assert_array_equal(a, b)
        for s in (scores, full):
            assert (s.raw[~finite] == -np.inf).all()
            assert (s.gated[~finite] == -np.inf).all()
        reads_pos_loss = cfg.variant == "eq1"
        assert np.isnan(scores.loss_pos).all() != reads_pos_loss

        for k in np.flatnonzero(finite):
            candidate = write_weights(m, refs, positions[k])
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
        m = Model(m.layers, m.weights[:-1] + (w,), m.biases[:-1] + (b,))
        # the label sits on the later column for about half of I_pos
        on_later = rng.random(len(pos)) < 0.5
        pred = np.argmax(forward(m, pos), axis=1)
        pos = Batch(pos.inputs, np.where(on_later, c2, pred), pos.sample_ids)
        cfg = FitnessConfig(
            variant="eq2",
            alpha=float(rng.uniform(0.5, 8)),
            perfect_intact=bool(trial // 4 % 2),
            loss_ratio_orientation=ORIENTATIONS[trial // 8 % 2],
        )
        refs = localized.refs
        scorer = BatchScorer(m, refs, neg, pos, cfg)
        original = np.array([m.weights[r.layer][r.i, r.j] for r in refs])
        p = int(rng.integers(12, 24))
        scale = np.array([0.0, 1e-14, 1e-12, 1e-10, 1.0])[np.arange(p) % 5][:, None]
        positions = original + scale * rng.normal(size=(p, len(refs)))
        positions[5, 0] = 1e308
        positions[6, -1] = -1e308
        positions[7, 0] = np.nan
        positions[8, -1] = np.inf
        positions[9, 0] = -np.inf
        positions[10] = 1e308

        want = scorer(positions, full=True)
        fallback_before = scorer.n_fallback
        scorer(positions)
        n_fallback += scorer.n_fallback - fallback_before
        for chunk in (1, 7, p):
            scorer.chunks = [chunk, chunk]
            for got in (scorer(positions), scorer(positions, full=True)):
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
                refs = {WeightRef(layer, int(rng.integers(n_in)), int(j)) for j in units}
                refs |= {WeightRef(layer, int(rng.integers(n_in)), int(rng.choice(units)))
                         for _ in range(3)}
                refs = sorted(refs, key=lambda r: r.sort_key)
                cfg = FitnessConfig(variant=("eq1", "eq2")[(trial + layer) % 2],
                                    alpha=float(rng.uniform(0.5, 8)),
                                    perfect_intact=bool(trial % 2))
                scorer = BatchScorer(m, refs, neg, pos, cfg)
                assert scorer.units == (n_units, n_out)
                original = np.array([m.weights[layer][r.i, r.j] for r in refs])
                p = int(rng.integers(8, 16))
                positions = original + rng.normal(0.0, 1.0, size=(p, len(refs)))
                positions[0] = original

                scores, full = scorer(positions), scorer(positions, full=True)
                for chunk in (1, 7, p):
                    scorer.chunks = [chunk, chunk]
                    for got in (scorer(positions), scorer(positions, full=True)):
                        for name in ("n_patched", "n_intact", "raw", "gated"):
                            np.testing.assert_array_equal(getattr(got, name), getattr(scores, name))
                            np.testing.assert_array_equal(getattr(got, name), getattr(full, name))
                    for a, b in zip(scorer(positions, full=True), full):
                        np.testing.assert_array_equal(a, b)

                for k in range(p):
                    with np.errstate(over="ignore", invalid="ignore"):
                        ref = fitness(write_weights(m, refs, positions[k]), neg, pos,
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
                assert scorer.n_fallback == 0


def test_overflowing_candidate_scores_minus_inf():
    # W[0,1] = 1e308 sends the class-1 logit of I_pos sample [3, 0.2] to +inf, so its
    # softmax is nan, while the I_neg sample is patched by a finite logit
    model = single_layer_model([[1.0, 0.0], [0.3, -0.7]])
    i_neg = Batch([[1.0, 0.5]], [1], ("n0",))
    i_pos = Batch([[0.5, 1.0], [3.0, 0.2]], [0, 0], ("p0", "p1"))
    refs = [WeightRef(0, 0, 1)]
    base = (loss(model, i_neg), loss(model, i_pos))
    huge = write_weights(model, refs, [1e308])
    for variant in ("eq1", "eq2"):
        for gate in (False, True):
            cfg = FitnessConfig(variant=variant, perfect_intact=gate)
            with np.errstate(over="ignore", invalid="ignore"):
                bd = fitness(huge, i_neg, i_pos, base, cfg)
            assert bd.n_patched == 1
            assert bd.raw_fitness == bd.gated_fitness == -np.inf
            scorer = BatchScorer(model, refs, i_neg, i_pos, cfg)
            for full in (False, True):
                scores = scorer(np.array([[1e308]]), full=full)
                assert scores.raw[0] == scores.gated[0] == -np.inf


def test_tie_with_identity_returns_the_original_model():
    # feature 1 is 0 on every sample, so its outgoing weights change nothing
    model = single_layer_model([[1.0, 0.0], [0.3, -0.7]])
    i_neg = Batch([[1.0, 0.0], [2.0, 0.0]], [1, 1], ("n0", "n1"))
    i_pos = Batch([[0.5, 0.0], [3.0, 0.0]], [0, 0], ("p0", "p1"))
    localized = localized_over([WeightRef(0, 1, 0), WeightRef(0, 1, 1)])
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


def threshold_setup():
    """1-weight landscape: pushing w[0,1] past 0.5 flips the I_neg sample."""
    model = single_layer_model([[0.5, 0.0], [0.0, 0.0]])
    i_neg = Batch([[1.0, 0.0]], [1], ("n0",))
    i_pos = Batch([[0.0, 1.0]], [0], ("p0",))
    localized = localized_over([WeightRef(0, 0, 1)])
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
    identity = fitness(model, i_neg, i_pos, (loss(model, i_neg), loss(model, i_pos)), fcfg)
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
        LocalizedSet(refs=(), provenance={}, warning="localized set is empty"),
        i_neg,
        i_pos,
        FitnessConfig(),
        SwarmConfig(n_particles=2, n_iterations=1, seed=0),
    )
    assert out.no_search_space
    assert out.identity_fallback
    assert out.model is model
    assert out.trace == ()


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
        base = (loss(m, neg), loss(m, pos))
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
        # confinement: every weight outside the localized set is untouched
        touched = {(r.layer, r.i, r.j) for r in localized.refs}
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
