"""Model core: construction rules, forward pass, loss, gradients, weight
reads/writes."""
from __future__ import annotations

import numpy as np
import pytest

from nnpatch import (
    LayerSpec,
    Model,
    ShapeError,
    build_mlp,
    compute_impacts,
    forward,
    loss,
    read_weights,
    write_weights,
)
from nnpatch.network import (
    PROB_CLAMP,
    full_gradients,
    layer_inputs,
    loss_from_picked,
    loss_from_probs,
)

from helpers import random_batch, random_model, samples, single_layer_model


def test_model_construction_rules():
    good = build_mlp([2, 3, 4], seed=0)
    assert good.n_classes == 4 and good.input_size == 2 and good.n_layers == 2
    # the layer records are derived from the shapes: relu hidden, softmax head
    assert good.layers == (LayerSpec(2, 3, "relu"), LayerSpec(3, 4, "softmax"))

    for weights, biases, match in (
        ((), (), "at least one layer"),
        ((np.zeros((2, 3)),), (), "equal length"),
        ((np.zeros((0, 3)),), (np.zeros(3),), "weight shape"),
        ((np.zeros((2, 0)),), (np.zeros(0),), "weight shape"),
        ((np.zeros(3),), (np.zeros(3),), "weight shape"),
        ((np.zeros((2, 3)),), (np.zeros(2),), "bias shape"),
        ((np.zeros((2, 3)), np.zeros((4, 2))), (np.zeros(3), np.zeros(2)), "chain"),
        ((np.array([[1.0, np.nan], [0, 0]]),), (np.zeros(2),), "non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            Model(weights, biases)
    with pytest.raises(ValueError, match="input and output sizes"):
        build_mlp([3], seed=0)


def layer_index(model, layer):
    """(i, j) of every weight of one layer, in (j, i) order."""
    n_in, n_out = model.weights[layer].shape
    j, i = np.divmod(np.arange(n_in * n_out), n_in)
    return i, j


def test_input_and_label_validation():
    m = build_mlp([3, 2], seed=0)
    x, y = np.zeros((2, 3)), np.zeros(2, dtype=int)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(3))
    with pytest.raises(ShapeError):
        loss(m, x, np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        full_gradients(m, x, np.zeros((2, 1), dtype=int))
    with pytest.raises(ValueError, match="finite"):
        forward(m, np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(ValueError, match="out of range"):
        full_gradients(m, x, [0, -1])
    with pytest.raises(ValueError, match="out of range"):
        full_gradients(m, x, [0, 2])
    assert np.isfinite(loss(m, x, y))


def test_forward_rows_are_distributions():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = random_model(rng)
        b = random_batch(rng, m)
        p = forward(m, b.features)
        assert p.shape == (len(b), m.n_classes)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_forward_empty_batch_and_dim_mismatch():
    m = build_mlp([3, 2], seed=1)
    empty = np.zeros((0, 3))
    assert forward(m, empty).shape == (0, 2)
    with pytest.raises(ValueError):
        loss(m, empty, np.zeros(0, dtype=int))
    with pytest.raises(ShapeError):
        forward(m, np.zeros((2, 4)))


def test_softmax_is_stable_for_large_logits():
    m = single_layer_model([[1000.0, -1000.0]])
    p = forward(m, [[1.0]])
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p[0, 0], 1.0)


def test_loss_clamps_probabilities():
    # true-class probability underflows to 0; clamp keeps the loss finite
    assert np.isfinite(loss_from_probs(np.array([[1.0, 0.0]]), np.array([1])))
    assert loss_from_probs(np.array([[1.0, 0.0]]), np.array([1])) == -np.log(PROB_CLAMP)


def test_loss_of_perfect_picks_is_negative_zero():
    # the mean is negated after it is taken, so picks that are all 1 give -0.0, which
    # a run record writes as "-0.0": a persisted byte that this sign pins
    assert np.signbit(loss_from_picked(np.ones((2, 10)))).all()
    assert np.signbit(loss_from_probs(np.eye(3)[[2, 0, 1, 2]], np.array([2, 0, 1, 2])))


def test_loss_label_out_of_range():
    m = build_mlp([2, 3], seed=0)
    with pytest.raises(ValueError, match="out of range"):
        loss(m, np.zeros((1, 2)), [5])


def _fd_gradient(model, x, y, layer, i, j, eps=1e-6):
    w0 = float(model.weights[layer][i, j])
    up = loss(write_weights(model, layer, [i], [j], [w0 + eps]), x, y)
    dn = loss(write_weights(model, layer, [i], [j], [w0 - eps]), x, y)
    return (up - dn) / (2 * eps)


def test_gradients_match_finite_differences_spot_checks():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(8):
        m = random_model(rng)
        b = random_batch(rng, m)
        layer = int(rng.integers(0, m.n_layers))
        # the loss clamp flattens samples whose true-class probability
        # underflows; FD disagrees with the analytic gradient there
        probs = forward(m, b.features)
        if probs[np.arange(len(b)), b.labels].min() < 1e-9:
            continue
        grads = full_gradients(m, b.features, b.labels)[0][layer]
        i, j = layer_index(m, layer)
        for k in (0, len(i) // 2, -1):
            fd = _fd_gradient(m, b.features, b.labels, layer, i[k], j[k])
            assert abs(grads[i[k], j[k]] - fd) <= 1e-6 + 1e-6 * abs(fd)
            checked += 1
    assert checked >= 9


def test_gradient_rejects_bad_layer_and_empty_batch():
    # compute_impacts holds the one gradient of a chosen layer
    m = build_mlp([2, 2], seed=0)
    b = samples(np.zeros((1, 2)), [0], ("a",))
    with pytest.raises(ValueError, match="invalid layer"):
        compute_impacts(m, b, b, 5)
    with pytest.raises(ValueError):
        full_gradients(m, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_layer_inputs_match_manual_forward():
    rng = np.random.default_rng(3)
    m = random_model(rng)
    b = random_batch(rng, m)
    np.testing.assert_array_equal(layer_inputs(m, b.features, 0), b.features)
    for layer in range(1, m.n_layers):
        a = b.features
        for k in range(layer):
            z = a @ m.weights[k] + m.biases[k]
            a = np.maximum(z, 0)  # every hidden layer is relu
        np.testing.assert_array_equal(layer_inputs(m, b.features, layer), a)


@pytest.mark.parametrize("layer, i, j, values", [
    (0, [1, 0], [2, 0], [9.0, 0.125]),
    (1, [3], [0], [-2.5]),
], ids=["layer0", "layer1"])
def test_read_write_weights_roundtrip_and_isolation(layer, i, j, values):
    m = build_mlp([3, 4, 2], seed=5)
    vals = read_weights(m, layer, i, j)
    m2 = write_weights(m, layer, i, j, values)
    np.testing.assert_array_equal(read_weights(m2, layer, i, j), values)
    # original untouched
    np.testing.assert_array_equal(read_weights(m, layer, i, j), vals)
    # everything outside (layer, i, j) is bit-identical, and other layers share storage
    touched = {(layer, a, b) for a, b in zip(i, j)}
    for k in range(m.n_layers):
        for a in range(m.layers[k].input_size):
            for b in range(m.layers[k].output_size):
                if (k, a, b) not in touched:
                    assert m.weights[k][a, b] == m2.weights[k][a, b]
        np.testing.assert_array_equal(m.biases[k], m2.biases[k])
        assert np.shares_memory(m.weights[k], m2.weights[k]) == (k != layer)


@pytest.mark.parametrize("layer, i, j, values, match", [
    (1, [0], [0], [1.0], "invalid layer"),
    (0, [-1], [0], [1.0], "out of bounds"),
    (0, [0], [2], [1.0], "out of bounds"),
    (0, [0, 1], [0], [1.0, 2.0], "one length"),
    (0, [0.5], [0], [1.0], "integer"),
    (0, [0], [0], [1.0, 2.0], "expected 1 values"),
    (0, [0], [0], [np.inf], "finite"),
], ids=["layer", "negative_i", "j_out_of_range", "unequal_lengths", "float_index", "value_count", "non_finite"])
def test_write_weights_validation(layer, i, j, values, match):
    m = build_mlp([2, 2], seed=0)
    with pytest.raises(ValueError, match=match):
        write_weights(m, layer, i, j, values)


def test_build_mlp_is_deterministic():
    a = build_mlp([4, 6, 3], seed=42)
    b = build_mlp([4, 6, 3], seed=42)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = build_mlp([4, 6, 3], seed=43)
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))


def test_identity_weights_on_zero_input_give_uniform_output():
    m = single_layer_model(np.eye(2))
    np.testing.assert_allclose(forward(m, [[0.0, 0.0]])[0], [0.5, 0.5])


def test_forward_matches_straight_line_recomputation():
    # no shared code with the implementation: plain matrix arithmetic
    m = build_mlp([2, 3, 2], seed=9)
    x = np.array([[0.3, -1.1], [2.0, 0.4]])
    z1 = x @ m.weights[0] + m.biases[0]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ m.weights[1] + m.biases[1]
    e = np.exp(z2 - z2.max(axis=1, keepdims=True))
    expected = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(forward(m, x), expected, atol=1e-6)


def test_loss_matches_straight_line_recomputation():
    m = build_mlp([2, 3, 2], seed=9)
    x = np.array([[0.3, -1.1], [2.0, 0.4], [0.0, 0.0], [-0.5, 0.7]])
    y = np.array([0, 1, 1, 0])
    z1 = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
    z2 = z1 @ m.weights[1] + m.biases[1]
    e = np.exp(z2 - z2.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    expected = -np.log(p[np.arange(4), y]).mean()
    got = loss(m, x, y)
    assert abs(got - expected) <= 1e-6


def test_loss_trivial_values():
    # perfect prediction scores zero
    assert loss_from_probs(np.array([[1.0, 0.0]]), np.array([0])) == 0.0
    # zero weights produce the uniform 2-class prediction
    m = single_layer_model([[0.0, 0.0]])
    assert abs(loss(m, [[3.0]], [1]) - np.log(2)) <= 1e-6


def test_gradient_fd_on_seeded_2_3_2_single_sample():
    m = build_mlp([2, 3, 2], seed=4)
    x, y = [[0.7, -0.2]], [1]
    for layer in range(2):
        grads = full_gradients(m, x, y)[0][layer]
        for i, j in zip(*layer_index(m, layer)):
            fd = _fd_gradient(m, x, y, layer, i, j, eps=1e-4)
            assert abs(grads[i, j] - fd) <= 1e-6 + 1e-4 * abs(fd)


def test_zero_inputs_zero_biases_kill_first_layer_gradients():
    m = build_mlp([3, 4, 2], seed=1)  # biases are zero at init
    grads = full_gradients(m, np.zeros((2, 3)), [0, 1])[0][0]
    assert (grads == 0.0).all()


def test_batch_gradient_is_mean_of_per_sample_gradients():
    rng = np.random.default_rng(6)
    m = random_model(rng)
    b = random_batch(rng, m, max_samples=2)
    x, y = b.features, b.labels
    if len(b) < 2:
        x, y = np.vstack([x, x + 0.5]), np.concatenate([y, y])
    layer = m.n_layers - 1
    whole = full_gradients(m, x, y)[0][layer]
    parts = [full_gradients(m, x[k : k + 1], y[k : k + 1])[0][layer] for k in range(len(x))]
    np.testing.assert_allclose(whole, np.mean(parts, axis=0), atol=1e-8)


def test_single_output_weight_patch_localizes_presoftmax():
    m = build_mlp([2, 3, 2], seed=8)
    x = np.array([[-1.0, 1.0]])
    a1 = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
    assert a1[0, 0] > 0  # feeding unit must be live for the patch to matter
    m2 = write_weights(m, 1, [0], [1], [float(m.weights[1][0, 1]) + 2.0])
    z_before = a1 @ m.weights[1] + m.biases[1]
    z_after = a1 @ m2.weights[1] + m2.biases[1]
    assert z_before[0, 0] == z_after[0, 0]  # untargeted neuron
    assert z_before[0, 1] != z_after[0, 1]


def test_write_original_values_back_is_identity():
    rng = np.random.default_rng(12)
    m = random_model(rng)
    b = random_batch(rng, m)
    layer = m.n_layers - 1
    i, j = layer_index(m, layer)
    m2 = write_weights(m, layer, i, j, read_weights(m, layer, i, j))
    np.testing.assert_array_equal(forward(m, b.features), forward(m2, b.features))


def test_relu_layer_with_negative_preactivations_outputs_zero():
    w0 = -np.ones((2, 3))
    m = Model((w0, np.zeros((3, 2))), (np.zeros(3), np.zeros(2)))
    np.testing.assert_array_equal(layer_inputs(m, [[1.0, 2.0]], 1), np.zeros((1, 3)))


def test_repeated_forward_calls_are_bit_identical():
    rng = np.random.default_rng(13)
    m = random_model(rng)
    b = random_batch(rng, m)
    np.testing.assert_array_equal(forward(m, b.features), forward(m, b.features))
