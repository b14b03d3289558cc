"""Impact computation and suspicious-weight selection, checked against
independent brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest

from nnpatch import (
    ImpactTable,
    LocalizedSet,
    build_mlp,
    compute_impacts,
    localization_curve,
    localize,
    localize_to_count,
)
from nnpatch.localization import impact_ranks, write_impact_csv, write_localized_csv
from nnpatch.network import forward, full_gradients, layer_inputs, loss, write_weights

from helpers import random_batch, random_model, samples


def random_table(rng, n_in=None, n_out=None, ties=False):
    n_in = n_in or int(rng.integers(1, 15))
    n_out = n_out or int(rng.integers(1, 15))
    if ties:
        pool = rng.integers(0, 4, size=(4, n_in, n_out)).astype(float)
    else:
        pool = rng.random((4, n_in, n_out))
    return ImpactTable(0, pool)


def pairs(localized):
    """The (i, j) pairs of a localized set, in its order."""
    return list(zip(localized.i.tolist(), localized.j.tolist()))


def brute_top(table, k, n_g):
    """Reference top-n selection under impact k: the (i, j) pairs sorted by
    (impact desc, j, i)."""
    score = table.scores[k]
    refs = [(i, j) for i in range(score.shape[0]) for j in range(score.shape[1])]
    refs.sort(key=lambda r: (-score[r], r[1], r[0]))
    return frozenset(refs[:n_g])


def brute_localized(table, n_g):
    bf, ff, bp, fp = (brute_top(table, k, n_g) for k in range(4))
    return (bf & ff) - (bp & fp)


def test_impact_table_validation():
    with pytest.raises(ValueError):
        ImpactTable(0, [np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2))])
    with pytest.raises(ValueError, match="negative"):
        ImpactTable(0, [-np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))])
    with pytest.raises(ValueError):
        ImpactTable(0, [np.full((2, 2), np.nan), np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))])
    with pytest.raises(ValueError, match="2-D"):
        ImpactTable(0, [np.ones(4), np.ones(4), np.ones(4), np.ones(4)])


def test_localized_set_construction():
    i, j = np.array([2, 0, 2]), np.array([1, 1, 0])
    loc = LocalizedSet(3, i, j, n_g=4)
    i[0] = 9  # the set holds its own read-only int64 copies
    assert (loc.layer, len(loc), pairs(loc)) == (3, 3, [(2, 1), (0, 1), (2, 0)])
    for v in (loc.i, loc.j):
        assert v.dtype == np.int64 and not v.flags.writeable
    assert len(LocalizedSet(0, [], [], n_g=1)) == 0
    with pytest.raises(ValueError, match="duplicates"):
        LocalizedSet(0, [2, 0, 2], [1, 1, 1], n_g=4)
    with pytest.raises(ValueError, match="one length"):
        LocalizedSet(0, [0, 1], [0], n_g=4)
    with pytest.raises(ValueError, match="one length"):
        LocalizedSet(0, [[0, 1]], [[0, 1]], n_g=4)
    with pytest.raises(ValueError, match="integer"):  # a cast would truncate 0.5 to 0
        LocalizedSet(0, [0.5], [1], n_g=4)


def test_zero_weight_has_zero_forward_impact():
    m = build_mlp([2, 3, 2], seed=1)
    w = [x.copy() for x in (m.weights[1],)][0]
    w[1, 0] = 0.0
    m = write_weights(m, 1, [1], [0], [0.0])
    rng = np.random.default_rng(2)
    failed = random_batch(rng, m, prefix="f")
    passed = random_batch(rng, m, prefix="p")
    t = compute_impacts(m, failed, passed, layer=1)
    assert t.scores[1][1, 0] == 0.0  # fwd_failed
    assert t.scores[3][1, 0] == 0.0  # fwd_passed


def test_same_batch_gives_equal_columns():
    rng = np.random.default_rng(3)
    m = random_model(rng)
    b = random_batch(rng, m)
    t = compute_impacts(m, b, b, layer=m.n_layers - 1)
    np.testing.assert_array_equal(t.scores[0], t.scores[2])  # back: failed, passed
    np.testing.assert_array_equal(t.scores[1], t.scores[3])  # fwd: failed, passed


def test_swapping_batches_swaps_columns():
    rng = np.random.default_rng(4)
    m = random_model(rng)
    f = random_batch(rng, m, prefix="f")
    p = random_batch(rng, m, prefix="p")
    layer = m.n_layers - 1
    t = compute_impacts(m, f, p, layer)
    s = compute_impacts(m, p, f, layer)
    np.testing.assert_array_equal(t.scores, s.scores[[2, 3, 0, 1]])


def test_impacts_match_per_sample_loop_oracle():
    # explicit per-sample loops, no shared code with compute_impacts
    m = build_mlp([2, 3, 2], seed=6)
    rng = np.random.default_rng(7)
    failed = samples(rng.normal(size=(4, 2)), rng.integers(0, 2, 4), ("f0", "f1", "f2", "f3"))
    passed = samples(rng.normal(size=(3, 2)), rng.integers(0, 2, 3), ("p0", "p1", "p2"))
    layer = 1
    t = compute_impacts(m, failed, passed, layer)

    def fd_grad_mean(batch, i, j, eps=1e-7):
        w0 = float(m.weights[layer][i, j])
        up = loss(write_weights(m, layer, [i], [j], [w0 + eps]), batch.features, batch.labels)
        dn = loss(write_weights(m, layer, [i], [j], [w0 - eps]), batch.features, batch.labels)
        return (up - dn) / (2 * eps)

    n_in, n_out = m.weights[layer].shape
    for batch, back, fwd in ((failed, *t.scores[:2]), (passed, *t.scores[2:])):
        for i in range(n_in):
            for j in range(n_out):
                assert abs(back[i, j] - abs(fd_grad_mean(batch, i, j))) <= 1e-6
                acc = 0.0
                for s in range(len(batch)):
                    x = batch.features[s]
                    h = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
                    acc += abs(h[i] * m.weights[layer][i, j])
                assert abs(fwd[i, j] - acc / len(batch)) <= 1e-8


def test_impacts_equal_the_two_pass_reference_bit_for_bit():
    # one trace and one backward pass per set, stopped at the layer, against a
    # forward pass and a full backward pass per impact through the public API
    rng = np.random.default_rng(20)
    for trial in range(30):
        m = random_model(rng, n_layers=trial % 3 + 1)
        failed = random_batch(rng, m, prefix="f")
        passed = random_batch(rng, m, prefix="p")
        for layer in range(m.n_layers):
            want = []
            for ds in (failed, passed):
                want.append(np.abs(full_gradients(m, ds.features, ds.labels)[0][layer]))
                o = layer_inputs(m, ds.features, layer)
                want.append(np.abs(o).mean(axis=0)[:, None] * np.abs(m.weights[layer]))
            t = compute_impacts(m, failed, passed, layer)
            assert t.layer == layer and t.scores.shape == (4, *m.weights[layer].shape)
            np.testing.assert_array_equal(t.scores, np.stack(want), strict=True)


def test_compute_impacts_rejects_empty_batches():
    m = build_mlp([2, 2], seed=0)
    empty = samples(np.zeros((0, 2)), np.zeros(0, dtype=int), ())
    b = samples(np.zeros((1, 2)), [0], ("a",))
    with pytest.raises(ValueError):
        compute_impacts(m, empty, b, 0)
    with pytest.raises(ValueError):
        compute_impacts(m, b, empty, 0)


def ranked_top(table, k, n_g):
    """The (i, j) pairs whose rank under impact k is below n_g."""
    i, j = np.divmod(np.flatnonzero(impact_ranks(table)[k] < n_g), table.shape[1])
    return frozenset(zip(i.tolist(), j.tolist()))


def test_impact_ranks_saturation_and_exact_sort():
    rng = np.random.default_rng(8)
    t = random_table(rng, 4, 5)
    ranks = impact_ranks(t)
    # every row is a permutation of 0..N-1, so at n_g = N every weight is in
    assert all(sorted(row) == list(range(20)) for row in ranks)
    all_refs = frozenset((i, j) for i in range(4) for j in range(5))
    assert all(ranked_top(t, k, 20) == all_refs for k in range(4))

    for k in range(4):
        assert ranked_top(t, k, 7) == brute_top(t, k, 7)


def test_impact_ranks_ties_at_the_cut():
    back = np.array([[3.0, 1.0], [1.0, 1.0]])  # 3-way tie at the n_g=2 cut
    t = ImpactTable(0, [back, back, back, back])
    for k in range(4):
        assert ranked_top(t, k, 2) == brute_top(t, k, 2)
    # ties break by (j, i): (i=1, j=0) before (i=0, j=1)
    assert ranked_top(t, 0, 2) == frozenset({(0, 0), (1, 0)})


def test_localize_range_errors():
    rng = np.random.default_rng(9)
    t = random_table(rng, 3, 3)
    with pytest.raises(ValueError):
        localize(t, 0)
    with pytest.raises(ValueError):
        localize(t, 10)


def test_localize_trivial_cases():
    # disjoint top regions between impacts -> empty intersection
    back_f = np.array([[1.0, 0.0], [0.0, 0.0]])
    fwd_f = np.array([[0.0, 0.0], [0.0, 1.0]])
    zeros = np.zeros((2, 2))
    t = ImpactTable(0, [back_f, fwd_f, zeros, zeros])
    out = localize(t, 1)
    assert len(out) == 0 and out.i.dtype == out.j.dtype == np.int64
    assert out.warning is not None

    # passed sets disjoint from failed sets -> plain intersection survives
    back_f = np.array([[4.0, 3.0], [0.0, 0.0]])
    fwd_f = np.array([[4.0, 3.0], [0.0, 0.0]])
    back_p = np.array([[0.0, 0.0], [4.0, 3.0]])
    fwd_p = np.array([[0.0, 0.0], [4.0, 3.0]])
    t = ImpactTable(0, [back_f, fwd_f, back_p, fwd_p])
    out = localize(t, 2)
    assert out.layer == 0 and set(pairs(out)) == {(0, 0), (0, 1)}
    assert out.warning is None


def test_localize_matches_brute_force_everywhere():
    rng = np.random.default_rng(10)
    for trial in range(40):
        t = random_table(rng, ties=bool(trial % 2))
        n = t.n_weights
        curve = localization_curve(t)
        for n_g in range(1, n + 1):
            got = localize(t, n_g)
            want = brute_localized(t, n_g)
            assert set(pairs(got)) == want
            assert len(got) <= n_g
            assert got.n_g == n_g
            assert curve[n_g - 1] == len(want)


def test_localize_set_algebra_soundness():
    rng = np.random.default_rng(11)
    t = random_table(rng, 8, 8, ties=True)
    n_g = 13
    bf, ff, bp, fp = (ranked_top(t, k, n_g) for k in range(4))
    out = localize(t, n_g)
    for r in pairs(out):
        assert r in bf and r in ff
        assert not (r in bp and r in fp)


def test_localize_determinism_including_order():
    rng = np.random.default_rng(12)
    t = random_table(rng, 9, 7, ties=True)
    a = localize(t, 11)
    b = localize(t, 11)
    assert pairs(a) == pairs(b)
    assert a.n_g == b.n_g


def test_localize_to_count_truncation_and_subset():
    # failure region must differ from the success region for a large
    # localized set to exist at any n_g
    m = build_mlp([4, 16, 8], seed=13)
    rng = np.random.default_rng(14)
    failed = samples(rng.normal(size=(8, 4)) + 2.5, rng.integers(0, 8, 8), tuple(f"f{k}" for k in range(8)))
    passed = samples(rng.normal(size=(9, 4)) - 1.0, rng.integers(0, 8, 9), tuple(f"p{k}" for k in range(9)))
    table = compute_impacts(m, failed, passed, 1)
    out = localize_to_count(table, target_lw=1)
    assert len(out) == 1 and out.layer == 1

    out32 = localize_to_count(table, target_lw=32)
    assert len(out32) == 32
    n_g = out32.n_g
    assert pairs(out32) == pairs(localize(table, n_g))[:32]
    with pytest.raises(ValueError, match="target_lw"):
        localize_to_count(table, target_lw=0)


def test_localize_to_count_saturation_warning():
    m = build_mlp([2, 3, 2], seed=15)
    rng = np.random.default_rng(16)
    failed = samples(rng.normal(size=(4, 2)), rng.integers(0, 2, 4), tuple(f"f{k}" for k in range(4)))
    passed = samples(rng.normal(size=(4, 2)), rng.integers(0, 2, 4), tuple(f"p{k}" for k in range(4)))
    out = localize_to_count(compute_impacts(m, failed, passed, 1), target_lw=500)
    assert out.warning is not None
    assert 0 < len(out) <= 6  # layer has 3*2 weights


def test_localize_to_count_result_is_smallest_reaching_ng():
    # the chosen n_g must be minimal among those reaching target_lw
    m = build_mlp([3, 10, 3], seed=17)
    rng = np.random.default_rng(18)
    failed = samples(rng.normal(size=(6, 3)) + 2.0, rng.integers(0, 3, 6), tuple(f"f{k}" for k in range(6)))
    passed = samples(rng.normal(size=(7, 3)) - 1.0, rng.integers(0, 3, 7), tuple(f"p{k}" for k in range(7)))
    target = 6
    table = compute_impacts(m, failed, passed, 1)
    out = localize_to_count(table, target_lw=target)
    assert len(out) == target
    n_star = out.n_g
    assert len(localize(table, n_star)) >= target
    for smaller in range(1, n_star):
        assert len(localize(table, smaller)) < target

    # |localize(n_g)| is not monotone in n_g: here it is [0,0,0,0,1,0,0,2,0]
    # over n_g = 1..9, so a doubling scan lands on 8 while 5 is the smallest
    pinned = ImpactTable(0, [
        [[6, 3, 9], [7, 2, 1], [4, 1, 6]],  # back_failed
        [[0, 4, 6], [6, 6, 0], [6, 7, 6]],  # fwd_failed
        [[8, 5, 8], [9, 4, 4], [6, 1, 7]],  # back_passed
        [[2, 3, 4], [9, 6, 4], [3, 3, 4]],  # fwd_passed
    ])
    shapes = rng.integers(2, 9, size=(100, 2))
    tables = [pinned]
    tables += [random_table(rng, n_in, n_out, ties=bool(k % 2)) for k, (n_in, n_out) in enumerate(shapes)]
    for table in tables:
        sizes = [len(brute_localized(table, n)) for n in range(1, table.n_weights + 1)]
        for target in range(1, max(sizes) + 1):
            out = localize_to_count(table, target_lw=target)
            assert out.warning is None and len(out) == target
            assert out.n_g == next(n for n, size in enumerate(sizes, 1) if size >= target)
    assert localize_to_count(pinned, target_lw=1).n_g == 5


def test_csv_dumps(tmp_path):
    rng = np.random.default_rng(19)
    t = random_table(rng, 3, 3)
    impact_path = tmp_path / "impacts.csv"
    write_impact_csv(t, impact_path)
    lines = impact_path.read_text().strip().splitlines()
    assert lines[0] == "layer,i,j,back_failed,fwd_failed,back_passed,fwd_passed"
    assert len(lines) == 1 + 9

    out = localize(t, 4)
    loc_path = tmp_path / "localized.csv"
    write_localized_csv(out, loc_path)
    lines = loc_path.read_text().strip().splitlines()
    assert lines[0] == "rank,layer,i,j"
    assert lines[1:] == [f"{rank},0,{i},{j}" for rank, (i, j) in enumerate(pairs(out))]
