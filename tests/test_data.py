"""Dataset splitting, drift construction, repair-input selection, and
serialization round-trips."""
from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np
import pytest

from nnpatch import (
    Dataset,
    DriftSpec,
    NothingToRepairError,
    RepairInputError,
    SplitSpec,
    build_mlp,
    evaluate,
    forward,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    select_repair_inputs,
    split,
)
from nnpatch.data import predictions
from nnpatch.synth import ClustersSource, make_clusters

from helpers import samples, single_layer_model, toy_dataset


def uniform_dataset(n, n_classes, d=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    return Dataset(
        features=rng.normal(size=(n, d)),
        labels=labels,
        sample_ids=tuple(f"u{k}" for k in range(n)),
        n_classes=n_classes,
        class_names=tuple(f"k{c}" for c in range(n_classes)),
    )


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum"):
        SplitSpec(0.5, 0.2, 0.2, 0.2, seed=0)
    with pytest.raises(ValueError, match="train"):
        SplitSpec(0.0, 0.4, 0.3, 0.3, seed=0)
    # nan fails every comparison, so it is refused by name rather than passed on
    with pytest.raises(ValueError, match="validation"):
        SplitSpec(0.5, float("nan"), 0.3, 0.2, seed=0)
    with pytest.raises(ValueError, match="seed"):
        SplitSpec(0.25, 0.25, 0.25, 0.25, seed=-1)


def test_quarter_split_of_100_uniform_is_exact():
    ds = uniform_dataset(100, 4)
    parts = split(ds, SplitSpec(0.25, 0.25, 0.25, 0.25, seed=3))
    assert [len(p) for p in parts] == [25, 25, 25, 25]


def test_split_same_seed_is_identical():
    ds = uniform_dataset(97, 3)
    spec = SplitSpec(0.5, 0.1, 0.2, 0.2, seed=11)
    a = split(ds, spec)
    b = split(ds, spec)
    for pa, pb in zip(a, b):
        assert pa.sample_ids == pb.sample_ids
        np.testing.assert_array_equal(pa.features, pb.features)


def test_split_is_exact_partition_over_seeds_and_fractions():
    ds = uniform_dataset(83, 5)
    for seed in range(4):
        for fr in [(0.25, 0.25, 0.25, 0.25), (0.5, 0.1, 0.2, 0.2), (0.7, 0.1, 0.1, 0.1)]:
            parts = split(ds, SplitSpec(*fr, seed=seed))
            ids = [i for p in parts for i in p.sample_ids]
            assert len(ids) == len(ds)
            assert set(ids) == set(ds.sample_ids)


def test_stratified_split_keeps_class_ratio_within_one_sample():
    # 80/20 two-class set: per split the class-0 count must be within
    # one sample of 80% of the split size
    n = 200
    labels = np.array([0] * 160 + [1] * 40)
    rng = np.random.default_rng(5)
    ds = Dataset(
        features=rng.normal(size=(n, 2)),
        labels=labels,
        sample_ids=tuple(f"s{k}" for k in range(n)),
        n_classes=2,
        class_names=("a", "b"),
    )
    for seed in range(5):
        parts = split(ds, SplitSpec(0.25, 0.25, 0.25, 0.25, seed=seed))
        for p in parts:
            c0 = int((p.labels == 0).sum())
            assert abs(c0 - 0.8 * len(p)) <= 1.0


def test_split_preserves_rows_verbatim():
    ds = uniform_dataset(40, 2)
    parts = split(ds, SplitSpec(0.4, 0.2, 0.2, 0.2, seed=7))
    lookup = {i: k for k, i in enumerate(ds.sample_ids)}
    for p in parts:
        for k, sid in enumerate(p.sample_ids):
            src = lookup[sid]
            np.testing.assert_array_equal(p.features[k], ds.features[src])
            assert p.labels[k] == ds.labels[src]


def test_drift_spec_validation():
    with pytest.raises(ValueError):
        DriftSpec(target_class=0, train_fraction_of_class=0.8, repair_fraction_of_class=0.5, seed=0)
    with pytest.raises(ValueError):
        DriftSpec(target_class=0, train_fraction_of_class=-0.1, repair_fraction_of_class=0.5, seed=0)
    with pytest.raises(ValueError, match="seed"):
        DriftSpec(target_class=0, train_fraction_of_class=0.1, repair_fraction_of_class=0.5, seed=-1)


def test_noop_drift_equals_plain_split():
    ds = uniform_dataset(120, 3)
    spec = SplitSpec(0.25, 0.25, 0.25, 0.25, seed=2)
    plain = split(ds, spec)
    drifted = split(ds, spec, DriftSpec(target_class=1, train_fraction_of_class=1.0, repair_fraction_of_class=1.0, seed=9))
    for a, b in zip(plain, drifted):
        assert a.sample_ids == b.sample_ids


def test_zero_train_fraction_removes_class_from_train():
    ds = uniform_dataset(120, 3)
    spec = SplitSpec(0.25, 0.25, 0.25, 0.25, seed=2)
    parts = split(ds, spec, DriftSpec(target_class=1, train_fraction_of_class=0.0, repair_fraction_of_class=1.0, seed=9))
    train = parts[0]
    assert not (train.labels == 1).any()
    # other classes untouched
    assert (train.labels == 0).sum() == 10 and (train.labels == 2).sum() == 10


def test_drift_subsample_arithmetic():
    # 700-sample target class, 0.5 train share, keep 10% -> about 35 kept
    n_target, n_other = 700, 700
    rng = np.random.default_rng(1)
    ds = Dataset(
        features=rng.normal(size=(n_target + n_other, 2)),
        labels=np.array([0] * n_target + [1] * n_other),
        sample_ids=tuple(f"s{k}" for k in range(n_target + n_other)),
        n_classes=2,
        class_names=("t", "o"),
    )
    spec = SplitSpec(0.5, 0.2, 0.2, 0.1, seed=4)
    parts = split(ds, spec, DriftSpec(target_class=0, train_fraction_of_class=0.1, repair_fraction_of_class=0.5, seed=8))
    kept = int((parts[0].labels == 0).sum())
    assert abs(kept - 35) <= 1


def test_drift_prevalence_monotonicity():
    ds = uniform_dataset(400, 4)
    spec = SplitSpec(0.4, 0.2, 0.2, 0.2, seed=6)
    for tf, rf in [(0.1, 0.5), (0.2, 0.9), (0.0, 1.0)]:
        parts = split(ds, spec, DriftSpec(target_class=2, train_fraction_of_class=tf, repair_fraction_of_class=rf, seed=3))
        train, repair = parts[0], parts[2]
        prev_train = (train.labels == 2).mean() if len(train) else 0.0
        prev_repair = (repair.labels == 2).mean()
        assert prev_repair >= prev_train


def test_drift_missing_class_errors():
    ds = uniform_dataset(40, 2)
    spec = SplitSpec(0.25, 0.25, 0.25, 0.25, seed=0)
    with pytest.raises(ValueError, match="class"):
        split(ds, spec, DriftSpec(target_class=7, train_fraction_of_class=0.1, repair_fraction_of_class=0.5, seed=0))


def test_select_repair_inputs_boundaries():
    ds = toy_dataset(n=24, n_classes=2, seed=3)
    # zero weights + biased logits force class 0 on every input
    always0 = single_layer_model(np.zeros((ds.features.shape[1], 2)), biases=[1.0, 0.0])

    def relabelled(label):
        """(train, repair): the halves of `ds` with every sample's label set to `label`."""
        one_class = Dataset(ds.features, np.full(len(ds), label), ds.sample_ids, 2, ds.class_names)
        return one_class.subset(range(12)), one_class.subset(range(12, 24))

    def select(model, train, repair, target_class):
        passed = [evaluate(model, s).passed for s in (train, repair)]
        return select_repair_inputs(train, repair, target_class, *passed)

    # a model that passes every class-0 sample has nothing to repair on class 0
    with pytest.raises(NothingToRepairError):
        select(always0, *relabelled(0), target_class=0)
    # a model that misclassifies everything -> empty positive pool
    with pytest.raises(RepairInputError, match="positive pool"):
        select(always0, *relabelled(1), target_class=1)


def test_select_repair_inputs_matches_argmax_filter():
    ds = make_clusters(ClustersSource(n_classes=3, n_per_class=40, cluster_std=2.5, seed=21))
    parts = split(ds, SplitSpec(0.5, 0.1, 0.2, 0.2, seed=2))
    model = build_mlp([2, 8, 3], seed=5)
    train, repair = parts[0], parts[2]
    target = 2
    pool, negative = select_repair_inputs(train, repair, target, evaluate(model, train).passed,
                                          evaluate(model, repair).passed)

    pred_train = np.argmax(forward(model, train.features), axis=1)
    pred_repair = np.argmax(forward(model, repair.features), axis=1)
    want_pos = {i for i, ok in zip(train.sample_ids, pred_train == train.labels) if ok}
    want_neg = {
        i
        for i, lab, pr in zip(repair.sample_ids, repair.labels, pred_repair)
        if lab == target and pr != lab
    }
    assert set(pool.sample_ids) == want_pos
    assert set(negative.sample_ids) == want_neg
    assert want_pos.isdisjoint(want_neg)

    # soundness: re-evaluating the model confirms the verdicts
    assert (predictions(model, pool.features) == pool.labels).all()
    assert (predictions(model, negative.features) != negative.labels).all()


def test_select_repair_inputs_refuses_sets_that_share_a_sample():
    # "a" passes as class 0 in the train split and fails as class 1 in the repair
    # split, so it would land in both the positive pool and the negative set
    always0 = single_layer_model(np.zeros((2, 2)), biases=[1.0, 0.0])
    train = samples([[0.0, 1.0], [1.0, 0.0]], [0, 0], ("a", "b"), 2)
    repair = samples([[0.0, 1.0]], [1], ("a",), 2)
    with pytest.raises(RepairInputError, match="disjoint"):
        select_repair_inputs(train, repair, 1, evaluate(always0, train).passed,
                             evaluate(always0, repair).passed)


@pytest.mark.parametrize("split_name, mask", [
    ("train", np.ones(11, dtype=bool)),  # one sample short
    ("train", np.ones(13, dtype=bool)),
    ("repair", np.ones(12, dtype=np.int64)),  # 0/1 would index samples, not mask them
    ("repair", np.ones((12, 1), dtype=bool)),
    ("train", np.ones(12)),
])
def test_select_repair_inputs_refuses_a_mask_that_does_not_fit_its_split(split_name, mask):
    ds = toy_dataset(n=24, n_classes=2, seed=3)
    train, repair = ds.subset(range(12)), ds.subset(range(12, 24))
    masks = {"train": np.ones(12, dtype=bool), "repair": np.zeros(12, dtype=bool), split_name: mask}
    with pytest.raises(ValueError, match=f"{split_name} pass mask"):
        select_repair_inputs(train, repair, 1, masks["train"], masks["repair"])


def test_model_roundtrip_bit_identical(tmp_path):
    m = build_mlp([3, 5, 4], seed=17)
    path = tmp_path / "m.json"
    save_model(m, path)
    m2 = load_model(path)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    np.testing.assert_array_equal(forward(m, x), forward(m2, x))
    for wa, wb in zip(m.weights, m2.weights):
        np.testing.assert_array_equal(wa, wb)


def test_model_provenance_roundtrip(tmp_path):
    m = build_mlp([2, 2], seed=0)
    path = tmp_path / "m.json"
    save_model(m, path, provenance={"seed": 42, "config_hash": "abc"})
    raw = json.loads(path.read_text())
    assert raw["provenance"] == {"config_hash": "abc", "seed": 42}
    load_model(path)  # provenance must not break loading


def test_model_load_rejects_corruption(tmp_path):
    m = build_mlp([3, 2], seed=1)
    path = tmp_path / "m.json"
    save_model(m, path)
    text = path.read_text()
    truncated = tmp_path / "t.json"
    truncated.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError):
        load_model(truncated)
    tampered = tmp_path / "v.json"
    tampered.write_text(text.replace('"version":1', '"version":9'))
    with pytest.raises(ValueError, match="version"):
        load_model(tampered)
    # non-finite values are refused as in memory
    manifest = json.loads(text)
    manifest["weights"][0] = base64.b64encode(np.full(6, np.nan, dtype="<f8").tobytes()).decode()
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="corrupt model file: layer 0: non-finite"):
        load_model(path)
    # a JSON document that is no model, an array that is not base64, a missing field
    manifest = json.loads(text)
    for bad, match in (
        ([1, 2], "not a model file"),
        ({**manifest, "format": "other"}, "not a model file"),
        ({**manifest, "weights": ["not base64!"]}, "bad array encoding"),
        ({k: v for k, v in manifest.items() if k != "biases"}, "missing field"),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=match):
            load_model(path)


def test_model_load_refuses_a_layer_the_model_does_not_have(tmp_path):
    # a model is its arrays: relu on every hidden layer, softmax on the last, each
    # layer at least one unit wide; a file that declares anything else is refused
    path = tmp_path / "h.json"
    save_model(build_mlp([3, 4, 2], seed=1), path)
    text = path.read_text()
    hidden = '{"activation":"relu","input_size":3,"kind":"dense","output_size":4}'
    head = '{"activation":"softmax","input_size":4,"kind":"dense","output_size":2}'
    assert hidden in text and head in text
    for old, new, match in (
        (hidden, hidden.replace("relu", "tanh"), "layer 0 declares activation 'tanh', not 'relu'"),
        (hidden, hidden.replace("relu", "identity"), "layer 0 declares activation 'identity'"),
        (hidden, hidden.replace("relu", "softmax"), "layer 0 declares activation 'softmax'"),
        (head, head.replace("softmax", "relu"), "layer 1 declares activation 'relu', not 'softmax'"),
        (hidden, hidden.replace("dense", "conv"), "layer 0 declares kind 'conv', not 'dense'"),
        (hidden, hidden.replace('"output_size":4', '"output_size":0'), "corrupt model file"),
        (hidden, hidden.replace('"input_size":3', '"input_size":0'), "corrupt model file"),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match=match):
            load_model(bad)
    # a zero-width layer whose arrays are empty as declared is refused by `Model`
    path = tmp_path / "z.json"
    save_model(build_mlp([1, 2], seed=1), path)
    manifest = json.loads(path.read_text())
    manifest["layers"][0]["input_size"] = 0
    manifest["weights"] = [""]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="corrupt model file: layer 0: weight shape"):
        load_model(path)


@pytest.mark.parametrize("declared", [99, 2, 3.0, True, None])
def test_model_load_refuses_a_class_count_the_model_does_not_have(tmp_path, declared):
    # the head has 3 outputs: a file that declares another class count is refused
    path = tmp_path / "m.json"
    save_model(build_mlp([2, 4, 3], seed=1), path)
    manifest = json.loads(path.read_text())
    assert manifest["n_classes"] == 3
    manifest["n_classes"] = declared
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"corrupt model file: declares n_classes {declared!r}, not 3"):
        load_model(path)


@pytest.mark.parametrize("sizes, size", [([2, 3], "2.7"), ([2, 3], "2.0"), ([1, 2], "true")])
def test_model_load_refuses_a_layer_size_that_is_no_int(tmp_path, sizes, size):
    # int() would read 2.7 as 2 and true as 1: a layer of another width
    path = tmp_path / "m.json"
    save_model(build_mlp(sizes, seed=1), path)
    text = path.read_text()
    written = f'"input_size":{sizes[0]},'
    assert written in text
    path.write_text(text.replace(written, f'"input_size":{size},'))
    with pytest.raises(ValueError, match="corrupt model file"):
        load_model(path)


def test_dataset_roundtrip_preserves_order_and_labels(tmp_path):
    ds = toy_dataset(n=25, n_classes=4, seed=9)
    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    ds2 = load_dataset(path)
    assert ds2.sample_ids == ds.sample_ids
    np.testing.assert_array_equal(ds2.labels, ds.labels)
    np.testing.assert_array_equal(ds2.features, ds.features)
    assert ds2.class_names == ds.class_names
    assert ds2.n_classes == ds.n_classes


def test_dataset_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,label,f0\nx,0,1.0\n")
    with pytest.raises(ValueError):
        load_dataset(bad)
    magic = "# nnpatch-dataset v1"
    for text, match in (
        (f"{magic} classes=2\nid,label,f0\n", "bad metadata line"),
        (f"{magic} n_classes=2 class_names=a,b\n", "missing column header"),
        (f"{magic} n_classes=2 class_names=a,b\nx,label,f0\n", "missing column header"),
        (f"{magic} n_classes=2 class_names=a,b\nid,label,f0,f1\nx,0,1.0\n", "row has 3 fields"),
    ):
        bad.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_dataset(bad)
    # a name the file format cannot hold is refused before anything is written
    ds = toy_dataset(n=4, n_classes=2, seed=0)
    for named in (Dataset(ds.features, ds.labels, ("a", "b", "c d", "e"), 2, ds.class_names),
                  Dataset(ds.features, ds.labels, ds.sample_ids, 2, ("a", "b,c"))):
        with pytest.raises(ValueError, match="not storable"):
            save_dataset(named, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


def test_dataset_validation():
    with pytest.raises(ValueError, match="unique"):
        Dataset(
            features=np.zeros((2, 1)),
            labels=np.zeros(2, dtype=int),
            sample_ids=("a", "a"),
            n_classes=1,
            class_names=("x",),
        )
    with pytest.raises(ValueError, match="label"):
        Dataset(
            features=np.zeros((1, 1)),
            labels=np.array([4]),
            sample_ids=("a",),
            n_classes=2,
            class_names=("x", "y"),
        )
    with pytest.raises(ValueError, match="integer"):  # a cast would truncate 1.5 to 1
        Dataset(
            features=np.zeros((1, 1)),
            labels=np.array([1.5]),
            sample_ids=("a",),
            n_classes=2,
            class_names=("x", "y"),
        )
    with pytest.raises(ValueError, match="finite"):
        Dataset(
            features=np.array([[np.inf]]),
            labels=np.array([0]),
            sample_ids=("a",),
            n_classes=1,
            class_names=("x",),
        )
    with pytest.raises(ValueError, match="sample count"):
        Dataset(np.zeros((2, 1)), np.zeros(3, dtype=int), ("a", "b"), 1, ("x",))
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(2), np.zeros(2, dtype=int), ("a", "b"), 1, ("x",))
    with pytest.raises(ValueError, match="n_classes"):
        Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), (), 0, ())
    with pytest.raises(ValueError, match="one name per class"):
        Dataset(np.zeros((2, 1)), np.zeros(2, dtype=int), ("a", "b"), 2, ("x",))
    ds = Dataset(np.zeros((2, 1)), np.zeros(2, dtype=int), ("a", "b"), 1, ("x",))
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0  # frozen storage
    with pytest.raises(ValueError):
        ds.labels[0] = 0


def test_make_clusters_shape_and_determinism():
    a = make_clusters(ClustersSource(n_classes=4, n_per_class=10, seed=3))
    b = make_clusters(ClustersSource(n_classes=4, n_per_class=10, seed=3))
    assert len(a) == 40 and a.n_classes == 4
    np.testing.assert_array_equal(a.features, b.features)
    assert a.sample_ids == b.sample_ids
    c = make_clusters(ClustersSource(n_classes=4, n_per_class=10, seed=4))
    assert (a.features != c.features).any()
    with pytest.raises(ValueError, match="dataset seed must be >= 0"):
        ClustersSource(seed=-1)
    # otherwise an infinite spread or radius surfaces as non-finite features and a
    # negative spread as numpy's error when the data is drawn, neither naming the key
    for key, value in (("cluster_std", -1.0), ("cluster_std", np.nan), ("radius", np.inf),
                       ("radius", -0.5)):
        with pytest.raises(ValueError, match=f"dataset {key} must be finite and >= 0"):
            ClustersSource(**{key: value})


def test_make_clusters_confusion_pull_moves_target_mean():
    source = ClustersSource(n_classes=3, n_per_class=200, cluster_std=0.1, target_class=0, seed=1)
    far = make_clusters(dataclasses.replace(source, confusion_pull=0.0))
    near = make_clusters(dataclasses.replace(source, confusion_pull=0.9))

    def mean_of(ds, c):
        return ds.features[ds.labels == c].mean(axis=0)

    d_far = np.linalg.norm(mean_of(far, 0) - mean_of(far, 1))
    d_near = np.linalg.norm(mean_of(near, 0) - mean_of(near, 1))
    assert d_near < d_far
