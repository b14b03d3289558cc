"""Evaluation reports and before/after diffs."""
from __future__ import annotations

import json

import numpy as np
import pytest

from nnpatch import (
    Dataset,
    EvalReport,
    RepairDiff,
    build_mlp,
    diff,
    evaluate,
    forward,
)

from helpers import single_layer_model, toy_dataset


def report_from(ids, labels, predicted):
    return EvalReport(
        sample_ids=tuple(ids),
        labels=tuple(int(x) for x in labels),
        predicted=tuple(int(x) for x in predicted),
    )


def test_uniform_prediction_resolves_ties_to_class_zero():
    m = single_layer_model(np.zeros((2, 2)))
    ds = toy_dataset(n=10, n_classes=2, seed=0)
    rep = evaluate(m, ds)
    assert all(p == 0 for p in rep.predicted)


def test_empty_dataset_is_degenerate_with_accuracy_one():
    ds = Dataset(
        features=np.zeros((0, 2)),
        labels=np.zeros(0, dtype=int),
        sample_ids=(),
        n_classes=2,
        class_names=("a", "b"),
    )
    rep = evaluate(single_layer_model(np.zeros((2, 2))), ds)
    assert rep.degenerate
    assert rep.overall_accuracy == 1.0
    assert rep.per_class_accuracy == {}


def test_accuracy_matches_per_sample_loop():
    ds = toy_dataset(n=37, n_classes=3, seed=5)
    m = build_mlp([ds.features.shape[1], 6, 3], seed=2)
    rep = evaluate(m, ds)
    probs = forward(m, ds.features)
    hits = 0
    per_class = {}
    for k in range(len(ds)):
        row = probs[k]
        pred = 0
        for c in range(1, len(row)):
            if row[c] > row[pred]:
                pred = c
        lab = int(ds.labels[k])
        per_class.setdefault(lab, [0, 0])
        per_class[lab][1] += 1
        if pred == lab:
            hits += 1
            per_class[lab][0] += 1
        assert rep.predicted[k] == pred
    assert rep.overall_accuracy == hits / len(ds)
    for c, (good, total) in per_class.items():
        assert rep.per_class_accuracy[c] == good / total


def test_verdict_counts_partition_in_diff():
    ids = [f"s{k}" for k in range(6)]
    before = report_from(ids, [0] * 6, [0, 0, 0, 1, 1, 1])
    after = report_from(ids, [0] * 6, [0, 1, 0, 0, 1, 0])
    d = diff(before, after)
    assert d.broken == frozenset({"s1"})
    assert d.repaired == frozenset({"s3", "s5"})
    # s0, s2 (pass) and s4 (fail) keep their verdicts, so they are in neither set
    assert not (d.broken | d.repaired) & {"s0", "s2", "s4"}


def test_diff_identity_and_single_flip():
    ids = ["a", "b"]
    r = report_from(ids, [0, 1], [0, 1])
    d = diff(r, r)
    assert d.broken == frozenset() and d.repaired == frozenset()
    r2 = report_from(ids, [0, 1], [1, 1])  # "a" flips pass -> fail
    d2 = diff(r, r2)
    assert d2.broken == frozenset({"a"}) and d2.repaired == frozenset()


def test_diff_matches_contingency_oracle():
    rng = np.random.default_rng(7)
    ids = [f"s{k}" for k in range(50)]
    labels = rng.integers(0, 3, 50)
    pb = rng.integers(0, 3, 50)
    pa = rng.integers(0, 3, 50)
    d = diff(report_from(ids, labels, pb), report_from(ids, labels, pa))
    cont = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for k in range(50):
        cont[(pb[k] == labels[k], pa[k] == labels[k])] += 1
    assert len(d.broken) == cont[(True, False)]
    assert len(d.repaired) == cont[(False, True)]


def test_diff_antisymmetry():
    rng = np.random.default_rng(8)
    ids = [f"s{k}" for k in range(30)]
    labels = rng.integers(0, 2, 30)
    a = report_from(ids, labels, rng.integers(0, 2, 30))
    b = report_from(ids, labels, rng.integers(0, 2, 30))
    assert diff(a, b).broken == diff(b, a).repaired
    assert diff(a, b).repaired == diff(b, a).broken


def test_diff_rejects_id_mismatch():
    a = report_from(["x", "y"], [0, 0], [0, 0])
    b = report_from(["x", "z"], [0, 0], [0, 0])
    with pytest.raises(ValueError) as exc:
        diff(a, b)
    assert "y" in str(exc.value) and "z" in str(exc.value)


def test_accuracy_identity_through_diff():
    rng = np.random.default_rng(10)
    ids = [f"s{k}" for k in range(40)]
    labels = rng.integers(0, 4, 40)
    before = report_from(ids, labels, rng.integers(0, 4, 40))
    after = report_from(ids, labels, rng.integers(0, 4, 40))
    d = diff(before, after)
    lhs = after.overall_accuracy
    rhs = before.overall_accuracy + (len(d.repaired) - len(d.broken)) / 40
    assert abs(lhs - rhs) < 1e-12


def test_report_dict_includes_verdicts():
    r = report_from(["a", "b"], [0, 1], [0, 0])
    d = r.to_dict()
    assert d["overall_accuracy"] == 0.5
    assert d["verdicts"]["a"]["passed"] is True
    assert d["verdicts"]["b"]["passed"] is False
    assert d["verdicts"]["b"]["predicted"] == 0


@pytest.mark.parametrize("make, match", [
    (lambda: EvalReport(("a", "b"), [0, 1], [0]), "align"),
    (lambda: EvalReport(("a", "b"), [0], [0]), "align"),
    (lambda: EvalReport(("a", "a"), [0, 1], [0, 1]), "unique"),
    (lambda: RepairDiff(frozenset({"a", "b"}), frozenset({"b"})), "both broken and repaired"),
], ids=["predictions", "labels", "duplicate_ids", "overlapping_diff"])
def test_reports_and_diffs_refuse_what_contradicts_itself(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_diff_rejects_permuted_report():
    # same ids, another order: reports compare by position, so this is refused
    a = report_from(["x", "y", "z"], [0, 1, 0], [0, 1, 1])
    b = report_from(["x", "z", "y"], [0, 0, 1], [0, 1, 1])
    with pytest.raises(ValueError, match="order") as exc:
        diff(a, b)
    assert "'y'" in str(exc.value) and "'z'" in str(exc.value)


def _accuracy_loop(labels, predicted, keep):
    """Per-sample loop oracle: the share of kept samples whose prediction
    equals their label, 1.0 when none is kept."""
    rows = [labels[k] == predicted[k] for k in range(len(labels)) if keep(k)]
    return sum(rows) / len(rows) if rows else 1.0


def test_eval_report_matches_per_sample_oracle():
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = 0 if trial == 0 else int(rng.integers(1, 30))
        n_classes = int(rng.integers(1, 7))
        # draw labels from a subset of the classes, so some never occur
        present = rng.choice(n_classes, size=int(rng.integers(1, n_classes + 1)), replace=False)
        labels = rng.choice(present, size=n).tolist()
        predicted = rng.integers(0, n_classes, size=n).tolist()
        after_predicted = [p if rng.random() < 0.6 else int(rng.integers(0, n_classes)) for p in predicted]
        ids = [f"s{k}" for k in rng.permutation(n)]
        before = report_from(ids, labels, predicted)
        after = report_from(ids, labels, after_predicted)

        overall = _accuracy_loop(labels, predicted, lambda k: True)
        per_class = {
            c: _accuracy_loop(labels, predicted, lambda k: labels[k] == c) for c in sorted(set(labels))
        }
        assert before.overall_accuracy == overall
        assert before.per_class_accuracy == per_class

        assert after.overall_accuracy == _accuracy_loop(labels, after_predicted, lambda k: True)
        broken = {ids[k] for k in range(n) if labels[k] == predicted[k] != after_predicted[k]}
        assert diff(before, after).broken == broken

        want = {
            "overall_accuracy": overall,
            "per_class_accuracy": {str(c): a for c, a in per_class.items()},
            "degenerate": n == 0,  # a report of no sample, however it was built
            "verdicts": {
                sid: {"label": l, "predicted": p, "passed": l == p}
                for sid, l, p in zip(ids, labels, predicted)
            },
        }
        assert before.to_dict() == want
        # the same JSON text too, so every value is a plain Python type
        assert json.dumps(before.to_dict(), sort_keys=True) == json.dumps(want, sort_keys=True)
