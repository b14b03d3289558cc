"""Datasets, four-way splitting, drift scenarios, repair-input selection,
and the on-disk formats for models and datasets.

``Dataset`` is the one container for samples that carry ids: every split,
repair input set and sampled I_pos is one, cut from its parent with
``Dataset.subset``. The network functions take its ``features`` and
``labels`` arrays.

Formats are deliberately boring: CSV with a version comment for datasets,
JSON with inline base64 float64 arrays for models. Both are diffable,
round-trip bit-exactly, and are written by `nnpatch.formats`.
"""
from __future__ import annotations

import base64
import json
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .formats import as_dict, from_dict, read_json, write_csv, write_json
from .network import LayerSpec, Model, forward, _frozen_array

if TYPE_CHECKING:  # metrics imports this module
    from .metrics import EvalReport

DATASET_MAGIC = "# nnpatch-dataset v1"
MODEL_FORMAT = "nnpatch-model"
MODEL_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")

SPLIT_NAMES = ("train", "validation", "repair", "test")


class RepairInputError(ValueError):
    """Repair input selection could not produce usable sample sets: a refused input."""


class NothingToRepairError(RepairInputError):
    """The subject makes no mistakes on the target class in the repair split."""


@dataclass(frozen=True)
class Dataset:
    """Tabular classification data with stable per-sample ids."""

    features: np.ndarray
    labels: np.ndarray
    sample_ids: tuple[str, ...]
    n_classes: int
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = _frozen_array(self.features, np.float64)
        labels = _frozen_array(self.labels, np.int64)
        ids = tuple(str(s) for s in self.sample_ids)
        names = tuple(str(c) for c in self.class_names)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "class_names", names)
        if feats.ndim != 2:
            raise ValueError("features must be 2-D (n_samples, n_features)")
        n = feats.shape[0]
        if labels.shape != (n,) or len(ids) != n:
            raise ValueError("features, labels and sample_ids must agree on sample count")
        if len(set(ids)) != n:
            raise ValueError("sample_ids must be globally unique")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if len(names) != self.n_classes:
            raise ValueError("class_names must list one name per class")
        if n:
            if not np.isfinite(feats).all():
                raise ValueError("features must be finite")
            if labels.min() < 0 or labels.max() >= self.n_classes:
                raise ValueError("labels must lie in [0, n_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx],
            self.labels[idx],
            tuple(self.sample_ids[k] for k in idx),
            self.n_classes,
            self.class_names,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the train/validation/repair/test partition, applied to
    each class."""

    train: float
    validation: float
    repair: float
    test: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name, f in zip(SPLIT_NAMES, self.fractions):
            if not 0.0 < f <= 1.0:
                raise ValueError(f"split fraction {name} must lie in (0, 1], got {f!r}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(self.fractions)!r}")
        if self.seed < 0:
            raise ValueError("split seed must be >= 0")

    @property
    def fractions(self) -> tuple[float, float, float, float]:
        return (self.train, self.validation, self.repair, self.test)


@dataclass(frozen=True)
class DriftSpec:
    """Prevalence shift for one class between training time and repair time.

    Each fraction says how much of the class's natural per-split allocation
    is kept; dropped samples leave the dataset entirely. Equal fractions of
    1.0 reduce to the plain split.
    """

    target_class: int
    train_fraction_of_class: float
    repair_fraction_of_class: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_fraction_of_class", "repair_fraction_of_class"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.train_fraction_of_class > self.repair_fraction_of_class:
            raise ValueError(
                "train_fraction_of_class must not exceed repair_fraction_of_class"
            )
        if self.seed < 0:
            raise ValueError("drift seed must be >= 0")


class RepairInputs(NamedTuple):
    """Sample sets driving a repair: passing train samples and the failing
    target-class samples from the repair split."""

    positive_pool: Dataset
    negative_set: Dataset


def _largest_remainder(n: int, fractions, rotate: int) -> list[int]:
    """Integer allocation of n items proportional to fractions.

    Sums to n exactly. Remainder ties go to splits in rotated order so no
    split is systematically favored across classes.
    """
    quotas = [n * f for f in fractions]
    counts = [math.floor(q) for q in quotas]
    short = n - sum(counts)
    order = sorted(
        range(len(fractions)),
        key=lambda s: (-(quotas[s] - counts[s]), (s - rotate) % len(fractions)),
    )
    for s in order[:short]:
        counts[s] += 1
    return counts


def _subsample_class(ds: Dataset, target: int, fraction: float, rng) -> Dataset:
    members = np.flatnonzero(ds.labels == target)
    keep_n = int(round(fraction * len(members)))
    if keep_n >= len(members):
        return ds
    keep = np.ones(len(ds), dtype=bool)
    keep[members] = False
    if keep_n:
        keep[rng.choice(members, size=keep_n, replace=False)] = True
    return ds.subset(np.flatnonzero(keep))


def split(dataset: Dataset, spec: SplitSpec, drift: DriftSpec | None = None):
    """Partition into (train, validation, repair, test) Datasets.

    Deterministic per seed; stratified: each class is allocated on its own
    with largest-remainder rounding. Output rows keep dataset order. A drift
    then thins its target class in the train and repair splits to
    train_fraction_of_class (resp. repair_fraction_of_class) of its natural
    allocation there, so its prevalence at repair time is at least at training time.
    """
    if drift is not None and not 0 <= drift.target_class < dataset.n_classes:
        raise ValueError(f"drift target_class must lie in [0, {dataset.n_classes}), got {drift.target_class}")
    rng = np.random.default_rng(spec.seed)
    buckets: list[list[int]] = [[], [], [], []]
    for c in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == c)
        if len(members) == 0:
            raise ValueError(f"stratified split needs >= 1 sample of class {c}")
        bounds = np.cumsum(_largest_remainder(len(members), spec.fractions, rotate=c))[:-1]
        for bucket, part in zip(buckets, np.split(rng.permutation(members), bounds)):
            bucket.extend(part.tolist())
    train, val, rep, test = (dataset.subset(sorted(b)) for b in buckets)
    if drift is not None:
        rng = np.random.default_rng(drift.seed)
        train = _subsample_class(train, drift.target_class, drift.train_fraction_of_class, rng)
        rep = _subsample_class(rep, drift.target_class, drift.repair_fraction_of_class, rng)
    return train, val, rep, test


def predictions(model: Model, inputs) -> np.ndarray:
    """Predicted class per input row; argmax ties resolve to the lowest ordinal."""
    return np.argmax(forward(model, inputs), axis=1).astype(np.int64)


def select_repair_inputs(train: EvalReport, repair: EvalReport, target_class: int) -> RepairInputs:
    """Build RepairInputs from the subject's reports of the train and repair splits.

    positive_pool: train samples (any class) the subject classifies correctly.
    negative_set: repair-split samples of the target class it gets wrong.
    """
    n_classes = train.data.n_classes
    if not 0 <= target_class < n_classes:
        raise ValueError(f"target_class must lie in [0, {n_classes}), got {target_class}")
    train_passed = train.passed
    if not train_passed.any():
        raise RepairInputError("positive pool is empty: the model passes no training sample")

    neg_mask = (repair.labels == target_class) & ~repair.passed
    if not neg_mask.any():
        raise NothingToRepairError(
            f"nothing to repair: no misclassified class-{target_class} samples in the repair split"
        )
    inputs = RepairInputs(train.data.subset(np.flatnonzero(train_passed)),
                          repair.data.subset(np.flatnonzero(neg_mask)))
    if not set(inputs.positive_pool.sample_ids).isdisjoint(inputs.negative_set.sample_ids):
        raise RepairInputError("positive pool and negative set must be disjoint")
    return inputs


# ---------------------------------------------------------------------------
# serialization

def _encode_array(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(text: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ValueError(f"bad array encoding ({exc})") from exc
    expect = 8 * int(np.prod(shape))
    if len(raw) != expect:
        raise ValueError(f"array has {len(raw)} bytes, expected {expect}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def save_model(model: Model, path, provenance: dict | None = None) -> None:
    """Write a model as a single JSON document (version header, layer specs,
    base64 little-endian float64 arrays). Byte-stable for identical models."""
    manifest = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_classes": model.n_classes,
        "layers": [as_dict(s) for s in model.layers],
        "weights": [_encode_array(w) for w in model.weights],
        "biases": [_encode_array(b) for b in model.biases],
    }
    if provenance is not None:
        manifest["provenance"] = provenance
    write_json(path, manifest)


def load_model(path) -> Model:
    """Inverse of save_model. Rejects malformed files, version mismatches, non-finite values
    and declared layers or class counts unlike the decoded model's; never returns a partial model."""
    try:
        manifest = read_json(path)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt model file: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MODEL_FORMAT:
        raise ValueError("not a model file")
    if manifest.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {manifest.get('version')!r}")
    try:
        specs = tuple(from_dict(LayerSpec, l) for l in manifest["layers"])
        weights = tuple(
            _decode_array(t, (s.input_size, s.output_size))
            for t, s in zip(manifest["weights"], specs, strict=True)
        )
        biases = tuple(
            _decode_array(t, (s.output_size,))
            for t, s in zip(manifest["biases"], specs, strict=True)
        )
        model = Model(weights, biases)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"corrupt model file: missing field ({exc})") from exc
    except ValueError as exc:  # a layer field of another type (2.7 is no size), a bad array
        raise ValueError(f"corrupt model file: {exc}") from exc
    for k, (declared, layer) in enumerate(zip(specs, model.layers)):
        for key, value in as_dict(declared).items():
            if value != getattr(layer, key):
                raise ValueError(f"corrupt model file: layer {k} declares {key} {value!r}, "
                                 f"not {getattr(layer, key)!r}")
    n_classes = manifest.get("n_classes")
    if type(n_classes) is not int or n_classes != model.n_classes:
        raise ValueError(f"corrupt model file: declares n_classes {n_classes!r}, not {model.n_classes}")
    return model


def save_dataset(dataset: Dataset, path) -> None:
    """CSV with a version comment line, then `id,label,f0..f{d-1}` rows.

    Floats are written with repr so the round-trip is bit-exact.
    """
    for name in dataset.class_names + dataset.sample_ids:
        if not _NAME_RE.match(name):
            raise ValueError(f"name {name!r} not storable (letters/digits/_.- only)")
    names = ",".join(dataset.class_names)
    rows = zip(dataset.sample_ids, dataset.labels.tolist(), dataset.features.tolist())
    write_csv(path, [
        [f"{DATASET_MAGIC} n_classes={dataset.n_classes} class_names={names}"],
        ["id", "label", *(f"f{k}" for k in range(dataset.n_features))],
        *([sid, label, *features] for sid, label, features in rows),
    ])


def load_dataset(path) -> Dataset:
    """Inverse of save_dataset; rejects files without the version line."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith(DATASET_MAGIC):
        raise ValueError("not a dataset file (missing version line)")
    m = re.search(r"n_classes=(\d+) class_names=(\S*)", lines[0])
    if m is None:
        raise ValueError("corrupt dataset file: bad metadata line")
    n_classes = int(m.group(1))
    class_names = tuple(m.group(2).split(",")) if m.group(2) else ()
    if len(lines) < 2 or not lines[1].startswith("id,label"):
        raise ValueError("corrupt dataset file: missing column header")
    n_features = len(lines[1].split(",")) - 2
    ids, labels, rows = [], [], []
    for ln in lines[2:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != n_features + 2:
            raise ValueError(f"corrupt dataset file: row has {len(parts)} fields")
        ids.append(parts[0])
        labels.append(int(parts[1]))
        rows.append([float(v) for v in parts[2:]])
    feats = np.array(rows, dtype=np.float64).reshape(len(ids), n_features)
    return Dataset(feats, np.array(labels, dtype=np.int64), tuple(ids), n_classes, class_names)
