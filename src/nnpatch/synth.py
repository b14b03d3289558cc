"""Synthetic tabular classification data.

Gaussian clusters with means on a circle. Overlap is controlled by the
cluster std; a single class can be pulled toward its neighbor to
concentrate confusions on one class pair, which is how the drift and
repair scenarios are staged.
"""
from __future__ import annotations

import numpy as np

from .data import Dataset


def make_clusters(
    n_classes: int = 7,
    n_per_class: int = 300,
    n_features: int = 2,
    radius: float = 4.0,
    cluster_std: float = 0.9,
    confusion_pull: float = 0.0,
    target_class: int = 0,
    seed: int = 0,
    id_prefix: str = "s",
) -> Dataset:
    """One isotropic Gaussian blob per class.

    Means sit evenly on a circle of the given radius (first two feature
    dimensions; any extra dimensions center at 0). confusion_pull in [0, 1)
    moves the target class mean toward the next class around the circle, so
    misclassifications concentrate on that pair.
    """
    if n_classes < 2:
        raise ValueError("need >= 2 classes")
    if n_per_class < 1:
        raise ValueError("need >= 1 sample per class")
    if n_features < 2:
        raise ValueError("need >= 2 features to place means on a circle")
    if not 0.0 <= confusion_pull < 1.0:
        raise ValueError("confusion_pull must lie in [0, 1)")
    if not 0 <= target_class < n_classes:
        raise ValueError("target_class out of range")
    if seed < 0:
        raise ValueError("dataset seed must be >= 0")

    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, n_features))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    if confusion_pull > 0.0:
        neighbor = (target_class + 1) % n_classes
        means[target_class] += confusion_pull * (means[neighbor] - means[target_class])

    rng = np.random.default_rng(seed)
    feats = np.concatenate(
        [rng.normal(means[c], cluster_std, size=(n_per_class, n_features)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    ids = tuple(f"{id_prefix}{k:06d}" for k in range(len(labels)))
    names = tuple(f"c{c}" for c in range(n_classes))
    return Dataset(feats, labels, ids, n_classes, names)
