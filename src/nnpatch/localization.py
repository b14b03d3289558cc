"""Weight-level fault localization.

Per weight we take four impact scores: gradient magnitude and forward
contribution, each over the failed and the passed data. The suspicious set
keeps weights that rank high on both failed impacts and drops those that
also rank high on both passed impacts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .formats import write_csv
from .network import Model, _backprop, _check_labelled, _check_layer, _frozen_array, _trace

IMPACT_NAMES = ("back_failed", "fwd_failed", "back_passed", "fwd_passed")


@dataclass(frozen=True)
class ImpactTable:
    """Four scores for every weight of one layer: `scores[k]` is the
    (n_in, n_out) array of impact IMPACT_NAMES[k]."""

    layer: int
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.array(self.scores, dtype=np.float64)
        scores.setflags(write=False)
        if scores.ndim != 3 or len(scores) != len(IMPACT_NAMES):
            raise ValueError(f"scores must stack {len(IMPACT_NAMES)} 2-D (n_in, n_out) arrays")
        if not np.isfinite(scores).all() or (scores < 0).any():
            raise ValueError("scores must be finite and non-negative")
        object.__setattr__(self, "scores", scores)

    @property
    def shape(self) -> tuple[int, int]:
        return self.scores.shape[1:]

    @property
    def n_weights(self) -> int:
        return self.scores[0].size


@dataclass(frozen=True, eq=False)
class LocalizedSet:
    """Ordered suspicious weights of one layer, weight k being (i[k], j[k]) of
    `layer`; the n_g that selected them and, when n_g was searched for,
    |localize(n)| for n = 1..N at index n - 1."""

    layer: int
    i: np.ndarray
    j: np.ndarray
    n_g: int
    warning: str | None = None
    curve: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("i", "j"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), np.int64))
        if self.i.ndim != 1 or self.i.shape != self.j.shape:
            raise ValueError("i and j must be 1-D vectors of one length")
        if len(set(zip(self.i.tolist(), self.j.tolist()))) != len(self.i):
            raise ValueError("localized set must not contain duplicates")

    def __len__(self) -> int:
        return len(self.i)


def compute_impacts(model: Model, failed: Dataset, passed: Dataset, layer: int) -> ImpactTable:
    """Score every weight of `layer` on both data subsets, from one forward and
    one backward pass over each.

    back_X[i,j] = |d(mean loss over X)/dw_ij|; fwd_X[i,j] = mean over X of
    |o_i * w_ij| where o is the input feeding the layer.
    """
    if len(failed) == 0 or len(passed) == 0:
        raise ValueError("impact computation needs non-empty failed and passed sets")
    _check_layer(model, layer)
    w = np.abs(model.weights[layer])

    def _impacts(ds: Dataset):
        inputs, labels = _check_labelled(model, ds.features, ds.labels)
        acts = _trace(model.weights, model.biases, inputs)
        back = _backprop(model.weights, acts, labels, stop=layer)[0][layer]
        return np.abs(back), np.abs(acts[layer]).mean(axis=0)[:, None] * w

    return ImpactTable(layer, np.stack((*_impacts(failed), *_impacts(passed))))


def impact_ranks(table: ImpactTable) -> np.ndarray:
    """(4, N) ranks, one row per impact in IMPACT_NAMES order: the position of
    flat weight i*n_out + j when the weights are sorted by (impact desc, j asc,
    i asc). A weight is in the top n_g of an impact exactly when its rank is
    below n_g, so ties at the cut break by (j, i)."""
    n = table.n_weights
    i_idx, j_idx = np.divmod(np.arange(n), table.shape[1])
    ranks = np.empty((len(IMPACT_NAMES), n), dtype=np.int64)
    for row, score in zip(ranks, table.scores):
        # lexsort uses the last key as primary
        row[np.lexsort((i_idx, j_idx, -score.ravel()))] = np.arange(n)
    return ranks


def _binding_ranks(table: ImpactTable) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): a weight is in the top n_g of both failed impacts exactly when
    a < n_g, and of both passed impacts exactly when b < n_g."""
    back_f, fwd_f, back_p, fwd_p = impact_ranks(table)
    return np.maximum(back_f, fwd_f), np.maximum(back_p, fwd_p)


def localization_curve(table: ImpactTable) -> np.ndarray:
    """|localize(table, n)| for n = 1..N, at index n - 1. A weight is localized
    at n exactly when a < n <= max(a, b), so the curve is the count of a below
    n minus the count of max(a, b) below n."""
    a, b = _binding_ranks(table)
    n = table.n_weights
    return np.cumsum(np.bincount(a, minlength=n)) - np.cumsum(np.bincount(np.maximum(a, b), minlength=n))


def localize(table: ImpactTable, n_g: int) -> LocalizedSet:
    """Suspicious set at one n_g: weights in the top-n_g of BOTH failed
    impacts, minus those in the top-n_g of BOTH passed impacts. A weight is as
    suspicious as the weaker of its two failed-impact ranks, a; the set is
    ordered by a, then by (j, i)."""
    if not 1 <= n_g <= table.n_weights:
        raise ValueError(f"n_g must lie in [1, {table.n_weights}], got {n_g}")
    a, b = _binding_ranks(table)
    chosen = np.flatnonzero((a < n_g) & (b >= n_g))
    i, j = np.divmod(chosen, table.shape[1])
    order = np.lexsort((i, j, a[chosen]))
    return LocalizedSet(table.layer, i[order], j[order], n_g,
                        None if chosen.size else "localized set is empty")


def localize_to_count(table: ImpactTable, target_lw: int) -> LocalizedSet:
    """The set at the smallest n_g whose suspicious set reaches target_lw
    weights, truncated to target_lw. |localize(n_g)| is not monotone in n_g
    (the passed-side subtraction can shrink it), so the whole curve is read.
    When no n_g reaches the target, the set is the largest one, at its
    smallest n_g, with a warning."""
    if target_lw < 1:
        raise ValueError("target_lw must be >= 1")
    curve = localization_curve(table)
    reaching = np.flatnonzero(curve >= target_lw)
    n_g = int(reaching[0] if reaching.size else np.argmax(curve)) + 1
    warning = None
    if not reaching.size:
        warning = f"target_lw={target_lw} unreachable; best |W_localized| is {curve[n_g - 1]} at n_g={n_g}"
    top = localize(table, n_g)
    return LocalizedSet(top.layer, top.i[:target_lw], top.j[:target_lw], n_g, warning, tuple(curve.tolist()))


def write_impact_csv(table: ImpactTable, path) -> None:
    """Inspection dump: one row per weight with the four scores."""
    n_in, n_out = table.shape
    write_csv(path, [
        ["layer", "i", "j", *IMPACT_NAMES],
        *([table.layer, i, j, *map(float, table.scores[:, i, j])]
          for j in range(n_out) for i in range(n_in)),  # the tie-break order of impact_ranks
    ])


def write_localized_csv(localized: LocalizedSet, path) -> None:
    write_csv(path, [
        ["rank", "layer", "i", "j"],
        *([rank, localized.layer, i, j] for rank, (i, j) in enumerate(zip(localized.i, localized.j))),
    ])
