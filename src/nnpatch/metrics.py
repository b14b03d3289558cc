"""Evaluation reports and before/after diffs.

A report holds one model's verdicts as arrays aligned with the dataset's
sample ids; accuracies and diffs are mask arithmetic over them. Two
reports compare by position, so they must list the same ids in the same
order, as two evaluations of one Dataset do.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .data import Dataset, predictions
from .network import Model, _frozen_array


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-sample verdicts for one model on one dataset."""

    sample_ids: tuple[str, ...]
    labels: np.ndarray
    predicted: np.ndarray

    def __post_init__(self) -> None:
        labels = _frozen_array(self.labels, np.int64)
        predicted = _frozen_array(self.predicted, np.int64)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "predicted", predicted)
        n = len(self.sample_ids)
        if labels.shape != (n,) or predicted.shape != (n,):
            raise ValueError("ids, labels and predictions must align")
        if len(set(self.sample_ids)) != n:
            raise ValueError("sample_ids must be unique")

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def degenerate(self) -> bool:
        """A report of no sample."""
        return len(self) == 0

    @property
    def passed(self) -> np.ndarray:
        """Boolean mask of the samples classified correctly."""
        return self.labels == self.predicted

    @property
    def overall_accuracy(self) -> float:
        if self.degenerate:
            return 1.0  # no sample failed
        return int(np.count_nonzero(self.passed)) / len(self)

    @property
    def per_class_accuracy(self) -> dict[int, float]:
        """Accuracy per true class, for classes present in the data."""
        totals = np.bincount(self.labels)
        hits = np.bincount(self.labels[self.passed], minlength=len(totals))
        return {int(c): int(hits[c]) / int(totals[c]) for c in np.flatnonzero(totals)}

    def to_dict(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "per_class_accuracy": {str(c): a for c, a in self.per_class_accuracy.items()},
            "degenerate": self.degenerate,
            "verdicts": {
                sid: {"label": l, "predicted": p, "passed": l == p}
                for sid, l, p in zip(self.sample_ids, self.labels.tolist(), self.predicted.tolist())
            },
        }


@dataclass(frozen=True)
class RepairDiff:
    """Verdict changes between two reports over the same samples."""

    broken: frozenset[str]
    repaired: frozenset[str]

    def __post_init__(self) -> None:
        if self.broken & self.repaired:
            raise ValueError("a sample cannot be both broken and repaired")


def evaluate(model: Model, data: Dataset) -> EvalReport:
    """Verdicts on a Dataset; argmax ties go to the lowest class."""
    return EvalReport(data.sample_ids, data.labels, predictions(model, data.features))


def _check_aligned(before: EvalReport, after: EvalReport) -> None:
    """Reports compare by position: they must list the same ids in the same order."""
    if before.sample_ids == after.sample_ids:
        return
    differ = set(before.sample_ids) ^ set(after.sample_ids)
    if differ:
        raise ValueError(f"reports cover different samples: {sorted(differ)}")
    k = next(k for k, (b, a) in enumerate(zip(before.sample_ids, after.sample_ids)) if b != a)
    raise ValueError(
        f"reports list their samples in different orders: position {k} holds "
        f"{before.sample_ids[k]!r} before and {after.sample_ids[k]!r} after"
    )


def diff(before: EvalReport, after: EvalReport) -> RepairDiff:
    """Exact verdict diff of two reports that list the same ids in the same order."""
    _check_aligned(before, after)
    b, a = before.passed, after.passed
    return RepairDiff(
        frozenset(compress(before.sample_ids, b & ~a)),
        frozenset(compress(before.sample_ids, ~b & a)),
    )
