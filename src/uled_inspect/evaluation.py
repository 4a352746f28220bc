"""Scoring against ground truth and defect-excluded surface statistics.

The confusion matrix stores its four counts (rows = truth, columns =
prediction) and derives accuracy and the two rates from them.  The surface
statistics come in two flavors: 'raw' averages every interior cell,
'denoised' averages only the functional-labeled ones; including dark defect
cells drags the raw mean below the true performance of the emitting surface,
which is exactly the bias the denoised figure removes.  Uncertainties are
standard errors of the mean (population std / sqrt(n)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


@dataclass(frozen=True)
class ConfusionMatrix:
    """The four counts; the rates are derived from them."""

    true_functional_pred_functional: int
    true_functional_pred_defect: int
    true_defect_pred_functional: int
    true_defect_pred_defect: int

    def __post_init__(self):
        counts = (
            self.true_functional_pred_functional,
            self.true_functional_pred_defect,
            self.true_defect_pred_functional,
            self.true_defect_pred_defect,
        )
        if any(c < 0 for c in counts) or sum(counts) == 0:
            raise EvaluationError(f"invalid confusion counts {counts}")

    @property
    def total(self) -> int:
        return self._functional + self._defect

    @property
    def _functional(self) -> int:
        return self.true_functional_pred_functional + self.true_functional_pred_defect

    @property
    def _defect(self) -> int:
        return self.true_defect_pred_functional + self.true_defect_pred_defect

    @property
    def accuracy(self) -> float:
        return (self.true_functional_pred_functional + self.true_defect_pred_defect) / self.total

    @property
    def false_negative_rate(self) -> float:
        """Share of the truly functional cells predicted defective; 0.0 if none."""
        return self.true_functional_pred_defect / self._functional if self._functional else 0.0

    @property
    def false_positive_rate(self) -> float:
        """Share of the truly defective cells predicted functional; 0.0 if none."""
        return self.true_defect_pred_functional / self._defect if self._defect else 0.0

    @property
    def fnr_undefined(self) -> bool:
        return self._functional == 0

    @property
    def fpr_undefined(self) -> bool:
        return self._defect == 0


@dataclass(frozen=True)
class LesStats:
    raw_mean: float
    raw_sem: float
    denoised_mean: float
    denoised_sem: float
    raw_count: int
    denoised_count: int

    def __post_init__(self):
        if self.raw_count <= 0 or self.denoised_count <= 0:
            raise EvaluationError("surface statistics need non-empty populations")
        if self.raw_sem < 0 or self.denoised_sem < 0:
            raise EvaluationError("negative standard error")


def confusion(predicted: np.ndarray, actual: np.ndarray) -> ConfusionMatrix:
    """Score per-cell defect predictions against the per-cell truth, two
    boolean masks over the same cells in the same order."""
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.shape != actual.shape:
        raise EvaluationError(f"{len(predicted)} predictions for {len(actual)} truth cells")
    return ConfusionMatrix(
        int(np.count_nonzero(~actual & ~predicted)),
        int(np.count_nonzero(~actual & predicted)),
        int(np.count_nonzero(actual & ~predicted)),
        int(np.count_nonzero(actual & predicted)),
    )


def les_statistics(mean_l: np.ndarray, defective: np.ndarray) -> LesStats:
    """Raw (all interior cells) vs denoised (cells not marked defective) means."""
    values = np.asarray(mean_l, dtype=np.float64)
    if not len(values):
        raise EvaluationError("no cells to aggregate")
    if len(values) != len(defective):
        raise EvaluationError(f"{len(defective)} labels for {len(values)} cells")
    functional = values[~np.asarray(defective, dtype=bool)]
    if not len(functional):
        raise EvaluationError("no functional-labeled cells; denoised mean undefined")
    return LesStats(
        raw_mean=float(values.mean()),
        raw_sem=float(values.std() / np.sqrt(len(values))),
        denoised_mean=float(functional.mean()),
        denoised_sem=float(functional.std() / np.sqrt(len(functional))),
        raw_count=len(values),
        denoised_count=len(functional),
    )
