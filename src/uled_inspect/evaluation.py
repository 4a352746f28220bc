"""Scoring against ground truth and defect-excluded surface statistics.

The confusion matrix is stored with rows = truth, columns = prediction.  The
surface statistics come in two flavors: 'raw' averages every interior cell,
'denoised' averages only the functional-labeled ones; including dark defect
cells drags the raw mean below the true performance of the emitting surface,
which is exactly the bias the denoised figure removes.  Uncertainties are
standard errors of the mean (population std / sqrt(n)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .grid import PixelGrid
from .io import DefectMap


@dataclass(frozen=True)
class ConfusionMatrix:
    true_functional_pred_functional: int
    true_functional_pred_defect: int
    true_defect_pred_functional: int
    true_defect_pred_defect: int
    accuracy: float
    false_negative_rate: float
    false_positive_rate: float
    fnr_undefined: bool = False
    fpr_undefined: bool = False

    def __post_init__(self):
        counts = (
            self.true_functional_pred_functional,
            self.true_functional_pred_defect,
            self.true_defect_pred_functional,
            self.true_defect_pred_defect,
        )
        if any(c < 0 for c in counts) or sum(counts) == 0:
            raise EvaluationError(f"invalid confusion counts {counts}")
        total = sum(counts)
        correct = self.true_functional_pred_functional + self.true_defect_pred_defect
        if abs(self.accuracy - correct / total) > 1e-12:
            raise EvaluationError("accuracy inconsistent with counts")
        functional = self.true_functional_pred_functional + self.true_functional_pred_defect
        defect = self.true_defect_pred_functional + self.true_defect_pred_defect
        expected_fnr = self.true_functional_pred_defect / functional if functional else 0.0
        expected_fpr = self.true_defect_pred_functional / defect if defect else 0.0
        if abs(self.false_negative_rate - expected_fnr) > 1e-12:
            raise EvaluationError("false negative rate inconsistent with counts")
        if abs(self.false_positive_rate - expected_fpr) > 1e-12:
            raise EvaluationError("false positive rate inconsistent with counts")

    @property
    def total(self) -> int:
        return (
            self.true_functional_pred_functional
            + self.true_functional_pred_defect
            + self.true_defect_pred_functional
            + self.true_defect_pred_defect
        )

    @classmethod
    def from_counts(cls, tf_pf: int, tf_pd: int, td_pf: int, td_pd: int) -> "ConfusionMatrix":
        total = tf_pf + tf_pd + td_pf + td_pd
        if total == 0:
            raise EvaluationError("confusion matrix over zero cells")
        functional = tf_pf + tf_pd
        defect = td_pf + td_pd
        return cls(
            true_functional_pred_functional=tf_pf,
            true_functional_pred_defect=tf_pd,
            true_defect_pred_functional=td_pf,
            true_defect_pred_defect=td_pd,
            accuracy=(tf_pf + td_pd) / total,
            false_negative_rate=tf_pd / functional if functional else 0.0,
            false_positive_rate=td_pf / defect if defect else 0.0,
            fnr_undefined=functional == 0,
            fpr_undefined=defect == 0,
        )


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


def confusion(defective: np.ndarray, truth: DefectMap, grid: PixelGrid) -> ConfusionMatrix:
    """Score interior-cell predictions against the ground-truth map.

    The defective mask must cover exactly the interior cells in row-major
    order, and the truth map must match the full reconstructed grid.
    """
    predicted = np.asarray(defective, dtype=bool)
    n_cells = int(np.count_nonzero(grid.interior))
    if len(predicted) != n_cells:
        raise EvaluationError(f"{len(predicted)} predictions for {n_cells} interior cells")
    if truth.rows != grid.n_rows or truth.cols != grid.n_cols:
        raise EvaluationError(
            f"truth map {truth.rows}x{truth.cols} does not match grid "
            f"{grid.n_rows}x{grid.n_cols}"
        )
    actual = truth.defective[grid.interior]
    return ConfusionMatrix.from_counts(
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
