import numpy as np
import pytest

from uled_inspect import evaluation, grid
from uled_inspect.errors import EvaluationError
from uled_inspect.evaluation import ConfusionMatrix, LesStats, confusion, les_statistics
from uled_inspect.io import DefectMap


def grid_with_interior(n_interior_side):
    edges = np.arange(n_interior_side + 3) * 10.0
    return grid.build_grid(edges, edges)


def mask(*defective):
    return np.array(defective, dtype=bool)


def test_confusion_perfect_prediction():
    g = grid_with_interior(10)  # 10x10 interior cells
    truth = DefectMap.from_cells(12, 12, [(1, 1), (5, 5), (9, 9)])
    matrix = confusion(truth.defective[1:-1, 1:-1].ravel(), truth, g)
    assert matrix.accuracy == 1.0
    assert matrix.false_negative_rate == 0.0
    assert matrix.false_positive_rate == 0.0
    assert matrix.total == 100
    assert matrix.true_defect_pred_defect == 3


def test_confusion_all_functional_prediction():
    g = grid_with_interior(10)
    truth = DefectMap.from_cells(12, 12, [(1, 1), (5, 5), (9, 9)])
    matrix = confusion(np.zeros(100, dtype=bool), truth, g)
    assert matrix.accuracy == pytest.approx(0.97)
    assert matrix.false_positive_rate == 1.0
    assert matrix.false_negative_rate == 0.0


def test_confusion_dimension_mismatch():
    g = grid_with_interior(10)
    truth = DefectMap.from_cells(9, 9, [])
    with pytest.raises(EvaluationError, match="does not match"):
        confusion(np.zeros(100, dtype=bool), truth, g)
    truth_ok = DefectMap.from_cells(12, 12, [])
    with pytest.raises(EvaluationError, match="predictions"):
        confusion(np.zeros(99, dtype=bool), truth_ok, g)


def test_confusion_zero_defect_population_flagged():
    g = grid_with_interior(10)
    truth = DefectMap.from_cells(12, 12, [])
    matrix = confusion(np.zeros(100, dtype=bool), truth, g)
    assert matrix.false_positive_rate == 0.0
    assert matrix.fpr_undefined
    assert not matrix.fnr_undefined


def test_confusion_matrix_consistency_enforced():
    with pytest.raises(EvaluationError, match="accuracy"):
        ConfusionMatrix(
            true_functional_pred_functional=9,
            true_functional_pred_defect=0,
            true_defect_pred_functional=0,
            true_defect_pred_defect=1,
            accuracy=0.5,
            false_negative_rate=0.0,
            false_positive_rate=0.0,
        )


def test_les_all_functional_raw_equals_denoised():
    stats = les_statistics(np.array([100.0, 120.0, 90.0]), mask(0, 0, 0))
    assert stats.raw_mean == stats.denoised_mean
    assert stats.raw_sem == stats.denoised_sem
    assert stats.raw_count == stats.denoised_count == 3


def test_les_defect_exclusion_arithmetic():
    stats = les_statistics(np.array([100.0, 100.0, 0.0]), mask(0, 0, 1))
    assert stats.raw_mean == pytest.approx(200.0 / 3.0)
    assert stats.denoised_mean == 100.0
    assert stats.denoised_sem == 0.0
    assert stats.raw_count == 3 and stats.denoised_count == 2


def test_les_sem_scales_inverse_sqrt_n():
    rng = np.random.default_rng(6)
    values = rng.uniform(50, 150, size=40)
    small = les_statistics(values, np.zeros(40, dtype=bool))
    # same population replicated 4x: std identical, sem exactly halves
    big = les_statistics(np.tile(values, 4), np.zeros(160, dtype=bool))
    assert big.raw_sem == pytest.approx(small.raw_sem / 2.0, rel=1e-12)


def test_les_zero_functional_rejected():
    with pytest.raises(EvaluationError, match="functional"):
        les_statistics(np.array([1.0, 2.0]), mask(1, 1))


def test_les_label_length_mismatch():
    with pytest.raises(EvaluationError):
        les_statistics(np.array([1.0, 2.0]), mask(0))


def test_denoised_at_least_raw_when_defects_below_mean():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        values = rng.uniform(10, 200, size=n)
        raw_mean = values.mean()
        defective = np.array([v < raw_mean and rng.uniform() < 0.5 for v in values])
        if defective.all():
            continue
        stats = les_statistics(values, defective)
        if np.all(values[defective] < stats.raw_mean):
            assert stats.denoised_mean >= stats.raw_mean


def test_les_stats_invariants():
    with pytest.raises(EvaluationError):
        LesStats(raw_mean=1.0, raw_sem=-0.1, denoised_mean=1.0, denoised_sem=0.0,
                 raw_count=2, denoised_count=1)
    with pytest.raises(EvaluationError):
        LesStats(raw_mean=1.0, raw_sem=0.0, denoised_mean=1.0, denoised_sem=0.0,
                 raw_count=0, denoised_count=0)
