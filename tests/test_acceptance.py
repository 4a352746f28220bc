"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import numpy as np
import pytest

from uled_inspect import grid, io, ml, pipeline, synthgen
from uled_inspect.geometry import Homography, apply_homography, estimate_homography, warp_frame
from uled_inspect.io import MeasurementFrame

from conftest import acceptance_config
from test_ml import exhaustive_two_partition_minimum


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS - {detail}")


def test_criterion_1_grid_precision(pixel_maps):
    means = []
    for i, entry in enumerate(pixel_maps, start=1):
        metrics = entry["result"].grid_metrics
        assert abs(metrics.mean_cell_width - 23.0) <= 0.5, f"map {i} width {metrics.mean_cell_width}"
        assert abs(metrics.mean_cell_height - 23.0) <= 0.5, f"map {i} height {metrics.mean_cell_height}"
        assert entry["elapsed"] < 30.0, f"map {i} took {entry['elapsed']:.1f}s"
        means.append((metrics.mean_cell_width, metrics.mean_cell_height))
    # the three maps image the same array, so they must agree on its cell size
    widths = [w for w, _ in means]
    heights = [h for _, h in means]
    assert max(widths) - min(widths) < 0.1
    assert max(heights) - min(heights) < 0.1
    report(1, f"cell sizes {['%.3f x %.3f' % m for m in means]}, "
              f"runtimes {['%.1fs' % e['elapsed'] for e in pixel_maps]}")


def test_criterion_2_classification(pixel_maps):
    stats = []
    for i, entry in enumerate(pixel_maps, start=1):
        matrix = entry["result"].confusion
        assert matrix.accuracy >= 0.995, f"map {i} accuracy {matrix.accuracy}"
        assert matrix.false_positive_rate == 0.0, f"map {i} FPR {matrix.false_positive_rate}"
        assert matrix.false_negative_rate < 0.01, f"map {i} FNR {matrix.false_negative_rate}"
        stats.append(matrix.accuracy)
    report(2, f"accuracies {['%.4f' % a for a in stats]}, FPR 0, FNR < 1%")


def test_criterion_3_denoising_direction_and_magnitude(tmp_path):
    fraction, residual = 0.07, 0.02
    config = acceptance_config(
        defect_fraction=fraction, defect_residual=residual,
        rotation_deg=0.5, perspective_strength=0.005, seed=404,
    )
    frame, defects, _ = synthgen.generate(config)
    frame_path, defects_path = tmp_path / "f.ulf", tmp_path / "d.csv"
    io.write_frame(frame, frame_path)
    io.write_defect_map(defects, defects_path)
    result = pipeline.run(pipeline.PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path),
    ))
    les = result.les_stats
    cells = result.cells
    functional_truth = cells.column("mean_l")[~defects.defective[cells.rows, cells.cols]]
    truth_mean = float(np.mean(functional_truth))
    assert abs(les.denoised_mean - truth_mean) <= 0.005 * truth_mean
    drop = (les.raw_mean - les.denoised_mean) / les.denoised_mean
    expected = -fraction * (1.0 - residual)
    assert les.raw_mean < les.denoised_mean
    assert abs(drop - expected) <= 0.2 * abs(expected)
    report(3, f"denoised within {abs(les.denoised_mean - truth_mean) / truth_mean:.2e} of truth, "
              f"drop {drop:.4f} vs expected {expected:.4f}")


def test_criterion_4_pca_oracle_equivalence():
    # Two references: the eigendecomposition of the covariance, which
    # pca_fit itself takes with np.linalg.eigh, and an independent one, the
    # SVD of the centred matrix, whose right singular vectors are the
    # components and whose sigma**2 / n are the explained variances.
    rng = np.random.default_rng(2024)
    worst_component, worst_value, worst_orth = 0.0, 0.0, 0.0
    worst_svd_component, worst_svd_value = 0.0, 0.0
    for _ in range(100):
        Z = rng.normal(size=(50, 6)) @ np.diag(rng.uniform(0.1, 3.0, 6))
        model = ml.pca_fit(Z)
        centered = Z - Z.mean(axis=0)
        eigenvalues, eigenvectors = np.linalg.eigh(centered.T @ centered / len(Z))
        order = np.argsort(eigenvalues)[::-1][:2]
        _, sigma, vt = np.linalg.svd(centered, full_matrices=False)
        for i, idx in enumerate(order):
            ref = eigenvectors[:, idx]
            got = model.components[i]
            worst_component = max(
                worst_component, min(np.abs(got - ref).max(), np.abs(got + ref).max())
            )
            worst_value = max(worst_value, abs(model.explained_variance[i] - eigenvalues[idx]))
            worst_svd_component = max(
                worst_svd_component, min(np.abs(got - vt[i]).max(), np.abs(got + vt[i]).max())
            )
            worst_svd_value = max(
                worst_svd_value, abs(model.explained_variance[i] - sigma[i] ** 2 / len(Z))
            )
        worst_orth = max(
            worst_orth, np.abs(model.components @ model.components.T - np.eye(2)).max()
        )
    assert worst_component < 1e-9
    assert worst_value < 1e-9
    assert worst_orth < 1e-9
    assert worst_svd_component < 1e-9
    assert worst_svd_value < 1e-9
    report(4, f"100 matrices: component {worst_component:.2e} (SVD {worst_svd_component:.2e}), "
              f"eigenvalue {worst_value:.2e} (SVD {worst_svd_value:.2e}), orthonormality {worst_orth:.2e}")


def test_criterion_5_kmeans_global_optimum():
    rng = np.random.default_rng(777)
    exact_partition = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        Y = rng.normal(size=(n, 2)) * rng.uniform(0.3, 3.0)
        model = ml.kmeans_fit(Y)
        best, best_mask = exhaustive_two_partition_minimum(Y)
        same = (
            np.array_equal(model.labels.astype(bool), best_mask)
            or np.array_equal(~model.labels.astype(bool), best_mask)
        )
        if same:
            exact_partition += 1
        assert same or abs(model.inertia - best) <= 1e-9 * max(best, 1.0), (
            f"inertia {model.inertia} vs optimum {best}"
        )
    report(5, f"200 instances matched the exhaustive optimum ({exact_partition} same-partition)")


def test_criterion_6_homography_budgets():
    rng = np.random.default_rng(31)
    unit = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    h = estimate_homography(unit, [(0.0, 0.0), (1.0, 0.05), (1.15, 1.0), (-0.15, 1.0)])
    inv = h.inverse()
    worst = 0.0
    for point in rng.uniform(-2, 2, size=(500, 2)):
        q = apply_homography(h, tuple(point))
        back = apply_homography(inv, q)
        worst = max(worst, abs(back[0] - point[0]), abs(back[1] - point[1]))
    assert worst < 1e-9

    lum = rng.uniform(0, 90, size=(60, 80)).astype(np.float32)
    frame = MeasurementFrame(80, 60, lum)
    identity_out = warp_frame(frame, Homography.identity(), 80, 60)
    assert np.array_equal(identity_out.luminance, frame.luminance)

    ys, xs = np.mgrid[0:120, 0:150].astype(float)
    smooth = 40 + 30 * np.sin(xs / 17.0) * np.cos(ys / 23.0)
    smooth_frame = MeasurementFrame(150, 120, smooth.astype(np.float32))
    theta = np.radians(2.5)
    rot = Homography(np.array([
        [np.cos(theta), -np.sin(theta), 12.0],
        [np.sin(theta), np.cos(theta), 4.0],
        [0.0, 0.0, 1.0],
    ]))
    fwd = warp_frame(smooth_frame, rot, 180, 150)
    back = warp_frame(fwd, rot.inverse(), 150, 120)
    inner = (slice(15, 105), slice(15, 135))
    mae = np.abs(back.luminance[inner].astype(float) - smooth_frame.luminance[inner].astype(float)).mean()
    budget = 0.01 * float(smooth_frame.luminance.mean())
    assert mae < budget
    report(6, f"round trip {worst:.2e}, warp identity exact, MAE {mae:.4f} < {budget:.4f}")


def test_criterion_7_conservation_and_determinism(pixel_maps, tmp_path):
    entry = pixel_maps[0]
    frame = io.read_frame(entry["frame_path"])
    px, py = grid.project(frame)
    total = float(frame.luminance.astype(np.float64).sum())
    assert abs(px.sum() - total) <= 1e-6 * total
    assert abs(py.sum() - total) <= 1e-6 * total

    first = (entry["frame_path"].parent / "out1" / "report.json").read_bytes()
    pipeline.run(pipeline.PipelineConfig(
        frame_path=str(entry["frame_path"]), output_dir=str(tmp_path / "rerun"),
        defects_path=str(entry["defects_path"]),
    ))
    second = (tmp_path / "rerun" / "report.json").read_bytes()
    assert first == second

    rng = np.random.default_rng(55)
    Y = np.concatenate([rng.normal(size=(300, 2)), rng.normal(size=(30, 2)) + 9.0])
    sequential = ml.kmeans_fit(Y, threads=1)
    parallel = ml.kmeans_fit(Y, threads=4)
    assert np.array_equal(sequential.centroids, parallel.centroids)
    assert np.array_equal(sequential.labels, parallel.labels)
    assert sequential.inertia == parallel.inertia
    report(7, "projection sums conserve, reports byte-identical, parallel k-means bit-equal")


def test_criterion_8_defect_cluster_robustness():
    cluster = tuple((r, c) for r in (28, 29) for c in (30, 31, 32, 33))
    config = acceptance_config(
        defect_fraction=0.0, defect_cells=cluster, defect_residual=0.0,
        noise_sigma=0.0, seed=505,
    )
    frame, _, _ = synthgen.generate(config)
    truth = np.arange(61) * config.pitch + synthgen.LES_MARGIN_PX
    worst = 0.0
    for projection in grid.project(frame):
        period = grid.estimate_period(projection)
        edges = grid.detect_edges(projection, period)
        assert len(edges) == 61
        worst = max(worst, float(np.abs(edges - truth).max()))
    assert worst < 1.0
    report(8, f"8-cell dark cluster: worst edge error {worst:.3f} px < 1 px")
