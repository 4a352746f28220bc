import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uled_inspect import features, geometry, grid, io, pipeline, synthgen
from uled_inspect.errors import GridError
from uled_inspect.grid import (
    build_grid,
    cell_size,
    detect_edges,
    estimate_period,
    project,
)
from uled_inspect.io import MeasurementFrame

from conftest import acceptance_config, make_frame


def test_project_2x2_example():
    px, py = project(make_frame([[1.0, 2.0], [3.0, 4.0]]))
    assert px.tolist() == [4.0, 6.0]
    assert py.tolist() == [3.0, 7.0]


def test_project_constant_frame():
    px, py = project(make_frame(np.full((5, 8), 2.5)))
    assert np.allclose(px, 5 * 2.5)
    assert np.allclose(py, 8 * 2.5)


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    data=st.data(),
)
def test_projection_conservation_property(width, height, data):
    n = width * height
    values = data.draw(st.lists(st.floats(0, 1e5, allow_nan=False, width=32), min_size=n, max_size=n))
    frame = make_frame(np.array(values, dtype=np.float32).reshape(height, width))
    px, py = project(frame)
    total = float(frame.luminance.astype(np.float64).sum())
    assert abs(px.sum() - total) <= 1e-6 * max(total, 1.0)
    assert abs(py.sum() - total) <= 1e-6 * max(total, 1.0)


def test_estimate_period_pure_cosine():
    x = np.arange(1380)
    proj = 100.0 + 50.0 * np.cos(2 * np.pi * x / 26.0)
    assert abs(estimate_period(proj) - 26.0) < 0.1


def test_estimate_period_synthetic_pitch_26():
    config = synthgen.SynthConfig(grid_rows=53, grid_cols=53, cell_size_px=23, gap_px=3,
                                  lum_sigma=5, noise_sigma=0.3, seed=13)
    frame, _, _ = synthgen.generate(config)
    px, _ = project(frame)
    assert abs(estimate_period(px) - 26.0) < 0.25


def test_estimate_period_white_noise_errors():
    # threshold 0.2 verified against the peak distribution over 100 seeds
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        proj = rng.uniform(0.0, 1.0, 1380)
        v = proj - proj.mean()
        ac = np.correlate(v, v, mode="full")[len(v) - 1 :] / (v @ v)
        worst = max(worst, float(ac[5 : len(v) // 3 + 1].max()))
        with pytest.raises(GridError):
            estimate_period(proj)
    assert worst < 0.2


def test_estimate_period_constant_projection_errors():
    with pytest.raises(GridError):
        estimate_period(np.full(300, 7.0))


def test_refined_peak_matches_negated_valley_form():
    # _refined_peak once took the vertex of the negated samples and a second
    # denominator for the value; negation commutes with IEEE rounding, so the
    # direct form gives the same bits.
    rng = np.random.default_rng(3)
    triples = rng.normal(size=(500, 3)).tolist() + [[0.2, 0.9, 0.2], [0.1, 0.2, 0.3], [0.5, 0.5, 0.5]]
    for left, mid, right in triples:
        ac = np.array([left, mid, right])
        offset = reference_parabolic_offset(-left, -mid, -right)
        denom = left - 2.0 * mid + right
        value = mid if abs(denom) < 1e-12 else mid - 0.25 * (left - right) * offset
        assert grid._refined_peak(ac, 1) == (1 + offset, value)


def test_detect_edges_noise_free_within_half_px():
    config = synthgen.SynthConfig(grid_rows=20, grid_cols=20, cell_size_px=23, gap_px=3,
                                  lum_sigma=5, noise_sigma=0.0, seed=2)
    frame, _, _ = synthgen.generate(config)
    px, py = project(frame)
    truth = np.arange(21) * config.pitch + synthgen.LES_MARGIN_PX
    for proj in (px, py):
        edges = detect_edges(proj, estimate_period(proj))
        assert len(edges) == 21
        assert np.abs(edges - truth).max() < 0.5


def test_detect_edges_non_integer_pitch():
    config = synthgen.SynthConfig(grid_rows=18, grid_cols=18, cell_size_px=20.5, gap_px=3.0,
                                  lum_sigma=4, noise_sigma=0.0, seed=6)
    frame, _, _ = synthgen.generate(config)
    px, _ = project(frame)
    edges = detect_edges(px, estimate_period(px))
    truth = np.arange(19) * config.pitch + synthgen.LES_MARGIN_PX
    assert len(edges) == 19
    assert np.abs(edges - truth).max() < 0.5


def test_detect_edges_defect_cluster_within_1px():
    cluster = tuple((r, c) for r in (8, 9) for c in (7, 8, 9, 10))
    config = synthgen.SynthConfig(grid_rows=20, grid_cols=20, cell_size_px=23, gap_px=3,
                                  lum_sigma=5, defect_cells=cluster, defect_residual=0.0,
                                  noise_sigma=0.0, seed=4)
    frame, _, _ = synthgen.generate(config)
    truth = np.arange(21) * config.pitch + synthgen.LES_MARGIN_PX
    for proj in project(frame):
        edges = detect_edges(proj, estimate_period(proj))
        assert len(edges) == 21
        assert np.abs(edges - truth).max() < 1.0


def test_detect_edges_strictly_increasing():
    config = synthgen.SynthConfig(grid_rows=16, grid_cols=16, cell_size_px=20, gap_px=3,
                                  lum_sigma=6, noise_sigma=0.8, seed=19)
    frame, _, _ = synthgen.generate(config)
    for proj in project(frame):
        edges = detect_edges(proj, estimate_period(proj))
        assert np.all(np.diff(edges) > 0)


def test_translation_covariance():
    config = synthgen.SynthConfig(grid_rows=12, grid_cols=12, cell_size_px=20, gap_px=3,
                                  lum_sigma=5, noise_sigma=0.0, seed=21)
    frame, _, _ = synthgen.generate(config)
    dx, dy = 7, 4
    shifted = np.zeros((frame.height + dy, frame.width + dx), dtype=np.float32)
    shifted[dy:, dx:] = frame.luminance
    shifted_frame = MeasurementFrame(frame.width + dx, frame.height + dy, shifted)
    base_x, base_y = project(frame)
    moved_x, moved_y = project(shifted_frame)
    for base, moved, delta in ((base_x, moved_x, dx), (base_y, moved_y, dy)):
        edges = detect_edges(base, estimate_period(base))
        edges_moved = detect_edges(moved, estimate_period(moved))
        assert np.abs((edges_moved - delta) - edges).max() < 0.1


def reference_parabolic_offset(left: float, mid: float, right: float) -> float:
    denom = left - 2.0 * mid + right
    if abs(denom) < 1e-12:
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


def reference_window_minimum(smoothed, nominal, half_width, lo, hi, paths=None):
    """The refinement of one comb tooth that the valley table replaced: a scan
    of the tooth's window for plateau-aware local minima.  paths, when given,
    counts the flat-bottomed valleys taken."""
    n = len(smoothed)
    a = max(int(np.ceil(nominal - half_width)), lo + 1, 1)
    b = min(int(np.floor(nominal + half_width)), hi - 1, n - 2)
    if b < a:
        return None
    depth_cutoff = grid._VALLEY_DEPTH_REL * float(smoothed[a : b + 1].max())
    candidates: list[float] = []
    flat: list[bool] = []
    i = a
    while i <= b:
        j = i
        while j + 1 <= b and smoothed[j + 1] == smoothed[i]:
            j += 1
        run_value = smoothed[i]
        if smoothed[i - 1] > run_value and smoothed[j + 1] > run_value and run_value <= depth_cutoff:
            if i == j:
                candidates.append(i + reference_parabolic_offset(smoothed[i - 1], smoothed[i], smoothed[i + 1]))
            else:
                candidates.append((i + j) / 2.0)
            flat.append(i != j)
        i = j + 1
    if not candidates:
        return None
    deltas = [abs(c - nominal) for c in candidates]
    best = int(np.argmin(deltas))
    if paths is not None:
        paths["plateau"] += flat[best]
    return float(candidates[best])


def reference_detect_edges(projection, period, paths=None):
    """detect_edges as it was before the valley table: one window scan per
    tooth and a dict of measured teeth refitted with del.  paths, when given,
    counts the flat-bottomed valleys taken, the outliers deleted and the
    refits skipped for fewer than 2 measured teeth."""
    if period <= grid._MIN_LAG - 1:
        raise GridError(f"period {period} too small")
    smoothed = grid.smooth(projection)
    lo, hi = grid._support_range(smoothed)
    phase = grid._fit_phase(smoothed, period, lo, hi)
    k_min = int(np.ceil((lo - 0.45 * period - phase) / period))
    k_max = int(np.floor((hi + 0.45 * period - phase) / period))
    ks = np.arange(k_min, k_max + 1)
    if len(ks) < 3:
        raise GridError(f"only {max(len(ks), 0)} edges in projection support; need >= 3")
    found: dict[int, float] = {}
    for i, k in enumerate(ks):
        minimum = reference_window_minimum(smoothed, phase + k * period, period / 4.0, lo, hi, paths)
        if minimum is not None:
            found[i] = minimum
    fit_b, fit_a = float(period), float(phase)
    for _ in range(2):
        if len(found) < 2:
            if paths is not None:
                paths["unfit"] += 1
            break
        idx = sorted(found)
        fit_b, fit_a = np.polyfit(ks[idx].astype(np.float64), [found[i] for i in idx], 1)
        outliers = [i for i in idx if abs(found[i] - (fit_a + fit_b * ks[i])) > 1.0]
        if not outliers:
            break
        if paths is not None:
            paths["outliers"] += len(outliers)
        for i in outliers:
            del found[i]
    edges = [found.get(i, fit_a + fit_b * k) + 0.5 for i, k in enumerate(ks)]
    out = np.asarray(edges)
    if np.any(np.diff(out) <= 0):
        raise GridError("detected edges are not strictly increasing")
    return out


def assert_edges_match_reference(projection, period, paths=None):
    """detect_edges equals the reference bit for bit, or both raise the same
    GridError; returns whether edges came out."""
    try:
        expected = reference_detect_edges(projection, period, paths)
    except GridError as exc:
        with pytest.raises(GridError) as raised:
            detect_edges(projection, period)
        assert str(raised.value) == str(exc)
        return False
    assert detect_edges(projection, period).tobytes() == expected.tobytes()
    return True


def test_detect_edges_matches_reference_on_rectified_frames(pixel_maps):
    # The three acceptance maps, and the middle map of the dense benchmark
    # layout (150x150 cells on a 9.5 px pitch).
    frames = [io.read_frame(entry["frame_path"]) for entry in pixel_maps]
    dense, _, _ = synthgen.generate(acceptance_config(
        grid_rows=150, grid_cols=150, cell_size_px=7.0, gap_px=2.5,
        rotation_deg=1.0, perspective_strength=0.012, seed=202,
    ))
    frames.append(dense)
    for frame in frames:
        rectified = pipeline._rectify(frame, geometry.detect_corners(frame))
        for projection in grid.project(rectified):
            assert assert_edges_match_reference(projection, estimate_period(projection))


def random_projection(rng):
    """A dark-margined comb of cell bumps with noise, dark cell runs and a
    pitch error, quantised to a few levels so that flat runs are common."""
    n = int(rng.integers(100, 400))
    period = float(rng.uniform(6.0, 30.0))
    x = np.arange(n) + 0.5
    bumps = np.abs(np.sin(np.pi * (x - rng.uniform(0.0, period)) / period)) ** rng.uniform(0.3, 3.0)
    values = 100.0 * bumps * rng.uniform(0.7, 1.0, n) + rng.normal(0.0, rng.uniform(0.0, 15.0), n)
    for _ in range(int(rng.integers(0, 4))):
        start = int(rng.integers(0, n))
        values[start : start + int(rng.integers(1, 4 * period))] *= rng.uniform(0.0, 0.3)
    if rng.random() < 0.1:
        values = np.full(n, 100.0) + rng.normal(0.0, 1.0, n)
    margin = int(rng.integers(0, 3 * period))
    values[:margin] = values[n - margin :] = rng.uniform(0.0, 5.0)
    step = float(rng.choice([0.5, 5.0, 12.0, 25.0]))
    projection = np.maximum(np.round(values / step) * step, 0.0)
    return projection, period * rng.uniform(0.97, 1.03)


def test_detect_edges_matches_reference_on_random_projections():
    paths = {"plateau": 0, "outliers": 0, "unfit": 0}
    compared = 0
    for seed in range(240):
        projection, period = random_projection(np.random.default_rng(seed))
        compared += assert_edges_match_reference(projection, period, paths)
    # The cases reach every path of the rule, not only the common one.
    assert compared >= 200
    assert paths["plateau"] > 0 and paths["outliers"] > 0 and paths["unfit"] > 0, paths


def tooth(smoothed, nominal, half_width, lo=0, hi=None):
    """One tooth's refined position, by the valley table and by the reference
    scan, which must agree; None when no valley qualifies."""
    smoothed = np.asarray(smoothed, dtype=np.float64)
    hi = len(smoothed) - 1 if hi is None else hi
    found = grid._tooth_minima(smoothed, np.array([nominal]), half_width, lo, hi)[0]
    expected = reference_window_minimum(smoothed, nominal, half_width, lo, hi)
    if expected is None:
        assert np.isnan(found)
        return None
    assert found == expected
    return found


FLAT_BOTTOM = [9, 9, 9, 5, 2, 2, 2, 5, 9, 9, 9]


def test_valley_flat_bottom_yields_midpoint():
    assert tooth(FLAT_BOTTOM, 5.0, 3.0) == 5.0
    assert tooth(FLAT_BOTTOM, 3.5, 3.0) == 5.0


def test_valley_cut_by_window_or_support_edge_is_ignored():
    assert tooth(FLAT_BOTTOM, 2.0, 3.0) is None  # the window ends at 5, inside the run 4..6
    assert tooth(FLAT_BOTTOM, 8.0, 3.0) is None  # the window starts at 5
    assert tooth(FLAT_BOTTOM, 5.0, 3.0, hi=6) is None  # the support leaves only 1..5
    assert tooth(FLAT_BOTTOM, 5.0, 3.0, lo=4) is None  # the support leaves only 5..8
    assert tooth(FLAT_BOTTOM, 5.0, 3.0, lo=2, hi=8) == 5.0


def test_valley_above_depth_cutoff_is_ignored():
    # The window maximum is 8, so the cutoff is 6: a dimple to 7 is noise on
    # the bright plateau, a dip to 6 is a cell border.
    assert tooth([8, 8, 8, 8, 7, 8, 8, 8, 8], 4.0, 3.0) is None
    assert tooth([8, 8, 8, 8, 6, 8, 8, 8, 8], 4.0, 3.0) == 4.0
    assert tooth([8, 8, 8, 7, 8, 8, 6, 7, 8], 4.0, 3.0) == 6.0 + reference_parabolic_offset(8.0, 6.0, 7.0)


def test_valley_nearest_wins_lower_index_on_tie():
    two = [9, 9, 3, 9, 9, 9, 3, 9, 9]
    assert tooth(two, 4.0, 3.0) == 2.0
    assert tooth(two, 4.5, 3.0) == 6.0
    assert tooth(two, 3.5, 3.0) == 2.0


def test_build_grid_2x1_no_interior():
    g = build_grid([0.0, 26.0, 52.0], [0.0, 26.0])
    assert g.n_cols == 2 and g.n_rows == 1
    assert not g.interior.any()
    with pytest.raises(GridError, match="interior"):
        cell_size(g)


def test_build_grid_60x60_interior_count():
    edges = np.arange(61) * 26.0
    g = build_grid(edges, edges)
    assert g.n_rows == g.n_cols == 60
    assert g.interior.sum() == 58 * 58
    assert not g.interior[0].any() and not g.interior[-1].any()
    assert not g.interior[:, 0].any() and not g.interior[:, -1].any()


def test_build_grid_spacing_outlier_rejected():
    with pytest.raises(GridError, match="spacing"):
        build_grid([0.0, 26.0, 80.0], [0.0, 26.0, 52.0])


def test_build_grid_non_monotonic_rejected():
    with pytest.raises(GridError, match="increasing"):
        build_grid([0.0, 26.0, 26.0], [0.0, 26.0, 52.0])


def test_build_grid_too_few_edges():
    with pytest.raises(GridError, match="at least 2"):
        build_grid([0.0], [0.0, 1.0])


def test_cell_size_uniform_grid_std_zero():
    edges = np.arange(10) * 26.0
    metrics = cell_size(build_grid(edges, edges))
    assert metrics.mean_cell_width == 26.0
    assert metrics.mean_cell_height == 26.0
    assert metrics.std_cell_width == 0.0
    assert metrics.std_cell_height == 0.0


def test_cell_size_measures_the_columns_and_rows_of_the_interior_mask():
    # A hand-built one-row grid whose every cell is interior has no one-cell
    # border ring; its widths 20, 30, 20, 30, 20 and its one height 20 are
    # measured.
    x_edges, y_edges = np.array([0.0, 20.0, 50.0, 70.0, 100.0, 120.0]), np.array([0.0, 20.0])
    g = grid.PixelGrid(x_edges, y_edges, np.ones((1, 5), dtype=bool))
    metrics = cell_size(g)
    assert metrics.mean_cell_width == np.mean([20.0, 30.0, 20.0, 30.0, 20.0])
    assert metrics.std_cell_width == np.std([20.0, 30.0, 20.0, 30.0, 20.0])
    assert (metrics.mean_cell_height, metrics.std_cell_height) == (20.0, 0.0)
    # features.extract takes its cells from the same mask: all five.
    assert len(features.extract(make_frame(np.ones((20, 120))), g)) == 5
    # Only the columns that hold an interior cell count: widths 30 and 30.
    interior = np.zeros((1, 5), dtype=bool)
    interior[0, [1, 3]] = True
    metrics = cell_size(grid.PixelGrid(x_edges, y_edges, interior))
    assert (metrics.mean_cell_width, metrics.std_cell_width) == (30.0, 0.0)


def test_cell_size_default_layout_recovers_pitch():
    # cell 23 + gap 3 lays cells out on a 26 px pitch; the reconstructed
    # interior cell size is that pitch
    config = synthgen.SynthConfig(grid_rows=24, grid_cols=24, cell_size_px=23, gap_px=3,
                                  lum_sigma=5, noise_sigma=0.3, seed=9)
    frame, _, _ = synthgen.generate(config)
    px, py = project(frame)
    g = build_grid(detect_edges(px, estimate_period(px)), detect_edges(py, estimate_period(py)))
    metrics = cell_size(g)
    assert abs(metrics.mean_cell_width - 26.0) < 0.5
    assert abs(metrics.mean_cell_height - 26.0) < 0.5
    assert metrics.std_cell_width < 0.5


def test_projection_csv_layout():
    assert grid.projection_csv(np.array([1.0, 2.0])) == "coordinate,value\n0.5,1.0\n1.5,2.0\n"


def test_grid_json_round_trip():
    import json

    g = build_grid([0.0, 26.0, 52.0], [0.0, 26.0, 52.0])
    payload = json.loads(g.to_json())
    assert payload == {"x_edges": [0.0, 26.0, 52.0], "y_edges": [0.0, 26.0, 52.0]}
