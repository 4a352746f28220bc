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


@pytest.mark.parametrize("width", [1400, 8193, 20000])
def test_project_sums_equal_those_of_the_float64_copy(width):
    # project sums the float32 plane with a float64 accumulator; its column
    # and row sums are those of the plane's float64 copy, bit for bit, at a
    # rectified width and at two far wider planes.
    rng = np.random.default_rng(width)
    frame = make_frame(rng.uniform(0.0, 100.0, size=(64, width)))
    lum = frame.luminance.astype(np.float64)
    px, py = project(frame)
    assert px.tobytes() == lum.sum(axis=0).tobytes()
    assert py.tobytes() == lum.sum(axis=1).tobytes()


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


def comb_contrast(projection):
    """r(p) - r(p/2) of the projection's support at the pitch estimate_period
    finds, from the full autocorrelation with np.interp at fractional lags."""
    lo, hi = grid._support_range(grid.smooth(projection))
    v = projection[lo : hi + 1] - projection[lo : hi + 1].mean()
    n = len(v)
    magnitude = np.abs(np.fft.rfft(v * np.hanning(n), 16 * n))
    peak = 33 + int(np.argmax(magnitude[33:-1]))
    left, mid, right = np.log(magnitude[peak - 1 : peak + 2])
    period = 16 * n / (peak + reference_parabolic_offset(left, mid, right))
    ac = np.correlate(v, v, mode="full")[n - 1 :] / (v @ v)
    r = lambda lag: float(np.interp(lag, np.arange(n), ac))
    return r(period) - r(period / 2.0)


def test_estimate_period_white_noise_errors():
    # Over 100 seeds white noise reads a comb contrast of at most 0.110,
    # well below the 0.5 that estimate_period asks of a pitch.
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        proj = rng.uniform(0.0, 1.0, 1380)
        worst = max(worst, comb_contrast(proj))
        with pytest.raises(GridError, match="no periodic structure"):
            estimate_period(proj)
    assert worst < 0.15


def test_autocorrelation_interpolates_between_integer_lags():
    # _autocorrelation at a fractional lag is the full autocorrelation
    # interpolated linearly between the integer lags around it.
    rng = np.random.default_rng(8)
    v = rng.normal(size=300)
    ac = np.correlate(v, v, mode="full")[299:] / (v @ v)
    for lag in (0.0, 1.25, 4.5, 23.0, 26.7, 149.9):
        assert grid._autocorrelation(v, lag) == pytest.approx(np.interp(lag, np.arange(300), ac), rel=1e-12, abs=1e-15)


def test_estimate_period_constant_projection_errors():
    with pytest.raises(GridError, match="no periodic structure"):
        estimate_period(np.full(300, 7.0))


def test_estimate_period_degenerate_support_names_its_length():
    # The Hann window zeroes the two ends of this 20-bin support, and the mean
    # (10) the 18 bins between: the spectrum vanishes, and the log-parabola
    # would divide by zero.  A support shorter than 5 bins has no bin above 2
    # periods per support with a neighbour on each side.
    with pytest.raises(GridError, match="20-bin support"):
        estimate_period(np.array([5.0] + [10.0] * 18 + [15.0]))
    with pytest.raises(GridError, match="support of 4 bins too short"):
        estimate_period(np.array([1.0, 3.0, 2.0, 5.0]))


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
    # Pitches of 23.5, 10.5 and 6.5 px, which fall between the bins of the
    # zero-padded spectrum.
    for cell, gap in ((20.5, 3.0), (9.0, 1.5), (5.2, 1.3)):
        config = synthgen.SynthConfig(grid_rows=18, grid_cols=18, cell_size_px=cell, gap_px=gap,
                                      lum_sigma=4, noise_sigma=0.0, seed=6)
        frame, _, _ = synthgen.generate(config)
        px, _ = project(frame)
        period = estimate_period(px)
        assert abs(period - config.pitch) < 0.01
        edges = detect_edges(px, period)
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


def reference_estimate_period(projection):
    """estimate_period as it was before the spectral pitch: every local
    maximum of the autocorrelation at lags 5 .. n/3 refined parabolically,
    and the first refined peak at least 0.85 times as high as the highest."""
    v = projection - projection.mean()
    n = len(v)
    ac = np.correlate(v, v, mode="full")[n - 1 :] / float(v @ v)
    lags = np.arange(5, n // 3 + 1)
    peaks = lags[(ac[lags] >= ac[lags - 1]) & (ac[lags] > ac[lags + 1])]
    left, mid, right = ac[peaks - 1], ac[peaks], ac[peaks + 1]
    offset = grid._parabolic_offset(left, mid, right)
    positions, values = peaks + offset, mid - 0.25 * (left - right) * offset
    if not np.any(values >= 0.2):
        raise GridError("no autocorrelation peak reaches 0.2; no periodic structure")
    return float(positions[np.argmax(values >= 0.85 * values.max())])


def reference_fit_phase(smoothed, period, lo, hi):
    """The edge-comb phase as it was before the closed form: the 0.25 px step
    in [0, period) whose comb samples the smoothed support lowest on average."""
    positions = np.arange(len(smoothed), dtype=np.float64)
    best_phase, best_score = 0.0, np.inf
    for phase in np.arange(0.0, period, 0.25):
        start = phase + np.ceil((lo - phase) / period) * period
        teeth = np.arange(start, hi + 1e-9, period)
        if teeth.size == 0:
            continue
        score = float(np.interp(teeth, positions, smoothed).mean())
        if score < best_score:
            best_score, best_phase = score, float(phase)
    return best_phase


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


def reference_detect_edges(projection, period, fit_phase=grid._fit_phase, paths=None):
    """detect_edges as it was before the valley table: one window scan per
    tooth and a dict of measured teeth refitted with del, with the same bound
    on the last edge, at the phase fit_phase gives.  paths, when given,
    counts the flat-bottomed valleys taken, the outliers deleted and the
    refits skipped for fewer than 2 measured teeth."""
    if period <= grid._MIN_PERIOD:
        raise GridError(f"period {period} too small")
    smoothed = grid.smooth(projection)
    lo, hi = grid._support_range(smoothed)
    phase = fit_phase(smoothed, period, lo, hi)
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
    if out[-1] > len(projection) + 0.5:
        raise GridError(f"last edge {out[-1]:.2f} lies past the end of the {len(projection)}-bin projection")
    return out


def assert_edges_match_reference(projection, period, paths=None):
    """detect_edges equals the reference at the same phase bit for bit, or
    both raise the same GridError; returns whether edges came out."""
    try:
        expected = reference_detect_edges(projection, period, paths=paths)
    except GridError as exc:
        with pytest.raises(GridError) as raised:
            detect_edges(projection, period)
        assert str(raised.value) == str(exc)
        return False
    assert detect_edges(projection, period).tobytes() == expected.tobytes()
    return True


def test_detect_edges_matches_reference_on_rectified_frames(pixel_maps):
    # The three acceptance maps, and the middle map of the dense benchmark
    # layout (150x150 cells on a 9.5 px pitch): the spectral pitch and phase
    # give the edges of the autocorrelation lag search and the 0.25 px phase
    # search bit for bit.  Their comb contrast reads at least 1.15, far above
    # the 0.5 that estimate_period asks.
    frames = [io.read_frame(entry["frame_path"]) for entry in pixel_maps]
    dense, _, _ = synthgen.generate(acceptance_config(
        grid_rows=150, grid_cols=150, cell_size_px=7.0, gap_px=2.5,
        rotation_deg=1.0, perspective_strength=0.012, seed=202,
    ))
    frames.append(dense)
    for frame in frames:
        rectified = pipeline._rectify(frame, geometry.detect_corners(frame))
        for projection in grid.project(rectified):
            expected = reference_detect_edges(projection, reference_estimate_period(projection), reference_fit_phase)
            assert detect_edges(projection, estimate_period(projection)).tobytes() == expected.tobytes()
            assert comb_contrast(projection) > 1.15


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_build_grid_non_finite_edge_rejected(axis, bad):
    # NaN compares false with everything, so the spacing checks alone let it
    # through; an infinite edge makes an infinite or NaN spacing.
    edges = [0.0, 10.0, 20.0, 30.0, 40.0]
    faulty = edges[:2] + [bad] + edges[3:]
    x, y = (faulty, edges) if axis == "x" else (edges, faulty)
    with pytest.raises(GridError, match=rf"^{axis}_edges\[2\] is not finite"):
        build_grid(x, y)


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

