import hashlib
import math

import numpy as np
import pytest

from uled_inspect import synthgen
from uled_inspect.errors import ConfigError
from uled_inspect.synthgen import SynthConfig, generate


def small_config(**overrides):
    base = dict(grid_rows=4, grid_cols=5, cell_size_px=23.0, gap_px=3.0,
                lum_mean=100.0, lum_sigma=0.0, noise_sigma=0.0, seed=3)
    base.update(overrides)
    return SynthConfig(**base)


def test_determinism_bit_identical():
    config = small_config(lum_sigma=5.0, noise_sigma=0.4, defect_fraction=0.1, rotation_deg=1.3)
    a = generate(config)
    b = generate(config)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]


# The sha256 of the planes of two noisy frames, recorded while the generator
# still drew its noise in one batch and shared one warp plan among its four
# warps, so a change to any bit of a frame fails here.  Each frame spans more
# than two noise chunks; "odd" has an odd sample count.
FRAME_DIGESTS = {
    "odd": (
        dict(grid_rows=15, grid_cols=18, lum_sigma=5.0, noise_sigma=0.8, defect_fraction=0.05,
             rotation_deg=1.3, perspective_strength=0.01, seed=11),
        (501, 425),
        "f9b495e5b0ba0f371b97aee1b589d65efa248dfc11a3d84e66349d6e0ebd152f",
    ),
    "even": (
        dict(grid_rows=15, grid_cols=19, cell_size_px=20.0, lum_sigma=6.0, noise_sigma=0.5,
             defect_fraction=0.03, chroma_sigma=0.005, rotation_deg=-0.7, seed=12),
        (466, 375),
        "f6ba1178e593d65c23eddf5bb86c673a18c6827b52d6b36ec8ecd8ee812256da",
    ),
}


@pytest.mark.parametrize("case", list(FRAME_DIGESTS))
def test_noisy_frame_bytes_are_pinned(case):
    overrides, size, digest = FRAME_DIGESTS[case]
    frame, _, _ = generate(small_config(**overrides))
    assert (frame.width, frame.height) == size
    assert frame.width * frame.height > 2 * synthgen._NOISE_CHUNK
    assert (frame.width * frame.height) % 2 == (case == "odd")
    assert hashlib.sha256(b"".join(plane.tobytes() for plane in frame.planes)).hexdigest() == digest


def test_seed_changes_output():
    a = generate(small_config(lum_sigma=5.0, seed=1))[0]
    b = generate(small_config(lum_sigma=5.0, seed=2))[0]
    assert a != b


def test_undistorted_cells_and_gaps():
    # no rotation/perspective/noise: fully covered samples carry the exact
    # drawn brightness, fully dark samples are exactly zero
    config = small_config(lum_sigma=4.0)
    frame, _, _ = generate(config)
    brightness = synthgen.drawn_brightness(config)
    margin = synthgen.LES_MARGIN_PX
    for (row, col) in ((0, 0), (2, 3), (3, 4)):
        x0 = margin + config.gap_px / 2 + col * config.pitch
        y0 = margin + config.gap_px / 2 + row * config.pitch
        # interior samples strictly inside the bright rectangle
        xs = slice(int(np.ceil(x0)) + 1, int(np.floor(x0 + config.cell_size_px)) - 1)
        ys = slice(int(np.ceil(y0)) + 1, int(np.floor(y0 + config.cell_size_px)) - 1)
        block = frame.luminance[ys, xs].astype(np.float64)
        assert np.all(block == np.float32(brightness[row, col]))
    # a fully dark gap column between cells 0 and 1: x in [24.5+12, 27.5+12)
    assert np.all(frame.luminance[:, 37] == 0.0)


def test_defect_residual_scales_cell():
    config = small_config(defect_cells=((1, 2),), defect_residual=0.02)
    frame, defects, _ = generate(config)
    assert defects.defective[1, 2] and defects.defect_count() == 1
    margin = synthgen.LES_MARGIN_PX
    x0 = margin + config.gap_px / 2 + 2 * config.pitch
    y0 = margin + config.gap_px / 2 + 1 * config.pitch
    block = frame.luminance[int(y0) + 2 : int(y0) + 20, int(x0) + 2 : int(x0) + 20]
    assert np.all(block == np.float32(2.0))


def axis_coverage(config, n_cells):
    """The generator's rasterisation of the ideal cell rectangles along one
    axis: the share of each sample covered by each cell's bright interior."""
    n_samples = int(np.ceil(n_cells * config.pitch))
    return synthgen._coverage_matrix(n_cells, config.pitch, config.cell_size_px, config.gap_px, n_samples)


def test_ideal_cell_rectangles_layout():
    # half-gap border, pitch = cell + gap: cell 0 spans [1.5, 24.5),
    # cell 1 starts at 27.5
    config = SynthConfig(grid_rows=2, grid_cols=2, cell_size_px=23, gap_px=3)
    cov = axis_coverage(config, config.grid_cols)
    first = np.zeros(52)
    first[1], first[2:24], first[24] = 0.5, 1.0, 0.5
    assert cov.tolist() == [first.tolist(), np.roll(first, 26).tolist()]


def test_ideal_cell_rectangles_single_cell():
    config = SynthConfig(grid_rows=1, grid_cols=1, cell_size_px=10, gap_px=2)
    assert axis_coverage(config, 1).tolist() == [[0.0] + [1.0] * 10 + [0.0]]


def test_ideal_cell_rectangles_pairwise_disjoint():
    # each cell covers exactly cell_size_px and no sample holds more than its
    # own area, so no two cells overlap along either axis
    config = SynthConfig(grid_rows=3, grid_cols=4, cell_size_px=7.3, gap_px=1.1)
    for n_cells in (config.grid_rows, config.grid_cols):
        cov = axis_coverage(config, n_cells)
        assert np.allclose(cov.sum(axis=1), config.cell_size_px, rtol=0, atol=1e-12)
        assert cov.sum(axis=0).max() <= 1.0 + 1e-12


def reference_coverage_matrix(n_cells, pitch, cell, gap, n_samples):
    """The per-cell loop _coverage_matrix replaces: each cell fills only its
    own window of samples, cut to the samples 0..n_samples-1."""
    cov = np.zeros((n_cells, n_samples))
    half_gap = gap / 2.0
    for c in range(n_cells):
        a = half_gap + c * pitch
        b = a + cell
        i0 = max(int(math.floor(a)), 0)
        i1 = min(int(math.ceil(b)), n_samples)
        idx = np.arange(i0, i1)
        cov[c, i0:i1] = np.clip(np.minimum(b, idx + 1) - np.maximum(a, idx), 0.0, 1.0)
    return cov


@pytest.mark.parametrize("cell, gap", [(20.0, 3.0), (7.0, 2.5), (7.3, 1.9), (5.0, 0.0)])
def test_coverage_matrix_matches_per_cell_loop(cell, gap):
    n_cells = 7
    les = n_cells * (cell + gap)
    # The generator's own size, then samples ending inside the next-to-last
    # cell (its window cut, the last cell's empty), then samples past the LES.
    for n_samples in (math.ceil(les - 1e-9), int(les - 1.5 * (cell + gap)), math.ceil(les) + 9):
        got = synthgen._coverage_matrix(n_cells, cell + gap, cell, gap, n_samples)
        want = reference_coverage_matrix(n_cells, cell + gap, cell, gap, n_samples)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# (cell_size_px, gap_px) of layouts where no sample overlaps two cells (K = 1
# on both axes): the acceptance and dense geometries, cell edges off the
# sample grid with a gap over 1 px, a 1 px gap and no gap at a whole pitch.
# Then layouts where samples overlap two cells (K = 2): gaps under 1 px with
# cell edges off the sample grid.
ONE_CELL_PER_SAMPLE = [(20.0, 3.0), (7.0, 2.5), (7.3, 1.1), (3.0, 1.0), (5.0, 0.0)]
TWO_CELLS_PER_SAMPLE = [(1.875, 0.625), (4.3, 0.0), (0.6, 0.3)]


def ideal_case(cell, gap):
    """(values, row slots, column slots, row coverage, column coverage) of a
    7 x 9-cell LES of the generator's size with random values >= 0, a fifth
    of them 0."""
    rng = np.random.default_rng(41)
    n_rows, n_cols = 7, 9
    values = rng.uniform(0.0, 100.0, size=(n_rows, n_cols))
    values[rng.uniform(size=values.shape) < 0.2] = 0.0
    pitch = cell + gap
    axes = [(n, math.ceil(n * pitch - 1e-9)) for n in (n_rows, n_cols)]
    coverage = [synthgen._coverage_matrix(n, pitch, cell, gap, samples) for n, samples in axes]
    return values, *(synthgen._coverage_slots(cov) for cov in coverage), *coverage


def cell_order_product(values, cov_y, cov_x):
    """cov_y.T @ values @ cov_x as an explicit loop over the cells, each
    product's terms added in cell order."""
    rows = np.zeros((cov_y.shape[1], values.shape[1]))
    for r in range(len(cov_y)):
        rows += cov_y[r][:, None] * values[r]
    out = np.zeros((cov_y.shape[1], cov_x.shape[1]))
    for c in range(len(cov_x)):
        out += rows[:, c][:, None] * cov_x[c]
    return out


@pytest.mark.parametrize("cell, gap", ONE_CELL_PER_SAMPLE)
def test_ideal_equals_the_coverage_product_where_samples_meet_one_cell(cell, gap):
    # Each sample of either product has one nonzero term, so the slot sums
    # give the bits of the matrix product.
    values, rows, cols, cov_y, cov_x = ideal_case(cell, gap)
    assert len(rows[1]) == len(cols[1]) == 1
    assert synthgen._ideal(values, rows, cols).tobytes() == (cov_y.T @ values @ cov_x).tobytes()


@pytest.mark.parametrize("cell, gap", TWO_CELLS_PER_SAMPLE)
def test_ideal_sums_in_cell_order_where_samples_meet_two_cells(cell, gap):
    # The bits of the cell-order loop, and within 1e-15 relative of the
    # matrix product, whose kernel may round its terms otherwise.
    values, rows, cols, cov_y, cov_x = ideal_case(cell, gap)
    assert len(rows[1]) == len(cols[1]) == 2
    ideal = synthgen._ideal(values, rows, cols)
    assert ideal.tobytes() == cell_order_product(values, cov_y, cov_x).tobytes()
    product = cov_y.T @ values @ cov_x
    assert np.all(np.abs(ideal - product) <= 1e-15 * product)


def test_projection_periodicity_invariant():
    # zero distortion and noise: projections repeat exactly at the pitch
    config = small_config(lum_sigma=0.0)
    frame, _, _ = generate(config)
    proj = frame.luminance.astype(np.float64).sum(axis=0)
    pitch = int(config.pitch)
    margin = synthgen.LES_MARGIN_PX
    les = proj[margin : margin + int(config.les_width)]
    assert np.array_equal(les[:-pitch], les[pitch:])


def test_functional_mean_matches_draws():
    config = small_config(lum_sigma=8.0, defect_cells=((0, 0), (3, 4)), seed=11)
    frame, defects, _ = generate(config)
    brightness = synthgen.drawn_brightness(config)
    functional_mean = brightness[~defects.defective].mean()
    # read back fully covered interior samples per functional cell
    margin = synthgen.LES_MARGIN_PX
    per_cell = []
    for row in range(config.grid_rows):
        for col in range(config.grid_cols):
            if defects.defective[row, col]:
                continue
            x0 = margin + config.gap_px / 2 + col * config.pitch
            y0 = margin + config.gap_px / 2 + row * config.pitch
            per_cell.append(float(frame.luminance[int(y0) + 5, int(x0) + 5]))
    assert np.allclose(np.mean(per_cell), functional_mean, rtol=1e-6)


def test_corner_points_order_and_placement():
    config = small_config()
    _, _, corners = generate(config)
    m = synthgen.LES_MARGIN_PX
    w, h = config.les_width, config.les_height
    assert corners == [(m, m), (m + w, m), (m + w, m + h), (m, m + h)]


def test_corner_points_under_rotation():
    config = small_config(rotation_deg=2.0)
    frame, _, corners = generate(config)
    tl, tr, br, bl = corners
    assert tl[0] < tr[0] and tl[1] < bl[1]
    # side lengths preserved by the rigid rotation
    top = np.hypot(tr[0] - tl[0], tr[1] - tl[1])
    assert abs(top - config.les_width) < 1e-6
    for x, y in corners:
        assert 0 <= x <= frame.width and 0 <= y <= frame.height


def test_defect_fraction_count_and_determinism():
    config = small_config(grid_rows=10, grid_cols=10, defect_fraction=0.07)
    _, defects_a, _ = generate(config)
    _, defects_b, _ = generate(config)
    assert defects_a.defect_count() == 7
    assert defects_a == defects_b


def test_luminance_clamped_after_noise():
    config = small_config(noise_sigma=5.0, lum_mean=1.0)
    frame, _, _ = generate(config)
    assert frame.luminance.min() >= 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(gap_px=-1.0),
        dict(cell_size_px=3.0, gap_px=3.0),
        dict(defect_fraction=1.0),
        dict(defect_residual=1.0),
        dict(lum_sigma=-0.1),
        dict(noise_sigma=-2.0),
        dict(grid_rows=0),
        dict(chroma_mean_x=1.5),
        dict(defect_cells=((4, 0),)),
        dict(perspective_strength=-0.1),
        # w, the homography's bottom row, is 1 - strength at one LES corner
        # without rotation: below the 0.5 floor at 0.6 and 0.99, 0 at 1.0 and
        # past the horizon at 1.5.
        dict(perspective_strength=0.6),
        dict(perspective_strength=0.99),
        dict(perspective_strength=1.0),
        dict(perspective_strength=1.5),
    ],
)
def test_invalid_config_rejected(bad):
    with pytest.raises(ConfigError):
        small_config(**bad)


def test_chroma_planes_present_and_bounded():
    config = small_config(chroma_sigma=0.02, seed=5)
    frame, _, _ = generate(config)
    assert frame.has_chroma
    assert frame.chroma_x.min() >= 0.0 and frame.chroma_x.max() <= 1.0
    # gaps blend to the configured mean
    assert abs(float(frame.chroma_x[0, 0]) - config.chroma_mean_x) < 1e-6
