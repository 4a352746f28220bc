import math

import numpy as np
import pytest

from uled_inspect import features, grid, synthgen
from uled_inspect.errors import FeatureExtractionError, ValidationError
from uled_inspect.features import COLUMNS, CellTable, extract

from conftest import make_frame


def reference_extract(frame, g):
    """The per-cell loop extract replaced: one block slice and one reduction
    per cell.  Returns (rows, cols, n x 6 values, set of block shapes)."""

    def sample_range(lo, hi):
        first = math.ceil(lo + features.MARGIN_PX - 0.5)
        last = math.ceil(hi - features.MARGIN_PX - 0.5) - 1
        return first, last

    lum = frame.luminance.astype(np.float64)
    chroma_x = frame.chroma_x.astype(np.float64) if frame.has_chroma else None
    chroma_y = frame.chroma_y.astype(np.float64) if frame.has_chroma else None
    rows, cols, values, shapes = [], [], [], set()
    for row in range(g.n_rows):
        for col in range(g.n_cols):
            if not g.interior[row, col]:
                continue
            i0, i1 = sample_range(g.x_edges[col], g.x_edges[col + 1])
            j0, j1 = sample_range(g.y_edges[row], g.y_edges[row + 1])
            i0, j0 = max(i0, 0), max(j0, 0)
            i1, j1 = min(i1, frame.width - 1), min(j1, frame.height - 1)
            assert i1 >= i0 and j1 >= j0
            block = lum[j0 : j1 + 1, i0 : i1 + 1]
            if chroma_x is not None:
                mean_cx = float(chroma_x[j0 : j1 + 1, i0 : i1 + 1].mean())
                mean_cy = float(chroma_y[j0 : j1 + 1, i0 : i1 + 1].mean())
            else:
                mean_cx = mean_cy = features.NEUTRAL_CHROMA
            rows.append(row)
            cols.append(col)
            values.append(
                [float(block.mean()), float(block.max()), float(block.min()), float(block.std()),
                 mean_cx, mean_cy]
            )
            shapes.add(block.shape)
    return np.array(rows), np.array(cols), np.array(values), shapes


def assert_matches_reference(frame, g, min_shapes=1):
    table = extract(frame, g)
    rows, cols, values, shapes = reference_extract(frame, g)
    assert len(shapes) >= min_shapes
    assert table.rows.tobytes() == rows.tobytes()
    assert table.cols.tobytes() == cols.tobytes()
    for k, name in enumerate(COLUMNS):
        assert table.values[:, k].tobytes() == values[:, k].tobytes(), name


def cell(table, i=0):
    """Cell i of a table as a dict: row, col and the six descriptors."""
    return dict(zip(("row", "col") + COLUMNS, [int(table.rows[i]), int(table.cols[i])] + table.values[i].tolist()))


def grid_3x3(cell_px=8.0):
    edges = np.arange(4) * cell_px
    return grid.build_grid(edges, edges)


def center_block(frame_values, cell_px=8):
    """Frame with a 3x3 cell grid; returns (frame, grid) where cell (1,1)
    holds the given values in its margin-retained region."""
    size = 3 * cell_px
    lum = np.zeros((size, size), dtype=np.float32)
    lum[:] = 5.0
    region = np.asarray(frame_values, dtype=np.float32)
    j0 = cell_px + 1  # first sample center >= cell_lo + 1
    lum[j0 : j0 + region.shape[0], j0 : j0 + region.shape[1]] = region
    return make_frame(lum), grid_3x3(float(cell_px))


def test_constant_cell():
    frame, g = center_block(np.full((6, 6), 42.0))
    table = extract(frame, g)
    assert len(table) == 1
    f = cell(table)
    assert (f["row"], f["col"]) == (1, 1)
    assert f["mean_l"] == f["max_l"] == f["min_l"] == 42.0
    assert f["std_l"] == 0.0
    assert f["mean_cx"] == f["mean_cy"] == 0.5  # chroma absent -> neutral fill


def test_two_value_cell_population_std():
    # margin-retained region holds the samples {1, 3} in equal number
    frame, g = center_block(np.array([[1.0, 3.0] * 3] * 6))
    f = cell(extract(frame, g))
    assert f["mean_l"] == 2.0
    assert f["max_l"] == 3.0
    assert f["min_l"] == 1.0
    assert f["std_l"] == 1.0


def test_margin_excludes_boundary_samples():
    cell_px = 8
    size = 3 * cell_px
    lum = np.full((size, size), 7.0, dtype=np.float32)
    # poison the 1px margin ring of cell (1,1); retained stats must not move
    lum[cell_px, cell_px:2 * cell_px] = 999.0
    lum[2 * cell_px - 1, cell_px:2 * cell_px] = 999.0
    lum[cell_px:2 * cell_px, cell_px] = 999.0
    lum[cell_px:2 * cell_px, 2 * cell_px - 1] = 999.0
    f = cell(extract(make_frame(lum), grid_3x3(float(cell_px))))
    assert f["max_l"] == 7.0 and f["min_l"] == 7.0


def test_row_major_order_and_length():
    edges = np.arange(6) * 8.0
    g = grid.build_grid(edges, edges)
    frame = make_frame(np.ones((40, 40)))
    table = extract(frame, g)
    assert len(table) == 9
    assert list(zip(table.rows.tolist(), table.cols.tolist())) == [
        (r, c) for r in (1, 2, 3) for c in (1, 2, 3)
    ]


def test_luminance_scaling_exact_power_of_two():
    rng = np.random.default_rng(7)
    lum = rng.uniform(1, 50, size=(24, 24)).astype(np.float32)
    frame = make_frame(lum)
    scaled = make_frame(lum * np.float32(4.0))
    base = extract(frame, grid_3x3()).values
    quad = extract(scaled, grid_3x3()).values
    assert np.array_equal(quad[:, :4], 4.0 * base[:, :4])  # mean, max, min, std
    assert np.array_equal(quad[:, 4:], base[:, 4:])  # chroma


def test_luminance_scaling_generic_alpha():
    rng = np.random.default_rng(8)
    lum = rng.uniform(1, 50, size=(24, 24)).astype(np.float32)
    alpha = 1.7
    base = extract(make_frame(lum), grid_3x3())
    scaled = extract(make_frame((lum.astype(np.float64) * alpha).astype(np.float32)), grid_3x3())
    for a, b in zip(base.values, scaled.values):
        assert b[0] == pytest.approx(alpha * a[0], rel=1e-6)  # mean_l
        assert b[3] == pytest.approx(alpha * a[3], rel=1e-5, abs=1e-9)  # std_l


def test_chroma_means_from_planes():
    lum = np.ones((24, 24), dtype=np.float32)
    cx = np.full((24, 24), 0.25, dtype=np.float32)
    cy = np.full((24, 24), 0.75, dtype=np.float32)
    frame = features.MeasurementFrame(24, 24, lum, cx, cy)
    f = cell(extract(frame, grid_3x3()))
    assert f["mean_cx"] == pytest.approx(0.25)
    assert f["mean_cy"] == pytest.approx(0.75)


def test_zero_samples_after_margin_names_cell():
    edges = np.arange(4) * 2.0  # 2px cells leave nothing after the 1px margin
    g = grid.build_grid(edges, edges)
    frame = make_frame(np.ones((6, 6)))
    with pytest.raises(FeatureExtractionError, match=r"\(1,1\)"):
        extract(frame, g)


def test_grid_outside_frame_rejected():
    g = grid.build_grid(np.arange(4) * 8.0, np.arange(4) * 8.0)
    frame = make_frame(np.ones((10, 10)))
    with pytest.raises(FeatureExtractionError, match="outside"):
        extract(frame, g)


def test_synthetic_defect_cells_scale_with_residual():
    config = synthgen.SynthConfig(
        grid_rows=10, grid_cols=10, cell_size_px=20, gap_px=3, lum_mean=100,
        lum_sigma=7, defect_cells=((3, 3), (5, 7)), defect_residual=0.02,
        noise_sigma=0.0, seed=15,
    )
    frame, defects, _ = synthgen.generate(config)
    px, py = grid.project(frame)
    g = grid.build_grid(
        grid.detect_edges(px, grid.estimate_period(px)),
        grid.detect_edges(py, grid.estimate_period(py)),
    )
    table = extract(frame, g)
    brightness = synthgen.drawn_brightness(config)[table.rows, table.cols]
    defective = defects.defective[table.rows, table.cols]
    # mean_l / drawn brightness is one geometry factor g for every cell;
    # defect cells sit at residual * g * brightness
    ratios = table.column("mean_l")[~defective] / brightness[~defective]
    factor = np.mean(ratios)
    assert np.ptp(ratios) < 1e-3
    expected = config.defect_residual * factor * brightness[defective]
    assert defective.sum() == 2
    assert table.column("mean_l")[defective] == pytest.approx(expected, rel=1e-3)


def table_of(*cells):
    """A CellTable of (row, col, mean_l, max_l, min_l, std_l, mean_cx, mean_cy) tuples."""
    arr = np.array(cells, dtype=np.float64).reshape(len(cells), 8)
    return CellTable(rows=arr[:, 0].astype(np.int64), cols=arr[:, 1].astype(np.int64), values=arr[:, 2:])


def test_cell_features_invariants_enforced():
    with pytest.raises(ValidationError, match="outside"):
        table_of((0, 0, 5.0, 4.0, 1.0, 1.0, 0.5, 0.5))
    with pytest.raises(ValidationError, match="std"):
        table_of((0, 0, 2.0, 3.0, 1.0, 1.5, 0.5, 0.5))
    with pytest.raises(ValidationError, match="mean_cx"):
        table_of((0, 0, 2.0, 3.0, 1.0, 0.5, 1.5, 0.5))


def test_cell_table_names_first_offending_cell():
    good = (1, 1, 2.0, 3.0, 1.0, 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError, match=r"^cell \(2,4\): negative std -1\.0$"):
        table_of(good, (2, 4, 2.0, 3.0, 1.0, -1.0, 0.5, 0.5), (3, 1, 5.0, 4.0, 1.0, 1.0, 0.5, 0.5))
    with pytest.raises(ValidationError, match="shape"):
        CellTable(rows=np.array([1]), cols=np.array([1]), values=np.zeros((1, 5)))
    assert len(table_of(good, good)) == 2


def test_feature_matrix_shape_and_order():
    table = table_of((1, 1, 10.0, 12.0, 8.0, 1.0, 0.3, 0.4), (1, 2, 20.0, 22.0, 18.0, 1.0, 0.3, 0.4))
    assert table.values.shape == (2, 6)
    assert table.values[0].tolist() == [10.0, 12.0, 8.0, 1.0, 0.3, 0.4]
    assert table.column("max_l").tolist() == [12.0, 22.0]


def several_block_shapes():
    """Colour planes (lum, cx, cy) and a non-uniform pitch grid whose cells
    come in several block shapes."""
    rng = np.random.default_rng(11)
    xs = np.cumsum(np.concatenate([[0.3], rng.uniform(7.6, 9.4, size=9)]))
    ys = np.cumsum(np.concatenate([[0.7], rng.uniform(6.6, 8.0, size=8)]))
    height, width = int(ys[-1]) + 2, int(xs[-1]) + 3
    planes = [rng.uniform(0, high, size=(height, width)).astype(np.float32) for high in (300, 1, 1)]
    return planes, grid.build_grid(xs, ys)


def test_extract_matches_per_cell_loop_with_several_block_shapes():
    planes, g = several_block_shapes()
    assert_matches_reference(make_frame(*planes), g, min_shapes=3)


@pytest.mark.parametrize("mirror", [np.s_[:, ::-1], np.s_[::-1]], ids=["left-right", "up-down"])
def test_extract_matches_per_cell_loop_on_negative_stride_planes(mirror):
    # MeasurementFrame keeps a mirrored view as it is (the mirror probes of
    # the pipeline tests feed such views in), so the windows are gathered
    # from planes with a negative stride.
    planes, g = several_block_shapes()
    frame = make_frame(*(plane[mirror] for plane in planes))
    assert all(min(plane.strides) < 0 for plane in frame.planes)
    assert_matches_reference(frame, g, min_shapes=3)


def test_extract_matches_per_cell_loop_on_luminance_only_frame():
    config = synthgen.SynthConfig(
        grid_rows=12, grid_cols=12, cell_size_px=7.0, gap_px=2.5, lum_mean=100,
        lum_sigma=6, defect_fraction=0.05, rotation_deg=1.0, noise_sigma=0.5, seed=3,
    )
    generated, _, _ = synthgen.generate(config)
    frame = features.MeasurementFrame(generated.width, generated.height, generated.luminance)
    px, py = grid.project(frame)
    g = grid.build_grid(
        grid.detect_edges(px, grid.estimate_period(px)),
        grid.detect_edges(py, grid.estimate_period(py)),
    )
    assert_matches_reference(frame, g, min_shapes=2)


def test_extract_matches_per_cell_loop_on_cells_at_the_frame_border():
    # Every cell is interior and the outer cells reach past the frame's first
    # sample and up to its last edge, so their sample ranges are clamped.
    rng = np.random.default_rng(12)
    lum = rng.uniform(0, 50, size=(30, 41)).astype(np.float32)
    xs = np.linspace(-2.6, 41.5, 7)
    ys = np.linspace(-1.2, 30.5, 5)
    g = grid.PixelGrid(xs, ys, np.ones((4, 6), dtype=bool))
    assert_matches_reference(make_frame(lum), g, min_shapes=2)


@pytest.mark.parametrize(
    "cell",
    [
        (0, 0, 2.0, 3.0, 1.0, math.nan, 0.5, 0.5),
        (0, 0, math.inf, math.inf, 1.0, 0.5, 0.5, 0.5),
        (0, 0, 2.0, 3.0, 1.0, 0.5, 0.5, math.nan),
    ],
)
def test_cell_table_rejects_non_finite_descriptors(cell):
    with pytest.raises(ValidationError, match=r"^cell \(0,0\): non-finite descriptor$"):
        table_of((1, 1, 2.0, 3.0, 1.0, 0.5, 0.5, 0.5), cell)
