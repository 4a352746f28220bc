import math

import numpy as np
import pytest

from uled_inspect import geometry, synthgen
from uled_inspect.errors import GeometryError
from uled_inspect.geometry import (
    Homography,
    apply_homography,
    apply_homography_array,
    detect_corners,
    estimate_homography,
    warp_frame,
)

from conftest import make_frame

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def oracle_homography(src, dst):
    """Independent 4-point solution: build the 8x8 system and run Gaussian
    elimination with partial pivoting by hand."""
    rows = []
    rhs = []
    for (x, y), (u, v) in zip(src, dst):
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y])
        rhs.append(u)
        rows.append([0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y])
        rhs.append(v)
    a = [row[:] + [b] for row, b in zip(rows, rhs)]
    n = 8
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-12:
            raise ZeroDivisionError("singular oracle system")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))) / a[r][r]
    return np.array(x + [1.0]).reshape(3, 3)


def random_quad(rng):
    while True:
        pts = rng.uniform(-10, 10, size=(4, 2))
        ok = True
        for i in range(4):
            a, b, c = pts[(i + 1) % 4] - pts[i], pts[(i + 2) % 4] - pts[i], None
            area = abs(a[0] * b[1] - a[1] * b[0])
            if area < 1.0:
                ok = False
                break
        if ok:
            return [tuple(p) for p in pts]


def test_estimate_identity():
    h = estimate_homography(UNIT_SQUARE, UNIT_SQUARE)
    assert np.allclose(h.matrix, np.eye(3), atol=1e-12)


def test_estimate_identity_random_quads():
    rng = np.random.default_rng(11)
    for _ in range(20):
        quad = random_quad(rng)
        h = estimate_homography(quad, quad)
        assert np.allclose(h.matrix, np.eye(3), atol=1e-9)


def test_estimate_pure_translation():
    dst = [(x + 5.0, y) for x, y in UNIT_SQUARE]
    h = estimate_homography(UNIT_SQUARE, dst)
    expected = np.array([[1, 0, 5], [0, 1, 0], [0, 0, 1]], dtype=float)
    assert np.allclose(h.matrix, expected, atol=1e-12)


def test_estimate_matches_oracle_on_spec_quad():
    dst = [(0.0, 0.0), (1.0, 0.0), (1.2, 1.0), (-0.2, 1.0)]
    h = estimate_homography(UNIT_SQUARE, dst)
    ref = oracle_homography(UNIT_SQUARE, dst)
    assert np.abs(h.matrix - ref).max() < 1e-9
    # closed form of this keystone: h12=-1/7, h22=5/7, h32=-2/7
    assert np.allclose(h.matrix[0], [1.0, -1.0 / 7.0, 0.0], atol=1e-12)
    assert np.allclose(h.matrix[2], [0.0, -2.0 / 7.0, 1.0], atol=1e-12)


def test_estimate_matches_oracle_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        src, dst = random_quad(rng), random_quad(rng)
        h = estimate_homography(src, dst)
        ref = oracle_homography(src, dst)
        assert np.abs(h.matrix - ref).max() < 1e-9


def test_estimate_maps_all_four_points():
    rng = np.random.default_rng(8)
    for _ in range(10):
        src, dst = random_quad(rng), random_quad(rng)
        h = estimate_homography(src, dst)
        for s, d in zip(src, dst):
            mapped = apply_homography(h, s)
            assert abs(mapped[0] - d[0]) < 1e-9
            assert abs(mapped[1] - d[1]) < 1e-9


def test_collinear_points_rejected():
    bad = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 1.0)]
    with pytest.raises(GeometryError, match="collinear"):
        estimate_homography(bad, UNIT_SQUARE)
    with pytest.raises(GeometryError, match="collinear"):
        estimate_homography(UNIT_SQUARE, bad)


def test_forward_then_inverse_estimation_is_identity():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p, q = random_quad(rng), random_quad(rng)
        forward = estimate_homography(p, q)
        backward = estimate_homography(q, p)
        composed = forward.matrix @ backward.matrix
        composed /= composed[2, 2]
        assert np.abs(composed - np.eye(3)).max() < 1e-9


def test_apply_identity():
    assert apply_homography(Homography.identity(), (3.5, 7.25)) == (3.5, 7.25)


def test_apply_rotation_90():
    h = Homography(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    mapped = apply_homography(h, (1.0, 0.0))
    assert abs(mapped[0]) < 1e-15 and abs(mapped[1] - 1.0) < 1e-15


def test_apply_horizon_error():
    h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]))
    with pytest.raises(GeometryError, match=r"point \(1\.0, 0\.0\) maps to the horizon"):
        apply_homography(h, (1.0, 0.0))
    with pytest.raises(GeometryError, match=r"point \(1\.0, 2\.0\) maps to the horizon"):
        apply_homography_array(h, np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 3.0]]))


def test_round_trip_1000_points():
    h = estimate_homography(UNIT_SQUARE, [(0.0, 0.0), (1.0, 0.1), (1.2, 1.0), (-0.2, 1.0)])
    inv = h.inverse()
    rng = np.random.default_rng(9)
    pts = rng.uniform(-3, 3, size=(1000, 2))
    for p in pts:
        q = apply_homography(h, tuple(p))
        r = apply_homography(inv, q)
        assert abs(r[0] - p[0]) < 1e-9 and abs(r[1] - p[1]) < 1e-9


def test_singular_matrix_rejected():
    with pytest.raises(GeometryError, match="singular"):
        Homography(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def adjugate_by_minors(m):
    """The adjugate from its nine signed 2x2 minors, each cut out with np.delete."""
    out = np.empty((3, 3))
    for r in range(3):
        for c in range(3):
            minor = np.delete(np.delete(m, r, axis=0), c, axis=1)
            out[c, r] = (-1) ** (r + c) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return out


def test_adjugate_matches_the_minors():
    # Random matrices, and small-integer ones full of zeros, where the cross
    # products may differ from the minors in the sign of a zero, which
    # np.array_equal counts as equal.
    rng = np.random.default_rng(23)
    small = rng.integers(-2, 3, size=(2000, 3, 3)).astype(np.float64)
    cases = [np.eye(3), *rng.normal(size=(2000, 3, 3)), *small]
    for m in cases:
        assert np.array_equal(geometry._adjugate(m), adjugate_by_minors(m))
    assert np.array_equal(Homography.identity().inverse().matrix, np.eye(3))


def test_warp_identity_is_exact():
    rng = np.random.default_rng(2)
    frame = make_frame(rng.uniform(0, 80, size=(15, 20)))
    out = warp_frame(frame, Homography.identity(), 20, 15)
    assert np.array_equal(out.luminance, frame.luminance)


def test_warp_integer_translation():
    rng = np.random.default_rng(3)
    frame = make_frame(rng.uniform(0, 80, size=(12, 16)))
    h = Homography(np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    out = warp_frame(frame, h, 26, 12)
    assert np.array_equal(out.luminance[:, 10:26], frame.luminance)
    assert np.all(out.luminance[:, :10] == 0.0)


def _smooth_fixture():
    ys, xs = np.mgrid[0:160, 0:200].astype(float)
    lum = np.zeros((160, 200))
    rng = np.random.default_rng(12)
    for _ in range(5):
        cx, cy = rng.uniform(50, 150), rng.uniform(40, 120)
        s = rng.uniform(15, 35)
        lum += rng.uniform(20, 60) * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * s * s))
    return make_frame(lum)


def test_warp_round_trip_error_budget():
    frame = _smooth_fixture()
    theta = math.radians(3.0)
    c, s = math.cos(theta), math.sin(theta)
    h = Homography(np.array([[c, -s, 18.0], [s, c, 6.0], [0.0, 0.0, 1.0]]))
    fwd = warp_frame(frame, h, 240, 200)
    back = warp_frame(fwd, h.inverse(), 200, 160)
    inner = (slice(20, 140), slice(20, 180))
    mae = np.abs(back.luminance[inner].astype(float) - frame.luminance[inner].astype(float)).mean()
    # criterion budget is 1% of the frame mean; observed ~0.02%
    assert mae < 0.01 * frame.luminance.mean()


def test_warp_conserves_total_luminance():
    frame = _smooth_fixture()
    theta = math.radians(2.0)
    c, s = math.cos(theta), math.sin(theta)
    h = Homography(np.array([[c, -s, 15.0], [s, c, 10.0], [0.0, 0.0, 1.0]]))
    out = warp_frame(frame, h, 260, 210)
    total_in = float(frame.luminance.astype(float).sum())
    total_out = float(out.luminance.astype(float).sum())
    # measured slack is ~1e-7, so the regression bound can sit well under the
    # 2% budget bilinear resampling is allowed
    assert abs(total_out - total_in) <= 0.005 * total_in


def test_warp_chroma_planes_follow_luminance():
    lum = np.ones((8, 8), dtype=np.float32)
    chroma = np.linspace(0.1, 0.9, 64, dtype=np.float32).reshape(8, 8)
    frame = geometry.MeasurementFrame(8, 8, lum, chroma, chroma)
    h = Homography(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    out = warp_frame(frame, h, 10, 8)
    assert np.array_equal(out.chroma_x[:, 2:10], chroma)
    assert np.array_equal(out.chroma_x, out.chroma_y)


def masked_warp_oracle(plane, inv, out_width, out_height):
    """The per-tap masked bilinear warp, the reference warp_plane is checked
    against: the coordinates of the whole output are built at once, with no
    pad and no bands, and each tap is gathered only where it falls inside the
    source."""
    src = plane.astype(np.float64)
    xs = np.arange(out_width) + 0.5
    ys = np.arange(out_height) + 0.5
    gx, gy = np.meshgrid(xs, ys)
    w = inv[2, 0] * gx + inv[2, 1] * gy + inv[2, 2]
    valid = np.abs(w) >= 1e-12
    w_safe = np.where(valid, w, 1.0)
    u = (inv[0, 0] * gx + inv[0, 1] * gy + inv[0, 2]) / w_safe
    v = (inv[1, 0] * gx + inv[1, 1] * gy + inv[1, 2]) / w_safe

    fu = u - 0.5
    fv = v - 0.5
    iu = np.floor(fu).astype(np.int64)
    iv = np.floor(fv).astype(np.int64)
    du = fu - iu
    dv = fv - iv

    h_src, w_src = src.shape
    out = np.zeros((out_height, out_width))
    for oy, ox, weight in (
        (0, 0, (1 - du) * (1 - dv)),
        (0, 1, du * (1 - dv)),
        (1, 0, (1 - du) * dv),
        (1, 1, du * dv),
    ):
        sx = iu + ox
        sy = iv + oy
        inside = valid & (sx >= 0) & (sx < w_src) & (sy >= 0) & (sy < h_src)
        out[inside] += weight[inside] * src[sy[inside], sx[inside]]
    return out


def _rotation_perspective():
    # Rotates by 20 degrees about (25, 20) with a perspective term, into an
    # output larger than the source, so many taps land outside it.
    theta = math.radians(20.0)
    c, s = math.cos(theta), math.sin(theta)
    m = np.array([[c, -s, 25.0 - 25.0 * c + 20.0 * s], [s, c, 20.0 - 25.0 * s - 20.0 * c], [0.002, -0.003, 1.0]])
    return Homography(m)


def _rotation_perspective_inverse():
    return _rotation_perspective().inverse().matrix


# Output heights that end in a short band of warp_plane: one row, one row
# past the first band, and a height that is no multiple of the band height.
RAGGED_HEIGHTS = {
    "one_row": 1,
    "band_plus_one": geometry._BAND_ROWS + 1,
    "ragged": 3 * geometry._BAND_ROWS - 5,
}


# An affine map of the 72x64 output into the 50x40 source whose taps all lie
# inside it, and a shift by 2 px whose first bands stay inside and whose
# later bands run past the source's last row.
ALL_INSIDE = np.array([[0.6, 0.05, 2.5], [-0.04, 0.5, 4.0], [0.0, 0.0, 1.0]])
INSIDE_THEN_PAD = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])


def source_plane(case, values):
    """values as the plane of a case: a copy that starts 1 byte into its
    buffer ("misaligned"), a mirrored view ("non_contiguous"), or values."""
    if case == "misaligned":
        buffer = bytearray(values.nbytes + 1)
        plane = np.frombuffer(buffer, dtype=values.dtype, offset=1).reshape(values.shape)
        plane[...] = values
        assert not plane.flags.aligned
        return plane
    if case == "non_contiguous":
        plane = values[:, ::-1].copy()[:, ::-1]
        assert not plane.flags.c_contiguous and np.array_equal(plane, values)
        return plane
    return values


@pytest.mark.parametrize(
    "case",
    [
        "identity", "rotation_perspective", "ones", "horizon", "past_the_pad", *RAGGED_HEIGHTS, "horizon_ragged",
        "all_inside", "inside_then_pad", "misaligned", "non_contiguous",
    ],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_warp_plan_matches_masked_oracle_bit_for_bit(case, dtype):
    rng = np.random.default_rng(21)
    shape = (40, 50)
    plane = rng.uniform(0, 80, size=shape).astype(dtype)
    inv, out_width, out_height = _rotation_perspective_inverse(), 72, 64
    if case == "identity":
        inv, out_width, out_height = np.eye(3), 50, 40
    elif case == "horizon":
        # Output column 32 (center x = 32.5) maps to the horizon, w = 0.
        inv = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1 / 32.5, 0.0, 1.0]])
        gx = np.arange(out_width) + 0.5
        assert np.count_nonzero(np.abs(inv[2, 0] * gx + inv[2, 2]) < 1e-12) == 1
    elif case == "past_the_pad":
        # A 25 px translation: most samples lie more than 2 px beyond the
        # source, so the clamp of the top-left tap decides what they read.
        inv = np.array([[1.0, 0.0, -25.0], [0.0, 1.0, -25.0], [0.0, 0.0, 1.0]])
    elif case == "ones":
        plane = np.ones(shape, dtype=dtype)
    elif case in RAGGED_HEIGHTS:
        out_height = RAGGED_HEIGHTS[case]
    elif case == "horizon_ragged":
        # The horizon column of "horizon" runs through every row of a band
        # and on into a one-row last band.
        inv = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1 / 32.5, 0.0, 1.0]])
        out_height = geometry._BAND_ROWS + 1
    elif case == "all_inside":
        inv = ALL_INSIDE
    else:
        # A misaligned or a non-contiguous plane is read both straight and
        # through its padded copy.
        inv, out_width = INSIDE_THEN_PAD, 40
    expected = masked_warp_oracle(plane, inv, out_width, out_height)
    plane = source_plane(case, plane)
    # Per band, the samples with a tap outside the source: a band with one is
    # gathered from np.pad(plane, 2), and they read its 2-sample zero pad.
    h_src, w_src = shape
    taps = [geometry._band_taps(inv, band, out_width, shape)[:2] for band in geometry._bands(out_height)]
    reads_pad = [(iu < 0) | (iu > w_src - 2) | (iv < 0) | (iv > h_src - 2) for iu, iv in taps]
    if case == "all_inside":
        assert not any(band.any() for band in reads_pad)
    elif case in ("inside_then_pad", "misaligned", "non_contiguous"):
        # The first band reads the plane itself, a later one its padded copy.
        assert not reads_pad[0].any() and reads_pad[-1].any()
    elif case != "identity":
        # Some samples read border taps of the pad and some do not.
        assert np.concatenate(reads_pad).any() and not np.concatenate(reads_pad).all()
        if case == "past_the_pad":
            iu, iv = (np.concatenate(axis) for axis in zip(*taps))
            assert np.mean((iv == -2) | (iu == -2)) > 0.5
    # The float64 warp of the plane's float64 copy is the oracle, bit for
    # bit; a float32 plane warps to that warp rounded to float32.
    out = geometry.warp_plane(plane.astype(np.float64, copy=False), inv, out_width, out_height)
    assert out.dtype == np.float64 and out.shape == (out_height, out_width)
    assert out.tobytes() == expected.tobytes()
    assert not np.signbit(out).any()
    if dtype == np.float32:
        out32 = geometry.warp_plane(plane, inv, out_width, out_height)
        assert out32.dtype == np.float32 and out32.shape == (out_height, out_width)
        assert out32.tobytes() == expected.astype(np.float32).tobytes()


def warp_frame_case(case="horizon"):
    """(homography, inverse matrix, out_width, out_height) of a warp_frame
    call whose last band is ragged.  In "horizon", output column 32 maps to
    the horizon; "rotation_perspective" is _rotation_perspective."""
    if case == "horizon":
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1 / 32.5, 0.0, 1.0]])).inverse()
    else:
        h = _rotation_perspective()
    out_width, out_height = 72, RAGGED_HEIGHTS["ragged"]
    inv = h.inverse().matrix
    gx = np.arange(out_width) + 0.5
    assert np.count_nonzero(np.abs(inv[2, 0] * gx + inv[2, 2]) < 1e-12) == (case == "horizon")
    return h, inv, out_width, out_height


def test_luminance_only_warp_frame_equals_the_planned_warp():
    # warp_frame makes a one-plane frame's taps band by band; a ragged last
    # band and a horizon column must still give the bits of the masked warp,
    # cast to float32.
    rng = np.random.default_rng(22)
    frame = make_frame(rng.uniform(0, 80, size=(40, 50)))
    h, inv, out_width, out_height = warp_frame_case()
    expected = masked_warp_oracle(frame.luminance, inv, out_width, out_height).astype(np.float32)
    out = warp_frame(frame, h, out_width, out_height)
    assert not out.has_chroma
    assert out.luminance.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["horizon", "rotation_perspective"])
def test_three_plane_warp_frame_equals_the_planned_warp(case):
    # Each plane is warped band by band straight into float32 and a chroma
    # plane clipped there; that must give the bits of the masked float64
    # warp, clipped to [0, 1] and then cast.  Under the rotation, a chroma
    # plane of ones has warped samples that round above 1 in float64.
    rng = np.random.default_rng(23)
    shape = (40, 50)
    frame = make_frame(rng.uniform(0, 80, size=shape), np.ones(shape), rng.uniform(0.0, 1.0, size=shape))
    h, inv, out_width, out_height = warp_frame_case(case)
    expected = [masked_warp_oracle(plane, inv, out_width, out_height) for plane in frame.planes]
    assert (expected[1] > 1.0).any() == (case == "rotation_perspective")
    for plane in expected[1:]:
        np.clip(plane, 0.0, 1.0, out=plane)
    out = warp_frame(frame, h, out_width, out_height)
    assert out.has_chroma
    for got, want in zip(out.planes, expected):
        assert got.dtype == np.float32
        assert got.tobytes() == want.astype(np.float32).tobytes()


def test_detect_corners_undistorted_within_2px():
    config = synthgen.SynthConfig(
        grid_rows=12, grid_cols=12, cell_size_px=20, gap_px=3, lum_sigma=5, seed=5
    )
    frame, _, corners = synthgen.generate(config)
    detected = detect_corners(frame)
    for got, want in zip(detected, corners):
        assert math.hypot(got[0] - want[0], got[1] - want[1]) < 2.0


def test_detect_corners_rotated_order_preserved():
    config = synthgen.SynthConfig(
        grid_rows=12, grid_cols=12, cell_size_px=20, gap_px=3, lum_sigma=5,
        rotation_deg=2.0, seed=6,
    )
    frame, _, corners = synthgen.generate(config)
    detected = detect_corners(frame)
    for got, want in zip(detected, corners):
        assert math.hypot(got[0] - want[0], got[1] - want[1]) < 2.5


def test_detect_corners_zero_frame_errors():
    frame = make_frame(np.zeros((10, 10)))
    with pytest.raises(GeometryError):
        detect_corners(frame)


def boundary_points_by_loop(mask, rows, cols):
    """Reference for geometry._boundary_points: one np.nonzero per row and
    per column."""
    left, right, top, bottom = [], [], [], []
    for r in rows.tolist():
        line = np.nonzero(mask[r])[0]
        left.append((float(line[0]), r + 0.5))
        right.append((float(line[-1]) + 1.0, r + 0.5))
    for c in cols.tolist():
        line = np.nonzero(mask[:, c])[0]
        top.append((c + 0.5, float(line[0])))
        bottom.append((c + 0.5, float(line[-1]) + 1.0))
    return tuple(np.asarray(points) for points in (left, right, top, bottom))


def test_boundary_points_match_per_row_loop():
    rng = np.random.default_rng(11)
    config = synthgen.SynthConfig(
        grid_rows=8, grid_cols=8, cell_size_px=20, gap_px=3, rotation_deg=2.0, seed=9
    )
    lum = synthgen.generate(config)[0].luminance
    masks = [lum >= 0.1 * lum.max(), rng.uniform(size=(37, 53)) < 0.05, np.eye(5, 7, 2, dtype=bool)]
    for mask in masks:
        rows = np.nonzero(mask.any(axis=1))[0]
        cols = np.nonzero(mask.any(axis=0))[0]
        assert rows.size < mask.shape[0] or cols.size < mask.shape[1]  # some lines hold no sample
        got = geometry._boundary_points(mask, rows, cols)
        for actual, expected in zip(got, boundary_points_by_loop(mask, rows, cols)):
            assert actual.dtype == np.float64
            np.testing.assert_array_equal(actual, expected)


def test_detect_corners_dark_corner_cell_tolerated():
    # the corner uLED itself is dead; side line fits must still find the corner
    config = synthgen.SynthConfig(
        grid_rows=12, grid_cols=12, cell_size_px=20, gap_px=3, lum_sigma=5,
        defect_cells=((0, 0), (11, 11)), defect_residual=0.0, seed=7,
    )
    frame, _, corners = synthgen.generate(config)
    detected = detect_corners(frame)
    for got, want in zip(detected, corners):
        assert math.hypot(got[0] - want[0], got[1] - want[1]) < 2.5
