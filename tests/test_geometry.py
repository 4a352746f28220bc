import math
import sys
import threading

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

from conftest import make_frame, warp_on_threads

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


def band_taps(inv, band, out_width, src_shape):
    """The clamped bilinear taps of the output rows in band, the reference
    for the taps of geometry._warp_bands: each sample center pulled back
    through inv into a plane of shape src_shape (height, width).

    Returns the column `iu` and row `iv` of every sample's (0, 0) tap, whole
    numbers in float64, and the float64 fractional offsets `du` and `dv`.
    The (0, 0) tap is clamped into [-2, w_src] x [-2, h_src], the zero pad of
    `np.pad(plane, 2)` around the source, and a horizon sample's column is
    w_src."""
    h_src, w_src = src_shape
    gx = (np.arange(out_width) + 0.5)[None, :]
    gy = (np.arange(band.start, band.stop) + 0.5)[:, None]
    w = inv[2, 0] * gx + inv[2, 1] * gy + inv[2, 2]
    horizon = np.abs(w) < 1e-12
    w[horizon] = 1.0
    u = (inv[0, 0] * gx + inv[0, 1] * gy + inv[0, 2]) / w - 0.5
    v = (inv[1, 0] * gx + inv[1, 1] * gy + inv[1, 2]) / w - 0.5
    iu = np.floor(u)
    iv = np.floor(v)
    du, dv = u - iu, v - iv
    np.clip(iu, -2, w_src, out=iu)
    iu[horizon] = w_src
    np.clip(iv, -2, h_src, out=iv)
    return iu, iv, du, dv


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
    buffer ("misaligned", "inside_misaligned"), a mirrored view
    ("non_contiguous", "inside_non_contiguous"), or values."""
    if case.endswith("misaligned"):
        buffer = bytearray(values.nbytes + 1)
        plane = np.frombuffer(buffer, dtype=values.dtype, offset=1).reshape(values.shape)
        plane[...] = values
        assert not plane.flags.aligned
        return plane
    if case.endswith("non_contiguous"):
        plane = values[:, ::-1].copy()[:, ::-1]
        assert not plane.flags.c_contiguous and np.array_equal(plane, values)
        return plane
    return values


# The cases whose every band warp_plane proves inside the source: ALL_INSIDE
# on 4 whole bands, on a ragged last band, on one row, and from a misaligned
# or a non-contiguous plane.
PROVEN_INSIDE = {
    "all_inside": 64, "inside_ragged": RAGGED_HEIGHTS["ragged"], "inside_one_row": 1,
    "inside_misaligned": 64, "inside_non_contiguous": 64,
}


@pytest.mark.parametrize(
    "case",
    [
        "identity", "rotation_perspective", "ones", "horizon", "past_the_pad", *RAGGED_HEIGHTS, "horizon_ragged",
        *PROVEN_INSIDE, "inside_then_pad", "misaligned", "non_contiguous",
    ],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_warp_plan_matches_masked_oracle_bit_for_bit(case, dtype, monkeypatch):
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
    elif case in PROVEN_INSIDE:
        inv, out_height = ALL_INSIDE, PROVEN_INSIDE[case]
    else:
        # A misaligned or a non-contiguous plane is read both straight and
        # through its padded copy.
        inv, out_width = INSIDE_THEN_PAD, 40
    expected = masked_warp_oracle(plane, inv, out_width, out_height)
    plane = source_plane(case, plane)
    # Per band, the samples with a tap outside the source: they read the
    # 2-sample zero pad of np.pad(plane, 2), from which every band of a plane
    # not proven inside its source is gathered.
    h_src, w_src = shape
    taps = [band_taps(inv, band, out_width, shape)[:2] for band in geometry._bands(out_height)]
    reads_pad = [(iu < 0) | (iu > w_src - 2) | (iv < 0) | (iv > h_src - 2) for iu, iv in taps]
    if case in PROVEN_INSIDE:
        assert not any(band.any() for band in reads_pad)
    elif case in ("inside_then_pad", "misaligned", "non_contiguous"):
        # The first band's taps lie inside the plane, a later band's do not.
        assert not reads_pad[0].any() and reads_pad[-1].any()
    elif case != "identity":
        # Some samples read border taps of the pad and some do not.
        assert np.concatenate(reads_pad).any() and not np.concatenate(reads_pad).all()
        if case == "past_the_pad":
            iu, iv = (np.concatenate(axis) for axis in zip(*taps))
            assert np.mean((iv == -2) | (iu == -2)) > 0.5
    # The float64 warp of the plane's float64 copy is the oracle, bit for
    # bit; a float32 plane warps to that warp rounded to float32.  So it is
    # on one thread and on two, where every plane is split: bands 0, 2, ... on
    # the calling thread and 1, 3, ... on a helper.  Only a plane whose bands
    # are all proven inside its source is warped without the clamp.
    caller = threading.get_ident()
    bands = list(range(0, out_height, geometry._BAND_ROWS))
    warps = 2 if dtype == np.float32 else 1
    clamped = case not in PROVEN_INSIDE
    for threads in (1, 2):
        with monkeypatch.context() as patch:
            calls = warp_on_threads(patch, threads)
            out = geometry.warp_plane(plane.astype(np.float64, copy=False), inv, out_width, out_height)
            assert out.dtype == np.float64 and out.shape == (out_height, out_width)
            assert out.tobytes() == expected.tobytes()
            assert not np.signbit(out).any()
            if dtype == np.float32:
                out32 = geometry.warp_plane(plane, inv, out_width, out_height)
                assert out32.dtype == np.float32 and out32.shape == (out_height, out_width)
                assert out32.tobytes() == expected.astype(np.float32).tobytes()
        if threads == 1 or len(bands) == 1:
            assert calls == [(caller, bands, clamped)] * warps
        else:
            assert sorted(starts for _, starts, _ in calls) == sorted([bands[::2], bands[1::2]] * warps)
            assert all((thread == caller) == (starts == bands[::2]) for thread, starts, _ in calls)
            assert all(clamp == clamped for *_, clamp in calls)


def test_warp_plane_runs_no_more_threads_than_cpus(monkeypatch):
    # A plane proven inside its source is split across two threads, or
    # warped on the calling thread alone where the process may run on one
    # CPU (as under `taskset -c 0`), with the same bits.
    calls = warp_on_threads(monkeypatch)
    plane = np.random.default_rng(24).uniform(0, 80, size=(40, 50))
    out = geometry.warp_plane(plane, ALL_INSIDE, 72, 64)
    assert out.tobytes() == masked_warp_oracle(plane, ALL_INSIDE, 72, 64).tobytes()
    assert len(calls) == len({thread for thread, _, _ in calls}) == min(2, geometry._cpus())


@pytest.mark.parametrize("clamped", [False, True], ids=["inside", "clamped"])
def test_warp_plane_on_more_threads_than_cpus_switching_often(clamped, monkeypatch):
    # Three threads on at most two CPUs, the interpreter switching between
    # them every microsecond: each still writes only its own bands' rows.
    calls = warp_on_threads(monkeypatch, 3)
    plane = np.random.default_rng(25).uniform(0, 80, size=(40, 50))
    inv = _rotation_perspective_inverse() if clamped else ALL_INSIDE
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = geometry.warp_plane(plane, inv, 72, 64)
    finally:
        sys.setswitchinterval(interval)
    assert out.tobytes() == masked_warp_oracle(plane, inv, 72, 64).tobytes()
    assert sorted(starts for _, starts, _ in calls) == [[0, 48], [16], [32]]
    assert all(clamp == clamped for *_, clamp in calls)


# The source (height, width) and the output width and height of the corner
# proof's tests: 5 bands of 64 samples.
PROOF_SHAPE, PROOF_OUT = (90, 100), (64, 80)


def exact_inside_band(inv, band):
    """The exact test of a band: every sample's (0, 0) tap (band_taps) lies
    in [0, w_src - 2] x [0, h_src - 2], and no sample maps to the horizon."""
    (h_src, w_src), out_width = PROOF_SHAPE, PROOF_OUT[0]
    iu, iv, _, _ = band_taps(inv, band, out_width, PROOF_SHAPE)
    gx = np.arange(out_width) + 0.5
    gy = (np.arange(band.start, band.stop) + 0.5)[:, None]
    w = inv[2, 0] * gx + inv[2, 1] * gy + inv[2, 2]
    return bool(
        np.abs(w).min() >= 1e-12 and iu.min() >= 0 and iu.max() <= w_src - 2 and iv.min() >= 0 and iv.max() <= h_src - 2
    )


def random_inverse(rng, max_scale, max_offset):
    """A rotation by -45 to 45 degrees, scaled by 0.3 to max_scale, with a
    perspective term, that maps the output's center to within max_offset
    pixels of the source's center on each axis."""
    theta = math.radians(rng.uniform(-45.0, 45.0))
    scale = rng.uniform(0.3, max_scale)
    c, s = scale * math.cos(theta), scale * math.sin(theta)
    inv = np.array([[c, -s, 0.0], [s, c, 0.0], [*rng.uniform(-2e-3, 2e-3, size=2), 1.0]])
    center = np.array([PROOF_OUT[0] / 2, PROOF_OUT[1] / 2, 1.0])
    target = np.array(PROOF_SHAPE[::-1]) / 2 + rng.uniform(-max_offset, max_offset, size=2)
    inv[:2, 2] = target * (inv[2] @ center) - inv[:2, :2] @ center[:2]
    return inv


def check_proven_bands(inv):
    """The proof of each band of inv; every band it proves passes the exact
    test."""
    proven = geometry._inside_bands(inv, *PROOF_OUT, PROOF_SHAPE)
    bands = list(geometry._bands(PROOF_OUT[1]))
    assert proven.shape == (len(bands),)
    for band, inside in zip(bands, proven):
        assert not inside or exact_inside_band(inv, band), (inv, band)
    return proven, bands


def test_bands_proven_inside_pass_the_exact_test():
    rng = np.random.default_rng(31)
    proven, exact = 0, 0
    for _ in range(300):
        inv = random_inverse(rng, 1.2, 30.0)
        inside, bands = check_proven_bands(inv)
        proven += int(inside.sum())
        exact += sum(exact_inside_band(inv, band) for band in bands)
    # Some bands leave the source and most stay inside; the proof misses
    # only bands whose corners lie within 1e-6 px of a limit.
    assert 0.3 * 1500 < proven == exact < 1500


@pytest.mark.parametrize("axis", [0, 1], ids=["u", "v"])
def test_band_corner_within_eps_of_a_limit_is_not_proven(axis):
    # The corner of one band that lies nearest a limit of the source, moved
    # 1e-7 to 1e-3 px inside or outside it by a translation of the source,
    # which moves every sample by the same amount; every other corner of
    # that band lies further inside.
    rng = np.random.default_rng(32 + axis)
    limit = PROOF_SHAPE[1 - axis] - 1.0
    outcomes = set()
    for _ in range(200):
        inv = random_inverse(rng, 0.6, 5.0)
        band = rng.integers(5)
        rows = band * geometry._BAND_ROWS + np.array([0.5, 0.5, 15.5, 15.5])
        corners = np.stack([[0.5, PROOF_OUT[0] - 0.5] * 2, rows, np.ones(4)])
        w = inv[2] @ corners
        coord = (inv[axis] @ corners) / w - 0.5
        high = rng.integers(2) == 1
        k = np.argmax(coord) if high else np.argmin(coord)
        gap = 10 ** rng.uniform(-7.0, -3.0)
        inside = rng.integers(2) == 1
        target = (limit - gap if inside else limit + gap) if high else (gap if inside else -gap)
        inv[axis] += (target - coord[k]) * inv[2]
        moved = (inv[axis] @ corners[:, k]) / (inv[2] @ corners[:, k]) - 0.5
        assert abs(moved - target) < 1e-9
        proven, _ = check_proven_bands(inv)
        if not inside or gap < geometry._INSIDE_EPS:
            assert not proven[band]
        elif gap > 1.01 * geometry._INSIDE_EPS:
            assert proven[band]
        outcomes.add((bool(proven[band]), bool(inside), bool(high)))
    assert len(outcomes) == 6


@pytest.mark.parametrize("horizon", ["column", "row", "corners_inside"])
def test_band_with_a_horizon_sample_is_not_proven(horizon):
    # Output column 32 or row 40 (center 32.5 or 40.5) maps to the horizon;
    # the bands it crosses are not proven, whatever their corners give.  In
    # "corners_inside", u and v are nearly constant away from column 32, so
    # every corner's taps lie inside the source and only the sign of w tells.
    rng = np.random.default_rng(34)
    for _ in range(20):
        inv = random_inverse(rng, 0.6, 5.0)
        inv[2] = [-1 / 32.5, 0.0, 1.0] if horizon != "row" else [0.0, -1 / 40.5, 1.0]
        if horizon == "corners_inside":
            inv[:2] = 50 * inv[2] + [0.0, 0.01, 0.0], 45 * inv[2] + [0.0, 0.0, 0.3]
            # The samples of the first and last columns, each band's corners
            # among them: inside the source, with w > 0 on the first and < 0
            # on the last.
            width, height = PROOF_OUT
            centers = np.array([[x, y + 0.5, 1.0] for x in (0.5, width - 0.5) for y in range(height)]).T
            u, v, w = inv @ centers
            assert (w[:height] > 0).all() and (w[height:] < 0).all()
            assert (np.abs(u / w - 50) < 1).all() and (np.abs(v / w - 45) < 1).all()
        proven, bands = check_proven_bands(inv)
        crossed = [band.start <= 40 < band.stop for band in bands] if horizon == "row" else [True] * len(bands)
        assert not proven[crossed].any()
        assert not any(exact_inside_band(inv, band) for band, hit in zip(bands, crossed) if hit)


def check_helper_failure_propagates(monkeypatch, inv, clamped):
    """A helper thread's exception in a warp_plane call through inv is
    raised on the calling thread after its own share, and no thread is
    left running."""
    calls = warp_on_threads(monkeypatch, 2)
    caller = threading.get_ident()
    spied = geometry._warp_bands
    finished = []

    def fail_on_helper(src, inv, row, bands, result, scratch, clamp):
        if threading.get_ident() != caller:
            raise RuntimeError("helper failed")
        spied(src, inv, row, bands, result, scratch, clamp)
        finished.append(bands[0].start)

    monkeypatch.setattr(geometry, "_warp_bands", fail_on_helper)
    plane = np.random.default_rng(35).uniform(0, 80, size=(40, 50))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed"):
        geometry.warp_plane(plane, inv, 72, 64)
    assert finished == [0]
    assert calls == [(caller, [0, 32], clamped)]
    assert threading.active_count() == before


def test_helper_thread_failure_propagates_after_the_callers_share(monkeypatch):
    check_helper_failure_propagates(monkeypatch, ALL_INSIDE, clamped=False)


def test_helper_thread_failure_propagates_on_the_clamped_path(monkeypatch):
    check_helper_failure_propagates(monkeypatch, _rotation_perspective_inverse(), clamped=True)


def test_generator_warps_split_on_two_threads_with_clamped_taps(monkeypatch):
    # Every band of the generator's four warps reaches the margin around the
    # LES raster, so each ideal plane is padded and its taps clamped; its
    # bands are still split between the calling thread and a helper, with
    # the bytes of one thread.
    config = synthgen.SynthConfig(grid_rows=12, grid_cols=12, cell_size_px=20, gap_px=3, lum_sigma=5, seed=5)
    caller = threading.get_ident()
    frames = {}
    for threads in (2, 1):
        with monkeypatch.context() as patch:
            calls = warp_on_threads(patch, threads)
            frames[threads], _, _ = synthgen.generate(config)
        assert len(calls) == 4 * threads and all(clamp for *_, clamp in calls)
        assert sum(thread == caller for thread, _, _ in calls) == 4
    assert [plane.tobytes() for plane in frames[2].planes] == [plane.tobytes() for plane in frames[1].planes]


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
