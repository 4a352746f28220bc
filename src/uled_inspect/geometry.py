"""Projective correction: homography estimation, point mapping, inverse warping,
and detection of the light-emitting-surface corners.

Coordinate convention used throughout the package: continuous image
coordinates with sample (i, j) covering the unit square [i, i+1) x [j, j+1),
so its center sits at (i + 0.5, j + 0.5).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeometryError
from .io import MeasurementFrame

Point = tuple[float, float]

_DET_EPS = 1e-12


@dataclass(frozen=True)
class Homography:
    """3x3 projective map, normalized so the bottom-right entry is 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise GeometryError(f"homography matrix must be 3x3, got {m.shape}")
        if abs(m[2, 2]) < _DET_EPS:
            raise GeometryError("homography bottom-right entry is ~0; cannot normalize")
        if m[2, 2] != 1.0:
            m = m / m[2, 2]
        if abs(float(np.linalg.det(m))) <= _DET_EPS:
            raise GeometryError("homography is singular (|det| <= 1e-12)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    def inverse(self) -> "Homography":
        return Homography(_adjugate(self.matrix))


def _adjugate(m: np.ndarray) -> np.ndarray:
    # Exact for the identity, unlike a generic LU-based inverse.  Cofactor row i is row i+1 x row i+2.
    return np.cross(m[[1, 2, 0]], m[[2, 0, 1]]).T


def _check_not_collinear(points: np.ndarray, label: str) -> None:
    span = float(np.ptp(points, axis=0).max())
    tol = 1e-9 * max(span * span, 1.0)
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                a, b, c = points[i], points[j], points[k]
                area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
                if area2 <= tol:
                    raise GeometryError(
                        f"{label} points {i},{j},{k} are collinear; homography is underdetermined"
                    )


def estimate_homography(src: Sequence[Point], dst: Sequence[Point]) -> Homography:
    """Exact homography from 4 point correspondences.

    Solves the 8x8 linear system for the entries h11..h32 with h33 fixed to 1.
    Raises GeometryError when any three source or destination points are
    collinear or the system is singular.
    """
    s = np.asarray(src, dtype=np.float64)
    d = np.asarray(dst, dtype=np.float64)
    if s.shape != (4, 2) or d.shape != (4, 2):
        raise GeometryError("estimate_homography needs exactly 4 source and 4 destination points")
    _check_not_collinear(s, "source")
    _check_not_collinear(d, "destination")

    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i in range(4):
        x, y = s[i]
        u, v = d[i]
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i] = u
        b[2 * i + 1] = v
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"degenerate correspondences: {exc}") from exc
    return Homography(np.append(h, 1.0).reshape(3, 3))


def apply_homography(h: Homography, point: Point) -> Point:
    """apply_homography_array for one point, as Python floats."""
    return tuple(apply_homography_array(h, np.array([point], dtype=np.float64))[0].tolist())


def apply_homography_array(h: Homography, points: np.ndarray) -> np.ndarray:
    """Map an (n, 2) array of points; raises GeometryError naming the first
    point that maps to the horizon."""
    pts = np.asarray(points, dtype=np.float64)
    m = h.matrix
    w = m[2, 0] * pts[:, 0] + m[2, 1] * pts[:, 1] + m[2, 2]
    horizon = np.abs(w) < _DET_EPS
    if horizon.any():
        point = tuple(pts[np.argmax(horizon)].tolist())
        raise GeometryError(f"point {point} maps to the horizon (w ~ 0)")
    u = (m[0, 0] * pts[:, 0] + m[0, 1] * pts[:, 1] + m[0, 2]) / w
    v = (m[1, 0] * pts[:, 0] + m[1, 1] * pts[:, 1] + m[1, 2]) / w
    return np.stack([u, v], axis=1)


# Output rows per band of warp_plane: every band temporary stays in the L2
# cache, and none is output-sized.  Timed on acceptance map 2 (a 1401x1401
# output, 3 planes; 2-vCPU VM, 4 MiB L2), warp_frame took a median 0.24 s with
# bands of 8 or 16 rows, 0.26 s with 4, 0.28 s with 32, 0.31 s with 64 and
# 0.35 s with 128.  Split across two threads, bands of 8 rows were slower
# than bands of 16; bands of 32 sped the generate benchmark up 7.5% but the
# acceptance analysis only 1.2%, within its spread, at 0.7 MiB more peak RSS.
_BAND_ROWS = 16

# Threads that share the bands of every plane (the calling thread and one
# helper), never more than the CPUs the process may run on.
_WARP_THREADS = 2

# A band is proven inside its source when its corner taps lie at least this
# many pixels inside it (_inside_bands).
_INSIDE_EPS = 1e-6

# A bound on the rounding error of each product, sum and quotient of the tap
# coordinates, relative to the size of its terms: about 9 times 2**-53.
_ROUNDING = 1e-15


def _bands(height: int):
    """Row slices of at most _BAND_ROWS rows that cover range(height)."""
    return (slice(r0, min(r0 + _BAND_ROWS, height)) for r0 in range(0, height, _BAND_ROWS))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _inside_bands(inv: np.ndarray, out_width: int, out_height: int, src_shape: tuple[int, int]) -> np.ndarray:
    """Per band of _bands(out_height), whether it is proven that every
    sample's four taps (`_warp_bands`) lie inside a source of shape
    src_shape, no sample maps to the horizon and no clamp would move a tap.

    The proof looks at the band's four corner sample centers only.  Where w
    has one sign at all four, it has that sign on the whole band (w is affine
    in the output coordinates), and the projective map sends the band's
    rectangle to the convex quad whose vertices are the mapped corners.  So
    every sample's u - 0.5 and v - 0.5 lie between their corner values, and
    with those in [eps, w_src - 1 - eps] and [eps, h_src - 1 - eps] its (0, 0)
    tap lies in [0, w_src - 2] x [0, h_src - 2].  The proof also bounds the
    rounding error of every sample's computed w, u and v: |w| stays above
    the horizon threshold and u, v move by less than eps / 2, so the computed
    taps obey the same bounds.  "Not proven" means only that the proof failed.
    """
    h_src, w_src = src_shape
    r0 = np.arange(0, out_height, _BAND_ROWS)
    # The corners of each band, (x, y) in the order TL, TR, BL, BR.
    y = np.repeat(np.column_stack([r0 + 0.5, np.minimum(r0 + _BAND_ROWS, out_height) - 0.5]), 2, axis=1)
    x = np.array([0.5, out_width - 0.5, 0.5, out_width - 0.5])
    ax, by, c = inv[:, 0, None, None] * x, inv[:, 1, None, None] * y, inv[:, 2, None, None]
    num_u, num_v, w = ax + by + c
    # The size of each coordinate's terms is largest at a corner (it is
    # convex), as are |u| and |v| (the quad's vertices); |w| is smallest there.
    size = (np.abs(ax) + np.abs(by) + np.abs(c)).max(axis=2)
    dw = _ROUNDING * size[2]
    low_w = np.abs(w).min(axis=1) - 2 * dw
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = num_u / w - 0.5, num_v / w - 0.5
        reach = np.maximum(np.abs(u), np.abs(v)).max(axis=1) + 1.0
        duv = _ROUNDING * ((size[:2].max(axis=0) + reach * size[2]) / low_w + reach)
    return (
        ((w > 0).all(axis=1) | (w < 0).all(axis=1))
        & (low_w > _DET_EPS)
        & (duv < _INSIDE_EPS / 2)
        & (u.min(axis=1) >= _INSIDE_EPS)
        & (u.max(axis=1) <= w_src - 1 - _INSIDE_EPS)
        & (v.min(axis=1) >= _INSIDE_EPS)
        & (v.max(axis=1) <= h_src - 1 - _INSIDE_EPS)
    )


def _sum_taps(src, row, base, du, dv, ru, rv, acc, weight, tap=None):
    """Sum the four taps of each sample into acc: the samples of the flat
    source src (row samples per row) at base, base + 1, base + row and
    base + row + 1, weighted (1 - du) * (1 - dv), du * (1 - dv),
    (1 - du) * dv and du * dv (ru = 1 - du, rv = 1 - dv), in that order.

    Every index is in range, so mode="clip" moves none; the default "raise"
    would copy into a buffer before writing tap.  A float32 sample times a
    float64 weight equals its float64 copy times it."""
    np.multiply(ru, rv, out=acc)
    acc *= src.take(base, out=tap, mode="clip")
    for fu, fv, shifted in ((du, rv, src[1:]), (ru, dv, src[row:]), (du, dv, src[row + 1 :])):
        np.multiply(fu, fv, out=weight)
        weight *= shifted.take(base, out=tap, mode="clip")
        acc += weight


def _band_scratch(shape: tuple[int, int], dtype, clamp) -> list[np.ndarray]:
    """The band arrays of a _warp_bands call: w, u, v, 1 - du, 1 - dv and the
    band's sum in float64, the flat tap index in int64, the gathered taps in
    the source's dtype and, where the taps are clamped, the horizon mask."""
    scratch = [*(np.empty(shape) for _ in range(6)), np.empty(shape, dtype=np.int64), np.empty(shape, dtype=dtype)]
    return scratch + [np.empty(shape, dtype=bool)] if clamp else scratch


def _warp_bands(src: np.ndarray, inv: np.ndarray, row: int, bands, result: np.ndarray, scratch, clamp) -> None:
    """Warp the given bands of result from the flat source src (row samples
    per row) in the arrays of scratch (_band_scratch), in place: w becomes the
    weight of one tap, and the whole-number tap coordinates become 1 - du and
    1 - dv once the flat index is cast.  Every operation is elementwise, so a
    band gets exactly the values the whole-output expressions would give.

    clamp is None where _inside_bands proved every band inside the plane, and
    src is the plane.  Otherwise clamp is the plane's (height, width) and src
    is np.pad(plane, 2): a horizon sample (|w| < _DET_EPS) takes w = 1.0, and
    after du and dv are taken, each (0, 0) tap is clamped into [-2, w_src] x
    [-2, h_src] (which moves only taps outside the source, onto the pad), a
    horizon sample's column set to w_src, and shifted by the pad's 2 samples."""
    out_width = result.shape[1]
    gx = np.arange(out_width) + 0.5
    wx, ux, vx = inv[2, 0] * gx, inv[0, 0] * gx, inv[1, 0] * gx
    for band in bands:
        rows = band.stop - band.start
        w, u, v, ru, rv, acc, base, tap, *mask = (buf[:rows] for buf in scratch)
        gy = (np.arange(band.start, band.stop) + 0.5)[:, None]
        np.add(wx, inv[2, 1] * gy, out=w)
        w += inv[2, 2]
        if clamp:
            horizon = np.less(np.abs(w, out=u), _DET_EPS, out=mask[0])
            w[horizon] = 1.0
        for coord, cx, k in ((u, ux, 0), (v, vx, 1)):
            np.add(cx, inv[k, 1] * gy, out=coord)
            coord += inv[k, 2]
            coord /= w
            coord -= 0.5
        iu = np.floor(u, out=ru)
        iv = np.floor(v, out=rv)
        u -= iu
        v -= iv
        if clamp:
            h_src, w_src = clamp
            np.clip(iu, -2, w_src, out=iu)
            iu[horizon] = w_src
            np.clip(iv, -2, h_src, out=iv)
            iu += 2
            iv += 2
        # The flat index iv * row + iu of each (0, 0) tap: every term is an
        # integer in float64, so it is exact below 2**53 samples; cast once.
        iv *= row
        iv += iu
        np.copyto(base, iv, casting="unsafe")
        np.subtract(1, u, out=ru)
        np.subtract(1, v, out=rv)
        _sum_taps(src, row, base, u, v, ru, rv, acc, w, tap)
        result[band] = acc


def warp_plane(plane: np.ndarray, inv: np.ndarray, out_width: int, out_height: int) -> np.ndarray:
    """Bilinear inverse warp of one plane; sources outside it contribute 0.

    The result is a new (out_height, out_width) array of
    `np.result_type(plane, np.float32)`: float32 for a MeasurementFrame
    plane, float64 for a float64 plane.  It is made band by band, 16 output
    rows at a time, while a band's taps and weights are in cache; no
    output-sized array but the result is made.  Each band is summed in a
    reused float64 buffer and stored into the result, which rounds each
    sample as `astype` of a whole float64 warp would, so a float32 plane is
    warped with no output-sized float64 array.  Making the taps, forming the
    weights, gathering and summing are all elementwise, so banding changes no
    output bit.

    First every band is classified from its four corner sample centers
    (`_inside_bands`).  When every band is proven to lie inside the plane,
    as in the rectify of a camera frame whose light-emitting surface stays
    clear of the frame's edge, the bands are gathered from the plane itself
    (through `np.require(plane, requirements="CA")`, which copies only a
    plane that is not C-contiguous and aligned), with no horizon mask and no
    clamp: neither changes a bit of a proven band.  Any other plane, every
    ideal plane of the generator among them (each band reaches the margin
    around the LES raster), is padded once with zeros, `np.pad(plane, 2)`,
    after the result is allocated (the other order raised the benchmark's
    dense peak RSS by about 4 MiB; 2-vCPU VM, glibc malloc), and every band
    is gathered from the padded copy with its taps clamped onto the pad
    (`_warp_bands`).  There an outside tap adds `weight * +0.0 = +0.0`, the
    weight being finite and >= 0: exactly the `0.0 * sample` of a tap masked
    to weight 0.0, for a sample >= 0.  So for planes that are finite and >= 0
    (every MeasurementFrame plane and every ideal plane of the generator) the
    result is bit-identical to gathering each tap only where it lies inside
    the source, on either path: the taps are summed in the same order with
    the same weight expressions.

    On either path the bands are interleaved between the calling thread and
    one helper thread (none where the process may run on one CPU only), so
    each thread gathers every other band.  Each thread has its own band
    buffers and writes its own rows of the result, and the call returns or
    raises only after the helper has finished; the helper is started and
    joined within the call, so no thread outlives it.
    """
    result = np.empty((out_height, out_width), dtype=np.result_type(plane, np.float32))
    if _inside_bands(inv, out_width, out_height, plane.shape).all():
        src, row, clamp = np.require(plane, requirements="CA").ravel(), plane.shape[1], None
    else:
        src, row, clamp = np.pad(plane, 2).ravel(), plane.shape[1] + 4, plane.shape
    bands = list(_bands(out_height))
    threads = min(_WARP_THREADS, _cpus(), len(bands))
    # Every thread's band arrays are made here, on the calling thread, after
    # the result: made on the helper, they came from a malloc arena of its
    # own, and the benchmark's peak RSS rose by 3-10 MiB (glibc).
    scratch = [_band_scratch((min(_BAND_ROWS, out_height), out_width), src.dtype, clamp) for _ in range(threads)]
    failures = []

    def warp_share(k):
        try:
            _warp_bands(src, inv, row, bands[k::threads], result, scratch[k], clamp)
        except Exception as exc:  # raised again on the calling thread
            failures.append(exc)

    # Thread k warps bands k, k + threads, ...; thread 0 is the calling
    # thread, and every helper is joined before the call returns.  With a
    # concurrent.futures executor instead, the benchmark's generate peak RSS
    # read 131.8 MiB, not 123.9 (glibc heap layout).
    helpers = []
    try:
        for k in range(1, threads):
            helper = threading.Thread(target=warp_share, args=(k,))
            helper.start()
            helpers.append(helper)
        _warp_bands(src, inv, row, bands[::threads], result, scratch[0], clamp)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]
    return result


def warp_frame(frame: MeasurementFrame, h: Homography, out_width: int, out_height: int) -> MeasurementFrame:
    """Inverse-map the frame through h with bilinear interpolation.

    Each output sample center is pulled back through h^-1; sources outside the
    input frame contribute 0.  Every plane of frame.planes is warped with the
    same mapping, each in its own warp_plane call, which returns a float32
    plane.  A chroma plane is then clipped to [0, 1] in float32, which equals
    clipping its float64 warp before the cast: every warped sample is >= +0.0
    (a sum of non-negative weights times non-negative samples), rounding to
    float32 is monotone, and 0 and 1 are exact.  So the rectified frame, 4
    bytes per output sample and plane, is the only output-sized array made,
    besides band temporaries.  A source plane is copied only when a band of
    its warp is not proven to lie inside it: warp_plane then pads it with
    zeros, once, and clamps the taps onto the pad.  Either way warp_plane
    splits the bands between two threads, with the same bits as one.

    frame.planes is iterated once, in order, and each source plane is dropped
    before the next is taken.  So frame may also be any object whose planes
    is a one-shot iterable that reads each plane when asked for it (as
    pipeline.run's camera frame does): then one source plane is alive at a
    time, besides the rectified planes made so far.
    """
    if out_width <= 0 or out_height <= 0:
        raise GeometryError(f"output size must be positive, got {out_width}x{out_height}")
    inv = h.inverse().matrix
    warped = []
    for plane in frame.planes:
        warped.append(warp_plane(plane, inv, out_width, out_height))
        del plane
    lum, *chroma = warped
    for plane in chroma:
        np.clip(plane, 0.0, 1.0, out=plane)
    return MeasurementFrame(out_width, out_height, lum, *chroma)


def _fit_line(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total-least-squares line; returns (point_on_line, unit_direction)."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    sxx = float((centered[:, 0] ** 2).sum())
    syy = float((centered[:, 1] ** 2).sum())
    sxy = float((centered[:, 0] * centered[:, 1]).sum())
    # Direction = major eigenvector of the 2x2 scatter matrix.
    theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy)
    direction = np.array([np.cos(theta), np.sin(theta)])
    return centroid, direction


def _intersect(p1, d1, p2, d2, fallback):
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-9:
        return np.asarray(fallback, dtype=np.float64)
    t = ((p2[0] - p1[0]) * d2[1] - (p2[1] - p1[1]) * d2[0]) / denom
    return p1 + t * d1


# Samples at or above this fraction of the frame's peak luminance belong to
# the bright region whose corners detect_corners fits.
CORNER_REL_THRESHOLD = 0.1
_SIDE_TRIM = 0.08
_SIDE_RESIDUAL_PX = 1.5


def _fit_side(points: np.ndarray, trim_axis: int):
    """Total-least-squares side line through at least 2 points, end-trimmed
    and outlier-rejected.

    The trim drops points near the quad corners (where a row's extreme sample
    can belong to the adjacent side); the rejection passes drop points pushed
    a full pitch inward by dark cells on the array border."""
    coord = points[:, trim_axis]
    lo, hi = float(coord.min()), float(coord.max())
    margin = _SIDE_TRIM * (hi - lo)
    trimmed = points[(coord >= lo + margin) & (coord <= hi - margin)]
    if len(trimmed) < 2:
        trimmed = points
    point, direction = _fit_line(trimmed)
    for _ in range(2):
        normal = np.array([-direction[1], direction[0]])
        residual = np.abs((trimmed - point) @ normal)
        threshold = max(_SIDE_RESIDUAL_PX, 3.0 * float(np.median(residual)))
        inliers = trimmed[residual <= threshold]
        if len(inliers) < max(2, len(trimmed) // 2) or len(inliers) == len(trimmed):
            break
        point, direction = _fit_line(inliers)
    return point, direction


def _boundary_points(mask: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """The (x, y) footprint edges of the extreme True samples of mask: for each
    of rows, the left edge of its first and the right edge of its last True
    sample at the row's center; for each of cols, the top edge of its first
    and the bottom edge of its last at the column's center.  Every listed row
    and column holds a True sample.  Returns left, right, top and bottom as
    (n, 2) float64 arrays.
    """
    # argmax finds the first True; on the reversed mask, the last one.
    height, width = mask.shape
    first_col = mask.argmax(axis=1)[rows]
    last_col = width - 1 - mask[:, ::-1].argmax(axis=1)[rows]
    first_row = mask.argmax(axis=0)[cols]
    last_row = height - 1 - mask[::-1].argmax(axis=0)[cols]
    return (
        np.column_stack([first_col, rows + 0.5]),
        np.column_stack([last_col + 1.0, rows + 0.5]),
        np.column_stack([cols + 0.5, first_row]),
        np.column_stack([cols + 0.5, last_row + 1.0]),
    )


def detect_corners(frame: MeasurementFrame) -> list[Point]:
    """Locate the four corners of the bright region, ordered TL, TR, BR, BL.

    Thresholds the luminance at CORNER_REL_THRESHOLD * max and fits the four
    boundary lines of the retained samples' pixel footprints (per-row extremes
    for the left/right sides, per-column extremes for top/bottom).  Adjacent
    side intersections give the quad enclosing the bright region.  Assumes the
    array is within +-45 degrees of axis-aligned, which the measurement
    geometry guarantees.
    """
    lum = frame.luminance
    peak = float(lum.max())
    if peak <= 0.0:
        raise GeometryError("frame has no positive luminance; cannot detect corners")
    mask = lum >= CORNER_REL_THRESHOLD * peak

    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    if rows.size < 2 or cols.size < 2:
        raise GeometryError("fewer than 4 boundary candidates above threshold")

    left_pts, right_pts, top_pts, bottom_pts = _boundary_points(mask, rows, cols)
    x_lo, x_hi = float(cols[0]), float(cols[-1]) + 1.0
    y_lo, y_hi = float(rows[0]), float(rows[-1]) + 1.0
    # Each side has one point per bright row or column, so at least 2.
    sides = {
        "left": _fit_side(left_pts, 1),
        "right": _fit_side(right_pts, 1),
        "top": _fit_side(top_pts, 0),
        "bottom": _fit_side(bottom_pts, 0),
    }
    corners = []
    for first, second, fallback in (
        ("top", "left", (x_lo, y_lo)),
        ("top", "right", (x_hi, y_lo)),
        ("bottom", "right", (x_hi, y_hi)),
        ("bottom", "left", (x_lo, y_hi)),
    ):
        p1, d1 = sides[first]
        p2, d2 = sides[second]
        corner = _intersect(p1, d1, p2, d2, fallback)
        corners.append((float(corner[0]), float(corner[1])))
    return corners
