"""Pixel-grid reconstruction from axis projections of the rectified frame.

The luminance image is summed over rows (x-projection) and over columns
(y-projection); the dark inter-cell borders make both projections periodic.
Edges are recovered period-first: the spectrum's peak fixes the pitch, the
phase at that frequency places a nominal edge comb, and each edge is refined
to the nearest valley of the smoothed projection.  The valleys are listed once
per axis, in a table of every strict local minimum (a run of equal samples
counts as one) with its first index, last index and position.  Teeth without
a usable valley take their position from a comb re-fit through the measured
ones, which is what lets the comb bridge clusters of defective cells.

Edge coordinates are continuous image coordinates (projection bin i covers
[i, i+1), center i + 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .io import MeasurementFrame

# Floor on the pitch: at 4 px or less the +-period/4 valley window spans at
# most 2 px, narrower than the 3-tap smoothing kernel, so each edge rests on
# one or two smoothed bins.  Clean 3 px combs still resolve; it is a margin.
_MIN_PERIOD = 4.0
_SUPPORT_REL = 0.1
_ZERO_PAD = 16
_MIN_CONTRAST = 0.5
_SPACING_TOL = 0.25
_VALLEY_DEPTH_REL = 0.75


@dataclass(frozen=True)
class PixelGrid:
    """Reconstructed cell-boundary coordinates plus the interior-cell mask."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    interior: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.y_edges) - 1

    @property
    def n_cols(self) -> int:
        return len(self.x_edges) - 1


@dataclass(frozen=True)
class GridMetrics:
    """Interior-cell size statistics in camera px."""

    mean_cell_width: float
    mean_cell_height: float
    std_cell_width: float
    std_cell_height: float


def project(frame: MeasurementFrame) -> tuple[np.ndarray, np.ndarray]:
    """Column sums (x) and row sums (y) of the luminance, read-only float64.

    The float32 plane is summed with a float64 accumulator, which makes no
    float64 copy of it.  The axis sums equal those of its float64 copy bit
    for bit at rectified widths (tested up to 20,000 columns); the total,
    which only feeds the conservation check, may differ in its last bits."""
    lum = frame.luminance
    proj_x = lum.sum(axis=0, dtype=np.float64)
    proj_y = lum.sum(axis=1, dtype=np.float64)
    total = lum.sum(dtype=np.float64)
    for sums in (proj_x, proj_y):
        err = abs(float(sums.sum()) - float(total))
        if err > 1e-6 * max(float(total), 1.0):
            raise GridError(f"projection does not conserve total luminance (delta {err})")
        sums.setflags(write=False)
    return proj_x, proj_y


def smooth(values: np.ndarray) -> np.ndarray:
    """3-tap [1, 2, 1]/4 smoothing, edges replicated."""
    padded = np.concatenate([values[:1], values, values[-1:]])
    return (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0


def _parabolic_offset(left, mid, right) -> np.ndarray:
    """Vertex offset of the parabola through three unit-spaced samples, clipped
    to +-0.5, 0 where they are (nearly) collinear; elementwise on arrays."""
    denom = left - 2.0 * mid + right
    flat = np.abs(denom) < 1e-12
    offset = 0.5 * (left - right) / np.where(flat, 1.0, denom)
    return np.where(flat, 0.0, np.clip(offset, -0.5, 0.5))


def _autocorrelation(v: np.ndarray, lag: float) -> float:
    """Normalized autocorrelation of v, linear between integer lags."""
    i = int(lag)
    at_i, at_next = float(v[: len(v) - i] @ v[i:]), float(v[: len(v) - i - 1] @ v[i + 1 :])
    return ((i + 1 - lag) * at_i + (lag - i) * at_next) / float(v @ v)


def estimate_period(projection: np.ndarray) -> float:
    """Dominant pitch of the projection from the peak of its spectrum.

    The projection over its support, mean subtracted and Hann windowed, is
    zero-padded 16x; the pitch is the highest rfft magnitude above 2 periods
    per support, refined by a parabola through the log magnitudes of its bin
    and the two beside it.  Raises GridError (no periodic structure) when the
    support is constant or its comb contrast r(p) - r(p/2), the normalized
    autocorrelation at the pitch less that at half of it, is below 0.5.
    """
    lo, hi = _support_range(smooth(projection))
    support = projection[lo : hi + 1]
    n = len(support)
    if np.ptp(support) == 0.0:
        raise GridError("projection is constant over its support; no periodic structure")
    v = support - support.mean()
    magnitude = np.abs(np.fft.rfft(v * np.hanning(n), _ZERO_PAD * n))
    first = 2 * _ZERO_PAD + 1
    if len(magnitude) - 1 <= first:
        raise GridError(f"support of {n} bins too short for period estimation")
    peak = first + int(np.argmax(magnitude[first:-1]))
    around = magnitude[peak - 1 : peak + 2]
    if not np.all(around > 0.0):
        raise GridError(f"spectrum of the {n}-bin support vanishes at its peak; no periodic structure")
    period = _ZERO_PAD * n / (peak + float(_parabolic_offset(*np.log(around))))
    contrast = _autocorrelation(v, period) - _autocorrelation(v, period / 2.0)
    if contrast < _MIN_CONTRAST:
        raise GridError(f"comb contrast {contrast:.3f} at period {period:.3f} < {_MIN_CONTRAST}; no periodic structure")
    return period


def _support_range(smoothed: np.ndarray) -> tuple[int, int]:
    threshold = _SUPPORT_REL * float(smoothed.max())
    above = np.nonzero(smoothed >= threshold)[0]
    if above.size == 0:
        raise GridError("projection has no support above threshold")
    return int(above[0]), int(above[-1])


def _fit_phase(smoothed: np.ndarray, period: float, lo: int, hi: int) -> float:
    """Edge-comb phase: half a period past the maximum of the support's
    fundamental at the period, from the phase of its DFT at that frequency."""
    x = np.arange(lo, hi + 1)
    c = smoothed[lo : hi + 1] @ np.exp(-2j * np.pi * x / period)
    return float((period / 2.0 - np.angle(c) * period / (2.0 * np.pi)) % period)


def _tooth_minima(
    smoothed: np.ndarray, nominal: np.ndarray, half_width: float, lo: int, hi: int
) -> np.ndarray:
    """Per comb tooth, the position of the valley nearest to its nominal
    position, the lower index on a tie, or NaN when no valley qualifies (flat
    run, dark cluster, or the LES border).

    The valley table lists every strict local minimum of smoothed once, a run
    of equal samples counting as one, with its first index, last index and
    position: the parabola vertex for a one-sample valley, the run's midpoint
    for a flat-bottomed one.  A valley qualifies for a tooth when it lies
    wholly inside the window nominal +- half_width and the projection support
    [lo, hi], so noise in the dark frame margin cannot attract border edges,
    and when it sits at or below 0.75 times the window maximum, so noise
    dimples on a bright plateau do not pass as cell boundaries.
    """
    starts = np.concatenate(([0], np.flatnonzero(smoothed[1:] != smoothed[:-1]) + 1))
    ends = np.append(starts[1:] - 1, len(smoothed) - 1)
    runs = smoothed[starts]
    valley = np.flatnonzero((runs[1:-1] < runs[:-2]) & (runs[1:-1] < runs[2:])) + 1
    if valley.size == 0:
        return np.full(len(nominal), np.nan)
    first, last = starts[valley], ends[valley]
    position = (first + last) / 2.0
    one = first == last
    single = first[one]
    position[one] = single + _parabolic_offset(smoothed[single - 1], smoothed[single], smoothed[single + 1])

    a = np.maximum(np.ceil(nominal - half_width).astype(np.int64), max(lo + 1, 1))
    b = np.minimum(np.floor(nominal + half_width).astype(np.int64), min(hi - 1, len(smoothed) - 2))
    # Each window's maximum is reduceat's result at its a, which reduces up to
    # the following b + 1.  The clip keeps every bound a valid index; it moves
    # only bounds of empty windows (b < a), which hold no valley, whatever
    # their cutoff.
    bounds = np.clip(np.column_stack([a, b + 1]).ravel(), 0, len(smoothed) - 1)
    window_max = np.where(b >= a, np.maximum.reduceat(smoothed, bounds)[::2], 0.0)
    cutoff = _VALLEY_DEPTH_REL * window_max
    usable = (first >= a[:, None]) & (last <= b[:, None]) & (smoothed[first] <= cutoff[:, None])
    distance = np.where(usable, np.abs(position - nominal[:, None]), np.inf)
    return np.where(usable.any(axis=1), position[np.argmin(distance, axis=1)], np.nan)


def detect_edges(projection: np.ndarray, period: float) -> np.ndarray:
    """Edge coordinates, one per pitch window across the projection support.

    The edge comb {phase + k*period} sits half a period past the maxima of
    the support's fundamental at the period (see _fit_phase).  The strict
    local minima of the smoothed projection are listed once, as a valley
    table, and each comb tooth is refined to the nearest valley within
    +-period/4 (see _tooth_minima).  Teeth whose window holds no usable
    valley (defect clusters, LES border), and measured teeth more than 1 px
    off the comb, take their position from a least-squares comb re-fit
    through the measured teeth, which keeps those edges free of any small
    bias of the estimated period.
    """
    if period <= _MIN_PERIOD:
        raise GridError(f"period {period} too small")
    smoothed = smooth(projection)
    lo, hi = _support_range(smoothed)
    phase = _fit_phase(smoothed, period, lo, hi)

    k_min = int(np.ceil((lo - 0.45 * period - phase) / period))
    k_max = int(np.floor((hi + 0.45 * period - phase) / period))
    ks = np.arange(k_min, k_max + 1)
    if len(ks) < 3:
        raise GridError(f"only {max(len(ks), 0)} edges in projection support; need >= 3")
    minima = _tooth_minima(smoothed, phase + ks * period, period / 4.0, lo, hi)
    measured = ~np.isnan(minima)
    fit_b, fit_a = float(period), float(phase)
    for _ in range(2):
        if np.count_nonzero(measured) < 2:
            break
        fit_b, fit_a = np.polyfit(ks[measured].astype(np.float64), minima[measured], 1)
        outliers = measured & (np.abs(minima - (fit_a + fit_b * ks)) > 1.0)
        if not outliers.any():
            break
        measured &= ~outliers
    out = np.where(measured, minima, fit_a + fit_b * ks) + 0.5
    if np.any(np.diff(out) <= 0):
        raise GridError("detected edges are not strictly increasing")
    if out[-1] > len(projection) + 0.5:
        raise GridError(f"last edge {out[-1]:.2f} lies past the end of the {len(projection)}-bin projection")
    return out


def build_grid(x_edges, y_edges) -> PixelGrid:
    """Assemble a PixelGrid, rejecting non-finite edges and non-monotonic or
    outlier spacings."""
    grids = []
    for name, edges in (("x", x_edges), ("y", y_edges)):
        arr = np.asarray(edges, dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 2:
            raise GridError(f"{name}_edges needs at least 2 entries")
        if not np.all(np.isfinite(arr)):
            idx = int(np.argmax(~np.isfinite(arr)))
            raise GridError(f"{name}_edges[{idx}] is not finite ({arr[idx]})")
        spacing = np.diff(arr)
        if np.any(spacing <= 0):
            idx = int(np.argmax(spacing <= 0))
            raise GridError(f"{name}_edges not strictly increasing at index {idx}")
        median = float(np.median(spacing))
        bad = (spacing > (1 + _SPACING_TOL) * median) | (spacing < (1 - _SPACING_TOL) * median)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise GridError(
                f"{name}_edges spacing {spacing[idx]:.3f} between edges {idx} and {idx + 1} "
                f"is outside +-25% of median {median:.3f}"
            )
        arr.setflags(write=False)
        grids.append(arr)
    xs, ys = grids
    n_rows, n_cols = len(ys) - 1, len(xs) - 1
    interior = np.zeros((n_rows, n_cols), dtype=bool)
    if n_rows >= 3 and n_cols >= 3:
        interior[1:-1, 1:-1] = True
    interior.setflags(write=False)
    return PixelGrid(xs, ys, interior)


def cell_size(grid: PixelGrid) -> GridMetrics:
    """Mean and population std of the widths of the columns and the heights
    of the rows that hold an interior cell."""
    if not grid.interior.any():
        raise GridError("grid has no interior cells")
    widths = np.diff(grid.x_edges)[grid.interior.any(axis=0)]
    heights = np.diff(grid.y_edges)[grid.interior.any(axis=1)]
    return GridMetrics(
        mean_cell_width=float(widths.mean()),
        mean_cell_height=float(heights.mean()),
        std_cell_width=float(widths.std()),
        std_cell_height=float(heights.std()),
    )
