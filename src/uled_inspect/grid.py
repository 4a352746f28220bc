"""Pixel-grid reconstruction from axis projections of the rectified frame.

The luminance image is summed over rows (x-projection) and over columns
(y-projection); the dark inter-cell borders make both projections periodic.
Edges are recovered period-first: autocorrelation fixes the pitch, a phase fit
places a nominal edge comb, and each edge is refined to the nearest local
minimum of the smoothed projection.  Windows without a usable minimum keep
their nominal position, which is what lets the comb bridge clusters of
defective cells.

Edge coordinates are continuous image coordinates (projection bin i covers
[i, i+1), center i + 0.5).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .io import MeasurementFrame

_MIN_PEAK = 0.2
_MIN_LAG = 5
_SUPPORT_REL = 0.1
_PHASE_STEP = 0.25
_SPACING_TOL = 0.25
_VALLEY_DEPTH_REL = 0.75


@dataclass(frozen=True)
class AxisProjection:
    """1D luminance projection along one frame axis ('x' sums rows per column)."""

    axis: str
    values: np.ndarray

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise GridError(f"axis must be 'x' or 'y', got {self.axis!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        lines = ["coordinate,value"]
        lines.extend(f"{i + 0.5},{v!r}" for i, v in enumerate(self.values.tolist()))
        return "\n".join(lines) + "\n"


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

    def to_json(self) -> str:
        return json.dumps(
            {"x_edges": self.x_edges.tolist(), "y_edges": self.y_edges.tolist()},
            sort_keys=True,
        )


@dataclass(frozen=True)
class GridMetrics:
    """Interior-cell size statistics in camera px."""

    mean_cell_width: float
    mean_cell_height: float
    std_cell_width: float
    std_cell_height: float


def project(frame: MeasurementFrame) -> tuple[AxisProjection, AxisProjection]:
    """Column sums (x) and row sums (y) of the luminance plane."""
    lum = frame.luminance.astype(np.float64)
    proj_x = lum.sum(axis=0)
    proj_y = lum.sum(axis=1)
    total = lum.sum()
    for sums in (proj_x, proj_y):
        err = abs(float(sums.sum()) - float(total))
        if err > 1e-6 * max(float(total), 1.0):
            raise GridError(f"projection does not conserve total luminance (delta {err})")
    return AxisProjection("x", proj_x), AxisProjection("y", proj_y)


def smooth(values: np.ndarray) -> np.ndarray:
    """3-tap [1, 2, 1]/4 smoothing, edges replicated."""
    padded = np.concatenate([values[:1], values, values[-1:]])
    return (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0


def _parabolic_offset(left: float, mid: float, right: float) -> float:
    denom = left - 2.0 * mid + right
    if abs(denom) < 1e-12:
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


def _refined_peak(ac: np.ndarray, index: int) -> tuple[float, float]:
    """Parabolic vertex (position, value) of the autocorrelation around index."""
    if index <= 0 or index >= len(ac) - 1:
        return float(index), float(ac[index])
    left, mid, right = float(ac[index - 1]), float(ac[index]), float(ac[index + 1])
    offset = _parabolic_offset(-left, -mid, -right)
    denom = left - 2.0 * mid + right
    value = mid if abs(denom) < 1e-12 else mid - 0.25 * (left - right) * offset
    return index + offset, value


def estimate_period(projection: AxisProjection) -> float:
    """Dominant pitch of the projection via normalized autocorrelation.

    Looks for the lag above 5 px maximizing the autocorrelation of the
    mean-subtracted signal and refines the integer peak parabolically.
    Raises GridError when no peak reaches 0.2 (no periodic structure).
    """
    v = projection.values - projection.values.mean()
    n = len(v)
    max_lag = n // 3
    if max_lag <= _MIN_LAG:
        raise GridError(f"projection of length {n} too short for period estimation")
    denom = float(v @ v)
    if denom <= 0.0:
        raise GridError("projection is constant; no periodic structure")
    ac = np.correlate(v, v, mode="full")[n - 1 :] / denom
    lags = np.arange(_MIN_LAG, max_lag + 1)
    best = int(lags[np.argmax(ac[lags])])
    if ac[best] < _MIN_PEAK:
        raise GridError(
            f"autocorrelation peak {ac[best]:.3f} below {_MIN_PEAK}; no periodic structure"
        )
    period, peak_value = _refined_peak(ac, best)
    # A non-integer pitch can score below its integer-aligned multiple on the
    # integer lag grid; prefer the smallest sub-multiple whose refined peak is
    # comparable (the continuous-domain fundamental).
    for divisor in (5, 4, 3, 2):
        candidate = period / divisor
        index = int(round(candidate))
        if candidate < _MIN_LAG or index < 2 or index > max_lag - 1:
            continue
        window = ac[index - 1 : index + 2]
        local = index - 1 + int(np.argmax(window))
        sub_period, sub_value = _refined_peak(ac, local)
        if sub_value >= 0.85 * peak_value and abs(sub_period * divisor - period) < 1.0:
            return sub_period
    return period


def _support_range(smoothed: np.ndarray) -> tuple[int, int]:
    threshold = _SUPPORT_REL * float(smoothed.max())
    above = np.nonzero(smoothed >= threshold)[0]
    if above.size == 0:
        raise GridError("projection has no support above threshold")
    return int(above[0]), int(above[-1])


def _fit_phase(smoothed: np.ndarray, period: float, lo: int, hi: int) -> float:
    positions = np.arange(len(smoothed), dtype=np.float64)
    best_phase = 0.0
    best_score = np.inf
    for phase in np.arange(0.0, period, _PHASE_STEP):
        start = phase + np.ceil((lo - phase) / period) * period
        teeth = np.arange(start, hi + 1e-9, period)
        if teeth.size == 0:
            continue
        score = float(np.interp(teeth, positions, smoothed).mean())
        if score < best_score:
            best_score = score
            best_phase = float(phase)
    return best_phase


def _window_minimum(
    smoothed: np.ndarray, nominal: float, half_width: float, lo: int, hi: int
) -> float | None:
    """Plateau-aware local minimum nearest to the nominal position, or None
    when the window holds no usable minimum (flat run, dark cluster, or the
    LES border).  Candidates stay inside the projection support [lo, hi] so
    noise in the dark frame margin cannot attract border edges, and must sit
    well below the window maximum so noise dimples on a bright plateau do not
    pass as cell boundaries."""
    n = len(smoothed)
    a = max(int(np.ceil(nominal - half_width)), lo + 1, 1)
    b = min(int(np.floor(nominal + half_width)), hi - 1, n - 2)
    if b < a:
        return None
    depth_cutoff = _VALLEY_DEPTH_REL * float(smoothed[a : b + 1].max())
    candidates: list[float] = []
    i = a
    while i <= b:
        j = i
        while j + 1 <= b and smoothed[j + 1] == smoothed[i]:
            j += 1
        run_value = smoothed[i]
        if smoothed[i - 1] > run_value and smoothed[j + 1] > run_value and run_value <= depth_cutoff:
            if i == j:
                candidates.append(i + _parabolic_offset(smoothed[i - 1], smoothed[i], smoothed[i + 1]))
            else:
                candidates.append((i + j) / 2.0)
        i = j + 1
    if not candidates:
        return None
    deltas = [abs(c - nominal) for c in candidates]
    return float(candidates[int(np.argmin(deltas))])


def detect_edges(projection: AxisProjection, period: float) -> np.ndarray:
    """Edge coordinates, one per pitch window across the projection support.

    The phase of the edge comb minimizes the summed projection sampled at
    {phase + k*period}; each comb tooth is then refined to the nearest local
    minimum within +-period/4.  Teeth whose window holds no usable minimum
    (defect clusters, LES border) take their position from a least-squares
    comb re-fit through the minima that were found, which keeps those edges
    free of the small bias of the autocorrelation period.
    """
    if period <= _MIN_LAG - 1:
        raise GridError(f"period {period} too small")
    smoothed = smooth(projection.values)
    lo, hi = _support_range(smoothed)
    phase = _fit_phase(smoothed, period, lo, hi)

    k_min = int(np.ceil((lo - 0.45 * period - phase) / period))
    k_max = int(np.floor((hi + 0.45 * period - phase) / period))
    ks = np.arange(k_min, k_max + 1)
    if len(ks) < 3:
        raise GridError(f"only {max(len(ks), 0)} edges in projection support; need >= 3")
    found: dict[int, float] = {}
    for i, k in enumerate(ks):
        minimum = _window_minimum(smoothed, phase + k * period, period / 4.0, lo, hi)
        if minimum is not None:
            found[i] = minimum
    fit_b, fit_a = float(period), float(phase)
    for _ in range(2):
        if len(found) < 2:
            break
        idx = sorted(found)
        fit_b, fit_a = np.polyfit(ks[idx].astype(np.float64), [found[i] for i in idx], 1)
        outliers = [i for i in idx if abs(found[i] - (fit_a + fit_b * ks[i])) > 1.0]
        if not outliers:
            break
        for i in outliers:
            del found[i]
    edges = [found.get(i, fit_a + fit_b * k) + 0.5 for i, k in enumerate(ks)]
    out = np.asarray(edges)
    if np.any(np.diff(out) <= 0):
        raise GridError("detected edges are not strictly increasing")
    return out


def build_grid(x_edges, y_edges) -> PixelGrid:
    """Assemble a PixelGrid, rejecting non-monotonic or outlier spacings."""
    grids = []
    for name, edges in (("x", x_edges), ("y", y_edges)):
        arr = np.asarray(edges, dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 2:
            raise GridError(f"{name}_edges needs at least 2 entries")
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
    """Mean and population std of interior cell widths and heights."""
    if not grid.interior.any():
        raise GridError("grid has no interior cells")
    widths = np.diff(grid.x_edges)[1:-1]
    heights = np.diff(grid.y_edges)[1:-1]
    return GridMetrics(
        mean_cell_width=float(widths.mean()),
        mean_cell_height=float(heights.mean()),
        std_cell_width=float(widths.std()),
        std_cell_height=float(heights.std()),
    )
