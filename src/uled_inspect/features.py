"""Per-cell descriptors: luminance statistics plus mean chromaticity.

Each interior cell contributes six values (mean/max/min/std of luminance and
mean CIE x/y), computed over the camera samples whose centers fall inside the
cell rectangle shrunk by a 1 px margin on every side.  The margin keeps
border samples, which mix cell and gap light, out of the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FeatureExtractionError, ValidationError
from .grid import PixelGrid
from .io import MeasurementFrame

MARGIN_PX = 1.0
NEUTRAL_CHROMA = 0.5

COLUMNS = ("mean_l", "max_l", "min_l", "std_l", "mean_cx", "mean_cy")
CSV_COLUMNS = ("row", "col") + COLUMNS
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class CellTable:
    """Descriptors of the interior cells, one row per cell in row-major order.

    rows and cols are the grid indices of each cell; column k of the n x 6
    values matrix is the descriptor COLUMNS[k].  Every descriptor is finite.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.cols) != len(self.rows) or self.values.shape != (len(self.rows), len(COLUMNS)):
            raise ValidationError(
                f"cell table shape mismatch: {len(self.rows)} rows, {len(self.cols)} cols, "
                f"values {self.values.shape}"
            )
        mean, high, low, std, cx, cy = self.values.T
        tol = 1e-9 * np.maximum(np.abs(high), 1.0)
        # One mask per invariant, in the order a cell's checks are reported.
        checks = (
            (~np.isfinite(self.values).all(axis=1), "non-finite descriptor"),
            (~((low - tol <= mean) & (mean <= high + tol)), "mean {mean_l} outside [min, max]"),
            (std < -tol, "negative std {std_l}"),
            # Popoviciu: population std can never exceed half the value range.
            (std > (high - low) / 2.0 + tol, "std {std_l} exceeds range bound"),
            (~((-1e-9 <= cx) & (cx <= 1.0 + 1e-9)), "mean_cx={mean_cx} outside [0, 1]"),
            (~((-1e-9 <= cy) & (cy <= 1.0 + 1e-9)), "mean_cy={mean_cy} outside [0, 1]"),
        )
        bad = np.stack([mask for mask, _ in checks])
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            message = checks[int(np.argmax(bad[:, i]))][1]
            raise ValidationError(
                f"cell ({self.rows[i]},{self.cols[i]}): "
                + message.format(**dict(zip(COLUMNS, self.values[i].tolist())))
            )

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, COLUMNS.index(name)]


def _sample_ranges(edges: np.ndarray, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the first and last index i whose center i+0.5 lies in
    [lo + margin, hi - margin), clamped to the samples 0..n_samples-1."""
    first = np.ceil(edges[:-1] + MARGIN_PX - 0.5).astype(np.int64)
    last = np.ceil(edges[1:] - MARGIN_PX - 0.5).astype(np.int64) - 1
    return np.maximum(first, 0), np.minimum(last, n_samples - 1)


def extract(frame: MeasurementFrame, grid: PixelGrid) -> CellTable:
    """Descriptors for every interior cell, row-major.

    Cells are gathered in groups of one block shape (h, w): indexing the
    plane's sliding_window_view of that shape at the cells' top-left corners
    copies their blocks into one (n, h, w) array, so each statistic is one
    reduction per group.  The results are bit-identical to reducing each
    cell's block on its own; the tests keep that per-cell loop as the
    reference.

    Raises FeatureExtractionError when a cell retains no samples after the
    margin, naming the first such cell.
    """
    if grid.x_edges[-1] > frame.width + 0.5 or grid.y_edges[-1] > frame.height + 0.5:
        raise FeatureExtractionError(
            f"grid extends to ({grid.x_edges[-1]}, {grid.y_edges[-1]}) "
            f"outside frame {frame.width}x{frame.height}"
        )
    rows, cols = np.nonzero(grid.interior)
    x_first, x_last = _sample_ranges(grid.x_edges, frame.width)
    y_first, y_last = _sample_ranges(grid.y_edges, frame.height)
    i0, j0 = x_first[cols], y_first[rows]
    widths = x_last[cols] - i0 + 1
    heights = y_last[rows] - j0 + 1
    empty = (widths < 1) | (heights < 1)
    if empty.any():
        k = int(np.argmax(empty))
        raise FeatureExtractionError(f"cell ({rows[k]},{cols[k]}) has no samples after margin")

    luminance, *chroma = frame.planes
    values = np.empty((len(rows), len(COLUMNS)))
    values[:, 4:] = NEUTRAL_CHROMA  # kept by a luminance-only frame
    shape_key = heights * (widths.max() + 1) + widths  # sorts as (h, w) does
    for first in np.unique(shape_key, return_index=True)[1].tolist():
        group = np.flatnonzero(shape_key == shape_key[first])
        shape, corners = (heights[first], widths[first]), (j0[group], i0[group])
        lum = sliding_window_view(luminance, shape)[corners].astype(np.float64)
        for k, reduce in enumerate((np.mean, np.max, np.min, np.std)):
            values[group, k] = reduce(lum, axis=(1, 2))
        for k, plane in enumerate(chroma, start=4):
            values[group, k] = sliding_window_view(plane, shape)[corners].astype(np.float64).mean(axis=(1, 2))
    return CellTable(rows=rows, cols=cols, values=values)


def text_columns(table: CellTable) -> dict[str, list[str]]:
    """Every features.csv column of the table as text, keyed by its header name.

    row and col are written with str and the descriptors with repr, the
    shortest text that reads back as the same float.  Each column is formatted
    once, so the CSV and the report's per-cell entries share the strings.
    """
    text = {"row": list(map(str, table.rows.tolist())), "col": list(map(str, table.cols.tolist()))}
    for name, column in zip(COLUMNS, table.values.T.tolist()):
        text[name] = list(map(repr, column))
    return text


def to_csv(text: dict[str, list[str]]) -> str:
    """features.csv from text_columns(table): the header, then one line per cell."""
    lines = map(",".join, zip(*(text[name] for name in CSV_COLUMNS)))
    return "\n".join([CSV_HEADER, *lines]) + "\n"
