"""End-to-end analysis: rectification, grid reconstruction, feature
extraction, classification, and report emission.

A run is deterministic for a given configuration: the report JSON is
byte-identical across repeated runs.  The artifacts are published with
io.replacing, all six or none: an artifact path that is a directory fails the
run before anything is written, and any failed run leaves the output
directory's files as they were, never a partial or mixed set.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import evaluation, features, geometry, grid, io, ml
from .errors import ConfigError, EvaluationError, PipelineStageError

RECTIFY_MARGIN_PX = 10.0

STATUS_FUNCTIONAL = "functional"
STATUS_DEFECT = "defect"

ARTIFACT_NAMES = (
    "report.json",
    "projections_x.csv",
    "projections_y.csv",
    "features.csv",
    "grid.json",
    "overlay.svg",
)


@dataclass(frozen=True)
class PipelineConfig:
    frame_path: str
    output_dir: str
    defects_path: str | None = None
    corners: tuple[tuple[float, float], ...] | None = None
    threads: int = 1  # passed to ml.kmeans_fit, which accepts it with no effect

    def __post_init__(self):
        if self.corners is not None:
            if len(self.corners) != 4:
                raise ConfigError(f"explicit corners need exactly 4 points, got {len(self.corners)}")
            if not all(len(p) == 2 and all(math.isfinite(v) for v in p) for p in self.corners):
                raise ConfigError(f"explicit corners need finite (x, y) points, got {self.corners}")
            _quad_size(self.corners)
        if isinstance(self.threads, bool) or not isinstance(self.threads, int) or self.threads < 1:
            raise ConfigError(f"threads must be a positive int, got {self.threads!r}")


@dataclass(frozen=True)
class ClassificationReport:
    """Structured run result plus the emitted artifact paths.

    report holds the summary sections of report.json: grid_metrics,
    confusion, les_stats and flags.  The per-cell result is cells with the
    matching defective mask; the per_cell block of report.json is written
    from them.
    """

    report: dict
    artifacts: tuple[Path, ...]
    grid_metrics: grid.GridMetrics
    confusion: evaluation.ConfusionMatrix | None
    les_stats: evaluation.LesStats
    defective: np.ndarray
    cells: features.CellTable
    pixel_grid: grid.PixelGrid


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _quad_size(corners) -> tuple[float, float]:
    """Mean width and height of a TL, TR, BR, BL corner quad.

    Raises ConfigError when either is below 2 px.  Explicit corners are checked
    with it when the config is built, detected ones when the frame is
    rectified, where the failure belongs to that stage.
    """
    tl, tr, br, bl = (np.asarray(p, dtype=np.float64) for p in corners)
    width = (np.hypot(*(tr - tl)) + np.hypot(*(br - bl))) / 2.0
    height = (np.hypot(*(bl - tl)) + np.hypot(*(br - tr))) / 2.0
    if width < 2.0 or height < 2.0:
        raise ConfigError(f"degenerate corner quad (side lengths {width:.2f} x {height:.2f})")
    return width, height


def _rectify(frame: io.MeasurementFrame, corners) -> io.MeasurementFrame:
    width, height = _quad_size(corners)
    m = RECTIFY_MARGIN_PX
    dst = [(m, m), (m + width, m), (m + width, m + height), (m, m + height)]
    h = geometry.estimate_homography(corners, dst)
    out_w = int(math.ceil(width + 2 * m))
    out_h = int(math.ceil(height + 2 * m))
    return geometry.warp_frame(frame, h, out_w, out_h)


def _overlay_svg(pixel_grid: grid.PixelGrid, cells: features.CellTable, defective: np.ndarray) -> str:
    xs, ys = pixel_grid.x_edges, pixel_grid.y_edges
    width, height = xs[-1] + xs[0], ys[-1] + ys[0]
    mean_l = cells.column("mean_l")
    peak = float(mean_l.max()) or 1.0
    # np.rint rounds halves to even, as Python's round does.
    heat = np.rint(255 * np.clip(mean_l / peak, 0.0, 1.0)).astype(np.int64).tolist()
    # A cell's x and width are its column's, its y and height its row's, so
    # each is formatted once per column or row; a cell only joins them.
    col_x = [f'x="{x:.2f}"' for x in xs[:-1].tolist()]
    col_w = [f'width="{w:.2f}"' for w in np.diff(xs).tolist()]
    row_y = [f'y="{y:.2f}"' for y in ys[:-1].tolist()]
    row_h = [f'height="{h:.2f}"' for h in np.diff(ys).tolist()]
    rows, cols = cells.rows.tolist(), cells.cols.tolist()
    fills = [f'fill="#{level:02x}{level:02x}{level:02x}"/>' for level in range(256)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="black"/>',
    ]
    parts += [
        f"<rect {col_x[c]} {row_y[r]} {col_w[c]} {row_h[r]} {fills[level]}" for r, c, level in zip(rows, cols, heat)
    ]
    stroke = 'stroke="#3366cc" stroke-width="0.5"/>'
    parts += [f'<line x1="{x:.2f}" y1="{ys[0]:.2f}" x2="{x:.2f}" y2="{ys[-1]:.2f}" {stroke}' for x in xs]
    parts += [f'<line x1="{xs[0]:.2f}" y1="{y:.2f}" x2="{xs[-1]:.2f}" y2="{y:.2f}" {stroke}' for y in ys]
    for r, c, bad in zip(rows, cols, defective.tolist()):
        if bad:
            parts.append(
                f'<rect {col_x[c]} {row_y[r]} {col_w[c]} {row_h[r]} fill="none" stroke="#dd2222" stroke-width="1.2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cell_text(
    cells: features.CellTable, defective: np.ndarray, truth_cells: np.ndarray | None
) -> dict[str, list[str]]:
    """The JSON text of every field of every per-cell entry, keyed by field.

    The features.csv columns come from features.text_columns; the statuses
    "predicted" and, when per-cell truth is given, "truth" are the quoted
    literals.
    """
    quoted = (json.dumps(STATUS_FUNCTIONAL), json.dumps(STATUS_DEFECT))
    text = features.text_columns(cells)
    for key, mask in (("predicted", defective), ("truth", truth_cells)):
        if mask is not None:
            text[key] = [quoted[bad] for bad in mask.tolist()]
    return text


# Per-cell entries per piece of report.json text that _report_json yields.
_REPORT_CHUNK = 1024


def _report_json(report: dict, cell_text: dict[str, list[str]]) -> Iterator[str]:
    """report.json in pieces: the summary sections of report plus a
    "per_cell" list whose entries cell_text (see _cell_text) holds as text.
    Joined, the pieces are byte for byte json.dumps(..., sort_keys=True,
    indent=2) of the whole plus a newline.

    With indent set, json.dumps leaves its C encoder for the pure-Python one,
    which is slow on tens of thousands of per-cell entries.  So only the
    summary goes through json.dumps, with an empty "per_cell", and the
    per-cell block is made from cell_text with one %-template per entry, keys
    sorted, and spliced in where the empty list stands.  The texts are json's
    own encodings: str of an int, the quoted status, and repr of a float,
    which is what json writes for any finite float.  Every descriptor is
    finite: io.MeasurementFrame rejects non-finite samples and
    features.CellTable non-finite descriptors.

    The text before the list comes first, then the entries _REPORT_CHUNK at a
    time, then the rest, so a caller that writes each piece as it comes never
    holds the whole text.
    """
    rest = json.dumps({**report, "per_cell": []}, sort_keys=True, indent=2) + "\n"
    # The unpacking fails unless the key stands exactly once.
    head, tail = rest.split('"per_cell": []')
    keys = sorted(cell_text)
    columns = [cell_text[key] for key in keys]
    count = len(columns[0])
    if not count:
        yield f'{head}"per_cell": []{tail}'
        return
    template = "    {\n" + ",\n".join(f'      "{key}": %s' for key in keys) + "\n    }"
    yield f'{head}"per_cell": [\n'
    for start in range(0, count, _REPORT_CHUNK):
        chunk = zip(*(column[start : start + _REPORT_CHUNK] for column in columns))
        yield ("" if start == 0 else ",\n") + ",\n".join(template % entry for entry in chunk)
    yield "\n  ]" + tail


def _artifact_texts(report, cells, defective, truth_cells, proj_x, proj_y, pixel_grid):
    """The text pieces of every artifact, in ARTIFACT_NAMES order.

    Each artifact is made only when the caller asks for the next one, so a
    caller that writes each before it asks holds one at a time; report.json
    comes in pieces (see _report_json).  The per-cell text of report.json and
    features.csv, about 12 MiB on a 150x150-cell frame, is dropped once both
    are made.
    """
    cell_text = _cell_text(cells, defective, truth_cells)
    yield _report_json(report, cell_text)
    yield [grid.projection_csv(proj_x)]
    yield [grid.projection_csv(proj_y)]
    yield [features.to_csv(cell_text)]
    del cell_text
    yield [pixel_grid.to_json() + "\n"]
    yield [_overlay_svg(pixel_grid, cells, defective)]


def run(config: PipelineConfig) -> ClassificationReport:
    """Execute every stage in order and emit the artifact set.

    Raises PipelineStageError naming the failed stage; a failed run leaves
    the output directory's files as they were.
    """
    with _stage("read_frame"):
        frame = io.read_frame(config.frame_path)
    truth = None
    if config.defects_path is not None:
        with _stage("read_defects"):
            truth = io.read_defect_map(config.defects_path)
    with _stage("corners"):
        if config.corners is not None:
            corners = [tuple(map(float, p)) for p in config.corners]
        else:
            corners = geometry.detect_corners(frame)
    with _stage("rectify"):
        rectified = _rectify(frame, corners)
    del frame  # only the rectified frame is needed from here on
    with _stage("project"):
        proj_x, proj_y = grid.project(rectified)
    with _stage("reconstruct_grid"):
        x_edges, y_edges = (grid.detect_edges(p, grid.estimate_period(p)) for p in (proj_x, proj_y))
        pixel_grid = grid.build_grid(x_edges, y_edges)
    with _stage("cell_metrics"):
        metrics = grid.cell_size(pixel_grid)
    with _stage("features"):
        cells = features.extract(rectified, pixel_grid)
    with _stage("classify"):
        standardized = ml.standardize_fit_transform(cells.values)
        pca = ml.pca_fit(standardized)
        projected = ml.pca_transform(pca, standardized)
        model = ml.kmeans_fit(projected, threads=config.threads)
        mean_l = cells.column("mean_l")
        defective, degenerate = ml.label_clusters(model, mean_l)

    confusion_matrix = truth_cells = None
    if truth is not None:
        with _stage("confusion"):
            if (truth.rows, truth.cols) != (pixel_grid.n_rows, pixel_grid.n_cols):
                raise EvaluationError(
                    f"truth map {truth.rows}x{truth.cols} does not match grid "
                    f"{pixel_grid.n_rows}x{pixel_grid.n_cols}"
                )
            truth_cells = truth.defective[cells.rows, cells.cols]
            confusion_matrix = evaluation.confusion(defective, truth_cells)
    with _stage("les_stats"):
        les = evaluation.les_statistics(mean_l, defective)

    flags = {
        "degenerate_clustering": degenerate,
        "confusion_skipped": truth is None,
        "fnr_undefined": False,
        "fpr_undefined": False,
    }
    confusion_section = None
    if confusion_matrix is not None:
        confusion_section = asdict(confusion_matrix)
        for key in ("accuracy", "false_negative_rate", "false_positive_rate"):
            confusion_section[key] = getattr(confusion_matrix, key)
        for key in ("fnr_undefined", "fpr_undefined"):
            flags[key] = getattr(confusion_matrix, key)
    report = {
        "grid_metrics": {**asdict(metrics), "n_rows": pixel_grid.n_rows, "n_cols": pixel_grid.n_cols},
        "confusion": confusion_section,
        "les_stats": asdict(les),
        "flags": flags,
    }

    out_dir = Path(config.output_dir)
    with _stage("artifacts"):
        out_dir.mkdir(parents=True, exist_ok=True)
        texts = _artifact_texts(report, cells, defective, truth_cells, proj_x, proj_y, pixel_grid)
        with io.replacing(out_dir / name for name in ARTIFACT_NAMES) as temps:
            for temp, pieces in zip(temps, texts):
                with temp.open("w", encoding="ascii") as f:
                    f.writelines(pieces)

    return ClassificationReport(
        report=report,
        artifacts=tuple(out_dir / name for name in ARTIFACT_NAMES),
        grid_metrics=metrics,
        confusion=confusion_matrix,
        les_stats=les,
        defective=defective,
        cells=cells,
        pixel_grid=pixel_grid,
    )
