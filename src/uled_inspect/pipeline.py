"""End-to-end analysis: rectification, grid reconstruction, feature
extraction, classification, and report emission.

A run is deterministic for a given configuration: the report JSON is
byte-identical across repeated runs.  The artifacts are published with
io.replacing, all six or none: an artifact path that is a directory fails the
run before anything is written, and any failed run leaves the output
directory's files as they were, never a partial or mixed set.  The six artifact
formats are written here and nowhere else.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import evaluation, features, geometry, grid, io, ml
from .errors import ConfigError, EvaluationError, PipelineStageError

RECTIFY_MARGIN_PX = 10.0

STATUS_FUNCTIONAL = "functional"
STATUS_DEFECT = "defect"

CSV_COLUMNS = ("row", "col") + features.COLUMNS

# Cells whose text _write_cells and _write_overlay format and write at a time.
_CHUNK = 1024

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
    """Structured run result.

    report holds the summary sections of report.json: grid_metrics,
    confusion, les_stats and flags.  The per-cell result is cells with the
    matching defective mask; the per_cell block of report.json is written
    from them.
    """

    report: dict
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


def _write_overlay(svg_file, pixel_grid: grid.PixelGrid, cells: features.CellTable, defective: np.ndarray) -> None:
    """Write overlay.svg to svg_file: a black canvas, one grey rect per cell
    (its mean luminance over the brightest cell's), the grid lines, then a
    red outline per defective cell.  Cell rects and outlines are formatted
    and written _CHUNK cells at a time, so the whole text is never held."""
    xs, ys = pixel_grid.x_edges, pixel_grid.y_edges
    width, height = xs[-1] + xs[0], ys[-1] + ys[0]
    mean_l = cells.column("mean_l")
    peak = float(mean_l.max()) or 1.0
    # A cell's x and width are its column's, its y and height its row's, so
    # each is formatted once per column or row; a cell only joins them.
    col_x = [f'x="{x:.2f}"' for x in xs[:-1].tolist()]
    col_w = [f'width="{w:.2f}"' for w in np.diff(xs).tolist()]
    row_y = [f'y="{y:.2f}"' for y in ys[:-1].tolist()]
    row_h = [f'height="{h:.2f}"' for h in np.diff(ys).tolist()]
    fills = [f'fill="#{level:02x}{level:02x}{level:02x}"/>\n' for level in range(256)]
    svg_file.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.1f} {height:.1f}">\n'
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="black"/>\n'
    )
    for start in range(0, len(cells), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        # np.rint rounds halves to even, as Python's round does.
        heat = np.rint(255 * np.clip(mean_l[chunk] / peak, 0.0, 1.0)).astype(np.int64).tolist()
        rows, cols = cells.rows[chunk].tolist(), cells.cols[chunk].tolist()
        svg_file.write("".join(
            f"<rect {col_x[c]} {row_y[r]} {col_w[c]} {row_h[r]} {fills[level]}" for r, c, level in zip(rows, cols, heat)
        ))
    stroke = 'stroke="#3366cc" stroke-width="0.5"/>\n'
    svg_file.write("".join(f'<line x1="{x:.2f}" y1="{ys[0]:.2f}" x2="{x:.2f}" y2="{ys[-1]:.2f}" {stroke}' for x in xs))
    svg_file.write("".join(f'<line x1="{xs[0]:.2f}" y1="{y:.2f}" x2="{xs[-1]:.2f}" y2="{y:.2f}" {stroke}' for y in ys))
    bad = np.flatnonzero(defective)
    for start in range(0, len(bad), _CHUNK):
        chunk = bad[start : start + _CHUNK]
        rows, cols = cells.rows[chunk].tolist(), cells.cols[chunk].tolist()
        svg_file.write("".join(
            f'<rect {col_x[c]} {row_y[r]} {col_w[c]} {row_h[r]} fill="none" stroke="#dd2222" stroke-width="1.2"/>\n'
            for r, c in zip(rows, cols)
        ))
    svg_file.write("</svg>\n")


def _projection_csv(values: np.ndarray) -> str:
    """projections_{x,y}.csv: each bin's center coordinate and its value."""
    lines = ["coordinate,value"]
    lines.extend(f"{i + 0.5},{v!r}" for i, v in enumerate(values.tolist()))
    return "\n".join(lines) + "\n"


def _write_cells(report_file, csv_file, report: dict, cells: features.CellTable, statuses: dict) -> None:
    """Write report.json to report_file and features.csv to csv_file.

    report holds the summary sections of report.json and statuses maps each
    per-cell status key ("predicted", and "truth" when per-cell truth is
    given) to a defect mask over cells.  report.json is byte for byte
    json.dumps(..., sort_keys=True, indent=2) of the summary plus a
    "per_cell" list of one entry per cell, plus a newline.  features.csv is
    the CSV_COLUMNS header, then one line per cell.

    With indent set, json.dumps leaves its C encoder for the pure-Python one,
    which is slow on tens of thousands of per-cell entries.  So only the
    summary goes through json.dumps, with an empty "per_cell", and the
    per-cell entries are written with one %-template per entry, keys sorted,
    where the empty list stands.  Each value is formatted once, _CHUNK cells
    at a time, and the chunk's text goes to both files, so neither holds the
    whole per-cell text.  The texts are json's own encodings: str of an int,
    the quoted status, and repr of a float, which is what json writes for any
    finite float.  Every descriptor is finite: io.MeasurementFrame rejects
    non-finite samples and features.CellTable non-finite descriptors.  repr
    is also the shortest text that reads back as the same float, which is
    what features.csv holds.
    """
    rest = json.dumps({**report, "per_cell": []}, sort_keys=True, indent=2) + "\n"
    # The unpacking fails unless the key stands exactly once.
    head, tail = rest.split('"per_cell": []')
    keys = sorted(CSV_COLUMNS + tuple(statuses))
    template = "    {\n" + ",\n".join(f'      "{key}": %s' for key in keys) + "\n    }"
    quoted = (json.dumps(STATUS_FUNCTIONAL), json.dumps(STATUS_DEFECT))
    report_file.write(head + '"per_cell": [')
    csv_file.write(",".join(CSV_COLUMNS) + "\n")
    for start in range(0, len(cells), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        columns = [list(map(str, cells.rows[chunk].tolist())), list(map(str, cells.cols[chunk].tolist()))]
        columns += [list(map(repr, column)) for column in cells.values[chunk].T.tolist()]
        csv_file.write("\n".join(map(",".join, zip(*columns))) + "\n")
        text = dict(zip(CSV_COLUMNS, columns))
        text.update((key, [quoted[bad] for bad in mask[chunk].tolist()]) for key, mask in statuses.items())
        entries = ",\n".join(template % entry for entry in zip(*(text[key] for key in keys)))
        report_file.write(("\n" if start == 0 else ",\n") + entries)
    report_file.write(("\n  ]" if len(cells) else "]") + tail)


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
        corners = config.corners if config.corners is not None else geometry.detect_corners(frame)
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
    del rectified  # nothing after the features reads the frame
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
        statuses = {"predicted": defective}
        if truth_cells is not None:
            statuses["truth"] = truth_cells
        edges = {"x_edges": pixel_grid.x_edges.tolist(), "y_edges": pixel_grid.y_edges.tolist()}
        with io.replacing(out_dir / name for name in ARTIFACT_NAMES) as temps:
            report_path, proj_x_path, proj_y_path, csv_path, grid_path, svg_path = temps
            with report_path.open("w", encoding="ascii") as report_file, \
                    csv_path.open("w", encoding="ascii") as csv_file:
                _write_cells(report_file, csv_file, report, cells, statuses)
            proj_x_path.write_text(_projection_csv(proj_x), encoding="ascii")
            proj_y_path.write_text(_projection_csv(proj_y), encoding="ascii")
            grid_path.write_text(json.dumps(edges, sort_keys=True) + "\n", encoding="ascii")
            with svg_path.open("w", encoding="ascii") as svg_file:
                _write_overlay(svg_file, pixel_grid, cells, defective)

    return ClassificationReport(
        report=report,
        grid_metrics=metrics,
        confusion=confusion_matrix,
        les_stats=les,
        defective=defective,
        cells=cells,
        pixel_grid=pixel_grid,
    )
