"""End-to-end analysis: rectification, grid reconstruction, feature
extraction, classification, and report emission.

A run is deterministic for a given configuration: the report JSON is
byte-identical across repeated runs.  The artifacts are written into a
temporary directory inside the output directory and moved into place only once
all of them are written, so a failed run leaves the output directory's files
as they were and it never holds a partial or mixed result.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, features, geometry, grid, io, ml
from .errors import ConfigError, PipelineStageError

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
    rel_threshold: float = 0.1
    kmeans: ml.KMeansConfig = field(default_factory=ml.KMeansConfig)
    threads: int | None = None

    def __post_init__(self):
        if self.corners is not None and len(self.corners) != 4:
            raise ConfigError(f"explicit corners need exactly 4 points, got {len(self.corners)}")
        if not 0.0 < self.rel_threshold < 1.0:
            raise ConfigError(f"rel_threshold must lie in (0, 1), got {self.rel_threshold}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be positive, got {self.threads}")


@dataclass(frozen=True)
class ClassificationReport:
    """Structured run result plus the emitted artifact paths."""

    report: dict
    artifacts: tuple[Path, ...]
    grid_metrics: grid.GridMetrics
    confusion: evaluation.ConfusionMatrix | None
    les_stats: evaluation.LesStats
    defective: np.ndarray
    cells: features.CellTable
    pixel_grid: grid.PixelGrid


def _thread_count(config: PipelineConfig) -> int:
    if config.threads is not None:
        return config.threads
    env = os.environ.get("ULED_INSPECT_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"ULED_INSPECT_THREADS={env!r} is not a positive integer") from None
        if value < 1:
            raise ConfigError(f"ULED_INSPECT_THREADS={env!r} is not a positive integer")
        return value
    return os.cpu_count() or 1


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _rectify(frame: io.MeasurementFrame, corners) -> tuple[io.MeasurementFrame, geometry.Homography]:
    tl, tr, br, bl = (np.asarray(p, dtype=np.float64) for p in corners)
    width = (np.hypot(*(tr - tl)) + np.hypot(*(br - bl))) / 2.0
    height = (np.hypot(*(bl - tl)) + np.hypot(*(br - tr))) / 2.0
    if width < 2.0 or height < 2.0:
        raise ConfigError(f"degenerate corner quad (side lengths {width:.2f} x {height:.2f})")
    m = RECTIFY_MARGIN_PX
    dst = [(m, m), (m + width, m), (m + width, m + height), (m, m + height)]
    h = geometry.estimate_homography([tuple(tl), tuple(tr), tuple(br), tuple(bl)], dst)
    out_w = int(math.ceil(width + 2 * m))
    out_h = int(math.ceil(height + 2 * m))
    return geometry.warp_frame(frame, h, out_w, out_h), h


def _reconstruct(projection: grid.AxisProjection) -> np.ndarray:
    period = grid.estimate_period(projection)
    return grid.detect_edges(projection, period)


def _heat_color(value: float) -> str:
    level = int(round(255 * min(max(value, 0.0), 1.0)))
    return f"#{level:02x}{level:02x}{level:02x}"


def _overlay_svg(pixel_grid: grid.PixelGrid, cells: features.CellTable, defective: np.ndarray) -> str:
    xs, ys = pixel_grid.x_edges, pixel_grid.y_edges
    width, height = xs[-1] + xs[0], ys[-1] + ys[0]
    mean_l = cells.column("mean_l")
    peak = float(mean_l.max()) or 1.0
    x0, x1 = xs[cells.cols], xs[cells.cols + 1]
    y0, y1 = ys[cells.rows], ys[cells.rows + 1]
    rects = [
        f'x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}"'
        for x, y, w, h in zip(x0.tolist(), y0.tolist(), (x1 - x0).tolist(), (y1 - y0).tolist())
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="black"/>',
    ]
    for rect, level in zip(rects, (mean_l / peak).tolist()):
        parts.append(f'<rect {rect} fill="{_heat_color(level)}"/>')
    for x in xs:
        parts.append(
            f'<line x1="{x:.2f}" y1="{ys[0]:.2f}" x2="{x:.2f}" y2="{ys[-1]:.2f}" '
            'stroke="#3366cc" stroke-width="0.5"/>'
        )
    for y in ys:
        parts.append(
            f'<line x1="{xs[0]:.2f}" y1="{y:.2f}" x2="{xs[-1]:.2f}" y2="{y:.2f}" '
            'stroke="#3366cc" stroke-width="0.5"/>'
        )
    for rect, bad in zip(rects, defective.tolist()):
        if bad:
            parts.append(f'<rect {rect} fill="none" stroke="#dd2222" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _per_cell(cells: features.CellTable, defective: np.ndarray, truth: io.DefectMap | None) -> list[dict]:
    """The report's per-cell entries: grid position, descriptors and statuses."""
    columns = {
        "row": cells.rows.tolist(),
        "col": cells.cols.tolist(),
        **{name: cells.values[:, k].tolist() for k, name in enumerate(features.COLUMNS)},
        "predicted": np.where(defective, STATUS_DEFECT, STATUS_FUNCTIONAL).tolist(),
    }
    if truth is not None:
        actual = truth.defective[cells.rows, cells.cols]
        columns["truth"] = np.where(actual, STATUS_DEFECT, STATUS_FUNCTIONAL).tolist()
    return [dict(zip(columns, entry)) for entry in zip(*columns.values())]


def run(config: PipelineConfig) -> ClassificationReport:
    """Execute every stage in order and emit the artifact set.

    Raises PipelineStageError naming the failed stage; a failed run leaves
    the output directory's files as they were.
    """
    threads = _thread_count(config)

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
            corners = geometry.detect_corners(frame, config.rel_threshold)
    with _stage("rectify"):
        rectified, _ = _rectify(frame, corners)
    with _stage("project"):
        proj_x, proj_y = grid.project(rectified)
    with _stage("reconstruct_grid"):
        x_edges = _reconstruct(proj_x)
        y_edges = _reconstruct(proj_y)
        pixel_grid = grid.build_grid(x_edges, y_edges)
    with _stage("cell_metrics"):
        metrics = grid.cell_size(pixel_grid)
    with _stage("features"):
        cells = features.extract(rectified, pixel_grid)
    with _stage("classify"):
        standardized = ml.standardize_fit_transform(cells.values)
        pca = ml.pca_fit(standardized)
        projected = ml.pca_transform(pca, standardized)
        model = ml.kmeans_fit(projected, config.kmeans, threads=threads)
        mean_l = cells.column("mean_l")
        defective, degenerate = ml.label_clusters(model, mean_l)

    confusion_matrix = None
    if truth is not None:
        with _stage("confusion"):
            confusion_matrix = evaluation.confusion(defective, truth, pixel_grid)
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
        for key in ("fnr_undefined", "fpr_undefined"):
            flags[key] = confusion_section.pop(key)
    report = {
        "grid_metrics": {**asdict(metrics), "n_rows": pixel_grid.n_rows, "n_cols": pixel_grid.n_cols},
        "confusion": confusion_section,
        "les_stats": asdict(les),
        "per_cell": _per_cell(cells, defective, truth),
        "flags": flags,
    }

    out_dir = Path(config.output_dir)
    with _stage("artifacts"):
        out_dir.mkdir(parents=True, exist_ok=True)
        payloads = {
            "report.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
            "projections_x.csv": proj_x.to_csv(),
            "projections_y.csv": proj_y.to_csv(),
            "features.csv": features.to_csv(cells),
            "grid.json": pixel_grid.to_json() + "\n",
            "overlay.svg": _overlay_svg(pixel_grid, cells, defective),
        }
        # Staged inside out_dir, not beside it, so the renames never cross a
        # filesystem boundary (out_dir may be a mount point) and need no write
        # access to its parent.
        staging = Path(tempfile.mkdtemp(dir=out_dir, prefix=".staging-"))
        try:
            for name in ARTIFACT_NAMES:
                (staging / name).write_text(payloads[name], encoding="ascii")
            for name in ARTIFACT_NAMES:
                os.replace(staging / name, out_dir / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

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
