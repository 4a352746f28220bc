"""uled-inspect: grid reconstruction, defect classification, and
light-emitting-surface statistics for uLED-array luminance frames."""

__version__ = "0.1.0"

from .io import DefectMap, MeasurementFrame, read_defect_map, read_frame, write_defect_map, write_frame
from .synthgen import SynthConfig, generate
from .geometry import Homography, apply_homography, detect_corners, estimate_homography, warp_frame
from .grid import GridMetrics, PixelGrid, build_grid, cell_size, detect_edges, estimate_period, project
from .features import CellTable, extract
from .ml import (
    KMeansModel,
    PcaModel,
    kmeans_fit,
    label_clusters,
    pca_fit,
    pca_transform,
    standardize_fit_transform,
)
from .evaluation import ConfusionMatrix, LesStats, confusion, les_statistics
from .pipeline import ClassificationReport, PipelineConfig, run

__all__ = [
    "__version__",
    "MeasurementFrame",
    "DefectMap",
    "read_frame",
    "write_frame",
    "read_defect_map",
    "write_defect_map",
    "SynthConfig",
    "generate",
    "Homography",
    "estimate_homography",
    "apply_homography",
    "warp_frame",
    "detect_corners",
    "PixelGrid",
    "GridMetrics",
    "project",
    "estimate_period",
    "detect_edges",
    "build_grid",
    "cell_size",
    "CellTable",
    "extract",
    "PcaModel",
    "KMeansModel",
    "standardize_fit_transform",
    "pca_fit",
    "pca_transform",
    "kmeans_fit",
    "label_clusters",
    "ConfusionMatrix",
    "LesStats",
    "confusion",
    "les_statistics",
    "PipelineConfig",
    "ClassificationReport",
    "run",
]
