"""Unsupervised defect classification: standardization, PCA, k-Means.

The six per-cell features mix units (cd/m^2 luminance around 10^2..10^6,
chromaticity around 10^-1), so columns are standardized before the PCA;
without that step the principal axes would be luminance-only.  The PCA is
numpy's symmetric eigen-decomposition (np.linalg.eigh) of the 6x6 population
covariance, and the classifier is two-cluster Lloyd's algorithm (functional
and defective cells) on the two PCA score columns.

The best two-cluster partition is a threshold split along some direction
(Inaba, Katoh & Imai 1994), so a fit starts Lloyd from the best split along
each of _DIRECTIONS angles and keeps the lowest inertia.  It draws no random
numbers and runs on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import MlError

# Lloyd stops after _MAX_ITER iterations or once the centroids move less than
# _TOL in summed squared distance.  Its _CLUSTERS are functional and defective
# cells.  A fit starts it once in each of _DIRECTIONS directions, from a cut at
# one of the edges of _BINS equal-width bins.
_MAX_ITER = 300
_TOL = 1e-8
_CLUSTERS = 2
_DIRECTIONS = 100
_BINS = 64


@dataclass(frozen=True)
class PcaModel:
    """Top-2 principal axes (rows, orthonormal) and their variances, descending."""

    components: np.ndarray
    explained_variance: np.ndarray


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float


def standardize_fit_transform(X) -> np.ndarray:
    """Center each column and scale it to unit population std.

    Zero-variance columns become all-zero (they keep scale 1), so constant
    features (e.g. the 0.5 chroma fill of luminance-only frames) drop out of
    the analysis instead of poisoning it.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise MlError(f"standardization needs a 2D matrix with n >= 2 rows, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise MlError("feature matrix contains non-finite values")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    return (X - mean) / scale


def pca_fit(Z: np.ndarray) -> PcaModel:
    """Fit the two dominant principal axes of the population covariance of Z.

    Sign convention: each component's largest-magnitude entry is positive.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 3:
        raise MlError(f"PCA needs n >= 3 samples, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise MlError("PCA input contains non-finite values")
    centered = Z - Z.mean(axis=0)
    cov = centered.T @ centered / Z.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")[:2]
    components = eigenvectors[:, order].T.copy()
    for row in components:
        peak = int(np.argmax(np.abs(row)))
        if row[peak] < 0:
            row *= -1.0
    variance = np.maximum(eigenvalues[order], 0.0)
    components.setflags(write=False)
    variance.setflags(write=False)
    return PcaModel(components=components, explained_variance=variance)


def pca_transform(model: PcaModel, Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.components.shape[1]:
        raise MlError(
            f"cannot project shape {Z.shape} with {model.components.shape[1]}-feature components"
        )
    return Z @ model.components.T


def _squared_distances(columns: np.ndarray, center: np.ndarray) -> np.ndarray:
    return (columns[0] - center[0]) ** 2 + (columns[1] - center[1]) ** 2


def _assign(columns: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every point, centroid 0 on ties, and its squared distance."""
    point_d2 = _squared_distances(columns, centroids[0])
    d2 = _squared_distances(columns, centroids[1])
    labels = (d2 < point_d2).astype(np.int64)
    np.minimum(point_d2, d2, out=point_d2)
    return labels, point_d2


def _cluster_sums(columns: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point count and column sums of each cluster, added in point order."""
    ones = np.count_nonzero(labels)
    sums = [np.bincount(labels, weights=column, minlength=_CLUSTERS) for column in columns]
    return np.array([len(labels) - ones, ones]), np.stack(sums, axis=1)


def _threshold_split(columns: np.ndarray, angle: float) -> np.ndarray:
    """Labels of the lowest-inertia cut at a bin edge of the projection onto angle.

    The projection goes into _BINS equal-width bins, its lowest value in the
    first and its highest in the last, so every edge has points on both
    sides.  The lowest inertia is the largest |S_L - n_L m|^2 / (n_L n_R), from
    the point sum S_L and count n_L left of the edge and the mean m: one
    np.bincount per column, no sort (exact 1-D k-means, Wang & Song 2011, on
    bins).  The first largest wins, and the points right of it are cluster
    1; if all points project to one value, the last point is.
    """
    projection = math.cos(angle) * columns[0] + math.sin(angle) * columns[1]
    low, high, n = projection.min(), projection.max(), len(projection)
    if high == low:
        return np.repeat(np.arange(_CLUSTERS), [n - 1, 1])
    bins = np.minimum(((projection - low) / (high - low) * _BINS).astype(np.int64), _BINS - 1)
    n_left = np.cumsum(np.bincount(bins, minlength=_BINS))[:-1]
    between = np.zeros(_BINS - 1)
    for column in columns:
        s_left = np.cumsum(np.bincount(bins, weights=column, minlength=_BINS))
        between += (s_left[:-1] - n_left * (s_left[-1] / n)) ** 2
    between /= n_left * (n - n_left)
    return (bins > np.argmax(between)).astype(np.int64)


def _lloyd(columns: np.ndarray, start: np.ndarray):
    """Two-cluster Lloyd on the (2, n) C-contiguous columns of Y, from the
    means of the partition `start` (labels 0 and 1, neither cluster empty).

    The result is bit-identical to the row-wise form (an n x 2 distance matrix
    summed over axis 2, argmin, and Y[labels == j].mean(axis=0); kept in
    tests/test_ml.py as the oracle):
    - a squared distance is (col0 - c0)**2 + (col1 - c1)**2, the two terms
      np.sum(..., axis=1) adds, in the same order;
    - a point goes to centre 1 only when strictly closer to it, so ties
      keep centre 0, as argmin does;
    - np.bincount(labels, weights=column) adds each cluster's values in
      point order from 0.0, as mean(axis=0) of a C-contiguous (m, 2) matrix
      does, and the sum is divided by the count as mean does;
    - no distance is NaN, on which < and argmin would disagree, because
      kmeans_fit rejects non-finite input.
    A run returns once an assignment repeats one with no empty cluster (the
    start counts): its means would reproduce the centroids bit for bit.
    Two distinct means keep both clusters non-empty (over the points of
    cluster j, sum(d_j - d_other) = -n_j * |c_j - c_other|^2 < 0), so a
    cluster empties only when the centres coincide; its centre moves to the
    farthest point.
    """
    counts, sums = _cluster_sums(columns, start)
    centroids = sums / counts[:, None]
    labels, point_d2 = _assign(columns, centroids)
    previous_inertia, repeated = np.inf, np.array_equal(labels, start)
    for _ in range(_MAX_ITER):
        inertia = float(point_d2.sum())
        if inertia > previous_inertia * (1 + 1e-12) + 1e-12:
            raise MlError(f"Lloyd inertia increased from {previous_inertia!r} to {inertia!r}")
        if repeated:
            return centroids, labels, inertia
        previous_inertia = inertia

        counts, sums = _cluster_sums(columns, labels)
        present = counts > 0
        new_centroids = centroids.copy()
        new_centroids[present] = sums[present] / counts[present, None]
        if not present.all():
            new_centroids[~present] = columns[:, np.argmax(point_d2)]
        movement = float(np.sum((new_centroids - centroids) ** 2))
        centroids = new_centroids
        new_labels, point_d2 = _assign(columns, centroids)
        repeated = present.all() and np.array_equal(new_labels, labels)
        labels = new_labels
        if movement < _TOL:
            break
    return centroids, labels, float(point_d2.sum())


def kmeans_fit(Y: np.ndarray, threads: int = 1) -> KMeansModel:
    """The lowest-inertia Lloyd run of _DIRECTIONS, run r from the best
    threshold split along the angle r * pi / _DIRECTIONS.

    Runs go in order on the calling thread and min keeps the first of equal
    inertias, so ties go to the lowest index; min holds one result at a time.
    `threads` is accepted and has no effect (PipelineConfig.threads passes it,
    the benchmark harness sets 2 and acceptance criterion 7 compares 1 with
    4): a run is a long series of small numpy calls under the interpreter
    lock, so a thread pool only slowed the fit.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != 2:
        raise MlError(f"k-means needs an (n, 2) matrix of scores, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise MlError("k-means input contains non-finite values")
    if Y.shape[0] < _CLUSTERS:
        raise MlError(f"k-means needs at least {_CLUSTERS} points, got {Y.shape[0]}")

    angles = [r * math.pi / _DIRECTIONS for r in range(_DIRECTIONS)]
    columns = np.ascontiguousarray(Y.T)

    def run(angle):
        return _lloyd(columns, _threshold_split(columns, angle))

    centroids, labels, inertia = min(map(run, angles), key=itemgetter(2))
    centroids.setflags(write=False)
    labels.setflags(write=False)
    return KMeansModel(centroids=centroids, labels=labels, inertia=inertia)


SEPARATION_FACTOR = 4.0


def label_clusters(model: KMeansModel, mean_l: np.ndarray) -> tuple[np.ndarray, bool]:
    """Mark the cells of the dimmer of the two clusters defective, by average cell brightness.

    The cluster with the higher average of mean_l is functional, cluster 0 on
    a tie.  The split is degenerate when one cluster holds every cell or the
    centroid distance is below SEPARATION_FACTOR times the RMS within-cluster
    distance: k-means always cuts the cloud in two, and on a defect-free
    surface that cut runs through the middle of the functional population.  A
    degenerate split marks no cell defective and sets the flag.

    Returns:
        (defective mask per cell, degenerate_flag)
    """
    mean_l = np.asarray(mean_l, dtype=np.float64)
    if len(model.centroids) != _CLUSTERS:
        raise MlError(f"{len(model.centroids)} centroids, not {_CLUSTERS}")
    if len(model.labels) != len(mean_l):
        raise MlError(f"{len(model.labels)} labels for {len(mean_l)} cells")
    in_1 = model.labels == 1
    distance = float(np.linalg.norm(model.centroids[0] - model.centroids[1]))
    if in_1.all() or not in_1.any() or distance < SEPARATION_FACTOR * np.sqrt(model.inertia / len(in_1)):
        return np.zeros(len(mean_l), dtype=bool), True
    functional = int(mean_l[in_1].mean() > mean_l[~in_1].mean())
    return model.labels != functional, False
