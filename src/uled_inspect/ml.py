"""Unsupervised defect classification: standardization, PCA, k-Means.

The six per-cell features mix units (cd/m^2 luminance around 10^2..10^6,
chromaticity around 10^-1), so columns are standardized before the PCA;
without that step the principal axes would be luminance-only.  The PCA is
numpy's symmetric eigen-decomposition (np.linalg.eigh) of the 6x6 population
covariance, and the classifier is two-cluster Lloyd's algorithm (functional
and defective cells) with k-means++ seeding and multiple restarts.

Restart r of a fit draws its two k-means++ uniforms as one batch from the
SplitMix64 stream seeded with rng.mix(seed, r); the n_init restart seeds are
themselves one batch, outputs 0..n_init-1 of stream(seed); the tests replay
both from the scalar reference stream in tests/test_rng.py.  Restarts are
thus independent of execution order, and a thread-parallel fit returns
bit-identical results to the sequential one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import MlError
from .rng import SplitMix64

# Lloyd stops after _MAX_ITER iterations or once the centroids move less than
# _TOL in summed squared distance.  Its _CLUSTERS are functional and defective cells.
_MAX_ITER = 300
_TOL = 1e-8
_CLUSTERS = 2


@dataclass(frozen=True)
class PcaModel:
    """Top-2 principal axes (rows, orthonormal) and their variances, descending."""

    components: np.ndarray
    explained_variance: np.ndarray


@dataclass(frozen=True)
class KMeansConfig:
    n_init: int = 100
    seed: int = 8

    def __post_init__(self):
        if self.n_init < 1:
            raise MlError(f"invalid k-means config {self}")


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
    d2 = (columns[0] - center[0]) ** 2
    for column, c in zip(columns[1:], center[1:]):
        d2 += (column - c) ** 2
    return d2


def _take_closer(labels: np.ndarray, point_d2: np.ndarray, d2: np.ndarray, j: int) -> None:
    """Move to centre j the points strictly closer to it (d2) than to their own (point_d2)."""
    labels[d2 < point_d2] = j
    np.minimum(point_d2, d2, out=point_d2)


def _assign(columns: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every point, the lowest index on ties, and its squared distance."""
    point_d2 = _squared_distances(columns, centroids[0])
    labels = np.zeros(len(point_d2), dtype=np.int64)
    for j in range(1, len(centroids)):
        _take_closer(labels, point_d2, _squared_distances(columns, centroids[j]), j)
    return labels, point_d2


def _kmeans_plusplus(columns: np.ndarray, uniforms: list[float]) -> tuple[np.ndarray, ...]:
    """k-means++ centres, one per uniform, the i-th chosen by the i-th, and their assignment:
    the running minimum weighting the draws takes each centre with _assign's step, in order."""
    n = columns.shape[1]
    centers = np.empty((len(uniforms), columns.shape[0]))
    centers[0] = columns[:, min(int(uniforms[0] * n), n - 1)]
    d2 = _squared_distances(columns, centers[0])
    labels = np.zeros(n, dtype=np.int64)
    for i, u in enumerate(uniforms[1:], start=1):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(u * n)
        else:
            idx = int(np.searchsorted(np.cumsum(d2), u * total, side="right"))
        centers[i] = columns[:, min(idx, n - 1)]
        _take_closer(labels, d2, _squared_distances(columns, centers[i]), i)
    return centers, labels, d2


def _lloyd(columns: np.ndarray, restart_seed: int):
    """One k-means++ seeded two-cluster Lloyd restart on the (d, n) C-contiguous columns of Y.

    The result is bit-identical to the row-wise form (an n x 2 distance matrix
    summed over axis 2, argmin, and Y[labels == j].mean(axis=0); kept in
    tests/test_ml.py as the oracle) for every 2 <= d <= 7:
    - the squared distance to a centre is summed over the columns in order,
      (col0 - c0)**2 + (col1 - c1)**2 + ...; numpy reduces an axis of fewer
      than 8 elements left to right, so np.sum(..., axis=1) adds the same
      terms in the same order (from 8 on it sums pairwise);
    - a point moves to centre j only when its distance is strictly smaller
      than the running minimum, so ties keep the lowest index, as argmin
      does, and the running minimum is the distance argmin picks;
    - np.bincount(labels, weights=column) adds each cluster's values in
      point order starting from 0.0, as the axis-0 sum inside
      mean(axis=0) of a C-contiguous (m, d) matrix does for d >= 2, and the
      sum is divided by the count as mean does;
    - every distance is a number, never NaN, because kmeans_fit rejects
      non-finite input; with NaN, < and argmin would disagree.
    A restart returns once an assignment repeats one with no empty cluster:
    the centroids are its means, so the update would reproduce them bit for
    bit, move them by 0 and re-assign the same partition.  Two distinct
    means keep both clusters non-empty (over the points of cluster j,
    sum(d_j - d_other) = -n_j * |c_j - c_other|^2 < 0), so a cluster empties
    only when the centres coincide; its centre moves to the farthest point.
    """
    centroids, labels, point_d2 = _kmeans_plusplus(columns, SplitMix64(restart_seed).uniform_batch(_CLUSTERS).tolist())
    previous_inertia, repeated = np.inf, False
    for _ in range(_MAX_ITER):
        inertia = float(point_d2.sum())
        if inertia > previous_inertia * (1 + 1e-12) + 1e-12:
            raise MlError(f"Lloyd inertia increased from {previous_inertia!r} to {inertia!r}")
        if repeated:
            return centroids, labels, inertia
        previous_inertia = inertia

        counts = np.array([np.count_nonzero(labels == j) for j in range(_CLUSTERS)])
        present = counts > 0
        sums = np.stack([np.bincount(labels, weights=column, minlength=_CLUSTERS) for column in columns], axis=1)
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


def kmeans_fit(Y: np.ndarray, config: KMeansConfig = KMeansConfig(), threads: int = 1) -> KMeansModel:
    """Best-of-n_init Lloyd clustering; deterministic for a given (Y, config).

    Restarts may run on a thread pool, in batches of `threads`.  Their
    results are taken in restart order, and only the best so far is kept: a
    restart wins only with a strictly lower inertia, so ties go to the lowest
    restart index and the result is identical to a sequential run.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise MlError(f"k-means needs a 2D matrix with at least one column, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise MlError("k-means input contains non-finite values")
    if Y.shape[0] < _CLUSTERS:
        raise MlError(f"k-means needs at least {_CLUSTERS} points, got {Y.shape[0]}")

    seeds = SplitMix64(config.seed).raw_batch(config.n_init).tolist()
    columns = np.ascontiguousarray(Y.T)

    run = partial(_lloyd, columns)

    # min keeps the first of equal minima and holds one item at a time.  The
    # pool gets the restarts `threads` at a time, the next batch only once
    # every result of the last one is taken, so no results pile up.
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = (pool.map(run, seeds[i : i + threads]) for i in range(0, len(seeds), threads))
            centroids, labels, inertia = min(chain.from_iterable(batches), key=itemgetter(2))
    else:
        centroids, labels, inertia = min(map(run, seeds), key=itemgetter(2))
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
