"""Unsupervised defect classification: standardization, PCA, k-Means.

The six per-cell features mix units (cd/m^2 luminance around 10^2..10^6,
chromaticity around 10^-1), so columns are standardized before the PCA;
without that step the principal axes would be luminance-only.  The PCA is a
cyclic-Jacobi eigen-decomposition of the 6x6 population covariance, and the
classifier is Lloyd's algorithm with k-means++ seeding and multiple restarts.

Restart r of a fit draws from a SplitMix64 stream seeded with
rng.mix(seed, r), so restarts are independent of execution order and a
thread-parallel fit returns bit-identical results to the sequential one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import MlError
from .rng import SplitMix64, mix

_JACOBI_MAX_SWEEPS = 64


@dataclass(frozen=True)
class PcaModel:
    """Top-2 principal axes (rows, orthonormal) and their variances, descending."""

    components: np.ndarray
    explained_variance: np.ndarray


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 2
    n_init: int = 100
    seed: int = 8
    max_iter: int = 300
    tol: float = 1e-8

    def __post_init__(self):
        if self.k < 1 or self.n_init < 1 or self.max_iter < 1 or self.tol < 0:
            raise MlError(f"invalid k-means config {self}")


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    config: KMeansConfig = field(default_factory=KMeansConfig)


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


def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = _JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, in
    unspecified order.  Raises MlError if the off-diagonal mass has not
    vanished after max_sweeps sweeps.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise MlError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    scale = max(float(np.abs(a).max()), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= 1e-14 * scale * n:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    raise MlError(f"Jacobi eigensolver did not converge in {max_sweeps} sweeps")


def pca_fit(Z: np.ndarray) -> PcaModel:
    """Fit the two dominant principal axes of the population covariance of Z.

    Sign convention: each component's largest-magnitude entry is positive.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 3:
        raise MlError(f"PCA needs n >= 3 samples, got shape {Z.shape}")
    centered = Z - Z.mean(axis=0)
    cov = centered.T @ centered / Z.shape[0]
    eigenvalues, eigenvectors = jacobi_eigh(cov)
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


def _kmeans_plusplus(Y: np.ndarray, k: int, stream: SplitMix64) -> np.ndarray:
    n = Y.shape[0]
    centers = np.empty((k, Y.shape[1]))
    first = min(int(stream.next_uniform() * n), n - 1)
    centers[0] = Y[first]
    d2 = np.sum((Y - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        u = stream.next_uniform()
        if total <= 0.0:
            idx = min(int(u * n), n - 1)
        else:
            idx = int(np.searchsorted(np.cumsum(d2), u * total, side="right"))
            idx = min(idx, n - 1)
        centers[i] = Y[idx]
        d2 = np.minimum(d2, np.sum((Y - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(Y: np.ndarray, k: int, restart_seed: int, max_iter: int, tol: float):
    stream = SplitMix64(restart_seed)
    centroids = _kmeans_plusplus(Y, k, stream)
    labels = np.zeros(len(Y), dtype=np.int64)
    previous_inertia = np.inf
    for _ in range(max_iter):
        d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(len(Y)), labels]
        inertia = float(point_d2.sum())
        if inertia > previous_inertia * (1 + 1e-12) + 1e-12:
            raise MlError(f"Lloyd inertia increased from {previous_inertia!r} to {inertia!r}")
        previous_inertia = inertia

        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = Y[members].mean(axis=0)
        empties = [j for j in range(k) if not np.any(labels == j)]
        if empties:
            claimable = point_d2.copy()
            for j in empties:
                far = int(np.argmax(claimable))
                new_centroids[j] = Y[far]
                claimable[far] = -np.inf
        movement = float(np.sum((new_centroids - centroids) ** 2))
        centroids = new_centroids
        if movement < tol:
            break
    d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(Y)), labels].sum())
    return centroids, labels, inertia


def kmeans_fit(Y: np.ndarray, config: KMeansConfig = KMeansConfig(), threads: int = 1) -> KMeansModel:
    """Best-of-n_init Lloyd clustering; deterministic for a given (Y, config).

    Restarts may run on a thread pool; the winner is still the lowest-inertia
    restart with ties broken by restart index, so the result is identical to a
    sequential run.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise MlError(f"k-means needs a 2D matrix, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise MlError("k-means input contains non-finite values")
    if Y.shape[0] < config.k:
        raise MlError(f"k-means needs at least k={config.k} points, got {Y.shape[0]}")

    seeds = [mix(config.seed, r) for r in range(config.n_init)]

    def run(restart_seed: int):
        return _lloyd(Y, config.k, restart_seed, config.max_iter, config.tol)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, seeds))
    else:
        results = [run(s) for s in seeds]

    best = 0
    for r in range(1, len(results)):
        if results[r][2] < results[best][2]:
            best = r
    centroids, labels, inertia = results[best]
    centroids.setflags(write=False)
    labels.setflags(write=False)
    return KMeansModel(centroids=centroids, labels=labels, inertia=inertia, config=config)


SEPARATION_FACTOR = 4.0


def label_clusters(model: KMeansModel, mean_l: np.ndarray) -> tuple[np.ndarray, bool]:
    """Mark the cells of the dimmer cluster defective, by average cell brightness.

    The cluster with the higher average of mean_l is functional.  The split is
    degenerate when all points share one cluster or, for k=2, when the
    centroid distance is below SEPARATION_FACTOR times the RMS within-cluster
    distance: k-means always cuts the cloud in two, and on a defect-free
    surface that cut runs through the middle of the functional population.  A
    degenerate split marks no cell defective and sets the flag.

    Returns:
        (defective mask per cell, degenerate_flag)
    """
    mean_l = np.asarray(mean_l, dtype=np.float64)
    if len(model.labels) != len(mean_l):
        raise MlError(f"{len(model.labels)} labels for {len(mean_l)} cells")
    all_functional = np.zeros(len(mean_l), dtype=bool)
    present = np.unique(model.labels)
    if len(present) <= 1:
        return all_functional, True
    if len(present) == 2:
        distance = float(np.linalg.norm(model.centroids[present[0]] - model.centroids[present[1]]))
        spread = float(np.sqrt(model.inertia / len(model.labels)))
        if distance < SEPARATION_FACTOR * spread:
            return all_functional, True
    averages = {int(j): float(mean_l[model.labels == j].mean()) for j in present}
    functional = max(sorted(averages), key=lambda j: averages[j])
    return model.labels != functional, False
