from itertools import combinations

import numpy as np
import pytest

from uled_inspect import ml
from uled_inspect.errors import MlError
from uled_inspect.ml import (
    KMeansConfig,
    kmeans_fit,
    label_clusters,
    pca_fit,
    pca_transform,
    standardize_fit_transform,
)
from test_rng import reference_raw, reference_uniforms


def exhaustive_two_partition_minimum(Y):
    """Brute force over every 2-partition; the independent k-means oracle."""
    n = len(Y)
    best = np.inf
    best_mask = None
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(subset)] = True
            inertia = 0.0
            for part in (mask, ~mask):
                pts = Y[part]
                centroid = pts.mean(axis=0)
                inertia += float(((pts - centroid) ** 2).sum())
            if inertia < best:
                best, best_mask = inertia, mask
    return best, best_mask


def reference_kmeans_plusplus(Y, k, restart_seed):
    uniforms = reference_uniforms(restart_seed, k)
    n = Y.shape[0]
    centers = np.empty((k, Y.shape[1]))
    first = min(int(uniforms[0] * n), n - 1)
    centers[0] = Y[first]
    d2 = np.sum((Y - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        u = uniforms[i]
        if total <= 0.0:
            idx = min(int(u * n), n - 1)
        else:
            idx = int(np.searchsorted(np.cumsum(d2), u * total, side="right"))
            idx = min(idx, n - 1)
        centers[i] = Y[idx]
        d2 = np.minimum(d2, np.sum((Y - centers[i]) ** 2, axis=1))
    return centers


def reference_lloyd(Y, k, restart_seed, max_iter, tol):
    """The row-wise restart ml._lloyd replaced: the full n x k distance
    matrix, argmin, and one boolean-mask mean per cluster.  Returns
    (centroids, labels, inertia, whether a cluster ever came out empty)."""
    centroids = reference_kmeans_plusplus(Y, k, restart_seed)
    emptied = False
    for _ in range(max_iter):
        d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(len(Y)), labels]
        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = Y[members].mean(axis=0)
        empties = [j for j in range(k) if not np.any(labels == j)]
        if empties:
            emptied = True
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
    return centroids, labels, inertia, emptied


def scores_like_dense(n=21_904, outliers=0.03, seed=21):
    """A 2-d cloud shaped like the PCA scores of a dense frame: an
    anisotropic functional population and ~3% far outliers (the defects)."""
    rng = np.random.default_rng(seed)
    m = int(round(n * outliers))
    cloud = rng.normal(size=(n - m, 2)) * [1.0, 0.35]
    far = rng.normal(size=(m, 2)) * [0.6, 0.2] + [-24.0, 3.0]
    return rng.permutation(np.concatenate([cloud, far]))


# ---------------------------------------------------------------- standardize


def test_standardize_two_point_column():
    X = np.array([[1.0], [3.0]])
    Z = standardize_fit_transform(X)
    assert Z[:, 0].tolist() == [-1.0, 1.0]


def test_standardize_constant_column_scale_one():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    Z = standardize_fit_transform(X)
    assert np.all(Z[:, 0] == 0.0)


def test_standardize_idempotent():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 6)) * rng.uniform(0.5, 20, 6) + rng.uniform(-5, 5, 6)
    Z = standardize_fit_transform(X)
    Z2 = standardize_fit_transform(Z)
    assert np.abs(Z2 - Z).max() < 1e-9


def test_standardize_rejects_small_or_bad_input():
    with pytest.raises(MlError):
        standardize_fit_transform(np.ones((1, 6)))
    with pytest.raises(MlError):
        standardize_fit_transform(np.array([[1.0, np.nan], [2.0, 3.0]]))


# ------------------------------------------------------------------------ pca


def test_pca_rank_one_line():
    rng = np.random.default_rng(1)
    t = rng.normal(size=200)
    Z = np.zeros((200, 6))
    Z[:, 0] = t
    Z[:, 1] = 2.0 * t
    model = pca_fit(Z)
    expected = np.array([1.0, 2.0, 0, 0, 0, 0]) / np.sqrt(5.0)
    assert np.abs(model.components[0] - expected).max() < 1e-9
    assert model.explained_variance[1] < 1e-18 * max(model.explained_variance[0], 1.0)


def test_pca_sign_convention():
    rng = np.random.default_rng(2)
    t = rng.normal(size=100)
    Z = np.zeros((100, 6))
    Z[:, 2] = -3.0 * t
    Z[:, 3] = t
    model = pca_fit(Z)
    peak = np.argmax(np.abs(model.components[0]))
    assert model.components[0][peak] > 0


def test_pca_isotropic_plane():
    rng = np.random.default_rng(5)
    Z = np.zeros((10_000, 6))
    Z[:, 0] = rng.normal(size=10_000)
    Z[:, 1] = rng.normal(size=10_000)
    model = pca_fit(Z)
    # components span coords 1-2 within 5 degrees
    for row in model.components:
        in_plane = np.hypot(row[0], row[1])
        assert in_plane > np.cos(np.radians(5.0))
    ratio = model.explained_variance[0] / model.explained_variance[1]
    assert 1.0 <= ratio < 1.1


def test_pca_matches_dense_eigensolver():
    # Reference from an SVD of the centred matrix, not from an eigensolver:
    # its right singular vectors are the principal axes and s**2 / n their
    # population variances.
    rng = np.random.default_rng(7)
    for _ in range(20):
        Z = rng.normal(size=(50, 6)) @ np.diag(rng.uniform(0.1, 3.0, 6))
        model = pca_fit(Z)
        centered = Z - Z.mean(axis=0)
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        for i in range(2):
            reference = vt[i]
            got = model.components[i]
            assert min(np.abs(got - reference).max(), np.abs(got + reference).max()) < 1e-9
            assert abs(model.explained_variance[i] - singular[i] ** 2 / len(Z)) < 1e-9
        assert np.abs(model.components @ model.components.T - np.eye(2)).max() < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pca_rejects_non_finite_input(bad):
    Z = np.random.default_rng(8).normal(size=(20, 6))
    Z[3, 2] = bad
    with pytest.raises(MlError, match="non-finite"):
        pca_fit(Z)


def test_pca_descending_variance_and_min_samples():
    rng = np.random.default_rng(9)
    model = pca_fit(rng.normal(size=(30, 6)))
    assert model.explained_variance[0] >= model.explained_variance[1] >= 0.0
    with pytest.raises(MlError):
        pca_fit(rng.normal(size=(2, 6)))


def test_pca_transform_zero_matrix():
    model = pca_fit(np.random.default_rng(0).normal(size=(20, 6)))
    Y = pca_transform(model, np.zeros((4, 6)))
    assert np.all(Y == 0.0)


def test_pca_transform_components_give_identity():
    model = pca_fit(np.random.default_rng(1).normal(size=(30, 6)))
    Y = pca_transform(model, model.components)
    assert np.abs(Y - np.eye(2)).max() < 1e-9


def test_pca_transform_variance_matches_explained():
    rng = np.random.default_rng(4)
    Z = standardize_fit_transform(rng.normal(size=(300, 6)) * rng.uniform(0.2, 5, 6))
    model = pca_fit(Z)
    Y = pca_transform(model, Z)
    variances = Y.var(axis=0)
    assert np.abs(variances - model.explained_variance).max() < 1e-6


def test_pca_transform_dimension_mismatch():
    model = pca_fit(np.random.default_rng(2).normal(size=(20, 6)))
    with pytest.raises(MlError):
        pca_transform(model, np.zeros((3, 5)))


# --------------------------------------------------------------------- kmeans


def test_kmeans_two_separated_pairs():
    Y = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    model = kmeans_fit(Y, KMeansConfig(k=2, n_init=10, seed=8))
    centroids = sorted(model.centroids.tolist())
    assert centroids == [[0.0, 0.5], [10.0, 0.5]]
    assert model.inertia == 1.0
    assert model.labels[0] == model.labels[1] != model.labels[2] == model.labels[3]


def test_kmeans_n_equals_k():
    Y = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    model = kmeans_fit(Y, KMeansConfig(k=3, n_init=5, seed=1))
    assert model.inertia == 0.0
    assert sorted(model.labels.tolist()) == [0, 1, 2]


def test_kmeans_identical_points():
    Y = np.ones((6, 2))
    model = kmeans_fit(Y, KMeansConfig(k=2, n_init=3, seed=2))
    assert model.inertia == 0.0


def test_kmeans_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        Y = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0)
        model = kmeans_fit(Y, KMeansConfig(k=2, n_init=100, seed=8))
        best, best_mask = exhaustive_two_partition_minimum(Y)
        same_partition = (
            np.array_equal(model.labels.astype(bool), best_mask)
            or np.array_equal(~model.labels.astype(bool), best_mask)
        )
        assert same_partition or abs(model.inertia - best) <= 1e-9 * max(best, 1.0)


def test_kmeans_parallel_equals_sequential():
    rng = np.random.default_rng(12)
    small = np.concatenate([rng.normal(size=(120, 2)), rng.normal(size=(40, 2)) + 12.0])
    # at benchmark size every restart runs long enough to overlap the others
    for Y in (small, scores_like_dense()):
        sequential = kmeans_fit(Y, KMeansConfig(), threads=1)
        parallel = kmeans_fit(Y, KMeansConfig(), threads=4)
        assert np.array_equal(sequential.centroids, parallel.centroids)
        assert np.array_equal(sequential.labels, parallel.labels)
        assert sequential.inertia == parallel.inertia


def lloyd_oracle_cases():
    rng = np.random.default_rng(15)
    dense = scores_like_dense()
    six_d = rng.normal(size=(2_000, 6)) * rng.uniform(0.2, 30.0, 6) + rng.uniform(-50.0, 50.0, 6)
    # three distinct points: a fourth seed repeats one, so a cluster empties
    duplicates = np.repeat([[0.0, 0.0], [5.0, 5.0], [9.0, -1.0]], [50, 30, 20], axis=0)
    return {
        "dense_k2": (dense, 2, 12, False),
        "dense_k3": (dense, 3, 6, False),
        "dense_k4": (dense, 4, 4, False),
        "six_d_k3": (six_d, 3, 20, False),
        "duplicates_k4": (duplicates, 4, 20, True),
        "n_equals_k": (np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]]), 3, 20, False),
    }


@pytest.mark.parametrize("case", list(lloyd_oracle_cases()))
def test_lloyd_matches_row_wise_reference_bit_for_bit(case):
    Y, k, restarts, must_empty = lloyd_oracle_cases()[case]
    columns = np.ascontiguousarray(Y.T)
    emptied = False
    for r, seed in enumerate(reference_raw(8, restarts)):
        centroids, labels, inertia = ml._lloyd(columns, k, seed)
        ref_centroids, ref_labels, ref_inertia, ref_emptied = reference_lloyd(Y, k, seed, 300, 1e-8)
        assert centroids.tobytes() == ref_centroids.tobytes(), r
        assert labels.tobytes() == ref_labels.tobytes(), r
        assert inertia == ref_inertia, r
        emptied |= ref_emptied
    assert emptied or not must_empty


def test_kmeans_deterministic_across_calls():
    rng = np.random.default_rng(13)
    Y = rng.normal(size=(80, 2))
    a = kmeans_fit(Y, KMeansConfig(n_init=20, seed=8))
    b = kmeans_fit(Y, KMeansConfig(n_init=20, seed=8))
    assert np.array_equal(a.centroids, b.centroids) and a.inertia == b.inertia


def test_kmeans_input_validation():
    with pytest.raises(MlError):
        kmeans_fit(np.zeros((1, 2)), KMeansConfig(k=2))
    with pytest.raises(MlError):
        kmeans_fit(np.array([[1.0, np.inf], [0.0, 0.0]]), KMeansConfig(k=2))


def test_kmeans_inertia_is_assignment_consistent():
    rng = np.random.default_rng(14)
    Y = rng.normal(size=(50, 2))
    model = kmeans_fit(Y, KMeansConfig(n_init=5, seed=3))
    d2 = ((Y[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
    assert model.inertia == pytest.approx(d2.min(axis=1).sum(), rel=1e-12)
    assert np.array_equal(model.labels, d2.argmin(axis=1))


# ------------------------------------------------------------- label_clusters


def test_label_clusters_brightness_ordering():
    mean_l = np.array([280e4, 281e4, 5e4, 6e4])
    model = ml.KMeansModel(
        centroids=np.array([[0.0, 0.0], [50.0, 0.0]]),
        labels=np.array([0, 0, 1, 1]),
        inertia=1.0,
    )
    defective, degenerate = label_clusters(model, mean_l)
    assert defective.tolist() == [False, False, True, True]
    assert not degenerate


def test_label_clusters_all_one_cluster_degenerate():
    mean_l = np.array([10.0, 10.0, 10.0])
    model = ml.KMeansModel(
        centroids=np.array([[0.0, 0.0], [0.0, 0.0]]),
        labels=np.zeros(3, dtype=np.int64),
        inertia=0.0,
    )
    defective, degenerate = label_clusters(model, mean_l)
    assert degenerate and defective.tolist() == [False] * 3


def test_label_clusters_weak_separation_degenerate():
    # centroids closer than SEPARATION_FACTOR * rms spread: the cut runs
    # through one population, so everything stays functional
    mean_l = np.array([10.0, 11.0, 12.0, 13.0])
    model = ml.KMeansModel(
        centroids=np.array([[0.0, 0.0], [1.0, 0.0]]),
        labels=np.array([0, 0, 1, 1]),
        inertia=4.0 * 1.0,
    )
    defective, degenerate = label_clusters(model, mean_l)
    assert degenerate and defective.tolist() == [False] * 4


def test_label_partition_invariant_under_luminance_scale():
    rng = np.random.default_rng(20)
    bright = rng.normal(100.0, 5.0, size=120)
    dark = rng.normal(2.0, 0.1, size=8)
    means = np.concatenate([bright, dark])

    def classify(scale):
        values = np.column_stack([
            means * scale, (means + 1) * scale, np.maximum(means - 1, 0.0) * scale,
            np.full_like(means, 0.4 * scale), np.full_like(means, 0.31), np.full_like(means, 0.32),
        ])
        Z = standardize_fit_transform(values)
        model = pca_fit(Z)
        Y = pca_transform(model, Z)
        km = kmeans_fit(Y, KMeansConfig(n_init=20, seed=8))
        return label_clusters(km, values[:, 0])[0]

    assert classify(1.0).tolist() == classify(1000.0).tolist()
    assert np.count_nonzero(classify(1.0)) == 8
