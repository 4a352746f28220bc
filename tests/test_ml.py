import tracemalloc
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest

from conftest import acceptance_config
from uled_inspect import io, ml, pipeline, synthgen
from uled_inspect.errors import MlError
from uled_inspect.ml import (
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


class ReferenceRun(NamedTuple):
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int  # assignments made, the one to the start's means included
    stop: str  # how the loop ended, see reference_lloyd
    small_move_relabelled: bool  # see reference_lloyd


def split_means(Y, labels):
    return np.array([Y[labels == j].mean(axis=0) for j in range(2)])


def reference_lloyd(Y, start, max_iter):
    """The row-wise Lloyd loop ml._lloyd must equal: from the partition
    `start`, one boolean-mask mean per cluster, the full n x 2 distance
    matrix and argmin, returning the last means, labels and inertia.

    stop is "repeat" when the assignment equals the one before (the start
    included), "cluster j empty" when it leaves cluster j empty, and "cap"
    when max_iter assignments ran without either.  small_move_relabelled
    is True when some update moved the centroids less than 1e-8 in summed
    squared distance and the assignment after it still changed: a loop with
    a movement tolerance would have stopped there."""
    labels, previous = start, None
    stop, small_move_relabelled = "cap", False
    for iteration in range(1, max_iter + 1):
        centroids = split_means(Y, labels)
        d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(len(Y)), new_labels].sum())
        relabelled = not np.array_equal(new_labels, labels)
        if previous is not None and relabelled and np.sum((centroids - previous) ** 2) < 1e-8:
            small_move_relabelled = True
        empty = [j for j in range(2) if not np.any(new_labels == j)]
        if not relabelled or empty:
            stop = f"cluster {empty[0]} empty" if relabelled else "repeat"
            break
        labels, previous = new_labels, centroids
    return ReferenceRun(centroids, new_labels, inertia, iteration, stop, small_move_relabelled)


def tolerance_lloyd_inertia(Y, centroids):
    """The Lloyd loop of the k-means++ fit ml.kmeans_fit once made, from
    `centroids`: at most 300 updates, ending once the centroids move less
    than 1e-8 in summed squared distance, an emptied cluster's centre moved
    to the point farthest from its own; the inertia of one more assignment."""
    for _ in range(300):
        d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        new_centroids = centroids.copy()
        for j in range(2):
            members = labels == j
            new_centroids[j] = Y[members].mean(axis=0) if members.any() else Y[np.argmax(d2.min(axis=1))]
        movement = float(np.sum((new_centroids - centroids) ** 2))
        centroids = new_centroids
        if movement < 1e-8:
            break
    d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return float(d2.min(axis=1).sum())


def reference_best_of_kmeans_plusplus(Y, restarts=100, seed=8):
    """The lowest inertia of `restarts` k-means++ seeded Lloyd runs, restart r
    seeded with output r of the stream of `seed`: the fit ml.kmeans_fit made
    before it swept directions."""
    return min(tolerance_lloyd_inertia(Y, reference_kmeans_plusplus(Y, 2, s))
               for s in reference_raw(seed, restarts))


def directions(n):
    return [r * np.pi / n for r in range(n)]


def direction_splits(Y, n):
    columns = np.ascontiguousarray(Y.T)
    return [ml._threshold_split(columns, angle) for angle in directions(n)]


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
    model = kmeans_fit(Y)
    centroids = sorted(model.centroids.tolist())
    assert centroids == [[0.0, 0.5], [10.0, 0.5]]
    assert model.inertia == 1.0
    assert model.labels[0] == model.labels[1] != model.labels[2] == model.labels[3]


def test_kmeans_n_equals_k():
    Y = np.array([[0.0, 0.0], [5.0, 5.0]])
    model = kmeans_fit(Y)
    assert model.inertia == 0.0
    assert sorted(model.labels.tolist()) == [0, 1]


def test_kmeans_identical_points():
    Y = np.ones((6, 2))
    model = kmeans_fit(Y)
    assert model.inertia == 0.0


def test_kmeans_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        Y = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0)
        model = kmeans_fit(Y)
        best, best_mask = exhaustive_two_partition_minimum(Y)
        same_partition = (
            np.array_equal(model.labels.astype(bool), best_mask)
            or np.array_equal(~model.labels.astype(bool), best_mask)
        )
        assert same_partition or abs(model.inertia - best) <= 1e-9 * max(best, 1.0)


def test_kmeans_parallel_equals_sequential():
    rng = np.random.default_rng(12)
    small = np.concatenate([rng.normal(size=(120, 2)), rng.normal(size=(40, 2)) + 12.0])
    # threads is accepted with no effect: both fits sweep the directions in
    # order on the calling thread, at a small and at benchmark size
    for Y in (small, scores_like_dense()):
        sequential = kmeans_fit(Y, threads=1)
        parallel = kmeans_fit(Y, threads=4)
        assert np.array_equal(sequential.centroids, parallel.centroids)
        assert np.array_equal(sequential.labels, parallel.labels)
        assert sequential.inertia == parallel.inertia


@pytest.mark.parametrize("threads", [1, 2])
def test_kmeans_peak_does_not_grow_with_restarts(threads):
    rng = np.random.default_rng(16)
    n = 20_000
    Y = np.concatenate([rng.normal(size=(n // 2, 2)), rng.normal(size=(n // 2, 2)) + 6.0])
    expected = kmeans_fit(Y, threads=1)

    tracemalloc.start()
    try:
        model = kmeans_fit(Y, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # A restart's working set is a few float64 and int64 columns of n; the
    # sequential sweep holds one restart's at a time and keeps only the best
    # restart's labels, not one array per restart.  The peak reads about 10
    # columns at either thread count; keeping all 100 results read about 108.
    assert peak < 32 * 8 * n, f"{peak / (8 * n):.1f} columns of n"
    assert model.centroids.tobytes() == expected.centroids.tobytes()
    assert model.labels.tobytes() == expected.labels.tobytes()
    assert model.inertia == expected.inertia


def lloyd_oracle_cases():
    """name -> (Y, starting partitions, iteration cap, the stop or tag (see
    reference_lloyd) one run at least must take, or None)."""
    rng = np.random.default_rng(15)
    dense = scores_like_dense()
    # a long thin cloud: splits across it start far from a fixed point
    stretched = rng.normal(size=(2_000, 2)) * [30.0, 0.2] + [-40.0, 25.0]
    # one position: every direction projects it to one value and the last
    # point alone starts as cluster 1.  The 29 others average to a few ulps
    # off the point, so every point is strictly nearer the lone point's
    # centre and cluster 0 comes out empty.
    identical = np.repeat([[0.1, -0.7]], 30, axis=0)
    # the same with values whose mean is exact: the centres coincide and
    # every point ties into cluster 0
    coinciding = np.repeat([[0.5, -0.25]], 30, axis=0)
    # one small blob: labels still change after the centroids move < 1e-8,
    # where a movement tolerance would have stopped
    small_blob = rng.normal(size=(2_000, 2)) * 0.01
    two = np.array([[0.0, 0.0], [5.0, 5.0]])
    # the start's means are -1 and 1, so its four points at 0 tie
    ties = np.column_stack([[-3.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 3.0], np.zeros(8)])
    return {
        "dense_k2": (dense, direction_splits(dense, 12), 300, "repeat"),
        "identical": (identical, direction_splits(identical, 6), 300, "cluster 0 empty"),
        "coinciding": (coinciding, direction_splits(coinciding, 6), 300, "cluster 1 empty"),
        "n_equals_k": (two, direction_splits(two, 20), 300, None),
        "small_blob": (small_blob, direction_splits(small_blob, 12), 300, "small_move_relabelled"),
        "cap_1": (stretched, direction_splits(stretched, 6), 1, "cap"),
        "cap_2": (stretched, direction_splits(stretched, 6), 2, "cap"),
        "ties": (ties, [np.repeat([0, 1], 4)], 300, None),
    }


@pytest.mark.parametrize("case", list(lloyd_oracle_cases()))
def test_lloyd_matches_row_wise_reference_bit_for_bit(case, monkeypatch):
    Y, splits, max_iter, must_take = lloyd_oracle_cases()[case]
    monkeypatch.setattr(ml, "_MAX_ITER", max_iter)
    columns = np.ascontiguousarray(Y.T)
    taken = set()
    for r, split in enumerate(splits):
        centroids, labels, inertia = ml._lloyd(columns, split)
        ref = reference_lloyd(Y, split, max_iter)
        assert centroids.tobytes() == ref.centroids.tobytes(), r
        assert labels.tobytes() == ref.labels.tobytes(), r
        assert inertia == ref.inertia, r
        taken |= {ref.stop, "small_move_relabelled"} if ref.small_move_relabelled else {ref.stop}
    assert must_take is None or must_take in taken, taken


def test_threshold_split_is_the_best_bin_edge_cut():
    # Row-wise: every cut at an edge of the _BINS bins of the projection,
    # its inertia from the two boolean-mask means; the first lowest wins.
    rng = np.random.default_rng(17)
    clouds = [rng.normal(size=(300, 2)) * [3.0, 0.5], scores_like_dense(n=2_000),
              np.concatenate([rng.normal(size=(200, 2)), rng.normal(size=(20, 2)) + [4.0, -3.0]])]
    for Y in clouds:
        columns = np.ascontiguousarray(Y.T)
        for angle in directions(16):
            projection = np.cos(angle) * Y[:, 0] + np.sin(angle) * Y[:, 1]
            low, high = projection.min(), projection.max()
            bins = np.minimum(((projection - low) / (high - low) * ml._BINS).astype(int), ml._BINS - 1)
            inertias = []
            for edge in range(ml._BINS - 1):
                right = bins > edge
                inertias.append(sum(((Y[part] - Y[part].mean(axis=0)) ** 2).sum() for part in (~right, right)))
            split = ml._threshold_split(columns, angle)
            best = np.flatnonzero(np.isclose(inertias, min(inertias), rtol=1e-12, atol=0.0))[0]
            assert split.tolist() == (bins > best).tolist(), angle


def test_lloyd_computes_each_assignment_once(monkeypatch):
    # An iteration takes the means of the labels and assigns the points to
    # them once, the start's means being the first, and an exit ends the run
    # with no further update or assignment: 2 distance columns per iteration.
    calls = []
    squared_distances = ml._squared_distances

    def counted(*args):
        calls.append(None)
        return squared_distances(*args)

    monkeypatch.setattr(ml, "_squared_distances", counted)
    # On the dense-like scores every start is a fixed point already; a round
    # cloud takes several updates from most directions.
    round_cloud = np.random.default_rng(18).normal(size=(3_000, 2)) * [1.0, 0.8]
    iterations = set()
    for Y in (scores_like_dense(), round_cloud):
        columns = np.ascontiguousarray(Y.T)
        for angle in directions(8):
            split = ml._threshold_split(columns, angle)
            calls.clear()
            ml._lloyd(columns, split)
            ref = reference_lloyd(Y, split, 300)
            assert len(calls) == 2 * ref.iterations, (angle, ref.stop)
            iterations.add(ref.iterations)
    assert 1 in iterations and max(iterations) > 2, iterations


def test_kmeans_is_invariant_under_power_of_two_scaling():
    # Scaling by a power of two is exact in floating point, in the scores,
    # their projections, means and squared distances alike, so no exit of a
    # Lloyd run may depend on the scale: the fit keeps its labels and scales
    # its inertia by exactly s**2.
    differing = []
    for seed in range(32):
        rng = np.random.default_rng([19, seed])
        Y = rng.normal(size=(int(rng.integers(50, 401)), 2))
        model = kmeans_fit(Y)
        for s in (2.0 ** -14, 2.0 ** 20):
            scaled = kmeans_fit(Y * s)
            if not (np.array_equal(scaled.labels, model.labels) and scaled.inertia == s * s * model.inertia):
                differing.append((seed, s))
    assert not differing


def test_kmeans_deterministic_across_calls():
    rng = np.random.default_rng(13)
    Y = rng.normal(size=(80, 2))
    a = kmeans_fit(Y)
    b = kmeans_fit(Y)
    assert np.array_equal(a.centroids, b.centroids) and a.inertia == b.inertia


def test_kmeans_input_validation():
    with pytest.raises(MlError):
        kmeans_fit(np.zeros((1, 2)))
    with pytest.raises(MlError):
        kmeans_fit(np.array([[1.0, np.inf], [0.0, 0.0]]))
    for shape in ((5,), (5, 1), (5, 3)):
        with pytest.raises(MlError, match="shape"):
            kmeans_fit(np.zeros(shape))


# The map-202 pose (acceptance map 2) at the edges of the envelope: a
# brightness spread that leaves no defect cluster, and defect fractions from
# none to 40%.
ENVELOPE = {
    "lum_sigma_20": dict(lum_sigma=20.0),
    "defect_fraction_0": dict(defect_fraction=0.0),
    "defect_fraction_0.25": dict(defect_fraction=0.25),
    "defect_fraction_0.4": dict(defect_fraction=0.4),
}


@pytest.mark.parametrize("case", ENVELOPE)
def test_kmeans_is_no_worse_than_best_of_100_kmeans_plusplus(case, tmp_path, monkeypatch):
    frame, _, _ = synthgen.generate(
        acceptance_config(rotation_deg=1.0, perspective_strength=0.012, seed=202, **ENVELOPE[case])
    )
    io.write_frame(frame, tmp_path / "frame.ulf")
    fits = []
    fit = ml.kmeans_fit

    def recorded(Y, *args, **kwargs):
        fits.append((Y, fit(Y, *args, **kwargs)))
        return fits[-1][1]

    monkeypatch.setattr(ml, "kmeans_fit", recorded)
    pipeline.run(pipeline.PipelineConfig(str(tmp_path / "frame.ulf"), str(tmp_path / "out")))
    (Y, model), = fits
    assert model.inertia <= reference_best_of_kmeans_plusplus(Y)


def test_kmeans_inertia_is_assignment_consistent():
    rng = np.random.default_rng(14)
    Y = rng.normal(size=(50, 2))
    model = kmeans_fit(Y)
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


def test_label_clusters_rejects_other_cluster_counts():
    for centroids in (np.zeros((1, 2)), np.zeros((3, 2))):
        model = ml.KMeansModel(centroids=centroids, labels=np.zeros(3, dtype=np.int64), inertia=0.0)
        with pytest.raises(MlError, match="centroids"):
            label_clusters(model, np.ones(3))


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
        km = kmeans_fit(Y)
        return label_clusters(km, values[:, 0])[0]

    assert classify(1.0).tolist() == classify(1000.0).tolist()
    assert np.count_nonzero(classify(1.0)) == 8
