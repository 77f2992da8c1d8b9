"""K-means++ seeding, Lloyd iterations, supervised escalation, assignment."""

import logging

import numpy as np
import pytest

from spectral_sift import cluster
from spectral_sift.cluster import (
    CLASS_BEE,
    CLASS_MITE,
    CLASS_OTHER,
    ClusterModel,
    EscalationError,
    _cross_product,
    _distances,
    _finish_squared_distances,
    _nearest_two,
    _summed_squares,
    _weighted_draw,
    assign,
    fit_supervised,
    kmeans_fit,
    kmeanspp_init,
    lloyd_iterations,
)
from spectral_sift.specdata import UNLABELED


def blobs(rng, centers, n_per, sigma):
    centers = np.asarray(centers, dtype=float)
    X = np.vstack([c + sigma * rng.normal(size=(n_per, centers.shape[1])) for c in centers])
    membership = np.repeat(np.arange(len(centers)), n_per)
    return X, membership


def _squared_distances(X, centroids):
    """(n, k) squared distances, row-major, as ``kernel.cdist`` computes them:
    the layout Lloyd's cluster-major blocks must match bit for bit."""
    return _finish_squared_distances(_cross_product(X, centroids),
                                     np.sum(X**2, axis=1), np.sum(centroids**2, axis=1))


def lloyd_reference(X, centroids, max_iter=300, tol=1e-6, distances=_squared_distances):
    """Lloyd with a per-cluster loop: each mean adds its members one row at a
    time in row order, and each empty cluster, in index order, takes the
    farthest point not yet claimed. Every pass computes ``distances`` of
    every row."""
    X = np.asarray(X, dtype=float)
    centroids = np.array(centroids, dtype=float)
    for _ in range(max_iter):
        sq = distances(X, centroids)
        assignment = np.argmin(sq, axis=1)
        nearest = sq[np.arange(len(X)), assignment]
        new = centroids.copy()
        for j in range(len(centroids)):
            members = X[assignment == j]
            if len(members):
                total = np.zeros(X.shape[1])
                for row in members:
                    total += row
                new[j] = total / len(members)
            else:
                far = int(np.argmax(nearest))
                new[j] = X[far]
                nearest[far] = 0.0
        movement = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if movement < tol:
            break
    sq = distances(X, centroids)
    assignment = np.argmin(sq, axis=1)
    return centroids, assignment, float(sq[np.arange(len(X)), assignment].sum())


def assert_matches_reference(X, start, **kwargs):
    got = lloyd_iterations(X, start, **kwargs)
    want = lloyd_reference(X, start, **kwargs)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    return got


def plain_squared_distances(X, centroids):
    """The expression ``_squared_distances`` evaluates in place, written out
    with its n×k temporaries."""
    sq = (np.sum(X**2, axis=1)[:, None] - 2.0 * X @ centroids.T
          + np.sum(centroids**2, axis=1)[None, :])
    return np.maximum(sq, 0.0)


class TestSquaredDistances:
    # (3, 654, 204) and (768, 654, 204): 3 pixels and a 3-row tile of a 256-column cube
    # against the 654 support spectra of a kfpls model
    @pytest.mark.parametrize("n, k, d", [(1, 5, 3), (2, 7, 4), (3, 654, 204), (257, 12, 2),
                                         (768, 654, 204)])
    def test_in_place_keeps_every_bit_of_the_plain_expression(self, n, k, d):
        rng = np.random.default_rng(n + k + d)
        X = rng.uniform(0.05, 0.8, size=(n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        centroids = rng.uniform(0.05, 0.8, size=(k, d))
        centroids[: min(n, k)] = X[: min(n, k)]  # equal rows: differences within rounding of 0
        for C in (centroids, X):  # X against itself: the training distances of kernel.cdist
            got = _squared_distances(X, C)
            assert got.tobytes() == plain_squared_distances(X, C).tobytes()
            assert got.min() >= 0.0


class TestClusterMajorDistances:
    # With a C-ordered -2C, OpenBLAS changes the last bits of some entries:
    # of points in a short tail at d >= 16 when the points are C-ordered, and
    # at k = 12 with 257 points when they are a transposed view.
    @pytest.mark.parametrize("k", [2, 3, 12])
    @pytest.mark.parametrize("d", [1, 2, 5, 16, 20])
    @pytest.mark.parametrize("m", [2, 3, 9, 257, 8193])
    def test_every_bit_of_squared_distances_transposed(self, m, d, k):
        rng = np.random.default_rng(m + d + k)
        X = rng.uniform(-1, 1, size=(m, d)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1)) + 2.0
        C = rng.uniform(-1, 1, size=(k, d))
        C[0] = X[0]  # an entry within rounding of 0, clamped
        want = np.ascontiguousarray(_squared_distances(X, C).T).tobytes()
        x_sq = np.sum(X**2, axis=1)
        for points in (X.T, np.ascontiguousarray(X.T)):
            got = _distances(points, x_sq, C)
            assert got.shape == (k, m) and got.flags.c_contiguous
            assert got.tobytes() == want
        # the same points gathered from a larger X, as Lloyd's recomputations take them
        pool = np.vstack([rng.normal(size=(5, d)), X])
        points = np.arange(5, 5 + m)
        got = _distances(pool.take(points, axis=0).T, np.sum(pool**2, axis=1)[points], C)
        assert got.tobytes() == want


class TestNearestTwo:
    @pytest.mark.parametrize("m", [2, 3, 8193])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_argmin_and_the_sorted_second(self, k, m):
        rng = np.random.default_rng(100 * k + m)
        sq = rng.uniform(0.0, 10.0, size=(k, m))
        sq[:, 0] = 7.0  # a tie across the whole column
        sq[:, 1] = 9.0  # ties among the entries above the minimum
        sq[k - 1, 1] = 1.0
        # small integers: ties at the minimum and above it, in any rows
        sq[:, 2::2] = rng.integers(0, 3, size=(k, sq[:, 2::2].shape[1]))
        closest, best, second = _nearest_two(sq.copy())
        np.testing.assert_array_equal(closest, np.argmin(sq, axis=0))
        assert best.tobytes() == sq.min(axis=0).tobytes()
        assert second.tobytes() == np.sort(sq, axis=0)[1].tobytes()

    def test_one_centroid_has_no_second(self):
        closest, best, second = _nearest_two(np.array([[3.0, 0.0, 5.0]]))
        np.testing.assert_array_equal(closest, [0, 0, 0])
        np.testing.assert_array_equal(best, [3.0, 0.0, 5.0])
        assert np.all(second == np.inf)


class TestKmeansppInit:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 12, 20])
    def test_summed_squares_against_the_row_sum(self, d):
        # below 8 columns numpy sums a row in column order, so the bits and
        # every K-means++ draw are those of np.sum((X - c)**2, axis=1); from 8
        # on its pairwise sum may differ in the last bit
        rng = np.random.default_rng(d)
        X = rng.normal(size=(1001, d)) * rng.choice([1e-3, 1.0, 1e3], size=(1001, 1))
        c = X[3]
        want = np.sum((X - c) ** 2, axis=1)
        got = _summed_squares(np.ascontiguousarray(X.T), c)
        if d < 8:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=d * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("design", ["dense", "zeros", "one-non-zero", "tiny-and-huge"])
    def test_weighted_draw_is_rng_choice(self, design):
        # the draw of rng.choice(n, p=p), draw for draw, on the installed numpy;
        # both generators stay in step
        meta = np.random.default_rng(len(design))
        for trial in range(75):
            n = int(meta.integers(1, 3000))
            d2 = meta.normal(size=n) ** 2
            if design == "zeros":
                d2[meta.random(n) < 0.8] = 0.0
                d2[meta.integers(n)] = 1.0
            elif design == "one-non-zero":
                d2[:] = 0.0
                d2[meta.integers(n)] = meta.uniform(1e-3, 1e3)
            elif design == "tiny-and-huge":
                d2 *= 10.0 ** meta.integers(-200, 200, size=n)
            p = d2 / d2.sum()
            seed = int(meta.integers(2**32))
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert _weighted_draw(mine, p) == theirs.choice(n, p=p)
            assert mine.random() == theirs.random()

    def test_k_equals_n_gives_permutation(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3))
        centroids = kmeanspp_init(X, 6, seed=1)
        # every point appears exactly once
        matches = (centroids[:, None, :] == X[None, :, :]).all(axis=2)
        assert matches.sum() == 6
        assert np.all(matches.sum(axis=0) == 1)

    def test_two_far_pairs_split(self):
        # enumerate the d-squared law: after any first pick, the other pair
        # carries essentially all sampling mass
        eps, D = 1e-4, 1000.0
        X = np.array([[0.0, 0.0], [0.0, eps], [D, 0.0], [D, eps]])
        p_same_pair = eps**2 / (2 * D**2 + eps**2)
        assert 1.0 - p_same_pair >= 1.0 - 1e-6
        for seed in range(20):
            centroids = kmeanspp_init(X, 2, seed=seed)
            sides = set(centroids[:, 0])
            assert sides == {0.0, D}

    def test_seeded_determinism(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 4))
        np.testing.assert_array_equal(kmeanspp_init(X, 5, seed=7), kmeanspp_init(X, 5, seed=7))

    def test_k_beyond_distinct_rows_rejected(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="distinct"):
            kmeanspp_init(X, 3, seed=0)

    def test_duplicates_exhausted_falls_back_to_unused(self):
        X = np.array([[0.0], [0.0], [5.0], [5.0]])
        for seed in range(10):
            centroids = kmeanspp_init(X, 2, seed=seed)
            assert set(centroids[:, 0]) == {0.0, 5.0}

    def test_small_d2_total_still_samples(self):
        # A power-of-two scale keeps the bits of every D^2 weight, so the
        # same draws pick the same rows: seeding commutes with the scale, also
        # where the scaled D^2 total is below 1. Only a total of 0 (every
        # point on a centroid) may leave the D^2 law.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 2))
        scale = 2.0 ** -10
        d2_totals = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=(1, 2))
        assert d2_totals.min() > 1 and d2_totals.max() * scale**2 < 1
        for seed in range(5):
            expected = kmeanspp_init(X, 5, seed=seed) * scale
            np.testing.assert_array_equal(kmeanspp_init(X * scale, 5, seed=seed), expected)


class TestLloyd:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        centroids, assignment, inertia = kmeans_fit(X, 1, seed=0)
        np.testing.assert_allclose(centroids[0], X.mean(axis=0), atol=1e-9)
        assert np.all(assignment == 0)
        np.testing.assert_allclose(inertia, np.sum((X - X.mean(axis=0)) ** 2), atol=1e-9)

    def test_three_separated_blobs_recovered(self):
        rng = np.random.default_rng(3)
        X, truth = blobs(rng, [[0, 0], [10, 0], [0, 10]], n_per=25, sigma=0.3)
        _, assignment, _ = kmeans_fit(X, 3, seed=4)
        # same partition up to cluster relabeling
        for g in range(3):
            members = assignment[truth == g]
            assert np.all(members == members[0])
        assert len(set(assignment[truth == g][0] for g in range(3))) == 3

    def test_inertia_non_increasing_per_iteration(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        start = kmeanspp_init(X, 4, seed=9)
        inertias = [lloyd_iterations(X, start, max_iter=m)[2] for m in range(8)]
        assert np.all(np.diff(inertias) <= 1e-9)

    def test_inertia_improves_with_k(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        def best_of(k):
            return min(kmeans_fit(X, k, seed=s)[2] for s in range(5))
        inertias = [best_of(k) for k in (2, 3, 4, 5)]
        assert np.all(np.diff(inertias) <= 1e-9)

    def test_empty_cluster_reseeded_at_farthest_point(self):
        X = np.array([[0.0], [1.0], [100.0]])
        start = np.array([[0.0], [200.0]])  # second centroid captures nothing
        centroids, assignment, _ = lloyd_iterations(X, start, max_iter=5)
        assert set(assignment) == {0, 1}  # the empty cluster came back
        np.testing.assert_allclose(sorted(centroids[:, 0]), [0.5, 100.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_cluster_loop_on_blobs(self, seed):
        rng = np.random.default_rng(40 + seed)
        d = (2, 5)[seed % 2]
        k = 3 + seed % 4
        X, _ = blobs(rng, rng.uniform(-10, 10, size=(k, d)), n_per=rng.integers(20, 60),
                     sigma=rng.uniform(0.5, 3.0))
        assert_matches_reference(X, kmeanspp_init(X, k, seed=seed))

    @pytest.mark.parametrize("start", [[[0.0, 0.0], [200.0, 0.0]],
                                       [[0.0, 0.0], [300.0, 5.0], [200.0, -5.0]]])
    def test_matches_per_cluster_loop_with_empty_clusters(self, start):
        # the far starting centroids capture nothing on the first pass
        rng = np.random.default_rng(47)
        X, _ = blobs(rng, [[0.0, 0.0], [1.0, 1.0], [30.0, 0.0]], n_per=15, sigma=0.4)
        assert set(np.argmin(_squared_distances(X, np.array(start)), axis=1)) == {0}
        assert_matches_reference(X, start, max_iter=1)
        assert_matches_reference(X, start)


class TestBoundedLloyd:
    """The bound-skipping loop against the loop that recomputes every point."""

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    def test_one_column_far_centroid_jump(self, max_iter):
        # the far centroid's first move (35) takes the summed movement far
        # past every point's key, while 0.9 leaves cluster 0 for cluster 1
        X = np.array([[-0.5], [0.5], [0.9], [1.05], [1.2], [60.0], [70.0]])
        start = np.array([[0.0], [2.0], [100.0]])
        got = assert_matches_reference(X, start, max_iter=max_iter)
        if max_iter > 1:
            assert got[1][2] == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_one_column_blobs(self, seed):
        rng = np.random.default_rng(60 + seed)
        X, _ = blobs(rng, rng.uniform(-10, 10, size=(5, 1)), n_per=40, sigma=1.5)
        assert_matches_reference(X, kmeanspp_init(X, 5, seed=seed))

    def test_all_rows_equal_gives_a_zero_margin(self):
        # every norm is 0, so the rounding margin is 0 and so is every key;
        # a 0/0 in the key would warn, and the suite makes warnings errors
        assert_matches_reference(np.zeros((5, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    def test_exact_bisector_ties_go_to_the_lower_index(self, max_iter):
        # integer coordinates make both squared distances of the x = 1 points
        # exact and equal on every pass; with them, cluster 0's mean is (-1, 0)
        left = [(-2, 0), (-2, 0), (-2, 1), (-2, -1)]
        bisector = [(1, 1), (1, -1)]
        right = [(3, 0), (3, 1), (3, -1)]
        X = np.array(left + bisector + right, dtype=float)
        start = np.array([[-1.5, 0.0], [3.5, 0.0]])
        centroids, assignment, _ = assert_matches_reference(X, start, max_iter=max_iter)
        np.testing.assert_array_equal(assignment, [0] * 6 + [1] * 3)
        np.testing.assert_array_equal(centroids, [[-1.0, 0.0], [3.0, 0.0]])

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    def test_duplicated_rows(self, max_iter):
        rng = np.random.default_rng(61)
        distinct = rng.normal(size=(7, 2)) * 4
        X = rng.permutation(np.repeat(distinct, rng.integers(1, 6, size=7), axis=0))
        for k in (2, 4, 6):
            assert_matches_reference(X, kmeanspp_init(X, k, seed=k), max_iter=max_iter)

    @pytest.mark.parametrize("seed", [3, 21, 22, 30, 34])
    def test_large_offset_cancels_the_expanded_formula(self, seed):
        # spread 1e-3 around 1e4: squared distances near 1e-6 from terms near
        # 1e8, so rounding is about 1% of a distance and, on these draws, the
        # margin is what keeps skipped points on the full pass's argmin
        rng = np.random.default_rng(seed)
        d, k = 1 + seed % 2, 2 + seed % 4
        X, _ = blobs(rng, rng.uniform(-3e-3, 3e-3, size=(k, d)), n_per=50, sigma=1e-3)
        X = X + 1e4
        assert_matches_reference(X, kmeanspp_init(X, k, seed=seed))

    @pytest.mark.parametrize("max_iter", [2, 300])
    def test_cluster_empties_after_the_first_update(self, max_iter):
        # every cluster has members on the first pass; the update moves 0 to
        # 2.4 and 2 to 12.6, which take the two members of cluster 1 (at 7.55)
        X = np.array([[2.4], [2.4], [2.4], [3.0], [12.1], [12.6], [12.6], [12.6]])
        start = np.array([[0.0], [5.0], [20.0]])
        first = np.argmin(_squared_distances(X, start), axis=1)
        assert set(first) == {0, 1, 2}
        after_one = lloyd_iterations(X, start, max_iter=1)[0]
        assert 1 not in np.argmin(_squared_distances(X, after_one), axis=1)
        assert_matches_reference(X, start, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_first_iterations_on_blobs(self, seed, max_iter):
        rng = np.random.default_rng(70 + seed)
        X, _ = blobs(rng, rng.uniform(-10, 10, size=(4, 2)), n_per=30, sigma=2.0)
        assert_matches_reference(X, kmeanspp_init(X, 4, seed=seed), max_iter=max_iter)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 20])
    def test_every_score_width(self, d):
        # the PCA gate keeps up to 20 components; 37 points per blob leave
        # short tails in every block
        rng = np.random.default_rng(90 + d)
        k = 2 + d % 5
        X, _ = blobs(rng, rng.uniform(-10, 10, size=(k, d)), n_per=37, sigma=4.0)
        assert_matches_reference(X, kmeanspp_init(X, k, seed=d))


def test_settled_rows_are_skipped(monkeypatch):
    # a loop that recomputes every row on every pass is exact too, but no
    # faster than plain Lloyd; on overlapping blobs most rows settle
    rows = []
    distances = cluster._distances

    def spy(points, x_sq, centroids):
        rows.append(points.shape[1])
        return distances(points, x_sq, centroids)

    monkeypatch.setattr(cluster, "_distances", spy)
    rng = np.random.default_rng(0)
    X, _ = blobs(rng, [(0, 0), (10, 0), (0, 10), (10, 10)], n_per=500, sigma=4.0)
    assert X.shape[0] <= cluster.BLOCK_ROWS  # one call per pass
    assert_matches_reference(X, X[:4])
    assert min(rows) < X.shape[0] / 10, rows


def spy_distance_rows(monkeypatch, distances=None):
    """Record the points of every ``_distances`` call of Lloyd's loop, as
    rows, computed by ``distances`` (the real function when None)."""
    calls = []
    distances = distances or cluster._distances

    def spy(points, x_sq, centroids):
        calls.append(points.T.copy())
        return distances(points, x_sq, centroids)

    monkeypatch.setattr(cluster, "_distances", spy)
    return calls


def test_lone_stale_row_is_computed_among_two(monkeypatch):
    # after the first update only the point at 5.1, between the two groups,
    # is near enough to both centroids to be recomputed; a row computed alone
    # is a matrix-vector product, whose last bits can differ, so it is
    # computed twice, as two rows
    X = np.array([[-0.2], [0.0], [0.2], [9.8], [10.0], [10.2], [5.1]])
    calls = spy_distance_rows(monkeypatch)
    assert_matches_reference(X, [[0.5], [9.5]])
    assert min(len(rows) for rows in calls) >= 2
    assert any(len(rows) == 2 and rows[0] == rows[1] == 5.1 for rows in calls)


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
def test_skips_hold_with_every_entry_off_by_up_to_the_margin(scale, monkeypatch):
    # The settle key only assumes that each computed squared distance is
    # within the margin m = MARGIN * reach**2 of the exact one. Make every
    # entry off by up to 0.9 m, as a fixed function of its row and centroid,
    # and the loop must still match plain Lloyd on those same distances, at
    # every data scale. MARGIN is raised to 2**-8 so that errors of the
    # margin's size decide ordinary near-ties. A margin that scaled as
    # reach**3 gave other ids than plain Lloyd in 4 of these 16 designs at
    # scale 1e-2 (too small below reach 1), and skipped no row at 1e2.
    monkeypatch.setattr(cluster, "MARGIN", 2.0**-8)
    fewest = []
    for seed in range(16):
        rng = np.random.default_rng(seed)
        k = 2 + seed % 4
        X = scale * blobs(rng, rng.uniform(-1, 1, size=(k, 2)), n_per=40, sigma=0.2)[0]
        error = 0.9 * cluster.MARGIN * 4 * np.max(np.sum(X**2, axis=1))  # reach >= 2 |x|

        def off_by_error(A, centroids):
            fraction = np.mod((A[:, :1] * 7919.0 + centroids[:, 0] * 104729.0) / scale, 1.0)
            return np.maximum(_squared_distances(A, centroids) + error * (2 * fraction - 1), 0.0)

        def cluster_major_off_by_error(points, x_sq, centroids):
            # off_by_error's entries, transposed: centroids down, points across
            fraction = np.mod((points[:1] * 7919.0 + centroids[:, :1] * 104729.0) / scale, 1.0)
            sq = _distances(points, x_sq, centroids)
            return np.maximum(sq + error * (2 * fraction - 1), 0.0)

        start = X[rng.choice(X.shape[0], k, replace=False)]
        calls = spy_distance_rows(monkeypatch, cluster_major_off_by_error)
        got = lloyd_iterations(X, start)
        want = lloyd_reference(X, start, distances=off_by_error)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]
        fewest.append(min(len(rows) for rows in calls) / X.shape[0])
    assert min(fewest) < 0.5, fewest  # settled rows were skipped


class TestBlockedLloyd(TestBoundedLloyd):
    """TestBoundedLloyd's designs, and two more, with the distance passes in
    blocks of 3 rows: every block boundary falls inside the data."""

    @pytest.fixture(autouse=True)
    def three_row_blocks(self, monkeypatch):
        monkeypatch.setattr(cluster, "BLOCK_ROWS", 3)
        rows = []
        distances = cluster._distances

        def spy(points, x_sq, centroids):
            rows.append(points.shape[1])
            return distances(points, x_sq, centroids)

        monkeypatch.setattr(cluster, "_distances", spy)
        yield
        assert all(2 <= n <= 4 for n in rows), rows  # no block of one row, none of 5

    def test_last_block_of_one_row_joins_the_block_before(self):
        assert cluster._row_blocks(7) == [slice(0, 3), slice(3, 7)]
        assert cluster._row_blocks(2) == [slice(0, 2)]

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    def test_blobs_leaving_one_row_for_the_last_block(self, max_iter):
        rng = np.random.default_rng(80)
        X, _ = blobs(rng, rng.uniform(-10, 10, size=(4, 2)), n_per=25, sigma=2.0)
        assert X.shape[0] % 3 == 1
        assert_matches_reference(X, kmeanspp_init(X, 4, seed=1), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    def test_empty_clusters_reseeded_from_rows_in_different_blocks(self, max_iter):
        # clusters 1 and 2 capture nothing on the first pass; the two rows
        # farthest from centroid 0 sit in the first block and in the last
        X = np.array([[-50.0]] + [[0.1 * i] for i in range(1, 9)] + [[40.0]])
        start = np.array([[0.5], [500.0], [-500.0]])
        assert set(np.argmin(_squared_distances(X, start), axis=1)) == {0}
        assert cluster._row_blocks(10) == [slice(0, 3), slice(3, 6), slice(6, 10)]
        if max_iter == 1:
            np.testing.assert_array_equal(lloyd_iterations(X, start, max_iter=1)[0][1:],
                                          [[-50.0], [40.0]])
        assert_matches_reference(X, start, max_iter=max_iter)


class TestFitSupervised:
    def test_separable_two_classes_succeed_at_k2(self):
        rng = np.random.default_rng(6)
        X, group = blobs(rng, [[0, 0], [8, 8]], n_per=30, sigma=0.4)
        labels = np.where(group == 0, 1, 3)  # bee=1, mite=3
        model, diag = fit_supervised(X, labels, mite_label=3, bee_label=1, k0=2, k_max=12, seed=0)
        assert model.k == 2
        assert diag.final.k == 2
        assert diag.final.false_alarms == 0 and diag.final.missed_mites == 0
        assert sorted(model.class_of_cluster.values()) == sorted([CLASS_MITE, CLASS_BEE])

    def test_four_populations_fail_at_3_pass_at_4(self):
        # bee and mite are the closest pair, so k=3 merges them and trips the
        # false-alarm check; k=4 isolates every population
        rng = np.random.default_rng(7)
        X, group = blobs(
            rng, [[0, 0], [40, 0], [20, 30], [24, 30]], n_per=40, sigma=0.25
        )
        labels = np.select(
            [group == 0, group == 1, group == 2, group == 3], [0, 2, 1, 3]
        )  # backgrounds 0 and 2, bee 1, mite 3
        model, diag = fit_supervised(X, labels, mite_label=3, bee_label=1, k0=2, k_max=12, seed=0)
        ks = [a.k for a in diag.attempts]
        assert ks == [2, 3, 4]
        assert diag.attempts[-2].false_alarms > 0  # k=3 merged bee into the mite cluster
        assert diag.final.k == 4
        assert model.k == 4

    def test_each_attempt_logged_at_debug(self, caplog):
        rng = np.random.default_rng(7)
        X, group = blobs(
            rng, [[0, 0], [40, 0], [20, 30], [24, 30]], n_per=40, sigma=0.25
        )
        labels = np.select([group == 0, group == 1, group == 2, group == 3], [0, 2, 1, 3])
        with caplog.at_level(logging.DEBUG, logger="spectral_sift.cluster"):
            _, diag = fit_supervised(X, labels, mite_label=3, bee_label=1, k0=2, k_max=12, seed=0)
        records = [r for r in caplog.records if r.name == "spectral_sift.cluster"]
        assert len(records) == len(diag.attempts) == 3
        for record, attempt in zip(records, diag.attempts):
            assert record.levelno == logging.DEBUG
            assert record.getMessage() == (
                f"escalation k={attempt.k}: false_alarms={attempt.false_alarms} "
                f"missed_mites={attempt.missed_mites} inertia={attempt.inertia:.6g}"
            )

    def test_single_class_labels_rejected(self):
        X = np.random.default_rng(8).normal(size=(20, 2))
        with pytest.raises(ValueError, match="both mite and bee"):
            fit_supervised(X, np.full(20, 3), mite_label=3, bee_label=1, k0=2, k_max=12, seed=0)

    @pytest.mark.parametrize("present", [(1, 2), (3, 2)], ids=["no-mites", "no-bees"])
    def test_labels_missing_a_class_rejected(self, present):
        # bee = 1, mite = 3; 2 is another labeled class. Without the check a
        # fit with no mite pixels passes at k0 with no mite cluster, and one
        # with no bee pixels maps the mites' clusters with no false alarm.
        X = np.random.default_rng(8).normal(size=(24, 2))
        labels = np.resize(np.array([*present, UNLABELED]), 24)
        with pytest.raises(ValueError, match="both mite and bee"):
            fit_supervised(X, labels, mite_label=3, bee_label=1, k0=2, k_max=12, seed=0)

    def test_escalation_exhaustion_raises_with_diagnostics(self):
        # interleaved classes cannot be separated by few centroids
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(80, 2))
        labels = np.where(rng.uniform(size=80) < 0.5, 1, 3)
        with pytest.raises(EscalationError) as err:
            fit_supervised(X, labels, mite_label=3, bee_label=1, k0=2, k_max=4, seed=0)
        assert [a.k for a in err.value.diagnostics.attempts] == [2, 3, 4]

    def test_success_matches_confusion_matrix_check(self):
        rng = np.random.default_rng(10)
        X, group = blobs(rng, [[0, 0], [9, 0], [0, 9]], n_per=25, sigma=0.3)
        labels = np.select([group == 0, group == 1, group == 2], [0, 1, 3])
        model, _ = fit_supervised(X, labels, mite_label=3, bee_label=1, k0=2, k_max=12, seed=1)
        clusters, classes = assign(model, X)
        # post-hoc confusion check: the mite row and mite column are clean
        predicted_mite = classes == CLASS_MITE
        actually_mite = labels == 3
        assert np.array_equal(predicted_mite, actually_mite)

    def test_unlabeled_pixels_ignored_by_the_criteria(self):
        rng = np.random.default_rng(11)
        X, group = blobs(rng, [[0, 0], [9, 0], [5, 40]], n_per=20, sigma=0.3)
        labels = np.select([group == 0, group == 1, group == 2], [1, 3, 255])
        model, diag = fit_supervised(X, labels, mite_label=3, bee_label=1, k0=2, k_max=12, seed=0)
        assert diag.final.false_alarms == 0


class TestAssign:
    def test_centroids_assign_to_themselves(self):
        centroids = np.array([[0.0, 0.0], [5.0, 1.0], [2.0, 8.0]])
        model = ClusterModel(
            centroids=centroids,
            class_of_cluster={0: CLASS_OTHER, 1: CLASS_BEE, 2: CLASS_MITE},
        )
        clusters, classes = assign(model, centroids)
        np.testing.assert_array_equal(clusters, [0, 1, 2])
        np.testing.assert_array_equal(classes, [CLASS_OTHER, CLASS_BEE, CLASS_MITE])

    def test_midpoint_tie_goes_to_lower_index(self):
        model = ClusterModel(
            centroids=np.array([[0.0, 0.0], [2.0, 0.0]]),
            class_of_cluster={0: CLASS_BEE, 1: CLASS_MITE},
        )
        clusters, _ = assign(model, np.array([[1.0, 0.0]]))
        assert clusters[0] == 0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(12)
        centroids = rng.normal(size=(6, 4))
        model = ClusterModel(
            centroids=centroids, class_of_cluster={j: CLASS_OTHER for j in range(6)}
        )
        X = rng.normal(size=(50, 4))
        clusters, _ = assign(model, X)
        for i in range(50):
            dists = [np.sum((X[i] - c) ** 2) for c in centroids]
            assert clusters[i] == int(np.argmin(dists))

    def test_row_order_independent(self):
        rng = np.random.default_rng(13)
        centroids = rng.normal(size=(4, 3))
        model = ClusterModel(
            centroids=centroids, class_of_cluster={j: CLASS_OTHER for j in range(4)}
        )
        X = rng.normal(size=(30, 3))
        perm = rng.permutation(30)
        direct, _ = assign(model, X)
        permuted, _ = assign(model, X[perm])
        np.testing.assert_array_equal(direct[perm], permuted)

    def test_dimension_mismatch(self):
        model = ClusterModel(
            centroids=np.zeros((2, 3)), class_of_cluster={0: CLASS_BEE, 1: CLASS_MITE}
        )
        with pytest.raises(ValueError, match="columns"):
            assign(model, np.zeros((5, 4)))
