"""Unit tests for K-means and the dual-level clustering of Section III-B."""

import numpy as np
import pytest

from repro.clustering import KMeans, dual_level_clustering
from repro.geometry import Point
from repro.netlist import ClockSink


def blob_points(seed=0, clusters=4, per_cluster=50, spread=2.0, pitch=100.0):
    rng = np.random.default_rng(seed)
    points = []
    for i in range(clusters):
        cx, cy = (i % 2) * pitch, (i // 2) * pitch
        points.append(rng.normal([cx, cy], spread, size=(per_cluster, 2)))
    return np.vstack(points)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        pts = blob_points()
        result = KMeans(n_clusters=4, seed=1).fit(pts)
        assert result.cluster_count == 4
        sizes = result.cluster_sizes()
        assert sorted(sizes.tolist()) == [50, 50, 50, 50]

    def test_deterministic_for_fixed_seed(self):
        pts = blob_points(seed=3)
        a = KMeans(n_clusters=4, seed=9).fit(pts)
        b = KMeans(n_clusters=4, seed=9).fit(pts)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.centroids, b.centroids)

    def test_more_clusters_than_points_degrades_gracefully(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = KMeans(n_clusters=10, seed=0).fit(pts)
        assert result.cluster_count == 2

    def test_single_cluster(self):
        pts = blob_points(clusters=1)
        result = KMeans(n_clusters=1, seed=0).fit(pts)
        assert result.cluster_count == 1
        assert result.cluster_sizes()[0] == len(pts)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.empty((0, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.zeros((5, 3)))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KMeans(n_clusters=2, max_iterations=0)

    def test_max_cluster_size_respected(self):
        pts = blob_points(per_cluster=40)
        result = KMeans(n_clusters=8, seed=5, max_cluster_size=25).fit(pts)
        assert int(result.cluster_sizes().max()) <= 25

    def test_max_cluster_size_infeasible_rejected(self):
        pts = blob_points(per_cluster=40)
        with pytest.raises(ValueError):
            KMeans(n_clusters=2, seed=5, max_cluster_size=10).fit(pts)

    def test_inertia_decreases_with_more_clusters(self):
        pts = blob_points()
        few = KMeans(n_clusters=2, seed=0).fit(pts)
        many = KMeans(n_clusters=8, seed=0).fit(pts)
        assert many.inertia < few.inertia

    def test_members_partition_all_points(self):
        pts = blob_points()
        result = KMeans(n_clusters=4, seed=0).fit(pts)
        all_members = np.concatenate(
            [result.members(c) for c in range(result.cluster_count)]
        )
        assert sorted(all_members.tolist()) == list(range(len(pts)))

    @pytest.mark.parametrize("seed", range(40))
    def test_fit_bit_equal_to_per_cluster_means(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        if seed % 3 == 0:
            # A coarse grid: duplicate points and empty clusters are common.
            pts = rng.integers(0, 4, size=(n, 2)).astype(float) * 25.0
        elif seed % 3 == 1:
            # Unbalanced blobs.
            sizes = rng.integers(1, 120, size=3)
            pts = np.vstack(
                [
                    rng.normal(c * 80.0, 1.0 + c, size=(s, 2))
                    for c, s in enumerate(sizes)
                ]
            )
        else:
            pts = rng.uniform(0.0, 500.0, size=(n, 2))
        kmeans = KMeans(n_clusters=int(rng.integers(1, 13)), seed=seed)
        result = kmeans.fit(pts)
        labels, centroids = reference_fit(kmeans, pts)
        assert np.array_equal(result.labels, labels)
        assert result.centroids.tobytes() == centroids.tobytes()


def reference_fit(kmeans, pts):
    """Lloyd's iteration with per-cluster ``mean(axis=0)`` centroid updates
    and the farthest-point reseed of empty clusters (the spec ``fit`` must
    reproduce bit for bit)."""
    k = min(kmeans.n_clusters, len(pts))
    centroids = KMeans._kmeanspp_init(pts, k, np.random.default_rng(kmeans.seed))
    labels = np.zeros(len(pts), dtype=int)
    for _ in range(kmeans.max_iterations):
        distances = KMeans._distances(pts, centroids)
        labels = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = pts[labels == cluster]
            if len(members) > 0:
                new_centroids[cluster] = members.mean(axis=0)
            else:
                farthest = int(np.argmax(np.min(distances, axis=1)))
                new_centroids[cluster] = pts[farthest]
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < kmeans.tolerance:
            break
    return labels, centroids


def make_sinks(count, extent=200.0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClockSink(
            f"ff_{i}",
            Point(float(rng.uniform(0, extent)), float(rng.uniform(0, extent))),
            0.8,
        )
        for i in range(count)
    ]


class TestDualLevelClustering:
    def test_partition_covers_every_sink(self):
        sinks = make_sinks(400)
        clustering = dual_level_clustering(sinks, high_size=200, low_size=20, seed=1)
        assert clustering.sink_count == 400
        names = [s.name for c in clustering.low_clusters for s in c.sinks]
        assert sorted(names) == sorted(s.name for s in sinks)

    def test_cluster_counts_match_targets(self):
        sinks = make_sinks(600)
        clustering = dual_level_clustering(sinks, high_size=200, low_size=30, seed=1)
        assert len(clustering.high_clusters) == 3
        assert len(clustering.low_clusters) >= 600 // 30

    def test_low_cluster_sizes_near_target(self):
        sinks = make_sinks(300)
        clustering = dual_level_clustering(sinks, high_size=300, low_size=30, seed=2)
        assert max(c.size for c in clustering.low_clusters) <= 32

    def test_low_clusters_point_to_existing_high_cluster(self):
        sinks = make_sinks(250)
        clustering = dual_level_clustering(sinks, high_size=100, low_size=10, seed=3)
        high_indices = {c.index for c in clustering.high_clusters}
        assert all(c.parent_index in high_indices for c in clustering.low_clusters)

    def test_centroid_is_mean_of_members(self):
        sinks = make_sinks(60)
        clustering = dual_level_clustering(sinks, high_size=60, low_size=60, seed=4)
        cluster = clustering.low_clusters[0]
        mean_x = sum(s.location.x for s in cluster.sinks) / cluster.size
        assert cluster.centroid.x == pytest.approx(mean_x)

    def test_single_sink(self):
        clustering = dual_level_clustering([ClockSink("ff", Point(1, 1), 1.0)])
        assert len(clustering.high_clusters) == 1
        assert len(clustering.low_clusters) == 1
        assert clustering.low_clusters[0].size == 1

    def test_small_design_uses_paper_defaults(self):
        sinks = make_sinks(100)
        clustering = dual_level_clustering(sinks)  # Hc=3000, Lc=30
        assert len(clustering.high_clusters) == 1
        assert 3 <= len(clustering.low_clusters) <= 5

    def test_invalid_arguments_rejected(self):
        sinks = make_sinks(10)
        with pytest.raises(ValueError):
            dual_level_clustering([], high_size=10, low_size=5)
        with pytest.raises(ValueError):
            dual_level_clustering(sinks, high_size=10, low_size=20)
        with pytest.raises(ValueError):
            dual_level_clustering(sinks, high_size=0, low_size=0)

    def test_total_capacitance_and_wirelength(self):
        sinks = make_sinks(50)
        clustering = dual_level_clustering(sinks, high_size=50, low_size=10, seed=5)
        total_cap = sum(c.total_capacitance for c in clustering.low_clusters)
        assert total_cap == pytest.approx(sum(s.capacitance for s in sinks))
        assert clustering.total_leaf_wirelength() > 0

    def test_deterministic(self):
        sinks = make_sinks(200)
        a = dual_level_clustering(sinks, high_size=100, low_size=10, seed=11)
        b = dual_level_clustering(sinks, high_size=100, low_size=10, seed=11)
        assert [c.size for c in a.low_clusters] == [c.size for c in b.low_clusters]
