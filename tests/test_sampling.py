import math

import numpy as np
import pytest

from aerosurrogate.pointcloud import PointCloud
from aerosurrogate.datagen import DatasetSpec, fibonacci_sphere, generate_records
from aerosurrogate.rng import SplitMix64
from aerosurrogate.sampling import (
    SamplingConfig, estimate_curvature, sample_random, sample_curvature,
    sample_adaptive, sample_indices, write_index_file, read_index_file,
    _largest_remainder)


def cloud_from(points):
    points = np.asarray(points, dtype=np.float64)
    return PointCloud(points, None, np.zeros((len(points), 0)), "surface")


def grid_plane(n_side=12, z=0.0):
    xs, ys = np.meshgrid(np.linspace(0, 1, n_side), np.linspace(0, 1, n_side))
    return np.column_stack([xs.ravel(), ys.ravel(), np.full(n_side ** 2, z)])


def oracle_curvature(cloud, k):
    """Per-point reference: chunked brute-force k-NN with a stable sort,
    then the eigenvalues of each neighbourhood covariance one at a time."""
    pos = cloud.positions
    n = pos.shape[0]
    kappa = np.empty(n, dtype=np.float64)
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    sq = np.einsum("ij,ij->i", pos, pos)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * pos[start:stop] @ pos.T
        order = np.argsort(d2, axis=1, kind="stable")[:, 1:k + 1]
        for row, nbrs in enumerate(order):
            pts = pos[nbrs]
            centered = pts - pts.mean(axis=0)
            cov = centered.T @ centered / k
            eig = np.linalg.eigvalsh(cov)
            total = float(eig.sum())
            kappa[start + row] = 0.0 if total < 1e-18 \
                else max(0.0, float(eig[0]) / total)
    return kappa


def oracle_adaptive(cloud, config):
    """Set-based reference: curvature budget, per-voxel uniform draws, then
    a top-up walk down the curvature order."""
    n_total = cloud.n_points
    n = config.n_points
    if n >= n_total:
        return list(range(n_total))
    kappa = oracle_curvature(cloud, config.knn_k)
    curv_order = np.lexsort((np.arange(n_total), -kappa))
    selected = set(int(i) for i in curv_order[:min(math.ceil(
        config.curvature_fraction * n), n)])
    remaining = np.array([i for i in range(n_total) if i not in selected],
                         dtype=np.int64)
    n_rest = n - len(selected)
    if n_rest > 0 and len(remaining) > 0:
        pos = cloud.positions
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        extent = np.where(hi - lo > 0, hi - lo, 1.0)
        g = config.grid_cells
        cells = np.minimum(((pos[remaining] - lo) / extent * g).astype(np.int64),
                           g - 1)
        cell_ids = (cells[:, 0] * g + cells[:, 1]) * g + cells[:, 2]
        order = np.argsort(cell_ids, kind="stable")
        _, starts = np.unique(cell_ids[order], return_index=True)
        groups = np.split(remaining[order], starts[1:])
        occupancy = np.array([len(grp) for grp in groups], dtype=np.float64)
        # largest-remainder apportionment of n_rest, ties to the lower cell
        exact = np.ceil(np.sqrt(occupancy))
        exact *= n_rest / exact.sum()
        quota = np.floor(exact).astype(np.int64)
        by_remainder = np.lexsort((np.arange(len(exact)), -(exact - quota)))
        quota[by_remainder[:n_rest - int(quota.sum())]] += 1
        quota = np.minimum(quota, occupancy.astype(np.int64))
        rng = SplitMix64(config.seed)
        for grp, q in zip(groups, quota):
            if q > 0:
                picks = rng.sample_without_replacement(len(grp), int(q))
                selected.update(int(grp[p]) for p in picks)
    for i in curv_order:
        if len(selected) == n:
            break
        selected.add(int(i))
    return sorted(selected)


def tie_clouds():
    """Clouds with exact distance and curvature ties and duplicate points."""
    rng = np.random.default_rng(17)
    dup = rng.normal(size=(40, 3))
    raised = grid_plane(11)
    raised[[5, 17, 60], 2] = 0.25
    return {
        "grid_plane": grid_plane(12),
        "raised_grid": raised,
        "rounded": np.round(rng.normal(size=(150, 3)), 1),
        "integer_lattice": rng.integers(0, 3, size=(120, 3)).astype(float),
        "duplicates": dup[rng.integers(0, 40, size=130)],
        "sphere": fibonacci_sphere(160) * [2.0, 1.0, 0.7],
        "generated": generate_records(
            DatasetSpec(n_samples=1, n_surface=300, n_volume=8, seed=5))[0]
        .surface.positions,
    }


TIE_CLOUDS = tie_clouds()


class TestCurvature:
    def test_plane_is_zero(self):
        kappa = estimate_curvature(cloud_from(grid_plane()), k=8)
        np.testing.assert_allclose(kappa, 0.0, atol=1e-12)

    def test_sphere_positive(self):
        pts = fibonacci_sphere(300)
        kappa = estimate_curvature(cloud_from(pts), k=16)
        assert np.all(kappa > 0)
        assert np.all(kappa <= 1.0 / 3.0 + 1e-12)

    def test_duplicate_points_zero(self):
        pts = np.tile([[1.0, 2.0, 3.0]], (20, 1))
        kappa = estimate_curvature(cloud_from(pts), k=5)
        np.testing.assert_array_equal(kappa, 0.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            estimate_curvature(cloud_from(grid_plane(2)), k=16)

    def test_rotation_invariance(self):
        pts = fibonacci_sphere(200) * [2.0, 1.0, 0.7]
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                        [math.sin(theta), math.cos(theta), 0],
                        [0, 0, 1.0]])
        k1 = estimate_curvature(cloud_from(pts), k=12)
        k2 = estimate_curvature(cloud_from(pts @ rot.T), k=12)
        assert np.abs(k1 - k2).max() < 1e-9


class TestMatchesOracles:
    @pytest.mark.parametrize("name", list(TIE_CLOUDS))
    @pytest.mark.parametrize("k", [3, 8, 16])
    def test_curvature_bit_exact(self, name, k):
        c = cloud_from(TIE_CLOUDS[name])
        assert estimate_curvature(c, k).tobytes() == \
            oracle_curvature(c, k).tobytes()

    @pytest.mark.parametrize("name", list(TIE_CLOUDS))
    @pytest.mark.parametrize("n,fraction,cells", [
        (10, 0.5, 4), (37, 0.05, 16), (60, 0.95, 1), (90, 0.3, 3),
        (100, 0.05, 8)])   # the last two reach the top-up on some clouds
    def test_adaptive_exact(self, name, n, fraction, cells):
        c = cloud_from(TIE_CLOUDS[name])
        cfg = SamplingConfig(n_points=n, seed=n, knn_k=6,
                             curvature_fraction=fraction, grid_cells=cells)
        assert sample_adaptive(c, cfg) == oracle_adaptive(c, cfg)

    @pytest.mark.parametrize("name", list(TIE_CLOUDS))
    def test_curvature_sampler_exact(self, name):
        c = cloud_from(TIE_CLOUDS[name])
        kappa = oracle_curvature(c, 8)
        top = np.lexsort((np.arange(len(kappa)), -kappa))[:25]
        assert sample_curvature(c, 25, k=8) == sorted(int(i) for i in top)


class TestRandomSampler:
    def test_n_ge_total_returns_all(self):
        c = cloud_from(grid_plane(3))   # 9 points
        assert sample_random(c, 10, seed=1) == list(range(9))

    def test_deterministic(self):
        c = cloud_from(grid_plane(10))
        assert sample_random(c, 30, seed=42) == sample_random(c, 30, seed=42)

    def test_seeds_differ(self):
        c = cloud_from(np.random.default_rng(0).normal(size=(1000, 3)))
        a = sample_random(c, 100, seed=1)
        b = sample_random(c, 100, seed=2)
        assert a != b

    def test_output_contract(self):
        c = cloud_from(grid_plane(10))
        idx = sample_random(c, 30, seed=7)
        assert len(idx) == 30
        assert idx == sorted(set(idx))
        assert min(idx) >= 0 and max(idx) < 100


class TestCurvatureSampler:
    def test_spike_selected(self):
        pts = grid_plane(12)
        spike = pts[:10].copy()
        spike[:, 2] = np.linspace(0.2, 0.5, 10)   # raised points
        pts = np.vstack([pts[10:], spike])
        c = cloud_from(pts)
        kappa = estimate_curvature(c, k=8)
        expected = set(np.argsort(-kappa, kind="stable")[:10])
        got = set(sample_curvature(c, 10, k=8))
        # tie-aware: selected set must be a valid top-10 by kappa
        thresh = sorted(kappa, reverse=True)[9]
        assert all(kappa[i] >= thresh - 1e-15 for i in got)
        assert len(got & expected) >= 8

    def test_equal_kappa_tie_rule(self):
        c = cloud_from(grid_plane(6))
        assert sample_curvature(c, 5, k=8) == [0, 1, 2, 3, 4]

    def test_n_ge_total(self):
        c = cloud_from(grid_plane(3))
        assert sample_curvature(c, 100, k=4) == list(range(9))


class TestLargestRemainder:
    def test_hand_example(self):
        # two clusters 900 vs 100: weights ceil(sqrt) = 30, 10; budget 59
        alloc = _largest_remainder(np.array([30.0, 10.0]), 59)
        assert alloc.tolist() == [44, 15]

    def test_total_preserved(self):
        alloc = _largest_remainder(np.array([3.0, 3.0, 3.0]), 10)
        assert alloc.sum() == 10
        assert alloc.tolist() == [4, 3, 3]   # tie goes to lower index


class TestAdaptiveSampler:
    def test_retains_top_curvature(self):
        pts = grid_plane(14)
        ridge = pts[:20].copy()
        ridge[:, 2] = 0.3
        pts = np.vstack([pts[20:], ridge])
        c = cloud_from(pts)
        cfg = SamplingConfig(method="adaptive", n_points=100, seed=3,
                             knn_k=8, curvature_fraction=0.5)
        idx = set(sample_adaptive(c, cfg))
        kappa = estimate_curvature(c, k=8)
        n_curv = math.ceil(0.5 * 100)
        top = np.lexsort((np.arange(len(kappa)), -kappa))[:n_curv]
        assert set(int(i) for i in top) <= idx

    def test_sublinear_cluster_allocation(self):
        rng = np.random.default_rng(0)
        dense = rng.normal(size=(900, 3)) * 0.05 + [-1, 0, 0]
        sparse = rng.normal(size=(100, 3)) * 0.05 + [1, 0, 0]
        c = cloud_from(np.vstack([dense, sparse]))
        cfg = SamplingConfig(method="adaptive", n_points=60, seed=5,
                             knn_k=8, curvature_fraction=0.01, grid_cells=2)
        idx = np.array(sample_adaptive(c, cfg))
        n_dense = int((idx < 900).sum())
        n_sparse = int((idx >= 900).sum())
        assert n_sparse > 0
        assert n_dense < 9 * n_sparse

    def test_deterministic(self):
        c = cloud_from(fibonacci_sphere(400) * [2, 1, 1])
        cfg = SamplingConfig(n_points=64, seed=11, knn_k=8)
        assert sample_adaptive(c, cfg) == sample_adaptive(c, cfg)

    def test_n_ge_total(self):
        c = cloud_from(grid_plane(4))
        cfg = SamplingConfig(n_points=100, knn_k=4)
        assert sample_adaptive(c, cfg) == list(range(16))

    def test_exact_count_and_order(self):
        c = cloud_from(fibonacci_sphere(500))
        for method in ("random", "curvature", "adaptive"):
            cfg = SamplingConfig(method=method, n_points=123, seed=9, knn_k=8)
            idx = sample_indices(c, cfg)
            assert len(idx) == 123
            assert idx == sorted(set(idx))


class TestConfig:
    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            SamplingConfig(curvature_fraction=1.0)

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            SamplingConfig(method="fps")

    def test_small_k(self):
        with pytest.raises(ValueError):
            SamplingConfig(knn_k=2)


class TestIndexFile:
    def test_round_trip(self, tmp_path):
        idx = [0, 3, 5, 9]
        write_index_file(idx, tmp_path / "i.txt")
        assert read_index_file(tmp_path / "i.txt") == idx
        assert (tmp_path / "i.txt").read_text().splitlines()[0] == "4"
