import math
import tracemalloc

import numpy as np
import pytest

from aerosurrogate import sampling
from aerosurrogate.pointcloud import PointCloud
from aerosurrogate.datagen import DatasetSpec, fibonacci_sphere, generate_records
from aerosurrogate.rng import SplitMix64, derive_seed
from aerosurrogate.sampling import (
    SamplingConfig, estimate_curvature, sample_random, sample_curvature,
    sample_adaptive, sample_indices, write_index_file, read_index_file,
    _largest_remainder)


def cloud_from(points):
    points = np.asarray(points, dtype=np.float64)
    return PointCloud(points, None, "surface")


def grid_plane(n_side=12, z=0.0):
    xs, ys = np.meshgrid(np.linspace(0, 1, n_side), np.linspace(0, 1, n_side))
    return np.column_stack([xs.ravel(), ys.ravel(), np.full(n_side ** 2, z)])


def sq_distances(points, rows=slice(None)):
    """(dx^2 + dy^2) + dz^2 from each point of `rows` to every point,
    taken one axis at a time."""
    d2 = 0.0
    for axis in range(3):
        d2 = d2 + (points[rows, axis, None] - points[None, :, axis]) ** 2
    return d2


def oracle_curvature(cloud, k):
    """Per-point reference: chunked brute-force k-NN with a stable sort,
    then the eigenvalues of each neighbourhood covariance one at a time."""
    pos = cloud.positions
    n = pos.shape[0]
    kappa = np.empty(n, dtype=np.float64)
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d2 = sq_distances(pos, slice(start, stop))
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


def ingest_surface(seed):
    """The surface of the benchmark's `ingest` sample for `seed`."""
    return generate_records(DatasetSpec(n_samples=1, n_surface=2048,
                                        n_volume=8192, seed=seed))[0].surface


def assert_curvature_matches_oracle(points, k):
    c = cloud_from(points)
    assert estimate_curvature(c, k).tobytes() == \
        oracle_curvature(c, k).tobytes()


def sorted_sq_distances(points):
    return np.sort(sq_distances(points), axis=1)


class TestPartialSelection:
    """The partial k-NN selection keeps the stable sort's neighbours and
    their order on the edge cases of the selection itself."""

    @pytest.mark.parametrize("k", [3, 8, 16])
    @pytest.mark.parametrize("extra", [1, 2])
    @pytest.mark.parametrize("kind", ["rounded", "lattice"])
    def test_smallest_clouds(self, k, extra, kind):
        rng = np.random.default_rng(k * 10 + extra)
        n = k + extra
        points = np.round(rng.normal(size=(n, 3)), 1) if kind == "rounded" \
            else rng.integers(0, 2, size=(n, 3)).astype(float)
        assert_curvature_matches_oracle(points, k)

    def test_tie_straddles_kth_neighbour(self):
        # integer lattice in shuffled order: an interior point has 6
        # neighbours at distance 1 and 12 at sqrt(2), so ranks 8 and 9 tie
        axis = np.arange(5.0)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                           -1).reshape(-1, 3)
        points = lattice[np.random.default_rng(3).permutation(len(lattice))]
        k = 8
        d2 = sorted_sq_distances(points)
        assert (d2[:, k] == d2[:, k + 1]).sum() >= 27
        assert_curvature_matches_oracle(points, k)

    @pytest.mark.parametrize("n_near", [0, 50])
    def test_overflowing_distances(self, n_near):
        # a squared difference overflows near 1.3e154: some far-far
        # distances are inf, every far-near one is, and none is NaN
        rng = np.random.default_rng(11)
        far = 1e155 + 3e153 * rng.normal(size=(30, 3))
        points = np.vstack([far, rng.normal(size=(n_near, 3))])
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = sq_distances(points)
            assert np.isinf(d2[:30, :30]).any() and not np.isnan(d2).any()
            assert np.isinf(d2[:30, 30:]).all()
            assert_curvature_matches_oracle(points, 8)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ingest_surfaces(self, seed):
        assert_curvature_matches_oracle(ingest_surface(seed).positions, 16)

    def test_adaptive_on_ingest_surface(self):
        cloud = ingest_surface(1)
        cfg = SamplingConfig(method="adaptive", n_points=512,
                             seed=derive_seed(1, 1))
        assert sample_adaptive(cloud, cfg) == oracle_adaptive(cloud, cfg)


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


def shuffled_lattice(side, step=1.0):
    axis = np.arange(side) * step
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                       -1).reshape(-1, 3)
    return lattice[np.random.default_rng(side).permutation(len(lattice))]


def block_clouds():
    """Clouds large enough for the spatial-block k-NN, with the k to use."""
    rng = np.random.default_rng(29)
    xs, ys = np.meshgrid(np.linspace(0, 1, 64), np.linspace(0, 1, 32))
    t = rng.uniform(size=2048)
    return {
        # ties straddle windows; exact in float64
        "integer_lattice": (shuffled_lattice(16), 8),
        # the same ties, decided by the last bit of each distance
        "decimal_lattice": (shuffled_lattice(16, 0.1), 8),
        "rounded_box": (np.round(rng.uniform(size=(3000, 3)), 1), 8),
        "uniform_box": (rng.uniform(size=(4096, 3)), 16),
        "flat_grid": (np.column_stack([xs.ravel(), ys.ravel(),
                                       np.zeros(xs.size)]), 16),
        "line": (np.column_stack([t, 1e-3 * rng.normal(size=(2048, 2))]), 16),
        # the far points' block has a window as wide as the cloud
        "sphere_and_far_points": (np.vstack([
            fibonacci_sphere(2000),
            5e5 * (1 + 0.01 * rng.normal(size=(5, 3)))]), 16),
        "offset_surface": (ingest_surface(1).positions + 1e6, 16),
        # squared distances a few ulps into the subnormal range, so that
        # some rows tie with their window's boundary
        "subnormal_box": (rng.uniform(size=(2048, 3)) * 1e-161, 16),
        "surface_4096": (generate_records(DatasetSpec(
            n_samples=1, n_surface=4096, n_volume=8, seed=1))[0]
            .surface.positions, 16),
    }


BLOCK_CLOUDS = block_clouds()
# clouds on which some rows, but not all, fail the window proof (8 and 6
# of 4096 rows, 95 of 3000, 130 of 2048): a neighbour ties with the
# window's boundary
FALLBACK_CLOUDS = ["integer_lattice", "decimal_lattice", "rounded_box",
                   "subnormal_box"]


class TestBlockSearch:
    """The k-NN over spatial blocks keeps the full rows' neighbours and
    their order, and holds a bounded number of distances."""

    @pytest.mark.parametrize("name", BLOCK_CLOUDS)
    def test_curvature_bit_exact(self, name):
        points, k = BLOCK_CLOUDS[name]
        assert_curvature_matches_oracle(points, k)

    def test_block_path_runs_alone_on_ingest_surface(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the full-row pass ran")
        monkeypatch.setattr(sampling, "_full_rows", refuse)
        assert_curvature_matches_oracle(ingest_surface(1).positions, 16)

    @pytest.mark.parametrize("name", FALLBACK_CLOUDS)
    def test_unproved_rows_take_full_rows(self, monkeypatch, name):
        full_rows, seen = sampling._full_rows, []

        def spy(pos, rows, k):
            seen.append(len(rows))
            return full_rows(pos, rows, k)
        monkeypatch.setattr(sampling, "_full_rows", spy)
        points, k = BLOCK_CLOUDS[name]
        estimate_curvature(cloud_from(points), k)
        assert 0 < sum(seen) < len(points)

    def test_one_row_products_match_oracle(self, monkeypatch):
        """A chunk of one row gives the same neighbours as a larger one,
        on a lattice whose ties go by the last bit: here blocks of 16 rows
        are too small for k = 8, so each of the 512 rows is its own chunk
        of the full-row pass."""
        monkeypatch.setattr(sampling, "_ROWS", 16)
        monkeypatch.setattr(sampling, "_DISTANCES", 512)
        assert_curvature_matches_oracle(shuffled_lattice(8, 0.1), 8)

    def test_mid_size_cloud_matches_oracle(self):
        """A cloud too small for the blocks is searched in chunks of 359
        full rows, the oracle in one, on a lattice whose ties go by the
        last bit."""
        assert_curvature_matches_oracle(shuffled_lattice(9, 0.1), 8)

    def test_last_bit_tie_in_a_window_matches_oracle(self):
        """Row 296 of this lattice has two neighbours whose distances tie
        to the last bit; a window and a full row compute each of them to
        the same float, so they come in the same order."""
        assert_curvature_matches_oracle(shuffled_lattice(13, 0.1), 8)

    @pytest.mark.parametrize("n", [1000, 2048, 8192, 32768])
    def test_traced_peak_bounded(self, n):
        cloud = generate_records(DatasetSpec(n_samples=1, n_surface=n,
                                             n_volume=8, seed=1))[0].surface
        tracemalloc.start()
        try:
            estimate_curvature(cloud, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    @pytest.mark.parametrize("n, most", [(8192, 900), (32768, 1100)])
    def test_distances_per_row_bounded(self, monkeypatch, n, most):
        """Blocks cut where the octree cell changes keep each window near
        its rows: few candidate distances per row on a surface."""
        select, computed = sampling._select, []

        def spy(pos, rows, k, cand=None):
            computed.append(len(rows) * (len(pos) if cand is None
                                         else len(cand)))
            return select(pos, rows, k, cand)
        monkeypatch.setattr(sampling, "_select", spy)
        cloud = generate_records(DatasetSpec(n_samples=1, n_surface=n,
                                             n_volume=8, seed=1))[0].surface
        estimate_curvature(cloud, 16)
        assert sum(computed) / n < most


def neighbour_sets(points, k):
    sets = [None] * len(points)
    for rows, order in sampling._knn_chunks(points, k):
        for row, nbrs in zip(rows, order):
            sets[row] = set(nbrs.tolist())
    return sets


class TestShiftInvariance:
    """Per-axis differences do not cancel: a cloud far from the origin
    keeps its neighbours and its adaptive picks."""

    @pytest.mark.parametrize("shift", [1e6, 1e7])
    def test_neighbours_and_adaptive_picks(self, shift):
        cloud = ingest_surface(1)
        moved = cloud_from(cloud.positions + shift)
        assert neighbour_sets(moved.positions, 16) == \
            neighbour_sets(cloud.positions, 16)
        cfg = SamplingConfig(method="adaptive", n_points=512,
                             seed=derive_seed(1, 1))
        assert sample_adaptive(moved, cfg) == sample_adaptive(cloud, cfg)
