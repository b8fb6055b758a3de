"""Point-cloud downsampling: random, curvature-based, and adaptive.

The adaptive strategy keeps a curvature budget of the highest
surface-variation points and spends the rest across a voxel grid with
sub-linear (square-root) occupancy weighting, thinning dense regions.
"""

from dataclasses import dataclass
from pathlib import Path
import math

import numpy as np

from .pointcloud import PointCloud
from .rng import SplitMix64

_DEGENERATE_EIG_SUM = 1e-18


@dataclass(frozen=True)
class SamplingConfig:
    method: str = "adaptive"            # random | curvature | adaptive
    n_points: int = 1024
    seed: int = 0
    knn_k: int = 16                     # curvature neighborhood size
    curvature_fraction: float = 0.5     # adaptive budget split
    grid_cells: int = 16                # voxel grid resolution per axis

    def __post_init__(self):
        if self.method not in ("random", "curvature", "adaptive"):
            raise ValueError(f"unknown sampling method {self.method!r}")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.knn_k < 3:
            raise ValueError("knn_k must be >= 3")
        if not 0.0 < self.curvature_fraction < 1.0:
            raise ValueError("curvature_fraction must be strictly inside (0,1)")
        if self.grid_cells < 1:
            raise ValueError("grid_cells must be >= 1")
        if self.grid_cells ** 3 > 2 ** 63:
            raise ValueError(f"grid_cells must be <= {2 ** 21}, so that the "
                             "voxel ids (x*G + y)*G + z fit in int64")


def _knn_chunks(pos: np.ndarray, k: int):
    """Per chunk of rows, yield (start, stop, the rows' k-NN indices)."""
    n = pos.shape[0]
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    sq = np.einsum("ij,ij->i", pos, pos)
    kth = min(k + 1, n - 1)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * pos[start:stop] @ pos.T
        cand = np.argpartition(d2, kth, axis=1)[:, :k + 2]
        dist = np.take_along_axis(d2, cand, axis=1)
        by = np.lexsort((cand, dist), axis=1)
        order = np.take_along_axis(cand, by, axis=1)[:, :k + 1]
        dist = np.take_along_axis(dist, by, axis=1)
        tie = ~(dist[:, k] < dist[:, kth])      # or NaN, or n == k+1
        if tie.any():
            order[tie] = np.argsort(d2[tie], axis=1, kind="stable")[:, :k + 1]
        del d2, cand                            # free before the caller runs
        yield start, stop, order[:, 1:]         # skip the point itself


def estimate_curvature(cloud: PointCloud, k: int = 16) -> np.ndarray:
    """Surface-variation score per point: kappa = lambda3 / sum(lambda)
    over the covariance eigenvalues of the k-NN neighborhood.

    kappa is 0 on planes, bounded above by 1/3, and rotation-invariant.
    The k-NN is exact, chunked to bound memory. Per distance row,
    argpartition finds the k+2 nearest, ordered by (distance, index) as
    by a stable sort of the row. A row whose k-th and (k+1)-th distances
    tie is sorted in full, so tied neighbours still go by lower index and
    each covariance is summed in the same order.
    """
    pos = cloud.positions
    n = pos.shape[0]
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, have {n}")
    kappa = np.empty(n, dtype=np.float64)
    for start, stop, order in _knn_chunks(pos, k):
        pts = pos[order]                                    # (rows, k, 3)
        centered = pts - pts.mean(axis=1, keepdims=True)
        cov = np.swapaxes(centered, 1, 2) @ centered / k
        eig = np.linalg.eigvalsh(cov)                       # ascending
        total = eig.sum(axis=1)
        degenerate = total < _DEGENERATE_EIG_SUM
        ratio = eig[:, 0] / np.where(degenerate, 1.0, total)
        kappa[start:stop] = np.where(degenerate, 0.0, np.maximum(0.0, ratio))
    return kappa


def sample_random(cloud: PointCloud, n: int, seed: int) -> list[int]:
    """Uniform subset without replacement; ascending indices. Returns all
    indices when n >= N."""
    n_total = cloud.n_points
    if n >= n_total:
        return list(range(n_total))
    rng = SplitMix64(seed)
    return sorted(rng.sample_without_replacement(n_total, n))


def _descending(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score, ties broken by ascending index."""
    return np.argsort(-scores, kind="stable")


def sample_curvature(cloud: PointCloud, n: int, k: int = 16) -> list[int]:
    """Indices of the n largest curvature scores, ascending."""
    if n >= cloud.n_points:
        return list(range(cloud.n_points))
    kappa = estimate_curvature(cloud, k)
    return np.sort(_descending(kappa)[:n]).tolist()


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of `total` proportional to `weights` with
    largest-remainder rounding; ties go to the lower index."""
    w_sum = float(weights.sum())
    if w_sum <= 0 or total <= 0:
        return np.zeros(len(weights), dtype=np.int64)
    exact = weights * (total / w_sum)
    base = np.floor(exact).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        base[_descending(exact - base)[:leftover]] += 1
    return base


def sample_adaptive(cloud: PointCloud, config: SamplingConfig) -> list[int]:
    """Two-stage adaptive sampling.

    1) reserve ceil(rho * n) top-curvature points;
    2) spread the remaining budget over a GxGxG voxel grid proportionally
       to ceil(sqrt(occupancy)), drawing uniformly inside each voxel;
    3) top up from the unused highest-curvature points if short.
    """
    n_total = cloud.n_points
    n = config.n_points
    if n >= n_total:
        return list(range(n_total))
    kappa = estimate_curvature(cloud, config.knn_k)
    curv_order = _descending(kappa)
    n_curv = min(math.ceil(config.curvature_fraction * n), n)
    selected = np.zeros(n_total, dtype=bool)
    selected[curv_order[:n_curv]] = True

    remaining = np.flatnonzero(~selected)
    n_rest = n - n_curv
    if n_rest > 0:
        pos = cloud.positions
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        extent = np.where(hi - lo > 0, hi - lo, 1.0)
        g = config.grid_cells
        cells = np.minimum(((pos[remaining] - lo) / extent * g).astype(np.int64),
                           g - 1)
        cell_ids = (cells[:, 0] * g + cells[:, 1]) * g + cells[:, 2]
        # group remaining points by lexicographic cell index
        order = np.argsort(cell_ids, kind="stable")
        _, starts, occupancy = np.unique(cell_ids[order], return_index=True,
                                         return_counts=True)
        groups = np.split(remaining[order], starts[1:])
        quota = _largest_remainder(np.ceil(np.sqrt(occupancy)), n_rest)
        quota = np.minimum(quota, occupancy)
        rng = SplitMix64(config.seed)
        for grp, q in zip(groups, quota):
            if q <= 0:
                continue
            selected[grp[rng.sample_without_replacement(len(grp), int(q))]] = True

    # top up with unused highest-curvature points (covers quota caps too)
    short = n - int(selected.sum())
    if short > 0:
        selected[curv_order[~selected[curv_order]][:short]] = True
    return np.flatnonzero(selected).tolist()


def sample_indices(cloud: PointCloud, config: SamplingConfig) -> list[int]:
    """Dispatch on config.method."""
    if config.method == "random":
        return sample_random(cloud, config.n_points, config.seed)
    if config.method == "curvature":
        return sample_curvature(cloud, config.n_points, config.knn_k)
    return sample_adaptive(cloud, config)


def write_index_file(indices: list[int], path) -> None:
    """Index file: header n, then n ascending indices one per line."""
    path = Path(path)
    path.write_text("\n".join([str(len(indices))] + [str(i) for i in indices]) + "\n")


def read_index_file(path) -> list[int]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty index file")
    n = int(lines[0])
    idx = [int(ln) for ln in lines[1:]]
    if len(idx) != n:
        raise ValueError(f"{path}: header says {n} indices, found {len(idx)}")
    return idx
