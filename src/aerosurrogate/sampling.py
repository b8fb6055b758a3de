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
_ROWS = 256                 # rows of a spatial block of the k-NN
_DISTANCES = 2 ** 18        # squared distances the k-NN holds at once


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


def _sq_distances(pos, rows, cand=None):
    """(dx^2 + dy^2) + dz^2 of the per-axis differences from each point of
    `rows` to each point of `cand` (all points if None), so each squared
    distance is the same float in any chunk of rows or columns."""
    other = pos if cand is None else pos[cand]
    d2 = np.subtract.outer(pos[rows, 0], other[:, 0])
    d2 *= d2
    scratch = np.empty_like(d2)
    for axis in (1, 2):
        np.subtract.outer(pos[rows, axis], other[:, axis], out=scratch)
        scratch *= scratch
        d2 += scratch
    return d2


def _select(pos, rows, k, cand=None):
    """The k+1 nearest to each point of `rows` among the points `cand`
    (ascending indices; all points if None), as column numbers in
    (distance, index) order, and each row's rank-k squared distance.

    The squared distances come from _sq_distances. argpartition finds the
    k+2 nearest and lexsort orders them, as a stable sort of the row
    would. A row whose rank-k and rank-(k+1) distances tie is sorted in
    full, so tied neighbours still go by lower index."""
    d2 = _sq_distances(pos, rows, cand)
    kth = min(k + 1, d2.shape[1] - 1)
    part = np.argpartition(d2, kth, axis=1)[:, :k + 2]
    dist = np.take_along_axis(d2, part, axis=1)
    by = np.lexsort((part, dist), axis=1)
    order = np.take_along_axis(part, by, axis=1)[:, :k + 1]
    dist = np.take_along_axis(dist, by, axis=1)
    del part                                    # free argpartition's array
    tie = ~(dist[:, k] < dist[:, kth])          # or only k+1 columns
    if tie.any():
        order[tie] = np.argsort(d2[tie], axis=1, kind="stable")[:, :k + 1]
    return order, dist[:, k]


def _full_rows(pos, rows, k):
    """Per chunk of _DISTANCES // N of `rows`, yield (the rows, their k-NN
    indices), every point a candidate."""
    chunk = max(1, _DISTANCES // len(pos))
    for start in range(0, len(rows), chunk):
        part = rows[start:start + chunk]
        order, _ = _select(pos, part, k)
        yield part, order[:, 1:]                # skip the point itself


def _morton(pos, lo, extent):
    """Z-order code of each point on a 1024^3 grid over its bounding box."""
    cell = np.minimum((pos - lo) / extent * 1024, 1023).astype(np.int64)
    code = np.zeros(len(pos), dtype=np.int64)
    for bit in range(10):
        code |= (((cell >> bit) & 1) << (3 * bit + np.arange(3))).sum(axis=1)
    return code


def _window_rows(pos, k):
    """Per chunk of a spatial block's rows, yield (the rows, their k-NN
    indices) for the rows whose window proof holds; return the rows it
    does not hold for."""
    n = len(pos)
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    extent = np.where(hi > lo, hi - lo, 1.0)
    code = _morton(pos, lo, extent)
    by_code = np.argsort(code, kind="stable")
    code = code[by_code]
    axis = int(np.argmax(hi - lo))          # candidates come from a slab
    by_axis = np.argsort(pos[:, axis], kind="stable")
    in_axis = pos[by_axis]
    # cut within _ROWS // 4 of each multiple of _ROWS, where the largest
    # octree cell there ends: at the highest code[i] ^ code[i - 1]
    around = (np.arange(_ROWS, n - 3 * _ROWS // 4, _ROWS)[:, None]
              + np.arange(-(_ROWS // 4), _ROWS // 4))
    jump = code[around] ^ code[around - 1]
    cuts = [0, *(around[:, 0] + np.argmax(jump, axis=1)), n]  # 129 to 512 rows
    unproved = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        rows = by_code[start:stop]
        p = pos[rows]
        # radius: each row's (k+2)-th distance (itself first) among its
        # block's rows, which a subset of the points can only overestimate
        radius = np.sqrt(np.partition(_sq_distances(pos, rows, rows), k + 1,
                                      axis=1)[:, k + 1])
        box_lo = (p - radius[:, None]).min(axis=0)
        box_hi = (p + radius[:, None]).max(axis=0)
        slab = slice(np.searchsorted(in_axis[:, axis], box_lo[axis], "left"),
                     np.searchsorted(in_axis[:, axis], box_hi[axis], "right"))
        inside = ((in_axis[slab] >= box_lo)
                  & (in_axis[slab] <= box_hi)).all(axis=1)
        cand = np.sort(by_axis[slab][inside])   # at least the block's rows
        gap = np.minimum(p - box_lo, box_hi - p).min(axis=1)
        gap2 = gap * gap
        parts = -(-len(rows) * len(cand) // _DISTANCES)
        for part, part_gap2 in zip(np.array_split(rows, parts),
                                   np.array_split(gap2, parts)):
            order, dist_k = _select(pos, part, k, cand)
            proved = dist_k < part_gap2
            yield part[proved], cand[order[proved, 1:]]
            unproved.append(part[~proved])
    return np.concatenate(unproved)


def _knn_chunks(pos: np.ndarray, k: int):
    """Per chunk of rows, yield (the rows, their k-NN indices).

    Each row gets the k points after itself in the order a stable sort of
    its row of squared distances (see _select) over all points would
    give, holding about _DISTANCES distances at once.

    A cloud of at least 4 * _ROWS points with a finite extent is searched
    over spatial blocks when k + 2 <= _ROWS // 2, fewer than the rows of
    any block, all of which are among its candidates. Rows are sorted by
    Morton code and cut into blocks of 129 to 512 rows, each cut within
    _ROWS // 4 of a multiple of _ROWS where the octree cell changes. Each
    row's (k+2)-th neighbour distance r is bounded from its own block's
    rows, a subset of the points. A block's candidates are the points
    inside its window, the box [min(p - r), max(p + r)] over its rows.
    A row is kept only if its rank-k candidate distance is
    strictly below gap2, the square of its gap to the window's boundary;
    then every point outside the window comes after its k nearest.
    Rounding is monotone, so on an axis where a point lies outside the
    window, the row's computed difference to it is at least the computed
    gap in size (the window test and the gap use the same floats box_lo
    and box_hi), and its square at least gap2; and fl(a + b) >= a for
    b >= 0, so its squared distance is at least gap2 as well. Every other
    row, and every row of a smaller cloud, of a larger k or of a cloud
    whose extent overflows, is selected with all points as candidates by
    the same routine.
    """
    n = pos.shape[0]
    rest = np.arange(n)
    if n >= 4 * _ROWS and k + 2 <= _ROWS // 2 \
            and np.isfinite(pos.max(axis=0) - pos.min(axis=0)).all():
        rest = yield from _window_rows(pos, k)
    if len(rest):
        yield from _full_rows(pos, rest, k)


def estimate_curvature(cloud: PointCloud, k: int = 16) -> np.ndarray:
    """Surface-variation score per point: kappa = lambda3 / sum(lambda)
    over the covariance eigenvalues of the k-NN neighborhood.

    kappa is 0 on planes, bounded above by 1/3, and rotation-invariant.
    The k-NN is exact: each point's neighbours are those a stable sort of
    its full row of squared distances gives, in that order, so tied
    neighbours go by lower index and each covariance is summed in the
    same order. It is searched over spatial blocks, in about linear time
    on a surface, with at most _DISTANCES distances held at once; a row
    the block search cannot prove exact is searched over all points
    (see _knn_chunks).
    """
    pos = cloud.positions
    n = pos.shape[0]
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, have {n}")
    kappa = np.empty(n, dtype=np.float64)
    for rows, order in _knn_chunks(pos, k):
        pts = pos[order]                                    # (rows, k, 3)
        centered = pts - pts.mean(axis=1, keepdims=True)
        cov = np.swapaxes(centered, 1, 2) @ centered / k
        eig = np.linalg.eigvalsh(cov)                       # ascending
        total = eig.sum(axis=1)
        degenerate = total < _DEGENERATE_EIG_SUM
        ratio = eig[:, 0] / np.where(degenerate, 1.0, total)
        kappa[rows] = np.where(degenerate, 0.0, np.maximum(0.0, ratio))
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
