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
_SLACK = 2.0 ** -40         # rounding slack of the window proof, relative
_UNDERFLOW = 2.0 ** -1000   # and absolute, for rounding below normal floats


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


def _select(pos, sq, rows, k, cand=None):
    """The k+1 nearest to each point of `rows` among the points `cand`
    (ascending indices; all points if None), as column numbers in
    (distance, index) order, and each row's rank-k squared distance.

    argpartition finds the k+2 nearest and lexsort orders them, as a
    stable sort of the row would. A row whose rank-k and rank-(k+1)
    distances tie (or are NaN) is sorted in full, so tied neighbours
    still go by lower index."""
    # BLAS computes a one-row product (gemv), and the last columns of a
    # product when fewer than its kernel's width, in another order: with
    # a second row, and a window padded to a multiple of 32 columns, each
    # distance is bit-equal to the one in a full row of a larger product
    gemm_rows = np.pad(rows, (0, int(len(rows) == 1)), mode="edge")
    cols = slice(None) if cand is None else \
        np.pad(cand, (0, -len(cand) % 32), mode="edge")
    d2 = sq[rows, None] + sq[None, cols] \
        - (2.0 * pos[gemm_rows] @ pos[cols].T)[:len(rows)]
    if cand is not None:
        d2 = d2[:, :len(cand)]
    kth = min(k + 1, d2.shape[1] - 1)
    part = np.argpartition(d2, kth, axis=1)[:, :k + 2]
    dist = np.take_along_axis(d2, part, axis=1)
    by = np.lexsort((part, dist), axis=1)
    order = np.take_along_axis(part, by, axis=1)[:, :k + 1]
    dist = np.take_along_axis(dist, by, axis=1)
    del part                                    # free argpartition's array
    tie = ~(dist[:, k] < dist[:, kth])          # or NaN, or only k+1 columns
    if tie.any():
        order[tie] = np.argsort(d2[tie], axis=1, kind="stable")[:, :k + 1]
    return order, dist[:, k]


def _full_rows(pos, sq, rows, k):
    """Per chunk of `rows`, yield (the rows, their k-NN indices), every
    point a candidate. A cloud of fewer than 4 * _ROWS points is one
    product, as an all-pairs search in chunks of 2_000_000 // N rows has
    it; a larger one takes _DISTANCES // N rows at a time."""
    n = len(pos)
    chunk = n if n < 4 * _ROWS else max(1, _DISTANCES // n)
    for start in range(0, len(rows), chunk):
        part = rows[start:start + chunk]
        order, _ = _select(pos, sq, part, k)
        yield part, order[:, 1:]                # skip the point itself


def _morton(pos, lo, extent):
    """Z-order code of each point on a 1024^3 grid over its bounding box."""
    cell = np.minimum((pos - lo) / extent * 1024, 1023).astype(np.int64)
    code = np.zeros(len(pos), dtype=np.int64)
    for bit in range(10):
        code |= (((cell >> bit) & 1) << (3 * bit + np.arange(3))).sum(axis=1)
    return code


def _window_rows(pos, sq, k):
    """Per chunk of a spatial block's rows, yield (the rows, their k-NN
    indices) for the rows whose window proof holds; return the rows it
    does not hold for."""
    n = len(pos)
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    extent = np.where(hi > lo, hi - lo, 1.0)
    code = _morton(pos, lo, extent)
    by_code = np.argsort(code, kind="stable")
    # a second Z-order, over a box shifted by a third of the extent, keeps
    # together near points that the first one puts far apart
    by_shift = np.argsort(_morton(pos, lo - extent / 3, extent * 4 / 3),
                          kind="stable")
    at_code = np.empty(n, dtype=np.int64)
    at_shift = np.empty(n, dtype=np.int64)
    at_code[by_code] = at_shift[by_shift] = np.arange(n)
    shift_at_code = at_code[by_shift]
    in_code, in_shift = pos[by_code], pos[by_shift]
    axis = int(np.argmax(hi - lo))          # candidates come from a slab
    by_axis = np.argsort(pos[:, axis], kind="stable")
    in_axis = pos[by_axis]
    slack = _SLACK * sq.max() + _UNDERFLOW
    span = np.arange(2 * (k + 2))
    cuts = list(range(0, n - _ROWS // 2, _ROWS)) + [n]  # 128 to 384 rows
    unproved = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        rows, p = by_code[start:stop], in_code[start:stop]
        # radius: each row's (k+2)-th distance (itself first) among the
        # 2(k+2) rows around it in each order, each point counted once
        first = np.clip(np.arange(start, stop) - k - 2, 0, n - len(span))
        other = np.clip(at_shift[rows] - k - 2, 0, n - len(span))
        near = in_code[first[:, None] + span] - p[:, None]
        d2 = np.einsum("ijk,ijk->ij", near, near)
        near = in_shift[other[:, None] + span] - p[:, None]
        d2_other = np.einsum("ijk,ijk->ij", near, near)
        again = shift_at_code[other[:, None] + span] - first[:, None]
        d2_other[(again >= 0) & (again < len(span))] = np.inf
        radius = np.sqrt(np.partition(np.hstack([d2, d2_other]), k + 1,
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
            order, dist_k = _select(pos, sq, part, k, cand)
            proved = dist_k + slack + _SLACK * part_gap2 < part_gap2
            yield part[proved], cand[order[proved, 1:]]
            unproved.append(part[~proved])
    return np.concatenate(unproved)


def _knn_chunks(pos: np.ndarray, k: int):
    """Per chunk of rows, yield (the rows, their k-NN indices).

    Each row gets the k points after itself in the order a stable sort of
    its row of squared distances sq[i] + sq[j] - 2 p_i.p_j over all
    points would give, holding about _DISTANCES distances at once.

    A cloud of at least 4 * _ROWS points whose |p|^2 are finite is
    searched over spatial blocks when k + 2 <= _ROWS // 2, the fewest
    rows of a block, each of them one of its candidates. Rows are sorted
    by Morton code and cut into blocks of _ROWS rows (the last one 128 to
    384). Each row's (k+2)-th neighbour distance r is
    bounded from the rows around it in that order and in a shifted one.
    A block's candidates are the points inside its window, the box
    [min(p - r), max(p + r)] over its rows. A row is kept only if a proof
    holds: its rank-k candidate distance plus the slack
    _SLACK * (max|p|^2 + gap^2) + _UNDERFLOW is strictly below its
    squared gap to the window's boundary. Then every
    point outside the window comes after its k nearest: the distance
    expression is exact to a few units of rounding of max|p|^2, the gap
    to one of its own, and the slack covers both many times over. Every
    other row, and every row of a smaller cloud, of a larger k or of a
    cloud whose |p|^2 overflows, is selected with all points as
    candidates by the same routine.

    The order is not bit-identical to an all-pairs search in general. A
    window's distances are bit-equal to a full row's, except those to the
    last N mod 8 points, which BLAS computes by another kernel whose last
    bit depends on the product's shape. So two neighbours whose distances
    tie to the last bit, one of them among those points, can come in
    another order (one row of a shuffled 13^3 lattice of step 0.1 at
    k = 8).
    """
    n = pos.shape[0]
    sq = np.einsum("ij,ij->i", pos, pos)
    rest = np.arange(n)
    if n >= 4 * _ROWS and k + 2 <= _ROWS // 2 and np.isfinite(sq).all():
        rest = yield from _window_rows(pos, sq, k)
    if len(rest):
        yield from _full_rows(pos, sq, rest, k)


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
    (see _knn_chunks, also for the one kind of last-bit tie whose order
    can differ from an all-pairs search).
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
