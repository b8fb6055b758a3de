"""Point-cloud data types, validation, normalization, and text file I/O.

A sample lives in one directory:

    surface.txt   header "N_s C_u has_normals", then one point per row
    volume.txt    header "N_v C_u 0", volume points never carry normals
    pressure.txt  N_s pressure coefficients, one per row
    velocity.txt  N_v rows of "vx vy vz"
    cd.txt        one drag coefficient

Every file is one row per line; blank lines are skipped on reading, and
a malformed value is reported as `file:line`. All decimals are written
with 17 significant digits (%.17g) so float64 values round-trip
bit-exactly. A prediction directory holds the same three target files
(pressure.txt, velocity.txt, cd.txt). A dataset root holds manifest.json
listing the sample directories.
"""

from dataclasses import dataclass
from pathlib import Path
import json

import numpy as np

from .rng import fnv1a64

FORMAT_VERSION = 1
_STD_FLOOR = 1e-8


class SampleFormatError(ValueError):
    """Malformed or inconsistent sample files."""


@dataclass(frozen=True)
class PointCloud:
    """N points with positions, optional unit normals, optional extra
    feature channels, and a surface/volume role tag."""

    positions: np.ndarray           # (N, 3)
    normals: np.ndarray | None      # (N, 3) or None
    extra_features: np.ndarray      # (N, C_u), C_u may be 0
    role: str                       # "surface" or "volume"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must be (N>=1, 3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("non-finite position")
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=np.float64)
            object.__setattr__(self, "normals", nrm)
            if nrm.shape != pos.shape:
                raise ValueError("normals shape must match positions")
            lengths = np.linalg.norm(nrm, axis=1)
            if not np.all(np.abs(lengths - 1.0) <= 1e-6):
                raise ValueError("normals must have unit length within 1e-6")
        feats = np.asarray(self.extra_features, dtype=np.float64)
        if feats.ndim == 1:
            feats = feats.reshape(pos.shape[0], -1)
        object.__setattr__(self, "extra_features", feats)
        if feats.shape[0] != pos.shape[0]:
            raise ValueError("extra_features row count must equal N")
        if not np.all(np.isfinite(feats)):
            raise ValueError("non-finite feature value")
        if self.role not in ("surface", "volume"):
            raise ValueError(f"role must be surface|volume, got {self.role!r}")

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def n_extra(self) -> int:
        return self.extra_features.shape[1]

    def select(self, indices) -> "PointCloud":
        """Subset by index array, preserving order."""
        idx = np.asarray(indices, dtype=np.int64)
        return PointCloud(
            positions=self.positions[idx],
            normals=None if self.normals is None else self.normals[idx],
            extra_features=self.extra_features[idx],
            role=self.role,
        )


@dataclass(frozen=True)
class SampleRecord:
    """One training instance: surface cloud, volume query cloud, and the
    three ground-truth targets."""

    surface: PointCloud
    volume: PointCloud
    pressure: np.ndarray   # (N_s,)
    velocity: np.ndarray   # (N_v, 3)
    drag: float
    id: str = ""

    def __post_init__(self):
        p = np.asarray(self.pressure, dtype=np.float64).reshape(-1)
        v = np.asarray(self.velocity, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "pressure", p)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "drag", float(self.drag))
        if self.surface.role != "surface":
            raise ValueError("surface cloud must have role=surface")
        if self.volume.role != "volume":
            raise ValueError("volume cloud must have role=volume")
        if p.shape[0] != self.surface.n_points:
            raise ValueError(
                f"pressure length {p.shape[0]} != surface point count "
                f"{self.surface.n_points}")
        if v.shape[0] != self.volume.n_points:
            raise ValueError(
                f"velocity row count {v.shape[0]} != volume point count "
                f"{self.volume.n_points}")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))
                and np.isfinite(self.drag)):
            raise ValueError("non-finite target value")


@dataclass(frozen=True)
class NormalizationStats:
    """Position centering/scaling plus per-channel target standardization.

    Target channel order: pressure (1), velocity (3), drag (1).
    """

    position_center: np.ndarray      # (3,)
    position_scale: float
    pressure_mean: float
    pressure_std: float
    velocity_mean: np.ndarray        # (3,)
    velocity_std: np.ndarray         # (3,)
    drag_mean: float
    drag_std: float

    def __post_init__(self):
        object.__setattr__(self, "position_center",
                           np.asarray(self.position_center, dtype=np.float64).reshape(3))
        object.__setattr__(self, "velocity_mean",
                           np.asarray(self.velocity_mean, dtype=np.float64).reshape(3))
        object.__setattr__(self, "velocity_std",
                           np.asarray(self.velocity_std, dtype=np.float64).reshape(3))
        if not self.position_scale > 0:
            raise ValueError("position_scale must be positive")
        if not (self.pressure_std > 0 and self.drag_std > 0
                and np.all(self.velocity_std > 0)):
            raise ValueError("target stds must be positive")

    @staticmethod
    def identity() -> "NormalizationStats":
        return NormalizationStats(np.zeros(3), 1.0, 0.0, 1.0,
                                  np.zeros(3), np.ones(3), 0.0, 1.0)

    def to_dict(self) -> dict:
        return {
            "position_center": [float(x) for x in self.position_center],
            "position_scale": float(self.position_scale),
            "pressure_mean": float(self.pressure_mean),
            "pressure_std": float(self.pressure_std),
            "velocity_mean": [float(x) for x in self.velocity_mean],
            "velocity_std": [float(x) for x in self.velocity_std],
            "drag_mean": float(self.drag_mean),
            "drag_std": float(self.drag_std),
        }

    @staticmethod
    def from_dict(d: dict) -> "NormalizationStats":
        return NormalizationStats(
            np.asarray(d["position_center"]), d["position_scale"],
            d["pressure_mean"], d["pressure_std"],
            np.asarray(d["velocity_mean"]), np.asarray(d["velocity_std"]),
            d["drag_mean"], d["drag_std"])


def compute_stats(records: list[SampleRecord]) -> NormalizationStats:
    """Aggregate normalization statistics over a list of records.

    Center is the mean of all surface+volume positions; scale the max
    distance from that center. Target means/stds are population statistics
    per channel, stds floored at 1e-8.
    """
    if not records:
        raise ValueError("compute_stats needs at least one record")
    all_pos = np.concatenate(
        [r.surface.positions for r in records]
        + [r.volume.positions for r in records], axis=0)
    center = all_pos.mean(axis=0)
    scale = float(np.linalg.norm(all_pos - center, axis=1).max())
    if scale <= 0:
        scale = 1.0
    pressures = np.concatenate([r.pressure for r in records])
    velocities = np.concatenate([r.velocity for r in records], axis=0)
    drags = np.array([r.drag for r in records])

    def _mean_std(x, axis=None):
        m = x.mean(axis=axis)
        s = np.maximum(x.std(axis=axis), _STD_FLOOR)
        return m, s

    p_mean, p_std = _mean_std(pressures)
    v_mean, v_std = _mean_std(velocities, axis=0)
    d_mean, d_std = _mean_std(drags)
    return NormalizationStats(center, scale, float(p_mean), float(p_std),
                              v_mean, v_std, float(d_mean), float(d_std))


def normalize_cloud(cloud: PointCloud, center, scale) -> PointCloud:
    """Cloud with positions mapped to (p - center)/scale; normals and
    features unchanged."""
    return PointCloud(
        positions=(cloud.positions - center) / scale,
        normals=cloud.normals,
        extra_features=cloud.extra_features,
        role=cloud.role,
    )


def normalize(record: SampleRecord, stats: NormalizationStats) -> SampleRecord:
    """Map positions to (p - center)/scale and each target channel to
    (t - mean)/std."""
    return SampleRecord(
        surface=normalize_cloud(record.surface, stats.position_center,
                                stats.position_scale),
        volume=normalize_cloud(record.volume, stats.position_center,
                               stats.position_scale),
        pressure=(record.pressure - stats.pressure_mean) / stats.pressure_std,
        velocity=(record.velocity - stats.velocity_mean) / stats.velocity_std,
        drag=(record.drag - stats.drag_mean) / stats.drag_std,
        id=record.id,
    )


def denormalize(record: SampleRecord, stats: NormalizationStats) -> SampleRecord:
    """Inverse of normalize()."""
    return SampleRecord(
        surface=normalize_cloud(record.surface,
                                -stats.position_center / stats.position_scale,
                                1.0 / stats.position_scale),
        volume=normalize_cloud(record.volume,
                               -stats.position_center / stats.position_scale,
                               1.0 / stats.position_scale),
        pressure=record.pressure * stats.pressure_std + stats.pressure_mean,
        velocity=record.velocity * stats.velocity_std + stats.velocity_mean,
        drag=record.drag * stats.drag_std + stats.drag_mean,
        id=record.id,
    )


# ---------------------------------------------------------------------------
# file I/O


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise SampleFormatError(f"missing file: {path}")
    return path.read_text().splitlines()


def _read_rows(path: Path, n: int, width: int, lines: list[str] | None = None,
               start: int = 0) -> np.ndarray:
    """Parse a sample file as an (n, width) array of finite floats.

    Blank lines are skipped; errors name the line's number in the file. A
    caller that has read the file already passes its `lines` and the index
    of the first body line.
    """
    if lines is None:
        lines = _read_lines(path)
    body = [i for i in range(start, len(lines)) if lines[i].strip()]
    if len(body) != n:
        raise SampleFormatError(f"{path}: expected {n} rows, got {len(body)}")
    rows = []
    for i in body:
        parts = lines[i].split()
        if len(parts) != width:
            raise SampleFormatError(
                f"{path}:{i + 1}: expected {width} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise SampleFormatError(f"{path}:{i + 1}: {e}") from None
    arr = np.array(rows, dtype=np.float64).reshape(n, width)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        lineno = body[int(np.argmin(finite))] + 1
        raise SampleFormatError(f"{path}:{lineno}: non-finite value")
    return arr


def _write_rows(path: Path, rows, header: str | None = None) -> None:
    """Write a 2-D array one row per line with %.17g values."""
    rows = np.asarray(rows, dtype=np.float64)
    fmt = " ".join(["%.17g"] * rows.shape[1])
    lines = [] if header is None else [header]
    lines += [fmt % tuple(row.tolist()) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _load_cloud(path: Path, role: str) -> PointCloud:
    lines = _read_lines(path)
    if not lines:
        raise SampleFormatError(f"{path}:1: empty file")
    header = lines[0].split()
    if len(header) != 3:
        raise SampleFormatError(f"{path}:1: header must be 'N C_u has_normals'")
    try:
        n, c_u, has_normals = int(header[0]), int(header[1]), int(header[2])
    except ValueError:
        raise SampleFormatError(f"{path}:1: non-integer header field") from None
    if has_normals not in (0, 1):
        raise SampleFormatError(f"{path}:1: has_normals must be 0 or 1")
    if c_u < 0:
        raise SampleFormatError(f"{path}:1: C_u must be >= 0")
    arr = _read_rows(path, n, 3 + 3 * has_normals + c_u, lines, start=1)
    try:
        return PointCloud(positions=arr[:, :3],
                          normals=arr[:, 3:6] if has_normals else None,
                          extra_features=arr[:, 3 + 3 * has_normals:], role=role)
    except ValueError as e:
        raise SampleFormatError(f"{path}: {e}") from None


def load_sample(path) -> SampleRecord:
    """Load one sample directory into a validated SampleRecord."""
    path = Path(path)
    surface = _load_cloud(path / "surface.txt", "surface")
    volume = _load_cloud(path / "volume.txt", "volume")
    if volume.normals is not None:
        raise SampleFormatError(f"{path / 'volume.txt'}: volume points must not carry normals")
    pressure = _read_rows(path / "pressure.txt", surface.n_points, 1)[:, 0]
    velocity = _read_rows(path / "velocity.txt", volume.n_points, 3)
    drag = _read_rows(path / "cd.txt", 1, 1)[0, 0]
    try:
        return SampleRecord(surface=surface, volume=volume, pressure=pressure,
                            velocity=velocity, drag=drag, id=path.name)
    except ValueError as e:
        raise SampleFormatError(f"{path}: {e}") from None


def save_targets(path, pressure, velocity, drag: float) -> None:
    """Write pressure.txt, velocity.txt and cd.txt into directory `path`."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    _write_rows(path / "pressure.txt", np.reshape(pressure, (-1, 1)))
    _write_rows(path / "velocity.txt", np.reshape(velocity, (-1, 3)))
    _write_rows(path / "cd.txt", [[drag]])


def save_sample(record: SampleRecord, path) -> None:
    """Write a sample directory; byte-deterministic for identical input."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, cloud in (("surface.txt", record.surface),
                        ("volume.txt", record.volume)):
        has_n = cloud.normals is not None
        cols = [cloud.positions] + ([cloud.normals] if has_n else []) \
            + [cloud.extra_features]
        _write_rows(path / name, np.hstack(cols),
                    header=f"{cloud.n_points} {cloud.n_extra} {int(has_n)}")
    save_targets(path, record.pressure, record.velocity, record.drag)


# ---------------------------------------------------------------------------
# dataset manifests


def write_manifest(root, sample_dirs: list[str], splits: dict[str, str] | None = None,
                   extra: dict | None = None) -> Path:
    """Write manifest.json at the dataset root."""
    root = Path(root)
    manifest = {"samples": list(sample_dirs), "format_version": FORMAT_VERSION}
    if splits:
        manifest["splits"] = dict(splits)
    if extra:
        manifest.update(extra)
    out = root / "manifest.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def read_manifest(root) -> dict:
    root = Path(root)
    path = root / "manifest.json"
    if not path.is_file():
        raise SampleFormatError(f"missing manifest: {path}")
    manifest = json.loads(path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise SampleFormatError(
            f"{path}: unsupported format_version {manifest.get('format_version')}")
    return manifest


def split_of(sample_dir: str, manifest: dict) -> str:
    """Split assignment for one sample: explicit manifest entry wins, else a
    deterministic 80/20 hash of the sample id."""
    explicit = manifest.get("splits", {}).get(sample_dir)
    if explicit is not None:
        return explicit
    return "val" if fnv1a64(sample_dir) % 100 < 20 else "train"


def load_dataset(root) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Load all samples under a manifest; returns (train, val) lists."""
    root = Path(root)
    manifest = read_manifest(root)
    train, val = [], []
    for rel in manifest["samples"]:
        rec = load_sample(root / rel)
        (val if split_of(rel, manifest) == "val" else train).append(rec)
    return train, val
