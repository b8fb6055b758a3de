"""Point-cloud data types, validation, normalization, and text file I/O.

A sample lives in one directory:

    surface.txt   header "N_s C_u has_normals", then rows "x y z [nx ny nz]"
    volume.txt    header "N_v C_u 0", volume points never carry normals
    pressure.txt  N_s pressure coefficients, one per row
    velocity.txt  N_v rows of "vx vy vz"
    cd.txt        one drag coefficient

N_s and N_v are at least 1. C_u counts extra per-point feature columns
and must be 0: the model reads positions and normals only. Every file is
UTF-8 text, one row per line; blank lines are skipped on reading, and a
malformed value is reported as `file:line`. A file is read once;
np.loadtxt's C parser reads its rows, and where it might read them
differently from the per-line parser (non-ASCII text, a line break
str.splitlines knows and loadtxt does not, a token loadtxt rejects, a
non-finite value or the wrong shape), the per-line parser reads the text
again and has the last word. All decimals are written with 17
significant digits (%.17g), each file's rows by one `%` operation, so
float64 values round-trip bit-exactly. A prediction directory holds the
same three target files (pressure.txt, velocity.txt, cd.txt). A dataset
root holds manifest.json listing the sample directories.
"""

from dataclasses import dataclass, fields
from pathlib import Path
import io
import json
import warnings

import numpy as np

from .rng import fnv1a64

FORMAT_VERSION = 1
_STD_FLOOR = 1e-8


class SampleFormatError(ValueError):
    """Malformed or inconsistent sample files."""


@dataclass(frozen=True)
class PointCloud:
    """N points with positions, optional unit normals, and a
    surface/volume role tag."""

    positions: np.ndarray           # (N, 3)
    normals: np.ndarray | None      # (N, 3) or None
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
        if self.role not in ("surface", "volume"):
            raise ValueError(f"role must be surface|volume, got {self.role!r}")

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    def select(self, indices) -> "PointCloud":
        """Subset by index array, preserving order."""
        idx = np.asarray(indices, dtype=np.int64)
        return PointCloud(
            positions=self.positions[idx],
            normals=None if self.normals is None else self.normals[idx],
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
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")

    @staticmethod
    def identity() -> "NormalizationStats":
        return NormalizationStats(np.zeros(3), 1.0, 0.0, 1.0,
                                  np.zeros(3), np.ones(3), 0.0, 1.0)

    def to_dict(self) -> dict:
        """JSON-ready fields; NormalizationStats(**d) reads them back."""
        return {f.name: np.asarray(getattr(self, f.name),
                                   dtype=np.float64).tolist()
                for f in fields(self)}


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
    """Cloud with positions mapped to (p - center)/scale; normals
    unchanged."""
    return PointCloud(positions=(cloud.positions - center) / scale,
                      normals=cloud.normals, role=cloud.role)


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


# ---------------------------------------------------------------------------
# file I/O


# str.splitlines() ends a line at these, np.loadtxt reads them as spaces
_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


def _read_text(path: Path) -> str:
    if not path.is_file():
        raise SampleFormatError(f"missing file: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SampleFormatError(f"{path}: not UTF-8: {e}") from None


def _read_rows(path: Path, n: int, width: int, text: str | None = None,
               skip: int = 0) -> np.ndarray:
    """Parse a sample file as an (n, width) array of finite floats.

    A caller that has read the file already passes its `text` and the
    number of header lines to `skip`. np.loadtxt's C parser reads the
    rows; its array is kept only where the per-line parser would return
    the same one. In every other case that parser reads the text again
    and returns its own array or raises its `file:line` error.
    """
    if text is None:
        text = _read_text(path)
    if text.isascii() and not any(c in text for c in _LINE_BREAKS):
        try:
            with warnings.catch_warnings():     # a body with no rows warns
                warnings.simplefilter("ignore")
                arr = np.loadtxt(io.StringIO(text), dtype=np.float64,
                                 comments=None, ndmin=2, skiprows=skip)
        except ValueError:
            pass
        else:
            if arr.shape == (n, width) and np.isfinite(arr).all():
                return arr
    return _parse_lines(path, text.splitlines(), n, width, skip)


def _parse_lines(path: Path, lines: list[str], n: int, width: int,
                 start: int) -> np.ndarray:
    """`_read_rows` one line at a time: blank lines are skipped, and an
    error names the line's number in the file."""
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
    """Write a 2-D array one row per line with %.17g values, the whole
    body formatted by one `%`."""
    rows = np.asarray(rows, dtype=np.float64)
    n, width = rows.shape
    lines = [] if header is None else [header]
    if n:
        row_fmt = " ".join(["%.17g"] * width)
        lines.append("\n".join([row_fmt] * n) % tuple(rows.ravel().tolist()))
    path.write_text("\n".join(lines) + "\n")


def _load_cloud(path: Path, role: str) -> PointCloud:
    text = _read_text(path)
    if not text:
        raise SampleFormatError(f"{path}:1: empty file")
    # the first line of text.splitlines() ends at or before the first "\n"
    first = text.partition("\n")[0].splitlines()
    header = first[0].split() if first else []
    if len(header) != 3:
        raise SampleFormatError(f"{path}:1: header must be 'N C_u has_normals'")
    try:
        n, c_u, has_normals = int(header[0]), int(header[1]), int(header[2])
    except ValueError:
        raise SampleFormatError(f"{path}:1: non-integer header field") from None
    if n < 1:
        raise SampleFormatError(f"{path}:1: N must be >= 1, got {n}")
    if has_normals not in (0, 1):
        raise SampleFormatError(f"{path}:1: has_normals must be 0 or 1")
    if c_u != 0:
        raise SampleFormatError(
            f"{path}:1: C_u must be 0 (feature columns are not read)")
    arr = _read_rows(path, n, 3 + 3 * has_normals, text, skip=1)
    with np.errstate(over="ignore"):    # a squared distance reaches |2p|^2
        overflow = ~np.isfinite(((2.0 * arr[:, :3]) ** 2).sum(axis=1))
    if overflow.any():
        raise SampleFormatError(
            f"{path}: coordinates overflow: the squared distances of point "
            f"{int(np.argmax(overflow))} are not finite in float64")
    try:
        return PointCloud(positions=arr[:, :3],
                          normals=arr[:, 3:] if has_normals else None,
                          role=role)
    except ValueError as e:
        raise SampleFormatError(f"{path}: {e}") from None


def _load_volume(path: Path) -> PointCloud:
    volume = _load_cloud(path, "volume")
    if volume.normals is not None:
        raise SampleFormatError(f"{path}: volume points must not carry normals")
    return volume


def load_geometry(path) -> tuple[PointCloud, PointCloud | None]:
    """The clouds of a sample directory without its targets: surface.txt,
    and volume.txt when present (else None). This is all a prediction
    needs."""
    path = Path(path)
    surface = _load_cloud(path / "surface.txt", "surface")
    volume_path = path / "volume.txt"
    return surface, _load_volume(volume_path) if volume_path.exists() else None


def load_sample(path) -> SampleRecord:
    """Load one sample directory into a validated SampleRecord."""
    path = Path(path)
    surface = _load_cloud(path / "surface.txt", "surface")
    volume = _load_volume(path / "volume.txt")
    pressure = _read_rows(path / "pressure.txt", surface.n_points, 1)[:, 0]
    velocity = _read_rows(path / "velocity.txt", volume.n_points, 3)
    drag = _read_rows(path / "cd.txt", 1, 1)[0, 0]
    try:
        return SampleRecord(surface=surface, volume=volume, pressure=pressure,
                            velocity=velocity, drag=drag, id=path.name)
    except ValueError as e:
        raise SampleFormatError(f"{path}: {e}") from None


def save_targets(path, pressure, velocity, drag: float) -> None:
    """Write pressure.txt, velocity.txt and cd.txt into directory `path`,
    or, if any value is non-finite, nothing: the reader would reject it."""
    path = Path(path)
    files = {"pressure.txt": np.reshape(pressure, (-1, 1)),
             "velocity.txt": np.reshape(velocity, (-1, 3)), "cd.txt": [[drag]]}
    for name, rows in files.items():
        if not np.all(np.isfinite(rows)):
            raise SampleFormatError(f"{path / name}: non-finite target value")
    path.mkdir(parents=True, exist_ok=True)
    for name, rows in files.items():
        _write_rows(path / name, rows)


def save_sample(record: SampleRecord, path) -> None:
    """Write a sample directory; byte-deterministic for identical input."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, cloud in (("surface.txt", record.surface),
                        ("volume.txt", record.volume)):
        has_n = cloud.normals is not None
        cols = [cloud.positions] + ([cloud.normals] if has_n else [])
        _write_rows(path / name, np.hstack(cols),
                    header=f"{cloud.n_points} 0 {int(has_n)}")
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
    """Read and check manifest.json; every malformed manifest is a
    SampleFormatError that names the file."""
    root = Path(root)
    path = root / "manifest.json"
    if not path.is_file():
        raise SampleFormatError(f"missing manifest: {path}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as e:
        raise SampleFormatError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise SampleFormatError(f"{path}: manifest must be a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise SampleFormatError(
            f"{path}: unsupported format_version {manifest.get('format_version')}")
    if "samples" not in manifest:
        raise SampleFormatError(f"{path}: missing 'samples' key")
    samples = manifest["samples"]
    if not isinstance(samples, list) or \
            not all(isinstance(s, str) for s in samples):
        raise SampleFormatError(f"{path}: 'samples' must be a list of strings")
    splits = manifest.get("splits", {})
    if not isinstance(splits, dict) or \
            not all(v in ("train", "val") for v in splits.values()):
        raise SampleFormatError(
            f"{path}: 'splits' must map samples to \"train\" or \"val\"")
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
