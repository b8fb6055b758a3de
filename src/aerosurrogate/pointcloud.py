"""Point-cloud data types, validation, normalization, and text file I/O.

A sample lives in one directory:

    surface.txt   header "N_s C_u has_normals", then rows "x y z [nx ny nz]"
    volume.txt    header "N_v C_u 0", volume points never carry normals
    pressure.txt  N_s pressure coefficients, one per row
    velocity.txt  N_v rows of "vx vy vz"
    cd.txt        one drag coefficient

N_s and N_v are at least 1. C_u counts extra per-point feature columns
and must be 0: the model reads positions and normals only. Every file is
UTF-8 text, one row per line as str.splitlines() ends lines, each value
read by float(); blank lines are skipped. A file is read once, and a
malformed value is reported as `file:line`. All decimals are written with
17 significant digits (%.17g), each file's rows by one `%` operation, so
float64 values round-trip bit-exactly. A prediction directory holds the
same three target files (pressure.txt, velocity.txt, cd.txt). A dataset
root holds manifest.json listing the sample directories.
"""

from dataclasses import dataclass, fields
from pathlib import Path
import json

import numpy as np

from .rng import fnv1a64

FORMAT_VERSION = 1
_LINES = 1024       # lines of a sample file converted to floats at once
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
    """Per-channel target standardization. Positions need no statistics:
    normalize_clouds maps each sample into its own frame.

    Target channel order: pressure (1), velocity (3), drag (1).
    """

    pressure_mean: float
    pressure_std: float
    velocity_mean: np.ndarray        # (3,)
    velocity_std: np.ndarray         # (3,)
    drag_mean: float
    drag_std: float

    def __post_init__(self):
        object.__setattr__(self, "velocity_mean",
                           np.asarray(self.velocity_mean, dtype=np.float64).reshape(3))
        object.__setattr__(self, "velocity_std",
                           np.asarray(self.velocity_std, dtype=np.float64).reshape(3))
        if not (self.pressure_std > 0 and self.drag_std > 0
                and np.all(self.velocity_std > 0)):
            raise ValueError("target stds must be positive")
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")

    @staticmethod
    def identity() -> "NormalizationStats":
        return NormalizationStats(0.0, 1.0, np.zeros(3), np.ones(3), 0.0, 1.0)

    def to_dict(self) -> dict:
        """JSON-ready fields; NormalizationStats(**d) reads them back."""
        return {f.name: np.asarray(getattr(self, f.name),
                                   dtype=np.float64).tolist()
                for f in fields(self)}


def compute_stats(records: list[SampleRecord]) -> NormalizationStats:
    """Target means/stds over a list of records: population statistics
    per channel, stds floored at 1e-8."""
    if not records:
        raise ValueError("compute_stats needs at least one record")
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
    return NormalizationStats(float(p_mean), float(p_std), v_mean, v_std,
                              float(d_mean), float(d_std))


def normalize_clouds(surface: PointCloud, volume: PointCloud | None
                     ) -> tuple[PointCloud, PointCloud | None]:
    """Both clouds in the surface's own frame, normals unchanged: centered
    on the midpoint of the surface's bounding box and divided by twice the
    surface's largest distance from it (1.0 if that is 0), so every surface
    point lies within 0.5 of the origin. The volume never moves the frame.
    A surface whose squared distances overflow is a SampleFormatError."""
    pos = surface.positions
    with np.errstate(over="ignore"):
        center = np.array([(pos[:, k].min() + pos[:, k].max()) / 2
                           for k in range(3)])
        d = pos - center
        radius2 = np.einsum("ij,ij->i", d, d).max()
    if not np.isfinite(radius2):
        raise SampleFormatError(
            "surface cloud: coordinates overflow: the squared distances "
            "from the frame's center are not finite in float64")
    scale = 2.0 * np.sqrt(radius2) or 1.0
    vol = None if volume is None else PointCloud(
        (volume.positions - center) / scale, volume.normals, volume.role)
    return PointCloud(d / scale, surface.normals, surface.role), vol


def normalize(record: SampleRecord, stats: NormalizationStats) -> SampleRecord:
    """Map both clouds into the surface's frame (normalize_clouds) and each
    target channel to (t - mean)/std."""
    surface, volume = normalize_clouds(record.surface, record.volume)
    return SampleRecord(
        surface=surface, volume=volume,
        pressure=(record.pressure - stats.pressure_mean) / stats.pressure_std,
        velocity=(record.velocity - stats.velocity_mean) / stats.velocity_std,
        drag=(record.drag - stats.drag_mean) / stats.drag_std,
        id=record.id,
    )


# ---------------------------------------------------------------------------
# file I/O


def _read_text(path: Path) -> str:
    if not path.is_file():
        raise SampleFormatError(f"missing file: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SampleFormatError(f"{path}: not UTF-8: {e}") from None


def _read_rows(path: Path, n: int, width: int) -> np.ndarray:
    """A file without a header as an (n, width) array of finite floats."""
    return _parse_rows(path, _read_text(path).splitlines(), 0, n, width)


def _parse_rows(path: Path, lines: list[str], start: int, n: int,
                width: int) -> np.ndarray:
    """lines[start:] of file `path` as an (n, width) array of finite
    floats. Blank lines are skipped. Errors name the line's number in the
    file: a wrong row count comes first, then the first line with the
    wrong width or a token float() rejects, then the first non-finite
    value. The body is converted _LINES lines at a time into the array,
    so only one block's token strings are held at once."""
    body = [i for i in range(start, len(lines))
            if lines[i] and not lines[i].isspace()]     # non-blank lines
    if len(body) != n:
        raise SampleFormatError(f"{path}: expected {n} rows, got {len(body)}")
    arr = np.empty((n, width), dtype=np.float64)
    try:    # numpy reads a str with float(); ragged rows are a ValueError
        for at in range(0, n, _LINES):
            block = [lines[i].split() for i in body[at:at + _LINES]]
            arr[at:at + len(block)] = np.array(
                block, dtype=np.float64
            ).reshape(len(block), width)        # never broadcast a block
    except ValueError:
        raise _first_bad_line(path, lines, start, width) from None
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        lineno = body[int(np.argmin(finite))] + 1
        raise SampleFormatError(f"{path}:{lineno}: non-finite value")
    return arr


def _first_bad_line(path: Path, lines: list[str], start: int,
                    width: int) -> SampleFormatError:
    """The error of the first non-blank line from lines[start] on that has
    the wrong width or a token float() rejects."""
    for lineno, line in enumerate(lines[start:], start + 1):
        parts = line.split()
        if parts and len(parts) != width:
            return SampleFormatError(
                f"{path}:{lineno}: expected {width} values, got {len(parts)}")
        for token in parts:
            try:
                float(token)
            except ValueError as e:
                return SampleFormatError(f"{path}:{lineno}: {e}")


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
    lines = _read_text(path).splitlines()
    if not lines:
        raise SampleFormatError(f"{path}:1: empty file")
    header = lines[0].split()
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
    arr = _parse_rows(path, lines, 1, n, 3 + 3 * has_normals)
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
    path = Path(root) / "manifest.json"
    text = _read_text(path)
    try:
        manifest = json.loads(text)
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
