"""Synthetic ellipsoid benchmark with closed-form ground truth.

Surface points come from a Fibonacci-sphere mapping scaled to the
ellipsoid semi-axes, with exact analytic normals. Ground truth:

  pressure   cp = 1 - (9/4) sin^2(theta) + 0.2 * kappa_z
             theta = angle(normal, +x freestream), kappa_z the analytic
             mean curvature standardized to zero mean / unit variance per
             shape (zero on spheres);
  velocity   potential flow around the equivalent sphere R = (abc)^(1/3),
             v_r = U cos(theta) (1 - R^3/r^3),
             v_theta = -U sin(theta) (1 + R^3/(2 r^3)), U = 1 along +x;
  drag       C_d = 0.3 * A_frontal/(pi R^2) + 0.05 * (a/c - 1),
             A_frontal = pi b c.

Physical fidelity is not the goal; the task is learnable and every target
has an independent analytic oracle.
"""

from dataclasses import dataclass, replace
from pathlib import Path
import math

import numpy as np

from .pointcloud import (SampleRecord, PointCloud, save_sample, split_of,
                         write_manifest)
from .rng import SplitMix64, derive_seed

GENERATOR_VERSION = {
    "name": "ellipsoid-potential-flow",
    "version": 1,
    "cp_suction": 2.25,          # 9/4
    "cp_curvature_gain": 0.2,
    "drag_frontal_gain": 0.3,
    "drag_aspect_gain": 0.05,
}


@dataclass(frozen=True)
class ShapeSpec:
    a: float                     # semi-axes, a >= b >= c > 0
    b: float
    c: float
    n_surface: int = 512
    n_volume: int = 256
    r_min: float = 1.1           # shell radii, multiples of R = (abc)^(1/3)
    r_max: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not (self.a >= self.b >= self.c > 0):
            raise ValueError("semi-axes must satisfy a >= b >= c > 0")
        if self.n_surface < 1 or self.n_volume < 1:
            raise ValueError("point counts must be >= 1")
        if not (self.r_min > 1 and self.r_max > self.r_min):
            raise ValueError("need r_max > r_min > 1")
        # what the generator divides by or cubes, multiplied out: a Python
        # float product overflows to inf or underflows to 0, not raising
        squares = [x * x for x in (self.a, self.b, self.c)]
        outer = self.r_max * self.equivalent_radius
        if not (all(0 < x < math.inf for x in [*squares, outer * outer * outer])
                and all(1 / x < math.inf for x in squares)):
            raise ValueError(
                f"semi-axes ({self.a:g}, {self.b:g}, {self.c:g}) with r_max "
                f"{self.r_max:g}: a^2, b^2, c^2, their inverses and "
                "(r_max*R)^3 must be finite and non-zero")

    @property
    def equivalent_radius(self) -> float:
        return (self.a * self.b * self.c) ** (1.0 / 3.0)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, near-uniform unit vectors (golden-angle spiral)."""
    i = np.arange(n, dtype=np.float64)
    offset = 2.0 / n
    y = (i * offset - 1.0) + offset / 2.0
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = ((i + 1.0) % n) * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([np.cos(phi) * r, y, np.sin(phi) * r])


def ellipsoid_surface(spec: ShapeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Surface points and exact outward unit normals of the ellipsoid."""
    unit = fibonacci_sphere(spec.n_surface)
    axes = np.array([spec.a, spec.b, spec.c])
    points = unit * axes
    grad = 2.0 * points / axes ** 2       # gradient of the implicit equation
    normals = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    return points, normals


def ellipsoid_mean_curvature(points: np.ndarray, a: float, b: float,
                             c: float) -> np.ndarray:
    """Analytic mean curvature of the ellipsoid at on-surface points,
    via div(grad F/|grad F|)/2 for F = (x/a)^2+(y/b)^2+(z/c)^2."""
    inv2 = np.array([1.0 / a ** 2, 1.0 / b ** 2, 1.0 / c ** 2])
    grad = 2.0 * points * inv2
    norm = np.linalg.norm(grad, axis=1)
    lap = 2.0 * inv2.sum()
    # grad^T Hess(F) grad with Hess = diag(2/a^2, 2/b^2, 2/c^2)
    quad = np.einsum("ij,j,ij->i", grad, 2.0 * inv2, grad)
    return 0.5 * (lap - quad / norm ** 2) / norm


def surface_pressure(normals: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """Pressure coefficient: potential-flow stagnation profile plus a
    standardized-curvature perturbation."""
    cos_theta = np.clip(normals[:, 0], -1.0, 1.0)
    sin2 = 1.0 - cos_theta ** 2
    std = float(curvature.std())
    if std < 1e-12:
        kappa_z = np.zeros_like(curvature)      # constant-curvature shape
    else:
        kappa_z = (curvature - curvature.mean()) / std
    return (1.0 - GENERATOR_VERSION["cp_suction"] * sin2
            + GENERATOR_VERSION["cp_curvature_gain"] * kappa_z)


def potential_flow_velocity(points: np.ndarray, radius: float) -> np.ndarray:
    """Dipole potential flow around a sphere of given radius, unit freestream
    along +x; exact for r >= radius, divergence-free everywhere."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    r = np.linalg.norm(points, axis=1)
    e_r = points / r[:, None]
    cos_theta = e_r[:, 0]
    ratio = (radius / r) ** 3
    v_r = cos_theta * (1.0 - ratio)
    v_theta = -np.sqrt(np.maximum(0.0, 1.0 - cos_theta ** 2)) \
        * (1.0 + 0.5 * ratio)
    # e_theta = (e_r cos(theta) - x_hat)/sin(theta); guard the axis
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta ** 2))
    x_hat = np.array([1.0, 0.0, 0.0])
    with np.errstate(invalid="ignore", divide="ignore"):
        e_theta = (e_r * cos_theta[:, None] - x_hat) / sin_theta[:, None]
    e_theta = np.where(sin_theta[:, None] > 1e-14, e_theta, 0.0)
    return v_r[:, None] * e_r + v_theta[:, None] * e_theta


def drag_coefficient(a: float, b: float, c: float) -> float:
    """C_d = 0.3 * A_frontal/(pi R^2) + 0.05 * (a/c - 1)."""
    r_eq = (a * b * c) ** (1.0 / 3.0)
    frontal = math.pi * b * c
    return (GENERATOR_VERSION["drag_frontal_gain"] * frontal / (math.pi * r_eq ** 2)
            + GENERATOR_VERSION["drag_aspect_gain"] * (a / c - 1.0))


def shell_points(n: int, r_min: float, r_max: float, rng: SplitMix64) -> np.ndarray:
    """n points uniform in the spherical shell [r_min, r_max]."""
    u = rng.uniform_array(3 * n).reshape(n, 3)
    z = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * math.pi * u[:, 1]
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    direction = np.column_stack([s * np.cos(phi), z, s * np.sin(phi)])
    radius = (u[:, 2] * (r_max ** 3 - r_min ** 3) + r_min ** 3) ** (1.0 / 3.0)
    return direction * radius[:, None]


def generate_sample(spec: ShapeSpec) -> SampleRecord:
    """One synthetic sample with analytic ground truth."""
    points, normals = ellipsoid_surface(spec)
    curvature = ellipsoid_mean_curvature(points, spec.a, spec.b, spec.c)
    pressure = surface_pressure(normals, curvature)
    r_eq = spec.equivalent_radius
    rng = SplitMix64(spec.seed)
    vol = shell_points(spec.n_volume, spec.r_min * r_eq, spec.r_max * r_eq, rng)
    velocity = potential_flow_velocity(vol, r_eq)
    surface = PointCloud(points, normals, "surface")
    volume = PointCloud(vol, None, "volume")
    return SampleRecord(surface=surface, volume=volume, pressure=pressure,
                        velocity=velocity,
                        drag=drag_coefficient(spec.a, spec.b, spec.c),
                        id=f"ellipsoid_a{spec.a:.4f}_b{spec.b:.4f}_c{spec.c:.4f}")


@dataclass(frozen=True)
class DatasetSpec:
    n_samples: int = 32
    a_range: tuple[float, float] = (1.0, 3.0)
    b_range: tuple[float, float] = (0.8, 1.2)
    c_range: tuple[float, float] = (0.5, 1.0)
    n_surface: int = 512
    n_volume: int = 256
    r_min: float = 1.1
    r_max: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for lo, hi in (self.a_range, self.b_range, self.c_range):
            if not (0 < lo <= hi):
                raise ValueError("axis ranges must satisfy 0 < lo <= hi")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        # every sample's ShapeSpec takes these counts and radii, and
        # semi-axes between the smallest and the largest bound
        bounds = [*self.a_range, *self.b_range, *self.c_range]
        for x in (min(bounds), max(bounds)):
            ShapeSpec(x, x, x, self.n_surface, self.n_volume, self.r_min,
                      self.r_max)


def _draw_axes(dspec: DatasetSpec, rng: SplitMix64) -> tuple[float, float, float]:
    u = rng.uniform_array(3)
    a = dspec.a_range[0] + u[0] * (dspec.a_range[1] - dspec.a_range[0])
    b = dspec.b_range[0] + u[1] * (dspec.b_range[1] - dspec.b_range[0])
    c = dspec.c_range[0] + u[2] * (dspec.c_range[1] - dspec.c_range[0])
    # enforce a >= b >= c by sorting the draws
    a, b, c = sorted((a, b, c), reverse=True)
    return float(a), float(b), float(c)


def generate_records(dspec: DatasetSpec) -> list[SampleRecord]:
    """In-memory dataset; sample i is fully determined by (seed, i)."""
    rng = SplitMix64(dspec.seed)
    records = []
    for i in range(dspec.n_samples):
        a, b, c = _draw_axes(dspec, rng)
        spec = ShapeSpec(a=a, b=b, c=c, n_surface=dspec.n_surface,
                         n_volume=dspec.n_volume, r_min=dspec.r_min,
                         r_max=dspec.r_max, seed=derive_seed(dspec.seed, i))
        records.append(replace(generate_sample(spec), id=f"sample_{i:04d}"))
    return records


def generate_dataset(dspec: DatasetSpec, out_dir) -> Path:
    """Write a full dataset tree with manifest and 80/20 split assignment."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = generate_records(dspec)
    dirs = []
    splits = {}
    for rec in records:
        save_sample(rec, out_dir / rec.id)
        dirs.append(rec.id)
        splits[rec.id] = split_of(rec.id, {})
    return write_manifest(out_dir, dirs, splits,
                          extra={"generator_version": GENERATOR_VERSION})
