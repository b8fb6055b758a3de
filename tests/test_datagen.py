import math
import re

import numpy as np
import pytest

from aerosurrogate.datagen import (
    DatasetSpec, ShapeSpec, drag_coefficient, ellipsoid_mean_curvature,
    ellipsoid_surface, fibonacci_sphere, generate_dataset, generate_records,
    generate_sample, potential_flow_velocity, shell_points, surface_pressure)
from aerosurrogate.pointcloud import load_sample, read_manifest, split_of
from aerosurrogate.rng import SplitMix64


def sphere_spec(radius=1.0, **kw):
    d = dict(a=radius, b=radius, c=radius, n_surface=128, n_volume=64, seed=0)
    d.update(kw)
    return ShapeSpec(**d)


class TestShapeSpec:
    def test_axis_ordering_enforced(self):
        with pytest.raises(ValueError):
            ShapeSpec(a=1.0, b=2.0, c=0.5)

    def test_shell_radii_enforced(self):
        with pytest.raises(ValueError):
            ShapeSpec(a=1.0, b=1.0, c=1.0, r_min=0.9, r_max=2.0)
        with pytest.raises(ValueError):
            ShapeSpec(a=1.0, b=1.0, c=1.0, r_min=2.0, r_max=1.5)

    @pytest.mark.parametrize("axes,r_max", [
        ((1e308, 1e308, 1e308), 3.0), ((1e200, 1.0, 1.0), 3.0),
        ((1.0, 1.0, 1e-200), 3.0), ((1.0, 1.0, 1e-160), 3.0),
        ((1e120, 1e120, 1e120), 3.0), ((1.0, 1.0, 1.0), math.inf),
        ((math.inf, 1.0, 1.0), 3.0), ((1.0, 1.0, 1.0), 1e200)],
        ids=["a_squared_overflows", "a_squared_overflows_alone",
             "c_squared_underflows", "inverse_c_squared_overflows",
             "r_cubed_overflows", "r_max_inf", "a_inf", "r_max_huge"])
    def test_overflowing_derived_quantities_refused(self, axes, r_max):
        with pytest.raises(ValueError, match=re.escape(
                "a^2, b^2, c^2, their inverses and (r_max*R)^3 must be "
                "finite and non-zero")):
            ShapeSpec(*axes, r_max=r_max)

    @pytest.mark.parametrize("ranges", [
        dict(a_range=(1e308, 1e308)), dict(c_range=(1e-200, 1e-200)),
        dict(a_range=(1.0, math.inf)), dict(r_max=math.inf)],
        ids=["a_huge", "c_tiny", "a_inf", "r_max_inf"])
    def test_dataset_refuses_overflowing_bounds(self, ranges):
        with pytest.raises(ValueError, match="must be finite and non-zero"):
            DatasetSpec(n_samples=1, **ranges)

    def test_equivalent_radius(self):
        spec = ShapeSpec(a=2.0, b=1.0, c=0.5)
        assert spec.equivalent_radius == pytest.approx(1.0)


class TestSurface:
    def test_unit_sphere_coverage(self):
        pts = fibonacci_sphere(500)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        # near-uniform: centroid close to the origin
        assert np.linalg.norm(pts.mean(axis=0)) < 0.01

    def test_points_satisfy_ellipsoid_equation(self):
        spec = ShapeSpec(a=2.0, b=1.1, c=0.7, n_surface=256)
        points, _ = ellipsoid_surface(spec)
        lhs = ((points[:, 0] / spec.a) ** 2 + (points[:, 1] / spec.b) ** 2
               + (points[:, 2] / spec.c) ** 2)
        np.testing.assert_allclose(lhs, 1.0, atol=1e-12)

    def test_normals_unit_and_outward(self):
        spec = ShapeSpec(a=1.5, b=1.0, c=0.8, n_surface=128)
        points, normals = ellipsoid_surface(spec)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0,
                                   atol=1e-12)
        assert np.all(np.einsum("ij,ij->i", normals, points) > 0)

    def test_sphere_normals_radial(self):
        points, normals = ellipsoid_surface(sphere_spec(2.0))
        np.testing.assert_allclose(normals, points / 2.0, atol=1e-12)


class TestCurvature:
    def test_sphere_constant(self):
        points, _ = ellipsoid_surface(sphere_spec(2.0))
        kappa = ellipsoid_mean_curvature(points, 2.0, 2.0, 2.0)
        np.testing.assert_allclose(kappa, 0.5, atol=1e-12)

    def test_ellipsoid_tips_most_curved(self):
        a, b, c = 3.0, 1.0, 1.0
        tip = np.array([[a, 0.0, 0.0]])
        equator = np.array([[0.0, b, 0.0]])
        k_tip = ellipsoid_mean_curvature(tip, a, b, c)[0]
        k_eq = ellipsoid_mean_curvature(equator, a, b, c)[0]
        assert k_tip > k_eq
        # analytic check at the tip of a prolate spheroid: both principal
        # curvatures equal a/b^2
        assert k_tip == pytest.approx(a / b ** 2, rel=1e-12)


class TestPressure:
    def test_sphere_stagnation_point(self):
        rec = generate_sample(sphere_spec())
        cos = rec.surface.normals[:, 0]
        i = int(np.argmax(cos))
        # nearest point to the stagnation direction; cp = 1 - (9/4) sin^2
        expected = 1.0 - 2.25 * (1.0 - cos[i] ** 2)
        assert rec.pressure[i] == pytest.approx(expected, abs=1e-12)
        assert rec.pressure.max() <= 1.0 + 1e-12

    def test_sphere_equator_value(self):
        normals = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        cp = surface_pressure(normals, np.zeros(2))
        assert cp[0] == pytest.approx(-1.25)
        assert cp[1] == pytest.approx(1.0)

    def test_bounded(self):
        rec = generate_sample(ShapeSpec(a=2.5, b=1.0, c=0.6, n_surface=512,
                                        n_volume=8, seed=3))
        points, normals = ellipsoid_surface(
            ShapeSpec(a=2.5, b=1.0, c=0.6, n_surface=512, n_volume=8, seed=3))
        kappa = ellipsoid_mean_curvature(points, 2.5, 1.0, 0.6)
        kz = (kappa - kappa.mean()) / kappa.std()
        bound = 0.2 * np.abs(kz).max()
        assert np.all(rec.pressure <= 1.0 + bound + 1e-12)
        assert np.all(rec.pressure >= -1.25 - bound - 1e-12)


class TestVelocity:
    def test_zero_on_front_stagnation_point(self):
        v = potential_flow_velocity(np.array([[1.0, 0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(v, 0.0, atol=1e-14)

    def test_far_field_freestream(self):
        v = potential_flow_velocity(np.array([[1e6, 2e5, -3e5]]), 1.0)
        np.testing.assert_allclose(v[0], [1.0, 0.0, 0.0], atol=1e-5)

    def test_no_penetration_on_sphere(self):
        rng = SplitMix64(4)
        pts = shell_points(200, 1.0, 1.0 + 1e-12, rng)
        v = potential_flow_velocity(pts, 1.0)
        radial = np.einsum("ij,ij->i", v, pts)
        np.testing.assert_allclose(radial, 0.0, atol=1e-9)

    def test_divergence_free(self):
        """Central-difference divergence at random off-surface probes."""
        rng = SplitMix64(7)
        probes = shell_points(1000, 1.3, 3.0, rng)
        h = 1e-5
        div = np.zeros(len(probes))
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            vp = potential_flow_velocity(probes + e, 1.0)[:, axis]
            vm = potential_flow_velocity(probes - e, 1.0)[:, axis]
            div += (vp - vm) / (2.0 * h)
        assert np.max(np.abs(div)) < 1e-6


class TestDrag:
    def test_unit_sphere(self):
        assert drag_coefficient(1.0, 1.0, 1.0) == pytest.approx(0.3)

    def test_hand_value(self):
        # a=2, b=1, c=0.5: R=1, frontal ratio bc = 0.5, aspect a/c = 4
        assert drag_coefficient(2.0, 1.0, 0.5) == pytest.approx(
            0.3 * 0.5 + 0.05 * 3.0)

    def test_increasing_in_elongation(self):
        """For strongly elongated shapes (a/c >= 3) the aspect term
        dominates and C_d grows with a at fixed b, c."""
        b, c = 1.0, 1.0
        values = [drag_coefficient(a, b, c) for a in (3.0, 4.0, 6.0, 9.0)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestShell:
    def test_radii_within_bounds(self):
        pts = shell_points(500, 1.5, 2.5, SplitMix64(1))
        r = np.linalg.norm(pts, axis=1)
        assert r.min() >= 1.5
        assert r.max() <= 2.5

    def test_deterministic(self):
        np.testing.assert_array_equal(shell_points(64, 1.1, 3.0, SplitMix64(2)),
                                      shell_points(64, 1.1, 3.0, SplitMix64(2)))


class TestSampleAndDataset:
    def test_sample_passes_record_invariants(self):
        rec = generate_sample(ShapeSpec(a=1.8, b=1.1, c=0.9, n_surface=64,
                                        n_volume=32, seed=5))
        assert rec.surface.n_points == 64
        assert rec.volume.n_points == 32
        assert np.isfinite(rec.drag)

    def test_volume_points_outside_surface(self):
        spec = ShapeSpec(a=1.8, b=1.1, c=0.9, n_surface=16, n_volume=128,
                         seed=5)
        rec = generate_sample(spec)
        r = np.linalg.norm(rec.volume.positions, axis=1)
        assert r.min() >= spec.r_min * spec.equivalent_radius - 1e-12

    def test_records_deterministic(self):
        dspec = DatasetSpec(n_samples=3, n_surface=32, n_volume=16, seed=9)
        r1 = generate_records(dspec)
        r2 = generate_records(dspec)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.surface.positions,
                                          b.surface.positions)
            np.testing.assert_array_equal(a.velocity, b.velocity)
            assert a.drag == b.drag

    def test_dataset_tree_byte_identical(self, tmp_path):
        dspec = DatasetSpec(n_samples=4, n_surface=32, n_volume=16, seed=9)
        generate_dataset(dspec, tmp_path / "a")
        generate_dataset(dspec, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_loader_round_trip(self, tmp_path):
        dspec = DatasetSpec(n_samples=2, n_surface=32, n_volume=16, seed=1)
        generate_dataset(dspec, tmp_path)
        m = read_manifest(tmp_path)
        assert len(m["samples"]) == 2
        assert m["generator_version"]["cp_suction"] == 2.25
        for name in m["samples"]:
            rec = load_sample(tmp_path / name)
            assert rec.surface.n_points == 32
            assert split_of(name, m) in ("train", "val")

    def test_axes_within_ranges_and_sorted(self):
        dspec = DatasetSpec(n_samples=16, n_surface=8, n_volume=4, seed=13)
        for rec in generate_records(dspec):
            spans = rec.surface.positions.max(axis=0) \
                - rec.surface.positions.min(axis=0)
            assert spans[0] >= spans[1] - 1e-9 >= spans[2] - 2e-9
