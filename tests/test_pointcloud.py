import numpy as np
import pytest

from aerosurrogate.pointcloud import (
    PointCloud, SampleRecord, NormalizationStats, SampleFormatError,
    load_sample, save_sample, normalize, denormalize, compute_stats,
    write_manifest, read_manifest, split_of)
from aerosurrogate.rng import SplitMix64


def make_record(n_s=4, n_v=2, seed=0, drag=0.3):
    rng = SplitMix64(seed)
    pos_s = rng.uniform_array(n_s * 3).reshape(n_s, 3) * 2 - 1
    normals = rng.uniform_array(n_s * 3).reshape(n_s, 3) - 0.5
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    pos_v = rng.uniform_array(n_v * 3).reshape(n_v, 3) * 4 - 2
    surface = PointCloud(pos_s, normals, np.zeros((n_s, 0)), "surface")
    volume = PointCloud(pos_v, None, np.zeros((n_v, 0)), "volume")
    return SampleRecord(surface=surface, volume=volume,
                        pressure=rng.uniform_array(n_s),
                        velocity=rng.uniform_array(n_v * 3).reshape(n_v, 3),
                        drag=drag, id="t")


class TestPointCloudInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)), None, np.zeros((0, 0)), "surface")

    def test_rejects_nonfinite_position(self):
        pos = np.zeros((2, 3))
        pos[1, 0] = np.nan
        with pytest.raises(ValueError):
            PointCloud(pos, None, np.zeros((2, 0)), "surface")

    def test_rejects_non_unit_normals(self):
        pos = np.zeros((2, 3))
        bad = np.array([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(ValueError):
            PointCloud(pos, bad, np.zeros((2, 0)), "surface")

    def test_rejects_bad_role(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), None, np.zeros((1, 0)), "ghost")


class TestSampleRecordInvariants:
    def test_pressure_count_mismatch(self):
        rec = make_record()
        with pytest.raises(ValueError):
            SampleRecord(surface=rec.surface, volume=rec.volume,
                         pressure=rec.pressure[:-1], velocity=rec.velocity,
                         drag=0.3)

    def test_velocity_count_mismatch(self):
        rec = make_record()
        with pytest.raises(ValueError):
            SampleRecord(surface=rec.surface, volume=rec.volume,
                         pressure=rec.pressure, velocity=rec.velocity[:-1],
                         drag=0.3)

    def test_nonfinite_drag(self):
        rec = make_record()
        with pytest.raises(ValueError):
            SampleRecord(surface=rec.surface, volume=rec.volume,
                         pressure=rec.pressure, velocity=rec.velocity,
                         drag=float("inf"))


class TestFileIO:
    def test_round_trip_identity(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        back = load_sample(tmp_path / "s0")
        np.testing.assert_array_equal(back.surface.positions, rec.surface.positions)
        np.testing.assert_array_equal(back.surface.normals, rec.surface.normals)
        np.testing.assert_array_equal(back.volume.positions, rec.volume.positions)
        np.testing.assert_array_equal(back.pressure, rec.pressure)
        np.testing.assert_array_equal(back.velocity, rec.velocity)
        assert back.drag == rec.drag

    def test_direct_readback(self, tmp_path):
        rec = make_record(n_s=4, n_v=2)
        save_sample(rec, tmp_path / "s0")
        (tmp_path / "s0" / "cd.txt").write_text("0.3000000000\n")
        back = load_sample(tmp_path / "s0")
        assert back.surface.n_points == 4
        assert back.volume.n_points == 2
        assert back.drag == 0.3

    def test_save_is_deterministic(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "a")
        save_sample(rec, tmp_path / "b")
        for name in ("surface.txt", "volume.txt", "pressure.txt",
                     "velocity.txt", "cd.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_pressure_count_mismatch_error(self, tmp_path):
        rec = make_record(n_s=4)
        save_sample(rec, tmp_path / "s0")
        lines = (tmp_path / "s0" / "pressure.txt").read_text().splitlines()
        (tmp_path / "s0" / "pressure.txt").write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(SampleFormatError, match="expected 4 rows"):
            load_sample(tmp_path / "s0")

    def test_malformed_row_reports_line(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        lines = (tmp_path / "s0" / "surface.txt").read_text().splitlines()
        lines[2] = "1.0 oops 2.0 0 0 1"
        (tmp_path / "s0" / "surface.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match=":3:"):
            load_sample(tmp_path / "s0")

    def test_missing_file(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        (tmp_path / "s0" / "velocity.txt").unlink()
        with pytest.raises(SampleFormatError, match="missing file"):
            load_sample(tmp_path / "s0")

    def test_nonfinite_value(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        (tmp_path / "s0" / "cd.txt").write_text("nan\n")
        with pytest.raises(SampleFormatError, match="non-finite"):
            load_sample(tmp_path / "s0")

    def test_golden_text(self, tmp_path):
        third = 1.0 / 3.0
        surface = PointCloud([[0.1, -0.0, third], [1e-300, 2.5, -7.0]],
                             [[0.0, -0.0, 1.0], [-1.0, 0.0, 0.0]],
                             [[0.1], [1e22]], "surface")
        volume = PointCloud([[1.0, 2.0, 3.0], [0.5, -0.25, 1e-300]], None,
                            np.zeros((2, 0)), "volume")
        rec = SampleRecord(surface=surface, volume=volume,
                           pressure=[third, -0.0],
                           velocity=[[0.1, 0.2, 0.3], [-1.0, 1e-300, 4.0]],
                           drag=0.1)
        save_sample(rec, tmp_path / "s0")
        expected = {
            "surface.txt": "2 1 1\n"
                           "0.10000000000000001 -0 0.33333333333333331 0 -0 1 "
                           "0.10000000000000001\n"
                           "1e-300 2.5 -7 -1 0 0 1e+22\n",
            "volume.txt": "2 0 0\n"
                          "1 2 3\n"
                          "0.5 -0.25 1e-300\n",
            "pressure.txt": "0.33333333333333331\n-0\n",
            "velocity.txt": "0.10000000000000001 0.20000000000000001 "
                            "0.29999999999999999\n"
                            "-1 1e-300 4\n",
            "cd.txt": "0.10000000000000001\n",
        }
        for name, text in expected.items():
            assert (tmp_path / "s0" / name).read_text() == text, name
        back = load_sample(tmp_path / "s0")
        assert back.surface.positions.tobytes() == surface.positions.tobytes()
        assert back.pressure.tobytes() == rec.pressure.tobytes()

    @pytest.mark.parametrize("name,blank_at,bad_at", [
        ("surface.txt", 2, 4), ("pressure.txt", 0, 3)])
    def test_line_numbers_count_blank_lines(self, tmp_path, name, blank_at,
                                            bad_at):
        save_sample(make_record(), tmp_path / "s0")
        lines = (tmp_path / "s0" / name).read_text().splitlines()
        lines.insert(blank_at, "")
        lines[bad_at - 1] = lines[bad_at - 1].replace(
            lines[bad_at - 1].split()[0], "oops", 1)
        (tmp_path / "s0" / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match=f"{name}:{bad_at}: "):
            load_sample(tmp_path / "s0")

    def test_non_unit_normal_is_format_error(self, tmp_path):
        save_sample(make_record(), tmp_path / "s0")
        path = tmp_path / "s0" / "surface.txt"
        lines = path.read_text().splitlines()
        lines[2] = "0 0 0 2 0 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match="surface.txt: normals"):
            load_sample(tmp_path / "s0")

    def test_negative_feature_count_is_format_error(self, tmp_path):
        save_sample(make_record(), tmp_path / "s0")
        path = tmp_path / "s0" / "surface.txt"
        lines = path.read_text().splitlines()
        # rows as wide as the header claims: 3 + 3 normals - 1
        lines = ["4 -1 1"] + [" ".join(ln.split()[:5]) for ln in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match="surface.txt:1: C_u"):
            load_sample(tmp_path / "s0")

    def test_zero_feature_sample(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        header = (tmp_path / "s0" / "surface.txt").read_text().splitlines()[0]
        assert header.split()[1] == "0"   # C_u=0: no feature columns written


class TestNormalization:
    def test_identity_stats(self):
        rec = make_record()
        out = normalize(rec, NormalizationStats.identity())
        np.testing.assert_allclose(out.surface.positions, rec.surface.positions)
        np.testing.assert_allclose(out.pressure, rec.pressure)
        assert out.drag == rec.drag

    def test_unit_ball(self):
        recs = [make_record(seed=s) for s in range(3)]
        stats = compute_stats(recs)
        for rec in recs:
            n = normalize(rec, stats)
            radii = np.linalg.norm(n.surface.positions, axis=1)
            assert radii.max() <= 1.0 + 1e-12
            radii_v = np.linalg.norm(n.volume.positions, axis=1)
            assert radii_v.max() <= 1.0 + 1e-12

    def test_round_trip(self):
        rec = make_record(seed=9)
        stats = compute_stats([rec, make_record(seed=10, drag=0.5)])
        back = denormalize(normalize(rec, stats), stats)
        np.testing.assert_allclose(back.surface.positions, rec.surface.positions,
                                   atol=1e-12)
        np.testing.assert_allclose(back.pressure, rec.pressure, atol=1e-12)
        np.testing.assert_allclose(back.velocity, rec.velocity, atol=1e-12)
        assert abs(back.drag - rec.drag) < 1e-12


class TestComputeStats:
    def test_degenerate_drag_floor(self):
        recs = [make_record(seed=s, drag=0.3) for s in range(2)]
        stats = compute_stats(recs)
        assert stats.drag_mean == pytest.approx(0.3)
        assert stats.drag_std == 1e-8

    def test_population_std(self):
        recs = [make_record(seed=0, drag=0.2), make_record(seed=1, drag=0.4)]
        stats = compute_stats(recs)
        assert stats.drag_mean == pytest.approx(0.3)
        assert stats.drag_std == pytest.approx(0.1)

    def test_permutation_invariant(self):
        recs = [make_record(seed=s, drag=0.1 * s + 0.2) for s in range(4)]
        s1 = compute_stats(recs)
        s2 = compute_stats(recs[::-1])
        np.testing.assert_allclose(s1.position_center, s2.position_center,
                                   rtol=1e-12, atol=1e-15)
        assert s1.position_scale == pytest.approx(s2.position_scale, rel=1e-12)
        assert s1.drag_std == pytest.approx(s2.drag_std, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_stats([])


class TestManifest:
    def test_round_trip(self, tmp_path):
        write_manifest(tmp_path, ["a", "b"], {"a": "train", "b": "val"})
        m = read_manifest(tmp_path)
        assert m["samples"] == ["a", "b"]
        assert split_of("b", m) == "val"

    def test_hash_split_default(self, tmp_path):
        write_manifest(tmp_path, [f"s{i}" for i in range(100)])
        m = read_manifest(tmp_path)
        vals = sum(split_of(s, m) == "val" for s in m["samples"])
        assert 5 <= vals <= 40   # roughly 20%
