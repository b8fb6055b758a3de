import dataclasses
import json
import re
import warnings
import zlib

import numpy as np
import pytest

from aerosurrogate.cli import main
from aerosurrogate.datagen import DatasetSpec, generate_records
from aerosurrogate.model import (CheckpointError, ModelConfig, init_model,
                                 load_checkpoint, save_checkpoint)
from aerosurrogate.pointcloud import (PointCloud, load_dataset, load_sample,
                                      normalize, read_manifest, save_sample)
from aerosurrogate.training import LossWeights
from aerosurrogate.sampling import read_index_file
from tests.graph_oracle import loss_graph


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


def gen(tmp_path, n=3, n_surface=24, n_volume=12, seed=7, name="data"):
    out = tmp_path / name
    code = run(["gen-data", "--n", str(n), "--n-surface", str(n_surface),
                "--n-volume", str(n_volume), "--seed", str(seed),
                "--out", str(out)])
    assert code == 0
    return out


class TestGenData:
    def test_creates_samples_and_manifest(self, tmp_path):
        out = gen(tmp_path, n=3)
        m = read_manifest(out)
        assert len(m["samples"]) == 3
        for name in m["samples"]:
            assert (out / name / "surface.txt").is_file()

    def test_missing_out_is_usage_error(self):
        assert run(["gen-data", "--n", "2"]) == 2

    @pytest.mark.parametrize("argv,settings", [
        (["--n-surface", "0"], {}), ([], {"r_min": 0.5})],
        ids=["n_surface_0", "r_min_0.5"])
    def test_bad_shape_setting_is_config_error(self, tmp_path, capsys, argv,
                                               settings):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        code, _, err = run(["gen-data", "--n", "1", *argv, "--config",
                            str(cfg_path), "--out", str(tmp_path / "d")],
                           capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("settings,ending", [
        ({"a_min": 1e308, "a_max": 1e308}, "must be finite and non-zero\n"),
        ({"c_min": 1e-200, "c_max": 1e-200}, "must be finite and non-zero\n"),
        ({"r_max": float("inf")}, "must be finite and non-zero\n"),
        ({"c_min": 1e-100, "c_max": 1e-100},
         "8/c^4, the largest term of the analytic mean curvature, must be "
         "finite\n")],
        ids=["a_1e308", "c_1e-200", "r_max_inf", "c_1e-100"])
    def test_overflowing_shape_setting_is_config_error(self, tmp_path, capsys,
                                                       settings, ending):
        # these raised OverflowError or ZeroDivisionError, or warned (c_1e-100
        # exited 1 with "non-finite target value"), and left --out behind as
        # an empty directory
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["gen-data", "--n", "1", "--n-surface", "8",
                                  "--n-volume", "4", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "d")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: semi-axes (") and err.count("\n") == 1
        assert err.endswith(ending)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 2.24 GiB for an array with shape "
                     "(300000000,) and data type float64"),
         "Unable to allocate 2.24 GiB for an array with shape (300000000,) "
         "and data type float64"),
        (MemoryError(), "MemoryError")], ids=["numpy", "bare"])
    def test_memory_error_exits_1_without_traceback(self, tmp_path, capsys,
                                                    monkeypatch, exc, message):
        def fail(dspec):
            raise exc

        monkeypatch.setattr("aerosurrogate.datagen.generate_records", fail)
        code, out, err = run(["gen-data", "--n", "1", "--out",
                              str(tmp_path / "d")], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "d").exists()

    def test_repeat_identical_tree(self, tmp_path):
        a = gen(tmp_path, name="a")
        b = gen(tmp_path, name="b")
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


class TestSample:
    @pytest.mark.parametrize("cells", ["2097153", "100000000000000000000"])
    def test_grid_whose_voxel_ids_overflow_is_usage_error(self, tmp_path,
                                                          capsys, cells):
        out = tmp_path / "reduced"     # refused before the sample is read
        code, stdout, err = run(["sample", "--n", "8", "--grid-cells", cells,
                                 "--in", str(tmp_path / "absent"),
                                 "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == ("error: grid_cells must be <= 2097152, so that the "
                       "voxel ids (x*G + y)*G + z fit in int64\n")
        assert not out.exists()

    def test_largest_grid_is_accepted(self, tmp_path, capsys):
        data = gen(tmp_path, n=1, n_surface=24)
        sample_dir = data / read_manifest(data)["samples"][0]
        out = tmp_path / "reduced"
        code, _, err = run(["sample", "--method", "adaptive", "--n", "8",
                            "--grid-cells", "2097152", "--in", str(sample_dir),
                            "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        assert len(read_index_file(out / "indices.txt")) == 8

    def test_writes_sorted_index_file(self, tmp_path):
        data = gen(tmp_path, n=1, n_surface=64)
        sample_dir = data / read_manifest(data)["samples"][0]
        out = tmp_path / "reduced"
        code = run(["sample", "--method", "adaptive", "--n", "16",
                    "--seed", "1", "--in", str(sample_dir), "--out", str(out)])
        assert code == 0
        idx = read_index_file(out / "indices.txt")
        assert len(idx) == 16
        assert np.all(np.diff(idx) > 0)

    def test_budget_larger_than_cloud_keeps_all(self, tmp_path):
        data = gen(tmp_path, n=1, n_surface=24)
        sample_dir = data / read_manifest(data)["samples"][0]
        out = tmp_path / "reduced"
        code = run(["sample", "--method", "curvature", "--n", "1000",
                    "--in", str(sample_dir), "--out", str(out)])
        assert code == 0
        assert len(read_index_file(out / "indices.txt")) == 24

    def test_write_sample_round_trips(self, tmp_path):
        data = gen(tmp_path, n=1, n_surface=48)
        sample_dir = data / read_manifest(data)["samples"][0]
        out = tmp_path / "reduced"
        code = run(["sample", "--method", "random", "--n", "12", "--seed", "3",
                    "--in", str(sample_dir), "--out", str(out),
                    "--write-sample"])
        assert code == 0
        reduced = load_sample(out / "sample")
        assert reduced.surface.n_points == 12
        full = load_sample(sample_dir)
        idx = read_index_file(out / "indices.txt")
        np.testing.assert_array_equal(reduced.surface.positions,
                                      full.surface.positions[idx])
        np.testing.assert_array_equal(reduced.pressure, full.pressure[idx])

    def test_shifted_copy_picks_the_same_points(self, tmp_path):
        # the file's raw coordinates are sampled: a copy 1e6 away from the
        # origin keeps every adaptive pick
        rec = generate_records(DatasetSpec(n_samples=1, n_surface=2048,
                                           n_volume=8, seed=1))[0]
        def move(cloud):
            return PointCloud(cloud.positions + 1e6, cloud.normals, cloud.role)
        shifted = dataclasses.replace(rec, surface=move(rec.surface),
                                      volume=move(rec.volume))
        picks = []
        for name, record in (("near", rec), ("far", shifted)):
            save_sample(record, tmp_path / name)
            out = tmp_path / f"{name}_reduced"
            assert run(["sample", "--method", "adaptive", "--n", "512",
                        "--in", str(tmp_path / name), "--out", str(out)]) == 0
            picks.append((out / "indices.txt").read_bytes())
        assert picks[0] == picks[1]


    @staticmethod
    def negative_feature_count(lines):
        # rows as wide as the header claims: 3 + 3 normals - 1
        return ["24 -1 1"] + [" ".join(ln.split()[:5]) for ln in lines[1:]]

    @staticmethod
    def non_unit_normal(lines):
        return [lines[0], "0 0 0 2 0 0"] + lines[2:]

    @pytest.mark.parametrize("edit", ["negative_feature_count",
                                      "non_unit_normal"])
    def test_bad_cloud_content_is_runtime_error(self, tmp_path, capsys, edit):
        data = gen(tmp_path, n=1, n_surface=24)
        sample_dir = data / read_manifest(data)["samples"][0]
        surface = sample_dir / "surface.txt"
        lines = getattr(self, edit)(surface.read_text().splitlines())
        surface.write_text("\n".join(lines) + "\n")
        code, _, err = run(["sample", "--n", "8", "--in", str(sample_dir),
                            "--out", str(tmp_path / "reduced")], capsys)
        assert code == 1
        assert err.startswith(f"error: {surface}")

    @pytest.mark.parametrize("name", ["surface.txt", "pressure.txt"])
    def test_non_utf8_file_is_runtime_error_naming_it(self, tmp_path, capsys,
                                                      name):
        data = gen(tmp_path, n=1, n_surface=24)
        sample_dir = data / read_manifest(data)["samples"][0]
        path = sample_dir / name
        path.write_bytes(path.read_bytes() + b"\xff")
        code, _, err = run(["sample", "--n", "8", "--in", str(sample_dir),
                            "--out", str(tmp_path / "reduced")], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}: not UTF-8: ")

    @pytest.mark.parametrize("name", ["surface.txt", "volume.txt"])
    def test_feature_columns_are_runtime_error(self, tmp_path, capsys, name):
        data = gen(tmp_path, n=1, n_surface=24)
        sample_dir = data / read_manifest(data)["samples"][0]
        path = sample_dir / name
        lines = path.read_text().splitlines()
        n, _, has_normals = lines[0].split()
        lines = [f"{n} 1 {has_normals}"] + [ln + " 0.5" for ln in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(["sample", "--n", "8", "--in", str(sample_dir),
                            "--out", str(tmp_path / "reduced")], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}:1: C_u must be 0")


class TestMalformedManifest:
    """A bad manifest.json is a runtime error (exit 1) naming the file."""

    @pytest.mark.parametrize("text", [
        pytest.param('{"samples": ["s0000"], ', id="invalid_json"),
        pytest.param('{"format_version": 1}', id="missing_samples"),
        pytest.param('{"format_version": 1, "samples": "s0000"}',
                     id="samples_not_list"),
        pytest.param('{"format_version": 1, "samples": [0, 1]}',
                     id="samples_not_strings"),
        pytest.param('[{"format_version": 1, "samples": []}]',
                     id="not_an_object"),
        pytest.param('{"format_version": 1, "samples": [], "splits": []}',
                     id="splits_not_object"),
        pytest.param('{"format_version": 1, "samples": ["s0000"], '
                     '"splits": {"s0000": "test"}}', id="unknown_split"),
    ])
    def test_train_exits_1(self, tmp_path, capsys, text):
        data = gen(tmp_path, n=1)
        manifest = data / "manifest.json"
        manifest.write_text(text)
        code, _, err = run(["train", "--data", str(data),
                            "--out", str(tmp_path / "run"), "--epochs", "1"],
                           capsys)
        assert code == 1
        assert err.startswith(f"error: {manifest}")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipe")
    data = gen(tmp_path, n=4, n_surface=24, n_volume=12)
    run_dir = tmp_path / "run"
    code = main(["train", "--data", str(data), "--out", str(run_dir),
                 "--epochs", "2", "--layers", "1", "--channels", "16",
                 "--slices", "4", "--heads", "2", "--seed", "5"])
    assert code == 0
    return tmp_path, data, run_dir


class TestTrainPredictEvaluate:
    def test_train_outputs(self, pipeline):
        _, _, run_dir = pipeline
        assert (run_dir / "checkpoint_final.bin").is_file()
        assert (run_dir / "checkpoint_best.bin").is_file()
        csv = (run_dir / "loss_log.csv").read_text().splitlines()
        assert csv[0] == "epoch,step,loss_total,loss_v,loss_p,loss_cd"

    def test_predict_outputs(self, pipeline):
        tmp_path, data, run_dir = pipeline
        sample_dir = data / read_manifest(data)["samples"][0]
        out = tmp_path / "pred"
        code = main(["predict", "--checkpoint",
                     str(run_dir / "checkpoint_final.bin"),
                     "--in", str(sample_dir), "--out", str(out)])
        assert code == 0
        pressure = np.loadtxt(out / "pressure.txt")
        assert pressure.shape == (24,)
        velocity = np.loadtxt(out / "velocity.txt")
        assert velocity.shape == (12, 3)
        assert np.isfinite(float((out / "cd.txt").read_text()))

    @staticmethod
    def predict(pipeline, in_dir, out, capsys=None):
        _, _, run_dir = pipeline
        return run(["predict", "--checkpoint",
                    str(run_dir / "checkpoint_final.bin"),
                    "--in", str(in_dir), "--out", str(out)], capsys)

    @staticmethod
    def geometry_copy(sample_dir, dest, names=("surface.txt", "volume.txt")):
        dest.mkdir()
        for name in names:
            (dest / name).write_bytes((sample_dir / name).read_bytes())
        return dest

    def test_predict_needs_no_targets(self, pipeline, tmp_path):
        _, data, _ = pipeline
        sample_dir = data / read_manifest(data)["samples"][0]
        assert self.predict(pipeline, sample_dir, tmp_path / "full") == 0
        geometry = self.geometry_copy(sample_dir, tmp_path / "geometry")
        assert self.predict(pipeline, geometry, tmp_path / "bare") == 0
        for name in ("pressure.txt", "velocity.txt", "cd.txt"):
            assert (tmp_path / "bare" / name).read_bytes() == \
                (tmp_path / "full" / name).read_bytes(), name

    def test_predict_surface_only(self, pipeline, tmp_path):
        _, data, _ = pipeline
        sample_dir = data / read_manifest(data)["samples"][0]
        surface_only = self.geometry_copy(sample_dir, tmp_path / "s",
                                          names=("surface.txt",))
        out = tmp_path / "pred"
        assert self.predict(pipeline, surface_only, out) == 0
        assert np.loadtxt(out / "pressure.txt").shape == (24,)
        assert np.isfinite(float((out / "cd.txt").read_text()))

    def test_surface_without_normals_is_runtime_error(self, pipeline, tmp_path,
                                                      capsys):
        _, data, _ = pipeline
        sample_dir = data / read_manifest(data)["samples"][0]
        bare = self.geometry_copy(sample_dir, tmp_path / "bare")
        lines = (bare / "surface.txt").read_text().splitlines()
        assert lines[0].split() == ["24", "0", "1"]
        rows = [" ".join(ln.split()[:3]) for ln in lines[1:]]
        (bare / "surface.txt").write_text("\n".join(["24 0 0"] + rows) + "\n")
        code, _, err = self.predict(pipeline, bare, tmp_path / "pred", capsys)
        assert code == 1
        assert err.startswith("error: ") and "no normals" in err
        assert not (tmp_path / "pred").exists()

    def test_volume_with_normals_is_refused_at_its_header(self, pipeline,
                                                          tmp_path, capsys):
        """The header alone refuses it: its 3-column rows are never read."""
        _, data, _ = pipeline
        sample_dir = data / read_manifest(data)["samples"][0]
        bad = self.geometry_copy(sample_dir, tmp_path / "bad")
        lines = (bad / "volume.txt").read_text().splitlines()
        assert lines[0].split() == ["12", "0", "0"]
        (bad / "volume.txt").write_text("\n".join(["12 0 1"] + lines[1:]) + "\n")
        code, _, err = self.predict(pipeline, bad, tmp_path / "pred", capsys)
        assert code == 1
        assert f"{bad / 'volume.txt'}:1: " in err and "normals" in err
        assert not (tmp_path / "pred").exists()

    def test_evaluate_outputs(self, pipeline):
        tmp_path, data, run_dir = pipeline
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint",
                     str(run_dir / "checkpoint_final.bin"),
                     "--data", str(data), "--split", "all",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert set(report) == {"drag", "pressure", "velocity"}
        assert "rel_l2_percent" in report["pressure"]
        assert "scaled view" in (out / "metrics.txt").read_text()

    def test_bad_checkpoint_is_runtime_error(self, pipeline, tmp_path):
        tmp_path_local = tmp_path
        _, data, _ = pipeline
        bad = tmp_path_local / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(data),
                     "--out", str(tmp_path_local / "e")])
        assert code == 1

    def test_empty_split_is_runtime_error(self, tmp_path, capsys):
        data = gen(tmp_path, n=3)   # all three samples are "train"
        ckpt = tiny_checkpoint(tmp_path / "m.bin")
        capsys.readouterr()
        code, out, err = run(["evaluate", "--checkpoint", str(ckpt),
                              "--data", str(data), "--out",
                              str(tmp_path / "e")], capsys)
        assert (code, out, err) == (
            1, "", "error: evaluate needs a non-empty split\n")
        assert not (tmp_path / "e").exists()


class TestOverflowingCoordinates:
    """A cloud whose squared distances overflow float64 is a sample-file
    error that names the file, for every command that loads it."""

    @staticmethod
    def scaled_copy(sample_dir, dest, scale,
                    names=("surface.txt", "volume.txt")):
        dest.mkdir()
        for path in sample_dir.iterdir():
            lines = path.read_text().splitlines()
            if path.name in names:
                rows = [ln.split() for ln in lines[1:]]
                lines = lines[:1] + [" ".join(
                    [repr(float(v) * scale) for v in r[:3]] + r[3:])
                    for r in rows]
            (dest / path.name).write_text("\n".join(lines) + "\n")
        return dest

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_sample_exits_1(self, tmp_path, capsys, scale):
        data = gen(tmp_path, n=1, n_surface=24)
        far = self.scaled_copy(data / read_manifest(data)["samples"][0],
                               tmp_path / "far", scale)
        code, _, err = run(["sample", "--n", "8", "--in", str(far),
                            "--out", str(tmp_path / "reduced")], capsys)
        assert code == 1
        assert err.startswith(f"error: {far / 'surface.txt'}: coordinates "
                              "overflow")

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_predict_exits_1(self, pipeline, tmp_path, capsys, scale):
        _, data, run_dir = pipeline
        far = self.scaled_copy(data / read_manifest(data)["samples"][0],
                               tmp_path / "far", scale)
        code, _, err = run(["predict", "--checkpoint",
                            str(run_dir / "checkpoint_final.bin"),
                            "--in", str(far), "--out", str(tmp_path / "pred")],
                           capsys)
        assert code == 1
        assert err.startswith(f"error: {far / 'surface.txt'}: coordinates "
                              "overflow")

    def test_predict_f32_overflow_exits_1(self, pipeline, tmp_path, capsys):
        # loads (squared distances are finite in float64), but the volume's
        # coordinates in the surface's frame overflow the f32 model's
        # precision
        _, data, run_dir = pipeline
        far = self.scaled_copy(data / read_manifest(data)["samples"][0],
                               tmp_path / "far", 1e153, names=("volume.txt",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["predict", "--checkpoint",
                                str(run_dir / "checkpoint_final.bin"),
                                "--in", str(far),
                                "--out", str(tmp_path / "pred")], capsys)
        assert code == 1
        assert err == ("error: volume cloud: normalized coordinates "
                       "overflow float32, the model's precision\n")
        assert not (tmp_path / "pred").exists()


class TestTrainReport:
    ARGS = ["--epochs", "3", "--layers", "1", "--channels", "8", "--slices",
            "2", "--heads", "2", "--seed", "1"]

    def test_prints_best_validation_epoch(self, tmp_path, capsys):
        data = gen(tmp_path, n=5)   # sample_0003 and sample_0004 are "val"
        _, val_recs = load_dataset(data)
        assert len(val_recs) == 2
        run_dir = tmp_path / "run"
        code, out, _ = run(["train", "--data", str(data), "--out", str(run_dir),
                            *self.ARGS], capsys)
        assert code == 0
        m = re.search(r"^best epoch ([1-3]) of 3, validation loss (\S+)$", out,
                      re.M)
        assert m, out
        best = load_checkpoint(run_dir / "checkpoint_best.bin")
        losses = []
        for rec in val_recs:
            r = normalize(rec, best.stats)
            losses.append(float(loss_graph(best, r, LossWeights())[0].value))
        assert float(m[2]) == pytest.approx(np.mean(losses), rel=1e-5)

    def test_no_validation_line_without_val_split(self, tmp_path, capsys):
        data = gen(tmp_path, n=3)   # all three samples are "train"
        assert load_dataset(data)[1] == []
        code, out, _ = run(["train", "--data", str(data),
                            "--out", str(tmp_path / "run"), *self.ARGS], capsys)
        assert code == 0
        assert "final epoch loss" in out
        assert "best epoch" not in out


def tiny_checkpoint(path, edit=None, raw_header=None, state=None):
    """Save a tiny f32 model, then replace its JSON header by edit(header)
    or by raw_header and re-align the tensor blobs behind it."""
    save_checkpoint(state or init_model(ModelConfig(
        layers=1, channels=4, slices=2, heads=1, geom_width=6)), path)
    if edit is None and raw_header is None:
        return path
    data = path.read_bytes()
    end = data.index(b"\n", 8)
    blobs = data[end + 1 + (-(end + 1)) % 64:]
    head = raw_header or json.dumps(edit(json.loads(data[8:end]))).encode()
    pad = b"\0" * ((-(8 + len(head) + 1)) % 64)
    path.write_bytes(data[:8] + head + b"\n" + pad + blobs)
    return path


class TestMalformedCheckpoint:
    """Every header defect is a CheckpointError, which the CLI reports as a
    runtime error (exit 1) without a traceback."""

    def check(self, pipeline, tmp_path, capsys, path, match):
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        _, data, _ = pipeline
        code, _, err = run(["evaluate", "--checkpoint", str(path), "--data",
                            str(data), "--out", str(tmp_path / "e")], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}:")

    def test_unknown_config_key(self, pipeline, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "c.bin", edit=lambda h: {
            **h, "config": {**h["config"], "bogus_key": 1}})
        self.check(pipeline, tmp_path, capsys, path, "bogus_key")

    def test_missing_stats(self, pipeline, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "c.bin", edit=lambda h: {
            k: v for k, v in h.items() if k != "stats"})
        self.check(pipeline, tmp_path, capsys, path,
                   re.escape(f"{path}: bad header: KeyError('stats')"))

    def test_invalid_header_json(self, pipeline, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "c.bin", raw_header=b"{not json")
        self.check(pipeline, tmp_path, capsys, path, "bad header")

    @pytest.mark.parametrize("edit,kind", [
        (lambda d: d[:-1], "truncated"), (lambda d: d + b"\0", "trailing bytes")],
        ids=["one_byte_short", "one_byte_extra"])
    def test_size_differs_from_config(self, pipeline, tmp_path, capsys, edit,
                                      kind):
        path = tiny_checkpoint(tmp_path / "c.bin")
        size = len(path.read_bytes())
        path.write_bytes(edit(path.read_bytes()))
        got = len(path.read_bytes())
        self.check(pipeline, tmp_path, capsys, path,
                   re.escape(f"{path}: {kind}: {got} bytes, not {size}"))

    def test_version_1_refused_by_version(self, pipeline, tmp_path, capsys):
        # the headers of versions 1 (a tensor table) and 2 (position stats)
        old = {1: lambda h: {**h, "version": 1, "tensors": []},
               2: lambda h: {**h, "version": 2, "stats": {
                   **h["stats"], "position_center": [0.0, 0.0, 0.0],
                   "position_scale": 1.0}}}
        for version, edit in old.items():
            path = tiny_checkpoint(tmp_path / f"v{version}.bin", edit=edit)
            self.check(pipeline, tmp_path, capsys, path, re.escape(
                f"{path}: unsupported version {version}") + "$")

    @pytest.mark.parametrize("edit,match", [
        (lambda s: {**s, "bogus_stat": 0.0}, "unexpected .*'bogus_stat'"),
        (lambda s: {k: v for k, v in s.items() if k != "drag_std"},
         "missing .*'drag_std'")], ids=["extra_key", "missing_drag_std"])
    def test_stats_keys_must_match_fields(self, pipeline, tmp_path, capsys,
                                          edit, match):
        path = tiny_checkpoint(tmp_path / "c.bin", edit=lambda h: {
            **h, "stats": edit(h["stats"])})
        self.check(pipeline, tmp_path, capsys, path, match)

    @pytest.mark.parametrize("key,value,match", [
        ("channels", 4.0, "layers/channels/slices/heads must be positive integers"),
        ("layers", True, "layers/channels/slices/heads must be positive integers"),
        ("geom_width", 6.0, "geom_width must be 3")],
        ids=["float_channels", "bool_layers", "float_geom_width"])
    def test_non_integer_size_is_bad_header(self, pipeline, tmp_path, capsys,
                                            key, value, match):
        path = tiny_checkpoint(tmp_path / "c.bin", edit=lambda h: {
            **h, "config": {**h["config"], key: value}})
        self.check(pipeline, tmp_path, capsys, path,
                   re.escape(f"{path}: bad header: ValueError('{match}"))

    @pytest.mark.parametrize("key", ["extra_width", "ffn_width", "head_hidden"])
    def test_removed_config_key_is_named(self, pipeline, tmp_path, capsys,
                                         key):
        # the header of a checkpoint written before these keys were dropped
        path = tiny_checkpoint(tmp_path / "c.bin", edit=lambda h: {
            **h, "config": {**h["config"], key: 0}})
        self.check(pipeline, tmp_path, capsys, path, key)


class TestNonFiniteStats:
    """A checkpoint whose header stats are not finite is refused as a bad
    header that names the file, even with a valid CRC: it used to load, and
    predict then blamed its own output or named no file."""

    @pytest.mark.parametrize("key,value", [
        ("drag_mean", float("nan")), ("velocity_mean", [float("nan"), 0, 0]),
        ("pressure_std", float("inf"))],
        ids=["drag_mean_nan", "velocity_mean_nan", "pressure_std_inf"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_refused_as_bad_header(self, pipeline, tmp_path, capsys, command,
                                   key, value):
        _, data, run_dir = pipeline
        path = tiny_checkpoint(
            tmp_path / "c.bin",
            state=load_checkpoint(run_dir / "checkpoint_final.bin"),
            edit=lambda h: {**h, "stats": {**h["stats"], key: value}})
        signed = path.read_bytes()[:-4]
        path.write_bytes(signed + zlib.crc32(signed).to_bytes(4, "little"))
        sample_dir = data / read_manifest(data)["samples"][0]
        argv = {"predict": ["--in", str(sample_dir)],
                "evaluate": ["--data", str(data)]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([command, "--checkpoint", str(path), *argv,
                                  "--out", str(tmp_path / "out")], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: {path}: bad header: "
                       f"ValueError('{key} must be finite')\n")
        assert not (tmp_path / "out").exists()


class TestCorruptParameters:
    """A checkpoint whose parameters are non-finite, or whose log_tau
    overflows tau or 1/tau, is refused by name: predict and evaluate exit 1
    with one error line, no traceback and no warning."""

    @pytest.mark.parametrize("name,index,value", [
        ("layers.0.w_q", (0, 0), np.nan),
        ("head.drag.b2", (0,), np.inf),
        ("layers.0.log_tau", (), 1000.0),
        ("layers.0.log_tau", (), -1000.0),
        ("layers.0.log_tau", (), 88.73),
        ("layers.0.log_tau", (), -88.73),
    ], ids=["nan_w_q", "inf_drag_b2", "log_tau_1000", "log_tau_-1000",
            "log_tau_88.73", "log_tau_-88.73"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_refused_by_name(self, pipeline, tmp_path, capsys, command, name,
                             index, value):
        _, data, run_dir = pipeline
        state = load_checkpoint(run_dir / "checkpoint_final.bin")
        state.params[name][index] = value
        path = tmp_path / "c.bin"
        save_checkpoint(state, path)
        sample_dir = data / read_manifest(data)["samples"][0]
        argv = {"predict": ["--in", str(sample_dir)],
                "evaluate": ["--data", str(data)]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([command, "--checkpoint", str(path), *argv,
                                  "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert out == ""
        reason = (f"{name} {value:g}: tau or 1/tau would overflow float32"
                  if np.isfinite(value) else f"tensor {name} is not finite")
        assert err.startswith(f"error: {path}: {reason}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_predict_overflowing_f32_writes_nothing(self, pipeline, tmp_path,
                                                    capsys):
        # finite weights whose pressure head overflows float32
        _, data, run_dir = pipeline
        state = load_checkpoint(run_dir / "checkpoint_final.bin")
        for name in ("head.pressure.b1", "head.pressure.w2",
                     "head.pressure.b2"):
            state.params[name][...] = 3e38
        save_checkpoint(state, tmp_path / "c.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, err = run(["predict", "--checkpoint",
                                str(tmp_path / "c.bin"), "--in",
                                str(data / read_manifest(data)["samples"][0]),
                                "--out", str(tmp_path / "pred")], capsys)
        assert code == 1
        assert err == (f"error: {tmp_path / 'pred' / 'pressure.txt'}: "
                       "non-finite target value\n")
        assert not (tmp_path / "pred").exists()

    @staticmethod
    def overflowing(pipeline, path):
        # finite weights whose pressure head overflows float32
        state = load_checkpoint(pipeline[2] / "checkpoint_final.bin")
        for name in ("head.pressure.b1", "head.pressure.w2",
                     "head.pressure.b2"):
            state.params[name][...] = 3e38
        save_checkpoint(state, path)
        return path

    def test_predict_overflow_warns_nothing(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["predict", "--checkpoint",
                                str(self.overflowing(pipeline, tmp_path / "c.bin")),
                                "--in", str(data / read_manifest(data)["samples"][0]),
                                "--out", str(tmp_path / "pred")], capsys)
        assert (code, err) == (1, f"error: {tmp_path / 'pred' / 'pressure.txt'}: "
                                  "non-finite target value\n")

    def test_evaluate_overflow_names_the_sample(self, pipeline, tmp_path,
                                                capsys):
        # it wrote metrics.json with Infinity, which is not JSON, and exited 0
        _, data, _ = pipeline
        first = read_manifest(data)["samples"][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["evaluate", "--checkpoint",
                                  str(self.overflowing(pipeline, tmp_path / "c.bin")),
                                  "--data", str(data), "--split", "all",
                                  "--out", str(tmp_path / "eval")], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: sample {first!r}: non-finite prediction\n"
        assert not (tmp_path / "eval").exists()

    def test_log_tau_just_inside_bound_loads(self, pipeline, tmp_path):
        _, _, run_dir = pipeline
        state = load_checkpoint(run_dir / "checkpoint_final.bin")
        state.params["layers.0.log_tau"][()] = np.float32(88.72)
        save_checkpoint(state, tmp_path / "c.bin")
        assert float(load_checkpoint(tmp_path / "c.bin").params[
            "layers.0.log_tau"]) == float(np.float32(88.72))


class TestGradCheck:
    def test_default_passes(self, capsys):
        code, out, _ = run(["grad-check"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, _, err = run(["grad-check", "--tolerance", "1e-30"], capsys)
        assert code == 1
        assert "FAIL" in err

    @pytest.mark.parametrize("tolerance", ["-1", "0", "nan"])
    def test_non_positive_tolerance_is_usage_error(self, capsys, monkeypatch,
                                                   tolerance):
        def must_not_run(**kw):
            raise AssertionError("grad_check ran")
        monkeypatch.setattr("aerosurrogate.cli.grad_check", must_not_run)
        code, out, err = run(["grad-check", "--tolerance", tolerance], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: tolerance must be positive, got {tolerance}\n"

    def test_config_file_sets_tolerance(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tolerance": 1e-30}))
        code, _, err = run(["grad-check", "--config", str(cfg_path)], capsys)
        assert code == 1
        assert "FAIL" in err
        # the flag still wins over the file
        code, out, _ = run(["grad-check", "--config", str(cfg_path),
                            "--tolerance", "1e-5"], capsys)
        assert code == 0
        assert "(tolerance 1e-05)" in out

    @pytest.mark.parametrize("tolerance", [0, -1e-3])
    def test_non_positive_tolerance_in_config_is_usage_error(
            self, tmp_path, capsys, monkeypatch, tolerance):
        def must_not_run(**kw):
            raise AssertionError("grad_check ran")
        monkeypatch.setattr("aerosurrogate.cli.grad_check", must_not_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tolerance": tolerance}))
        code, _, err = run(["grad-check", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert err == f"error: tolerance must be positive, got {tolerance:g}\n"

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_infinite_tolerance_is_usage_error(self, tmp_path, capsys,
                                               monkeypatch, where):
        def must_not_run(**kw):
            raise AssertionError("grad_check ran")
        monkeypatch.setattr("aerosurrogate.cli.grad_check", must_not_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tolerance": float("inf")}))
        argv = (["--tolerance", "inf"] if where == "flag"
                else ["--config", str(cfg_path)])
        code, out, err = run(["grad-check"] + argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: tolerance must be finite, got inf\n"

    def test_print_config_shows_tolerance(self, capsys):
        code, out, _ = run(["grad-check", "--print-config"], capsys)
        assert code == 0
        printed = json.loads(out[:out.index("}") + 1])
        assert printed == {"seed": 1234, "tolerance": 1e-5}


class TestConfigHandling:
    def test_print_config(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(["gen-data", "--n", "1", "--n-surface", "8",
                               "--n-volume", "4", "--out", str(out),
                               "--print-config"], capsys)
        assert code == 0
        # stdout is the resolved-config JSON followed by the manifest path
        cfg = json.loads(stdout[:stdout.rindex("}") + 1])
        assert cfg["n_samples"] == 1

    def test_config_file_overridden_by_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_samples": 5, "n_surface": 8,
                                        "n_volume": 4}))
        out = tmp_path / "d"
        code, stdout, _ = run(["gen-data", "--config", str(cfg_path),
                               "--n", "2", "--out", str(out),
                               "--print-config"], capsys)
        assert code == 0
        assert len(read_manifest(out)["samples"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_samples": 2, "bogus_key": 1}))
        code = run(["gen-data", "--config", str(cfg_path),
                    "--out", str(tmp_path / "d")])
        assert code == 2

    def test_invalid_json_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code = run(["gen-data", "--config", str(cfg_path),
                    "--out", str(tmp_path / "d")])
        assert code == 2

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"seed": 1}\xff')
        code, _, err = run(["gen-data", "--config", str(cfg_path),
                            "--out", str(tmp_path / "d")], capsys)
        assert code == 2
        assert err.startswith(f"error: {cfg_path}: invalid JSON: 'utf-8' "
                              "codec can't decode byte 0xff")

    def test_missing_config_file_rejected(self, tmp_path):
        code = run(["gen-data", "--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "d")])
        assert code == 2

    @pytest.mark.parametrize("command,settings", [
        ("sample", {"curvature_fraction": 1.5}),
        ("train", {"learning_rate": -1.0}),
        ("train", {"lambda_v": -1.0}),
        ("train", {"heads": 3}),
        ("gen-data", {"n_samples": 0}),
    ])
    def test_rejected_setting_is_config_error(self, tmp_path, capsys,
                                              command, settings):
        data = gen(tmp_path, n=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        sample_dir = data / read_manifest(data)["samples"][0]
        argv = {"sample": ["--in", str(sample_dir)],
                "train": ["--data", str(data)], "gen-data": []}[command]
        code, _, err = run([command, "--config", str(cfg_path), *argv,
                            "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,settings,message", [
        ("sample", {"n_points": "x"}, 'n_points must be int, got "x"'),
        ("sample", {"n_points": True}, "n_points must be int, got true"),
        ("train", {"epochs": 2.5}, "epochs must be int, got 2.5"),
        ("sample", {"curvature_fraction": 1},
         "curvature_fraction must be strictly inside (0,1)"),
    ], ids=["str_for_int", "bool_for_int", "float_for_int", "int_for_float"])
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, command,
                                             settings, message):
        data = gen(tmp_path, n=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        sample_dir = data / read_manifest(data)["samples"][0]
        argv = {"sample": ["--in", str(sample_dir)],
                "train": ["--data", str(data)]}[command]
        code, _, err = run([command, "--config", str(cfg_path), *argv,
                            "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_max_steps_is_config_error(self, tmp_path, capsys):
        data = gen(tmp_path, n=1)
        code, _, err = run(["train", "--data", str(data), "--max-steps", "-1",
                            "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert "max_steps must be >= 0" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv,settings,message", [
        (["--learning-rate", "inf"], {}, "learning rate must be positive and finite"),
        ([], {"learning_rate": float("nan")},
         "learning rate must be positive and finite"),
        ([], {"eps": 0}, "eps must be positive and finite"),
        ([], {"eps": -1.0}, "eps must be positive and finite"),
        ([], {"lambda_v": float("nan")},
         "loss weights must be finite and non-negative"),
        ([], {"lambda_cd": float("inf")},
         "loss weights must be finite and non-negative"),
    ], ids=["lr_inf_flag", "lr_nan", "eps_0", "eps_negative", "lambda_v_nan",
            "lambda_cd_inf"])
    def test_untrainable_setting_is_config_error(self, tmp_path, capsys, argv,
                                                 settings, message):
        # NaN slipped through `<= 0` and `min(...) < 0`; inf and eps <= 0
        # failed at a later step with exit 1, or trained with exit 0
        data = gen(tmp_path, n=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        code, _, err = run(["train", "--data", str(data), "--epochs", "2",
                            "--config", str(cfg_path), *argv,
                            "--out", str(tmp_path / "run")], capsys)
        assert (code, err) == (2, f"error: {message}\n")
        assert not (tmp_path / "run").exists()


class TestRuntimeValueError:
    """A ValueError found in the data, not in the settings, exits 1."""

    def test_constant_pressure_train_exits_1(self, tmp_path, capsys):
        data = gen(tmp_path, n=3)
        for name in read_manifest(data)["samples"]:
            pressure = data / name / "pressure.txt"
            rows = len(pressure.read_text().split())
            pressure.write_text("0.5\n" * rows)
        code, _, err = run(["train", "--data", str(data), "--out",
                            str(tmp_path / "run"), "--epochs", "1"], capsys)
        assert code == 1
        assert re.fullmatch(r"error: sample 'sample_000[0-2]': pressure target "
                            r"norm is zero; relative L2 undefined\n", err)

    def test_cloud_smaller_than_neighbourhood_exits_1(self, tmp_path, capsys):
        data = gen(tmp_path, n=1, n_surface=12)
        sample_dir = data / read_manifest(data)["samples"][0]
        code, _, err = run(["sample", "--method", "curvature", "--n", "4",
                            "--knn-k", "16", "--in", str(sample_dir),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "need at least k+1=17 points, have 12" in err


class TestSettingsDeclaredOnce:
    """A flag or config key exists only where a command reads it."""

    @staticmethod
    def argv(command, pipeline, tmp_path):
        _, data, run_dir = pipeline
        sample_dir = data / read_manifest(data)["samples"][0]
        checkpoint = str(run_dir / "checkpoint_final.bin")
        out = str(tmp_path / "out")
        return {
            "gen-data": ["gen-data", "--n", "1", "--n-surface", "8",
                         "--n-volume", "4", "--out", out],
            "sample": ["sample", "--n", "8", "--in", str(sample_dir),
                       "--out", out],
            "predict": ["predict", "--checkpoint", checkpoint,
                        "--in", str(sample_dir), "--out", out],
            "evaluate": ["evaluate", "--checkpoint", checkpoint,
                         "--data", str(data), "--split", "all", "--out", out],
            "grad-check": ["grad-check"],
        }[command]

    @pytest.mark.parametrize("command,flag", [
        ("predict", "--seed"), ("predict", "--precision"),
        ("evaluate", "--seed"), ("gen-data", "--precision"),
        ("sample", "--precision"), ("grad-check", "--precision")])
    def test_flag_the_command_ignores_is_usage_error(
            self, pipeline, tmp_path, capsys, command, flag):
        argv = self.argv(command, pipeline, tmp_path)
        value = "f64" if flag == "--precision" else "3"
        code, _, err = run(argv + [flag, value], capsys)
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err
        assert not (tmp_path / "out").exists()
        assert run(argv, capsys)[0] == 0

    @pytest.mark.parametrize("key", ["checkpoint_every", "extra_width",
                                     "head_hidden", "ffn_width"])
    def test_removed_config_key_rejected(self, pipeline, tmp_path, capsys,
                                         key):
        _, data, _ = pipeline
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, key: 0}))
        code, _, err = run(["train", "--data", str(data), "--out",
                            str(tmp_path / "run"), "--config", str(cfg_path)],
                           capsys)
        assert code == 2
        assert key in err
        assert not (tmp_path / "run").exists()

    def test_train_config_file_sets_every_model_key(self, tmp_path):
        data = gen(tmp_path, n=2)
        model_keys = {"layers": 1, "channels": 6, "slices": 3, "heads": 3,
                      "geom_width": 3, "seed": 11, "precision": "f64"}
        assert set(model_keys) == set(ModelConfig.__dataclass_fields__)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**model_keys, "epochs": 1}))
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(data), "--out", str(run_dir),
                    "--config", str(cfg_path)]) == 0
        config = load_checkpoint(run_dir / "checkpoint_final.bin").config
        assert dataclasses.asdict(config) == model_keys

    def test_shared_config_file_serves_every_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n_samples": 1, "n_surface": 8, "n_volume": 4, "seed": 4,
            "method": "random", "n_points": 4, "layers": 1, "lambda_cd": 0.5}))
        out = tmp_path / "d"
        code, stdout, _ = run(["gen-data", "--config", str(cfg_path),
                               "--out", str(out), "--print-config"], capsys)
        assert code == 0
        cfg = json.loads(stdout[:stdout.rindex("}") + 1])
        assert cfg["seed"] == 4 and cfg["n_samples"] == 1
        assert not {"method", "n_points", "layers", "lambda_cd"} & set(cfg)
        sample_dir = out / read_manifest(out)["samples"][0]
        code, stdout, _ = run(["sample", "--config", str(cfg_path), "--in",
                               str(sample_dir), "--out", str(tmp_path / "s"),
                               "--print-config"], capsys)
        assert code == 0
        cfg = json.loads(stdout[:stdout.rindex("}") + 1])
        assert cfg["method"] == "random" and cfg["n_points"] == 4
        assert len(read_index_file(tmp_path / "s" / "indices.txt")) == 4
