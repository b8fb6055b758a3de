import json

import numpy as np
import pytest

from aerosurrogate.cli import main
from aerosurrogate.model import (CheckpointError, ModelConfig, init_model,
                                 load_checkpoint, save_checkpoint)
from aerosurrogate.pointcloud import load_sample, read_manifest
from aerosurrogate.sampling import read_index_file


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

    def test_repeat_identical_tree(self, tmp_path):
        a = gen(tmp_path, name="a")
        b = gen(tmp_path, name="b")
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


class TestSample:
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
        self.check(pipeline, tmp_path, capsys, path, "stats")

    def test_invalid_header_json(self, pipeline, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "c.bin", raw_header=b"{not json")
        self.check(pipeline, tmp_path, capsys, path, "bad header")

    def test_tensor_dtype_differs_from_precision(self, pipeline, tmp_path,
                                                 capsys):
        state = init_model(ModelConfig(layers=1, channels=4, slices=2, heads=1,
                                       geom_width=6, precision="f32"))
        state.params["embedding.b"] = state.params["embedding.b"].astype(
            np.float64)
        path = tiny_checkpoint(tmp_path / "c.bin", state=state)
        self.check(pipeline, tmp_path, capsys, path,
                   "embedding.b dtype float64 != precision f32")


class TestGradCheck:
    def test_default_passes(self, capsys):
        code, out, _ = run(["grad-check"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, _, err = run(["grad-check", "--tolerance", "1e-30"], capsys)
        assert code == 1
        assert "FAIL" in err


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

    def test_missing_config_file_rejected(self, tmp_path):
        code = run(["gen-data", "--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "d")])
        assert code == 2
