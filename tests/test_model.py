import dataclasses
import hashlib
import json
import re
import tracemalloc
import warnings
from operator import delitem, setitem

import numpy as np
import pytest

from aerosurrogate.autodiff import Tensor
from aerosurrogate.model import (ModelConfig, init_model, forward,
                                 forward_graph, predict_denormalized,
                                 save_checkpoint, load_checkpoint,
                                 CheckpointError, _layout)
from aerosurrogate.pointcloud import (PointCloud, SampleFormatError,
                                      compute_stats, normalize)
from aerosurrogate.datagen import ShapeSpec, generate_sample
from aerosurrogate.rng import SplitMix64
from tests.test_physatt import oracle_layer, oracle_layer_norm, oracle_gelu


def tiny_config(**kw):
    defaults = dict(layers=1, channels=4, slices=2, heads=1, seed=3,
                    precision="f64", geom_width=6)
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_clouds(n_s=3, n_v=2, seed=0):
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(n_s, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    surface = PointCloud(rng.normal(size=(n_s, 3)), normals, "surface")
    volume = PointCloud(rng.normal(size=(n_v, 3)), None, "volume")
    return surface, volume


class TestInit:
    def test_deterministic(self):
        a = init_model(tiny_config())
        b = init_model(tiny_config())
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_per_head_width(self):
        cfg = ModelConfig(layers=1, channels=256, slices=4, heads=8)
        assert cfg.channels // cfg.heads == 32

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(layers=1, channels=10, slices=2, heads=3)

    def test_full_scale_defaults(self):
        cfg = ModelConfig()
        assert (cfg.layers, cfg.channels, cfg.slices) == (6, 256, 64)


class TestForward:
    def test_output_shapes(self):
        state = init_model(tiny_config())
        surface, volume = tiny_clouds(5, 4)
        pred = forward(state, surface, volume)
        assert np.isscalar(pred.drag)
        assert pred.pressure.shape == (5,)
        assert pred.velocity.shape == (4, 3)

    def test_empty_volume(self):
        state = init_model(tiny_config())
        surface, _ = tiny_clouds(5, 2)
        pred = forward(state, surface, None)
        assert pred.velocity.shape == (0, 3)
        assert np.isfinite(pred.drag)
        assert np.all(np.isfinite(pred.pressure))

    def test_surface_permutation(self):
        state = init_model(tiny_config(precision="f32"))
        surface, volume = tiny_clouds(12, 6)
        perm = np.random.default_rng(1).permutation(12)
        base = forward(state, surface, volume)
        permuted = forward(state, surface.select(perm), volume)
        assert abs(base.drag - permuted.drag) <= 1e-5
        np.testing.assert_allclose(permuted.pressure, base.pressure[perm],
                                   atol=1e-5)

    def test_volume_permutation(self):
        state = init_model(tiny_config())
        surface, volume = tiny_clouds(6, 9)
        perm = np.random.default_rng(2).permutation(9)
        base = forward(state, surface, volume)
        permuted = forward(state, surface, volume.select(perm))
        np.testing.assert_allclose(permuted.velocity, base.velocity[perm],
                                   atol=1e-10)

    def test_deterministic(self):
        state = init_model(tiny_config())
        surface, volume = tiny_clouds(4, 3)
        a = forward(state, surface, volume)
        b = forward(state, surface, volume)
        assert a.drag == b.drag
        np.testing.assert_array_equal(a.pressure, b.pressure)

    def test_matches_composed_oracle(self):
        """End-to-end tiny model against brute-force layer oracles."""
        cfg = tiny_config(layers=1, channels=4, slices=2, heads=1)
        state = init_model(cfg)
        surface, volume = tiny_clouds(3, 2)
        pred = forward(state, surface, volume)

        feats_s = np.hstack([surface.positions, surface.normals,
                             np.ones((3, 1))])
        feats_v = np.hstack([volume.positions, np.zeros((2, 3)),
                             np.zeros((2, 1))])
        x = np.vstack([feats_s, feats_v])
        x = x @ state.params["embedding.w"] + state.params["embedding.b"]
        x = oracle_layer(x, state.layer_params(0))

        def head(prefix, feats):
            h = oracle_gelu(feats @ state.params[f"{prefix}.w1"]
                            + state.params[f"{prefix}.b1"])
            return h @ state.params[f"{prefix}.w2"] + state.params[f"{prefix}.b2"]

        drag = head("head.drag", x[:3].mean(axis=0, keepdims=True))[0, 0]
        pressure = head("head.pressure", x[:3])[:, 0]
        velocity = head("head.velocity", x[3:])
        assert abs(pred.drag - drag) < 1e-10
        np.testing.assert_allclose(pred.pressure, pressure, atol=1e-10)
        np.testing.assert_allclose(pred.velocity, velocity, atol=1e-10)


class TestInferenceMemory:
    """With ndarray parameters no gradient can flow, so the forward pass
    records no graph and holds only its live activations."""

    @staticmethod
    def forward_peak(layers, surface, volume):
        state = init_model(ModelConfig(layers=layers, channels=64, slices=16,
                                       heads=4, seed=0))
        tracemalloc.start()
        try:
            forward(state, surface, volume)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_depth(self):
        surface, volume = tiny_clouds(n_s=2048, n_v=1024, seed=1)
        deep = self.forward_peak(4, surface, volume)
        shallow = self.forward_peak(1, surface, volume)
        assert deep < 1.5 * shallow

    def test_outputs_have_no_graph(self):
        state = init_model(tiny_config(layers=2))
        for out in forward_graph(state, *tiny_clouds()):
            assert out._parents == ()
            assert out._backward is None
            assert not out.requires_grad


class TestChunkedInference:
    """forward runs each block in row chunks; a forward_graph with
    parameters that require gradients runs them over all N at once."""

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_forward_equals_tracked_forward_graph(self, precision):
        state = init_model(ModelConfig(layers=2, channels=64, slices=16,
                                       heads=4, seed=2, precision=precision))
        surface, volume = tiny_clouds(n_s=3000, n_v=1100, seed=4)
        params_t = {name: Tensor(a, requires_grad=True)
                    for name, a in state.params.items()}
        drag, pressure, velocity = forward_graph(state, surface, volume,
                                                 params_t)
        pred = forward(state, surface, volume)
        assert pred.drag == float(drag.value)
        np.testing.assert_array_equal(pred.pressure,
                                      pressure.value.astype(np.float64))
        np.testing.assert_array_equal(pred.velocity,
                                      velocity.value.astype(np.float64))


class TestPredictDenormalized:
    def test_round_trips_through_stats(self):
        rec = generate_sample(ShapeSpec(1.4, 1.0, 0.8, n_surface=16,
                                        n_volume=8, seed=5))
        stats = compute_stats([rec])
        state = init_model(tiny_config(), stats)
        pred = predict_denormalized(state, rec.surface, rec.volume)
        normed = normalize(rec, stats)
        raw = forward(state, normed.surface, normed.volume)
        assert pred.drag == pytest.approx(raw.drag * stats.drag_std
                                          + stats.drag_mean)
        np.testing.assert_allclose(
            pred.pressure, raw.pressure * stats.pressure_std + stats.pressure_mean)


    @pytest.mark.parametrize("role", ["surface", "volume"])
    def test_f32_overflow_after_normalization_named(self, role):
        # finite in float64, but past float32's range once normalized
        surface, volume = tiny_clouds()
        far = {"surface": surface, "volume": volume}[role]
        far = PointCloud(far.positions * 1e153, far.normals, role)
        clouds = {"surface": surface, "volume": volume, role: far}
        state = init_model(tiny_config(precision="f32"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleFormatError,
                               match=f"^{role} cloud: normalized coordinates "
                                     "overflow float32"):
                predict_denormalized(state, clouds["surface"],
                                     clouds["volume"])


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        state = init_model(tiny_config(precision="f32"))
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(state, p1)
        loaded = load_checkpoint(p1)
        for name in state.params:
            np.testing.assert_array_equal(loaded.params[name], state.params[name])
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_reload(self, tmp_path):
        state = init_model(tiny_config())
        surface, volume = tiny_clouds(4, 3)
        save_checkpoint(state, tmp_path / "m.bin")
        loaded = load_checkpoint(tmp_path / "m.bin")
        a = forward(state, surface, volume)
        b = forward(loaded, surface, volume)
        assert a.drag == b.drag
        np.testing.assert_array_equal(a.pressure, b.pressure)
        np.testing.assert_array_equal(a.velocity, b.velocity)

    def test_bad_magic(self, tmp_path):
        state = init_model(tiny_config())
        path = tmp_path / "m.bin"
        save_checkpoint(state, path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: bad magic b'NOTMAGIC'")):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        state = init_model(tiny_config())
        path = tmp_path / "m.bin"
        save_checkpoint(state, path)
        size = len(path.read_bytes())
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: truncated: {size - 40} bytes, not {size}")):
            load_checkpoint(path)

    def test_huge_layer_count_refused_without_allocating(self, tmp_path):
        # the size check costs the same whatever layer count the header
        # claims; a layout of 19 slots per layer took 290 MB here
        sizes = []
        for layers in (1, 2):
            save_checkpoint(init_model(tiny_config(layers=layers)),
                            tmp_path / "m.bin")
            sizes.append(len((tmp_path / "m.bin").read_bytes()))
        data = (tmp_path / "m.bin").read_bytes()
        end = data.index(b"\n")
        header = json.loads(data[8:end])
        header["config"]["layers"] = 100000
        head = data[:8] + json.dumps(header, sort_keys=True).encode() + b"\n"
        head += b"\0" * (-len(head) % 64)
        body = data[end + 1 + (-(end + 1) % 64):]
        path = tmp_path / "huge.bin"
        path.write_bytes(head + body)
        want = len(head) + len(body) + 99998 * (sizes[1] - sizes[0])
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=re.escape(
                    f"{path}: truncated: {len(head + body)} bytes, not {want}")):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_every_single_bit_flip_refused(self, tmp_path):
        state = init_model(tiny_config(precision="f32"))
        path = tmp_path / "m.bin"
        save_checkpoint(state, path)
        data = path.read_bytes()
        for i in range(len(data)):
            flipped = bytearray(data)
            flipped[i] ^= 1 << (i % 8)
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError, match=re.escape(f"{path}: ")):
                load_checkpoint(path)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_payload_is_the_flat_array_little_endian(self, tmp_path,
                                                     precision):
        state = init_model(tiny_config(layers=2, precision=precision))
        save_checkpoint(state, tmp_path / "m.bin")
        data = (tmp_path / "m.bin").read_bytes()
        end = data.index(b"\n") + 1
        payload = data[end + (-end % 64):-4]
        little = np.dtype(state.config.dtype).newbyteorder("<")
        assert payload == state.params.flat.astype(little).tobytes()
        np.testing.assert_array_equal(np.frombuffer(payload, little),
                                      state.params.flat)

    def test_header_holds_version_config_stats_only(self, tmp_path):
        save_checkpoint(init_model(tiny_config()), tmp_path / "m.bin")
        data = (tmp_path / "m.bin").read_bytes()
        header = json.loads(data[8:data.index(b"\n")])
        assert set(header) == {"version", "config", "stats"}
        assert header["version"] == 2

    def test_stats_preserved(self, tmp_path):
        rec = generate_sample(ShapeSpec(2.0, 1.0, 0.7, n_surface=16,
                                        n_volume=8, seed=1))
        stats = compute_stats([rec])
        state = init_model(tiny_config(), stats)
        save_checkpoint(state, tmp_path / "m.bin")
        loaded = load_checkpoint(tmp_path / "m.bin")
        assert loaded.stats.drag_mean == stats.drag_mean
        np.testing.assert_array_equal(loaded.stats.position_center,
                                      stats.position_center)


class TestParameterLayout:
    """init_model and load_checkpoint share one layout of names and shapes;
    only init_model draws values."""

    @staticmethod
    def digest(state):
        h = hashlib.sha256()
        for name, a in state.params.items():
            h.update(name.encode())
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("config,expected", [
        (dict(layers=2, channels=8, slices=2, heads=2, seed=3),
         "88050d66c1959a4e3bad5ee8afb8a6f2568056cadb3b757cf30983aa632962de"),
        (dict(layers=1, channels=4, slices=2, heads=1, seed=3,
              precision="f64", geom_width=3),
         "f9a3694848ee28812b69fd63adcb7271e495f0f5bcd07283922ad9fd11edc3d4"),
    ])
    def test_init_values_and_order_pinned(self, config, expected):
        assert self.digest(init_model(ModelConfig(**config))) == expected

    def test_load_draws_no_values(self, tmp_path, monkeypatch):
        state = init_model(tiny_config(layers=2, heads=2))
        save_checkpoint(state, tmp_path / "c.bin")

        def no_draws(self, n):
            raise AssertionError("load_checkpoint drew parameter values")
        monkeypatch.setattr(SplitMix64, "uniform_array", no_draws)
        loaded = load_checkpoint(tmp_path / "c.bin")
        assert list(loaded.params) == list(state.params)
        for name, arr in state.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)

    @pytest.mark.parametrize("edit", [
        lambda p: setitem(p, "embedding.w", p["embedding.w"].reshape(4, 7)),
        lambda p: setitem(p, "embedding.b", p["embedding.b"].astype(np.float32)),
        lambda p: delitem(p, "head.drag.b2"),
        lambda p: setitem(p, "bogus", np.zeros(1)),
    ], ids=["shape", "dtype", "missing", "unknown"])
    def test_save_refuses_parameters_differing_from_layout(self, tmp_path,
                                                           edit):
        """Rebinding, adding or popping a name raises TypeError, so a saved
        checkpoint always holds exactly the config's layout."""
        state = init_model(tiny_config())
        with pytest.raises(TypeError):
            edit(state.params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.params = {}
        assert list(state.params) == list(_layout(state.config))
        save_checkpoint(state, tmp_path / "c.bin")
        loaded = load_checkpoint(tmp_path / "c.bin")
        for (name, arr), (slot_name, slot) in zip(
                loaded.params.items(), _layout(state.config).items()):
            assert name == slot_name
            assert arr.shape == slot.shape and arr.dtype == state.config.dtype

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_every_view_shares_the_flat_array_at_its_offset(self, precision):
        state = init_model(tiny_config(layers=2, heads=2, precision=precision))
        flat, offset = state.params.flat, 0
        assert flat.dtype == state.config.dtype and flat.ndim == 1
        for (name, view), (slot_name, slot) in zip(
                state.params.items(), _layout(state.config).items()):
            assert name == slot_name and view.shape == slot.shape
            size = view.size
            assert np.shares_memory(view, flat), name
            view_start = (view.__array_interface__["data"][0]
                          - flat.__array_interface__["data"][0])
            assert view_start == offset * flat.itemsize, name
            np.testing.assert_array_equal(view.reshape(-1),
                                          flat[offset:offset + size])
            offset += size
        assert offset == flat.size
