"""Full surrogate network: embedding, L physics-attention layers, and the
three task heads (drag, surface pressure, volume velocity), plus
checkpoint serialization.

Surface and volume points share one attention sequence, distinguished by a
role-flag input channel (surface=1, volume=0). A single forward pass
produces all three predictions.
"""

from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace
from pathlib import Path
import json
import math
import zlib

import numpy as np

from .autodiff import _gelu_from_tanh, _gelu_grad, _gelu_tanh
from .physatt import LayerParams, Slot, _block, _linear_grad, layer_layout
from .pointcloud import (NormalizationStats, PointCloud, SampleFormatError,
                         normalize_clouds)
from .rng import SplitMix64

CHECKPOINT_MAGIC = b"PASURF01"
CHECKPOINT_VERSION = 3
_ALIGN = 64


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 6
    channels: int = 256
    slices: int = 64
    heads: int = 8
    geom_width: int = 6         # 3 coordinates, optionally +3 normals
    seed: int = 0
    precision: str = "f32"      # f32 | f64

    def __post_init__(self):
        sizes = (self.layers, self.channels, self.slices, self.heads)
        if any(type(v) is not int or v < 1 for v in sizes):
            raise ValueError("layers/channels/slices/heads must be positive integers")
        if self.channels % self.heads != 0:
            raise ValueError(
                f"channels {self.channels} must be divisible by heads {self.heads}")
        if type(self.geom_width) is not int or self.geom_width not in (3, 6):
            raise ValueError("geom_width must be 3 (coords) or 6 (coords+normals)")
        if self.precision not in ("f32", "f64"):
            raise ValueError("precision must be f32 or f64")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


class Params(Mapping):
    """Named views of one array, flat, in a layout's order and shapes. The
    views are written in place; no name can be rebound, added or removed."""

    def __init__(self, layout: dict[str, Slot], flat: np.ndarray):
        self.layout, self.flat, self._views, start = layout, flat, {}, 0
        for name, slot in layout.items():
            end = start + math.prod(slot.shape)
            self._views[name] = flat[start:end].reshape(slot.shape)
            start = end

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def first_nonfinite(self) -> str | None:
        if not np.isfinite(self.flat).all():
            return next(n for n, a in self.items() if not np.isfinite(a).all())


@dataclass(frozen=True)
class ModelState:
    """All trainable parameters plus normalization stats and config.

    params maps dotted names to views of one array of the config's dtype,
    in _layout order; layer i's fields are "layers.{i}.<field>"."""

    config: ModelConfig
    stats: NormalizationStats
    params: Params


@dataclass(frozen=True)
class Prediction:
    drag: float
    pressure: np.ndarray     # (N_s,)
    velocity: np.ndarray     # (N_v, 3)


def _layout(config: ModelConfig) -> dict[str, Slot]:
    """The Slot of every parameter, in the order init_model draws them in
    and a checkpoint, which names no tensor, stores them: a reorder needs a
    version bump (test_init_values_and_order_pinned). Each layer's FFN is
    2C wide and each head's hidden layer C wide."""
    c = config.channels
    w = config.geom_width + 1           # +1 is the surface/volume role flag
    slots = {"embedding.w": Slot((w, c), w), "embedding.b": Slot((c,))}
    layer = layer_layout(c, config.slices, config.heads, 2 * c)
    for li in range(config.layers):
        slots.update({f"layers.{li}.{name}": s for name, s in layer.items()})
    for prefix, out_w in (("head.drag", 1), ("head.pressure", 1), ("head.velocity", 3)):
        slots[f"{prefix}.w1"] = Slot((c, c), c)
        slots[f"{prefix}.b1"] = Slot((c,))
        slots[f"{prefix}.w2"] = Slot((c, out_w), c)
        slots[f"{prefix}.b2"] = Slot((out_w,))
    return slots


def init_model(config: ModelConfig,
               stats: NormalizationStats | None = None) -> ModelState:
    """Deterministic seeded initialization of every parameter tensor."""
    rng, layout = SplitMix64(config.seed), _layout(config)
    flat = np.concatenate([slot.draw(rng, config.dtype).reshape(-1)
                           for slot in layout.values()])
    return ModelState(config=config,
                      stats=stats or NormalizationStats.identity(),
                      params=Params(layout, flat))


def _input_features(config: ModelConfig, cloud: PointCloud) -> np.ndarray:
    n = cloud.n_points
    cols = [cloud.positions]
    if config.geom_width == 6:
        # volume points never carry normals and are fed zeros in their place
        if cloud.normals is not None:
            cols.append(cloud.normals)
        elif cloud.role == "surface":
            raise SampleFormatError(
                "surface cloud has no normals, but the model was trained "
                "with them (geom_width=6)")
        else:
            cols.append(np.zeros((n, 3)))
    cols.append(np.full((n, 1), 1.0 if cloud.role == "surface" else 0.0))
    with np.errstate(over="ignore"):
        feats = np.concatenate(cols, axis=1).astype(config.dtype)
    if not np.all(np.isfinite(feats)):
        raise SampleFormatError(
            f"{cloud.role} cloud: normalized coordinates overflow "
            f"{np.dtype(config.dtype).name}, the model's precision")
    return feats


def _add_grads(grads: Params, prefix: str, named) -> None:
    """Add each (name, d) of named into its view grads[prefix + name]."""
    for name, d in named:
        view = grads[prefix + name]
        view += d


def _mlp(x: np.ndarray, params: Params, prefix: str, keep: bool):
    """The head prefix on x: gelu(x.w1 + b1).w2 + b2. Returns (out,
    backward); with keep, backward(g, grads) adds the head's gradients,
    given g at out, into grads and returns d x, else it is None."""
    w1, b1, w2, b2 = (params[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2"))
    pre = x @ w1
    pre += b1
    th = _gelu_tanh(pre)
    hidden = _gelu_from_tanh(pre, th, out=None if keep else th)
    out = hidden @ w2
    out += b2
    if not keep:
        return out, None

    def backward(g, grads):
        d_w2, d_b2, d_hidden = _linear_grad(hidden, g, w2)
        d_w1, d_b1, d_x = _linear_grad(x, _gelu_grad(d_hidden, pre, th), w1)
        _add_grads(grads, f"{prefix}.", (("w1", d_w1), ("b1", d_b1),
                                         ("w2", d_w2), ("b2", d_b2)))
        return d_x

    return out, backward


def forward_graph(state: ModelState, surface: PointCloud,
                  volume: PointCloud | None, keep: bool = False):
    """The forward pass on ndarrays, for training and inference alike.

    Returns (drag, pressure, velocity, backward): a 0-d drag, pressure
    (N_s,) and velocity (N_v, 3), None when no volume points are
    supplied. Inputs are assumed already in the surface's frame
    (normalize_clouds). Without keep, each block runs its point-local
    stages in row chunks (physatt._block) and backward is None. With
    keep, backward(d_drag, d_pressure, d_velocity, grads) maps the
    gradient at the outputs (d_velocity None without volume) to the
    gradient of every parameter and adds it into grads, a Params of the
    parameters' layout; it releases the activations as it runs, so it
    runs once. Every gradient is the one a graph of autodiff primitives
    gives, bit for bit (tests/graph_oracle.py).
    """
    config, params = state.config, state.params
    n_s = surface.n_points
    feats = [_input_features(config, surface)]
    if volume is not None:
        feats.append(_input_features(config, volume))
    feats = np.concatenate(feats, axis=0)

    x = feats @ params["embedding.w"]
    x += params["embedding.b"]
    blocks = []
    for li in range(config.layers):
        layer = LayerParams.lookup(params, f"layers.{li}.", config.heads)
        x, block_backward = _block(x, layer, keep)
        blocks.append(block_backward)
    fields = [name for name, _ in layer.named_arrays()]

    surf = x[:n_s]
    inv_n = config.dtype(1.0 / n_s)
    pooled = surf.sum(axis=0, keepdims=True)
    pooled *= inv_n
    drag, drag_backward = _mlp(pooled, params, "head.drag", keep)
    pressure, pressure_backward = _mlp(surf, params, "head.pressure", keep)
    velocity, velocity_backward = (None, None) if volume is None else _mlp(
        x[n_s:], params, "head.velocity", keep)
    drag, pressure = drag.reshape(()), pressure.reshape(n_s)
    if not keep:
        return drag, pressure, velocity, None
    # popped as they run, so that the heads' activations, and with them
    # the last block's output, are freed before the blocks' backward
    heads = {"drag": drag_backward, "pressure": pressure_backward,
             "velocity": velocity_backward}
    shape = x.shape

    def backward(d_drag, d_pressure, d_velocity, grads: Params):
        d_x = np.empty(shape, feats.dtype)
        d_surf = d_x[:n_s]
        d_surf[...] = heads.pop("pressure")(d_pressure.reshape(n_s, 1), grads)
        d_surf += heads.pop("drag")(d_drag.reshape(1, 1), grads) * inv_n
        head = heads.pop("velocity")
        if head is not None:
            d_x[n_s:] = head(d_velocity, grads)
        for li in reversed(range(len(blocks))):
            d_x, *d_fields = blocks.pop()(d_x)
            _add_grads(grads, f"layers.{li}.", zip(fields, d_fields))
        _add_grads(grads, "embedding.", (("w", feats.T @ d_x),
                                         ("b", d_x.sum(axis=0))))

    return drag, pressure, velocity, backward


def forward(state: ModelState, surface: PointCloud,
            volume: PointCloud | None) -> Prediction:
    """Plain forward pass on normalized clouds; outputs in normalized
    target units, non-finite where they overflow, with numpy's warnings
    silenced: the callers refuse a non-finite output by name."""
    with np.errstate(over="ignore", invalid="ignore"):
        drag, pressure, velocity, _ = forward_graph(state, surface, volume)
    vel = velocity if velocity is not None else np.zeros((0, 3))
    return Prediction(drag=float(drag),
                      pressure=np.asarray(pressure, dtype=np.float64),
                      velocity=np.asarray(vel, dtype=np.float64))


def predict_denormalized(state: ModelState, surface: PointCloud,
                         volume: PointCloud | None) -> Prediction:
    """Map raw clouds into the surface's frame, run forward, and map
    predictions back to physical units with the stored stats."""
    s = state.stats
    pred = forward(state, *normalize_clouds(surface, volume))
    return Prediction(
        drag=pred.drag * s.drag_std + s.drag_mean,
        pressure=pred.pressure * s.pressure_std + s.pressure_mean,
        velocity=pred.velocity * s.velocity_std + s.velocity_mean,
    )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(state: ModelState, path) -> None:
    """Binary checkpoint: magic, a JSON header line of version, config and
    stats, zero padding to 64-byte alignment, params.flat (every parameter
    in _layout order) as little-endian values of the config's dtype, then
    a CRC-32 of all preceding bytes (4 bytes, little-endian)."""
    dtype = np.dtype(state.config.dtype).newbyteorder("<")
    header = {"version": CHECKPOINT_VERSION, "config": asdict(state.config),
              "stats": state.stats.to_dict()}
    head = CHECKPOINT_MAGIC + json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
    data = (head + b"\0" * (-len(head) % _ALIGN)
            + state.params.flat.astype(dtype, copy=False).tobytes())
    Path(path).write_bytes(data + zlib.crc32(data).to_bytes(4, "little"))


def load_checkpoint(path) -> ModelState:
    """Read a save_checkpoint file. Checked in this order, each failure a
    CheckpointError naming the file: magic, header, exact size, CRC, every
    parameter finite, and each layer's |log_tau| below log(dtype max), so
    that tau = exp(log_tau) and 1/tau are finite."""
    data = Path(path).read_bytes()
    if data[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:8]!r}")
    end = data.find(b"\n", 8)
    if end < 0:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[8:end].decode("ascii"))
        version = header.get("version")
        if version == CHECKPOINT_VERSION:
            config = ModelConfig(**header["config"])
            stats = NormalizationStats(**header["stats"])
    except (ValueError, TypeError, KeyError, AttributeError) as e:
        raise CheckpointError(f"{path}: bad header: {e!r}") from e
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    dtype = np.dtype(config.dtype)
    start = end + 1 + (-(end + 1) % _ALIGN)
    # counted on a one-layer layout: a claimed layer count costs nothing
    count = sum(math.prod(slot.shape)
                * (config.layers if name.startswith("layers.") else 1)
                for name, slot in _layout(replace(config, layers=1)).items())
    size = start + count * dtype.itemsize + 4
    if len(data) != size:
        kind = "truncated" if len(data) < size else "trailing bytes"
        raise CheckpointError(f"{path}: {kind}: {len(data)} bytes, not {size}")
    if zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise CheckpointError(f"{path}: CRC mismatch, the file is corrupt")
    params = Params(_layout(config), np.frombuffer(
        data, dtype.newbyteorder("<"), count, start).astype(dtype))
    bad = params.first_nonfinite()
    if bad is not None:
        raise CheckpointError(f"{path}: tensor {bad} is not finite")
    bound = math.log(np.finfo(dtype).max)
    for li in range(config.layers):
        log_tau = float(params[f"layers.{li}.log_tau"])
        if abs(log_tau) >= bound:
            raise CheckpointError(
                f"{path}: layers.{li}.log_tau {log_tau:g}: tau or 1/tau would "
                f"overflow {dtype}, so |log_tau| must be below {bound:.6g}")
    return ModelState(config=config, stats=stats, params=params)
