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

from . import autodiff as ad
from .autodiff import Tensor
from .physatt import LayerParams, Slot, attention_block_t, layer_layout
from .pointcloud import (NormalizationStats, PointCloud, SampleFormatError,
                         normalize_cloud)
from .rng import SplitMix64

CHECKPOINT_MAGIC = b"PASURF01"
CHECKPOINT_VERSION = 2
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
        self.layout, self.flat = layout, flat
        ends = np.cumsum([math.prod(slot.shape) for slot in layout.values()])
        self._views = {name: part.reshape(slot.shape) for (name, slot), part
                       in zip(layout.items(), np.split(flat, ends[:-1]))}

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

    def layer_params(self, i: int) -> LayerParams:
        return LayerParams.lookup(self.params, f"layers.{i}.", self.config.heads)


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


def _mlp_t(x: Tensor, t: dict, prefix: str) -> Tensor:
    hidden = ad.gelu(ad.add(ad.matmul(x, t[f"{prefix}.w1"]), t[f"{prefix}.b1"]))
    return ad.add(ad.matmul(hidden, t[f"{prefix}.w2"]), t[f"{prefix}.b2"])


def forward_graph(state: ModelState, surface: PointCloud,
                  volume: PointCloud | None,
                  params_t: dict[str, Tensor] | None = None
                  ) -> tuple[Tensor, Tensor, Tensor | None]:
    """The forward pass, for training and inference alike.

    Returns (drag, pressure, velocity) Tensors; velocity is None when no
    volume points are supplied. Inputs are assumed already normalized with
    the model's stats. params_t maps parameter names to Tensors with
    requires_grad set (training), and the outputs then carry the graph
    that backward() differentiates. By default the ndarrays of
    state.params are used: no gradient can flow, so no graph is recorded
    and the outputs are plain value Tensors.
    """
    config = state.config
    t = state.params if params_t is None else params_t

    n_s = surface.n_points
    feats = [_input_features(config, surface)]
    n_v = 0
    if volume is not None and volume.n_points > 0:
        n_v = volume.n_points
        feats.append(_input_features(config, volume))
    x = Tensor(np.concatenate(feats, axis=0))

    x = ad.add(ad.matmul(x, t["embedding.w"]), t["embedding.b"])
    for li in range(config.layers):
        layer = LayerParams.lookup(t, f"layers.{li}.", config.heads)
        x = attention_block_t(x, layer)

    surf_feats = ad.getitem(x, slice(0, n_s))
    pooled = ad.mean(surf_feats, axis=0, keepdims=True)
    drag = ad.reshape(_mlp_t(pooled, t, "head.drag"), ())
    pressure = ad.reshape(_mlp_t(surf_feats, t, "head.pressure"), (n_s,))
    velocity = None
    if n_v:
        vol_feats = ad.getitem(x, slice(n_s, n_s + n_v))
        velocity = _mlp_t(vol_feats, t, "head.velocity")
    return drag, pressure, velocity


def forward(state: ModelState, surface: PointCloud,
            volume: PointCloud | None) -> Prediction:
    """Plain forward pass on normalized clouds; outputs in normalized
    target units, non-finite where they overflow, with numpy's warnings
    silenced: the callers refuse a non-finite output by name."""
    with np.errstate(over="ignore", invalid="ignore"):
        drag, pressure, velocity = forward_graph(state, surface, volume)
    vel = velocity.value if velocity is not None else np.zeros((0, 3))
    return Prediction(drag=float(drag.value),
                      pressure=np.asarray(pressure.value, dtype=np.float64),
                      velocity=np.asarray(vel, dtype=np.float64))


def predict_denormalized(state: ModelState, surface: PointCloud,
                         volume: PointCloud | None) -> Prediction:
    """Normalize raw clouds with the stored stats, run forward, and map
    predictions back to physical units."""
    s = state.stats
    surf = normalize_cloud(surface, s.position_center, s.position_scale)
    vol = None
    if volume is not None and volume.n_points > 0:
        vol = normalize_cloud(volume, s.position_center, s.position_scale)
    pred = forward(state, surf, vol)
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
