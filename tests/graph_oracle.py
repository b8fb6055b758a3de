"""The surrogate and its loss composed of autodiff primitives: the gradient
oracle for the hand-derived backward of model.forward_graph and
training.loss_and_grads, which must match it bit for bit.

Each parameter is a leaf Tensor and every operation a graph node; each
block is one attention_block_t node. Without Tensors for the parameters
no graph is recorded and the outputs are plain value Tensors.
"""

import numpy as np

from aerosurrogate import autodiff as ad
from aerosurrogate.autodiff import Tensor
from aerosurrogate.metrics import _target_norm
from aerosurrogate.model import _input_features
from aerosurrogate.physatt import LayerParams, attention_block_t


def _mlp_t(x: Tensor, t: dict, prefix: str) -> Tensor:
    hidden = ad.gelu(ad.add(ad.matmul(x, t[f"{prefix}.w1"]), t[f"{prefix}.b1"]))
    return ad.add(ad.matmul(hidden, t[f"{prefix}.w2"]), t[f"{prefix}.b2"])


def forward_graph_t(state, surface, volume, params_t: dict | None = None):
    """(drag, pressure, velocity) Tensors, velocity None without volume.
    params_t maps parameter names to Tensors; by default the ndarrays of
    state.params are used and no graph is recorded."""
    config = state.config
    t = state.params if params_t is None else params_t

    n_s = surface.n_points
    feats = [_input_features(config, surface)]
    if volume is not None:
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
    velocity = None if volume is None else _mlp_t(
        ad.getitem(x, slice(n_s, None)), t, "head.velocity")
    return drag, pressure, velocity


def _relative_l2_t(y_hat: Tensor, y: np.ndarray, name: str) -> Tensor:
    denom = _target_norm(y, name)
    y = Tensor(np.asarray(y, dtype=y_hat.value.dtype))
    return ad.mul(ad.frobenius_norm(ad.sub(y_hat, y)), 1.0 / denom)


def composite_loss_t(drag: Tensor, pressure: Tensor, velocity: Tensor,
                     record, weights) -> tuple[Tensor, dict]:
    """The composite loss Tensor of predictions against one (normalized)
    sample, and its components as floats."""
    sample = f"sample {record.id!r}:"
    loss_p = _relative_l2_t(pressure, record.pressure, f"{sample} pressure target")
    loss_v = _relative_l2_t(velocity, record.velocity, f"{sample} velocity target")
    d = ad.sub(drag, float(record.drag))
    loss_cd = ad.mul(d, d)
    total = ad.add(ad.add(ad.mul(loss_v, weights.velocity),
                          ad.mul(loss_p, weights.pressure)),
                   ad.mul(loss_cd, weights.drag))
    components = {"loss_v": float(loss_v.value), "loss_p": float(loss_p.value),
                  "loss_cd": float(loss_cd.value)}
    return total, components


def loss_graph(state, record, weights, params_t: dict | None = None
               ) -> tuple[Tensor, dict]:
    return composite_loss_t(*forward_graph_t(state, record.surface,
                                             record.volume, params_t),
                            record, weights)


def leaves(state) -> dict[str, Tensor]:
    """A leaf Tensor requiring a gradient for every parameter."""
    return {name: Tensor(a, requires_grad=True)
            for name, a in state.params.items()}


def flat_grads(state, params_t: dict[str, Tensor]) -> np.ndarray:
    """The leaves' gradients, each owned by its leaf, concatenated in the
    layout's order; zero where the loss does not reach."""
    return np.concatenate(
        [(t.grad if t.grad is not None else np.zeros_like(t.value))
         .reshape(-1) for t in params_t.values()],
        dtype=state.params.flat.dtype)


def loss_and_grads_t(state, record, weights) -> tuple[float, np.ndarray]:
    """The loss value and flat_grads after one backward of loss_graph."""
    params_t = leaves(state)
    loss, _ = loss_graph(state, record, weights, params_t)
    loss.backward()
    return float(loss.value), flat_grads(state, params_t)
