"""Physics-attention core: learned slicing, token aggregation, token
self-attention, deslicing, and the full residual layer.

Points are softly assigned to M latent slices, slices are pooled into
tokens, tokens attend to each other, and the result is broadcast back to
the points through the same slice weights. The layer wraps this in the
canonical pre-norm Transformer block.

Each stage exists once, as an ndarray function that carries the heads as
a leading axis (slice weights are (H, M, N)), so all heads run in batched
matmuls. The block's forward is written once (_block), for training and
inference: when a gradient is needed it also returns the hand-derived
backward over that call's activations, and attention_block_t makes the
pair one autodiff node. The ndarray wrappers call the stages with one head.
"""

from dataclasses import dataclass, fields
import math
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accum, _gelu_from_tanh, _gelu_grad, _gelu_tanh
from .rng import SplitMix64

LAYER_NORM_EPS = 1e-5
_TOKEN_DENOM_FLOOR = 1e-30
_ROWS = 1024    # points per chunk of the untracked block's point-local stages


@dataclass
class LayerParams:
    """Trainable parameters of one physics-attention layer.

    slice_proj has width heads*M; with heads=1 it is the plain CxM slice
    projection. log_tau parameterizes the slicing temperature tau=exp(log_tau)
    to keep it positive while trainable.

    The fields may be ndarrays or autodiff Tensors: the model looks them up
    by name in its parameters, and attention_block_t also takes Tensors.
    """

    slice_proj: np.ndarray    # (C, H*M)
    slice_bias: np.ndarray    # (H*M,)
    log_tau: np.ndarray       # scalar ()
    w_q: np.ndarray           # (C, C)
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    ffn_w1: np.ndarray        # (C, H_f)
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray        # (H_f, C)
    ffn_b2: np.ndarray
    ln1_gain: np.ndarray      # (C,)
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    heads: int = 1

    @property
    def slices(self) -> int:
        return self.slice_proj.shape[1] // self.heads

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if f.name != "heads"]

    @classmethod
    def lookup(cls, params, prefix: str, heads: int) -> "LayerParams":
        """The layer whose fields are params[prefix + field name]."""
        return cls(heads=heads, **{f.name: params[prefix + f.name]
                                   for f in fields(cls) if f.name != "heads"})


class Slot(NamedTuple):
    """A parameter's shape and initial value: a draw from
    uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), or, when fan_in is 0, the
    constant fill."""

    shape: tuple
    fan_in: int = 0
    fill: float = 0.0

    def draw(self, rng: SplitMix64, dtype) -> np.ndarray:
        if not self.fan_in:
            return np.full(self.shape, self.fill, dtype=dtype)
        vals = rng.uniform_array(math.prod(self.shape)) * 2.0 - 1.0
        vals *= 1.0 / math.sqrt(self.fan_in)
        return vals.reshape(self.shape).astype(dtype)


def layer_layout(channels: int, slices: int, heads: int,
                 ffn_width: int) -> dict[str, Slot]:
    """The Slot of every LayerParams field, in field order, which is also
    the order init_layer_params draws them in."""
    c, hm = channels, heads * slices
    return {
        "slice_proj": Slot((c, hm), c), "slice_bias": Slot((hm,)),
        "log_tau": Slot((), fill=math.log(0.5)),
        "w_q": Slot((c, c), c), "b_q": Slot((c,)),
        "w_k": Slot((c, c), c), "b_k": Slot((c,)),
        "w_v": Slot((c, c), c), "b_v": Slot((c,)),
        "w_o": Slot((c, c), c), "b_o": Slot((c,)),
        "ffn_w1": Slot((c, ffn_width), c), "ffn_b1": Slot((ffn_width,)),
        "ffn_w2": Slot((ffn_width, c), ffn_width), "ffn_b2": Slot((c,)),
        "ln1_gain": Slot((c,), fill=1.0), "ln1_bias": Slot((c,)),
        "ln2_gain": Slot((c,), fill=1.0), "ln2_bias": Slot((c,)),
    }


def init_layer_params(channels: int, slices: int, heads: int, ffn_width: int,
                      rng: SplitMix64, dtype=np.float32) -> LayerParams:
    """Seeded init: projections uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    biases zero, layer-norm gain 1 / bias 0, tau = 0.5."""
    if channels % heads != 0:
        raise ValueError(f"channels {channels} not divisible by heads {heads}")
    layout = layer_layout(channels, slices, heads, ffn_width)
    return LayerParams(heads=heads, **{name: slot.draw(rng, dtype)
                                       for name, slot in layout.items()})


# ---------------------------------------------------------------------------
# stages, on ndarrays with the heads batched. Slice weights are stored as
# (H, M, N), each head's (N, M) weights transposed, so that the softmax
# over M reduces across whole rows of points.


def _heads(t: np.ndarray, heads: int) -> np.ndarray:
    """(K, C) -> (H, K, C/H) view: column block h becomes head h."""
    return t.reshape(t.shape[0], heads, -1).transpose(1, 0, 2)


def _merge(t: np.ndarray) -> np.ndarray:
    """(H, K, C/H) -> (K, C), the inverse of _heads."""
    return t.transpose(1, 0, 2).reshape(t.shape[1], -1)


def _softmax(s: np.ndarray, axis: int) -> np.ndarray:
    """Softmax over axis, in place."""
    s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_grad(d: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """The gradient at the logits of s = softmax(logits, axis) from d at s,
    in place of d."""
    d -= (d * s).sum(axis=axis, keepdims=True)
    d *= s
    return d


def _layer_norm(x: np.ndarray, gain, bias, keep: bool):
    """(gain*normed + bias, normed, std) of the rows of x; unless keep,
    the output overwrites normed. The row sums are a matrix-vector product
    and an einsum: one pass each, with no temporary."""
    avg = np.full(x.shape[-1], 1.0 / x.shape[-1], x.dtype)
    normed = x - (x @ avg)[:, None]
    std = np.sqrt(np.einsum("ij,ij->i", normed, normed)[:, None] * avg[0]
                  + LAYER_NORM_EPS)
    normed /= std
    out = np.multiply(normed, gain, out=None if keep else normed)
    out += bias
    return out, normed, std


def _layer_norm_grad(d: np.ndarray, normed, std, gain):
    """(d input, d gain, d bias) of _layer_norm, given d at its output."""
    avg = np.full(d.shape[-1], 1.0 / d.shape[-1], d.dtype)
    d_normed = d * gain
    d_x = normed * (np.einsum("ij,ij->i", d_normed, normed) * avg[0])[:, None]
    d_x += (d_normed @ avg)[:, None]
    np.subtract(d_normed, d_x, out=d_x)
    d_x /= std
    return d_x, np.einsum("ij,ij->j", d, normed), d.sum(axis=0)


def _linear_grad(x: np.ndarray, d: np.ndarray, w: np.ndarray):
    """(d w, d b, d x) of x @ w + b, given d at its output."""
    return x.T @ d, d.sum(axis=0), d @ w.T


def _slice_weights(x: np.ndarray, projection, bias, tau: float,
                   heads: int) -> np.ndarray:
    """Slice weights (H, M, N), stochastic over M: per head, softmax over
    M of (x.P_h + b_h)/tau, where P_h is column block h of the projection."""
    logits = projection.T @ x.T
    logits += bias[:, None]
    logits /= tau
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite slice logits")
    return _softmax(logits.reshape(heads, -1, x.shape[0]), axis=1)


def _aggregate(x: np.ndarray, w: np.ndarray):
    """Weighted-mean tokens (M, C) of points x (N, C) under w (H, M, N):
    per head z_j = sum_i w_ij x_i / sum_i w_ij. Also returns the
    denominators (H, M), floored."""
    denom = np.maximum(w.sum(axis=2), _TOKEN_DENOM_FLOOR)
    num = w @ _heads(x, w.shape[0])
    return _merge(num / denom[..., None]), denom


def _attend(z: np.ndarray, heads: int, w_q, b_q, w_k, b_k, w_v, b_v,
            w_o, b_o):
    """Self-attention among the tokens z (M, C) of each head at scale
    sqrt(C/H). The Q/K/V and output projections act on all C channels.
    Returns the output (M, C) and (q, k, v, attention, mixed values)."""
    q, k, v = (_heads(z @ w + b, heads)
               for w, b in ((w_q, b_q), (w_k, b_k), (w_v, b_v)))
    attn = _softmax(q @ k.transpose(0, 2, 1) * (1.0 / math.sqrt(q.shape[2])),
                    axis=-1)
    mixed = _merge(attn @ v)
    return mixed @ w_o + b_o, (q, k, v, attn, mixed)


def _deslice(w: np.ndarray, z_prime: np.ndarray) -> np.ndarray:
    """Tokens (M, C) back to the points through w (H, M, N): per head
    x'_i = sum_j w_ij z'_j. Returns (N, C)."""
    out = np.empty((w.shape[2], z_prime.shape[1]), np.result_type(w, z_prime))
    np.matmul(w.transpose(0, 2, 1), _heads(z_prime, w.shape[0]),
              out=_heads(out, w.shape[0]))
    return out


def _block(x: np.ndarray, p: LayerParams, keep: bool):
    """The pre-norm residual block on ndarrays:
    x_hat = PhysicsAttn(LN(x)) + x; out = FFN(LN(x_hat)) + x_hat.
    Returns (out, backward). The stages after the token attention act on
    single points. With keep they run once, over all N, and backward, the
    hand-derived gradient from this call's activations, maps d at out to
    [d x] + the d of each field of p in field order. Without keep,
    backward is None, the layer-norm output is freed first and those
    stages run over chunks of _ROWS rows, the last taking the remainder:
    no chunk GEMM is shorter than _ROWS rows (BLAS may round a shorter one
    differently), so out is bit-equal either way."""
    n, h = x.shape[0], p.heads
    a, normed1, std1 = _layer_norm(x, p.ln1_gain, p.ln1_bias, keep)
    tau = math.exp(p.log_tau)
    w = _slice_weights(a, p.slice_proj, p.slice_bias, tau, h)
    z, denom = _aggregate(a, w)
    z_prime, (q, k, v, attn, mixed) = _attend(
        z, h, p.w_q, p.b_q, p.w_k, p.b_k, p.w_v, p.b_v, p.w_o, p.b_o)
    if not keep:
        del a, normed1
    out = np.empty(x.shape, x.dtype)
    bounds = [0, n] if keep else [0, *range(_ROWS, n - _ROWS + 1, _ROWS), n]
    for rows in map(slice, bounds, bounds[1:]):
        x_hat = _deslice(w[..., rows], z_prime)
        x_hat += x[rows]
        f, normed2, std2 = _layer_norm(x_hat, p.ln2_gain, p.ln2_bias, keep)
        pre = f @ p.ffn_w1
        pre += p.ffn_b1
        th = _gelu_tanh(pre)
        hidden = _gelu_from_tanh(pre, th, out=None if keep else th)
        np.matmul(hidden, p.ffn_w2, out=out[rows])
        out[rows] += p.ffn_b2
        out[rows] += x_hat
    if not keep:
        return out, None

    def backward(g):
        d = {}
        d["ffn_w2"], d["ffn_b2"], d_hidden = _linear_grad(hidden, g, p.ffn_w2)
        d["ffn_w1"], d["ffn_b1"], d_f = _linear_grad(
            f, _gelu_grad(d_hidden, pre, th), p.ffn_w1)
        d_x_hat, d["ln2_gain"], d["ln2_bias"] = _layer_norm_grad(
            d_f, normed2, std2, p.ln2_gain)
        d_x_hat += g
        d_y = _heads(d_x_hat, h)
        d_w = _heads(z_prime, h) @ d_y.transpose(0, 2, 1)
        d["w_o"], d["b_o"], d_mixed = _linear_grad(mixed, _merge(w @ d_y),
                                                   p.w_o)
        d_mixed = _heads(d_mixed, h)
        d_s = _softmax_grad(d_mixed @ v.transpose(0, 2, 1), attn, axis=-1)
        d_s *= 1.0 / math.sqrt(q.shape[2])
        d_z = 0.0
        for name, d_t in (("q", d_s @ k), ("k", d_s.transpose(0, 2, 1) @ q),
                          ("v", attn.transpose(0, 2, 1) @ d_mixed)):
            d["w_" + name], d["b_" + name], d_z_t = _linear_grad(
                z, _merge(d_t), getattr(p, "w_" + name))
            d_z = d_z + d_z_t
        # token aggregation: through the numerators, and the denominators
        # where they are above the floor
        d_num = _heads(d_z, h) / denom[..., None]
        d_w += d_num @ _heads(a, h).transpose(0, 2, 1)
        d_w -= ((d_num * _heads(z, h)).sum(axis=-1)
                * (denom > _TOKEN_DENOM_FLOOR))[..., None]
        d_a = np.empty_like(a)
        np.matmul(w.transpose(0, 2, 1), d_num, out=_heads(d_a, h))
        # logits = (a.P + b)/tau, so d log_tau = -sum(d_lin * (a.P + b)),
        # which is -(P.dP + b.db)
        d_lin = _softmax_grad(d_w, w, axis=1).reshape(-1, a.shape[0]).T
        d_lin /= tau
        d["slice_proj"], d["slice_bias"], d_a_slice = _linear_grad(
            a, d_lin, p.slice_proj)
        d["log_tau"] = -np.asarray(np.vdot(p.slice_proj, d["slice_proj"])
                                   + np.vdot(p.slice_bias, d["slice_bias"]))
        d_x, d["ln1_gain"], d["ln1_bias"] = _layer_norm_grad(
            d_a + d_a_slice, normed1, std1, p.ln1_gain)
        d_x += d_x_hat
        return [d_x] + [d[name] for name, _ in p.named_arrays()]

    return out, backward


def attention_block_t(x: Tensor, p: LayerParams) -> Tensor:
    """_block as one autodiff node, with x and the fields of p as its
    parents, computed in the dtype of x, to which the fields of p are
    cast. Only when x or a field of p requires a gradient does it keep
    the activations and record a backward."""
    parents = (ad.as_tensor(x),) + tuple(ad.as_tensor(v)
                                         for _, v in p.named_arrays())
    x = parents[0].value
    p = LayerParams(heads=p.heads, **{
        name: np.asarray(t.value, dtype=x.dtype)
        for (name, _), t in zip(p.named_arrays(), parents[1:])})
    out, block_backward = _block(x, p, any(t.requires_grad for t in parents))

    def backward(g):
        for t, d_t in zip(parents, block_backward(g)):
            _accum(t, d_t)

    return Tensor(out, parents=parents, backward=backward)


# ---------------------------------------------------------------------------
# ndarray wrappers: the stages above with one head


def slice_weights(x: np.ndarray, projection: np.ndarray, bias: np.ndarray,
                  tau: float) -> np.ndarray:
    return _slice_weights(x, projection, bias, tau, heads=1)[0].T


def aggregate_tokens(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    if x.shape[0] != w.shape[0]:
        raise ValueError(f"point counts differ: x has {x.shape[0]}, w has {w.shape[0]}")
    return _aggregate(x, w.T[None])[0]


def token_attention(z: np.ndarray, w_q, b_q, w_k, b_k, w_v, b_v,
                    w_o, b_o) -> np.ndarray:
    return _attend(z, 1, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o)[0]


def deslice(z_prime: np.ndarray, w: np.ndarray) -> np.ndarray:
    if z_prime.shape[0] != w.shape[1]:
        raise ValueError("token count mismatch between z' and w")
    return _deslice(w.T[None], z_prime)


def attention_block(x: np.ndarray, p: LayerParams) -> np.ndarray:
    return attention_block_t(Tensor(x), p).value
