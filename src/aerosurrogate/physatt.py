"""Physics-attention core: learned slicing, token aggregation, token
self-attention, deslicing, and the full residual layer.

Points are softly assigned to M latent slices, slices are pooled into
tokens, tokens attend to each other, and the result is broadcast back to
the points through the same slice weights. The layer wraps this in the
canonical pre-norm Transformer block.

Each stage exists once, as a graph function on autodiff Tensors that
carries the heads as a leading axis (slice weights are (H, N, M)), so all
heads run in batched matmuls. The ndarray wrappers at the end call the
same stages with one head.
"""

from dataclasses import dataclass, fields
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import SplitMix64

LAYER_NORM_EPS = 1e-5
_TOKEN_DENOM_FLOOR = 1e-30


@dataclass
class LayerParams:
    """Trainable parameters of one physics-attention layer.

    slice_proj has width heads*M; with heads=1 it is the plain CxM slice
    projection. log_tau parameterizes the slicing temperature tau=exp(log_tau)
    to keep it positive while trainable.

    The fields may be ndarrays or autodiff Tensors: the model looks them up
    by name in its parameter dict, which holds Tensors during training.
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
    def channels(self) -> int:
        return self.slice_proj.shape[0]

    @property
    def slices(self) -> int:
        return self.slice_proj.shape[1] // self.heads

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if f.name != "heads"]

    @classmethod
    def lookup(cls, params: dict, prefix: str, heads: int) -> "LayerParams":
        """The layer whose fields are params[prefix + field name]."""
        return cls(heads=heads, **{f.name: params[prefix + f.name]
                                   for f in fields(cls) if f.name != "heads"})


def _uniform_init(rng: SplitMix64, shape: tuple, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    n = int(np.prod(shape)) if shape else 1
    vals = (rng.uniform_array(n) * 2.0 - 1.0) * bound
    return vals.reshape(shape).astype(dtype)


def init_layer_params(channels: int, slices: int, heads: int, ffn_width: int,
                      rng: SplitMix64, dtype=np.float32) -> LayerParams:
    """Seeded init: projections uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    biases zero, layer-norm gain 1 / bias 0, tau = 0.5."""
    if channels % heads != 0:
        raise ValueError(f"channels {channels} not divisible by heads {heads}")
    c = channels
    return LayerParams(
        slice_proj=_uniform_init(rng, (c, heads * slices), c, dtype),
        slice_bias=np.zeros(heads * slices, dtype=dtype),
        log_tau=np.asarray(math.log(0.5), dtype=dtype),
        w_q=_uniform_init(rng, (c, c), c, dtype),
        b_q=np.zeros(c, dtype=dtype),
        w_k=_uniform_init(rng, (c, c), c, dtype),
        b_k=np.zeros(c, dtype=dtype),
        w_v=_uniform_init(rng, (c, c), c, dtype),
        b_v=np.zeros(c, dtype=dtype),
        w_o=_uniform_init(rng, (c, c), c, dtype),
        b_o=np.zeros(c, dtype=dtype),
        ffn_w1=_uniform_init(rng, (c, ffn_width), c, dtype),
        ffn_b1=np.zeros(ffn_width, dtype=dtype),
        ffn_w2=_uniform_init(rng, (ffn_width, c), ffn_width, dtype),
        ffn_b2=np.zeros(c, dtype=dtype),
        ln1_gain=np.ones(c, dtype=dtype),
        ln1_bias=np.zeros(c, dtype=dtype),
        ln2_gain=np.ones(c, dtype=dtype),
        ln2_bias=np.zeros(c, dtype=dtype),
        heads=heads,
    )


# ---------------------------------------------------------------------------
# stages, on Tensors with the heads as the leading axis


def _split_heads(x, heads: int) -> Tensor:
    """(N, C) -> (H, N, C/H): column block i becomes head i."""
    n, c = x.shape
    return ad.transpose(ad.reshape(x, (n, heads, c // heads)), (1, 0, 2))


def _merge_heads(x) -> Tensor:
    """(H, N, C/H) -> (N, C), the inverse of _split_heads."""
    h, n, ch = x.shape
    return ad.reshape(ad.transpose(x, (1, 0, 2)), (n, h * ch))


def slice_weights_t(x, projection, bias, tau, heads: int) -> Tensor:
    """Row-stochastic slice weights (H, N, M): per head, softmax over M of
    (x.P_h + b_h)/tau, where P_h is column block h of the projection."""
    logits = ad.div(ad.add(ad.matmul(x, projection), bias), tau)
    if not np.all(np.isfinite(logits.value)):
        raise FloatingPointError("non-finite slice logits")
    return ad.softmax(_split_heads(logits, heads), axis=-1)


def aggregate_tokens_t(x, w) -> Tensor:
    """Weighted-mean tokens (H, M, C/H) of points x (H, N, C/H):
    z_j = sum_i w_ij x_i / sum_i w_ij."""
    num = ad.matmul(ad.transpose(w, (0, 2, 1)), x)
    denom = ad.maximum_const(ad.sum_(w, axis=1), _TOKEN_DENOM_FLOOR)
    return ad.div(num, ad.reshape(denom, denom.shape + (1,)))


def token_attention_t(z, w_q, b_q, w_k, b_k, w_v, b_v,
                      w_o, b_o) -> Tensor:
    """Self-attention among the tokens z (H, M, C/H) of each head at scale
    sqrt(C/H). The Q/K/V and output projections act on all C channels."""
    h, _, ch = z.shape
    zc = _merge_heads(z)
    q = _split_heads(ad.add(ad.matmul(zc, w_q), b_q), h)
    k = _split_heads(ad.add(ad.matmul(zc, w_k), b_k), h)
    v = _split_heads(ad.add(ad.matmul(zc, w_v), b_v), h)
    logits = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(ch))
    attended = _merge_heads(ad.matmul(ad.softmax(logits, axis=-1), v))
    return _split_heads(ad.add(ad.matmul(attended, w_o), b_o), h)


def deslice_t(z_prime, w) -> Tensor:
    """Broadcast transformed tokens back to points: x'_i = sum_j w_ij z'_j,
    (H, M, C/H) -> (H, N, C/H)."""
    return ad.matmul(w, z_prime)


def physics_attention_t(x: Tensor, p: LayerParams) -> Tensor:
    """Multi-head physics attention on x (N, C):
    deslice(token_attention(aggregate(slice(x)))), all heads at once."""
    w = slice_weights_t(x, p.slice_proj, p.slice_bias, ad.exp(p.log_tau), p.heads)
    z = aggregate_tokens_t(_split_heads(x, p.heads), w)
    z_prime = token_attention_t(z, p.w_q, p.b_q, p.w_k, p.b_k, p.w_v, p.b_v,
                                p.w_o, p.b_o)
    return _merge_heads(deslice_t(z_prime, w))


def attention_block_t(x: Tensor, p: LayerParams) -> Tensor:
    """Pre-norm residual block:
    x_hat = PhysicsAttn(LN(x)) + x; out = FFN(LN(x_hat)) + x_hat."""
    attn_in = ad.layer_norm(x, p.ln1_gain, p.ln1_bias, eps=LAYER_NORM_EPS)
    x_hat = ad.add(physics_attention_t(attn_in, p), x)
    ffn_in = ad.layer_norm(x_hat, p.ln2_gain, p.ln2_bias, eps=LAYER_NORM_EPS)
    hidden = ad.gelu(ad.add(ad.matmul(ffn_in, p.ffn_w1), p.ffn_b1))
    ffn_out = ad.add(ad.matmul(hidden, p.ffn_w2), p.ffn_b2)
    return ad.add(ffn_out, x_hat)


# ---------------------------------------------------------------------------
# ndarray wrappers: the stages above with one head


def slice_weights(x: np.ndarray, projection: np.ndarray, bias: np.ndarray,
                  tau: float) -> np.ndarray:
    return slice_weights_t(x, projection, bias, tau, heads=1).value[0]


def aggregate_tokens(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    if x.shape[0] != w.shape[0]:
        raise ValueError(f"point counts differ: x has {x.shape[0]}, w has {w.shape[0]}")
    return aggregate_tokens_t(x[None], w[None]).value[0]


def token_attention(z: np.ndarray, w_q, b_q, w_k, b_k, w_v, b_v,
                    w_o, b_o) -> np.ndarray:
    return token_attention_t(z[None], w_q, b_q, w_k, b_k, w_v, b_v,
                             w_o, b_o).value[0]


def deslice(z_prime: np.ndarray, w: np.ndarray) -> np.ndarray:
    if z_prime.shape[0] != w.shape[1]:
        raise ValueError("token count mismatch between z' and w")
    return deslice_t(z_prime[None], w[None]).value[0]


def attention_block(x: np.ndarray, p: LayerParams) -> np.ndarray:
    return attention_block_t(Tensor(x), p).value
