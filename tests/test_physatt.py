"""Oracle and property tests for the physics-attention core.

The brute-force oracles below are written as plain double loops, entirely
independent of the vectorized implementation they check.
"""

import math
import tracemalloc

import numpy as np
import pytest

from aerosurrogate import autodiff as ad
from aerosurrogate.autodiff import Tensor
from aerosurrogate.physatt import (
    LayerParams, init_layer_params, slice_weights, aggregate_tokens,
    token_attention, deslice, attention_block, attention_block_t,
    LAYER_NORM_EPS)
from aerosurrogate.rng import SplitMix64


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_softmax_rows(logits):
    out = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        mx = max(logits[i])
        exps = [math.exp(v - mx) for v in logits[i]]
        s = sum(exps)
        for j in range(logits.shape[1]):
            out[i, j] = exps[j] / s
    return out


def oracle_slice(x, proj, bias, tau):
    n, _ = x.shape
    m = proj.shape[1]
    logits = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = bias[j]
            for c in range(x.shape[1]):
                acc += x[i, c] * proj[c, j]
            logits[i, j] = acc / tau
    return oracle_softmax_rows(logits)


def oracle_aggregate(x, w):
    n, c = x.shape
    m = w.shape[1]
    z = np.zeros((m, c))
    for j in range(m):
        denom = 0.0
        for i in range(n):
            denom += w[i, j]
        denom = max(denom, 1e-30)
        for k in range(c):
            num = 0.0
            for i in range(n):
                num += w[i, j] * x[i, k]
            z[j, k] = num / denom
    return z


def oracle_attention(z, wq, bq, wk, bk, wv, bv, wo, bo):
    m, c = z.shape
    q = z @ wq + bq
    k = z @ wk + bk
    v = z @ wv + bv
    logits = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            logits[i, j] = sum(q[i, d] * k[j, d] for d in range(c)) / math.sqrt(c)
    attn = oracle_softmax_rows(logits)
    out = np.zeros((m, c))
    for i in range(m):
        for d in range(c):
            out[i, d] = sum(attn[i, j] * v[j, d] for j in range(m))
    return out @ wo + bo


def oracle_deslice(z_prime, w):
    n = w.shape[0]
    c = z_prime.shape[1]
    x = np.zeros((n, c))
    for i in range(n):
        for k in range(c):
            x[i, k] = sum(w[i, j] * z_prime[j, k] for j in range(z_prime.shape[0]))
    return x


def oracle_layer_norm(x, gain, bias, eps=LAYER_NORM_EPS):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = (x[i] - mu) / math.sqrt(var + eps) * gain + bias
    return out


def oracle_gelu(x):
    c0 = 0.7978845608028654
    return 0.5 * x * (1.0 + np.tanh(c0 * (x + 0.044715 * x ** 3)))


def oracle_layer(x, p: LayerParams):
    """Full single-head attention block by composition of the oracles."""
    tau = math.exp(float(p.log_tau))
    h1 = oracle_layer_norm(x, p.ln1_gain, p.ln1_bias)
    w = oracle_slice(h1, p.slice_proj, p.slice_bias, tau)
    z = oracle_aggregate(h1, w)
    z_p = oracle_attention(z, p.w_q, p.b_q, p.w_k, p.b_k, p.w_v, p.b_v,
                           p.w_o, p.b_o)
    x_hat = oracle_deslice(z_p, w) + x
    h2 = oracle_layer_norm(x_hat, p.ln2_gain, p.ln2_bias)
    ffn = oracle_gelu(h2 @ p.ffn_w1 + p.ffn_b1) @ p.ffn_w2 + p.ffn_b2
    return ffn + x_hat


def oracle_multihead_layer(x, p: LayerParams):
    """Full multi-head attention block from the oracles above.

    Head i slices with column block i of slice_proj, pools and deslices
    channel block i, and attends with block i of the shared Q/K/V
    projections at scale sqrt(C/H); the heads' outputs are concatenated
    before w_o. The projected blocks enter oracle_attention as biases on
    zero tokens of width C/H, so its loops run per head at that width.
    """
    h, m = p.heads, p.slices
    c = x.shape[1]
    ch = c // h
    tau = math.exp(float(p.log_tau))
    h1 = oracle_layer_norm(x, p.ln1_gain, p.ln1_bias)
    weights, tokens = [], []
    for i in range(h):
        cols = slice(i * m, (i + 1) * m)
        w = oracle_slice(h1, p.slice_proj[:, cols], p.slice_bias[cols], tau)
        weights.append(w)
        tokens.append(oracle_aggregate(h1[:, i * ch:(i + 1) * ch], w))
    z = np.hstack(tokens)
    q, k, v = z @ p.w_q + p.b_q, z @ p.w_k + p.b_k, z @ p.w_v + p.b_v
    zero_z, zero_w = np.zeros((m, ch)), np.zeros((ch, ch))
    attended = []
    for i in range(h):
        cols = slice(i * ch, (i + 1) * ch)
        attended.append(oracle_attention(
            zero_z, zero_w, q[:, cols], zero_w, k[:, cols], zero_w, v[:, cols],
            np.eye(ch), np.zeros(ch)))
    z_p = np.hstack(attended) @ p.w_o + p.b_o
    x_hat = np.hstack([oracle_deslice(z_p[:, i * ch:(i + 1) * ch], weights[i])
                       for i in range(h)]) + x
    h2 = oracle_layer_norm(x_hat, p.ln2_gain, p.ln2_bias)
    ffn = oracle_gelu(h2 @ p.ffn_w1 + p.ffn_b1) @ p.ffn_w2 + p.ffn_b2
    return ffn + x_hat


def _split_heads(t, heads):
    n, c = t.shape
    return ad.transpose(ad.reshape(t, (n, heads, c // heads)), (1, 0, 2))


def _merge_heads(t):
    h, n, ch = t.shape
    return ad.reshape(ad.transpose(t, (1, 0, 2)), (n, h * ch))


def _gelu_graph(a):
    inner = ad.mul(ad.add(a, ad.mul(ad.mul(ad.mul(a, a), a), 0.044715)),
                   0.7978845608028654)
    return ad.mul(ad.mul(a, ad.add(ad.tanh(inner), 1.0)), 0.5)


def oracle_block_graph(x, p: LayerParams):
    """The block as a graph of autodiff primitives, one node per operation
    (layer_norm, softmax and _gelu_graph are compositions of them), so its
    gradients come from the engine's per-op backward rules rather than
    from the hand-derived backward of attention_block_t."""
    h = p.heads
    attn_in = ad.layer_norm(x, p.ln1_gain, p.ln1_bias, eps=LAYER_NORM_EPS)
    logits = ad.div(ad.add(ad.matmul(attn_in, p.slice_proj), p.slice_bias),
                    ad.exp(p.log_tau))
    w = ad.softmax(_split_heads(logits, h), axis=-1)
    num = ad.matmul(ad.transpose(w, (0, 2, 1)), _split_heads(attn_in, h))
    denom = ad.maximum_const(ad.sum_(w, axis=1), 1e-30)
    z = _merge_heads(ad.div(num, ad.reshape(denom, denom.shape + (1,))))
    q = _split_heads(ad.add(ad.matmul(z, p.w_q), p.b_q), h)
    k = _split_heads(ad.add(ad.matmul(z, p.w_k), p.b_k), h)
    v = _split_heads(ad.add(ad.matmul(z, p.w_v), p.b_v), h)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))),
                    1.0 / math.sqrt(x.shape[1] // h))
    mixed = _merge_heads(ad.matmul(ad.softmax(scores, axis=-1), v))
    z_prime = _split_heads(ad.add(ad.matmul(mixed, p.w_o), p.b_o), h)
    x_hat = ad.add(_merge_heads(ad.matmul(w, z_prime)), x)
    ffn_in = ad.layer_norm(x_hat, p.ln2_gain, p.ln2_bias, eps=LAYER_NORM_EPS)
    hidden = _gelu_graph(ad.add(ad.matmul(ffn_in, p.ffn_w1), p.ffn_b1))
    return ad.add(ad.add(ad.matmul(hidden, p.ffn_w2), p.ffn_b2), x_hat)


def random_params(c, m, heads=1, ffn=None, seed=0):
    return init_layer_params(c, m, heads, ffn or 2 * c, SplitMix64(seed),
                             dtype=np.float64)


def rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# ---------------------------------------------------------------------------


class TestSlice:
    def test_zero_projection_uniform(self):
        x = rand(5, 3)
        w = slice_weights(x, np.zeros((3, 4)), np.zeros(4), tau=1.0)
        np.testing.assert_allclose(w, 0.25, atol=1e-15)

    def test_single_slice(self):
        w = slice_weights(rand(4, 3), rand(3, 1), np.zeros(1), tau=0.5)
        np.testing.assert_array_equal(w, 1.0)

    def test_hand_softmax(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        proj = np.eye(2)
        w = slice_weights(x, proj, np.zeros(2), tau=1.0)
        hi, lo = 0.73105857863000490, 0.26894142136999512
        np.testing.assert_allclose(w, [[hi, lo], [lo, hi]], atol=1e-11)

    def test_matches_oracle(self):
        x, proj, bias = rand(6, 4), rand(4, 3, seed=1), rand(3, seed=2)
        w = slice_weights(x, proj, bias, tau=0.7)
        np.testing.assert_allclose(w, oracle_slice(x, proj, bias, 0.7), atol=1e-12)

    def test_rows_sum_to_one(self):
        w = slice_weights(rand(8, 5), rand(5, 6, seed=1), rand(6, seed=2), tau=0.3)
        assert np.all(w > 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_nonfinite_logits_rejected(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                slice_weights(np.array([[1e308, 1e308]]), np.full((2, 2), 1e308),
                              np.zeros(2), tau=1.0)


class TestAggregate:
    def test_single_token_is_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = aggregate_tokens(x, np.ones((2, 1)))
        np.testing.assert_allclose(z, [[2.0, 3.0]])

    def test_constant_features(self):
        x = np.tile([[1.5, -2.0, 0.25]], (6, 1))
        w = slice_weights(rand(6, 3), rand(3, 4, seed=1), np.zeros(4), 1.0)
        z = aggregate_tokens(x, w)
        np.testing.assert_allclose(z, np.tile([[1.5, -2.0, 0.25]], (4, 1)),
                                   atol=1e-12)

    def test_matches_oracle(self):
        x = rand(7, 3)
        w = np.abs(rand(7, 2, seed=1)) + 0.01
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(aggregate_tokens(x, w), oracle_aggregate(x, w),
                                   atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_tokens(rand(4, 3), np.ones((5, 2)))


class TestAttention:
    def test_single_token(self):
        z = rand(1, 3)
        wv, bv = rand(3, 3, seed=1), rand(3, seed=2)
        wo, bo = rand(3, 3, seed=3), rand(3, seed=4)
        out = token_attention(z, np.zeros((3, 3)), np.zeros(3),
                              np.zeros((3, 3)), np.zeros(3), wv, bv, wo, bo)
        np.testing.assert_allclose(out, (z @ wv + bv) @ wo + bo, atol=1e-12)

    def test_zero_query_uniform(self):
        z = rand(4, 2)
        wv, bv = rand(2, 2, seed=1), rand(2, seed=2)
        wo, bo = np.eye(2), np.zeros(2)
        out = token_attention(z, np.zeros((2, 2)), np.zeros(2),
                              rand(2, 2, seed=3), rand(2, seed=4), wv, bv, wo, bo)
        expected = np.tile((z @ wv + bv).mean(axis=0), (4, 1))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_oracle(self):
        z = rand(2, 2)
        args = [rand(2, 2, seed=s) for s in (1, 3, 5, 7)]
        biases = [rand(2, seed=s) for s in (2, 4, 6, 8)]
        got = token_attention(z, args[0], biases[0], args[1], biases[1],
                              args[2], biases[2], args[3], biases[3])
        want = oracle_attention(z, args[0], biases[0], args[1], biases[1],
                                args[2], biases[2], args[3], biases[3])
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestDeslice:
    def test_constant_tokens(self):
        w = np.abs(rand(5, 3)) + 0.1
        w /= w.sum(axis=1, keepdims=True)
        z = np.tile([[2.0, -1.0]], (3, 1))
        np.testing.assert_allclose(deslice(z, w), np.tile([[2.0, -1.0]], (5, 1)),
                                   atol=1e-12)

    def test_single_token_broadcast(self):
        z = rand(1, 4)
        out = deslice(z, np.ones((6, 1)))
        np.testing.assert_allclose(out, np.tile(z, (6, 1)))

    def test_matches_oracle(self):
        z = rand(3, 4)
        w = np.abs(rand(6, 3, seed=1))
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(deslice(z, w), oracle_deslice(z, w), atol=1e-12)


class TestLayer:
    def test_zero_params_identity(self):
        p = random_params(4, 3)
        for name, arr in p.named_arrays():
            if "gain" not in name:
                arr[...] = 0.0
        x = rand(5, 4)
        np.testing.assert_allclose(attention_block(x, p), x, atol=1e-12)

    def test_permutation_equivariance(self):
        p = random_params(6, 3, seed=4)
        x = rand(8, 6)
        perm = np.random.default_rng(1).permutation(8)
        out = attention_block(x, p)
        out_perm = attention_block(x[perm], p)
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_matches_composed_oracle(self):
        p = random_params(4, 3, seed=7)
        x = rand(6, 4, seed=9)
        np.testing.assert_allclose(attention_block(x, p), oracle_layer(x, p),
                                   atol=1e-10)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_multihead_oracle(self, heads):
        p = random_params(8, 3, heads=heads, seed=6)
        for i, (name, arr) in enumerate(p.named_arrays()):
            if arr.ndim == 1:    # biases and gains start at 0 or 1
                arr[...] = rand(arr.size, seed=20 + i)
        x = rand(7, 8, seed=13)
        np.testing.assert_allclose(attention_block(x, p),
                                   oracle_multihead_layer(x, p), atol=1e-10)

    def test_multihead_permutation_equivariance(self):
        p = random_params(8, 3, heads=2, seed=5)
        x = rand(10, 8)
        perm = np.random.default_rng(2).permutation(10)
        out = attention_block(x, p)
        np.testing.assert_allclose(attention_block(x[perm], p), out[perm],
                                   atol=1e-10)

    def test_token_count_independent_of_n(self):
        p = random_params(4, 3, seed=1)
        for n in (5, 11):
            x = Tensor(rand(n, 4, seed=n))
            w_all = slice_weights(x.value, p.slice_proj, p.slice_bias,
                                  math.exp(float(p.log_tau)))
            z = aggregate_tokens(x.value, w_all)
            assert z.shape == (3, 4)

    def test_gradient_vs_finite_differences(self):
        # analytic gradients of the full layer w.r.t. params and input
        p = random_params(4, 2, seed=3)
        x0 = rand(5, 4, seed=11)

        def loss_given(arrs, x):
            q = random_params(4, 2, seed=3)
            for (name, _), a in zip(q.named_arrays(), arrs):
                setattr(q, name, a)
            return float((attention_block_t(Tensor(x), q).value ** 2).sum())

        arrs = [arr.copy() for _, arr in p.named_arrays()]
        xt = Tensor(x0.copy(), requires_grad=True)
        params_t = {name: Tensor(a, requires_grad=True)
                    for (name, _), a in zip(p.named_arrays(), arrs)}
        out = attention_block_t(xt, LayerParams(**params_t, heads=p.heads))
        from aerosurrogate import autodiff as ad
        loss = ad.mul(out, out)
        ad.sum_(loss).backward()

        h = 1e-5
        for (name, _), a in zip(p.named_arrays(), arrs):
            t = params_t[name]
            analytic = t.grad if t.grad is not None else np.zeros_like(a)
            flat = a.reshape(-1)
            for i in range(min(flat.size, 6)):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_given(arrs, x0)
                flat[i] = orig - h
                down = loss_given(arrs, x0)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(analytic.reshape(-1)[i]), 1e-6)
                assert abs(analytic.reshape(-1)[i] - fd) / denom < 1e-5, name
        # input gradient
        flat = x0.reshape(-1)
        for i in range(0, flat.size, 5):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_given(arrs, x0)
            flat[i] = orig - h
            down = loss_given(arrs, x0)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(xt.grad.reshape(-1)[i]), 1e-6)
            assert abs(xt.grad.reshape(-1)[i] - fd) / denom < 1e-5


class TestFusedBlock:
    """attention_block_t is one autodiff node with a hand-derived backward;
    the per-op graph of oracle_block_graph is its gradient oracle."""

    @staticmethod
    def gradients(block, x0, p, r):
        x = Tensor(x0.copy(), requires_grad=True)
        params = {name: Tensor(a.copy(), requires_grad=True)
                  for name, a in p.named_arrays()}
        out = block(x, LayerParams(heads=p.heads, **params))
        ad.sum_(ad.mul(out, r)).backward()
        return out.value, {"x": x.grad, **{n: t.grad for n, t in params.items()}}

    @staticmethod
    def params(heads, seed):
        p = random_params(8, 3, heads=heads, ffn=12, seed=seed)
        for i, (name, arr) in enumerate(p.named_arrays()):
            if arr.ndim == 1:    # biases and gains start at 0 or 1
                arr[...] = rand(arr.size, seed=40 + i)
        return p

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_every_gradient_matches_oracle_graph(self, heads):
        p = self.params(heads, seed=heads)
        x0, r = rand(9, 8, seed=1), rand(9, 8, seed=2)
        out, grads = self.gradients(attention_block_t, x0, p, r)
        want_out, want = self.gradients(oracle_block_graph, x0, p, r)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-13)
        assert set(grads) == set(want) and len(grads) == 20
        for name, g in grads.items():
            assert g.shape == want[name].shape, name
            # q.b_k is the same for every key of a query, and softmax ignores
            # a shift shared by a row, so d b_k is zero: both read rounding
            scale = np.abs(want["w_k" if name == "b_k" else name]).max()
            assert np.abs(g - want[name]).max() <= 1e-10 * scale, name

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_float32_block_matches_float64_oracle_graph(self, heads):
        # the block computes in its input's dtype; its inputs are the f64
        # oracle's rounded to f32. Stated tolerances, from f32's epsilon:
        # 16 eps of the largest output (measured 1 eps) and 256 eps of the
        # largest gradient of each tensor (measured at most 37 eps)
        eps = np.finfo(np.float32).eps
        p = self.params(heads, seed=heads)
        x0, r = rand(9, 8, seed=1), rand(9, 8, seed=2)
        want_out, want = self.gradients(oracle_block_graph, x0, p, r)
        p32 = LayerParams(heads=heads, **{name: a.astype(np.float32)
                                          for name, a in p.named_arrays()})
        out, grads = self.gradients(attention_block_t, x0.astype(np.float32),
                                    p32, r.astype(np.float32))
        assert out.dtype == np.float32
        assert np.abs(out - want_out).max() <= 16 * eps * np.abs(want_out).max()
        assert set(grads) == set(want)
        for name, g in grads.items():
            assert g.dtype == np.float32, name
            scale = np.abs(want["w_k" if name == "b_k" else name]).max()
            assert np.abs(g - want[name]).max() <= 256 * eps * scale, name

    def test_training_forward_equals_inference_forward(self):
        p = self.params(heads=2, seed=3)
        x0 = rand(11, 8, seed=4)
        out, _ = self.gradients(attention_block_t, x0, p, np.ones((11, 8)))
        np.testing.assert_array_equal(attention_block(x0, p), out)

    def test_untracked_call_keeps_no_graph_and_bounded_peak(self):
        n, c, ffn = 8192, 64, 128
        p = random_params(c, 16, heads=4, ffn=ffn, seed=8)
        x = Tensor(rand(n, c, seed=9))
        tracemalloc.start()
        try:
            out = attention_block_t(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        # live at once in the GELU: x_hat (N, C) and the pre-activation and
        # its tanh (N, ffn), 2.5 N ffn 8 bytes here; the per-op graph
        # peaked at 5.5 N ffn 8 bytes
        assert peak < 3.0 * n * ffn * 8


class TestRowChunks:
    """Untracked, attention_block_t runs the stages after the token
    attention in row chunks of 1024 points; tracked, it runs them over all
    N at once. The two give the same bytes."""

    @staticmethod
    def params(heads, dtype):
        p = random_params(64, 16, heads=heads, ffn=128, seed=heads)
        for i, (name, arr) in enumerate(p.named_arrays()):
            if arr.ndim == 1:    # biases and gains start at 0 or 1
                arr[...] = rand(arr.size, seed=60 + i)
        return LayerParams(heads=heads, **{name: a.astype(dtype)
                                           for name, a in p.named_arrays()})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3 * 1024 + 37])
    def test_untracked_equals_tracked_bit_for_bit(self, n, heads, dtype):
        p = self.params(heads, dtype)
        x = rand(n, 64, seed=n).astype(dtype)
        tracked = attention_block_t(Tensor(x, requires_grad=True), p)
        assert tracked._backward is not None
        out = attention_block(x, p)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, tracked.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_a_later_chunk_raises(self, bad):
        p = self.params(2, np.float64)
        x = rand(3000, 64, seed=5)
        x[2500, 7] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite slice logits"):
            attention_block(x, p)

    def test_untracked_peak_below_three_activations(self):
        # live at the peak: the layer-norm output a and the slice weights w
        # during the aggregation, or w and out with one chunk's temporaries;
        # the unchunked forward peaked at 5.0 N C 8 bytes
        n, c = 32768, 64
        p = self.params(4, np.float64)
        x = Tensor(rand(n, c, seed=9))
        tracemalloc.start()
        try:
            attention_block_t(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * c * 8


class TestInit:
    def test_deterministic(self):
        p1 = random_params(8, 4, heads=2, seed=9)
        p2 = random_params(8, 4, heads=2, seed=9)
        for (n1, a1), (n2, a2) in zip(p1.named_arrays(), p2.named_arrays()):
            np.testing.assert_array_equal(a1, a2)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            init_layer_params(10, 4, 3, 20, SplitMix64(0))

    def test_tau_initial_value(self):
        p = random_params(4, 2)
        assert math.exp(float(p.log_tau)) == pytest.approx(0.5)
