"""Finite-difference checks for every autodiff primitive."""

import weakref

import numpy as np
import pytest

from aerosurrogate import autodiff as ad
from aerosurrogate.autodiff import Tensor


def fd_check(fn, *arrays, h=1e-6, tol=1e-6):
    """Compare analytic gradients of scalar fn(*tensors) against central
    finite differences for every input array."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward()
    for t, a in zip(tensors, arrays):
        analytic = t.grad if t.grad is not None else np.zeros_like(a)
        flat = t.value.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(fn(*tensors).value)
            flat[i] = orig - h
            down = float(fn(*tensors).value)
            flat[i] = orig
            fd[i] = (up - down) / (2 * h)
        fd = fd.reshape(t.value.shape)
        scale = max(np.abs(analytic).max(initial=0), np.abs(fd).max(initial=0), 1.0)
        assert np.abs(analytic - fd).max() / scale < tol


def rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestPrimitives:
    def test_add_broadcast(self):
        fd_check(lambda a, b: ad.sum_(ad.add(a, b)), rand(3, 4), rand(4))

    def test_sub(self):
        fd_check(lambda a, b: ad.sum_(ad.square(ad.sub(a, b))),
                 rand(3, 2), rand(3, 2, seed=1))

    def test_mul_broadcast(self):
        fd_check(lambda a, b: ad.sum_(ad.mul(a, b)), rand(2, 3), rand(2, 1, seed=1))

    def test_div(self):
        fd_check(lambda a, b: ad.sum_(ad.div(a, b)),
                 rand(2, 3), rand(2, 3, seed=1) + 3.0)

    def test_matmul(self):
        fd_check(lambda a, b: ad.sum_(ad.matmul(a, b)),
                 rand(3, 4), rand(4, 2, seed=1))

    def test_sum_axis(self):
        fd_check(lambda a: ad.sum_(ad.square(ad.sum_(a, axis=0))), rand(3, 4))

    def test_mean(self):
        fd_check(lambda a: ad.sum_(ad.square(ad.mean(a, axis=1, keepdims=True))),
                 rand(3, 4))

    def test_exp(self):
        fd_check(lambda a: ad.sum_(ad.exp(a)), rand(3, 3))

    def test_tanh(self):
        fd_check(lambda a: ad.sum_(ad.tanh(a)), rand(3, 3))

    def test_sqrt(self):
        fd_check(lambda a: ad.sum_(ad.sqrt(a)), np.abs(rand(3, 3)) + 0.5)

    def test_maximum_const(self):
        fd_check(lambda a: ad.sum_(ad.maximum_const(a, 0.3)),
                 rand(4, 4) + 2.0)   # keep away from the kink

    def test_getitem(self):
        fd_check(lambda a: ad.sum_(ad.square(ad.getitem(a, slice(1, 3)))),
                 rand(5, 2))

    @pytest.mark.parametrize("key", [
        slice(1, 4), 2, (slice(None), 1), (slice(4, 0, -2), slice(1, 3))])
    def test_getitem_basic_key_matches_scatter(self, key):
        a = Tensor(rand(5, 3), requires_grad=True)
        g = rand(*a.value[key].shape, seed=1)
        ad.sum_(ad.mul(ad.getitem(a, key), g)).backward()
        want = np.zeros((5, 3))
        np.add.at(want, key, g)
        np.testing.assert_array_equal(a.grad, want)

    def test_getitem_repeated_index_sums_gradients(self):
        a = Tensor(rand(4, 2), requires_grad=True)
        ad.sum_(ad.getitem(a, np.array([3, 0, 3, 3]))).backward()
        np.testing.assert_array_equal(a.grad, [[1, 1], [0, 0], [0, 0], [3, 3]])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_scalar_constant_keeps_float32(self, op):
        a = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        for out in (op(a, 0.5), op(0.5, a), op(Tensor(np.float32(2.0)), 0.5)):
            assert out.value.dtype == np.float32
        ad.sum_(op(a, Tensor(np.asarray(0.5)))).backward()
        assert a.grad.dtype == np.float32

    def test_scalar_constant_promotes_integers(self):
        assert ad.mul(Tensor(np.arange(3)), 0.5).value.dtype == np.float64

    def test_concat(self):
        fd_check(lambda a, b: ad.sum_(ad.square(ad.concat([a, b], axis=1))),
                 rand(2, 3), rand(2, 2, seed=1))

    def test_reshape_transpose(self):
        fd_check(lambda a: ad.sum_(ad.square(ad.transpose(ad.reshape(a, (2, 6))))),
                 rand(3, 4))


class TestComposites:
    def test_softmax_rows_sum_to_one(self):
        s = ad.softmax(Tensor(rand(5, 7) * 10), axis=-1)
        np.testing.assert_allclose(s.value.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_gradient(self):
        w = rand(3, 4, seed=2)
        fd_check(lambda a: ad.sum_(ad.mul(ad.softmax(a, axis=-1), w)), rand(3, 4))

    def test_softmax_stability(self):
        s = ad.softmax(Tensor(np.array([[1000.0, 1000.0, 999.0]])), axis=-1)
        assert np.all(np.isfinite(s.value))

    def test_gelu_values(self):
        # GELU(0)=0 and the tanh approximation is close to x for large x
        g = ad.gelu(Tensor(np.array([0.0, 5.0, -5.0])))
        assert g.value[0] == 0.0
        assert abs(g.value[1] - 5.0) < 1e-4
        assert abs(g.value[2]) < 1e-4

    def test_gelu_gradient(self):
        fd_check(lambda a: ad.sum_(ad.gelu(a)), rand(4, 3))

    def test_layer_norm_gradient(self):
        g = rand(4, seed=3) + 2.0
        b = rand(4, seed=4)
        fd_check(lambda a, gg, bb: ad.sum_(ad.square(ad.layer_norm(a, gg, bb))),
                 rand(3, 4), g, b)

    def test_layer_norm_statistics(self):
        out = ad.layer_norm(Tensor(rand(6, 8)), Tensor(np.ones(8)),
                            Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.value.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.value.std(axis=-1), 1.0, atol=1e-3)

    def test_frobenius_norm(self):
        a = rand(3, 3)
        assert float(ad.frobenius_norm(Tensor(a)).value) == \
            pytest.approx(np.linalg.norm(a))


class TestEngine:
    def test_backward_requires_scalar(self):
        t = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(ValueError):
            ad.add(t, t).backward()

    def test_grad_accumulates_through_shared_node(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)   # x^2 + x -> grad 2x+1 = 5
        y.backward()
        assert float(x.grad) == pytest.approx(5.0)

    def test_no_grad_for_constants(self):
        c = Tensor(np.array(1.0))
        x = Tensor(np.array(1.0), requires_grad=True)
        out = ad.mul(c, x)
        out.backward()
        assert c.grad is None

    def test_untracked_inputs_record_no_graph(self):
        a = Tensor(rand(3, 4))
        out = ad.gelu(ad.layer_norm(ad.matmul(a, rand(4, 4, seed=1)),
                                    np.ones(4), np.zeros(4)))
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None


def graph_nodes(root):
    """Every node reachable from root through _parents, root first."""
    nodes, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def block(a, w, g, b):
    """A small graph over every kind of primitive the model uses."""
    h = ad.gelu(ad.layer_norm(ad.matmul(a, w), g, b))
    s = ad.softmax(ad.reshape(ad.transpose(h), (2, 6)), axis=-1)
    return ad.sum_(ad.square(ad.sub(s, ad.getitem(s, slice(0, 1)))))


BLOCK_INPUTS = (rand(4, 3), rand(3, 3, seed=1), rand(3, seed=2) + 2.0,
                rand(3, seed=3))


class TestBackwardReleasesGraph:
    def test_interior_nodes_cleared(self):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in BLOCK_INPUTS]
        loss = block(*leaves)
        interior = [n for n in graph_nodes(loss) if n._parents]
        assert len(interior) > 20
        loss.backward()
        for node in interior:
            assert node._parents == ()
            assert node._backward is None
            assert node.grad is None
        assert all(t.grad is not None for t in leaves)

    def test_activations_freed_while_output_is_referenced(self):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in BLOCK_INPUTS]
        loss = block(*leaves)
        values = [weakref.ref(n.value) for n in graph_nodes(loss)[1:]
                  if n._parents]
        assert all(v() is not None for v in values)
        loss.backward()
        assert all(v() is None for v in values)

    def test_leaf_gradients_match_finite_differences(self):
        fd_check(block, *BLOCK_INPUTS)

    def test_each_node_released_as_its_backward_runs(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        seen = []

        def probe_backward(g):
            # `later` was created after the probe, so its backward ran first
            seen.append((later._parents, later._backward, later.grad))
            ad._accum(x, g)

        probe = Tensor(np.array(2.0), parents=(x,), backward=probe_backward)
        later = ad.mul(probe, 3.0)
        later.backward()
        assert seen == [((), None, None)]
        assert float(x.grad) == 3.0


class TestLeafGradients:
    def test_leaf_adds_into_the_array_it_holds(self):
        arena = np.zeros(5)
        leaf = Tensor(np.ones(3), requires_grad=True)
        leaf.grad = arena[1:4]
        ad._accum(leaf, np.array([1.0, 2.0, 3.0]))
        ad._accum(leaf, np.array([10.0, 20.0, 30.0]))
        np.testing.assert_array_equal(arena, [0.0, 11.0, 22.0, 33.0, 0.0])
        assert np.shares_memory(leaf.grad, arena)

    def test_first_gradient_never_written(self):
        leaf = Tensor(np.zeros(3), requires_grad=True)
        interior = ad.mul(leaf, 2.0)
        for node in (leaf, interior):
            first = np.array([1.0, 2.0, 3.0])
            ad._accum(node, first)
            ad._accum(node, np.ones(3))
            np.testing.assert_array_equal(first, [1.0, 2.0, 3.0])
            np.testing.assert_array_equal(node.grad, [2.0, 3.0, 4.0])
