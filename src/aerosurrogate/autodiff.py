"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the surrogate model needs are implemented. Values are
plain ndarrays; calling backward() on a scalar output accumulates exact
gradients into every reachable Tensor with requires_grad set.

A graph is recorded only where a gradient can flow: an operation whose
inputs all lack requires_grad returns a plain value Tensor with no parents
and no backward closure, so a forward pass on ndarray parameters holds
only its live activations. backward() consumes the graph it walks, so a
graph can be differentiated once.
"""

import numpy as np

_GELU_C0 = 0.7978845608028654      # sqrt(2/pi)
_GELU_C1 = 0.044715


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = np.asarray(value)
        self.grad = None
        # only inputs a gradient can reach are kept as parents (a closure
        # holds the others), and an op on untracked inputs keeps no closure
        self._parents = tuple(p for p in parents if p.requires_grad)
        self.requires_grad = requires_grad or bool(self._parents)
        self._backward = backward if self._parents else None

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        """Accumulate d(self)/d(leaf) into the grad of every reachable leaf
        with requires_grad set, consuming the graph in the one walk: once
        a node's backward has run, its grad, parents and closure (with the
        activations it saved) are cleared, even while the caller holds the
        output. A second backward() through those nodes finds no graph."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen = set()

        def visit(t: Tensor):
            stack = [(t, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    topo.append(node)
                    continue
                if id(node) in seen or not node.requires_grad:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    stack.append((p, False))

        visit(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t._parents:
        # an interior node's first gradient is kept as given and may share
        # memory with another node's, so it is never updated in place
        t.grad = g if t.grad is None else t.grad + g
    elif t.grad is None:
        t.grad = np.array(g)    # a leaf owns its gradient and adds into it
    else:
        t.grad += g


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """a and b as Tensors, an untracked 0-d operand (a Python float, say)
    cast to the dtype of the other, as numpy casts a Python scalar, so a
    constant does not turn float32 arithmetic into float64."""
    a, b = as_tensor(a), as_tensor(b)
    if b.value.ndim == 0 and not b.requires_grad:
        b = Tensor(b.value.astype(np.result_type(a.value, b.value.item()),
                                  copy=False))
    elif a.value.ndim == 0 and not a.requires_grad:
        a = Tensor(a.value.astype(np.result_type(b.value, a.value.item()),
                                  copy=False))
    return a, b


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_val = a.value + b.value

    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))

    return Tensor(out_val, parents=(a, b), backward=backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_val = a.value - b.value

    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(-g, b.value.shape))

    return Tensor(out_val, parents=(a, b), backward=backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_val = a.value * b.value

    def backward(g):
        _accum(a, _unbroadcast(g * b.value, a.value.shape))
        _accum(b, _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out_val, parents=(a, b), backward=backward)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_val = a.value / b.value

    def backward(g):
        _accum(a, _unbroadcast(g / b.value, a.value.shape))
        _accum(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return Tensor(out_val, parents=(a, b), backward=backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value @ b.value

    def backward(g):
        _accum(a, g @ np.swapaxes(b.value, -1, -2))
        _accum(b, np.swapaxes(a.value, -1, -2) @ g)

    return Tensor(out_val, parents=(a, b), backward=backward)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_val = a.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.value.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.value.shape).copy())

    return Tensor(out_val, parents=(a,), backward=backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_val = np.exp(a.value)

    def backward(g):
        _accum(a, g * out_val)

    return Tensor(out_val, parents=(a,), backward=backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_val = np.tanh(a.value)

    def backward(g):
        _accum(a, g * (1.0 - out_val * out_val))

    return Tensor(out_val, parents=(a,), backward=backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_val = np.sqrt(a.value)

    def backward(g):
        _accum(a, g * 0.5 / out_val)

    return Tensor(out_val, parents=(a,), backward=backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    return mul(a, a)


def maximum_const(a, floor: float) -> Tensor:
    """Elementwise max with a constant; gradient passes where a > floor."""
    a = as_tensor(a)
    out_val = np.maximum(a.value, floor)

    def backward(g):
        _accum(a, g * (a.value > floor))

    return Tensor(out_val, parents=(a,), backward=backward)


def _is_basic(key) -> bool:
    """Whether key is a slice, an integer or a tuple of them: an index
    that selects each element at most once."""
    return all(isinstance(k, (slice, int, np.integer))
               and not isinstance(k, bool)
               for k in (key if isinstance(key, tuple) else (key,)))


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out_val = a.value[key]

    def backward(g):
        full = np.zeros_like(a.value)
        if _is_basic(key):
            full[key] = g
        else:
            # a fancy index may repeat an element, whose gradients add up
            np.add.at(full, key, g)
        _accum(a, full)

    return Tensor(out_val, parents=(a,), backward=backward)


def concat(tensors: list, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return Tensor(out_val, parents=tuple(tensors), backward=backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_val = a.value.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.value.shape))

    return Tensor(out_val, parents=(a,), backward=backward)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out_val = np.transpose(a.value, axes)

    def backward(g):
        inv = None if axes is None else np.argsort(axes)
        _accum(a, np.transpose(g, inv))

    return Tensor(out_val, parents=(a,), backward=backward)


# ---------------------------------------------------------------------------
# composites


def softmax(a, axis=-1) -> Tensor:
    """Numerically stable softmax; the max shift is a detached constant
    (softmax is shift-invariant, so gradients stay exact)."""
    a = as_tensor(a)
    shift = np.max(a.value, axis=axis, keepdims=True)
    e = exp(sub(a, Tensor(shift)))
    return div(e, sum_(e, axis=axis, keepdims=True))


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c0*(x + c1*x^3)), the inner term of the GELU approximation."""
    t = x * x
    t *= x
    t *= _GELU_C1
    t += x
    t *= _GELU_C0
    return np.tanh(t, out=t)


def _gelu_from_tanh(x: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """GELU of x from t = _gelu_tanh(x): 0.5*x*(1 + t), into out if given."""
    out = np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5
    return out


def _gelu_grad(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The gradient at x of gelu, given g at its output and
    t = _gelu_tanh(x): g*(0.5*(1 + t) + 0.5*c0*x*(1 - t^2)*(1 + 3*c1*x^2))."""
    s = x * x
    s *= 3.0 * _GELU_C1
    s += 1.0
    s *= x
    s *= 0.5 * _GELU_C0
    u = t * t
    np.subtract(1.0, u, out=u)
    s *= u
    np.multiply(t, 0.5, out=u)
    u += 0.5
    s += u
    s *= g
    return s


def gelu(a) -> Tensor:
    """GELU, tanh approximation:
    0.5*x*(1 + tanh(c0*(x + c1*x^3))), c0=sqrt(2/pi), c1=0.044715."""
    a = as_tensor(a)
    t = _gelu_tanh(a.value)
    out_val = _gelu_from_tanh(a.value, t)

    def backward(g):
        _accum(a, _gelu_grad(g, a.value, t))

    return Tensor(out_val, parents=(a,), backward=backward)


def layer_norm(a, gain, bias, eps=1e-5) -> Tensor:
    """Per-row normalization over the last axis with learned scale/shift."""
    a = as_tensor(a)
    mu = mean(a, axis=-1, keepdims=True)
    centered = sub(a, mu)
    var = mean(square(centered), axis=-1, keepdims=True)
    normed = div(centered, sqrt(add(var, eps)))
    return add(mul(normed, gain), bias)


def frobenius_norm(a) -> Tensor:
    return sqrt(sum_(square(a)))
