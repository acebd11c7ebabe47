"""Reverse-mode automatic differentiation over float64 numpy arrays.

A minimal tape: each op returns a Tensor holding its value, its parents,
and a closure that routes the output gradient to the parents. Everything
runs in 64-bit so finite-difference checks are meaningful at 1e-4 relative
error. Ops only record the tape when some input requires gradients, so
inference-time code pays no bookkeeping cost.

Weight layout convention: linear maps are stored (in_dim, out_dim) and
applied as ``x @ W + b`` with x of shape (batch, in_dim).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import backend

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[Array], None] | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def detach(self) -> "Tensor":
        return Tensor(self.value)

    def _accumulate(self, g: Array) -> None:
        # The first gradient is stored as given and later ones are added out
        # of place, so gradient arrays may be shared between tensors: nothing
        # may update a .grad in place.
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar output, filling .grad on the tape."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value) -> Tensor:
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def constant(value) -> Tensor:
    return Tensor(value)


def _make(value: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True, parents=parents, backward=backward)
    return Tensor(value)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.value.shape))

    return _make(out_val, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value * b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.value, b.value.shape))

    return _make(out_val, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value / b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return _make(out_val, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product for 1-d or 2-d operands (numpy @ semantics)."""
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value @ b.value

    def backward(g):
        an, bn = a.value.ndim, b.value.ndim
        if a.requires_grad:
            if an == 1 and bn == 1:
                a._accumulate(g * b.value)
            elif an == 2 and bn == 1:
                a._accumulate(np.outer(g, b.value))
            else:
                a._accumulate(g @ b.value.T)
        if b.requires_grad:
            if an == 1 and bn == 1:
                b._accumulate(g * a.value)
            elif an == 1 and bn == 2:
                b._accumulate(np.outer(a.value, g))
            else:
                b._accumulate(a.value.T @ g)

    return _make(out_val, (a, b), backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_val = np.maximum(x.value, 0.0)

    def backward(g):
        x._accumulate(g * (x.value > 0.0))

    return _make(out_val, (x,), backward)


def _sigmoid_val(v: Array) -> Array:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = _sigmoid_val(x.value)

    def backward(g):
        x._accumulate(g * s * (1.0 - s))

    return _make(s, (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.value)

    def backward(g):
        x._accumulate(g * (1.0 - t * t))

    return _make(t, (x,), backward)


def exp(x) -> Tensor:
    x = as_tensor(x)
    e = np.exp(x.value)

    def backward(g):
        x._accumulate(g * e)

    return _make(e, (x,), backward)


def log(x) -> Tensor:
    x = as_tensor(x)
    out_val = np.log(x.value)

    def backward(g):
        x._accumulate(g / x.value)

    return _make(out_val, (x,), backward)


def softplus(x) -> Tensor:
    """log(1 + e^x), computed without overflow."""
    x = as_tensor(x)
    v = x.value
    out_val = np.log1p(np.exp(-np.abs(v))) + np.maximum(v, 0.0)

    def backward(g):
        x._accumulate(g * _sigmoid_val(v))

    return _make(out_val, (x,), backward)


def log_sigmoid(x) -> Tensor:
    return -softplus(-as_tensor(x))


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where lo < value < hi."""
    x = as_tensor(x)
    out_val = np.clip(x.value, lo, hi)

    def backward(g):
        x._accumulate(g * ((x.value > lo) & (x.value < hi)))

    return _make(out_val, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    out_val = x.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.value.shape).copy())

    return _make(out_val, (x,), backward)


def tmean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    n = x.value.size if axis is None else x.value.shape[axis]
    return tsum(x, axis=axis) * (1.0 / n)


def logsumexp(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    m = np.max(x.value, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x.value - m)
    s = e.sum(axis=axis, keepdims=True)
    out_val = np.log(s) + m
    if not keepdims and axis is not None:
        out_val = np.squeeze(out_val, axis=axis)
    elif not keepdims:
        out_val = out_val.reshape(())
    soft = e / s

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.value.shape) * soft)

    return _make(out_val, (x,), backward)


def log_softmax(x, axis=-1) -> Tensor:
    x = as_tensor(x)
    return x - logsumexp(x, axis=axis, keepdims=True)


def softmax(x, axis=-1) -> Tensor:
    return exp(log_softmax(x, axis=axis))


# ---------------------------------------------------------------------------
# shape / indexing


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out_val = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                p._accumulate(g[tuple(sl)])

    return _make(out_val, tuple(parts), backward)


def getitem(x, key) -> Tensor:
    """Basic or fancy indexing; an element picked more than once receives
    the sum of its gradients."""
    x = as_tensor(x)
    out_val = x.value[key]

    def backward(g):
        full = np.zeros_like(x.value)
        np.add.at(full, key, g)
        x._accumulate(full)

    return _make(out_val, (x,), backward)


def gather_rows(x, idx: np.ndarray) -> Tensor:
    """Rows x[idx]; duplicates allowed, adjoint is a segment sum."""
    x = as_tensor(x)
    out_val = x.value[idx]

    def backward(g):
        x._accumulate(backend.segment_sum(g, idx, x.value.shape[0]))

    return _make(out_val, (x,), backward)


def segment_sum(x, idx: np.ndarray, n: int) -> Tensor:
    """Sum rows of x into n buckets; adjoint is a row gather."""
    x = as_tensor(x)
    out_val = backend.segment_sum(x.value, idx, n)

    def backward(g):
        x._accumulate(g[idx])

    return _make(out_val, (x,), backward)


def straight_through(soft: Tensor, hard: Array) -> Tensor:
    """Forward takes `hard` values; gradient flows through `soft`."""
    return soft + constant(hard - soft.value)


# ---------------------------------------------------------------------------
# parameter containers and optimizer


class Linear:
    """x @ W + b with W stored (in_dim, out_dim)."""

    def __init__(self, W: Tensor, b: Tensor):
        self.W = W
        self.b = b

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.W) + self.b

    def tensors(self) -> list[Tensor]:
        return [self.W, self.b]


class MLP:
    """Stack of Linear layers with ReLU between (not after) layers."""

    def __init__(self, layers: list[Linear]):
        self.layers = layers

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = relu(x)
        return x

    def tensors(self) -> list[Tensor]:
        return [t for layer in self.layers for t in layer.tensors()]


class GruCell:
    """Gated recurrent update of a state h from an input message m.

    Input-to-hidden weights are He-uniform, hidden-to-hidden orthogonal.
    """

    def __init__(self, rng: np.random.Generator, dim: int):
        def gate():
            return (
                parameter(he_uniform(rng, dim, dim)),
                parameter(orthogonal(rng, dim)),
                parameter(np.zeros(dim)),
            )

        self.wz, self.uz, self.bz = gate()
        self.wr, self.ur, self.br = gate()
        self.wn, self.un, self.bn = gate()

    def __call__(self, h: Tensor, m: Tensor) -> Tensor:
        z = sigmoid(matmul(m, self.wz) + matmul(h, self.uz) + self.bz)
        r = sigmoid(matmul(m, self.wr) + matmul(h, self.ur) + self.br)
        n = tanh(matmul(m, self.wn) + matmul(r * h, self.un) + self.bn)
        return (1.0 - z) * n + z * h

    def tensors(self) -> list[Tensor]:
        return [
            self.wz, self.uz, self.bz,
            self.wr, self.ur, self.br,
            self.wn, self.un, self.bn,
        ]


def he_uniform(rng: np.random.Generator, in_dim: int, out_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(in_dim, out_dim))


def orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def make_mlp(rng: np.random.Generator, dims: Sequence[int]) -> MLP:
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append(Linear(parameter(he_uniform(rng, d_in, d_out)), parameter(np.zeros(d_out))))
    return MLP(layers)


class Adam:
    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * p.grad
            self.v[i] = b2 * self.v[i] + (1 - b2) * p.grad * p.grad
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
