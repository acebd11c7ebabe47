"""Reverse-mode automatic differentiation over float64 numpy arrays.

A minimal tape: each op returns a Tensor holding its value, its parents,
and a closure that routes the output gradient to the parents. Everything
runs in 64-bit so finite-difference checks are meaningful at 1e-4 relative
error. Ops only record the tape when some input requires gradients and no
``no_grad()`` block is open.  Model parameters always require gradients, so
inference (sampling, classifier read-outs) runs under ``no_grad()``.

Weight layout convention: linear maps are stored (in_dim, out_dim) and
applied as ``x @ W + b`` with x of shape (batch, in_dim).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, NamedTuple, Sequence

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

    def _accumulate(self, g: Array) -> None:
        # The first gradient is stored as given and later ones are added out
        # of place, so gradient arrays may be shared between tensors: nothing
        # may update a .grad in place.
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar output into the .grad of every leaf
        that requires gradients.  An interior node's gradient is released as
        soon as its closure has routed it to its parents, so after the call
        only leaves hold a .grad."""
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
                node.grad = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value) -> Tensor:
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def constant(value) -> Tensor:
    return Tensor(value)


_recording = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Within the block ops record no tape: every result is a constant, so
    nothing computed there can be backpropagated through.  The switch is
    process-wide, not per thread."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` is recorded on the tape."""
    return _recording and any(p.requires_grad for p in parents)


def _make(value: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _records(parents):
        return Tensor(value, requires_grad=True, parents=parents, backward=backward)
    return Tensor(value)


# ---------------------------------------------------------------------------
# arithmetic


def _product(x: Array, w: Array) -> Array:
    """x @ w for 2-d x, each row's value independent of the other rows of
    x: every forward product of the package goes through here, so a row's
    result does not depend on what it is batched with or where it sits.

    OpenBLAS sums the rows of a product with fewer than 5 columns in an
    order that depends on the row's place (the last rows of each thread's
    share take another kernel), and a one-row product takes the
    matrix-vector path, which differs from a row of the full product.  With
    2 or more rows and 8 or more columns no row offset and no thread count
    gave other bits (NumPy 2.4, OpenBLAS, 16-64 inner columns).  So a
    narrower weight gets zero columns up to 8 and a one-row input a second
    row, and the result is the view without the padding.  Backward products
    are not padded."""
    rows, cols = x.shape[0], w.shape[1]
    if cols >= 8 and rows != 1:
        return x @ w
    if cols < 8:
        padded = np.zeros((w.shape[0], 8))
        padded[:, :cols] = w
        w = padded
    if rows == 1:
        x = x.repeat(2, axis=0)
    return (x @ w)[:rows, :cols]


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.value.shape))

    return _make(out_val, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value - b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.value.shape))

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


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def _sigmoid_val(v: Array) -> Array:
    """σ(v) = max(e, [v >= 0]) / (1 + e) with e = exp(-|v|), which never
    overflows: the stable branch 1 / (1 + e) for v >= 0 and e / (1 + e)
    below, each the same single division, so the value is exact without a
    select between two computed branches."""
    e = np.exp(-np.abs(v))
    s = np.maximum(e, v >= 0)
    e += 1.0
    s /= e
    return s


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = _sigmoid_val(x.value)

    def backward(g):
        x._accumulate(g * s * (1.0 - s))

    return _make(s, (x,), backward)


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


def log_sigmoid(x) -> Tensor:
    """log σ(x) = -(log(1 + e^-|x|) + max(-x, 0)), with gradient σ(-x): the
    value and gradient of -softplus(-x), to the last bit, as one node."""
    x = as_tensor(x)
    v = -x.value
    out_val = -(np.log1p(np.exp(-np.abs(v))) + np.maximum(v, 0.0))

    def backward(g):
        x._accumulate(g * _sigmoid_val(v))

    return _make(out_val, (x,), backward)


def bernoulli_log_likelihood(logits, bits: Array) -> Tensor:
    """b·log σ(θ) + (1 - b)·log σ(-θ) for logits θ and constant bits b that
    broadcast against them, as one node that keeps only θ, b and 1 - b.
    Value and gradient are those of the expression written with
    ``log_sigmoid``, to the last bit: θ's adjoint is the b path plus the
    1 - b path, in that order."""
    x = as_tensor(logits)
    theta = x.value
    not_bits = 1.0 - bits
    softplus = np.log1p(np.exp(-np.abs(theta)))
    out_val = bits * -(softplus + np.maximum(-theta, 0.0))
    out_val += not_bits * -(softplus + np.maximum(theta, 0.0))

    def backward(g):
        g_theta = g * bits
        g_theta *= _sigmoid_val(-theta)
        g_neg = g * not_bits
        g_neg *= _sigmoid_val(theta)
        g_theta -= g_neg
        x._accumulate(g_theta)

    return _make(out_val, (x,), backward)


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
# fused message passing


class Pending(NamedTuple):
    """An op's value, the tensors it reads and its backward, not recorded on
    the tape: the consumer runs the backward inside its own (see
    ``GruCell.__call__``)."""

    value: Array
    parents: tuple[Tensor, ...]
    backward: Callable[[Array], None]


def gated_messages(
    h: Tensor,
    flag: Array,
    recv: Array,
    send: Array,
    msg: MLP,
    gate: MLP,
    distinct: tuple[Array, Array] | None = None,
) -> Pending:
    """segment_sum(σ(gate([d, flag])) · msg(d), recv) with d = h[recv] - h[send]
    and one ``flag`` per edge.  The backward reads only [d, flag], each MLP's
    hidden ReLU output, msg(d) and the gate; every other forward array is
    freed on return.

    ``distinct = (first, index)`` says that edge e has the d and flag of edge
    ``first[index[e]]``, as when h holds equal rows for nodes of one class.
    Both MLPs then run on the ``first`` edges only, whose products give each
    row the bits it has in the per-edge round (see ``_product``); the forward
    gathers their messages onto the edges for the sum, and the backward sums
    the edges' adjoints onto the ``first`` edges before the MLP backward, so
    the backward keeps only arrays of the ``first`` edges.  The gradient of h
    is then exact summed over the nodes that share a state, which is all a
    gather of those states passes on."""
    hv = h.value
    num, dim = hv.shape
    first, index = (slice(None), None) if distinct is None else distinct
    ends = (recv[first], send[first])
    d_flag = np.empty((ends[0].shape[0], dim + 1))
    np.subtract(hv[ends[0]], hv[ends[1]], out=d_flag[:, :dim])
    d_flag[:, dim] = flag[first]
    m, m_inputs = _mlp_values(msg.layers, d_flag[:, :dim])
    s, s_inputs = _mlp_values(gate.layers, d_flag)
    s = _sigmoid_val(s)
    sm = s * m
    agg = backend.segment_sum(sm if index is None else sm[index], recv, num)

    def backward(g):
        if index is None:
            # g[recv] is the adjoint of the segment sum; it is gathered twice
            # so that no (E, dim) array outlives the product it feeds
            rows = recv
        else:
            g, rows = backend.segment_sum(g[recv], index, m.shape[0]), slice(None)
        g_s = _unbroadcast(g[rows] * m, s.shape)
        g_s *= s
        g_s *= 1.0 - s
        g_d = _mlp_backward(msg, m_inputs, g[rows] * s)
        g_d += _mlp_backward(gate, s_inputs, g_s)[:, :dim]
        if h.requires_grad:
            # the adjoints of h[recv] and of -h[send], in that order
            h._accumulate(backend.segment_sum(g_d, ends[0], num))
            np.negative(g_d, out=g_d)
            h._accumulate(backend.segment_sum(g_d, ends[1], num))

    return Pending(agg, (h, *msg.tensors(), *gate.tensors()), backward)


def _mlp_values(layers: list[Linear], x: Array) -> tuple[Array, list[Array]]:
    """An MLP's output and each layer's input; past the first layer an input
    is a ReLU output, taken in place on the layer before's product."""
    inputs = []
    for i, layer in enumerate(layers):
        if i:
            np.maximum(x, 0.0, out=x)
        inputs.append(x)
        out = _product(x, layer.W.value)
        out += layer.b.value
        x = out
    return x, inputs


def _mlp_backward(mlp: MLP, inputs: list[Array], g: Array, input_grad: bool = True):
    """Accumulate every layer's weight and bias gradients at output gradient
    g; returns the gradient of the MLP's input, or None when ``input_grad``
    is false."""
    for i in reversed(range(len(mlp.layers))):
        layer, x = mlp.layers[i], inputs[i]
        if layer.W.requires_grad:
            layer.W._accumulate(x.T @ g)
        if layer.b.requires_grad:
            layer.b._accumulate(_unbroadcast(g, layer.b.value.shape))
        if not (i or input_grad):
            return None
        g = g @ layer.W.value.T
        if i:
            g *= x > 0.0
    return g


# ---------------------------------------------------------------------------
# parameter containers and optimizer


class Linear:
    """x @ W + b with W stored (in_dim, out_dim): a one-layer MLP."""

    def __init__(self, W: Tensor, b: Tensor):
        self.W = W
        self.b = b

    def __call__(self, x: Tensor) -> Tensor:
        return MLP([self])(x)

    def tensors(self) -> list[Tensor]:
        return [self.W, self.b]


class MLP:
    """Stack of Linear layers with ReLU between (not after) layers."""

    def __init__(self, layers: list[Linear]):
        self.layers = layers

    def __call__(self, x: Tensor) -> Tensor:
        """The MLP on a 2-d input as one tape node: ``_mlp_values`` forward,
        ``_mlp_backward`` backward, which skips the input's gradient when
        the input needs none."""
        x = as_tensor(x)
        if x.value.ndim != 2:
            raise ValueError("MLP and Linear take a 2-d input")
        out, inputs = _mlp_values(self.layers, x.value)

        def backward(g):
            g = _mlp_backward(self, inputs, g, x.requires_grad)
            if g is not None:
                x._accumulate(g)

        return _make(out, (x, *self.tensors()), backward)

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

    def __call__(self, h: Tensor, m: Tensor | Pending) -> Tensor:
        """(1 - z)·n + z·h with z = σ(m Wz + h Uz + bz), r = σ(m Wr + h Ur + br)
        and n = tanh(m Wn + (r·h) Un + bn), as one tape node that keeps z, r,
        n and r·h.  When ``m`` is a ``Pending`` op (``gated_messages``) its
        backward runs inside this node's, so a whole message-passing round is
        one node.  Gradients reach h in the order of the op-by-op cell (r·h,
        h Ur, z·h, then m's backward, then h Uz), so results are unchanged to
        the last bit."""
        hv, mv = h.value, m.value
        z = _sigmoid_val(_affine(mv, self.wz, hv, self.uz, self.bz))
        r = _sigmoid_val(_affine(mv, self.wr, hv, self.ur, self.br))
        rh = r * hv
        n = _affine(mv, self.wn, rh, self.un, self.bn)
        np.tanh(n, out=n)
        out = 1.0 - z
        out *= n
        out += z * hv
        pending = isinstance(m, Pending)

        def backward(g):
            gz = g * hv
            gz -= g * n
            gz *= z
            gz *= 1.0 - z
            gn = 1.0 - z
            gn *= g
            gn *= 1.0 - n * n
            g_rh = gn @ self.un.value.T
            gr = g_rh * hv
            gr *= r
            gr *= 1.0 - r
            _accumulate_affine(mv, self.wn, rh, self.un, self.bn, gn)
            _accumulate_affine(mv, self.wr, hv, self.ur, self.br, gr)
            _accumulate_affine(mv, self.wz, hv, self.uz, self.bz, gz)
            if h.requires_grad:
                g_rh *= r
                g_rh += gr @ self.ur.value.T
                g_rh += g * z
                h._accumulate(g_rh)
            if pending or m.requires_grad:
                gm = gn @ self.wn.value.T
                gm += gr @ self.wr.value.T
                gm += gz @ self.wz.value.T
                # m's backward holds per-edge arrays: release what it does
                # not read
                del gn, gr
                if pending:
                    m.backward(gm)
                else:
                    m._accumulate(gm)
            if h.requires_grad:
                h._accumulate(gz @ self.uz.value.T)

        parents = (h, *self.tensors(), *(m.parents if pending else (m,)))
        return _make(out, parents, backward)

    def tensors(self) -> list[Tensor]:
        return [
            self.wz, self.uz, self.bz,
            self.wr, self.ur, self.br,
            self.wn, self.un, self.bn,
        ]


def _affine(m: Array, w: Tensor, h: Array, u: Tensor, b: Tensor) -> Array:
    out = _product(m, w.value)
    out += _product(h, u.value)
    out += b.value
    return out


def _accumulate_affine(m: Array, w: Tensor, h: Array, u: Tensor, b: Tensor, g: Array) -> None:
    """Weight and bias gradients of m W + h U + b at output gradient g."""
    for x, t in ((m, w), (h, u)):
        if t.requires_grad:
            t._accumulate(x.T @ g)
    if b.requires_grad:
        b._accumulate(_unbroadcast(g, b.value.shape))


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
            # in place, in the order of lr·m̂ / (√v̂ + eps)
            m, v = self.m[i], self.v[i]
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad * p.grad
            denom = v / (1 - b2 ** self.t)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = m / (1 - b1 ** self.t)
            update *= self.lr
            update /= denom
            p.value -= update
