import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraphgen import autodiff as ad
from condgraphgen import backend
from helpers import (
    div,
    finite_diff,
    masked_sigmoid,
    matmul,
    reference_log_sigmoid,
    reference_mlp,
    rel_error,
    relu,
    softplus,
    symmetric_scatter,
    tanh,
    tmean,
)

RNG = np.random.default_rng(42)


def check_grad(build, arrays, eps=1e-5, tol=1e-6):
    """build() -> scalar Tensor recomputed from `arrays`; compares tape grads
    against central finite differences."""
    params = [ad.Tensor(a, requires_grad=True) for a in arrays]

    def run():
        return build(*params)

    out = run()
    out.backward()
    got = [p.grad for p in params]

    def f():
        # float64 inputs share their buffer with the wrapping Tensor, so the
        # in-place perturbations below are visible to build().
        ps = [ad.Tensor(x) for x in arrays]
        return float(build(*ps).value)

    want = finite_diff(f, arrays, eps=eps)
    for g, w in zip(got, want):
        assert rel_error(g, w) < tol, f"analytic {g} vs fd {w}"


def arr(*shape):
    return RNG.standard_normal(shape)


def test_add_mul_broadcast_grads():
    a, b = arr(3, 4), arr(4)
    check_grad(lambda x, y: ((x + y) * (x - 0.5)).sum(), [a, b])
    check_grad(lambda x, y: (x * y).sum(), [a, b])


def test_sub_grads():
    a, b = arr(3, 4), arr(4)
    check_grad(lambda x, y: ((x - y) * (x - y)).sum(), [a, b])
    check_grad(lambda x: ((2.5 - x) * x).sum(), [a])
    check_grad(lambda x: ((x - 2.5) * x).sum(), [a])


def test_sub_equals_add_of_negation_bit_for_bit():
    a, b = arr(50, 4), arr(4)
    assert np.array_equal((ad.Tensor(a) - ad.Tensor(b)).value, a + (-b))
    assert np.array_equal((1.0 - ad.Tensor(a)).value, 1.0 + (-a))


def test_linear_grads():
    x, w, b = arr(5, 3), arr(3, 4), arr(4)
    check_grad(lambda x_, w_, b_: (ad.Linear(w_, b_)(x_) * ad.Linear(w_, b_)(x_)).sum(),
               [x, w, b])
    assert np.array_equal(ad.Linear(ad.Tensor(w), ad.Tensor(b))(ad.Tensor(x)).value, x @ w + b)
    with pytest.raises(ValueError):
        ad.Linear(ad.Tensor(w), ad.Tensor(b))(ad.Tensor(x[0]))


def test_backward_keeps_gradients_only_on_leaves():
    x, w, b = (ad.parameter(a) for a in (arr(4, 3), arr(3, 2), arr(2)))
    h = relu(ad.Linear(w, b)(x) + 0.1)
    loss = ad.log_softmax(h - tmean(h), axis=1).sum()
    interior, stack = [], [loss]
    while stack:
        node = stack.pop()
        if node._parents:
            interior.append(node)
            stack.extend(node._parents)
    loss.backward()
    assert all(t.grad is not None for t in (x, w, b))
    assert len(interior) > 5 and all(node.grad is None for node in interior)


def test_no_grad_records_no_tape_and_restores_on_exit():
    w = ad.parameter(arr(3, 2))
    with ad.no_grad():
        out = relu(matmul(ad.Tensor(arr(4, 3)), w)) - w.sum()
    assert not out.requires_grad and out._parents == ()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert matmul(ad.Tensor(arr(4, 3)), w).requires_grad
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not (w * 2.0).requires_grad
    assert (w * 2.0)._parents


def test_div_grads():
    a = arr(3, 4)
    b = np.abs(arr(3, 4)) + 1.0
    check_grad(lambda x, y: div(x, y).sum(), [a, b])
    check_grad(lambda x: div(1.0, x).sum(), [b])


def test_matmul_grads():
    a, b = arr(3, 5), arr(5, 2)
    check_grad(lambda x, y: matmul(x, y).sum(), [a, b])
    check_grad(lambda x: matmul(ad.Tensor(a), x).sum(), [b.copy()])


def test_matmul_rejects_one_dimensional_operands():
    v, m = ad.Tensor(arr(5)), ad.Tensor(arr(5, 3))
    for a, b in ((v, m), (m.value.T, v), (v, v)):
        with pytest.raises(ValueError, match="2-d"):
            matmul(a, b)


def test_elementwise_grads():
    x = arr(4, 3)
    check_grad(lambda t: relu(t).sum(), [x + 0.05])  # keep away from the kink
    check_grad(lambda t: ad.sigmoid(t).sum(), [x])
    check_grad(lambda t: tanh(t).sum(), [x])
    check_grad(lambda t: ad.exp(t).sum(), [x])
    check_grad(lambda t: ad.log(t).sum(), [np.abs(x) + 0.5])
    check_grad(lambda t: softplus(t).sum(), [x * 3])
    check_grad(lambda t: ad.log_sigmoid(t).sum(), [x * 3])


# ±0, ±inf, NaN, the smallest normal and subnormal, the largest double and
# the arguments where exp(-|v|) underflows to a subnormal and to zero
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 5e-324, -5e-324, 1e-310, -1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 708.5, -708.5,
                     710.0, -710.0, 745.0, -745.0, 746.0, -746.0, 36.7, -36.7])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_sigmoid_matches_masked_formula_bit_for_bit():
    """In every shape, each entry has the bits of the two stable branches."""
    rng = np.random.default_rng(0)
    inputs = [SPECIALS, SPECIALS.reshape(1, -1), np.array(-0.0)]
    for scale in (1e-8, 1e-2, 1.0, 30.0, 1e3):
        for shape in ((7,), (780, 64), (33, 1), (2, 3, 5)):
            inputs.append(scale * rng.standard_normal(shape))
    for v in inputs:
        want = masked_sigmoid(v)
        got = ad._sigmoid_val(v)
        assert np.shape(got) == v.shape and got.dtype == np.float64
        # NaN stays NaN (its sign bit carries no value); every other entry
        # has the same bits
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(_bits(got[~nan]), _bits(want[~nan]))


def _tape_nodes(out):
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t.requires_grad and t._backward is not None:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_log_sigmoid_is_one_node_equal_to_the_composition():
    """Values and input gradients equal -softplus(-x) to the last bit (NaN
    only up to its sign bit), recorded as one node in place of three."""
    rng = np.random.default_rng(4)
    for v in (SPECIALS, 40.0 * rng.standard_normal((300, 7)), rng.standard_normal(1000)):
        w = rng.standard_normal(v.shape)
        results = []
        for op in (ad.log_sigmoid, reference_log_sigmoid):
            x = ad.parameter(v)
            out = op(x)
            (out * w).sum().backward()
            results.append((out, x.grad))
        (got, got_grad), (want, want_grad) = results
        assert _tape_nodes(got) == 1 and _tape_nodes(want) == 3
        for a, b in ((got.value, want.value), (got_grad, want_grad)):
            nan = np.isnan(b)
            assert np.array_equal(np.isnan(a), nan)
            assert np.array_equal(_bits(a[~nan]), _bits(b[~nan]))


def test_bernoulli_log_likelihood_is_one_node_equal_to_the_composition():
    """b·log σ(θ) + (1 - b)·log σ(-θ) as one node: values and θ's gradient
    have the bits of the six-node expression (NaN only up to its sign bit),
    also when θ has a later consumer, as the condition loss's component
    pick is."""
    rng = np.random.default_rng(5)
    thetas = (np.tile(SPECIALS[:, None], (1, 3)), 40.0 * rng.standard_normal((300, 4)),
              rng.standard_normal((1000, 1)))
    for v in thetas:
        bits = (rng.random((v.shape[0], 1)) < 0.5).astype(np.float64)
        w = rng.standard_normal(v.shape)
        pick = rng.integers(0, v.shape[1], v.shape[0])
        results = []
        for op in (
            lambda t: ad.bernoulli_log_likelihood(t, bits),
            lambda t: (ad.constant(bits) * ad.log_sigmoid(t)
                       + (1.0 - ad.constant(bits)) * ad.log_sigmoid(-t)),
        ):
            x = ad.parameter(v)
            with np.errstate(over="ignore", invalid="ignore"):  # 0·inf at the specials
                out = op(x)
                later = x[np.arange(v.shape[0]), pick]
                ((out * w).sum() + later.sum()).backward()
            results.append((out, x.grad))
        (got, got_grad), (want, want_grad) = results
        assert _tape_nodes(got) == 1 and _tape_nodes(want) == 6
        for a, b in ((got.value, want.value), (got_grad, want_grad)):
            nan = np.isnan(b)
            assert np.array_equal(np.isnan(a), nan)
            assert np.array_equal(_bits(a[~nan]), _bits(b[~nan]))


def test_softplus_extreme_values_stable():
    x = ad.Tensor(np.array([-800.0, 0.0, 800.0]))
    y = softplus(x)
    assert np.all(np.isfinite(y.value))
    assert y.value[0] == pytest.approx(0.0)
    assert y.value[2] == pytest.approx(800.0)


def test_reduction_grads():
    x = arr(3, 4)
    check_grad(lambda t: t.sum(), [x])
    check_grad(lambda t: t.sum(axis=0).sum(), [x])
    check_grad(lambda t: t.sum(axis=1, keepdims=True).sum(), [x])
    check_grad(tmean, [x])
    check_grad(lambda t: ad.logsumexp(t), [x])
    check_grad(lambda t: ad.logsumexp(t, axis=1).sum(), [x])
    check_grad(lambda t: ad.logsumexp(t, axis=0, keepdims=True).sum(), [x])


def test_mean_over_a_tuple_of_axes():
    x = arr(3, 4, 2)
    assert np.allclose(tmean(ad.Tensor(x), axis=(0, 1)).value, x.mean(axis=(0, 1)))
    assert np.allclose(tmean(ad.Tensor(x), axis=(0, -1)).value, x.mean(axis=(0, -1)))
    check_grad(lambda t: (tmean(t, axis=(0, 1)) * np.array([1.0, -2.0])).sum(), [x])
    check_grad(lambda t: tmean(t, axis=(1, 2)).sum(), [x])


def test_log_softmax_normalizes():
    x = ad.Tensor(arr(5, 3))
    p = ad.softmax(x, axis=1)
    assert np.allclose(p.value.sum(axis=1), 1.0)
    check_grad(lambda t: (ad.log_softmax(t, axis=1)[:, 0]).sum(), [arr(4, 3)])


def test_concat_and_getitem_grads():
    a, b = arr(2, 3), arr(4, 3)
    check_grad(lambda x, y: ad.concat([x, y], axis=0)[1:4].sum(), [a, b])
    check_grad(lambda x, y: ad.concat([x, y], axis=0)[:, 1].sum(), [a, b])
    c = arr(3, 4)
    check_grad(lambda t: (t[:, 2] * t[0, :3].sum()).sum(), [c])


def test_gather_and_segment_sum_grads():
    x = arr(4, 3)
    idx = np.array([0, 2, 2, 3, 0, 0])
    check_grad(lambda t: (ad.gather_rows(t, idx) * np.arange(18).reshape(6, 3)).sum(), [x])
    y = arr(6, 3)
    check_grad(lambda t: (ad.segment_sum(t, idx, 4) * np.arange(12).reshape(4, 3)).sum(), [y])


def test_segment_sum_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(3)
    for rows, cols, n in [(500, 7, 40), (64, 1, 3), (30, 16, 1), (0, 4, 5)]:
        # magnitudes spread over 16 decades, so a change of summation order
        # shows up in the last bits
        x = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 8, (rows, 1))
        idx = rng.integers(0, n, rows)
        want = np.zeros((n, cols))
        np.add.at(want, idx, x)
        got = backend.segment_sum(x, idx, n)
        assert got.dtype == np.float64 and got.shape == (n, cols)
        assert np.array_equal(got, want)


def test_getitem_repeated_indices_add_gradients():
    x = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    x[[0, 0, 1]].sum().backward()
    assert np.array_equal(x.grad, [2.0, 1.0, 0.0])
    c, w = arr(4, 3), arr(5, 3)
    rows, picks = np.array([2, 0, 2, 2, 3]), np.array([1, 1, 1, 0, 1])
    check_grad(lambda t: (t[rows, picks] * w[:, 0]).sum(), [c])
    check_grad(lambda t: (t[rows] * w).sum(), [c])


def test_symmetric_scatter_grads():
    bits = RNG.random(3)
    rows = np.array([1, 2, 3])
    cols = np.array([0, 1, 0])
    weights = arr(4, 4)

    def build(t):
        m = symmetric_scatter(t, rows, cols, 4)
        return (m * weights).sum()

    m = symmetric_scatter(ad.Tensor(bits), rows, cols, 4)
    assert m.value[1, 0] == bits[0] and m.value[0, 1] == bits[0]
    assert np.allclose(m.value, m.value.T)
    check_grad(build, [bits])


def test_clip_gradient_mask():
    x = ad.Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    y = ad.clip(x, 0.0, 1.0)
    y.sum().backward()
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(y.value, np.array([0.0, 0.5, 1.0]))


def test_straight_through_forward_and_grad():
    soft = ad.sigmoid(ad.Tensor(np.array([0.3, -0.2]), requires_grad=True))
    hard = np.array([1.0, 0.0])
    st = ad.straight_through(soft, hard)
    assert np.array_equal(st.value, hard)
    st.sum().backward()
    # gradient equals that of the soft path
    s = soft.value
    assert np.allclose(soft._parents[0].grad, s * (1 - s))


def test_backward_requires_scalar():
    x = ad.Tensor(arr(2, 2), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_gradient_accumulates_over_reuse():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    y.sum().backward()
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_no_tape_for_constants():
    a, b = ad.Tensor(arr(3)), ad.Tensor(arr(3))
    out = relu(a * b + 1.0)
    assert not out.requires_grad and out._parents == ()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_matmul_grad_property(n, m, k, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, m)), rng.standard_normal((m, k))
    w = rng.standard_normal((n, k))
    check_grad(lambda x, y: (matmul(x, y) * w).sum(), [a, b])


def test_orthogonal_init_is_orthonormal():
    q = ad.orthogonal(np.random.default_rng(0), 8)
    assert np.allclose(q @ q.T, np.eye(8), atol=1e-10)


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("layers", [1, 2, 3, "linear"])
def test_mlp_is_one_tape_node_equal_to_the_op_by_op_reference(monkeypatch, layers, input_grad):
    """An MLP of one to three layers, and a Linear, record one tape node; its
    value and every gradient equal ``reference_mlp`` bit for bit, and a
    constant input gets no gradient."""
    rng = np.random.default_rng(7)
    dims = [3, 5, 4, 2][: (1 if layers == "linear" else layers) + 1]
    mlp = ad.make_mlp(rng, dims)
    for t in mlp.tensors():
        t.value += rng.standard_normal(t.shape)  # nonzero biases
    call = mlp.layers[0] if layers == "linear" else mlp
    x, out_weight = arr(6, dims[0]), arr(6, dims[-1])

    def run(forward):
        for t in mlp.tensors():
            t.grad = None
        xt = ad.parameter(x) if input_grad else ad.constant(x)
        out = forward(xt)
        (out * out_weight).sum().backward()
        return [out.value, xt.grad] + [t.grad for t in mlp.tensors()]

    want = run(lambda xt: reference_mlp(mlp, xt))
    recorded = []
    make = ad._make

    def counting(value, parents, backward):
        out = make(value, parents, backward)
        recorded.append(out.requires_grad)
        return out

    def counted(xt):
        monkeypatch.setattr(ad, "_make", counting)
        out = call(xt)
        monkeypatch.undo()
        return out

    got = run(counted)
    assert recorded == [True]
    assert (want[1] is None) == (got[1] is None) == (not input_grad)
    for w, g in zip(want, got):
        assert (w is None and g is None) or np.array_equal(w, g)
    # some first-layer outputs are negative, so the ReLU masks take effect
    if len(dims) > 2:
        assert (reference_mlp(ad.MLP(mlp.layers[:1]), ad.Tensor(x)).value < 0).any()


def test_mlp_forward_matches_manual():
    rng = np.random.default_rng(1)
    mlp = ad.make_mlp(rng, [3, 5, 2])
    x = arr(4, 3)
    got = mlp(ad.Tensor(x)).value
    h = np.maximum(x @ mlp.layers[0].W.value + mlp.layers[0].b.value, 0.0)
    want = h @ mlp.layers[1].W.value + mlp.layers[1].b.value
    assert np.allclose(got, want)


def test_adam_minimizes_quadratic():
    p = ad.parameter(np.array([5.0, -3.0]))
    opt = ad.Adam([p], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert np.abs(p.value).max() < 1e-3
