import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraphgen import autodiff as ad
from condgraphgen import backend
from helpers import finite_diff, rel_error, symmetric_scatter

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


def test_div_grads():
    a = arr(3, 4)
    b = np.abs(arr(3, 4)) + 1.0
    check_grad(lambda x, y: (x / y).sum(), [a, b])
    check_grad(lambda x: (1.0 / x).sum(), [b])


def test_matmul_grads():
    a, b = arr(3, 5), arr(5, 2)
    check_grad(lambda x, y: (x @ y).sum(), [a, b])
    check_grad(lambda x: (ad.Tensor(a) @ x).sum(), [b.copy()])


def test_matmul_grads_one_dimensional():
    v, w, m = arr(5), arr(5), arr(5, 3)
    check_grad(lambda x, y: (x @ y).sum(), [v, m])
    check_grad(lambda x, y: (x @ y).sum(), [m.T.copy(), w])
    check_grad(lambda x, y: x @ y, [v, w])


def test_elementwise_grads():
    x = arr(4, 3)
    check_grad(lambda t: ad.relu(t).sum(), [x + 0.05])  # keep away from the kink
    check_grad(lambda t: ad.sigmoid(t).sum(), [x])
    check_grad(lambda t: ad.tanh(t).sum(), [x])
    check_grad(lambda t: ad.exp(t).sum(), [x])
    check_grad(lambda t: ad.log(t).sum(), [np.abs(x) + 0.5])
    check_grad(lambda t: ad.softplus(t).sum(), [x * 3])
    check_grad(lambda t: ad.log_sigmoid(t).sum(), [x * 3])


def test_softplus_extreme_values_stable():
    x = ad.Tensor(np.array([-800.0, 0.0, 800.0]))
    y = ad.softplus(x)
    assert np.all(np.isfinite(y.value))
    assert y.value[0] == pytest.approx(0.0)
    assert y.value[2] == pytest.approx(800.0)


def test_reduction_grads():
    x = arr(3, 4)
    check_grad(lambda t: t.sum(), [x])
    check_grad(lambda t: t.sum(axis=0).sum(), [x])
    check_grad(lambda t: t.sum(axis=1, keepdims=True).sum(), [x])
    check_grad(lambda t: t.mean(), [x])
    check_grad(lambda t: ad.logsumexp(t), [x])
    check_grad(lambda t: ad.logsumexp(t, axis=1).sum(), [x])
    check_grad(lambda t: ad.logsumexp(t, axis=0, keepdims=True).sum(), [x])


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
    out = ad.relu(a * b + 1.0)
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
    check_grad(lambda x, y: ((x @ y) * w).sum(), [a, b])


def test_orthogonal_init_is_orthonormal():
    q = ad.orthogonal(np.random.default_rng(0), 8)
    assert np.allclose(q @ q.T, np.eye(8), atol=1e-10)


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
