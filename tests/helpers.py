"""Shared test utilities: finite-difference gradient oracle, error norms and
the dense relaxed-adjacency helpers of the per-step training oracle."""

import numpy as np

from condgraphgen.autodiff import Tensor, as_tensor


def finite_diff(f, arrays, eps=1e-5):
    """Central finite differences of a scalar function.

    `arrays` are numpy arrays referenced by f (perturbed in place). Returns
    one gradient array per input array.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def rel_error(a, b):
    """Max elementwise difference scaled by the largest magnitude involved."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def symmetric_scatter(bits, rows: np.ndarray, cols: np.ndarray, n: int) -> Tensor:
    """Place a vector of edge values into a symmetric (n, n) matrix."""
    bits = as_tensor(bits)
    out_val = np.zeros((n, n), dtype=np.float64)
    out_val[rows, cols] = bits.value
    out_val[cols, rows] = bits.value

    def backward(g):
        bits._accumulate(g[rows, cols] + g[cols, rows])

    return Tensor(out_val, bits.requires_grad, (bits,), backward)


def prefix_matrix(lower_rows: np.ndarray, n_prev: int, n: int) -> np.ndarray:
    """Dense symmetric adjacency of the first n_prev ordered nodes, padded
    to n x n: the observed prefix of a generation step."""
    block = lower_rows[:n_prev, :n].astype(np.float64)
    out = np.zeros((n, n))
    out[:n_prev, :n] = block
    return out + out.T
