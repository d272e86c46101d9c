"""Shared numerical oracles for the test suite.

These stay deliberately dumb and independent of the library code paths they
check: plain loops, central differences, no reuse of dkm internals.
"""

import numpy as np


def central_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max abs difference relative to the largest magnitude in either array."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def pairwise_sq_dists(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Brute-force squared Euclidean distances, one pair at a time."""
    m, k = w.shape[0], c.shape[0]
    out = np.zeros((m, k))
    for i in range(m):
        for j in range(k):
            diff = w[i] - c[j]
            out[i, j] = float(np.dot(diff, diff))
    return out


def hard_attention(dist: np.ndarray) -> np.ndarray:
    """One-hot rows at the nearest centroid (largest negated distance); ties go to the lowest index."""
    d = np.asarray(dist, dtype=np.float64)
    out = np.zeros_like(d)
    out[np.arange(d.shape[0]), np.argmax(d, axis=1)] = 1.0
    return out
