"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths they check: plain loops, closed
formulas, and exhaustive enumeration only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def gram_triple_loop(z: np.ndarray) -> np.ndarray:
    r, d = z.shape
    k = np.zeros((r, r))
    for i in range(r):
        for j in range(r):
            acc = 0.0
            for t in range(d):
                acc += z[i, t] * z[j, t]
            k[i, j] = acc / r
    return k


def charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier coefficients of det(lambda I - A).

    Returns [1, c1, ..., cn] so that p(l) = l^n + c1 l^(n-1) + ... + cn.
    Uses only traces and matrix products, independent of any eigensolver.
    """
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def charpoly_roots(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix as roots of det(K - lambda I).

    np.roots seeds the values; a few Newton steps on the characteristic
    polynomial polish them well below 1e-10 for the simple roots that random
    symmetric matrices produce.
    """
    coeffs = charpoly_coeffs(a)
    deriv = np.polyder(coeffs)
    roots = np.roots(coeffs).real.astype(np.float64)
    for _ in range(4):
        denom = np.polyval(deriv, roots)
        safe = np.abs(denom) > 1e-30
        roots = np.where(safe, roots - np.polyval(coeffs, roots) / np.where(safe, denom, 1.0), roots)
    return np.sort(roots)[::-1]


def two_pass_variance(values: np.ndarray) -> float:
    mean = sum(float(v) for v in values) / len(values)
    return sum((float(v) - mean) ** 2 for v in values) / len(values)


def minmax_quantize_loop(flat, bits: int, group_size: int):
    """Group-wise min-max quantization one group and one element at a time.

    Returns (codes, scales, zero_points, weights) as flat arrays. The scale
    spans the group range with a 1e-12 floor, the zero-point is the group
    min, codes round half away from zero and are clamped to [0, 2^bits - 1].
    """
    levels = 2 ** bits - 1
    codes, scales, zeros, weights = [], [], [], []
    for start in range(0, len(flat), group_size):
        group = [float(v) for v in flat[start:start + group_size]]
        lo, hi = min(group), max(group)
        scale = max((hi - lo) / levels, 1e-12)
        scales.append(scale)
        zeros.append(lo)
        for x in group:
            t = (x - lo) / scale
            code = math.floor(abs(t) + 0.5) * (1 if t >= 0 else -1)
            code = min(max(code, 0), levels)
            codes.append(code)
            weights.append(code * scale + lo)
    return np.array(codes), np.array(scales), np.array(zeros), np.array(weights)


def knapsack_exhaustive(relevance, weight_counts, budget, bit_choices=(4, 8, 16)):
    """Best plan over all bit_choices^N by plain enumeration.

    Maximizes sum(relevance * bits) subject to sum(count * bits) <= budget;
    the first optimum in product order wins. None when no plan fits.
    """
    best, best_gain = None, -math.inf
    for combo in itertools.product(bit_choices, repeat=len(relevance)):
        if sum(c * b for c, b in zip(weight_counts, combo)) > budget:
            continue
        gain = sum(r * b for r, b in zip(relevance, combo))
        if gain > best_gain:
            best, best_gain = list(combo), gain
    return best
