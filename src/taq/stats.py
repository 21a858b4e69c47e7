"""Per-layer activation statistics: reservoirs, streaming moments, spectral
entropy, stability and z-scored relevance.

Entropy is the Shannon entropy of the normalized eigenvalue spectrum of the
centered activation Gram matrix, from one SVD of the centered reservoir rows;
stability is the negative element variance. ``finalize_profile`` alone
z-scores both across layers and combines them into the relevance score
alpha * z(entropy) + beta * z(stability) that drives bit allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, InvalidInput, require_array, require_instance, require_int,
                     require_real)
from .linalg import SeededRng

DEFAULT_RESERVOIR_CAPACITY = 256
_DRAW_BLOCK = 1024
_ROW_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.5

# Eigenvalues below this fraction of the largest are rank-deficiency noise
# from centering and are dropped before the spectrum is normalized.
EIG_KEEP_REL = 1e-12

ZSCORE_STD_FLOOR = 1e-12


class Reservoir:
    """Fixed-capacity uniform sample over a stream of activation vectors.

    Algorithm R: the first ``capacity`` vectors fill the buffer; afterwards
    the j-th offer survives with probability capacity/j. Single-writer.

    It owns ``rng`` and draws ahead: one ``randints`` call gives the next
    ``_DRAW_BLOCK`` offers their slots, the values and stream position of one
    ``next_u64() % seen`` draw per offer.
    """

    def __init__(self, capacity: int, width: int, rng: SeededRng):
        self.capacity = require_int("reservoir capacity", capacity, 1)
        self.width = require_int("reservoir width", width, 1)
        self.rng = require_instance("rng", rng, SeededRng)
        self.seen = 0
        self._buf = np.empty((self.capacity, self.width), dtype=np.float64)
        self._row_shape = (self.width,)
        self._count = 0
        self._slots: list[int] = []  # drawn slots of the coming offers, the next one last

    def __len__(self) -> int:
        return self._count

    def offer(self, v: np.ndarray) -> None:
        """Offer one float64 or float32 row of shape ``(width,)``; a kept row is held as float64."""
        if not (type(v) is np.ndarray and v.dtype in _ROW_DTYPES and v.shape == self._row_shape):
            raise InvalidInput(f"expected a float64 array of shape ({self.width},), or float32")
        self.seen += 1
        if self._count < self.capacity:
            self._buf[self._count] = v
            self._count += 1
            return
        if not self._slots:
            bounds = np.arange(self.seen, self.seen + _DRAW_BLOCK)
            self._slots = self.rng.randints(bounds)[::-1].tolist()
        j = self._slots.pop()
        if j < self.capacity:
            self._buf[j] = v

    def rows(self) -> np.ndarray:
        return self._buf[: self._count].copy()


@dataclass
class StreamingMoments:
    """Count, mean and sum of squared deviations (``m2``) over all activation
    elements of one layer.

    Each batch is reduced about its own mean and merged with the pairwise
    update of Chan, Golub & LeVeque (1979), so a large mean does not cancel
    the variance the way ``s2/n - mean**2`` does.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, values) -> None:
        arr = require_array("batch", values, finite=False)  # finiteness checked below
        nb = arr.size
        if nb == 0:
            return
        with np.errstate(invalid="ignore", over="ignore"):  # refused below
            mean_b = float(arr.mean())
            m2_b = float(np.square(arr - mean_b).sum())
        if not (math.isfinite(mean_b) and math.isfinite(m2_b)):
            raise InvalidInput(f"batch of {nb} values is not all finite, or its moments overflow")
        n = self.n + nb
        delta = mean_b - self.mean
        self.mean += delta * nb / n
        self.m2 += m2_b + delta * delta * self.n * nb / n
        self.n = n


def variance_and_stability(m: StreamingMoments) -> tuple[float, float]:
    """Population variance ``m2 / n`` from the running moments, and its negation."""
    if require_instance("moments", m, StreamingMoments).n < 1:
        raise InvalidInput("no elements accumulated")
    var = m.m2 / m.n
    return var, -var


def spectral_entropy(reservoir: Reservoir) -> tuple[float, bool]:
    """Entropy (nats) of the normalized eigenvalue spectrum of the centered
    row Gram (1/r) Z Z^T, the log effective rank of Roy & Vetterli (EUSIPCO
    2007), from one SVD of the centered rows: the Gram is never formed.

    Returns (entropy, degenerate). Degenerate means all rows are equal (or
    the spectrum underflowed); the entropy is then 0 by convention."""
    if len(require_instance("reservoir", reservoir, Reservoir)) < 1:
        raise InvalidInput("reservoir is empty")
    z = require_array("reservoir rows", reservoir.rows())
    if (z == z[0]).all():
        return 0.0, True
    z -= z.mean(axis=0, keepdims=True)
    try:
        s = np.linalg.svd(z, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge on {z.shape[0]}x{z.shape[1]} rows") from exc
    eigvals = s * s / float(len(z))
    if eigvals[0] <= 0.0:
        return 0.0, True
    kept = eigvals[eigvals >= EIG_KEEP_REL * eigvals[0]]
    norm = kept / kept.sum()
    entropy = float(-(norm * np.log(norm)).sum())
    return max(0.0, entropy), False  # on a tie max keeps 0.0, so -0.0 comes out +0.0


def _zscore(arr: np.ndarray) -> tuple[np.ndarray, bool]:
    """(v - mean) / population std across layers; a spread below
    ``ZSCORE_STD_FLOOR`` gives all zeros and the degenerate flag."""
    mean = float(arr.mean())
    std = float(np.sqrt(((arr - mean) ** 2).mean()))
    if std < ZSCORE_STD_FLOOR:
        return np.zeros_like(arr), True
    return (arr - mean) / std, False


@dataclass
class LayerStats:
    """Finalized per-layer profile entry."""

    layer: int
    entropy: float
    variance: float
    stability: float
    z_entropy: float
    z_stability: float
    relevance: float
    entropy_degenerate: bool


def finalize_profile(entropies, entropy_flags, variances, alpha: float,
                     beta: float) -> tuple[list[LayerStats], dict]:
    """Combine per-layer raw statistics into the relevance profile.

    Entropy and stability (the negated variance) are z-scored across layers,
    and each layer's relevance is alpha * z_entropy + beta * z_stability;
    alpha and beta must be non-negative and sum to 1 (InvalidInput
    otherwise). Returns the LayerStats list plus the two z-scores'
    degeneracy flags.
    """
    h = require_array("entropies", entropies, 1)
    v = require_array("variances", variances, 1)
    if not h.shape == v.shape == require_array("entropy flags", entropy_flags).shape:
        raise InvalidInput("entropy, flag and variance vectors must have equal length")
    if h.size < 1:
        raise InvalidInput("finalize_profile expects at least one layer")
    alpha = require_real("alpha", alpha)
    beta = require_real("beta", beta)
    if alpha < 0.0 or beta < 0.0:
        raise InvalidInput(f"weights must be non-negative, got ({alpha}, {beta})")
    if abs(alpha + beta - 1.0) > 1e-9:
        raise InvalidInput(f"weights must sum to 1, got {alpha} + {beta}")
    s = -v
    zh, zh_degenerate = _zscore(h)
    zs, zs_degenerate = _zscore(s)
    r = alpha * zh + beta * zs
    stats = [
        LayerStats(layer=i, entropy=float(h[i]), variance=float(v[i]),
                   stability=float(s[i]), z_entropy=float(zh[i]),
                   z_stability=float(zs[i]), relevance=float(r[i]),
                   entropy_degenerate=bool(entropy_flags[i]))
        for i in range(h.size)
    ]
    flags = {"z_entropy_degenerate": zh_degenerate,
             "z_stability_degenerate": zs_degenerate}
    return stats, flags
