"""Per-layer activation statistics: reservoirs, streaming moments, spectral
entropy, stability, z-scored relevance, and task-direction diagnostics.

Entropy is the Shannon entropy of the normalized eigenvalue spectrum of the
centered activation Gram matrix; stability is the negative element variance.
Both are z-scored across layers and combined into a relevance score that
drives bit allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidConfig, InvalidInput, InvalidShape
from .linalg import SeededRng, Tensor, center_rows, gram_spectrum

DEFAULT_RESERVOIR_CAPACITY = 256
DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.5

# Eigenvalues below this fraction of the largest are rank-deficiency noise
# from centering and are dropped before the spectrum is normalized.
EIG_KEEP_REL = 1e-12

ZSCORE_STD_FLOOR = 1e-12
COSINE_NORM_FLOOR = 1e-12


class Reservoir:
    """Fixed-capacity uniform sample over a stream of activation vectors.

    Algorithm R: the first ``capacity`` vectors fill the buffer; afterwards
    the j-th offer survives with probability capacity/j. Single-writer.
    """

    def __init__(self, capacity: int, width: int, rng: SeededRng):
        if capacity < 1:
            raise InvalidInput(f"reservoir capacity must be >= 1, got {capacity}")
        if width < 1:
            raise InvalidInput(f"reservoir width must be >= 1, got {width}")
        self.capacity = capacity
        self.width = width
        self.rng = rng
        self.seen = 0
        self._buf = np.empty((capacity, width), dtype=np.float64)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def offer(self, v) -> None:
        vec = np.asarray(v, dtype=np.float64).reshape(-1)
        if vec.size != self.width:
            raise InvalidShape(f"expected width {self.width}, got {vec.size}")
        self.seen += 1
        if self._count < self.capacity:
            self._buf[self._count] = vec
            self._count += 1
            return
        j = self.rng.randint(self.seen)
        if j < self.capacity:
            self._buf[j] = vec

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
        arr = np.asarray(values, dtype=np.float64)
        nb = arr.size
        if nb == 0:
            return
        mean_b = float(arr.mean())
        m2_b = float(np.square(arr - mean_b).sum())
        n = self.n + nb
        delta = mean_b - self.mean
        self.mean += delta * nb / n
        self.m2 += m2_b + delta * delta * self.n * nb / n
        self.n = n


def variance_and_stability(m: StreamingMoments) -> tuple[float, float]:
    """Population variance ``m2 / n`` from the running moments, and its negation."""
    if m.n < 1:
        raise InsufficientData("no elements accumulated")
    var = m.m2 / m.n
    return var, -var


def spectral_entropy(reservoir: Reservoir) -> tuple[float, bool]:
    """Entropy of the normalized eigenvalue spectrum of the centered Gram.

    Returns (entropy_nats, degenerate). Degenerate means every eigenvalue
    fell below the keep threshold (all reservoir rows identical), in which
    case the entropy is 0 by convention. This is the log of the effective
    rank of Roy & Vetterli (EUSIPCO 2007).
    """
    if len(reservoir) < 1:
        raise InsufficientData("reservoir is empty")
    eigvals = gram_spectrum(center_rows(Tensor(reservoir.rows())))
    lam_max = float(eigvals[0])
    if lam_max <= 0.0:
        return 0.0, True
    kept = eigvals[eigvals >= EIG_KEEP_REL * lam_max]
    norm = kept / kept.sum()
    entropy = float(-(norm * np.log(norm)).sum())
    return max(entropy, 0.0), False


def zscore(values) -> tuple[np.ndarray, bool]:
    """(v - mean) / population_std across layers.

    Returns (scores, degenerate); a spread below 1e-12 yields all zeros with
    the degenerate flag set.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInput("zscore expects a non-empty 1-D vector")
    mean = float(arr.mean())
    std = float(np.sqrt(((arr - mean) ** 2).mean()))
    if std < ZSCORE_STD_FLOOR:
        return np.zeros_like(arr), True
    return (arr - mean) / std, False


def relevance(z_entropy, z_stability, alpha: float = DEFAULT_ALPHA,
              beta: float = DEFAULT_BETA) -> np.ndarray:
    """Convex combination alpha * z_entropy + beta * z_stability."""
    if alpha < 0.0 or beta < 0.0:
        raise InvalidConfig(f"weights must be non-negative, got ({alpha}, {beta})")
    if abs(alpha + beta - 1.0) > 1e-9:
        raise InvalidConfig(f"weights must sum to 1, got {alpha} + {beta}")
    zh = np.asarray(z_entropy, dtype=np.float64)
    zs = np.asarray(z_stability, dtype=np.float64)
    if zh.shape != zs.shape:
        raise InvalidShape(f"score shapes differ: {zh.shape} vs {zs.shape}")
    return alpha * zh + beta * zs


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

    Returns the LayerStats list plus global degeneracy flags from z-scoring.
    """
    h = np.asarray(entropies, dtype=np.float64)
    v = np.asarray(variances, dtype=np.float64)
    if h.shape != v.shape:
        raise InvalidShape("entropy and variance vectors must have equal length")
    s = -v
    zh, zh_degenerate = zscore(h)
    zs, zs_degenerate = zscore(s)
    r = relevance(zh, zs, alpha, beta)
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


@dataclass
class TaskDirection:
    """Mean activation offset of task prompts against contrast prompts."""

    layer: int
    task_id: str
    vector: np.ndarray
    contrast_policy: str


def task_direction(acts_task: list[np.ndarray], acts_contrast: list[np.ndarray],
                   layer: int, task_id: str,
                   contrast_policy: str = "paired-contrast-task-v1") -> TaskDirection:
    """Average of per-prompt differences, each prompt mean-pooled over tokens."""
    if len(acts_task) != len(acts_contrast):
        raise InvalidInput(
            f"prompt counts differ: {len(acts_task)} vs {len(acts_contrast)}")
    if not acts_task:
        raise InvalidInput("need at least one prompt pair")
    diffs = []
    for a, b in zip(acts_task, acts_contrast):
        pa = np.asarray(a, dtype=np.float64).reshape(-1, np.asarray(a).shape[-1]).mean(axis=0)
        pb = np.asarray(b, dtype=np.float64).reshape(-1, np.asarray(b).shape[-1]).mean(axis=0)
        if pa.shape != pb.shape:
            raise InvalidShape(f"activation widths differ: {pa.shape} vs {pb.shape}")
        diffs.append(pa - pb)
    return TaskDirection(layer=layer, task_id=task_id,
                         vector=np.mean(diffs, axis=0),
                         contrast_policy=contrast_policy)


def cosine_alignment(d1: TaskDirection, d2: TaskDirection) -> tuple[float, bool]:
    """Cosine similarity in [-1, 1]; zero with a degenerate flag when either
    direction has near-zero norm."""
    if d1.vector.size != d2.vector.size:
        raise InvalidShape(
            f"direction widths differ: {d1.vector.size} vs {d2.vector.size}")
    n1 = float(np.linalg.norm(d1.vector))
    n2 = float(np.linalg.norm(d2.vector))
    if n1 < COSINE_NORM_FLOOR or n2 < COSINE_NORM_FLOOR:
        return 0.0, True
    value = float(np.dot(d1.vector, d2.vector) / (n1 * n2))
    return max(-1.0, min(1.0, value)), False
