"""Dense float64 linear algebra and the deterministic RNG used by every stage.

All analysis math runs in 64-bit floats. Gram spectra come from LAPACK's
SVD (through numpy) of the data matrix; the Gram itself is never formed. The
RNG is a splitmix-style 64-bit generator with Box-Muller normals, so value
streams are identical across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInput, InvalidShape

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DERIVE_SALT = 0xD1B54A32D192ED03


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps silently, unlike numpy scalars.
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


@dataclass
class Tensor:
    """Dense 2-D float64 matrix with an optional role label.

    The wrapped array is treated as immutable; callers must not mutate it
    after construction. All values are required to be finite.
    """

    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.ndim != 2:
            raise InvalidShape(f"Tensor must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidShape(f"Tensor dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("Tensor values must be finite")
        self.values = arr

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


class SeededRng:
    """Splitmix-style 64-bit generator; identical seeds give identical streams.

    Single-owner: one consumer at a time. ``derive`` creates an independent
    child stream from the current state without advancing it.
    """

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo reduction; bias is negligible
        for the n used here and determinism is what matters."""
        if n <= 0:
            raise InvalidInput(f"randint bound must be positive, got {n}")
        return self.next_u64() % n

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller, vectorized.

        Scalar and batched calls consume the identical underlying u64
        stream, so any call pattern with the same total count yields the
        same values.
        """
        if n < 0:
            raise InvalidInput(f"draw count must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64)
        pos = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            pos = 1
        remaining = n - pos
        if remaining <= 0:
            return out
        pairs = (remaining + 1) // 2
        idx = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
        states = np.uint64(self._state) + idx * np.uint64(_GAMMA)
        self._state = (self._state + 2 * pairs * _GAMMA) & _MASK
        z = _mix64_vec(states)
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1).
        u1 = ((z[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
        u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        interleaved = np.empty(2 * pairs, dtype=np.float64)
        interleaved[0::2] = r * np.cos(theta)
        interleaved[1::2] = r * np.sin(theta)
        out[pos:] = interleaved[:remaining]
        if remaining % 2 == 1:
            self._spare = float(interleaved[remaining])
        return out

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def derive(self, tag: int) -> "SeededRng":
        """Independent child stream keyed by ``tag``; does not advance self."""
        if tag < 0:
            raise InvalidInput(f"derive tag must be >= 0, got {tag}")
        mixed = _mix64((self._state + (tag + 1) * _GAMMA) & _MASK)
        child_seed = _mix64(mixed ^ _DERIVE_SALT)
        return SeededRng(child_seed)


def center_rows(x: Tensor) -> Tensor:
    """Subtract the per-column mean so output column means are zero."""
    centered = x.values - x.values.mean(axis=0, keepdims=True)
    return Tensor(centered, label=x.label)


def gram_spectrum(z: Tensor) -> np.ndarray:
    """Eigenvalues of the row Gram (1/r) Z Z^T, sorted descending.

    Computed as squared singular values of Z, so the Gram is never formed:
    the result is non-negative by construction and has min(r, d) entries;
    the remaining eigenvalues of an r x r Gram with r > d are exactly zero.
    """
    try:
        s = np.linalg.svd(z.values, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge on a {z.rows}x{z.cols} matrix") from exc
    return s * s / float(z.rows)
