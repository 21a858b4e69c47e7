"""The finite 2-D float64 ``Tensor`` and the deterministic RNG used by every stage.

The RNG is a splitmix-style 64-bit generator with Box-Muller normals, so
value streams are identical across platforms. Its whole state is a counter:
``normals`` keeps no spare draw, so an odd count drops the second normal of
its last pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, require_array, require_int

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DERIVE_SALT = 0xD1B54A32D192ED03


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@dataclass
class Tensor:
    """Dense 2-D float64 matrix with an optional role label.

    The wrapped array is treated as immutable; callers must not mutate it
    after construction. All values are required to be finite.
    """

    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(require_array("Tensor values", self.values, 2))
        if 0 in self.values.shape:
            raise InvalidInput(f"Tensor dimensions must be positive, got {self.values.shape}")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


class SeededRng:
    """Splitmix-style 64-bit generator; identical seeds give identical streams.

    ``next_u64s(n)`` is the vector form of ``next_u64``: the same n values
    and the same stream position after them. Single-owner: one consumer at a
    time. ``normals(2k + 1)`` is the prefix of ``normals(2k + 2)``, and
    both leave the stream at the same position. ``derive`` creates an
    independent child stream from the current state without advancing it.
    Seeds, counts, bounds and tags may be Python or numpy integers, with the
    same stream from either; anything else raises InvalidInput.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = require_int("seed", seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def randints(self, bounds) -> np.ndarray:
        """One uniform integer in [0, b) per bound b, ``next_u64() % b``: one
        draw per bound, in order. Modulo reduction; its bias is negligible
        for the bounds used here, and determinism is what matters."""
        b = require_array("randints bounds", bounds, 1, integer=True)
        if b.size and b.min() <= 0:
            raise InvalidInput("randints bounds must be positive")
        return (self.next_u64s(b.size) % b.astype(np.uint64)).astype(np.int64)

    def next_u64s(self, n: int) -> np.ndarray:
        """The next n ``next_u64`` values, as one array. uint64 array
        arithmetic wraps silently, unlike numpy scalars."""
        n = require_int("draw count", n, 0)
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller, vectorized.

        Each pair of u64 draws gives two normals. An odd n drops the second
        normal of its last pair, so a call always consumes 2 * ceil(n / 2)
        draws and the next call starts on a fresh pair.
        """
        n = require_int("draw count", n, 0)
        z = self.next_u64s(2 * ((n + 1) // 2))
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1).
        u1 = ((z[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
        u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(z.size, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def derive(self, tag: int) -> "SeededRng":
        """Independent child stream keyed by ``tag``; does not advance self."""
        tag = require_int("derive tag", tag, 0)
        mixed = _mix64((self._state + (tag + 1) * _GAMMA) & _MASK)
        child_seed = _mix64(mixed ^ _DERIVE_SALT)
        return SeededRng(child_seed)
