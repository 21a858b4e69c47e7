"""Group-wise asymmetric uniform quantization of weight tensors.

Weights are flattened row-major and cut into consecutive groups (last group
may be short). Each group gets its own scale/zero-point fitted from its
min/max range. A ``QTensor`` holds the codes, one scale and zero-point per
group, and the dequantized weights, computed once at construction, that
execution uses (dequantize-then-multiply model). Codes are integers in
[0, 2^bits - 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptCodes, InvalidInput, InvalidShape
from .linalg import Tensor

ADMISSIBLE_BITS = (4, 8, 16)
DEFAULT_GROUP_SIZE = 128
SCALE_FLOOR = 1e-12


def _check_format(bits: int, group_size: int) -> None:
    if bits not in ADMISSIBLE_BITS:
        raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS}, got {bits}")
    if group_size < 1:
        raise InvalidInput(f"group_size must be >= 1, got {group_size}")


def _per_element(per_group: np.ndarray, group_size: int, n: int) -> np.ndarray:
    """Repeat each group's value over its elements; the last group may be short."""
    return np.repeat(per_group, group_size)[:n]


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round is half-to-even; codes must be platform-stable.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass
class QTensor:
    """Group-wise quantized weight matrix.

    ``codes`` is the flat row-major code vector; group g covers codes
    [g * group_size, (g+1) * group_size) and dequantizes as
    ``codes * scale[g] + zero_point[g]``. ``weights`` is that dequantization,
    shaped ``rows x cols``.
    """

    codes: np.ndarray
    scale: np.ndarray
    zero_point: np.ndarray
    bits: int
    group_size: int
    rows: int
    cols: int
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_format(self.bits, self.group_size)
        self.codes = np.asarray(self.codes, dtype=np.int64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.zero_point = np.asarray(self.zero_point, dtype=np.float64)
        n = self.rows * self.cols
        n_groups = math.ceil(n / self.group_size)
        if (self.rows < 1 or self.cols < 1 or self.codes.shape != (n,)
                or self.scale.shape != (n_groups,) or self.zero_point.shape != (n_groups,)):
            raise InvalidShape(
                f"{self.rows}x{self.cols} in groups of {self.group_size} needs {n} codes "
                f"and {n_groups} scales and zero-points, got {self.codes.shape}, "
                f"{self.scale.shape} and {self.zero_point.shape}")
        if not np.all(self.scale > 0.0):
            raise InvalidInput("every scale must be positive")
        max_code = (1 << self.bits) - 1
        if self.codes.min() < 0 or self.codes.max() > max_code:
            raise CorruptCodes(f"codes outside [0, {max_code}] for bits={self.bits}")
        scale = _per_element(self.scale, self.group_size, n)
        zero = _per_element(self.zero_point, self.group_size, n)
        self.weights = (self.codes.astype(np.float64) * scale + zero).reshape(self.rows, self.cols)

    def dequantized(self) -> np.ndarray:
        """The dequantized ``rows x cols`` weights (the ``weights`` array)."""
        return self.weights


def quantize_tensor(w: Tensor, bits: int, group_size: int = DEFAULT_GROUP_SIZE) -> QTensor:
    """Quantize a weight matrix with a min-max fit per group, all groups at once.

    The scale spans the group range (floored at 1e-12, so a constant group
    round-trips exactly) and the zero-point is the group min. Codes are
    clamp(round((x - z) / s), 0, 2^bits - 1) with half-away-from-zero
    rounding. A group range too wide for float64 is rejected.
    """
    _check_format(bits, group_size)
    flat = w.values.reshape(-1)
    starts = np.arange(0, flat.size, group_size)
    lo = np.minimum.reduceat(flat, starts)
    hi = np.maximum.reduceat(flat, starts)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    bad = np.flatnonzero(~np.isfinite(span))
    if bad.size:
        g = bad[0]
        raise InvalidInput(f"group {g} range [{lo[g]}, {hi[g]}] is not finite")
    max_code = (1 << bits) - 1
    scale = np.maximum(span / max_code, SCALE_FLOOR)
    t = (flat - _per_element(lo, group_size, flat.size)) / _per_element(scale, group_size, flat.size)
    codes = np.clip(_round_half_away(t), 0, max_code).astype(np.int64)
    return QTensor(codes=codes, scale=scale, zero_point=lo, bits=bits,
                   group_size=group_size, rows=w.rows, cols=w.cols)


def quant_error(w: Tensor, q: QTensor) -> dict:
    """Element-wise max |delta| and relative Frobenius error of a quantization."""
    if (w.rows, w.cols) != (q.rows, q.cols):
        raise InvalidShape(
            f"shape mismatch: tensor {w.rows}x{w.cols} vs qtensor {q.rows}x{q.cols}")
    delta = w.values - q.weights
    denom = float(np.sqrt(np.sum(w.values ** 2)))
    num = float(np.sqrt(np.sum(delta ** 2)))
    if denom == 0.0:
        frob_rel = 0.0 if num == 0.0 else math.inf
    else:
        frob_rel = num / denom
    return {"max_abs": float(np.max(np.abs(delta))), "frobenius_rel": frob_rel}
