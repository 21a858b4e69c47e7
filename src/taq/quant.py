"""Group-wise asymmetric uniform quantization of weight tensors.

Weights are flattened row-major and cut into consecutive groups. Fitting,
encoding and dequantizing work on one ``(n_groups, size)`` view of the flat
tensor, ``size = min(group_size, n)``, so a group size of at least n gives
one group. The short last group is padded with its own last element, which
moves neither its min nor its max. Each group gets its own scale/zero-point
fitted from its min/max range. A ``QTensor`` holds the codes, one scale and
zero-point per group, and the dequantized weights, computed once at
construction, that execution uses (dequantize-then-multiply model). Codes
are integers in [0, 2^bits - 1], stored in the narrowest unsigned type that
holds them, ``np.min_scalar_type(2**bits - 1)``: one byte per code at 4 and
8 bits (uint8), two at 16 (uint16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, require_array, require_instance, require_int
from .linalg import Tensor

ADMISSIBLE_BITS = (4, 8, 16)
DEFAULT_GROUP_SIZE = 128
SCALE_FLOOR = 1e-12


def check_bits(bits: int) -> None:
    """Raises InvalidInput unless ``bits`` is one of ``ADMISSIBLE_BITS``."""
    if require_int("bits", bits) not in ADMISSIBLE_BITS:
        raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS}, got {bits}")


def _group_view(flat: np.ndarray, group_size: int) -> np.ndarray:
    """``flat`` as one row per group, the short last group padded with its
    own last element."""
    size = min(group_size, flat.size)
    pad = -flat.size % size
    if pad:
        flat = np.concatenate((flat, np.full(pad, flat[-1])))
    return flat.reshape(-1, size)


@dataclass
class QTensor:
    """Group-wise quantized weight matrix.

    ``codes`` is the flat row-major code vector; group g covers codes
    [g * group_size, (g+1) * group_size) and dequantizes as
    ``codes * scale[g] + zero_point[g]``. ``weights`` is that dequantization,
    shaped ``rows x cols``.

    ``codes`` may be given as any integer array or sequence. It is checked
    against [0, 2^bits - 1] as given and only then cast to its stored type,
    uint8 for 4 and 8 bits and uint16 for 16, so no code wraps on the way in.
    Fractional, bool and non-numeric codes are refused, as are non-finite
    scales and zero-points.
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
        check_bits(self.bits)
        require_int("group_size", self.group_size, 1)
        codes = require_array("codes", self.codes, integer=True)
        self.scale = require_array("scales", self.scale)
        self.zero_point = require_array("zero-points", self.zero_point)
        n = require_int("rows", self.rows) * require_int("cols", self.cols)
        n_groups = -(-n // self.group_size)
        if (self.rows < 1 or self.cols < 1 or codes.shape != (n,)
                or self.scale.shape != (n_groups,) or self.zero_point.shape != (n_groups,)):
            raise InvalidInput(
                f"{self.rows}x{self.cols} in groups of {self.group_size} needs {n} codes "
                f"and {n_groups} scales and zero-points, got {codes.shape}, "
                f"{self.scale.shape} and {self.zero_point.shape}")
        if not (self.scale > 0.0).all():
            raise InvalidInput("every scale must be positive")
        max_code = (1 << self.bits) - 1
        if codes.min() < 0 or codes.max() > max_code:
            raise InvalidInput(f"codes outside [0, {max_code}] for bits={self.bits}")
        self.codes = codes.astype(np.min_scalar_type(max_code), copy=False)
        weights = (_group_view(self.codes.astype(np.float64), self.group_size)
                   * self.scale[:, None] + self.zero_point[:, None])
        self.weights = weights.reshape(-1)[:n].reshape(self.rows, self.cols)


def quantize_tensor(w: Tensor, bits: int, group_size: int = DEFAULT_GROUP_SIZE) -> QTensor:
    """Quantize a weight matrix with a min-max fit per group, all groups at once.

    The scale spans the group range (floored at 1e-12, so a constant group
    round-trips exactly) and the zero-point is the group min. Codes are
    clamp(floor((x - z) / s + 0.5), 0, 2^bits - 1), which rounds ties away
    from zero since x - z >= 0. A group range too wide for float64 is
    rejected.
    """
    check_bits(bits)
    require_int("group_size", group_size, 1)
    groups = _group_view(require_instance("w", w, Tensor).values.reshape(-1), group_size)
    lo, hi = groups.min(axis=1), groups.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    bad = np.flatnonzero(~np.isfinite(span))
    if bad.size:
        g = bad[0]
        raise InvalidInput(f"group {g} range [{lo[g]}, {hi[g]}] is not finite")
    max_code = (1 << bits) - 1
    scale = np.maximum(span / max_code, SCALE_FLOOR)
    t = (groups - lo[:, None]) / scale[:, None]
    codes = np.clip(np.floor(t + 0.5), 0, max_code).astype(np.min_scalar_type(max_code))
    return QTensor(codes=codes.reshape(-1)[:w.rows * w.cols], scale=scale, zero_point=lo,
                   bits=bits, group_size=group_size, rows=w.rows, cols=w.cols)


def quant_error(w: Tensor, q: QTensor) -> dict:
    """Relative Frobenius error of a quantization: ||w - q.weights|| / ||w||."""
    require_instance("w", w, Tensor)
    if (w.rows, w.cols) != (require_instance("q", q, QTensor).rows, q.cols):
        raise InvalidInput(
            f"shape mismatch: tensor {w.rows}x{w.cols} vs qtensor {q.rows}x{q.cols}")
    delta = w.values - q.weights
    denom = float(np.sqrt(np.sum(w.values ** 2)))
    num = float(np.sqrt(np.sum(delta ** 2)))
    if denom == 0.0:
        return {"frobenius_rel": 0.0 if num == 0.0 else math.inf}
    return {"frobenius_rel": num / denom}
