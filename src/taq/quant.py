"""Group-wise asymmetric uniform quantization of weight tensors.

Weights are flattened row-major and cut into consecutive groups (last group
may be short). Each group gets its own scale/zero-point fitted from its
min/max range. Codes are integers in [0, 2^bits - 1]; execution uses the
cached dequantized tensor (dequantize-then-multiply model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CorruptCodes, InvalidInput, InvalidShape
from .linalg import Tensor

ADMISSIBLE_BITS = (4, 8, 16)
DEFAULT_GROUP_SIZE = 128
SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class QuantParams:
    """Affine quantizer parameters for one weight group."""

    scale: float
    zero_point: float
    bits: int

    def __post_init__(self):
        if self.bits not in ADMISSIBLE_BITS:
            raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS}, got {self.bits}")
        if not self.scale > 0.0:
            raise InvalidInput(f"scale must be positive, got {self.scale}")

    @property
    def max_code(self) -> int:
        return (1 << self.bits) - 1


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round is half-to-even; codes must be platform-stable.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def fit_minmax(group, bits: int) -> QuantParams:
    """Min-max parameters: scale spans the group range, zero-point is the min.

    Constant groups hit the 1e-12 scale floor and round-trip exactly. Groups
    with a non-finite value, or a range too wide for float64, are rejected.
    """
    arr = np.asarray(group, dtype=np.float64)
    if arr.size == 0:
        raise InvalidInput("cannot fit quantizer parameters to an empty group")
    if bits not in ADMISSIBLE_BITS:
        raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS}, got {bits}")
    lo = float(arr.min())
    hi = float(arr.max())
    if not math.isfinite(hi - lo):
        raise InvalidInput(f"group range [{lo}, {hi}] is not finite")
    scale = max((hi - lo) / ((1 << bits) - 1), SCALE_FLOOR)
    return QuantParams(scale=scale, zero_point=lo, bits=bits)


def quantize_group(group, p: QuantParams) -> np.ndarray:
    """Integer codes for one group: clamp(round((x - z) / s), 0, 2^bits - 1).

    Rounding is half-away-from-zero; out-of-range values saturate.
    """
    arr = np.asarray(group, dtype=np.float64)
    t = (arr - p.zero_point) / p.scale
    codes = _round_half_away(t)
    return np.clip(codes, 0, p.max_code).astype(np.int64)


def dequantize_group(codes, p: QuantParams) -> np.ndarray:
    """Reconstruct values as code * scale + zero_point."""
    arr = np.asarray(codes, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > p.max_code):
        raise CorruptCodes(
            f"codes outside [0, {p.max_code}] for bits={p.bits}")
    return arr.astype(np.float64) * p.scale + p.zero_point


@dataclass
class QTensor:
    """Group-wise quantized weight tensor.

    ``codes`` is the flat row-major code vector; ``params[g]`` covers codes
    [g * group_size, (g+1) * group_size). ``dequant_cache``, when present,
    always equals the full dequantization bit-exactly; calibration updates
    params, codes, and the cache slice together.
    """

    codes: np.ndarray
    group_size: int
    params: list[QuantParams]
    rows: int
    cols: int
    dequant_cache: np.ndarray | None = None

    @property
    def n_groups(self) -> int:
        return len(self.params)

    def group_slice(self, g: int) -> slice:
        start = g * self.group_size
        return slice(start, min(start + self.group_size, self.codes.size))

    def dequantized(self) -> np.ndarray:
        """Full dequantization; returns the cache when present."""
        if self.dequant_cache is not None:
            return self.dequant_cache
        flat = np.empty(self.codes.size, dtype=np.float64)
        for g, p in enumerate(self.params):
            sl = self.group_slice(g)
            flat[sl] = dequantize_group(self.codes[sl], p)
        return flat.reshape(self.rows, self.cols)

    def recompute_cache(self) -> np.ndarray:
        """Dequantize from codes ignoring any existing cache."""
        cache, self.dequant_cache = self.dequant_cache, None
        fresh = self.dequantized()
        self.dequant_cache = cache
        return fresh

    def set_group(self, g: int, p: QuantParams, codes: np.ndarray) -> None:
        """Replace one group's parameters and codes, keeping the cache coherent."""
        sl = self.group_slice(g)
        if codes.size != sl.stop - sl.start:
            raise InvalidShape(f"group {g} expects {sl.stop - sl.start} codes, got {codes.size}")
        self.params[g] = p
        self.codes[sl] = codes
        if self.dequant_cache is not None:
            flat = self.dequant_cache.reshape(-1)
            flat[sl] = dequantize_group(codes, p)


def quantize_tensor(w: Tensor, bits: int, group_size: int = DEFAULT_GROUP_SIZE,
                    cache: bool = True) -> QTensor:
    """Quantize a weight matrix group by group with min-max fitting."""
    if group_size < 1:
        raise InvalidInput(f"group_size must be >= 1, got {group_size}")
    flat = w.values.reshape(-1)
    n_groups = math.ceil(flat.size / group_size)
    codes = np.empty(flat.size, dtype=np.int64)
    params: list[QuantParams] = []
    for g in range(n_groups):
        start = g * group_size
        sl = slice(start, min(start + group_size, flat.size))
        p = fit_minmax(flat[sl], bits)
        codes[sl] = quantize_group(flat[sl], p)
        params.append(p)
    qt = QTensor(codes=codes, group_size=group_size, params=params,
                 rows=w.rows, cols=w.cols)
    if cache:
        qt.dequant_cache = qt.recompute_cache()
    return qt


def quant_error(w: Tensor, q: QTensor) -> dict:
    """Element-wise max |delta| and relative Frobenius error of a quantization."""
    if (w.rows, w.cols) != (q.rows, q.cols):
        raise InvalidShape(
            f"shape mismatch: tensor {w.rows}x{w.cols} vs qtensor {q.rows}x{q.cols}")
    delta = w.values - q.dequantized()
    denom = float(np.sqrt(np.sum(w.values ** 2)))
    num = float(np.sqrt(np.sum(delta ** 2)))
    if denom == 0.0:
        frob_rel = 0.0 if num == 0.0 else math.inf
    else:
        frob_rel = num / denom
    return {"max_abs": float(np.max(np.abs(delta))), "frobenius_rel": frob_rel}


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Little-endian bit-packing, padded to a byte boundary per group."""
    arr = np.asarray(codes, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > (1 << bits) - 1):
        raise CorruptCodes(f"codes outside [0, {(1 << bits) - 1}] for bits={bits}")
    if bits == 4:
        vals = arr.astype(np.uint8)
        if vals.size % 2 == 1:
            vals = np.concatenate([vals, np.zeros(1, dtype=np.uint8)])
        packed = vals[0::2] | (vals[1::2] << np.uint8(4))
        return packed.tobytes()
    if bits == 8:
        return arr.astype(np.uint8).tobytes()
    if bits == 16:
        return arr.astype("<u2").tobytes()
    raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS}, got {bits}")


def unpack_codes(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of pack_codes for a group of ``count`` codes."""
    if bits == 4:
        raw = np.frombuffer(data, dtype=np.uint8)
        low = raw & np.uint8(0x0F)
        high = raw >> np.uint8(4)
        out = np.empty(raw.size * 2, dtype=np.int64)
        out[0::2] = low
        out[1::2] = high
        return out[:count].copy()
    if bits == 8:
        return np.frombuffer(data, dtype=np.uint8)[:count].astype(np.int64)
    if bits == 16:
        return np.frombuffer(data, dtype="<u2")[:count].astype(np.int64)
    raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS}, got {bits}")


def packed_size(count: int, bits: int) -> int:
    return (count * bits + 7) // 8
