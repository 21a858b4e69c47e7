"""Bitwidth allocation: relevance-ranked assignment under a bit budget.

The rank allocator pins edge layers at full precision, sorts the remaining
layers by relevance, and hands out 16/8/4 bits by rank fractions. Cost is
counted in weight-bits with pinned layers at 32 bits per weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetInfeasible, InvalidConfig, InvalidInput, ModelTooSmall
from .quant import ADMISSIBLE_BITS

PIN_FULL_BITS = 32
DEFAULT_F16 = 0.15
DEFAULT_F8 = 0.45
DEFAULT_EDGE_PIN = 2


@dataclass(frozen=True)
class CostModel:
    """Per-layer weight counts; plan cost is sum(count * bits)."""

    weight_counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.weight_counts):
            raise InvalidInput("weight counts must be non-negative")

    def cost(self, bits_per_layer) -> int:
        if len(bits_per_layer) != len(self.weight_counts):
            raise InvalidInput(
                f"plan covers {len(bits_per_layer)} layers, cost model has "
                f"{len(self.weight_counts)}")
        return int(sum(c * b for c, b in zip(self.weight_counts, bits_per_layer)))


@dataclass
class BitPlan:
    """Per-layer bitwidths. Pinned layers carry 32 (full precision)."""

    bits: list[int]
    pinned: frozenset[int]
    budget: float | None
    cost: int | None
    source: str = ""

    @property
    def n_layers(self) -> int:
        return len(self.bits)

    def quantized_layers(self) -> list[int]:
        return [i for i, b in enumerate(self.bits) if b != PIN_FULL_BITS]


@dataclass(frozen=True)
class AllocConfig:
    f16: float = DEFAULT_F16
    f8: float = DEFAULT_F8
    edge_pin: int = DEFAULT_EDGE_PIN  # layers pinned per side
    budget: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.f16 <= 1.0 and 0.0 <= self.f8 <= 1.0):
            raise InvalidInput("rank fractions must lie in [0, 1]")
        if self.edge_pin < 0:
            raise InvalidInput("edge_pin must be >= 0")


def allocate_rank(relevance, cfg: AllocConfig = AllocConfig(),
                  cost_model: CostModel | None = None) -> BitPlan:
    """Rank non-edge layers by relevance and assign 16/8/4 bits by fraction.

    The top ceil(f16 * M) layers get 16 bits, the next ceil(f8 * M) get 8,
    the rest 4 (M = non-edge count). Ties break toward the lower layer
    index. Raises BudgetInfeasible when a budget is set and exceeded, and
    InvalidConfig when a budget is set without a cost model to check it.
    """
    if cfg.budget is not None and cost_model is None:
        raise InvalidConfig(f"budget {cfg.budget} needs a cost model to be checked")
    r = np.asarray(relevance, dtype=np.float64)
    n = r.size
    if n < 2 * cfg.edge_pin + 1:
        raise ModelTooSmall(
            f"need at least {2 * cfg.edge_pin + 1} layers for edge_pin="
            f"{cfg.edge_pin}, got {n}")
    pinned = frozenset(range(cfg.edge_pin)) | frozenset(range(n - cfg.edge_pin, n))
    mid = [i for i in range(n) if i not in pinned]
    m = len(mid)
    order = sorted(mid, key=lambda i: (-r[i], i))
    n16 = min(math.ceil(cfg.f16 * m), m)
    n8 = min(math.ceil(cfg.f8 * m), m - n16)
    bits = [PIN_FULL_BITS] * n
    for rank, layer in enumerate(order):
        if rank < n16:
            bits[layer] = 16
        elif rank < n16 + n8:
            bits[layer] = 8
        else:
            bits[layer] = 4
    cost = cost_model.cost(bits) if cost_model is not None else None
    if cfg.budget is not None and cost > cfg.budget:
        raise BudgetInfeasible(
            f"rank plan costs {cost} weight-bits, budget is {cfg.budget}",
            achieved_cost=cost, budget=cfg.budget)
    return BitPlan(bits=bits, pinned=pinned, budget=cfg.budget, cost=cost,
                   source="taq")


def uniform_plan(n_layers: int, bits: int,
                 cost_model: CostModel | None = None) -> BitPlan:
    """Task-agnostic baseline: every layer at the same bitwidth."""
    if bits not in ADMISSIBLE_BITS:
        raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS}, got {bits}")
    plan_bits = [bits] * n_layers
    cost = cost_model.cost(plan_bits) if cost_model is not None else None
    return BitPlan(bits=plan_bits, pinned=frozenset(), budget=None, cost=cost,
                   source=f"uniform:{bits}")


def check_monotone(plan: BitPlan, relevance) -> bool:
    """True when every non-pinned pair with strictly higher relevance has
    at least as many bits."""
    r = np.asarray(relevance, dtype=np.float64)
    free = [i for i in range(plan.n_layers) if i not in plan.pinned]
    for i in free:
        for j in free:
            if r[i] > r[j] and plan.bits[i] < plan.bits[j]:
                return False
    return True
