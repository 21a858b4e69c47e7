"""Bitwidth allocation: relevance-ranked assignment under a bit budget.

The rank allocator pins edge layers at full precision, sorts the remaining
layers by relevance, and hands out 16/8/4 bits by rank fractions. A
``CostModel`` prices every plan in weight-bits, pinned layers at 32 bits,
and refuses any other width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetInfeasible, InvalidInput, require_array, require_instance, require_int,
                     require_real)
from .quant import ADMISSIBLE_BITS, check_bits

PIN_FULL_BITS = 32
DEFAULT_F16 = 0.15
DEFAULT_F8 = 0.45
DEFAULT_EDGE_PIN = 2


@dataclass(frozen=True)
class CostModel:
    """Per-layer weight counts; plan cost is sum(count * bits)."""

    weight_counts: tuple[int, ...]

    def __post_init__(self):
        counts = require_array("weight counts", self.weight_counts, 1, integer=True)
        if (counts < 0).any():
            raise InvalidInput(f"weight counts must be non-negative, got {self.weight_counts}")
        object.__setattr__(self, "weight_counts", tuple(counts.tolist()))

    def cost(self, bits_per_layer) -> int:
        bits = require_array("bits", bits_per_layer, 1, integer=True).tolist()
        if len(bits) != len(self.weight_counts):
            raise InvalidInput(
                f"plan covers {len(bits)} layers, cost model has {len(self.weight_counts)}")
        if bad := [b for b in bits if b not in (*ADMISSIBLE_BITS, PIN_FULL_BITS)]:
            raise InvalidInput(f"bits must be one of {ADMISSIBLE_BITS} or {PIN_FULL_BITS}, "
                               f"got {bad[0]}")
        return sum(c * b for c, b in zip(self.weight_counts, bits))


@dataclass
class BitPlan:
    """Per-layer bitwidths. Pinned layers carry 32 (full precision)."""

    bits: list[int]
    pinned: frozenset[int]
    cost: int

    @property
    def n_layers(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class AllocConfig:
    f16: float = DEFAULT_F16
    f8: float = DEFAULT_F8
    edge_pin: int = DEFAULT_EDGE_PIN  # layers pinned per side
    budget: float | None = None

    def __post_init__(self):
        if not all(0.0 <= require_real(n, getattr(self, n)) <= 1.0 for n in ("f16", "f8")):
            raise InvalidInput("rank fractions must lie in [0, 1]")
        require_int("edge_pin", self.edge_pin, 0)
        if self.budget is not None:  # None is the only way to say "no budget"
            require_real("budget", self.budget)


def allocate_rank(relevance, cfg: AllocConfig, cost_model: CostModel) -> BitPlan:
    """Rank non-edge layers by relevance and assign 16/8/4 bits by fraction.

    The top ceil(f16 * M) layers get 16 bits, the next ceil(f8 * M) get 8,
    the rest 4 (M = non-edge count). Ties break toward the lower layer
    index. The plan is priced by ``cost_model``; raises BudgetInfeasible
    when a budget is set and that cost exceeds it.
    """
    require_instance("cfg", cfg, AllocConfig)
    require_instance("cost_model", cost_model, CostModel)
    r = require_array("relevance", relevance, 1)
    n = r.size
    if n < 2 * cfg.edge_pin + 1:
        raise InvalidInput(
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
        bits[layer] = 16 if rank < n16 else 8 if rank < n16 + n8 else 4
    cost = cost_model.cost(bits)
    if cfg.budget is not None and cost > cfg.budget:
        raise BudgetInfeasible(
            f"rank plan costs {cost} weight-bits, budget is {cfg.budget}",
            achieved_cost=cost, budget=cfg.budget)
    return BitPlan(bits=bits, pinned=pinned, cost=cost)


def uniform_plan(n_layers: int, bits: int, cost_model: CostModel) -> BitPlan:
    """Task-agnostic baseline: every layer at ``bits``, priced by ``cost_model``."""
    require_int("n_layers", n_layers, 1)
    check_bits(bits)
    plan_bits = [bits] * n_layers
    return BitPlan(bits=plan_bits, pinned=frozenset(), cost=cost_model.cost(plan_bits))


def check_monotone(plan: BitPlan, relevance) -> bool:
    """True when every non-pinned pair with strictly higher relevance has
    at least as many bits."""
    r = require_array("relevance", relevance, 1)
    if r.size != require_instance("plan", plan, BitPlan).n_layers:
        raise InvalidInput(f"relevance has {r.size} entries, plan has {plan.n_layers} layers")
    free = [i for i in range(plan.n_layers) if i not in plan.pinned]
    r, b = r[free], np.asarray(plan.bits)[free]
    return not ((r[:, None] > r) & (b[:, None] < b)).any()
