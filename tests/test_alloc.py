import math

import numpy as np
import pytest

from taq.alloc import (
    AllocConfig,
    BitPlan,
    CostModel,
    allocate_rank,
    check_monotone,
    uniform_plan,
)
from taq.errors import BudgetInfeasible, InvalidConfig, ModelTooSmall
from taq.linalg import SeededRng

from oracles import knapsack_exhaustive


def sort_then_slice_oracle(relevance, f16, f8, edge_pin):
    """Independent rank-rule implementation: sort non-edge layers by
    (-R, index), slice by ceil fractions."""
    n = len(relevance)
    pinned = set(range(edge_pin)) | set(range(n - edge_pin, n))
    mid = sorted((i for i in range(n) if i not in pinned),
                 key=lambda i: (-relevance[i], i))
    m = len(mid)
    n16 = min(math.ceil(f16 * m), m)
    n8 = min(math.ceil(f8 * m), m - n16)
    bits = {}
    for rank, layer in enumerate(mid):
        bits[layer] = 16 if rank < n16 else (8 if rank < n16 + n8 else 4)
    for i in pinned:
        bits[i] = 32
    return [bits[i] for i in range(n)]


class TestAllocateRank:
    def test_default_n8_example(self):
        # 4 non-edge layers: ceil(0.15*4)=1 at 16-bit, ceil(0.45*4)=2 at 8-bit
        r = [0.0, 0.0, 0.9, 0.1, 0.5, 0.3, 0.0, 0.0]
        plan = allocate_rank(r)
        assert plan.bits == [32, 32, 16, 4, 8, 8, 32, 32]
        assert plan.pinned == frozenset({0, 1, 6, 7})

    def test_tie_break_by_index(self):
        r = [0.0] * 9
        plan = allocate_rank(r)
        # 5 non-edge layers (2..6): 1 at 16, 3 at 8, 1 at 4, lowest index first
        assert plan.bits[2:7] == [16, 8, 8, 8, 4]
        assert allocate_rank(r).bits == plan.bits

    def test_matches_sort_then_slice_oracle(self):
        rng = SeededRng(61)
        for trial in range(50):
            n = 12
            r = rng.normals(n)
            plan = allocate_rank(r)
            assert plan.bits == sort_then_slice_oracle(r, 0.15, 0.45, 2)

    def test_too_small(self):
        with pytest.raises(ModelTooSmall):
            allocate_rank([1.0, 2.0, 3.0, 4.0])

    def test_budget_infeasible(self):
        r = np.zeros(8)
        cost = CostModel(tuple([100] * 8))
        cfg = AllocConfig(budget=100)
        with pytest.raises(BudgetInfeasible) as exc:
            allocate_rank(r, cfg, cost)
        assert exc.value.achieved_cost > 100

    def test_budget_without_cost_model_rejected(self):
        with pytest.raises(InvalidConfig):
            allocate_rank(np.zeros(8), AllocConfig(budget=10))

    def test_monotone_invariant_random(self):
        rng = SeededRng(67)
        for trial in range(100):
            n = 5 + rng.randint(28)
            r = rng.normals(n)
            plan = allocate_rank(r)
            assert check_monotone(plan, r)


class TestPlanCost:
    def test_all_4bit_arithmetic(self):
        plan = uniform_plan(5, 4)
        assert CostModel((100,) * 5).cost(plan.bits) == 2000

    def test_pointwise_dominance(self):
        cost = CostModel((10, 20, 30))
        lo = BitPlan(bits=[4, 8, 4], pinned=frozenset(), budget=None, cost=None)
        hi = BitPlan(bits=[8, 8, 16], pinned=frozenset(), budget=None, cost=None)
        assert cost.cost(lo.bits) <= cost.cost(hi.bits)

    def test_mixed_plan_hand_sum(self):
        plan = BitPlan(bits=[32, 16, 8, 4], pinned=frozenset({0}), budget=None,
                       cost=None)
        cost = CostModel((3, 5, 7, 11))
        assert cost.cost(plan.bits) == 3 * 32 + 5 * 16 + 7 * 8 + 11 * 4

    def test_pinned_counted_at_32(self):
        r = [0.0] * 8
        plan = allocate_rank(r)
        cost = CostModel((1,) * 8)
        assert cost.cost(plan.bits) == 4 * 32 + 16 + 2 * 8 + 4


class TestKnapsackExact:
    def test_unconstrained_all_max_bits(self):
        assert knapsack_exhaustive([1.0, 2.0, 3.0], (1, 1, 1), math.inf) == [16, 16, 16]

    def test_tight_budget_all_low(self):
        assert knapsack_exhaustive([1.0, 2.0, 3.0], (10, 10, 10), 120) == [4, 4, 4]

    def test_infeasible(self):
        assert knapsack_exhaustive([1.0], (10,), 39) is None

    def test_optimum_monotone_and_matches_rank(self):
        # with equal weight counts and a rank-consistent gain, the optimum is
        # sort-then-slice at its own level counts
        rng = SeededRng(71)
        for trial in range(20):
            n = 6
            r = np.abs(rng.normals(n)) + 0.1
            cost = CostModel((10,) * n)
            budget = 10 * (4 * n + rng.randint(12 * n))
            bits = knapsack_exhaustive(r, cost.weight_counts, budget)
            plan = BitPlan(bits=bits, pinned=frozenset(), budget=budget, cost=None)
            assert check_monotone(plan, r)
            cfg = AllocConfig(f16=bits.count(16) / n, f8=bits.count(8) / n, edge_pin=0)
            rank_plan = allocate_rank(r, cfg, cost)
            assert rank_plan.bits == bits


class TestUniformPlan:
    def test_cost(self):
        plan = uniform_plan(8, 16, CostModel((2,) * 8))
        assert plan.cost == 8 * 16 * 2
        assert plan.source == "uniform:16"

    def test_bad_bits(self):
        from taq.errors import InvalidInput
        with pytest.raises(InvalidInput):
            uniform_plan(8, 5)
