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
from taq.errors import BudgetInfeasible, InvalidInput
from taq.linalg import SeededRng, Tensor
from taq.quant import quant_error, quantize_tensor

from oracles import knapsack_exhaustive, monotone_pairwise_loop, randint


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


def rank(relevance, cfg=AllocConfig()):
    """allocate_rank priced by one weight per layer."""
    return allocate_rank(relevance, cfg, CostModel((1,) * len(relevance)))


class TestAllocateRank:
    def test_default_n8_example(self):
        # 4 non-edge layers: ceil(0.15*4)=1 at 16-bit, ceil(0.45*4)=2 at 8-bit
        r = [0.0, 0.0, 0.9, 0.1, 0.5, 0.3, 0.0, 0.0]
        plan = rank(r)
        assert plan.bits == [32, 32, 16, 4, 8, 8, 32, 32]
        assert plan.pinned == frozenset({0, 1, 6, 7})

    def test_tie_break_by_index(self):
        r = [0.0] * 9
        plan = rank(r)
        # 5 non-edge layers (2..6): 1 at 16, 3 at 8, 1 at 4, lowest index first
        assert plan.bits[2:7] == [16, 8, 8, 8, 4]
        assert rank(r).bits == plan.bits

    def test_matches_sort_then_slice_oracle(self):
        rng = SeededRng(61)
        for trial in range(50):
            n = 12
            r = rng.normals(n)
            plan = rank(r)
            assert plan.bits == sort_then_slice_oracle(r, 0.15, 0.45, 2)

    def test_too_small(self):
        with pytest.raises(InvalidInput, match="need at least 5 layers for edge_pin=2, got 4"):
            rank([1.0, 2.0, 3.0, 4.0])

    def test_budget_infeasible(self):
        r = np.zeros(8)
        cost = CostModel(tuple([100] * 8))
        cfg = AllocConfig(budget=100)
        with pytest.raises(BudgetInfeasible) as exc:
            allocate_rank(r, cfg, cost)
        assert exc.value.achieved_cost > 100

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "beyond-float"])
    def test_non_finite_budget_rejected(self, budget):
        # None is the only way to say "no budget"
        with pytest.raises(InvalidInput):
            AllocConfig(budget=budget)

    def test_fractional_edge_pin_rejected(self):
        with pytest.raises(InvalidInput):
            AllocConfig(edge_pin=1.5)

    @pytest.mark.parametrize("relevance", [
        [0.0, 0.1, float("nan"), 0.3, 0.4, 0.5, 0.6, 0.7],
        [0.0, 0.1, 0.2, float("inf"), 0.4, 0.5, 0.6, 0.7],
        [[0.0, 0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8, 0.9]],
        list("abcdefgh"),
        [[0.0, 0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
    ], ids=["nan", "inf", "2-d", "strings", "ragged"])
    def test_bad_relevance_rejected(self, relevance):
        with pytest.raises(InvalidInput):
            rank(relevance)

    def test_check_monotone_short_relevance_rejected(self):
        plan = rank(np.arange(8.0))
        with pytest.raises(InvalidInput):
            check_monotone(plan, np.arange(5.0))

    def test_monotone_invariant_random(self):
        rng = SeededRng(67)
        for trial in range(100):
            n = 5 + randint(rng, 28)
            r = rng.normals(n)
            plan = rank(r)
            assert check_monotone(plan, r)

    def test_check_monotone_matches_pairwise_loop(self):
        # arbitrary plans, tied relevance and random pins, so both answers occur
        rng = SeededRng(71)
        answers = []
        for trial in range(300):
            n = 1 + randint(rng, 9)
            r = rng.randints(np.full(n, 3)).astype(np.float64)
            bits = [(4, 8, 16, 32)[k] for k in rng.randints(np.full(n, 4))]
            pinned = frozenset(i for i in range(n) if randint(rng, 4) == 0)
            want = monotone_pairwise_loop(bits, pinned, r)
            assert check_monotone(BitPlan(bits=bits, pinned=pinned, cost=0), r) is want
            answers.append(want)
        assert 30 < sum(answers) < 270


class TestPlanCost:
    def test_all_4bit_arithmetic(self):
        plan = uniform_plan(5, 4, CostModel((100,) * 5))
        assert plan.cost == 2000

    def test_pointwise_dominance(self):
        cost = CostModel((10, 20, 30))
        lo = BitPlan(bits=[4, 8, 4], pinned=frozenset(), cost=200)
        hi = BitPlan(bits=[8, 8, 16], pinned=frozenset(), cost=720)
        assert cost.cost(lo.bits) <= cost.cost(hi.bits)

    def test_mixed_plan_hand_sum(self):
        plan = BitPlan(bits=[32, 16, 8, 4], pinned=frozenset({0}), cost=276)
        cost = CostModel((3, 5, 7, 11))
        assert cost.cost(plan.bits) == 3 * 32 + 5 * 16 + 7 * 8 + 11 * 4 == plan.cost

    def test_pinned_counted_at_32(self):
        r = [0.0] * 8
        assert rank(r).cost == 4 * 32 + 16 + 2 * 8 + 4

    @pytest.mark.parametrize("call", [
        lambda: CostModel((100, float("nan"), 100)),
        lambda: CostModel((100, float("inf"), 100)),
        lambda: CostModel((100, 1.5, 100)),
        lambda: CostModel((100, -1, 100)),
        lambda: CostModel(5),
        lambda: CostModel((1, 2)).cost(5),
        lambda: CostModel((8, True)),
    ], ids=["nan", "inf", "fraction", "negative", "scalar-counts", "scalar-plan",
            "bool-among-counts"])
    def test_bad_weight_count_rejected(self, call):
        with pytest.raises(InvalidInput):
            call()

    @pytest.mark.parametrize("width", [5, -4, 0])
    def test_width_neither_admissible_nor_pinned_rejected(self, width):
        # an unchecked cost priced [5, -4] at -30, under any budget
        with pytest.raises(InvalidInput, match=f"got {width}$"):
            CostModel((10, 20)).cost([width, 4])


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
            budget = 10 * (4 * n + randint(rng, 12 * n))
            bits = knapsack_exhaustive(r, cost.weight_counts, budget)
            plan = BitPlan(bits=bits, pinned=frozenset(), cost=cost.cost(bits))
            assert check_monotone(plan, r)
            cfg = AllocConfig(f16=bits.count(16) / n, f8=bits.count(8) / n, edge_pin=0)
            rank_plan = allocate_rank(r, cfg, cost)
            assert rank_plan.bits == bits


class TestUniformPlan:
    def test_cost(self):
        plan = uniform_plan(8, 16, CostModel((2,) * 8))
        assert plan.cost == 8 * 16 * 2
        assert plan.bits == [16] * 8 and plan.pinned == frozenset()

    def test_bad_bits(self):
        with pytest.raises(InvalidInput):
            uniform_plan(8, 5, CostModel((1,) * 8))


@pytest.mark.parametrize("call", [
    lambda: uniform_plan(0, 4, CostModel(())),
    lambda: uniform_plan(-1, 4, CostModel(())),
    lambda: uniform_plan(2.5, 4, CostModel((1, 1))),
    lambda: uniform_plan(8, 4.0, CostModel((1,) * 8)),
    lambda: CostModel((1,) * 8).cost([float("nan")] * 8),
    lambda: CostModel((1,) * 8).cost([4.5] * 8),
    lambda: AllocConfig(edge_pin=True),
    lambda: AllocConfig(f16=True),
    lambda: AllocConfig(budget=True),
    lambda: AllocConfig(f16="a"),
    lambda: AllocConfig(budget="5"),
    lambda: check_monotone(rank(np.arange(8.0)), list("abcdefgh")),
    lambda: check_monotone(rank(np.arange(8.0)), [[0.0] * 4, [1.0] * 3]),
    lambda: check_monotone(None, np.arange(8.0)),
    lambda: allocate_rank(np.arange(8.0), None, CostModel((1,) * 8)),
    lambda: allocate_rank(np.arange(8.0), AllocConfig(), None),
    lambda: quant_error(np.ones((2, 2)), quantize_tensor(Tensor(np.ones((2, 2))), 8)),
    lambda: quant_error(Tensor(np.ones((2, 2))), None),
], ids=["no-layers", "negative-layers", "fractional-layers", "float-bits", "nan-bits",
        "fractional-bits", "bool-edge-pin", "bool-f16", "bool-budget", "string-f16",
        "string-budget", "string-monotone-relevance", "ragged-monotone-relevance", "no-plan",
        "no-alloc-config", "no-cost-model", "array-not-tensor", "no-qtensor"])
def test_bad_argument_rejected(call):
    with pytest.raises(InvalidInput):
        call()
