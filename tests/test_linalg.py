import numpy as np
import pytest

from taq.errors import InvalidInput
from taq.linalg import SeededRng, Tensor

from oracles import randint


class TestTensor:
    def test_rejects_non_2d(self):
        with pytest.raises(InvalidInput, match=r"Tensor values must be 2-D, got shape \(3,\)"):
            Tensor(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput, match=r"Tensor dimensions must be positive, got \(0, 3\)"):
            Tensor(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            Tensor(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("values", [[[1, 2], [3]], [["a"]]], ids=["ragged", "strings"])
    def test_rejects_non_numbers(self, values):
        with pytest.raises(InvalidInput):
            Tensor(values)

    def test_accepts_lists(self):
        t = Tensor([[1, 2], [3, 4]], label="w")
        assert t.rows == 2 and t.cols == 2
        assert t.values.dtype == np.float64


class TestSeededRng:
    def test_empty_draw(self):
        assert list(SeededRng(1).normals(0)) == []

    def test_same_seed_same_stream(self):
        a = SeededRng(42).normals(8)
        b = SeededRng(42).normals(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [0, 1, 3, 50])
    def test_odd_count_is_prefix_of_next_even(self, k):
        odd, even = SeededRng(9).normals(2 * k + 1), SeededRng(9).normals(2 * k + 2)
        np.testing.assert_array_equal(odd, even[:-1])

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8])
    def test_normals_consume_whole_pairs(self, n):
        # the state is the counter alone: n normals move it 2 * ceil(n / 2)
        # draws on, and the next call starts on a fresh pair
        rng, counter = SeededRng(9), SeededRng(9)
        rng.normals(n)
        counter.next_u64s(2 * ((n + 1) // 2))
        assert rng.next_u64s(3).tolist() == counter.next_u64s(3).tolist()
        np.testing.assert_array_equal(rng.normals(2), counter.normals(2))

    def test_moments(self):
        draws = SeededRng(123).normals(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_derive_independent(self):
        root = SeededRng(5)
        a = root.derive(1).normals(4)
        b = root.derive(2).normals(4)
        a2 = root.derive(1).normals(4)
        np.testing.assert_array_equal(a, a2)
        assert not np.array_equal(a, b)

    def test_randints_range(self):
        draws = SeededRng(77).randints(np.full(1000, 10)).tolist()
        assert min(draws) >= 0 and max(draws) < 10
        assert len(set(draws)) == 10

    def test_randints_match_a_randint_loop(self):
        # values and stream position, bounds small and near 2**63
        bounds = [1, 2, 3, 10, 256, 1025, 2**32 + 7, 2**62 + 1, 2**63 - 1] * 3
        rng, loop = SeededRng(31), SeededRng(31)
        assert rng.randints(np.array(bounds)).tolist() == [randint(loop, b) for b in bounds]
        assert rng.next_u64() == loop.next_u64()
        assert rng.randints(np.arange(0)).size == 0 and rng.next_u64() == loop.next_u64()

    @pytest.mark.parametrize("k", [0, 1, 5, 1000])
    def test_next_u64s_match_a_next_u64_loop(self, k):
        # values and stream position after them
        rng, loop = SeededRng(37), SeededRng(37)
        assert rng.next_u64s(k).tolist() == [loop.next_u64() for _ in range(k)]
        assert rng.next_u64() == loop.next_u64()

    # each entry point that takes an integer: numpy integers give the stream
    # Python ints give, and a float or a bool raises InvalidInput
    @pytest.mark.parametrize("draw", [
        lambda make, k: SeededRng(make(k)).normals(3),
        lambda make, k: SeededRng(3).next_u64s(make(k)),
        lambda make, k: SeededRng(3).randints([make(k)] * 3),
        lambda make, k: SeededRng(3).derive(make(k)).normals(3),
        lambda make, k: SeededRng(3).normals(make(k)),
    ], ids=["seed", "next_u64s", "randints", "derive", "normals"])
    def test_integer_arguments(self, draw):
        want = draw(int, 5)
        for make in (np.int64, np.uint8, np.int32):
            assert np.array_equal(draw(make, 5), want)
        for bad in (lambda k: k + 0.5, lambda k: float(k), lambda k: True):
            with pytest.raises(InvalidInput):
                draw(bad, 5)

    def test_next_u64s_negative_count_rejected(self):
        with pytest.raises(InvalidInput):
            SeededRng(1).next_u64s(-1)

    @pytest.mark.parametrize("bounds", [[3, 0], [-2], [2.0, 3.0], [[4]], [[1], [2, 3]]],
                             ids=["zero", "negative", "float", "2-d", "ragged"])
    def test_randints_bad_bounds_rejected(self, bounds):
        with pytest.raises(InvalidInput):
            SeededRng(1).randints(bounds)
