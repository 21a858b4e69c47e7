import math

import numpy as np
import pytest

from taq.errors import ConvergenceError, InvalidInput, InvalidShape
from taq.linalg import SeededRng, Tensor, center_rows, gram_spectrum

from oracles import charpoly_roots, gram_triple_loop


class TestTensor:
    def test_rejects_non_2d(self):
        with pytest.raises(InvalidShape):
            Tensor(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(InvalidShape):
            Tensor(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            Tensor(np.array([[1.0, np.nan]]))

    def test_accepts_lists(self):
        t = Tensor([[1, 2], [3, 4]], label="w")
        assert t.rows == 2 and t.cols == 2
        assert t.values.dtype == np.float64


class TestGramMatrix:
    """The spectrum of the row Gram (1/r) Z Z^T that gram_spectrum returns,
    checked against the Gram built by the triple-loop oracle."""

    def test_identity(self):
        np.testing.assert_allclose(gram_spectrum(Tensor(np.eye(2))), [0.5, 0.5])

    def test_zeros(self):
        np.testing.assert_array_equal(gram_spectrum(Tensor(np.zeros((3, 4)))), np.zeros(3))

    def test_matches_triple_loop_oracle(self):
        # sum of squared eigenvalues = squared Frobenius norm of the Gram
        rng = SeededRng(7)
        z = rng.normals(24).reshape(4, 6)
        vals = gram_spectrum(Tensor(z))
        assert abs((vals ** 2).sum() - (gram_triple_loop(z) ** 2).sum()) <= 1e-12

    def test_symmetric_and_psd(self):
        # a PSD Gram has a non-negative spectrum, returned descending
        rng = SeededRng(11)
        for trial in range(10):
            z = rng.normals(5 * 7).reshape(5, 7)
            vals = gram_spectrum(Tensor(z))
            assert vals.min() >= 0.0
            assert np.all(np.diff(vals) <= 0.0)


class TestCenterRows:
    def test_symmetric_pair(self):
        out = center_rows(Tensor([[1.0], [3.0]]))
        np.testing.assert_allclose(out.values, [[-1.0], [1.0]])

    def test_idempotent(self):
        rng = SeededRng(3)
        x = Tensor(rng.normals(15).reshape(5, 3))
        once = center_rows(x)
        twice = center_rows(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_column_sums_vanish(self):
        rng = SeededRng(5)
        x = Tensor(rng.normals(15).reshape(5, 3))
        out = center_rows(x)
        assert np.max(np.abs(out.values.sum(axis=0))) < 1e-10


class TestSymEigvals:
    """gram_spectrum(z) as the eigenvalues of the symmetric Gram of z,
    checked against characteristic-polynomial roots and the trace."""

    def test_diagonal(self):
        vals = gram_spectrum(Tensor([[2.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(vals, [4.5, 2.0])

    def test_tall_and_wide(self):
        # min(r, d) eigenvalues; the rest of an r x r Gram with r > d are zero
        rng = SeededRng(23)
        for r, d in [(7, 3), (3, 7)]:
            z = rng.normals(r * d).reshape(r, d)
            want = np.sort(np.linalg.eigvalsh(gram_triple_loop(z)))[::-1][: min(r, d)]
            np.testing.assert_allclose(gram_spectrum(Tensor(z)), want, atol=1e-12)

    def test_matches_charpoly_roots_3x3(self):
        rng = SeededRng(13)
        for trial in range(20):
            z = rng.normals(15).reshape(3, 5)
            got = gram_spectrum(Tensor(z))
            want = charpoly_roots(gram_triple_loop(z))
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_matches_charpoly_roots_n_le_4(self):
        rng = SeededRng(17)
        for n in (1, 2, 3, 4):
            for trial in range(10):
                z = rng.normals(n * (n + 2)).reshape(n, n + 2)
                got = gram_spectrum(Tensor(z))
                want = charpoly_roots(gram_triple_loop(z))
                np.testing.assert_allclose(got, want, atol=1e-8)

    def test_trace_identity(self):
        rng = SeededRng(19)
        for r, d in [(2, 2), (5, 3), (16, 16), (33, 8), (8, 33)]:
            z = rng.normals(r * d).reshape(r, d)
            vals = gram_spectrum(Tensor(z))
            assert abs(vals.sum() - (z * z).sum() / r) <= 1e-12 * (z * z).sum()

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError):
            gram_spectrum(Tensor(np.eye(3)))


class TestSeededRng:
    def test_empty_draw(self):
        assert list(SeededRng(1).normals(0)) == []

    def test_same_seed_same_stream(self):
        a = SeededRng(42).normals(8)
        b = SeededRng(42).normals(8)
        np.testing.assert_array_equal(a, b)

    def test_scalar_batch_equivalence(self):
        batched = SeededRng(9).normals(7)
        scalar_rng = SeededRng(9)
        singles = np.array([scalar_rng.normals(1)[0] for _ in range(7)])
        np.testing.assert_array_equal(batched, singles)

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

    def test_randint_range(self):
        rng = SeededRng(77)
        draws = [rng.randint(10) for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) < 10
        assert len(set(draws)) == 10

    def test_randints_match_a_randint_loop(self):
        # values and stream position, bounds small and near 2**63
        bounds = [1, 2, 3, 10, 256, 1025, 2**32 + 7, 2**62 + 1, 2**63 - 1] * 3
        rng, loop = SeededRng(31), SeededRng(31)
        assert rng.randints(np.array(bounds)).tolist() == [loop.randint(b) for b in bounds]
        assert rng.next_u64() == loop.next_u64()
        assert rng.randints(np.arange(0)).size == 0 and rng.next_u64() == loop.next_u64()

    @pytest.mark.parametrize("k", [0, 1, 5, 1000])
    def test_next_u64s_match_a_next_u64_loop(self, k):
        # values and stream position after them
        rng, loop = SeededRng(37), SeededRng(37)
        assert rng.next_u64s(k).tolist() == [loop.next_u64() for _ in range(k)]
        assert rng.next_u64() == loop.next_u64()

    def test_next_u64s_negative_count_rejected(self):
        with pytest.raises(InvalidInput):
            SeededRng(1).next_u64s(-1)

    @pytest.mark.parametrize("bounds", [[3, 0], [-2], [2.0, 3.0], [[4]]],
                             ids=["zero", "negative", "float", "2-d"])
    def test_randints_bad_bounds_rejected(self, bounds):
        with pytest.raises(InvalidInput):
            SeededRng(1).randints(bounds)
