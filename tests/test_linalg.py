import math

import numpy as np
import pytest

from taq.errors import ConvergenceError, InvalidInput, InvalidShape
from taq.linalg import SeededRng, Tensor
from taq.stats import EIG_KEEP_REL, Reservoir, spectral_entropy

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


def entropy(rows):
    """spectral_entropy of a reservoir holding exactly these rows."""
    rows = np.asarray(rows, dtype=np.float64)
    res = Reservoir(rows.shape[0], rows.shape[1], SeededRng(0))
    for r in rows:
        res.offer(r)
    return spectral_entropy(res)


def entropy_of(eigvals, total=None):
    """Shannon entropy of an oracle spectrum over ``total`` (default: its sum),
    eigenvalues below EIG_KEEP_REL of the largest dropped."""
    lam = np.asarray(eigvals, dtype=np.float64)
    lam = lam[lam >= EIG_KEEP_REL * lam.max()]
    p = lam / (lam.sum() if total is None else total)
    return float(-(p * np.log(p)).sum())


def centered(z):
    return z - z.mean(axis=0)


class TestGramMatrix:
    """The centered row Gram (1/r) Z Z^T behind spectral_entropy, checked
    against the Gram built by the triple-loop oracle."""

    def test_identity(self):
        # r one-hot rows: r - 1 equal eigenvalues after centering
        h, degenerate = entropy(np.eye(4))
        assert not degenerate and abs(h - math.log(3)) < 1e-12

    def test_zeros(self):
        assert entropy(np.zeros((3, 4))) == (0.0, True)

    def test_matches_triple_loop_oracle(self):
        rng = SeededRng(7)
        z = rng.normals(24).reshape(4, 6)
        want = entropy_of(np.linalg.eigvalsh(gram_triple_loop(centered(z))))
        assert abs(entropy(z)[0] - want) <= 1e-12

    def test_symmetric_and_psd(self):
        # a PSD Gram's normalized spectrum is a distribution over at most
        # min(r - 1, d) nonzero eigenvalues, so 0 <= H <= ln min(r - 1, d)
        rng = SeededRng(11)
        for trial in range(10):
            z = rng.normals(5 * 7).reshape(5, 7)
            h, degenerate = entropy(z)
            assert not degenerate and 0.0 <= h <= math.log(4) + 1e-12

    def test_row_permutation_invariant(self):
        rng = SeededRng(29)
        z = rng.normals(9 * 4).reshape(9, 4)
        perm = [3, 7, 0, 8, 1, 5, 2, 6, 4]
        assert abs(entropy(z[perm])[0] - entropy(z)[0]) <= 1e-12


class TestCenterRows:
    """spectral_entropy centers the rows: a constant added to every row does
    not change it."""

    def test_symmetric_pair(self):
        # rows 1 and 3 center to -1 and 1: one eigenvalue, entropy +0.0
        assert entropy([[1.0], [3.0]]) == entropy([[-1.0], [1.0]]) == (0.0, False)

    def test_idempotent(self):
        rng = SeededRng(3)
        z = rng.normals(15).reshape(5, 3)
        assert abs(entropy(centered(z))[0] - entropy(z)[0]) <= 1e-12

    def test_column_sums_vanish(self):
        rng = SeededRng(5)
        z = rng.normals(15).reshape(5, 3)
        shift = 10.0 * rng.normals(3)
        assert abs(entropy(z + shift)[0] - entropy(z)[0]) <= 1e-10


class TestSymEigvals:
    """spectral_entropy against the entropy of the centered Gram's eigenvalues
    from characteristic-polynomial roots and from eigvalsh."""

    def test_diagonal(self):
        z = np.diag([1.0, 2.0, 3.0])
        want = entropy_of(charpoly_roots(gram_triple_loop(centered(z))))
        assert abs(entropy(z)[0] - want) <= 1e-12

    def test_tall_and_wide(self):
        # min(r - 1, d) nonzero eigenvalues either way
        rng = SeededRng(23)
        for r, d in [(7, 3), (3, 7)]:
            z = rng.normals(r * d).reshape(r, d)
            want = entropy_of(np.linalg.eigvalsh(gram_triple_loop(centered(z))))
            assert abs(entropy(z)[0] - want) <= 1e-12

    def test_matches_charpoly_roots_3x3(self):
        rng = SeededRng(13)
        for trial in range(20):
            z = rng.normals(15).reshape(3, 5)
            want = entropy_of(charpoly_roots(gram_triple_loop(centered(z))))
            assert abs(entropy(z)[0] - want) <= 1e-8

    def test_matches_charpoly_roots_n_le_4(self):
        # one row is a degenerate reservoir; two rows have a rank-1 spectrum
        rng = SeededRng(17)
        assert entropy(rng.normals(3).reshape(1, 3)) == (0.0, True)
        for n in (2, 3, 4):
            for trial in range(10):
                z = rng.normals(n * (n + 2)).reshape(n, n + 2)
                want = entropy_of(charpoly_roots(gram_triple_loop(centered(z))))
                assert abs(entropy(z)[0] - want) <= 1e-8

    def test_trace_identity(self):
        # normalizing by the trace ||Z_c||_F^2 / r equals normalizing by the
        # eigenvalue sum
        rng = SeededRng(19)
        for r, d in [(2, 2), (5, 3), (16, 16), (33, 8), (8, 33)]:
            z = rng.normals(r * d).reshape(r, d)
            zc = centered(z)
            want = entropy_of(np.linalg.eigvalsh(gram_triple_loop(zc)), (zc * zc).sum() / r)
            assert abs(entropy(z)[0] - want) <= 1e-10

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError):
            entropy(np.eye(3))


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

    # each entry point that takes an integer: numpy integers give the stream
    # Python ints give, and a float or a bool raises InvalidInput
    @pytest.mark.parametrize("draw", [
        lambda make, k: SeededRng(make(k)).normals(3),
        lambda make, k: SeededRng(3).next_u64s(make(k)),
        lambda make, k: SeededRng(3).randint(make(k)),
        lambda make, k: SeededRng(3).derive(make(k)).normals(3),
        lambda make, k: SeededRng(3).normals(make(k)),
    ], ids=["seed", "next_u64s", "randint", "derive", "normals"])
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

    @pytest.mark.parametrize("bounds", [[3, 0], [-2], [2.0, 3.0], [[4]]],
                             ids=["zero", "negative", "float", "2-d"])
    def test_randints_bad_bounds_rejected(self, bounds):
        with pytest.raises(InvalidInput):
            SeededRng(1).randints(bounds)
