import math

import numpy as np
import pytest

from taq.errors import (ConvergenceError, InsufficientData, InvalidConfig, InvalidInput,
                        InvalidShape)
from taq.linalg import SeededRng
from taq.stats import (
    _DRAW_BLOCK,
    EIG_KEEP_REL,
    Reservoir,
    StreamingMoments,
    finalize_profile,
    relevance,
    spectral_entropy,
    variance_and_stability,
    zscore,
)

from oracles import (charpoly_roots, gram_triple_loop, randint, reservoir_reference,
                     two_pass_variance)


def fill(rows):
    """A reservoir holding exactly these rows, offered as float64 rows."""
    rows = np.asarray(rows, dtype=np.float64)
    res = Reservoir(rows.shape[0], rows.shape[1], SeededRng(0))
    for r in rows:
        res.offer(r)
    return res


def entropy(rows):
    """spectral_entropy of a reservoir holding exactly these rows."""
    return spectral_entropy(fill(rows))


class TestReservoir:
    def test_under_capacity_retains_all(self):
        res = Reservoir(4, 2, SeededRng(1))
        for i in range(3):
            res.offer(np.array([float(i), 0.0]))
        assert len(res) == 3
        np.testing.assert_array_equal(res.rows()[:, 0], [0.0, 1.0, 2.0])

    def test_deterministic_with_fixed_seed(self):
        def run():
            res = Reservoir(1, 1, SeededRng(99))
            for i in range(500):
                res.offer(np.array([float(i)]))
            return res.rows()[0, 0]
        assert run() == run()

    @pytest.mark.parametrize("capacity, width", [(2.5, 3), (3, 2.5), (True, 3), (3, "3")],
                             ids=["fractional-capacity", "fractional-width", "bool-capacity",
                                  "string-width"])
    def test_non_integer_size_rejected(self, capacity, width):
        with pytest.raises(InvalidInput):
            Reservoir(capacity, width, SeededRng(0))

    def test_width_mismatch(self):
        res = Reservoir(2, 3, SeededRng(0))
        with pytest.raises(InvalidShape):
            res.offer(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("row", [np.zeros(2), np.zeros((1, 2)), np.zeros(4)],
                             ids=["short", "short-2d", "long"])
    def test_width_mismatch_array(self, row):
        res = Reservoir(2, 3, SeededRng(0))
        with pytest.raises(InvalidShape):
            res.offer(row)
        assert res.seen == 0

    @pytest.mark.parametrize("row", [[1.0, 2.0, 3.0], np.array([[1.0, 2.0, 3.0]]),
                                     np.array([1.0, 2.0, 3.0], np.float32)],
                             ids=["list", "1-by-width", "float32"])
    def test_other_row_forms_refused(self, row):
        # a wrong-width row is test_width_mismatch_array's case
        res = Reservoir(2, 3, SeededRng(0))
        with pytest.raises(InvalidShape):
            res.offer(row)
        assert res.seen == 0 and len(res) == 0

    def test_non_contiguous_row_stored_as_a_copy(self):
        base = np.arange(13.0, 19.0)
        res = Reservoir(1, 3, SeededRng(0))
        res.offer(base[::2])
        base[:] = 0.0
        assert res.rows().tolist() == [[13.0, 15.0, 17.0]]

    def test_kept_row_is_a_copy(self):
        row = np.ones(3)
        res = Reservoir(1, 3, SeededRng(0))
        res.offer(row)
        row[:] = 5.0
        assert res.rows().tolist() == [[1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("stream", [0, 1, 16, 17, _DRAW_BLOCK - 1, _DRAW_BLOCK,
                                        _DRAW_BLOCK + 1, 16 + _DRAW_BLOCK - 1,
                                        16 + _DRAW_BLOCK, 16 + _DRAW_BLOCK + 1, 5000])
    def test_matches_per_offer_algorithm_r(self, stream):
        # slots drawn ahead in blocks: the kept rows are those of one randint
        # per offer, across every block boundary
        rows = SeededRng(8).normals(3 * stream).reshape(stream, 3)
        res = Reservoir(16, 3, SeededRng(21))
        for row in rows:
            res.offer(row)
        want, seen = reservoir_reference(rows, 16, SeededRng(21))
        assert res.seen == seen == stream
        assert np.array_equal(res.rows(), want.reshape(-1, 3))

    def test_inclusion_frequency_monte_carlo(self):
        # Algorithm-R property: after the stream ends, every offered vector
        # was retained with equal probability capacity/stream_len.
        capacity, stream, trials = 16, 2000, 3000
        counts = np.zeros(stream)
        rng = SeededRng(2024)
        # float64 rows of width 1, offered as they stand
        rows = np.arange(stream, dtype=float).reshape(-1, 1)
        for t in range(trials):
            res = Reservoir(capacity, 1, rng.derive(t))
            for row in rows:
                res.offer(row)
            for tag in res.rows()[:, 0]:
                counts[int(tag)] += 1
        p = capacity / stream
        sigma = math.sqrt(trials * p * (1 - p))
        dev = np.abs(counts - trials * p)
        # fixed seed: the 3-sigma share and a hard 5-sigma cap are stable
        assert (dev <= 3 * sigma).mean() >= 0.99
        assert dev.max() <= 5 * sigma
        assert abs(counts.mean() - trials * p) <= 3 * sigma / math.sqrt(stream)


class TestStreamingMoments:
    def test_symmetric_pair(self):
        m = StreamingMoments()
        m.update([1.0, -1.0])
        assert (m.n, m.mean, m.m2) == (2, 0.0, 2.0)

    def test_additivity(self):
        a = StreamingMoments()
        a.update([1.0, 2.0])
        a.update([3.0, 4.0])
        b = StreamingMoments()
        b.update([1.0, 2.0, 3.0, 4.0])
        assert (a.n, a.mean, a.m2) == (b.n, b.mean, b.m2)

    def test_matches_two_pass_variance(self):
        rng = SeededRng(5)
        stream = rng.normals(4096) * 3.0 + 1.5
        m = StreamingMoments()
        for chunk in np.array_split(stream, 17):
            m.update(chunk)
        var, stab = variance_and_stability(m)
        want = two_pass_variance(stream)
        assert abs(var - want) <= 1e-9 * want
        assert stab == -var

    def test_large_mean_no_cancellation(self):
        # s2/n - mean**2 cancels to 0.0 here; the true variance is ~1.007
        stream = 1e8 + SeededRng(0).normals(10_000)
        m = StreamingMoments()
        for chunk in np.array_split(stream, 13):
            m.update(chunk)
        var, _ = variance_and_stability(m)
        want = two_pass_variance(stream)
        assert abs(var - want) <= 1e-6 * want

    def test_empty_update_skipped(self):
        m = StreamingMoments()
        m.update([])
        m.update([3.0, 5.0])
        m.update(np.empty(0))
        assert (m.n, m.mean, m.m2) == (2, 4.0, 2.0)

    def test_constant_stream(self):
        m = StreamingMoments()
        m.update([2.5, 2.5])
        var, stab = variance_and_stability(m)
        assert var == 0.0 and stab == 0.0

    def test_analytic_pair(self):
        m = StreamingMoments()
        m.update([1.0, -1.0])
        var, stab = variance_and_stability(m)
        assert var == 1.0 and stab == -1.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientData):
            variance_and_stability(StreamingMoments())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_batch_rejected(self, bad):
        m = StreamingMoments()
        m.update([3.0, 5.0])
        with pytest.raises(InvalidInput):
            m.update([1.0, bad])
        assert (m.n, m.mean, m.m2) == (2, 4.0, 2.0)


class TestSpectralEntropy:
    def test_identical_rows_degenerate(self):
        h, degenerate = spectral_entropy(fill(np.ones((5, 3))))
        assert h == 0.0 and degenerate

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 5, 7, 64])
    @pytest.mark.parametrize("values", [[0.1, 0.7, 1.3], [-3e300, 1e-300, 0.3]],
                             ids=["inexact-mean", "extreme"])
    def test_equal_rows_degenerate_whatever_the_rounding(self, values, n_rows):
        # the column mean of equal rows need not round back to the row, so the
        # centered rows need not be exactly zero; the flag comes from the rows
        h, degenerate = spectral_entropy(fill([values] * n_rows))
        assert degenerate and h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_rank_one_spectrum_is_positive_zero(self):
        a = np.array([1.0, 2.0, 0.0])
        h, degenerate = spectral_entropy(fill([a, -a, 3 * a]))
        assert not degenerate and h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_non_finite_rows_rejected(self):
        with pytest.raises(InvalidInput):
            spectral_entropy(fill([[0.0, 1.0], [np.nan, 2.0]]))

    def test_two_point_uniform_spectrum(self):
        # rows {a, -a, b, -b} with a ⊥ b and equal norms give two equal
        # nonzero eigenvalues
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0])
        h, degenerate = spectral_entropy(fill([a, -a, b, -b]))
        assert not degenerate
        assert abs(h - math.log(2)) < 1e-9

    def test_orthogonal_rows_ln_rank(self):
        # r orthogonal equal-norm rows have rank r-1 after centering with a
        # flat spectrum: H = ln(r - 1)
        r = 6
        rows = np.eye(r, 8) * 3.0
        h, degenerate = spectral_entropy(fill(rows))
        assert not degenerate
        assert abs(h - math.log(r - 1)) < 1e-9

    def test_entropy_bounds_random(self):
        rng = SeededRng(7)
        for trial in range(20):
            r = 2 + randint(rng, 12)
            d = 1 + randint(rng, 12)
            rows = rng.normals(r * d).reshape(r, d)
            h, degenerate = spectral_entropy(fill(rows))
            assert 0.0 <= h <= math.log(r) + 1e-12

    def test_scale_invariance(self):
        rng = SeededRng(9)
        rows = rng.normals(12 * 5).reshape(12, 5)
        h1, _ = spectral_entropy(fill(rows))
        h2, _ = spectral_entropy(fill(rows * 37.5))
        assert abs(h1 - h2) < 1e-8

    def test_empty_reservoir_rejected(self):
        with pytest.raises(InsufficientData):
            spectral_entropy(Reservoir(4, 2, SeededRng(0)))


def entropy_of(eigvals, total=None):
    """Shannon entropy of an oracle spectrum over ``total`` (default: its sum),
    eigenvalues below EIG_KEEP_REL of the largest dropped."""
    lam = np.asarray(eigvals, dtype=np.float64)
    lam = lam[lam >= EIG_KEEP_REL * lam.max()]
    p = lam / (lam.sum() if total is None else total)
    return float(-(p * np.log(p)).sum())


def centered(z):
    return z - z.mean(axis=0)


class TestEntropyOfRowGram:
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


class TestEntropyIsShiftInvariant:
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


class TestEntropyMatchesEigenOracles:
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


class TestZscore:
    def test_zero_spread_degenerate(self):
        out, degenerate = zscore([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])
        assert degenerate

    def test_symmetric_pair(self):
        out, degenerate = zscore([-3.0, 3.0])
        np.testing.assert_allclose(out, [-1.0, 1.0])
        assert not degenerate

    def test_three_point(self):
        out, _ = zscore([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_output_moments(self):
        rng = SeededRng(13)
        out, _ = zscore(rng.normals(64) * 5 + 11)
        assert abs(out.mean()) <= 1e-9
        assert abs(np.sqrt((out ** 2).mean()) - 1.0) <= 1e-9

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInput):
            zscore([1.0, bad])


class TestRelevance:
    def test_cancellation(self):
        r = relevance([1.0], [-1.0], 0.5, 0.5)
        assert r[0] == 0.0

    def test_boundary_weight(self):
        zh = np.array([0.3, -0.7])
        r = relevance(zh, [9.0, 9.0], alpha=1.0, beta=0.0)
        np.testing.assert_array_equal(r, zh)

    def test_default_affine_combination(self):
        zh = np.array([1.0, -0.5, 0.25])
        zs = np.array([0.5, 0.5, -1.0])
        want = np.array([0.75, 0.0, -0.375])  # hand-evaluated 0.5*zh + 0.5*zs
        np.testing.assert_allclose(relevance(zh, zs), want)

    def test_simplex_violation(self):
        with pytest.raises(InvalidConfig):
            relevance([0.0], [0.0], 0.7, 0.5)
        with pytest.raises(InvalidConfig):
            relevance([0.0], [0.0], -0.1, 1.1)

    @pytest.mark.parametrize("alpha, beta", [(float("nan"), 0.5), (0.5, float("nan"))],
                             ids=["nan-alpha", "nan-beta"])
    def test_non_finite_weight_rejected(self, alpha, beta):
        with pytest.raises(InvalidConfig):
            relevance([0.0, 1.0], [1.0, 0.0], alpha, beta)

    def test_shift_invariant_ranking(self):
        rng = SeededRng(17)
        h = rng.normals(8)
        v = rng.normals(8)
        stats1, _ = finalize_profile(h, [False] * 8, v, 0.5, 0.5)
        stats2, _ = finalize_profile(h + 100.0, [False] * 8, v, 0.5, 0.5)
        rank1 = np.argsort([-s.relevance for s in stats1])
        rank2 = np.argsort([-s.relevance for s in stats2])
        np.testing.assert_array_equal(rank1, rank2)



class TestFinalizeProfile:
    @pytest.mark.parametrize("n_flags", [2, 4])
    def test_flag_count_mismatch_rejected(self, n_flags):
        with pytest.raises(InvalidShape):
            finalize_profile([0.1, 0.2, 0.3], [False] * n_flags, [1.0, 2.0, 3.0], 0.5, 0.5)
