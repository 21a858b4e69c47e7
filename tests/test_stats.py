import math

import numpy as np
import pytest

from taq.errors import InsufficientData, InvalidConfig, InvalidInput, InvalidShape
from taq.linalg import SeededRng
from taq.stats import (
    Reservoir,
    StreamingMoments,
    TaskDirection,
    cosine_alignment,
    finalize_profile,
    relevance,
    spectral_entropy,
    task_direction,
    variance_and_stability,
    zscore,
)

from oracles import two_pass_variance


class TestReservoir:
    def test_under_capacity_retains_all(self):
        res = Reservoir(4, 2, SeededRng(1))
        for i in range(3):
            res.offer([float(i), 0.0])
        assert len(res) == 3
        np.testing.assert_array_equal(res.rows()[:, 0], [0.0, 1.0, 2.0])

    def test_deterministic_with_fixed_seed(self):
        def run():
            res = Reservoir(1, 1, SeededRng(99))
            for i in range(500):
                res.offer([float(i)])
            return res.rows()[0, 0]
        assert run() == run()

    def test_width_mismatch(self):
        res = Reservoir(2, 3, SeededRng(0))
        with pytest.raises(InvalidShape):
            res.offer([1.0, 2.0])

    def test_inclusion_frequency_monte_carlo(self):
        # Algorithm-R property: after the stream ends, every offered vector
        # was retained with equal probability capacity/stream_len.
        capacity, stream, trials = 16, 2000, 3000
        counts = np.zeros(stream)
        rng = SeededRng(2024)
        for t in range(trials):
            res = Reservoir(capacity, 1, rng.derive(t))
            for i in range(stream):
                res.offer([float(i)])
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


class TestSpectralEntropy:
    def _fill(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        res = Reservoir(rows.shape[0], rows.shape[1], SeededRng(0))
        for r in rows:
            res.offer(r)
        return res

    def test_identical_rows_degenerate(self):
        h, degenerate = spectral_entropy(self._fill(np.ones((5, 3))))
        assert h == 0.0 and degenerate

    def test_two_point_uniform_spectrum(self):
        # rows {a, -a, b, -b} with a ⊥ b and equal norms give two equal
        # nonzero eigenvalues
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0])
        h, degenerate = spectral_entropy(self._fill([a, -a, b, -b]))
        assert not degenerate
        assert abs(h - math.log(2)) < 1e-9

    def test_orthogonal_rows_ln_rank(self):
        # r orthogonal equal-norm rows have rank r-1 after centering with a
        # flat spectrum: H = ln(r - 1)
        r = 6
        rows = np.eye(r, 8) * 3.0
        h, degenerate = spectral_entropy(self._fill(rows))
        assert not degenerate
        assert abs(h - math.log(r - 1)) < 1e-9

    def test_entropy_bounds_random(self):
        rng = SeededRng(7)
        for trial in range(20):
            r = 2 + rng.randint(12)
            d = 1 + rng.randint(12)
            rows = rng.normals(r * d).reshape(r, d)
            h, degenerate = spectral_entropy(self._fill(rows))
            assert 0.0 <= h <= math.log(r) + 1e-12

    def test_scale_invariance(self):
        rng = SeededRng(9)
        rows = rng.normals(12 * 5).reshape(12, 5)
        h1, _ = spectral_entropy(self._fill(rows))
        h2, _ = spectral_entropy(self._fill(rows * 37.5))
        assert abs(h1 - h2) < 1e-8

    def test_gram_dual_matches_direct(self):
        # wide reservoirs (d > r) and tall ones (r > d) must agree with a
        # direct numpy eigensolve of the r x r Gram
        rng = SeededRng(11)
        for r, d in [(4, 9), (9, 4), (8, 8)]:
            rows = rng.normals(r * d).reshape(r, d)
            z = rows - rows.mean(axis=0)
            lam = np.linalg.eigvalsh(z @ z.T / r)
            lam = lam[lam >= 1e-12 * lam.max()]
            norm = lam / lam.sum()
            want = float(-(norm * np.log(norm)).sum())
            h, _ = spectral_entropy(self._fill(rows))
            assert abs(h - want) < 1e-8

    def test_empty_reservoir_rejected(self):
        with pytest.raises(InsufficientData):
            spectral_entropy(Reservoir(4, 2, SeededRng(0)))


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

    def test_shift_invariant_ranking(self):
        rng = SeededRng(17)
        h = rng.normals(8)
        v = rng.normals(8)
        stats1, _ = finalize_profile(h, [False] * 8, v, 0.5, 0.5)
        stats2, _ = finalize_profile(h + 100.0, [False] * 8, v, 0.5, 0.5)
        rank1 = np.argsort([-s.relevance for s in stats1])
        rank2 = np.argsort([-s.relevance for s in stats2])
        np.testing.assert_array_equal(rank1, rank2)


class TestTaskDirection:
    def test_self_contrast_zero(self):
        acts = [np.ones((4, 3)), np.full((2, 3), 2.0)]
        d = task_direction(acts, acts, layer=0, task_id="copy")
        np.testing.assert_array_equal(d.vector, np.zeros(3))

    def test_single_pair_difference(self):
        a = [np.array([[1.0, 0.0, 0.0]])]
        b = [np.array([[0.0, 0.0, 0.0]])]
        d = task_direction(a, b, layer=1, task_id="copy")
        np.testing.assert_array_equal(d.vector, [1.0, 0.0, 0.0])

    def test_three_pairs_mean(self):
        diffs = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([-1.0, 1.0])]
        a = [d.reshape(1, 2) for d in diffs]
        b = [np.zeros((1, 2)) for _ in diffs]
        d = task_direction(a, b, layer=0, task_id="t")
        np.testing.assert_allclose(d.vector, np.mean(diffs, axis=0))

    def test_count_mismatch(self):
        with pytest.raises(InvalidInput):
            task_direction([np.zeros((1, 2))], [], layer=0, task_id="t")


class TestCosineAlignment:
    def _dir(self, v):
        return TaskDirection(layer=0, task_id="t", vector=np.asarray(v, float),
                             contrast_policy="test")

    def test_self_is_one(self):
        v, flag = cosine_alignment(self._dir([1.0, 2.0]), self._dir([1.0, 2.0]))
        assert v == pytest.approx(1.0) and not flag

    def test_negation_is_minus_one(self):
        v, _ = cosine_alignment(self._dir([1.0, 2.0]), self._dir([-1.0, -2.0]))
        assert v == pytest.approx(-1.0)

    def test_orthogonal_is_zero(self):
        v, _ = cosine_alignment(self._dir([1.0, 0.0]), self._dir([0.0, 1.0]))
        assert abs(v) < 1e-12

    def test_degenerate_norm(self):
        v, flag = cosine_alignment(self._dir([0.0, 0.0]), self._dir([1.0, 0.0]))
        assert v == 0.0 and flag

    def test_width_mismatch(self):
        with pytest.raises(InvalidShape):
            cosine_alignment(self._dir([1.0]), self._dir([1.0, 2.0]))
