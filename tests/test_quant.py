import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taq.errors import CorruptCodes, InvalidInput, InvalidShape
from taq.linalg import SeededRng, Tensor
from taq.quant import (
    QTensor,
    QuantParams,
    dequantize_group,
    fit_minmax,
    pack_codes,
    quant_error,
    quantize_group,
    quantize_tensor,
    unpack_codes,
)


class TestFitMinmax:
    def test_exact_range_fit(self):
        p = fit_minmax([0.0, 255.0], bits=8)
        assert p.scale == 1.0
        assert p.zero_point == 0.0

    def test_constant_group(self):
        p = fit_minmax([3.5, 3.5, 3.5], bits=4)
        assert p.scale == 1e-12
        assert p.zero_point == 3.5
        deq = dequantize_group(quantize_group([3.5, 3.5, 3.5], p), p)
        np.testing.assert_array_equal(deq, [3.5, 3.5, 3.5])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            fit_minmax([], bits=8)

    def test_bad_bits_rejected(self):
        with pytest.raises(InvalidInput):
            fit_minmax([1.0], bits=5)

    def test_non_finite_range_rejected(self):
        # [-1e308, 1e308]: hi - lo overflows float64 to an infinite scale
        for group in ([-1e308, 1e308], [0.0, np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(InvalidInput):
                fit_minmax(group, bits=8)

    def test_round_trip_bound_random_group(self):
        rng = SeededRng(21)
        group = rng.normals(128)
        p = fit_minmax(group, bits=4)
        deq = dequantize_group(quantize_group(group, p), p)
        # independent per-element check
        for x, y in zip(group, deq):
            assert abs(x - y) <= p.scale / 2 + 1e-12


class TestQuantizeGroup:
    def test_zero_point_maps_to_zero_code(self):
        p = QuantParams(scale=0.5, zero_point=1.25, bits=8)
        assert quantize_group([1.25], p)[0] == 0

    def test_lattice_points_exact(self):
        p = QuantParams(scale=0.25, zero_point=-1.0, bits=4)
        ks = np.arange(0, 16)
        xs = p.zero_point + p.scale * ks
        codes = quantize_group(xs, p)
        np.testing.assert_array_equal(codes, ks)
        np.testing.assert_allclose(dequantize_group(codes, p), xs, atol=1e-15)

    def test_saturation(self):
        p = QuantParams(scale=1.0, zero_point=0.0, bits=4)
        assert quantize_group([1e9], p)[0] == 15
        assert quantize_group([-1e9], p)[0] == 0

    def test_corrupt_codes_rejected(self):
        p = QuantParams(scale=1.0, zero_point=0.0, bits=4)
        with pytest.raises(CorruptCodes):
            dequantize_group([16], p)


class TestQuantizeTensor:
    def test_single_group(self):
        qt = quantize_tensor(Tensor([[1.0, 2.0], [3.0, 4.0]]), bits=8, group_size=4)
        assert qt.n_groups == 1

    def test_partition_arithmetic(self):
        w = Tensor(np.linspace(0, 1, 300).reshape(1, 300))
        qt = quantize_tensor(w, bits=8, group_size=128)
        assert qt.n_groups == 3
        sizes = [qt.group_slice(g).stop - qt.group_slice(g).start for g in range(3)]
        assert sizes == [128, 128, 44]

    def test_16bit_near_lossless(self):
        rng = SeededRng(31)
        w = Tensor(rng.normals(64 * 64).reshape(64, 64))
        qt = quantize_tensor(w, bits=16)
        err = quant_error(w, qt)
        assert err["frobenius_rel"] < 1e-3

    def test_cache_matches_recompute(self):
        rng = SeededRng(37)
        w = Tensor(rng.normals(200).reshape(10, 20))
        qt = quantize_tensor(w, bits=4, group_size=64)
        np.testing.assert_array_equal(qt.dequant_cache, qt.recompute_cache())

    def test_deterministic(self):
        rng = SeededRng(41)
        vals = rng.normals(256).reshape(16, 16)
        a = quantize_tensor(Tensor(vals), bits=4)
        b = quantize_tensor(Tensor(vals.copy()), bits=4)
        np.testing.assert_array_equal(a.codes, b.codes)
        assert a.params == b.params


class TestQuantError:
    def test_lattice_exact_zero_error(self):
        # spanning the full 4-bit code range makes the min-max fit reproduce
        # the generating lattice exactly
        p_scale, p_zero = 0.5, -2.0
        vals = (p_zero + p_scale * np.arange(16, dtype=np.float64)).reshape(4, 4)
        qt = quantize_tensor(Tensor(vals), bits=4, group_size=16)
        err = quant_error(Tensor(vals), qt)
        assert err["max_abs"] <= 1e-12
        assert err["frobenius_rel"] <= 1e-12

    def test_constant_tensor(self):
        w = Tensor(np.full((5, 5), 2.5))
        err = quant_error(w, quantize_tensor(w, bits=4))
        assert err["max_abs"] <= 1e-12

    def test_more_bits_less_error(self):
        rng = SeededRng(43)
        w = Tensor(rng.normals(64).reshape(8, 8))
        e4 = quant_error(w, quantize_tensor(w, bits=4))
        e8 = quant_error(w, quantize_tensor(w, bits=8))
        assert e8["frobenius_rel"] < e4["frobenius_rel"]

    def test_shape_mismatch(self):
        w = Tensor(np.zeros((2, 2)))
        qt = quantize_tensor(Tensor(np.zeros((2, 3))), bits=8)
        with pytest.raises(InvalidShape):
            quant_error(w, qt)


class TestMonotonePrecision:
    def test_frobenius_monotone_in_bits(self):
        rng = SeededRng(47)
        for trial in range(5):
            w = Tensor(rng.normals(300).reshape(15, 20))
            errs = [quant_error(w, quantize_tensor(w, bits=b))["frobenius_rel"]
                    for b in (4, 8, 16)]
            assert errs[0] >= errs[1] >= errs[2]


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200),
       st.sampled_from([4, 8, 16]))
@settings(max_examples=200, deadline=None)
def test_round_trip_bound_property(values, bits):
    p = fit_minmax(values, bits)
    deq = dequantize_group(quantize_group(values, p), p)
    bound = p.scale / 2 + 1e-12
    assert all(abs(x - y) <= bound for x, y in zip(values, deq))


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=99))
@settings(max_examples=100, deadline=None)
def test_pack_unpack_round_trip_4bit(codes):
    arr = np.array(codes, dtype=np.int64)
    assert list(unpack_codes(pack_codes(arr, 4), 4, arr.size)) == codes


@pytest.mark.parametrize("bits,hi", [(8, 255), (16, 65535)])
def test_pack_unpack_round_trip_wide(bits, hi):
    rng = SeededRng(53)
    codes = np.array([rng.randint(hi + 1) for _ in range(77)], dtype=np.int64)
    out = unpack_codes(pack_codes(codes, bits), bits, codes.size)
    np.testing.assert_array_equal(out, codes)


def test_pack_rejects_out_of_range():
    with pytest.raises(CorruptCodes):
        pack_codes(np.array([16]), 4)
