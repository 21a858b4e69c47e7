import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taq.errors import InvalidInput
from taq.linalg import SeededRng, Tensor
from taq.quant import QTensor, quant_error, quantize_tensor

from oracles import minmax_quantize_loop


def row(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64).reshape(1, -1))


class TestFitMinmax:
    """The per-group min-max fit, through quantize_tensor."""

    def test_exact_range_fit(self):
        qt = quantize_tensor(row([0.0, 255.0]), bits=8)
        assert qt.scale.tolist() == [1.0]
        assert qt.zero_point.tolist() == [0.0]

    def test_constant_group(self):
        qt = quantize_tensor(row([3.5, 3.5, 3.5]), bits=4)
        assert qt.scale.tolist() == [1e-12]
        assert qt.zero_point.tolist() == [3.5]
        np.testing.assert_array_equal(qt.weights, [[3.5, 3.5, 3.5]])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match=r"Tensor dimensions must be positive, got \(0, 3\)"):
            quantize_tensor(Tensor(np.zeros((0, 3))), bits=8)
        with pytest.raises(InvalidInput, match="0x3 in groups of 4 needs 0 codes"):
            QTensor(codes=[], scale=[], zero_point=[], bits=8, group_size=4, rows=0, cols=3)

    def test_bad_bits_rejected(self):
        with pytest.raises(InvalidInput):
            quantize_tensor(row([1.0]), bits=5)
        with pytest.raises(InvalidInput):
            QTensor(codes=[0], scale=[1.0], zero_point=[0.0], bits=5, group_size=1,
                    rows=1, cols=1)

    @pytest.mark.parametrize("bits, group_size", [(4, 2.5), (4, True), (4.0, 128), (8, "2")],
                             ids=["fractional-group", "bool-group", "float-bits", "string-group"])
    def test_non_integer_format_rejected(self, bits, group_size):
        with pytest.raises(InvalidInput):
            quantize_tensor(row([0.0, 1.0, 2.0]), bits, group_size)

    def test_non_finite_range_rejected(self):
        # [-1e308, 1e308]: hi - lo overflows float64 to an infinite scale
        for group in ([-1e308, 1e308], [0.0, np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(InvalidInput):
                quantize_tensor(row(group), bits=8)
        # only the second group overflows
        with pytest.raises(InvalidInput, match="group 1"):
            quantize_tensor(row([0.0, 1.0, -1e308, 1e308]), bits=8, group_size=2)

    def test_round_trip_bound_random_group(self):
        rng = SeededRng(21)
        group = rng.normals(128)
        qt = quantize_tensor(row(group), bits=4, group_size=128)
        # independent per-element check
        for x, y in zip(group, qt.weights[0]):
            assert abs(x - y) <= qt.scale[0] / 2 + 1e-12


class TestQuantizeGroup:
    def test_zero_point_maps_to_zero_code(self):
        qt = quantize_tensor(row([1.25, 2.0, 5.0]), bits=8)
        assert qt.zero_point[0] == 1.25
        assert qt.codes[0] == 0

    def test_lattice_points_exact(self):
        ks = np.arange(0, 16)
        xs = -1.0 + 0.25 * ks
        qt = quantize_tensor(row(xs), bits=4, group_size=16)
        assert (qt.scale[0], qt.zero_point[0]) == (0.25, -1.0)
        np.testing.assert_array_equal(qt.codes, ks)
        np.testing.assert_allclose(qt.weights[0], xs, atol=1e-15)

    def test_ties_round_away_from_zero(self):
        # scale 1, zero-point 0: half-to-even would give codes 0, 2, 2
        qt = quantize_tensor(row([0.0, 0.5, 1.5, 2.5, 15.0]), bits=4)
        assert qt.codes.tolist() == [0, 1, 2, 3, 15]

    def test_corrupt_codes_rejected(self):
        # checked as given: cast to uint8 first, 256 and 2**64 - 1 would wrap
        for bad in ([0, 16], [0, -1], np.array([0, 256], np.uint16),
                    np.array([0, 2**64 - 1], np.uint64)):
            with pytest.raises(InvalidInput, match=r"codes outside \[0, 15\] for bits=4"):
                QTensor(codes=bad, scale=[1.0], zero_point=[0.0], bits=4,
                        group_size=2, rows=1, cols=2)


class TestQTensor:
    def test_count_mismatch_rejected(self):
        ok = dict(codes=[0, 1, 2], scale=[1.0, 1.0], zero_point=[0.0, 0.0], bits=4,
                  group_size=2, rows=1, cols=3)
        QTensor(**ok)
        for key, value in (("codes", [0, 1]), ("scale", [1.0]), ("zero_point", [0.0] * 3),
                           ("cols", 4)):
            with pytest.raises(InvalidInput, match="in groups of 2 needs"):
                QTensor(**{**ok, key: value})

    def test_non_positive_scale_rejected(self):
        for scale in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidInput):
                QTensor(codes=[0], scale=[scale], zero_point=[0.0], bits=8, group_size=1,
                        rows=1, cols=1)

    @pytest.mark.parametrize("field, value", [
        ("codes", [1.5, 2.9]),
        ("codes", [True, False]),
        ("codes", [2**70, 1]),
        ("codes", ["a", "b"]),
        ("codes", [[1], [1, 2]]),
        ("scale", [np.inf]),
        ("scale", ["a"]),
        ("zero_point", [np.inf]),
        ("zero_point", [np.nan]),
        ("rows", 1.0),
    ], ids=["fractional-codes", "bool-codes", "codes-beyond-int64", "string-codes",
            "ragged-codes", "inf-scale", "string-scale", "inf-zero-point", "nan-zero-point",
            "float-rows"])
    def test_bad_inputs_rejected(self, field, value):
        # fractional codes used to be truncated, an infinite zero-point gave
        # infinite weights, and huge or non-numeric codes raised bare numpy errors
        ok = dict(codes=[1, 2], scale=[1.0], zero_point=[0.0], bits=4, group_size=2,
                  rows=1, cols=2)
        QTensor(**ok)
        with pytest.raises(InvalidInput):
            QTensor(**{**ok, field: value})

    @pytest.mark.parametrize("bits, dtype", [(4, np.uint8), (8, np.uint8), (16, np.uint16)])
    def test_codes_stored_narrow(self, bits, dtype):
        # one byte per code at 4 and 8 bits, two at 16, whether fitted or given
        w = Tensor(SeededRng(61).normals(5 * 7).reshape(5, 7))
        qt = quantize_tensor(w, bits, group_size=4)
        given = QTensor(codes=qt.codes.astype(np.int64), scale=qt.scale,
                        zero_point=qt.zero_point, bits=bits, group_size=4, rows=5, cols=7)
        for q in (qt, given):
            assert q.codes.dtype == dtype
            assert q.codes.nbytes == np.dtype(dtype).itemsize * 5 * 7
        np.testing.assert_array_equal(given.weights, qt.weights)

    @pytest.mark.parametrize("bits", [4, 8, 16])
    @pytest.mark.parametrize("group_size", [1, 7, 128, 500])
    def test_matches_loop_oracle(self, bits, group_size):
        # 9x23 = 207 weights: short last groups at 7 and 128, one group at 500;
        # the first two rows are constant, so some groups hit the scale floor
        vals = SeededRng(59).normals(207).reshape(9, 23) * 3.0
        vals[:2] = 0.75
        qt = quantize_tensor(Tensor(vals), bits, group_size)
        codes, scales, zeros, weights = minmax_quantize_loop(vals.reshape(-1), bits, group_size)
        np.testing.assert_array_equal(qt.codes, codes)
        np.testing.assert_array_equal(qt.scale, scales)
        np.testing.assert_array_equal(qt.zero_point, zeros)
        np.testing.assert_array_equal(qt.weights, weights.reshape(9, 23))


class TestQuantizeTensor:
    def test_single_group(self):
        qt = quantize_tensor(Tensor([[1.0, 2.0], [3.0, 4.0]]), bits=8, group_size=4)
        assert qt.scale.size == qt.zero_point.size == 1

    @pytest.mark.parametrize("group_size", [2**40, 2**62], ids=["2**40", "2**62"])
    def test_group_past_tensor_is_one_group(self, group_size):
        # such a group size used to size per-element arrays by itself
        qt = quantize_tensor(Tensor(np.ones((2, 2))), 4, group_size)
        assert qt.scale.shape == qt.zero_point.shape == (1,)
        np.testing.assert_array_equal(qt.weights, np.ones((2, 2)))
        given = QTensor(codes=[0], scale=[1.0], zero_point=[0.0], bits=4,
                        group_size=group_size, rows=1, cols=1)
        assert given.scale.shape == (1,) and given.weights.tolist() == [[0.0]]

    def test_partition_arithmetic(self):
        # groups of 128, 128 and 44: each zero-point is its group's first
        # (smallest) value of the increasing ramp, each scale its own span
        flat = np.linspace(0, 1, 300)
        qt = quantize_tensor(row(flat), bits=8, group_size=128)
        np.testing.assert_array_equal(qt.zero_point, flat[[0, 128, 256]])
        np.testing.assert_array_equal(
            qt.scale, [(flat[127] - flat[0]) / 255, (flat[255] - flat[128]) / 255,
                       (flat[299] - flat[256]) / 255])

    def test_16bit_near_lossless(self):
        rng = SeededRng(31)
        w = Tensor(rng.normals(64 * 64).reshape(64, 64))
        qt = quantize_tensor(w, bits=16)
        err = quant_error(w, qt)
        assert err["frobenius_rel"] < 1e-3

    def test_deterministic(self):
        rng = SeededRng(41)
        vals = rng.normals(256).reshape(16, 16)
        a = quantize_tensor(Tensor(vals), bits=4)
        b = quantize_tensor(Tensor(vals.copy()), bits=4)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.scale, b.scale)
        np.testing.assert_array_equal(a.zero_point, b.zero_point)


class TestQuantError:
    def test_lattice_exact_zero_error(self):
        # spanning the full 4-bit code range makes the min-max fit reproduce
        # the generating lattice exactly
        p_scale, p_zero = 0.5, -2.0
        vals = (p_zero + p_scale * np.arange(16, dtype=np.float64)).reshape(4, 4)
        qt = quantize_tensor(Tensor(vals), bits=4, group_size=16)
        assert np.abs(vals - qt.weights).max() <= 1e-12
        assert quant_error(Tensor(vals), qt)["frobenius_rel"] <= 1e-12

    def test_constant_tensor(self):
        w = Tensor(np.full((5, 5), 2.5))
        assert np.abs(w.values - quantize_tensor(w, bits=4).weights).max() <= 1e-12

    def test_more_bits_less_error(self):
        rng = SeededRng(43)
        w = Tensor(rng.normals(64).reshape(8, 8))
        e4 = quant_error(w, quantize_tensor(w, bits=4))
        e8 = quant_error(w, quantize_tensor(w, bits=8))
        assert e8["frobenius_rel"] < e4["frobenius_rel"]

    def test_shape_mismatch(self):
        w = Tensor(np.zeros((2, 2)))
        qt = quantize_tensor(Tensor(np.zeros((2, 3))), bits=8)
        with pytest.raises(InvalidInput, match="shape mismatch: tensor 2x2 vs qtensor 2x3"):
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
       st.sampled_from([4, 8, 16]),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_round_trip_bound_property(values, bits, group_size):
    qt = quantize_tensor(row(values), bits, group_size)
    for i, (x, y) in enumerate(zip(values, qt.weights[0])):
        assert abs(x - y) <= qt.scale[i // group_size] / 2 + 1e-12
