"""Quantizer arithmetic, clip ranges, and straight-through gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsci.autodiff as ad
import reference_impl
from qsci.autodiff import Tape, Tensor, backward
from qsci.errors import ConfigError, NumericError
from qsci.quantize import (ActQuantizer, BitWidth, WeightQuantizer, act_dequantize,
                           act_quantize, fake_quant, q_linear, weight_dequantize,
                           weight_quantize)

LOW_BITS = (2, 3, 4, 8)


def make_act(bits, alpha=1.0, z=0.0):
    q = ActQuantizer(bits)
    q.alpha.data[0] = alpha
    q.z.data[0] = z
    return q


def make_weight(bits, alpha=1.0):
    q = WeightQuantizer(bits)
    q.alpha.data[0] = alpha
    return q


class TestBitWidth:
    def test_clip_bounds_8bit(self):
        bw = BitWidth(8)
        assert bw.q_n == 128 and bw.q_p == 127

    @pytest.mark.parametrize("bits,qn,qp", [(2, 2, 1), (3, 4, 3), (4, 8, 7), (8, 128, 127)])
    def test_clip_bounds(self, bits, qn, qp):
        bw = BitWidth(bits)
        assert (bw.q_n, bw.q_p) == (qn, qp)

    def test_32_is_passthrough(self):
        assert BitWidth(32).passthrough

    @pytest.mark.parametrize("bits", [1, 5, 16, 0])
    def test_invalid_bits(self, bits):
        with pytest.raises(ConfigError):
            BitWidth(bits)


class TestActQuantize:
    def test_zero_maps_to_zero(self):
        assert act_quantize(np.float32([0.0]), make_act(8))[0] == 0.0

    def test_clips_at_upper_bound(self):
        # 8-bit upper clip is 2^7 - 1
        assert act_quantize(np.float32([300.0]), make_act(8))[0] == 127.0

    def test_clips_at_lower_bound(self):
        assert act_quantize(np.float32([-300.0]), make_act(8))[0] == -128.0

    def test_scale_and_zero_point(self):
        # (2.3 - 0.1) / 0.5 = 4.4 -> 4
        assert act_quantize(np.float32([2.3]), make_act(8, 0.5, 0.1))[0] == 4.0

    def test_round_half_to_even(self):
        q = make_act(8)
        np.testing.assert_array_equal(
            act_quantize(np.float32([0.5, 1.5, 2.5, -0.5]), q), [0.0, 2.0, 2.0, -0.0])

    def test_dequantize(self):
        q = make_act(8, 0.5, 0.1)
        assert act_dequantize(np.float32([0.0]), make_act(8))[0] == 0.0
        assert act_dequantize(np.float32([4.0]), q)[0] == pytest.approx(2.1)

    def test_quantize_dequantize_fixed_point(self):
        rng = np.random.default_rng(0)
        q = make_act(8, 0.03, -0.2)
        x = rng.standard_normal(256).astype(np.float32)
        xhat = act_dequantize(act_quantize(x, q), q)
        xhat2 = act_dequantize(act_quantize(xhat, q), q)
        np.testing.assert_array_equal(xhat, xhat2)

    def test_integral_inputs_are_fixed_points(self):
        # alpha=1, z=0: integers inside the clip range quantize to themselves
        q = make_act(8)
        x = np.arange(-128, 128, dtype=np.float32)
        np.testing.assert_array_equal(act_quantize(x, q), x)

    def test_non_finite_input(self):
        with pytest.raises(NumericError):
            act_quantize(np.float32([np.inf]), make_act(8))

    @settings(max_examples=60, deadline=None)
    @given(bits=st.sampled_from(LOW_BITS),
           alpha=st.floats(1e-3, 10.0),
           z=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2**16))
    def test_codes_in_range_and_monotone(self, bits, alpha, z, seed):
        q = make_act(bits, alpha, z)
        x = np.sort(np.random.default_rng(seed).uniform(-50, 50, 64).astype(np.float32))
        codes = act_quantize(x, q)
        bw = BitWidth(bits)
        assert codes.min() >= -bw.q_n and codes.max() <= bw.q_p
        assert np.all(np.diff(codes) >= 0)
        assert np.array_equal(codes, np.rint(codes))


class TestWeightQuantize:
    def test_zero_weight(self):
        q = make_weight(4)
        assert weight_dequantize(weight_quantize(np.float32([0.0]), q), q)[0] == 0.0

    def test_in_range_integral(self):
        # 4-bit: clip(5, -8, 7) = 5
        q = make_weight(4)
        codes = weight_quantize(np.float32([5.0]), q)
        assert codes[0] == 5.0
        assert weight_dequantize(codes, q)[0] == 5.0

    def test_clips_to_negative_bound(self):
        # 4-bit lower bound is -2^3
        assert weight_quantize(np.float32([-100.0]), make_weight(4))[0] == -8.0

    @settings(max_examples=40, deadline=None)
    @given(bits=st.sampled_from(LOW_BITS), alpha=st.floats(1e-3, 5.0), seed=st.integers(0, 2**16))
    def test_code_range(self, bits, alpha, seed):
        q = make_weight(bits, alpha)
        w = np.random.default_rng(seed).standard_normal(128).astype(np.float32) * 10
        codes = weight_quantize(w, q)
        bw = BitWidth(bits)
        assert codes.min() >= -bw.q_n and codes.max() <= bw.q_p


class TestFakeQuant:
    def test_passthrough_identity(self):
        q = ActQuantizer(32)
        x = Tensor(np.float32([1.234, -5.6]), requires_grad=True)
        out = fake_quant(x, q)
        assert out is x

    def test_forward_equals_quant_dequant(self):
        rng = np.random.default_rng(1)
        q = make_act(4, 0.2, 0.05)
        x = rng.standard_normal(100).astype(np.float32)
        out = fake_quant(Tensor(x), q)
        np.testing.assert_array_equal(out.data, act_dequantize(act_quantize(x, q), q))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        q = make_act(3, 0.7, -0.1)
        x = Tensor(rng.standard_normal(64).astype(np.float32) * 4)
        once = fake_quant(x, q)
        twice = fake_quant(once, q)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_ste_grad_in_range_passes_upstream(self):
        q = make_act(8)
        x = Tensor(np.float32([1.2, -3.4, 100.0]), requires_grad=True)
        g_up = np.float32([2.0, -1.0, 0.5])
        with Tape():
            out = fake_quant(x, q)
            loss = ad.sum_(out * Tensor(g_up))
        backward(loss)
        np.testing.assert_allclose(x.grad, g_up)

    def test_ste_grad_clipped_is_zero(self):
        q = make_act(8)
        x = Tensor(np.float32([300.0, -300.0, 1.0]), requires_grad=True)
        with Tape():
            loss = ad.sum_(fake_quant(x, q))
        backward(loss)
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bits", LOW_BITS)
    def test_ste_mask_10k_elements(self, bits):
        # nonzero x-grad exactly where the pre-clip value is inside the range
        rng = np.random.default_rng(bits)
        q = make_act(bits, 0.31, 0.07)
        bw = BitWidth(bits)
        x_arr = rng.uniform(-2.5 * bw.q_n * 0.31, 2.5 * bw.q_p * 0.31, 10_000).astype(np.float32)
        v = (x_arr - 0.07) / np.float32(0.31)
        on_boundary = (np.abs(v + bw.q_n) < 1e-3) | (np.abs(v - bw.q_p) < 1e-3)
        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            loss = ad.sum_(fake_quant(x, q))
        backward(loss)
        inside = (v >= -bw.q_n) & (v <= bw.q_p)
        keep = ~on_boundary
        np.testing.assert_array_equal(x.grad[keep] != 0, inside[keep])

    def test_alpha_grad_on_clipped_elements(self):
        # clipped-high output is exactly q_p * alpha + z, so d/dalpha = q_p
        q = make_act(4, 0.5, 0.0)
        x = Tensor(np.full(10, 100.0, np.float32), requires_grad=True)
        with Tape():
            loss = ad.sum_(fake_quant(x, q))
        backward(loss)
        assert q.alpha.grad[0] == pytest.approx(10 * 7)      # q_p = 7 per element
        assert q.z.grad[0] == pytest.approx(10.0)            # dz = 1 per clipped element
        x2 = Tensor(np.full(6, -100.0, np.float32), requires_grad=True)
        q.alpha.zero_grad()
        q.z.zero_grad()
        with Tape():
            loss = ad.sum_(fake_quant(x2, q))
        backward(loss)
        assert q.alpha.grad[0] == pytest.approx(-6 * 8)      # -q_n = -8
        assert q.z.grad[0] == pytest.approx(6.0)

    def test_alpha_grad_sign_matches_forward_change(self):
        # forward-difference sanity on the clipped branch
        q = make_act(4, 0.5, 0.0)
        x = Tensor(np.full(4, 50.0, np.float32), requires_grad=True)
        with Tape():
            loss = ad.sum_(fake_quant(x, q))
        backward(loss)
        h = 1e-3
        base = ad.sum_(fake_quant(x, q)).item()
        q.alpha.data[0] += h
        up = ad.sum_(fake_quant(x, q)).item()
        q.alpha.data[0] -= h
        assert np.sign(up - base) == np.sign(q.alpha.grad[0])
        assert (up - base) / h == pytest.approx(q.alpha.grad[0], rel=1e-3)

    def test_alpha_grad_in_range_is_rounding_residual(self):
        # single in-range element: d xhat / d alpha = code - (x - z)/alpha
        alpha, z = 0.5, 0.1
        q = make_act(8, alpha, z)
        x_val = 2.3
        x = Tensor(np.float32([x_val]), requires_grad=True)
        with Tape():
            loss = ad.sum_(fake_quant(x, q))
        backward(loss)
        v = (x_val - z) / alpha
        expected = np.rint(v) - v
        assert q.alpha.grad[0] == pytest.approx(expected, rel=1e-4)
        assert q.z.grad[0] == 0.0

    def test_weight_quantizer_has_no_zero_point(self):
        q = make_weight(4, 0.5)
        w = Tensor(np.float32([1.3, -0.4]), requires_grad=True)
        with Tape():
            loss = ad.sum_(fake_quant(w, q))
        backward(loss)
        assert q.alpha.grad is not None
        assert not hasattr(q, "z")


class TestMatchesMaskedFormula:
    """The mask-free fake_quant reproduces the masked formula bit for bit."""

    @pytest.mark.parametrize("bits", LOW_BITS)
    @pytest.mark.parametrize("kind", ["act", "weight"])
    def test_out_and_grads_bit_exact(self, bits, kind):
        rng = np.random.default_rng(bits)
        bw = BitWidth(bits)
        # a scale and zero-point exact in binary, so x = z + alpha * k lands
        # exactly on code k (and on the rounding tie k + 0.5)
        alpha, z = 0.375, (0.625 if kind == "act" else 0.0)
        q = make_act(bits, alpha, z) if kind == "act" else make_weight(bits, alpha)
        exact = np.arange(-bw.q_n - 2, bw.q_p + 3, 0.5, dtype=np.float32)
        spread = rng.uniform(-3.0 * bw.q_n, 3.0 * bw.q_p, 500).astype(np.float32)
        x_arr = np.float32(z) + np.float32(alpha) * np.concatenate([exact, spread])
        v = (x_arr - np.float32(z)) / np.float32(alpha)
        assert (v < -bw.q_n).any() and (v > bw.q_p).any()
        assert (v == -bw.q_n).any() and (v == bw.q_p).any()

        g = rng.standard_normal(x_arr.size).astype(np.float32)
        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            out = fake_quant(x, q)
            loss = ad.sum_(out * Tensor(g))
        backward(loss)

        ref_out, ref_dx, ref_dalpha, ref_dz = reference_impl.fake_quant_masked(
            x_arr, alpha, z, bits, g)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(fake_quant(Tensor(x_arr), q).data, ref_out)
        assert np.array_equal(x.grad, ref_dx)
        assert np.array_equal(q.alpha.grad, ref_dalpha)
        if kind == "act":
            assert np.array_equal(q.z.grad, ref_dz)


class TestQLinear:
    def test_integral_exact(self):
        aq, wq = make_act(8), make_weight(8)
        x = np.float32([[3.0, -2.0]])
        w = np.float32([[4.0], [5.0]])
        out = q_linear(x, w, aq, wq)
        np.testing.assert_array_equal(out, [[2.0]])   # 3*4 + (-2)*5

    def test_passthrough_is_plain_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 2)).astype(np.float32)
        out = q_linear(x, w, ActQuantizer(32), WeightQuantizer(32))
        np.testing.assert_array_equal(out, x @ w)

    @pytest.mark.parametrize("bits", LOW_BITS)
    def test_matches_fake_quant_contraction(self, bits):
        rng = np.random.default_rng(bits + 10)
        aq = make_act(bits, 0.11, 0.03)
        wq = make_weight(bits, 0.21)
        x = rng.standard_normal((5, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3)).astype(np.float32)
        oracle = (act_dequantize(act_quantize(x, aq), aq)
                  @ weight_dequantize(weight_quantize(w, wq), wq))
        out = q_linear(x, w, aq, wq)
        np.testing.assert_allclose(out, oracle, rtol=1e-5, atol=1e-6)


class TestCalibration:
    def test_act_range_fits_clip_interval(self):
        rng = np.random.default_rng(4)
        q = ActQuantizer(4)
        samples = rng.uniform(-3.0, 9.0, 1000).astype(np.float32)
        q.calibrate(samples)
        codes = act_quantize(samples, q)
        bw = q.bitwidth
        assert codes.min() >= -bw.q_n and codes.max() <= bw.q_p
        # extremes are representable, not saturated past the range
        xhat = act_dequantize(codes, q)
        assert abs(float(xhat.max()) - 9.0) < 2 * float(q.alpha.data[0])

    def test_weight_scale_from_max(self):
        q = WeightQuantizer(4)
        w = np.float32([-1.4, 0.7])
        q.calibrate(w)
        assert q.alpha.data[0] == pytest.approx(1.4 / 7)
