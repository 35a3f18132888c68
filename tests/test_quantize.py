"""Quantizer arithmetic, clip ranges, and straight-through gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl
from qsci.autodiff import Tape, Tensor, backward
from qsci.errors import ConfigError, NumericError
from qsci.network import QLinear
from qsci.packed import IntKernel, PackedLayer, pack_weights
from qsci.quantize import ActQuantizer, act_quantize, fake_quant

LOW_BITS = (2, 3, 4, 8)


def make_act(bits, alpha=1.0, z=0.0):
    q = ActQuantizer(bits)
    q.alpha.data[0] = alpha
    q.z.data[0] = z
    return q


def make_weight(bits, alpha=1.0):
    q = ActQuantizer(bits, symmetric=True)
    q.alpha.data[0] = alpha
    return q


class TestClipRange:
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("bits,qn,qp", [(2, 2, 1), (3, 4, 3), (4, 8, 7), (8, 128, 127)])
    def test_clip_bounds(self, bits, qn, qp, symmetric):
        q = ActQuantizer(bits, symmetric)
        assert (q.bits, q.q_n, q.q_p) == (bits, qn, qp)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_32_bits_has_no_parameters_and_ignores_calibration(self, symmetric):
        q = ActQuantizer(32, symmetric)
        q.calibrate(np.float32([-3.0, 5.0]))
        assert q.params() == [] and q.alpha.data[0] == 1.0 and q.z.data[0] == 0.0

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("bits", [1, 5, 16, 0])
    def test_invalid_bits(self, bits, symmetric):
        with pytest.raises(ConfigError, match=f"unsupported bit-width {bits}"):
            ActQuantizer(bits, symmetric)


class TestNonPositiveScale:
    """A scale that is not > 0 (0, below 0 or NaN) is a ConfigError from both
    quantizing paths, for an activation quantizer and a symmetric weight
    quantizer alike."""

    @pytest.mark.parametrize("alpha", [0.0, -0.5, np.nan])
    @pytest.mark.parametrize("make", [make_act, make_weight], ids=["act", "weight"])
    @pytest.mark.parametrize("quantize", [
        act_quantize, lambda x, q: fake_quant(Tensor(x), q)], ids=["act_quantize", "fake_quant"])
    def test_raises_config_error(self, quantize, make, alpha):
        q = make(4, alpha=alpha)
        with pytest.raises(ConfigError, match=f"scale must be positive, got {alpha}"):
            quantize(np.float32([0.25, -1.0]), q)


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
        assert reference_impl.dequantize(np.float32([0.0]), make_act(8))[0] == 0.0
        assert reference_impl.dequantize(np.float32([4.0]), q)[0] == pytest.approx(2.1)

    def test_quantize_dequantize_fixed_point(self):
        rng = np.random.default_rng(0)
        q = make_act(8, 0.03, -0.2)
        x = rng.standard_normal(256).astype(np.float32)
        xhat = reference_impl.dequantize(act_quantize(x, q), q)
        xhat2 = reference_impl.dequantize(act_quantize(xhat, q), q)
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
        assert codes.min() >= -q.q_n and codes.max() <= q.q_p
        assert np.all(np.diff(codes) >= 0)
        assert np.array_equal(codes, np.rint(codes))


class TestWeightQuantize:
    def test_zero_weight(self):
        q = make_weight(4)
        assert reference_impl.dequantize(act_quantize(np.float32([0.0]), q), q)[0] == 0.0

    def test_in_range_integral(self):
        # 4-bit: clip(5, -8, 7) = 5
        q = make_weight(4)
        codes = act_quantize(np.float32([5.0]), q)
        assert codes[0] == 5.0
        assert reference_impl.dequantize(codes, q)[0] == 5.0

    def test_clips_to_negative_bound(self):
        # 4-bit lower bound is -2^3
        assert act_quantize(np.float32([-100.0]), make_weight(4))[0] == -8.0

    @settings(max_examples=40, deadline=None)
    @given(bits=st.sampled_from(LOW_BITS), alpha=st.floats(1e-3, 5.0), seed=st.integers(0, 2**16))
    def test_code_range(self, bits, alpha, seed):
        q = make_weight(bits, alpha)
        w = np.random.default_rng(seed).standard_normal(128).astype(np.float32) * 10
        codes = act_quantize(w, q)
        assert codes.min() >= -q.q_n and codes.max() <= q.q_p


class TestFakeQuant:
    def test_passthrough_identity(self):
        q = ActQuantizer(32)
        x = Tensor(np.float32([1.234, -5.6]), requires_grad=True)
        out = fake_quant(x, q)
        assert out is x

    @pytest.mark.parametrize("bits", [4, 32])
    def test_hook_runs_once_on_the_input(self, bits):
        seen = []
        q = make_act(bits) if bits < 32 else ActQuantizer(32)
        q.on_next = seen.append
        x = Tensor(np.float32([0.5, -2.0]))
        fake_quant(x, q)
        fake_quant(Tensor(np.float32([9.0])), q)
        assert q.on_next is None
        assert len(seen) == 1 and seen[0] is x.data

    def test_hook_refit_applies_to_the_same_call(self):
        q = make_weight(4, 100.0)
        w = np.float32([1.4, -0.6])
        q.on_next = q.calibrate
        # alpha = 1.4 / 7 = 0.2: both weights are representable codes
        np.testing.assert_allclose(fake_quant(Tensor(w), q).data, w, rtol=1e-6)

    def test_forward_equals_quant_dequant(self):
        rng = np.random.default_rng(1)
        q = make_act(4, 0.2, 0.05)
        x = rng.standard_normal(100).astype(np.float32)
        out = fake_quant(Tensor(x), q)
        np.testing.assert_array_equal(out.data, reference_impl.dequantize(act_quantize(x, q), q))

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
            loss = reference_impl.sum_(out, g_up)
        backward(loss)
        np.testing.assert_allclose(x.grad, g_up)

    def test_ste_grad_clipped_is_zero(self):
        q = make_act(8)
        x = Tensor(np.float32([300.0, -300.0, 1.0]), requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(fake_quant(x, q))
        backward(loss)
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bits", LOW_BITS)
    def test_ste_mask_10k_elements(self, bits):
        # nonzero x-grad exactly where the pre-clip value is inside the range
        rng = np.random.default_rng(bits)
        q = make_act(bits, 0.31, 0.07)
        x_arr = rng.uniform(-2.5 * q.q_n * 0.31, 2.5 * q.q_p * 0.31, 10_000).astype(np.float32)
        v = (x_arr - 0.07) / np.float32(0.31)
        on_boundary = (np.abs(v + q.q_n) < 1e-3) | (np.abs(v - q.q_p) < 1e-3)
        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(fake_quant(x, q))
        backward(loss)
        inside = (v >= -q.q_n) & (v <= q.q_p)
        keep = ~on_boundary
        np.testing.assert_array_equal(x.grad[keep] != 0, inside[keep])

    def test_alpha_grad_on_clipped_elements(self):
        # clipped-high output is exactly q_p * alpha + z, so d/dalpha = q_p
        q = make_act(4, 0.5, 0.0)
        x = Tensor(np.full(10, 100.0, np.float32), requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(fake_quant(x, q))
        backward(loss)
        assert q.alpha.grad[0] == pytest.approx(10 * 7)      # q_p = 7 per element
        assert q.z.grad[0] == pytest.approx(10.0)            # dz = 1 per clipped element
        x2 = Tensor(np.full(6, -100.0, np.float32), requires_grad=True)
        q.alpha.zero_grad()
        q.z.zero_grad()
        with Tape():
            loss = reference_impl.sum_(fake_quant(x2, q))
        backward(loss)
        assert q.alpha.grad[0] == pytest.approx(-6 * 8)      # -q_n = -8
        assert q.z.grad[0] == pytest.approx(6.0)

    def test_alpha_grad_sign_matches_forward_change(self):
        # forward-difference sanity on the clipped branch
        q = make_act(4, 0.5, 0.0)
        x = Tensor(np.full(4, 50.0, np.float32), requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(fake_quant(x, q))
        backward(loss)
        h = 1e-3
        base = reference_impl.sum_(fake_quant(x, q)).item()
        q.alpha.data[0] += h
        up = reference_impl.sum_(fake_quant(x, q)).item()
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
            loss = reference_impl.sum_(fake_quant(x, q))
        backward(loss)
        v = (x_val - z) / alpha
        expected = np.rint(v) - v
        assert q.alpha.grad[0] == pytest.approx(expected, rel=1e-4)
        assert q.z.grad[0] == 0.0

    def test_weight_quantizer_has_no_zero_point(self):
        q = make_weight(4, 0.5)
        w = Tensor(np.float32([1.3, -0.4]), requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(fake_quant(w, q))
        backward(loss)
        assert q.alpha.grad is not None
        assert [name for name, _ in q.params()] == ["alpha"]
        assert q.z.data[0] == 0.0 and not q.z.requires_grad and q.z.grad is None


class TestScanOnce:
    """A quantizer scans only an input without the scan mark, after its
    hook. ``act_quantize`` marks a Tensor it scanned; ``fake_quant`` leaves
    its input, perhaps a parameter, unmarked. An array is always scanned."""

    @staticmethod
    def spy(monkeypatch):
        scanned = []
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: (scanned.append(a), real(a))[1])
        return scanned

    QUANTIZERS = pytest.mark.parametrize("quantize", [
        fake_quant, act_quantize],
        ids=["fake_quant", "code-domain"])

    @QUANTIZERS
    def test_marked_input_not_scanned(self, monkeypatch, quantize):
        half = Tensor(np.linspace(-0.5, 0.5, 12, dtype=np.float32))
        x = half + half
        scanned = self.spy(monkeypatch)
        quantize(x, make_act(4, 0.2))
        assert not any(a is x.data for a in scanned)

    @pytest.mark.parametrize("quantize,scans", [
        (fake_quant, 2), (act_quantize, 1)],
        ids=["fake_quant", "code-domain"])
    def test_unmarked_input_scanned(self, monkeypatch, quantize, scans):
        x = Tensor(np.linspace(-1, 1, 12, dtype=np.float32))
        q = make_act(4, 0.2)
        scanned = self.spy(monkeypatch)
        quantize(x, q)
        quantize(x, q)
        assert sum(a is x.data for a in scanned) == scans
        assert x.scanned == (scans == 1)

    def test_array_always_scanned(self, monkeypatch):
        x = np.linspace(-1, 1, 12, dtype=np.float32)
        q = make_act(4, 0.2)
        scanned = self.spy(monkeypatch)
        act_quantize(x, q)
        act_quantize(x, q)
        assert sum(a is x for a in scanned) == 2

    def test_32_bit_act_quantize_returns_its_input(self, monkeypatch):
        # the identity, after one hook call and one scan
        x = Tensor(np.float32([1.234, -5.6, 3e30]))
        q = ActQuantizer(32)
        seen = []
        q.on_next = seen.append
        scanned = self.spy(monkeypatch)
        assert act_quantize(x, q) is x.data
        assert act_quantize(x, q) is x.data
        assert len(seen) == 1 and seen[0] is x.data
        assert sum(a is x.data for a in scanned) == 1 and x.scanned

    def test_32_bit_weight_array_returned_and_scanned_each_call(self, monkeypatch):
        w = np.float32([[0.5, -7.0], [1e-30, 2.0]])
        q = ActQuantizer(32, symmetric=True)
        scanned = self.spy(monkeypatch)
        assert act_quantize(w, q) is w
        assert act_quantize(w, q) is w
        assert sum(a is w for a in scanned) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @QUANTIZERS
    def test_hook_runs_before_the_scan_raises(self, quantize, bad):
        x = Tensor(np.float32([0.5, bad]))
        q = make_act(4, 0.2)
        seen = []
        q.on_next = seen.append
        with pytest.raises(NumericError, match="passed to quantizer"):
            quantize(x, q)
        assert len(seen) == 1 and not x.scanned


class TestMatchesMaskedFormula:
    """The mask-free fake_quant reproduces the masked formula bit for bit."""

    @pytest.mark.parametrize("bits", LOW_BITS)
    @pytest.mark.parametrize("kind", ["act", "weight"])
    def test_out_and_grads_bit_exact(self, bits, kind):
        rng = np.random.default_rng(bits)
        # a scale and zero-point exact in binary, so x = z + alpha * k lands
        # exactly on code k (and on the rounding tie k + 0.5)
        alpha, z = 0.375, (0.625 if kind == "act" else 0.0)
        q = make_act(bits, alpha, z) if kind == "act" else make_weight(bits, alpha)
        exact = np.arange(-q.q_n - 2, q.q_p + 3, 0.5, dtype=np.float32)
        spread = rng.uniform(-3.0 * q.q_n, 3.0 * q.q_p, 500).astype(np.float32)
        x_arr = np.float32(z) + np.float32(alpha) * np.concatenate([exact, spread])
        v = (x_arr - np.float32(z)) / np.float32(alpha)
        assert (v < -q.q_n).any() and (v > q.q_p).any()
        assert (v == -q.q_n).any() and (v == q.q_p).any()

        g = rng.standard_normal(x_arr.size).astype(np.float32)
        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            out = fake_quant(x, q)
            loss = reference_impl.sum_(out, g)
        backward(loss)

        ref_out, ref_dx, ref_dalpha, ref_dz = reference_impl.fake_quant_masked(
            x_arr, alpha, z, bits, g)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(fake_quant(Tensor(x_arr), q).data, ref_out)
        assert np.array_equal(x.grad, ref_dx)
        assert np.array_equal(q.alpha.grad, ref_dalpha)
        if kind == "act":
            assert np.array_equal(q.z.grad, ref_dz)


class TestRebuild:
    """Under a tape a fake_quant output carries a rebuild that recomputes its
    array, bit for bit, from the input, scale and zero-point the node keeps;
    off the tape it carries none."""

    @pytest.mark.parametrize("bits", LOW_BITS)
    @pytest.mark.parametrize("kind", ["act", "weight"])
    def test_rebuilt_bytes_equal_the_forward(self, bits, kind):
        rng = np.random.default_rng(100 + bits)
        alpha, z = 0.375, (-0.625 if kind == "act" else 0.0)
        q = make_act(bits, alpha, z) if kind == "act" else make_weight(bits, alpha)
        ties = np.arange(-q.q_n - 3, q.q_p + 3, dtype=np.float32) + np.float32(0.5)
        spread = rng.uniform(-3.0 * q.q_n, 3.0 * q.q_p, 500).astype(np.float32)
        x_arr = np.float32(z) + np.float32(alpha) * np.concatenate([ties, spread])
        v = (x_arr - np.float32(z)) / np.float32(alpha)
        assert (v < -q.q_n).any() and (v > q.q_p).any()
        in_range = (v >= -q.q_n) & (v <= q.q_p)
        assert (in_range & (v - np.floor(v) == 0.5)).sum() >= q.q_p

        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            out = fake_quant(x, q)
        rebuilt = out.rebuild()
        assert rebuilt is not out.data
        assert rebuilt.dtype == np.float32 and rebuilt.tobytes() == out.data.tobytes()

    def test_no_rebuild_off_the_tape_or_at_32_bits(self):
        x = Tensor(np.linspace(-2.0, 2.0, 9, dtype=np.float32), requires_grad=True)
        assert fake_quant(x, make_act(4, 0.25)).rebuild is None
        with Tape():
            assert fake_quant(x, ActQuantizer(32)).rebuild is None


class TestQLinear:
    """The code-domain identity of a quantized linear layer, through the
    integer kernel that runs it:
    alpha_x * alpha_w * (Q_a(x) @ Q_w(w)) + alpha_w * z * sum(Q_w(w)) + bias."""

    @staticmethod
    def q_linear(x, w, aq, wq):
        module = QLinear(np.random.default_rng(0), *w.shape, bits=wq.bits)  # bias 0
        module.aq, module.wq = aq, wq
        layer = PackedLayer(name="linear", kind="linear", bits=wq.bits, shape=w.shape,
                            words=pack_weights(act_quantize(w, wq), wq.bits))
        return IntKernel(layer, module)(x)

    def test_integral_exact(self):
        aq, wq = make_act(8), make_weight(8)
        x = np.float32([[3.0, -2.0]])
        w = np.float32([[4.0], [5.0]])
        out = self.q_linear(x, w, aq, wq)
        np.testing.assert_array_equal(out, [[2.0]])   # 3*4 + (-2)*5

    @pytest.mark.parametrize("bits", LOW_BITS)
    def test_matches_fake_quant_contraction(self, bits):
        rng = np.random.default_rng(bits + 10)
        aq = make_act(bits, 0.11, 0.03)
        wq = make_weight(bits, 0.21)
        x = rng.standard_normal((5, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3)).astype(np.float32)
        oracle = (reference_impl.dequantize(act_quantize(x, aq), aq)
                  @ reference_impl.dequantize(act_quantize(w, wq), wq))
        out = self.q_linear(x, w, aq, wq)
        np.testing.assert_allclose(out, oracle, rtol=1e-5, atol=1e-6)


class TestCalibration:
    def test_act_range_fits_clip_interval(self):
        rng = np.random.default_rng(4)
        q = ActQuantizer(4)
        samples = rng.uniform(-3.0, 9.0, 1000).astype(np.float32)
        q.calibrate(samples)
        codes = act_quantize(samples, q)
        assert codes.min() >= -q.q_n and codes.max() <= q.q_p
        # extremes are representable, not saturated past the range
        xhat = reference_impl.dequantize(codes, q)
        assert abs(float(xhat.max()) - 9.0) < 2 * float(q.alpha.data[0])

    def test_weight_scale_from_max(self):
        q = ActQuantizer(4, symmetric=True)
        w = np.float32([-1.4, 0.7])
        q.calibrate(w)
        assert q.alpha.data[0] == pytest.approx(1.4 / 7)
