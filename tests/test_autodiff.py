"""Tensor/tape engine: value oracles and finite-difference gradient checks."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import qsci.autodiff as ad
import reference_impl
from qsci.autodiff import Tape, Tensor, backward
from qsci.errors import NumericError, ShapeError
from qsci.network import QConv3d
from qsci.quantize import ActQuantizer, fake_quant
from qsci.sci import initial_estimate
from qsci.training import mse_loss
from small_models import calibrated_net, small_inputs


def zero_bias(w) -> Tensor:
    """A zero bias for the output channels of conv weight ``w``."""
    return Tensor(np.zeros(w.shape[0], np.float32))


def loop_conv3d(x, w, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Nested-loop cross-correlation oracle (independent of the GEMM path)."""
    n, c, t, h, wd = x.shape
    o, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.zeros((n, c, t + 2 * pt, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd] = x
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, to, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for ti in range(to):
                for hi in range(ho):
                    for wi in range(wo):
                        acc = 0.0
                        for ci in range(c):
                            for a in range(kt):
                                for b in range(kh):
                                    for d in range(kw):
                                        acc += (xp[ni, ci, ti * st + a, hi * sh + b, wi * sw + d]
                                                * w[oi, ci, a, b, d])
                        out[ni, oi, ti, hi, wi] = acc
    return out


def fd_check(make_loss, tensors, h=1e-2, rtol=1e-3, atol=2e-4, skip=None):
    """Central finite differences vs the recorded analytic gradient.

    ``make_loss`` maps the tensors to a scalar Tensor; ``skip`` optionally
    masks elements (e.g. activation kinks) out of the comparison. The step is
    larger than the textbook 1e-3 because losses evaluate in float32: a wider
    step keeps quotient rounding noise below the 1e-3 relative target while
    the O(h^2) truncation term stays within tolerance.
    """
    for t in tensors:
        t.zero_grad()
    with Tape():
        loss = make_loss()
    backward(loss)
    for t in tensors:
        assert t.grad is not None, "no gradient reached a leaf"
        grad = t.grad.copy()
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            if skip is not None and skip(t, i):
                continue
            orig = flat[i]
            flat[i] = orig + h
            lp = make_loss().item()
            flat[i] = orig - h
            lm = make_loss().item()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            an = grad.reshape(-1)[i]
            assert abs(fd - an) <= atol + rtol * max(abs(fd), abs(an)), (
                f"grad mismatch at {i}: fd={fd} analytic={an}"
            )


def weighted(out, rng):
    """Project an op output to a scalar with fixed random weights so that
    symmetric gradient errors cannot cancel."""
    w = Tensor(rng.standard_normal(out.shape).astype(np.float32))
    return reference_impl.sum_(out * w)


# ---------------------------------------------------------------------------
# forward value oracles
# ---------------------------------------------------------------------------

class TestConv3d:
    def test_scalar_product(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), 3.0, np.float32))
        w = Tensor(np.full((1, 1, 1, 1, 1), 2.0, np.float32))
        out = ad.conv3d(x, w, zero_bias(w))
        assert out.data.reshape(()) == pytest.approx(6.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((1, 1, 3, 5, 5)).astype(np.float32))
        w = np.zeros((1, 1, 3, 3, 3), np.float32)
        w[0, 0, 1, 1, 1] = 1.0
        out = ad.conv3d(x, Tensor(w), zero_bias(w), padding=(1, 1, 1))
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 2, 1, 3, 3)).astype(np.float32)
        out = ad.conv3d(Tensor(x), Tensor(w), zero_bias(w))
        np.testing.assert_allclose(out.data, loop_conv3d(x, w), atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [((1, 2, 2), (1, 1, 1)), ((2, 1, 1), (0, 1, 1))])
    def test_strided_padded_vs_oracle(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 3)).astype(np.float32)
        out = ad.conv3d(Tensor(x), Tensor(w), zero_bias(w), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, loop_conv3d(x, w, stride, padding),
                                   atol=1e-4, rtol=1e-5)

    def test_bias(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 2, 3, 3)).astype(np.float32)
        w = rng.standard_normal((2, 2, 1, 1, 1)).astype(np.float32)
        b = np.array([0.5, -1.5], np.float32)
        out = ad.conv3d(Tensor(x), Tensor(w), Tensor(b))
        expect = loop_conv3d(x, w) + b.reshape(1, 2, 1, 1, 1)
        np.testing.assert_allclose(out.data, expect, atol=1e-5)

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((1, 3, 2, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 2, 1, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="channel"):
            ad.conv3d(x, w, zero_bias(w))

    def test_kernel_too_large_names_axis(self):
        x = Tensor(np.zeros((1, 1, 2, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 1, 3, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="temporal"):
            ad.conv3d(x, w, zero_bias(w))


class TestPointwiseConv:
    """An unpadded 1x1x1 unit-stride conv runs as a channel GEMM on the
    input itself, a padded one through its patch matrices; both must match
    the general im2col route bit for bit."""

    @pytest.mark.parametrize("c,o", [(5, 3), (3, 6)])
    @pytest.mark.parametrize("padding", [(0, 0, 0), (0, 1, 1)])
    def test_matches_im2col_route(self, c, o, padding):
        rng = np.random.default_rng(c * 10 + o)
        x_arr = rng.standard_normal((2, c, 3, 4, 5)).astype(np.float32)
        w_arr = rng.standard_normal((o, c, 1, 1, 1)).astype(np.float32)
        b_arr = rng.standard_normal(o).astype(np.float32)
        x, w, b = (Tensor(a, requires_grad=True) for a in (x_arr, w_arr, b_arr))
        out_shape = ad.conv3d_output_shape(x_arr.shape, w_arr.shape, (1, 1, 1), padding)
        g = rng.standard_normal(out_shape).astype(np.float32)
        with Tape():
            out = ad.conv3d(x, w, b, padding=padding)
            loss = reference_impl.sum_(out * Tensor(g))
        backward(loss)
        ref = reference_impl.conv3d_im2col(x_arr, w_arr, b_arr, g, padding=padding)
        for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestSampleRoute:
    """A conv with more than one tap runs one GEMM per sample and sums the
    per-sample weight gradients in sample order; out, dw and db must match
    the batched im2col route bit for bit, and each input-gradient route its
    batched formula."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("c,o,kernel,stride,padding,dx_route", [
        (4, 4, (3, 3, 3), (1, 1, 1), (1, 1, 1), "conv"),
        (3, 5, (3, 3, 3), (1, 1, 1), (1, 1, 1), "scatter"),
        (4, 4, (3, 3, 3), (1, 2, 2), (1, 1, 1), "scatter"),
        (6, 4, (1, 3, 3), (1, 1, 1), (0, 1, 1), "conv"),
        (2, 16, (3, 3, 3), (1, 1, 1), (1, 1, 1), "scatter"),
    ], ids=["k333", "k333-widening", "k333-stride122", "k133", "c2-o16"])
    def test_matches_batched_routes(self, n, c, o, kernel, stride, padding, dx_route):
        rng = np.random.default_rng(n * 100 + c * 10 + o)
        x_arr = rng.standard_normal((n, c, 3, 6, 5)).astype(np.float32)
        w_arr = rng.standard_normal((o, c) + kernel).astype(np.float32)
        b_arr = rng.standard_normal(o).astype(np.float32)
        x, w, b = (Tensor(a, requires_grad=True) for a in (x_arr, w_arr, b_arr))
        out_shape = ad.conv3d_output_shape(x_arr.shape, w_arr.shape, stride, padding)
        g = rng.standard_normal(out_shape).astype(np.float32)
        with Tape():
            out = ad.conv3d(x, w, b, stride=stride, padding=padding)
            loss = reference_impl.sum_(out * Tensor(g))
        backward(loss)
        ref_out, ref_dx, ref_dw, ref_db = reference_impl.conv3d_im2col(
            x_arr, w_arr, b_arr, g, stride, padding)
        if dx_route == "conv":
            ref_dx = reference_impl.conv3d_dx_as_conv(w_arr, g, x_arr.shape, padding)
        for got, want in zip((out.data, x.grad, w.grad, b.grad),
                             (ref_out, ref_dx, ref_dw, ref_db)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestSamplePatches:
    """``sample_patches`` pads nothing: each tap copies the window it reads
    inside the input into a zeroed buffer. Its matrices must equal those
    built from an ``np.pad`` copy, at odd extents."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kshape,stride,padding", [
        ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((3, 3, 3), (1, 1, 1), (0, 1, 1)),
        ((1, 3, 3), (1, 1, 1), (0, 1, 1)),
        ((3, 3, 3), (1, 1, 1), (2, 2, 2)),     # taps that read only padding
        ((3, 3, 3), (1, 2, 2), (1, 1, 1)),
        ((3, 3, 3), (1, 3, 3), (1, 1, 1)),
        ((3, 3, 3), (2, 1, 1), (1, 1, 1)),
        ((1, 1, 1), (1, 1, 1), (0, 1, 1)),
    ], ids=["k333-p111", "k333-p011", "k133-p011", "k333-p222", "s122", "s133", "s211",
            "k111-p011"])
    def test_equals_padded_reference(self, n, kshape, stride, padding):
        x = np.random.default_rng(n).standard_normal((n, 2, 3, 7, 6)).astype(np.float32)
        want = reference_impl.padded_patches(x, kshape, stride, padding)
        got = [p.copy() for p in ad.sample_patches(x, kshape, stride, padding)]
        assert len(got) == n
        for got_i, want_i in zip(got, want):
            assert got_i.shape == want_i.shape
            assert np.array_equal(got_i, want_i)


class TestTapeFootprint:
    """What a taped forward leaves on the tape, and what a conv allocates
    at its peak, measured with tracemalloc (numpy reports its buffers to
    it); arrays made before the start, such as the inputs, are not
    counted."""

    @staticmethod
    def held_after(forward):
        """(result, bytes still allocated) after ``forward()`` on a live tape."""
        tracemalloc.start()
        try:
            with Tape() as tape:
                result = forward()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        return result, held

    def test_conv3d_keeps_no_patch_matrix(self):
        rng = np.random.default_rng(21)
        n, c, o = 4, 4, 4
        x = Tensor(rng.standard_normal((n, c, 4, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((o, c, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = zero_bias(w)
        out, held = self.held_after(lambda: ad.conv3d(x, w, b, padding=(1, 1, 1)))
        # [N, C*27, P] with P = T*H*W at unit stride and padding 1
        assert held - out.data.nbytes < 27 * x.data.nbytes

    @staticmethod
    def peak_of(call):
        """(result, peak bytes allocated) of ``call()``."""
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    # a 3x3x3 pad-1 conv at N=4 over 4x8x8; its zero-padded input is 4x4x6x10x10
    N, C, DIMS, PADDED = 4, 4, (4, 8, 8), 4 * 4 * 6 * 10 * 10 * 4

    def test_taped_conv3d_forward_pads_no_copy_of_the_batch(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((self.N, self.C) + self.DIMS).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((self.C, self.C, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)

        b = zero_bias(w)

        def forward():
            with Tape():
                return ad.conv3d(x, w, b, padding=(1, 1, 1))

        out, peak = self.peak_of(forward)
        one_patch_matrix = self.C * 27 * out.data[0, 0].nbytes
        # numpy buffers the broadcast in-place bias add, at most getbufsize() elements
        bias_buffer = min(out.data.size, np.getbufsize()) * out.data.itemsize
        assert peak - out.data.nbytes - one_patch_matrix - bias_buffer < self.PADDED // 2

    def test_code_contraction_pads_no_copy_of_the_batch(self):
        rng = np.random.default_rng(26)
        layer = QConv3d(rng, self.C, self.C, (3, 3, 3), padding=(1, 1, 1), bits=4)
        x = rng.integers(-8, 8, size=(self.N, self.C) + self.DIMS).astype(np.float32)
        codes = rng.integers(-8, 8, size=layer.weight.shape).astype(np.float32)
        acc, peak = self.peak_of(lambda: layer.contract(x, codes))
        t, h, w = self.DIMS
        # the 9-tap patch matrix over every padded time step, and one GEMM's part
        patches = self.C * 9 * (t + 2) * h * w * 4
        assert peak - acc.nbytes - patches - acc[0].nbytes < self.PADDED // 2

    def test_leaky_relu_keeps_no_mask(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal(1 << 18).astype(np.float32), requires_grad=True)
        out, held = self.held_after(lambda: ad.leaky_relu(x))
        # a boolean mask would hold one byte per element
        assert held - out.data.nbytes < x.data.size

    def test_clamp_keeps_no_mask(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal(1 << 18).astype(np.float32), requires_grad=True)
        out, held = self.held_after(lambda: ad.clamp(x, -0.5, 0.5))
        # a boolean mask would hold one byte per element
        assert held - out.data.nbytes < x.data.size

    def test_fake_quant_keeps_no_array_of_its_own(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal(1 << 18).astype(np.float32), requires_grad=True)
        q = ActQuantizer(4)
        q.calibrate(x.data)
        out, held = self.held_after(lambda: fake_quant(x, q))
        # the pre-clip value or the codes would hold one input-sized array
        assert held - out.data.nbytes < x.data.nbytes / 8


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((3, 2)).astype(np.float32)
        out = ad.matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_one_by_one(self):
        out = ad.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data.reshape(()) == pytest.approx(6.0)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expect[i, j] += float(a[i, k]) * float(b[k, j])
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expect, atol=1e-5)

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestSoftmax:
    def test_single_element(self):
        out = ad.softmax(Tensor([[5.0]]))
        assert out.data.reshape(()) == pytest.approx(1.0)

    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        e = np.exp(x)
        out = ad.softmax(Tensor(x))
        np.testing.assert_allclose(out.data, e / e.sum(), atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 7)).astype(np.float32) * 5
        out = ad.softmax(Tensor(x))
        assert out.data.min() > 0 and out.data.max() < 1
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5)).astype(np.float32)
        a = ad.softmax(Tensor(x)).data
        b = ad.softmax(Tensor(x + 3.7)).data
        np.testing.assert_allclose(a, b, atol=1e-6)


    @pytest.mark.parametrize("t", range(1, 10))
    def test_bytes_equal_numpy_reductions(self, t):
        # below 8 the last-axis max and sums run as slice folds; the value
        # and gradient keep the bits of numpy's own reductions, signed
        # zeros included
        rng = np.random.default_rng(t)
        x_arr = (rng.standard_normal((5, 2, 3, t)) * 4).astype(np.float32)
        x_arr[0, 0] = 0.0
        x_arr[0, 1] = -0.0
        g = rng.standard_normal(x_arr.shape).astype(np.float32)
        g[1] = -0.0
        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            out = ad.softmax(x)
        (dx,) = out.node.backward_fn(g)
        e = np.exp(x_arr - x_arr.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        want_dx = (g - (g * want).sum(axis=-1, keepdims=True)) * want
        assert out.data.tobytes() == want.tobytes()
        assert dx.tobytes() == want_dx.tobytes()


class TestElementwise:
    def test_gelu_zero(self):
        assert ad.gelu(Tensor([0.0])).data[0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gelu_of_non_finite_input_raises_without_warning(self, bad):
        # -inf * Phi(-inf) is -inf * 0: NaN, which must not warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="op 'gelu'"):
                ad.gelu(Tensor([1.0, bad]))

    def test_gelu_float32_matches_reference(self):
        x = Tensor(np.linspace(-6.0, 6.0, 241, dtype=np.float32), requires_grad=True)
        with Tape():
            out = ad.gelu(x)
        g = np.ones(x.shape, np.float32)
        (dx,) = out.node.backward_fn(g)
        assert out.data.dtype == np.float32 and dx.dtype == np.float32
        xd = x.data.astype(np.float64)
        np.testing.assert_allclose(out.data, reference_impl.gelu(xd), rtol=1e-6, atol=1e-7)

    def test_leaky_relu_negative(self):
        out = ad.leaky_relu(Tensor([-1.0]))
        assert out.data[0] == pytest.approx(-0.01)

    def test_leaky_relu_bytes_match_reference_over_float32_sweep(self):
        # every 1000th float32 bit pattern, plus signed zeros, the smallest
        # and largest subnormals and +-FLT_MAX; NaN and inf are not finite
        # inputs of an op
        patterns = np.arange(0, 1 << 32, 1000, dtype=np.uint64).astype(np.uint32)
        edges = np.array([0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF,
                          0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF], dtype=np.uint32)
        x_arr = np.concatenate([patterns, edges]).view(np.float32)
        x_arr = x_arr[np.isfinite(x_arr)]
        g = np.random.default_rng(23).standard_normal(x_arr.size).astype(np.float32)
        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            out = ad.leaky_relu(x)
        (dx,) = out.node.backward_fn(g)
        ns = np.float32(0.01)
        assert out.data.tobytes() == reference_impl.leaky_relu(x_arr, ns).tobytes()
        assert dx.tobytes() == reference_impl.leaky_relu_grad(x_arr, g, ns).tobytes()

    def test_reshape_round_trip(self):
        rng = np.random.default_rng(8)
        x = rng.random((2, 3)).astype(np.float32)
        back = ad.reshape(ad.reshape(Tensor(x), (3, 2)), (2, 3))
        np.testing.assert_array_equal(back.data, x)

    def test_transpose_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.random((2, 3, 4)).astype(np.float32)
        back = ad.transpose(ad.transpose(Tensor(x), (2, 0, 1)), (1, 2, 0))
        np.testing.assert_array_equal(back.data, x)

    def test_concat_places_parts_in_order(self):
        rng = np.random.default_rng(10)
        a = rng.random((2, 3)).astype(np.float32)
        b = rng.random((2, 2)).astype(np.float32)
        cat = ad.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(cat.data[:, :3], a)
        np.testing.assert_array_equal(cat.data[:, 3:], b)

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            ad.add(Tensor([np.inf]), Tensor([1.0]))


class TestPixelShuffle:
    def test_r1_identity(self):
        rng = np.random.default_rng(11)
        x = rng.random((1, 3, 2, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(ad.pixel_shuffle_spatial(Tensor(x), 1).data, x)

    def test_index_map(self):
        # channels [a,b,c,d] land as the 2x2 block [[a,b],[c,d]]
        x = np.array([1.0, 2.0, 3.0, 4.0], np.float32).reshape(1, 4, 1, 1, 1)
        out = ad.pixel_shuffle_spatial(Tensor(x), 2)
        assert out.shape == (1, 1, 1, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_bijection_bit_exact(self):
        rng = np.random.default_rng(12)
        x = rng.random((2, 8, 3, 4, 5)).astype(np.float32)
        out = ad.pixel_unshuffle_spatial(ad.pixel_shuffle_spatial(Tensor(x), 2), 2)
        np.testing.assert_array_equal(out.data, x)
        y = rng.random((2, 2, 3, 4, 6)).astype(np.float32)
        out2 = ad.pixel_shuffle_spatial(ad.pixel_unshuffle_spatial(Tensor(y), 2), 2)
        np.testing.assert_array_equal(out2.data, y)

    def test_indivisible_channels(self):
        with pytest.raises(ShapeError, match="divisible"):
            ad.pixel_shuffle_spatial(Tensor(np.zeros((1, 3, 1, 1, 1), np.float32)), 2)


def same_bits(a, b):
    a, b = np.asarray(a, np.float32), np.asarray(b, np.float32)
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestLayerNorm:
    """``ad.layer_norm`` is one node with the bits of the nine-op chain it
    replaced (``reference_impl.layer_norm_ops``): value, input, gain and bias
    gradients. numpy reduces a last axis shorter than 8 sequentially and a
    longer one pairwise, hence the widths."""

    @staticmethod
    def step(norm, c, fanout):
        """(output, x.grad, gain.grad, bias.grad) of one backward through
        ``norm``, whose input fans out to a second consumer recorded before
        or after it, or to none."""
        rng = np.random.default_rng(c)
        x = Tensor((rng.standard_normal((5, 3, c)) * 3 + 1).astype(np.float32),
                   requires_grad=True)
        gain = Tensor(rng.standard_normal(c).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.standard_normal(c).astype(np.float32), requires_grad=True)
        g, g2, w = (Tensor(rng.standard_normal((5, 3, c)).astype(np.float32))
                    for _ in range(3))
        with Tape():
            h = x if fanout in ("none", "leaf-after") else ad.scale(x, 1.5)
            other = h * w if fanout == "node-before" else None
            out = norm(h, gain, bias, 1e-5)
            if fanout in ("leaf-after", "node-after"):
                other = h * w
            loss = reference_impl.sum_(out * g)
            if other is not None:
                loss = loss + reference_impl.sum_(other * g2)
        backward(loss)
        return out.data, x.grad, gain.grad, bias.grad

    @pytest.mark.parametrize("c", [4, 7, 16, 19])
    @pytest.mark.parametrize("fanout", ["none", "leaf-after", "node-before", "node-after"])
    def test_bits_equal_the_nine_op_chain(self, c, fanout):
        got = self.step(ad.layer_norm, c, fanout)
        want = self.step(reference_impl.layer_norm_ops, c, fanout)
        for name, a, b in zip(("value", "dx", "dgain", "dbias"), got, want):
            assert same_bits(a, b), name

    def test_one_node_holds_fewer_input_sized_arrays(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((256, 4, 16)).astype(np.float32), requires_grad=True)
        gain = Tensor(np.ones(16, np.float32), requires_grad=True)
        bias = Tensor(np.zeros(16, np.float32), requires_grad=True)

        def held(norm):
            """Input-sized arrays the tape holds besides the output."""
            tracemalloc.start()
            try:
                with Tape() as tape:
                    out = norm(x, gain, bias, 1e-5)
                nbytes = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return len(tape.nodes), (nbytes - out.data.nbytes) / x.data.nbytes

        nodes, one = held(ad.layer_norm)
        chain_nodes, chain = held(reference_impl.layer_norm_ops)
        assert (nodes, chain_nodes) == (1, 9)
        assert one < 1.5 and chain >= one + 2

    @pytest.mark.parametrize("row", [[3e19, -3e19, 0.0], [np.inf, 1.0, 0.0],
                                     [np.nan, 1.0, 0.0]], ids=["overflow", "inf", "nan"])
    def test_non_finite_raises_without_warning(self, row):
        # the chain raised at its first non-finite op, 'mul' for a finite
        # input whose centred square overflows; the one node scans the variance
        with pytest.raises(NumericError, match="op 'layer_norm'"):
            ad.layer_norm(Tensor(np.float32([row])), Tensor(np.ones(3, np.float32)),
                          Tensor(np.zeros(3, np.float32)), 1e-5)


class TestScanMark:
    """Each array is scanned for NaN/Inf once: an arithmetic op scans its
    output and marks it; a data-movement op scans nothing and passes the
    mark on only if every input carries it."""

    @staticmethod
    def spy(monkeypatch):
        scanned = []
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: (scanned.append(a), real(a))[1])
        return scanned

    def test_arithmetic_output_is_marked(self):
        x = Tensor(np.ones((2, 3), np.float32))
        assert not x.scanned
        assert ad.add(x, x).scanned and ad.layer_norm(
            x, Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32)), 1e-5).scanned

    def test_data_movement_scans_nothing_and_passes_the_mark(self, monkeypatch):
        rng = np.random.default_rng(13)
        plain = Tensor(rng.random((1, 4, 2, 4, 4)).astype(np.float32))
        marked = ad.scale(plain, 2.0)
        scanned = self.spy(monkeypatch)
        for x in (plain, marked):
            outs = [ad.reshape(x, (4, 32)), ad.transpose(x, (0, 2, 1, 3, 4)),
                    ad.pixel_unshuffle_spatial(x, 2), ad.pixel_shuffle_spatial(x, 2),
                    ad.concat([x, marked], axis=1)]
            assert [o.scanned for o in outs] == [x is marked] * len(outs)
        assert scanned == []

    def test_new_data_clears_the_mark(self):
        x = ad.scale(Tensor(np.ones(3, np.float32)), 2.0)
        same = Tensor(x)
        assert x.scanned and not same.scanned and same.data is x.data
        x.data = x.data.copy()
        assert not x.scanned


# ---------------------------------------------------------------------------
# backward: trivial cases, tape semantics, finite differences
# ---------------------------------------------------------------------------

class TestBackwardBasics:
    def test_exiting_nested_tapes_out_of_order_raises(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="tape stack corrupted"):
            outer.__exit__(None, None, None)
        # the failed exit leaves the stack as it was, so both still unwind
        assert ad.active_tape() is inner
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert ad.active_tape() is None

    def test_quadratic_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(x * x)
        backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = x * x
        with pytest.raises(ShapeError):
            backward(y)

    def test_detached_loss_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="detached"):
            backward(x)

    def test_tape_single_use(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(x * x)
        backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss)

    def test_backward_frees_tape_without_gc(self):
        # backward drops every node's rule and inputs, so the tape's saved
        # arrays go with the last reference, not at the next cyclic collection
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 2, 2, 3, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 1, 1, 1)).astype(np.float32), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape():
                hidden = ad.conv3d(x, w, zero_bias(w))
                act = ad.gelu(hidden)
                unused = ad.scale(hidden, 2.0)    # recorded, reached by no gradient
                loss = reference_impl.sum_(act * act)
            hidden_data = weakref.ref(hidden.data)
            del hidden, unused
            assert hidden_data() is not None      # held by the recorded nodes
            backward(loss)
            with pytest.raises(RuntimeError, match="consumed"):
                backward(loss)
            del loss, act
            assert hidden_data() is None
        finally:
            if enabled:
                gc.enable()
        assert x.grad is not None and w.grad is not None

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(x + x)
        backward(loss)
        np.testing.assert_allclose(x.grad, [2.0])

    def test_grads_add_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            with Tape():
                loss = reference_impl.sum_(x * 2.0)
            backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])


@pytest.fixture
def no_gc():
    """Run with the cyclic collector off, so an array that lives on is held
    by a reference, not by a cycle that waits for the collector."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


_RNG = np.random.default_rng(30)
_SHAPE = (1, 4, 2, 4, 4)
_CONST = Tensor(_RNG.standard_normal(_SHAPE).astype(np.float32))
_LEAVES = {name: Tensor(_RNG.standard_normal(shape).astype(np.float32), requires_grad=True)
           for name, shape in (("gain", (4,)), ("bias", (4,)), ("m", (4, 4)),
                               ("w", (4, 4, 3, 3, 3)), ("b", (4,)))}
_QUANT = ActQuantizer(4)
_QUANT.calibrate(_CONST.data)

# ops whose backward rules read nothing of the input ``x``
UNREAD = {
    "add": lambda x: ad.add(x, _CONST),
    "sub": lambda x: ad.sub(x, _CONST),
    "scale": lambda x: ad.scale(x, 2.0),
    "reshape": lambda x: ad.reshape(x, (4, 32)),
    "transpose": lambda x: ad.transpose(x, (0, 2, 1, 3, 4)),
    "concat": lambda x: ad.concat([x, _CONST], axis=1),
    "pixel_shuffle": lambda x: ad.pixel_shuffle_spatial(x, 2),
    "pixel_unshuffle": lambda x: ad.pixel_unshuffle_spatial(x, 2),
    "mean": ad.mean,
    "softmax": ad.softmax,
    "layer_norm": lambda x: ad.layer_norm(x, _LEAVES["gain"], _LEAVES["bias"], 1e-5),
}
# ops whose backward rules read the input's data
READ = {
    "conv3d": lambda x: ad.conv3d(x, _LEAVES["w"], _LEAVES["b"], padding=(1, 1, 1)),
    "matmul": lambda x: ad.matmul(x, _LEAVES["m"]),
    "mul": lambda x: ad.mul(x, _CONST),
    "gelu": ad.gelu,
    "leaky_relu": ad.leaky_relu,
    "clamp": lambda x: ad.clamp(x, -0.5, 0.5),
    "fake_quant": lambda x: fake_quant(x, _QUANT),
}


class TestGradientSinks:
    """A node holds the gradient sink of each input, not the input, and its
    rule closes over only the arrays it reads: an input array that no rule
    reads dies with its caller's last reference, and one that a rule reads
    lives until ``backward``."""

    @staticmethod
    def taped(op):
        """(weak reference to the data of ``x``, loss) of a taped
        ``mean(op(x))``, where ``x`` is made on the tape, so that its sink is
        its node. Nothing but the tape refers to ``x`` or ``op(x)``."""
        leaf = Tensor(_RNG.standard_normal(_SHAPE).astype(np.float32), requires_grad=True)
        with Tape():
            x = ad.scale(leaf, 1.0)
            loss = ad.mean(op(x))
        return weakref.ref(x.data), loss

    @pytest.mark.parametrize("name", list(UNREAD))
    def test_unread_input_is_freed_before_backward(self, no_gc, name):
        ref, loss = self.taped(UNREAD[name])
        assert ref() is None
        backward(loss)

    @pytest.mark.parametrize("name", list(READ))
    def test_read_input_lives_until_backward(self, no_gc, name):
        ref, loss = self.taped(READ[name])
        assert ref() is not None
        backward(loss)
        assert ref() is None

    @pytest.mark.parametrize("variant", ["fp32", "q4"])
    def test_network_nodes_hold_only_sinks(self, variant):
        masks, _, meas = small_inputs()
        net = calibrated_net(variant)
        stack = Tensor(np.concatenate([initial_estimate(m, masks) for m in meas]))
        with Tape() as tape:
            net.forward_stack(stack)
        sinks = [s for node in tape.nodes for s in node.inputs]
        for sink in sinks:
            assert (sink is None or (isinstance(sink, ad.Node) and sink.tape is tape)
                    or (isinstance(sink, Tensor) and sink.node is None and sink.requires_grad))
        params = {id(p) for _, p in net.named_params()}
        assert {id(s) for s in sinks if isinstance(s, Tensor)} <= params
        assert None in sinks     # the input stack requires no grad


class TestNoGradientForAConstantInput:
    """An input that does not require grad when it is recorded gets no
    gradient: ``conv3d`` builds no ``dx`` on any of its routes and
    ``fake_quant`` no ``g * mid``, and every other gradient keeps its bits."""

    @staticmethod
    def grads(op, x_arr, requires_grad):
        x = Tensor(x_arr, requires_grad=requires_grad)
        with Tape():
            out = op(x)
        return out.node.backward_fn(np.ones_like(out.data))

    @pytest.mark.parametrize("o,kshape,stride,padding", [
        (4, (1, 1, 1), (1, 1, 1), (0, 0, 0)),   # channel GEMM
        (3, (3, 3, 3), (1, 1, 1), (1, 1, 1)),   # input gradient as a conv
        (6, (3, 3, 3), (1, 1, 1), (1, 1, 1)),   # scatter-add
        (3, (1, 3, 3), (1, 2, 2), (0, 1, 1)),   # scatter-add, strided
    ], ids=["k111", "as-conv", "scatter", "strided"])
    def test_conv3d(self, o, kshape, stride, padding):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2, 4, 4, 6, 6)).astype(np.float32)
        w = Tensor(rng.standard_normal((o, 4) + kshape).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(o).astype(np.float32), requires_grad=True)

        def op(t):
            return ad.conv3d(t, w, b, stride, padding)

        dx, dw, db = self.grads(op, x, False)
        want = self.grads(op, x, True)
        assert dx is None and want[0] is not None
        assert same_bits(dw, want[1]) and same_bits(db, want[2])

    def test_fake_quant(self):
        rng = np.random.default_rng(33)
        x = (rng.standard_normal(4096) * 2).astype(np.float32)
        q = ActQuantizer(4)
        q.calibrate(x * 0.5)     # some inputs clip
        dx, dalpha, dz = self.grads(lambda t: fake_quant(t, q), x, False)
        want = self.grads(lambda t: fake_quant(t, q), x, True)
        assert dx is None and want[0] is not None
        assert same_bits(dalpha, want[1]) and same_bits(dz, want[2])

    @pytest.mark.parametrize("variant", ["fp32", "q4"])
    def test_training_step_parameter_gradients_keep_their_bits(self, variant):
        """One step's parameter gradients are those of the same step with an
        input stack that requires grad, whose input gradient every rule
        builds."""
        masks, clips, meas = small_inputs()
        stack = np.concatenate([initial_estimate(m, masks) for m in meas])
        gt = np.stack([c.frames for c in clips])

        def step(requires_grad):
            net = calibrated_net(variant)
            with Tape():
                loss = mse_loss(net.forward_stack(Tensor(stack, requires_grad=requires_grad)), gt)
            backward(loss)
            return {name: p.grad for name, p in net.named_params()}

        got, want = step(False), step(True)
        assert got.keys() == want.keys()
        for name in got:
            assert got[name] is not None and same_bits(got[name], want[name]), name


class TestFiniteDifferences:
    """Analytic gradient vs central differences (h=1e-3, rel err <= 1e-3)."""

    def setup_method(self):
        self.rng = np.random.default_rng(100)

    def _rand(self, shape, scale=1.0):
        return Tensor((self.rng.standard_normal(shape) * scale).astype(np.float32),
                      requires_grad=True)

    def test_binary_ops(self):
        a = self._rand((3, 4))
        b = Tensor(self.rng.uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
        for op in (ad.add, ad.sub, ad.mul):
            fd_check(lambda op=op: weighted(op(a, b), np.random.default_rng(0)), [a, b])

    def test_broadcast_add(self):
        a = self._rand((2, 3, 4))
        b = self._rand((4,))
        fd_check(lambda: weighted(ad.add(a, b), np.random.default_rng(1)), [a, b])

    def test_unary_ops(self):
        x = self._rand((3, 4))
        # keep leaky_relu inputs away from the kink
        x.data[np.abs(x.data) < 1e-2] = 0.1
        fd_check(lambda: weighted(ad.leaky_relu(x), np.random.default_rng(2)), [x])
        fd_check(lambda: weighted(ad.gelu(x), np.random.default_rng(3)), [x])

    def test_softmax(self):
        x = self._rand((2, 5))
        fd_check(lambda: weighted(ad.softmax(x), np.random.default_rng(5)), [x])

    def test_reductions_and_shapes(self):
        x = self._rand((2, 3, 4))
        fd_check(lambda: weighted(ad.mean(x), np.random.default_rng(6)), [x])
        fd_check(lambda: weighted(ad.transpose(x, (2, 0, 1)), np.random.default_rng(7)), [x])
        fd_check(lambda: weighted(ad.reshape(x, (6, 4)), np.random.default_rng(8)), [x])

    def test_matmul_batched(self):
        a = self._rand((2, 3, 4))
        b = self._rand((4, 5))
        fd_check(lambda: weighted(ad.matmul(a, b), np.random.default_rng(10)), [a, b])

    def test_conv3d_plain(self):
        x = self._rand((1, 2, 3, 4, 4))
        w = self._rand((2, 2, 1, 3, 3), scale=0.5)
        b = self._rand((2,))
        fd_check(lambda: weighted(ad.conv3d(x, w, b), np.random.default_rng(11)), [x, w, b])

    def test_conv3d_pointwise_with_bias(self):
        x = self._rand((2, 3, 2, 3, 3))
        w = self._rand((4, 3, 1, 1, 1), scale=0.5)
        b = self._rand((4,))
        fd_check(lambda: weighted(ad.conv3d(x, w, b), np.random.default_rng(16)), [x, w, b])

    def test_conv3d_strided_padded(self):
        x = self._rand((1, 2, 3, 4, 4))
        w = self._rand((2, 2, 3, 3, 3), scale=0.5)
        fd_check(lambda: weighted(ad.conv3d(x, w, zero_bias(w), stride=(1, 2, 2),
                                            padding=(1, 1, 1)),
                                  np.random.default_rng(12)), [x, w])

    def test_conv3d_dx_as_conv_route(self):
        # o <= c and unit stride exercises the transposed-conv backward
        x = self._rand((1, 3, 2, 4, 4))
        w = self._rand((2, 3, 1, 3, 3), scale=0.5)
        fd_check(lambda: weighted(ad.conv3d(x, w, zero_bias(w), padding=(0, 1, 1)),
                                  np.random.default_rng(13)), [x, w])

    def test_pixel_shuffle(self):
        x = self._rand((1, 8, 2, 2, 2))
        fd_check(lambda: weighted(ad.pixel_shuffle_spatial(x, 2),
                                  np.random.default_rng(14)), [x])

    def test_clamp(self):
        x = self._rand((3, 3))
        x.data[np.abs(np.abs(x.data) - 1.0) < 3e-2] = 0.0  # keep away from bounds
        fd_check(lambda: weighted(ad.clamp(x, -1.0, 1.0), np.random.default_rng(15)), [x])

    def test_composite_chain(self):
        x = self._rand((1, 2, 2, 4, 4))
        w1 = self._rand((4, 2, 1, 3, 3), scale=0.4)
        w2 = self._rand((8, 4), scale=0.4)

        def loss():
            h = ad.leaky_relu(ad.conv3d(x, w1, zero_bias(w1), padding=(0, 1, 1)))
            tok = ad.reshape(ad.transpose(h, (0, 2, 3, 4, 1)), (16, 2, 4))
            tok2 = ad.reshape(tok, (16, 8))
            out = ad.gelu(ad.matmul(tok2, w2))
            return ad.mean(out * out)

        fd_check(loss, [x, w1, w2])
