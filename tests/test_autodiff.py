"""Tensor/tape engine: value oracles and finite-difference gradient checks."""

import gc
import weakref

import numpy as np
import pytest

import qsci.autodiff as ad
import reference_impl
from qsci.autodiff import Tape, Tensor, backward
from qsci.errors import NumericError, ShapeError


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
    return ad.sum_(out * w)


# ---------------------------------------------------------------------------
# forward value oracles
# ---------------------------------------------------------------------------

class TestConv3d:
    def test_scalar_product(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), 3.0, np.float32))
        w = Tensor(np.full((1, 1, 1, 1, 1), 2.0, np.float32))
        out = ad.conv3d(x, w)
        assert out.data.reshape(()) == pytest.approx(6.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((1, 1, 3, 5, 5)).astype(np.float32))
        w = np.zeros((1, 1, 3, 3, 3), np.float32)
        w[0, 0, 1, 1, 1] = 1.0
        out = ad.conv3d(x, Tensor(w), padding=(1, 1, 1))
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 2, 1, 3, 3)).astype(np.float32)
        out = ad.conv3d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, loop_conv3d(x, w), atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [((1, 2, 2), (1, 1, 1)), ((2, 1, 1), (0, 1, 1))])
    def test_strided_padded_vs_oracle(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 3)).astype(np.float32)
        out = ad.conv3d(Tensor(x), Tensor(w), stride=stride, padding=padding)
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
            ad.conv3d(x, w)

    def test_kernel_too_large_names_axis(self):
        x = Tensor(np.zeros((1, 1, 2, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 1, 3, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="temporal"):
            ad.conv3d(x, w)


class TestPointwiseConv:
    """A 1x1x1 unit-stride conv runs as a channel GEMM on the input itself;
    it must match the general im2col route bit for bit."""

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
            loss = ad.sum_(out * Tensor(g))
        backward(loss)
        ref = reference_impl.conv3d_im2col(x_arr, w_arr, b_arr, g, padding=padding)
        for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


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
        out = ad.softmax(Tensor([[5.0]]), axis=-1)
        assert out.data.reshape(()) == pytest.approx(1.0)

    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        e = np.exp(x)
        out = ad.softmax(Tensor(x), axis=0)
        np.testing.assert_allclose(out.data, e / e.sum(), atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 7)).astype(np.float32) * 5
        out = ad.softmax(Tensor(x), axis=-1)
        assert out.data.min() > 0 and out.data.max() < 1
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5)).astype(np.float32)
        a = ad.softmax(Tensor(x), axis=-1).data
        b = ad.softmax(Tensor(x + 3.7), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestElementwise:
    def test_gelu_zero(self):
        assert ad.gelu(Tensor([0.0])).data[0] == 0.0

    def test_leaky_relu_negative(self):
        out = ad.leaky_relu(Tensor([-1.0]), 0.01)
        assert out.data[0] == pytest.approx(-0.01)

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

    def test_concat_narrow_round_trip(self):
        rng = np.random.default_rng(10)
        a = rng.random((2, 3)).astype(np.float32)
        b = rng.random((2, 2)).astype(np.float32)
        cat = ad.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(ad.narrow(cat, 1, 0, 3).data, a)
        np.testing.assert_array_equal(ad.narrow(cat, 1, 3, 2).data, b)

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            ad.div(Tensor([1.0]), Tensor([0.0]))


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


# ---------------------------------------------------------------------------
# backward: trivial cases, tape semantics, finite differences
# ---------------------------------------------------------------------------

class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        with Tape():
            loss = ad.sum_(x)
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3), np.float32))

    def test_quadratic_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            loss = ad.sum_(x * x)
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
            loss = ad.sum_(x * x)
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
                hidden = ad.conv3d(x, w)
                act = ad.gelu(hidden)
                unused = ad.scale(hidden, 2.0)    # recorded, reached by no gradient
                loss = ad.sum_(act * act)
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
            loss = ad.sum_(x + x)
        backward(loss)
        np.testing.assert_allclose(x.grad, [2.0])

    def test_grads_add_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            with Tape():
                loss = ad.sum_(x * 2.0)
            backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])


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
        for op in (ad.add, ad.sub, ad.mul, ad.div):
            fd_check(lambda op=op: weighted(op(a, b), np.random.default_rng(0)), [a, b])

    def test_broadcast_add(self):
        a = self._rand((2, 3, 4))
        b = self._rand((4,))
        fd_check(lambda: weighted(ad.add(a, b), np.random.default_rng(1)), [a, b])

    def test_unary_ops(self):
        x = self._rand((3, 4))
        # keep leaky_relu inputs away from the kink
        x.data[np.abs(x.data) < 1e-2] = 0.1
        fd_check(lambda: weighted(ad.leaky_relu(x, 0.01), np.random.default_rng(2)), [x])
        fd_check(lambda: weighted(ad.gelu(x), np.random.default_rng(3)), [x])
        pos = Tensor(self.rng.uniform(0.5, 3.0, (3, 4)).astype(np.float32), requires_grad=True)
        fd_check(lambda: weighted(ad.sqrt(pos), np.random.default_rng(4)), [pos])

    def test_softmax(self):
        x = self._rand((2, 5))
        fd_check(lambda: weighted(ad.softmax(x, axis=-1), np.random.default_rng(5)), [x])

    def test_reductions_and_shapes(self):
        x = self._rand((2, 3, 4))
        fd_check(lambda: weighted(ad.mean(x, axis=-1, keepdims=True),
                                  np.random.default_rng(6)), [x])
        fd_check(lambda: weighted(ad.transpose(x, (2, 0, 1)), np.random.default_rng(7)), [x])
        fd_check(lambda: weighted(ad.reshape(x, (6, 4)), np.random.default_rng(8)), [x])
        fd_check(lambda: weighted(ad.narrow(x, 1, 1, 2), np.random.default_rng(9)), [x])

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
        fd_check(lambda: weighted(ad.conv3d(x, w, stride=(1, 2, 2), padding=(1, 1, 1)),
                                  np.random.default_rng(12)), [x, w])

    def test_conv3d_dx_as_conv_route(self):
        # o <= c and unit stride exercises the transposed-conv backward
        x = self._rand((1, 3, 2, 4, 4))
        w = self._rand((2, 3, 1, 3, 3), scale=0.5)
        fd_check(lambda: weighted(ad.conv3d(x, w, padding=(0, 1, 1)),
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
            h = ad.leaky_relu(ad.conv3d(x, w1, padding=(0, 1, 1)))
            tok = ad.reshape(ad.transpose(h, (0, 2, 3, 4, 1)), (16, 2, 4))
            tok2 = ad.reshape(tok, (16, 8))
            out = ad.gelu(ad.matmul(tok2, w2))
            return ad.mean(out * out)

        fd_check(loss, [x, w1, w2])
