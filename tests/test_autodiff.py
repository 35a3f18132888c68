"""Tensor/tape engine: value oracles and finite-difference gradient checks."""

import gc
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

import qsci.autodiff as ad
import reference_impl
from qsci import network
from qsci.autodiff import Tape, Tensor, backward
from qsci.errors import NumericError, ShapeError
from qsci.network import QConv3d, ShiftedAttention
from qsci.quantize import ActQuantizer, fake_quant
from qsci.sci import initial_estimate
from qsci.training import mse_loss
from small_models import calibrated_net, small_inputs


def zero_bias(w) -> Tensor:
    """A zero bias for the output channels of conv weight ``w``."""
    return Tensor(np.zeros(w.shape[0], np.float32))


def conv3d(x, w, b, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """The ``ad.conv3d`` node of Tensors ``x``, ``w`` and ``b``, its value
    computed by ``reference_impl.conv3d``, in float32."""
    out = reference_impl.conv3d(x.data, w.data, b.data, stride, padding).astype(np.float32)
    return ad.conv3d(x, w, b, out, stride, padding)


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


def closure_arrays(fn):
    """Every array that function ``fn`` closes over, also through the
    functions it closes over."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, types.FunctionType):
            yield from closure_arrays(value)


def weighted(out, rng):
    """Project an op output to a scalar with fixed random weights so that
    symmetric gradient errors cannot cancel."""
    return reference_impl.sum_(out, rng.standard_normal(out.shape).astype(np.float32))


# ---------------------------------------------------------------------------
# forward value oracles
# ---------------------------------------------------------------------------

class TestConv3d:
    """``ad.conv3d`` takes its value from the caller; it checks the
    geometry, naming the axis that does not fit. Its forward's value tests
    went with that forward: ``test_packed.py::TestExactContraction`` checks
    every route of ``QConv3d.contract`` against an int64 reference, and
    ``test_network.py::TestFloat32CodeForward`` its float32 values against a
    float64 one."""

    NO_VALUE = np.zeros(0, np.float32)

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((1, 3, 2, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 2, 1, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="channel"):
            ad.conv3d(x, w, zero_bias(w), self.NO_VALUE, (1, 1, 1), (0, 0, 0))

    def test_kernel_too_large_names_axis(self):
        x = Tensor(np.zeros((1, 1, 2, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 1, 3, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="temporal"):
            ad.conv3d(x, w, zero_bias(w), self.NO_VALUE, (1, 1, 1), (0, 0, 0))


class TestPointwiseConv:
    """The backward of an unpadded 1x1x1 unit-stride conv runs as a channel
    GEMM on the input itself, a padded one's through its patch matrices;
    both must match the general im2col route bit for bit."""

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
        ref_out, *ref = reference_impl.conv3d_im2col(x_arr, w_arr, b_arr, g, padding=padding)
        with Tape():
            out = ad.conv3d(x, w, b, ref_out, (1, 1, 1), padding)
            loss = reference_impl.sum_(out, g)
        backward(loss)
        for got, want in zip((x.grad, w.grad, b.grad), ref):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestSampleRoute:
    """The backward of a conv with more than one tap runs one GEMM per
    sample and sums the per-sample weight gradients in sample order; dw and
    db must match the batched im2col route bit for bit, and each
    input-gradient route its batched formula."""

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
        ref_out, ref_dx, ref_dw, ref_db = reference_impl.conv3d_im2col(
            x_arr, w_arr, b_arr, g, stride, padding)
        with Tape():
            out = ad.conv3d(x, w, b, ref_out, stride, padding)
            loss = reference_impl.sum_(out, g)
        backward(loss)
        if dx_route == "conv":
            ref_dx = reference_impl.conv3d_dx_as_conv(w_arr, g, x_arr.shape, padding)
        for got, want in zip((x.grad, w.grad, b.grad), (ref_dx, ref_dw, ref_db)):
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
        out, held = self.held_after(lambda: conv3d(x, w, b, padding=(1, 1, 1)))
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

    def test_taped_conv3d_builds_no_forward(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((self.N, self.C) + self.DIMS).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((self.C, self.C, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        b = zero_bias(w)
        value = conv3d(x, w, b, padding=(1, 1, 1)).data

        def forward():
            with Tape():
                return ad.conv3d(x, w, b, value, (1, 1, 1), (1, 1, 1))

        out, peak = self.peak_of(forward)
        assert out.data is value
        # the scan's boolean mask, one byte per output; no patch matrix, no
        # output-sized float array and no bias buffer
        assert peak < value.nbytes // 2

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

    @staticmethod
    def taped_network(net):
        """(tape, array bytes still allocated) after a taped forward of
        ``net``. Only numpy's array data is counted: a q4 tape has more
        nodes, whose closures are not arrays."""
        masks, _, meas = small_inputs()
        stack = Tensor(np.concatenate([initial_estimate(m, masks) for m in meas]))
        tracemalloc.start()
        try:
            with Tape() as tape:
                net.forward_stack(stack)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        return tape, sum(trace.size for trace in arrays.traces)

    def test_quantized_tape_adds_only_the_attention_quantizer_inputs(self):
        _, fp32 = self.taped_network(calibrated_net("fp32"))
        net = calibrated_net("q4_baseline")
        inputs = []
        attention = [q for _, m in net.named_modules() if isinstance(m, ShiftedAttention)
                     for q in (m.qq, m.kq, m.pq)]
        for q in attention:
            q.on_next = lambda arr: inputs.append(arr.nbytes)
        _, q4 = self.taped_network(net)
        assert len(inputs) == len(attention) > 0
        # every other fake_quant keeps the array its conv or linear keeps
        # in fp32, and that layer keeps a rebuild of the dequantized copy
        assert q4 <= fp32 + sum(inputs)

    @pytest.mark.parametrize("variant", ["q4_baseline", "q4"])
    def test_no_rule_closes_over_a_fake_quant_output(self, monkeypatch, variant):
        outputs = []

        def recording(x, q):
            out = fake_quant(x, q)
            if out is not x:
                outputs.append(out.data)
            return out

        monkeypatch.setattr(network, "fake_quant", recording)
        tape, _ = self.taped_network(calibrated_net(variant))
        assert len(outputs) > 0
        for node in tape.nodes:
            for arr in closure_arrays(node.backward_fn):
                assert not any(np.may_share_memory(arr, out) for out in outputs), node.name

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
        out = ad.softmax(Tensor([[5.0]]), 1.0)
        assert out.data.reshape(()) == pytest.approx(1.0)

    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]), 1.0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        e = np.exp(x)
        out = ad.softmax(Tensor(x), 1.0)
        np.testing.assert_allclose(out.data, e / e.sum(), atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 7)).astype(np.float32) * 5
        out = ad.softmax(Tensor(x), 1.0)
        assert out.data.min() > 0 and out.data.max() < 1
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5)).astype(np.float32)
        a = ad.softmax(Tensor(x), 1.0).data
        b = ad.softmax(Tensor(x + 3.7), 1.0).data
        np.testing.assert_allclose(a, b, atol=1e-6)


    @staticmethod
    def check_bytes(t, scale):
        # the one node keeps the bits of the float32 chain x·s, softmax,
        # then the softmax gradient times s; below 8 the last-axis max and
        # sums run as slice folds, with the bits of numpy's own reductions,
        # signed zeros included
        rng = np.random.default_rng(t)
        x_arr = (rng.standard_normal((5, 2, 3, t)) * 4).astype(np.float32)
        x_arr[0, 0] = 0.0
        x_arr[0, 1] = -0.0
        g = rng.standard_normal(x_arr.shape).astype(np.float32)
        g[1] = -0.0
        x = Tensor(x_arr, requires_grad=True)
        with Tape() as tape:
            out = ad.softmax(x, scale)
        (dx,) = out.node.backward_fn(g)
        s = np.float32(scale)
        xs = x_arr * s
        e = np.exp(xs - xs.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        want_dx = ((g - (g * want).sum(axis=-1, keepdims=True)) * want) * s
        assert [n.name for n in tape.nodes] == ["softmax"]
        assert out.data.tobytes() == want.tobytes()
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("t", range(1, 10))
    def test_bytes_equal_numpy_reductions(self, t):
        self.check_bytes(t, 1.0)

    @pytest.mark.parametrize("t", range(1, 10))
    def test_scaled_bytes_equal_float32_chain(self, t):
        self.check_bytes(t, 3 ** -0.5)


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
        g, g2 = (rng.standard_normal((5, 3, c)).astype(np.float32) for _ in range(2))
        with Tape():
            h = x if fanout in ("none", "leaf-after") else x + x
            other = h + h if fanout == "node-before" else None
            out = norm(h, gain, bias, 1e-5)
            if fanout in ("leaf-after", "node-after"):
                other = h + h
            loss = reference_impl.sum_(out, g)
            if other is not None:
                loss = loss + reference_impl.sum_(other, g2)
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
        marked = plain + plain
        scanned = self.spy(monkeypatch)
        for x in (plain, marked):
            outs = [ad.reshape(x, (4, 32)), ad.transpose(x, (0, 2, 1, 3, 4)),
                    ad.concat([x, marked], axis=1)]
            assert [o.scanned for o in outs] == [x is marked] * len(outs)
        assert scanned == []

    def test_new_data_clears_the_mark(self):
        one = Tensor(np.ones(3, np.float32))
        x = one + one
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
        # mean(x^2) over two elements: the gradient is x
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            loss = mse_loss(x, np.zeros(2, np.float32))
        backward(loss)
        np.testing.assert_allclose(x.grad, [1.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = x + x
        with pytest.raises(ShapeError):
            backward(y)

    def test_detached_loss_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="detached"):
            backward(x)

    def test_tape_single_use(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            loss = reference_impl.sum_(x)
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
                hidden = conv3d(x, w, zero_bias(w))
                act = ad.gelu(hidden)
                unused = hidden + hidden     # recorded, reached by no gradient
                loss = reference_impl.sum_(act)
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
                loss = reference_impl.sum_(x + x)
            backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])


class TestAccumulationOrder:
    """A node and a leaf that each feed three consumers receive their
    gradients in reverse record order, the first cast to float32 and the
    rest added to it one by one. The terms are chosen so that the order
    shows: in float32, ``(1e8 + -1e8) + 1`` is 1 but ``(1 + 1e8) + -1e8``
    is 0."""

    TERMS = np.array([[-1e8, 1.0], [1e8, 1e8], [1.0, -1e8]], np.float32)  # in record order

    def test_sinks_sum_in_reverse_record_order(self):
        x = Tensor([2.0, 3.0], requires_grad=True)       # a leaf
        a = Tensor([5.0, 7.0], requires_grad=True)
        seen = []
        with Tape() as tape:
            y = ad.reshape(a, (2,))                      # a node
            rule = y.node.backward_fn
            y.node.backward_fn = lambda g: (seen.append(g), rule(g))[1]
            parts = [reference_impl.sum_(y, w) + reference_impl.sum_(x, w) for w in self.TERMS]
            loss = parts[0] + parts[1] + parts[2]
        nodes = list(tape.nodes)
        backward(loss)
        expect = self.TERMS[2]
        for term in self.TERMS[1::-1]:
            expect = expect + term
        in_order = self.TERMS[0] + self.TERMS[1] + self.TERMS[2]
        assert (expect != in_order).all()   # the order shows in every element
        assert seen[0].tobytes() == expect.tobytes()
        assert x.grad.tobytes() == expect.tobytes()
        assert a.grad.tobytes() == expect.tobytes()
        assert all(node.grad is None and node.backward_fn is None and node.inputs is None
                   for node in nodes)


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
    "reshape": lambda x: ad.reshape(x, (4, 32)),
    "transpose": lambda x: ad.transpose(x, (0, 2, 1, 3, 4)),
    "concat": lambda x: ad.concat([x, _CONST], axis=1),
    "mse_loss": lambda x: mse_loss(x, _CONST.data),
    "softmax": lambda x: ad.softmax(x, 1.0),
    "layer_norm": lambda x: ad.layer_norm(x, _LEAVES["gain"], _LEAVES["bias"], 1e-5),
}
# ops whose backward rules read the input's data
READ = {
    "conv3d": lambda x: conv3d(x, _LEAVES["w"], _LEAVES["b"], padding=(1, 1, 1)),
    "matmul": lambda x: ad.matmul(x, _LEAVES["m"]),
    "gelu": ad.gelu,
    "clamp": lambda x: ad.clamp(x, -0.5, 0.5),
    "fake_quant": lambda x: fake_quant(x, _QUANT),
}
# ops whose backward rules read their output, and nothing of the input
OUTPUT_READ = {
    "leaky_relu": ad.leaky_relu,
    "softmax": lambda x: ad.softmax(x, 1.0),
}
# ops that read a fake_quant output, which they rebuild in backward
REBUILT = {
    "conv3d": READ["conv3d"],
    "matmul": READ["matmul"],
}


class TestGradientSinks:
    """A node holds the gradient sink of each input, not the input, and its
    rule closes over only the arrays it reads: an input array that no rule
    reads dies with its caller's last reference, and one that a rule reads
    lives until ``backward``."""

    @staticmethod
    def taped(op, reader=lambda y: y):
        """(weak references to the data of ``x`` and of ``y = op(x)``, loss)
        of a taped ``sum_(reader(y))``, where ``x`` is made on the tape, so
        that its sink is its node. Nothing but the tape refers to ``x`` or
        ``y``."""
        leaf = Tensor(_RNG.standard_normal(_SHAPE).astype(np.float32), requires_grad=True)
        with Tape():
            x = leaf + leaf
            y = op(x)
            loss = reference_impl.sum_(reader(y))
        return weakref.ref(x.data), weakref.ref(y.data), loss

    @pytest.mark.parametrize("name", list(UNREAD))
    def test_unread_input_is_freed_before_backward(self, no_gc, name):
        ref, _, loss = self.taped(UNREAD[name])
        assert ref() is None
        backward(loss)

    @pytest.mark.parametrize("name", list(READ))
    def test_read_input_lives_until_backward(self, no_gc, name):
        ref, _, loss = self.taped(READ[name])
        assert ref() is not None
        backward(loss)
        assert ref() is None

    @pytest.mark.parametrize("name", list(OUTPUT_READ))
    def test_read_output_lives_until_backward_and_input_dies(self, no_gc, name):
        x_ref, out_ref, loss = self.taped(OUTPUT_READ[name])
        assert x_ref() is None and out_ref() is not None
        backward(loss)
        assert out_ref() is None

    @pytest.mark.parametrize("name", list(REBUILT))
    def test_fake_quant_output_dies_and_its_input_lives_until_backward(self, no_gc, name):
        x_ref, fq_ref, loss = self.taped(lambda x: fake_quant(x, _QUANT), REBUILT[name])
        assert fq_ref() is None and x_ref() is not None
        backward(loss)
        assert x_ref() is None

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
    gradient: ``conv3d`` builds no ``dx`` on any of its routes,
    ``fake_quant`` and a quantized layer's node no ``g * mid``, and every
    other gradient keeps its bits."""

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
            return conv3d(t, w, b, stride, padding)

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

    @pytest.mark.parametrize("bits", [4, 32])
    def test_layer_node(self, bits):
        # a quantized layer's node still computes its input operand's
        # gradient, which the input scale and zero-point need, and sends it
        # nowhere
        rng = np.random.default_rng(37)
        layer = QConv3d(rng, 4, 6, (3, 3, 3), padding=(1, 1, 1), bits=bits)
        x = rng.standard_normal((2, 4, 4, 6, 6)).astype(np.float32)
        layer.aq.calibrate(x * 0.5)     # some inputs clip
        layer.wq.calibrate(layer.weight.data * 0.5)
        got = self.grads(layer.forward, x, False)
        want = self.grads(layer.forward, x, True)
        assert got[0] is None and want[0] is not None
        assert len(got) == len(want) == (6 if bits < 32 else 3)
        assert all(same_bits(a, e) for a, e in zip(got[1:], want[1:]))

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


class TestRebuiltOperands:
    """``conv3d`` and ``matmul`` read an operand that ``fake_quant`` made on
    the tape through its rebuild: every gradient has the bytes of the same
    rule on plain Tensors that hold the same arrays."""

    @staticmethod
    def assert_same_gradients(op, x_arr, w_arr):
        """The rule's gradients for operands that ``fake_quant`` makes from
        ``x_arr`` and ``w_arr`` on a tape have the bytes of those for plain
        Tensors that hold copies of the dequantized arrays."""
        qx, qw = ActQuantizer(4), ActQuantizer(4, symmetric=True)
        qx.calibrate(x_arr * 0.5)     # some inputs clip
        qw.calibrate(w_arr * 0.5)
        with Tape():
            xq = fake_quant(Tensor(x_arr, requires_grad=True), qx)
            wq = fake_quant(Tensor(w_arr, requires_grad=True), qw)
            out = op(xq, wq)
        assert xq.rebuild is not None and wq.rebuild is not None
        with Tape():
            plain = op(Tensor(xq.data.copy(), requires_grad=True),
                       Tensor(wq.data.copy(), requires_grad=True))
        assert plain.data.tobytes() == out.data.tobytes()
        g = np.random.default_rng(35).standard_normal(out.shape).astype(np.float32)
        got, want = out.node.backward_fn(g), plain.node.backward_fn(g)
        assert len(got) == len(want)
        for a, e in zip(got, want):
            assert a.shape == e.shape and a.tobytes() == e.tobytes()

    @pytest.mark.parametrize("o,kshape,stride,padding", [
        (4, (1, 1, 1), (1, 1, 1), (0, 0, 0)),   # channel GEMM
        (3, (3, 3, 3), (1, 1, 1), (1, 1, 1)),   # input gradient as a conv
        (6, (3, 3, 3), (1, 1, 1), (1, 1, 1)),   # scatter-add
        (3, (1, 3, 3), (1, 2, 2), (0, 1, 1)),   # scatter-add, strided
    ], ids=["k111", "as-conv", "scatter", "strided"])
    def test_conv3d(self, o, kshape, stride, padding):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((2, 4, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((o, 4) + kshape).astype(np.float32)
        b = Tensor(rng.standard_normal(o).astype(np.float32), requires_grad=True)
        self.assert_same_gradients(lambda t, k: conv3d(t, k, b, stride, padding), x, w)

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3, 5, 4), (4, 6)),               # tokens times a weight, as QLinear
        ((2, 2, 4, 4), (2, 2, 4, 3)),      # batched, as the attention core
    ])
    def test_matmul(self, a_shape, b_shape):
        rng = np.random.default_rng(36)
        a = rng.standard_normal(a_shape).astype(np.float32)
        b = rng.standard_normal(b_shape).astype(np.float32)
        self.assert_same_gradients(ad.matmul, a, b)


class TestFiniteDifferences:
    """Analytic gradient vs central differences (h=1e-3, rel err <= 1e-3)."""

    def setup_method(self):
        self.rng = np.random.default_rng(100)

    def _rand(self, shape, scale=1.0):
        return Tensor((self.rng.standard_normal(shape) * scale).astype(np.float32),
                      requires_grad=True)

    def test_binary_ops(self):
        a, b = self._rand((3, 4)), self._rand((3, 4))
        fd_check(lambda: weighted(ad.add(a, b), np.random.default_rng(0)), [a, b])

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
        fd_check(lambda: weighted(ad.softmax(x, 1.0), np.random.default_rng(5)), [x])

    def test_softmax_scaled(self):
        x = self._rand((2, 5))
        fd_check(lambda: weighted(ad.softmax(x, 0.35), np.random.default_rng(5)), [x])

    def test_reductions_and_shapes(self):
        x = self._rand((2, 3, 4))
        gt = self.rng.standard_normal(x.shape).astype(np.float32)
        fd_check(lambda: mse_loss(x, gt), [x])
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
        fd_check(lambda: weighted(conv3d(x, w, b), np.random.default_rng(11)), [x, w, b])

    def test_conv3d_pointwise_with_bias(self):
        x = self._rand((2, 3, 2, 3, 3))
        w = self._rand((4, 3, 1, 1, 1), scale=0.5)
        b = self._rand((4,))
        fd_check(lambda: weighted(conv3d(x, w, b), np.random.default_rng(16)), [x, w, b])

    def test_conv3d_strided_padded(self):
        x = self._rand((1, 2, 3, 4, 4))
        w = self._rand((2, 2, 3, 3, 3), scale=0.5)
        fd_check(lambda: weighted(conv3d(x, w, zero_bias(w), stride=(1, 2, 2),
                                            padding=(1, 1, 1)),
                                  np.random.default_rng(12)), [x, w])

    def test_conv3d_dx_as_conv_route(self):
        # o <= c and unit stride exercises the transposed-conv backward
        x = self._rand((1, 3, 2, 4, 4))
        w = self._rand((2, 3, 1, 3, 3), scale=0.5)
        fd_check(lambda: weighted(conv3d(x, w, zero_bias(w), padding=(0, 1, 1)),
                                  np.random.default_rng(13)), [x, w])

    def test_clamp(self):
        x = self._rand((3, 3))
        x.data[np.abs(np.abs(x.data) - 1.0) < 3e-2] = 0.0  # keep away from bounds
        fd_check(lambda: weighted(ad.clamp(x, -1.0, 1.0), np.random.default_rng(15)), [x])

    def test_composite_chain(self):
        x = self._rand((1, 2, 2, 4, 4))
        w1 = self._rand((4, 2, 1, 3, 3), scale=0.4)
        w2 = self._rand((8, 4), scale=0.4)

        def loss():
            h = ad.leaky_relu(conv3d(x, w1, zero_bias(w1), padding=(0, 1, 1)))
            tok = ad.reshape(ad.transpose(h, (0, 2, 3, 4, 1)), (16, 2, 4))
            tok2 = ad.reshape(tok, (16, 8))
            out = ad.gelu(ad.matmul(tok2, w2))
            return weighted(out, np.random.default_rng(17))

        fd_check(loss, [x, w1, w2])
