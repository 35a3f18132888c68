"""Integer inference path: bit packing, exact code contractions on float BLAS,
the accumulator guard, the checks on a packed model's entries, and agreement
with the fake-quant layers."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_impl as ref
from qsci import network
from qsci.autodiff import Tape, Tensor, axis_windows
from qsci.errors import ConfigError, FormatError
from qsci.network import VARIANT_NAMES, QConv3d, QLinear, QNet, make_variant
from qsci.packed import (IntKernel, PackedLayer, install_packed, pack_model, pack_weights,
                         packed_layers, packed_net, unpack_weights)
from qsci.quantize import code_dtype
from small_models import calibrated_net, small_inputs

SRC = Path(__file__).resolve().parents[1] / "src"
QUANTIZED = [v for v in VARIANT_NAMES if v != "fp32"]


def code_range(bits):
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def random_codes(rng, bits, shape):
    lo, hi = code_range(bits)
    return rng.integers(lo, hi + 1, size=shape)


@st.composite
def code_vectors(draw):
    bits = draw(st.sampled_from((2, 3, 4, 8)))
    lo, hi = code_range(bits)
    # lengths around word boundaries, and the range ends always present
    n = draw(st.integers(0, 3 * (64 // bits) + 1))
    codes = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    return bits, np.array(codes + [lo, hi], dtype=np.int64)


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(code_vectors())
    def test_round_trip(self, case):
        bits, codes = case
        words = pack_weights(codes, bits)
        assert words.dtype == np.uint64
        assert words.size == -(-codes.size // (64 // bits))
        np.testing.assert_array_equal(unpack_weights(words, bits, codes.size), codes)

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_out_of_range_rejected(self, bits):
        lo, hi = code_range(bits)
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ConfigError, match="outside"):
                pack_weights(np.array([0, bad]), bits)

    def test_padding_bits_are_zero(self):
        words = pack_weights(np.full(5, -1), 3)   # 5 of 21 fields used
        assert int(words[0]) == (1 << 15) - 1

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    @pytest.mark.parametrize("count", ["none", "one", "ragged"])
    def test_equals_per_slot_loop(self, bits, count):
        per_word = 64 // bits
        n = {"none": 0, "one": 1, "ragged": 2 * per_word + 3}[count]
        codes = random_codes(np.random.default_rng(bits * 10 + n), bits, n)
        words = pack_weights(codes, bits)
        want = ref.pack_weights_loop(codes, bits)
        assert words.dtype == want.dtype and words.tobytes() == want.tobytes()
        got = unpack_weights(words, bits, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref.unpack_weights_loop(want, bits, n))
        assert np.array_equal(got, codes)


class TestExactContraction:
    # 3x3x3 at 8 bits: K = 12*27 = 324 -> bound 5.3M < 2^24 (float32);
    # K = 40*27 = 1080 -> bound 17.7M >= 2^24 (float64)
    @pytest.mark.parametrize("channels,dtype", [(12, np.float32), (40, np.float64)])
    def test_conv_equals_int64_reference(self, channels, dtype):
        rng = np.random.default_rng(channels)
        layer = QConv3d(rng, channels, 5, (3, 3, 3), stride=(1, 2, 2), padding=(1, 1, 1),
                        bits=8)
        assert layer.code_dtype() is dtype
        codes = random_codes(rng, 8, layer.weight.shape)
        x = random_codes(rng, 8, (2, channels, 3, 6, 5))
        acc = layer.contract(x.astype(dtype), codes.astype(dtype))
        assert acc.dtype == dtype
        want = ref.int_conv3d(x, codes, layer.stride, layer.padding)
        np.testing.assert_array_equal(acc.astype(np.int64), want)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((3, 3, 3), (1, 1, 1), (0, 1, 1)),      # To = T - 2
        ((3, 3, 3), (1, 2, 2), (1, 1, 1)),
        ((1, 3, 3), (1, 1, 1), (0, 1, 1)),
        ((1, 1, 1), (1, 1, 1), (0, 0, 0)),
        ((3, 3, 3), (2, 1, 1), (1, 1, 1)),      # strided time taps: strided frame copies
        ((3, 3, 3), (2, 1, 1), (0, 1, 1)),
        ((3, 3, 3), (2, 1, 1), (2, 1, 1)),
        ((3, 3, 3), (3, 1, 1), (1, 1, 1)),
    ], ids=["k333", "k333-time-unpadded", "k333-stride122", "k133", "k111",
            "k333-time-stride2", "k333-time-stride2-unpadded", "k333-time-stride2-pad2",
            "k333-time-stride3"])
    @pytest.mark.parametrize("o", [4, 6], ids=["narrowing", "widening"])
    def test_every_conv_route_equals_int64_reference(self, n, dtype, kernel, stride, padding, o):
        rng = np.random.default_rng(n)
        layer = QConv3d(rng, 5, o, kernel, stride=stride, padding=padding, bits=8)
        codes = random_codes(rng, 8, layer.weight.shape)
        x = random_codes(rng, 8, (n, 5, 5, 6, 5))
        acc = layer.contract(x.astype(dtype), codes.astype(dtype))
        assert acc.dtype == dtype
        assert np.array_equal(acc, ref.int_conv3d(x, codes, stride, padding))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kernel,padding", [
        ((1, 3, 3), (0, 1, 1)), ((3, 3, 3), (1, 1, 1)), ((3, 3, 3), (0, 1, 1)),
        ((1, 1, 3), (0, 0, 1)), ((1, 1, 3), (0, 0, 0)), ((1, 1, 1), (1, 1, 1))],
        ids=["k133", "k333", "k333-time-unpadded", "k113", "k113-unpadded", "k111-padded"])
    def test_channels_first_route_equals_int64_reference(self, monkeypatch, n, kernel,
                                                         padding):
        # fewer outputs than input channels at unit stride: contract the
        # channels first and add each tap's window, with no patch matrix
        def no_patches(*args):
            raise AssertionError("a patch matrix was built")

        monkeypatch.setattr(network, "sample_patches", no_patches)
        rng = np.random.default_rng(n)
        layer = QConv3d(rng, 6, 2, kernel, padding=padding, bits=4)
        codes = random_codes(rng, 4, layer.weight.shape)
        x = random_codes(rng, 4, (n, 6, 3, 7, 6))
        acc = layer.contract(x.astype(np.float32), codes.astype(np.float32))
        assert acc.dtype == np.float32
        assert np.array_equal(acc, ref.int_conv3d(x, codes, (1, 1, 1), padding))

    # temporal padding 0, 1 and 2 of a 3x3x3 conv over T real frames
    REAL_FRAMES = [(t, pt) for t in (1, 2, 5) for pt in (0, 1, 2) if t + 2 * pt >= 3]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t,pt", REAL_FRAMES, ids=[f"T{t}-pt{p}" for t, p in REAL_FRAMES])
    @pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2)], ids=["unit", "stride122"])
    def test_real_frame_route_equals_int64_reference(self, n, t, pt, stride):
        rng = np.random.default_rng(10 * t + pt)
        layer = QConv3d(rng, 3, 4, (3, 3, 3), stride=stride, padding=(pt, 1, 1), bits=4)
        codes = random_codes(rng, 4, layer.weight.shape)
        x = random_codes(rng, 4, (n, 3, t, 6, 5))
        acc = layer.contract(x.astype(np.float32), codes.astype(np.float32))
        assert np.array_equal(acc, ref.int_conv3d(x, codes, stride, layer.padding))

    def test_one_frame_reads_only_the_centre_tap(self):
        # T=1, padding 1: output frame 0 reads frame 0 through tap 1 only
        assert axis_windows(1, 1, 3, 1, 1) == [None, (slice(0, 1), slice(0, 1, 1)), None]

    def test_padding_2_has_no_covering_tap(self):
        # T=5, padding 2: To=7, and each tap reads real frames for 5 of them
        windows = axis_windows(5, 7, 3, 1, 2)
        assert windows == [(slice(2, 7), slice(0, 5, 1)), (slice(1, 6), slice(0, 5, 1)),
                           (slice(0, 5), slice(0, 5, 1))]
        assert slice(0, 7) not in [dst for dst, _ in windows]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_axis_windows_and_valid_taps_equal_a_brute_force_scan(self, n, k, stride, data):
        pad = data.draw(st.integers(0, k - 1))
        assume(n + 2 * pad >= k)
        n_out = (n + 2 * pad - k) // stride + 1
        # reads[o, j]: output o reads input index o*stride + j - pad through tap j
        pos = np.arange(n_out)[:, None] * stride + np.arange(k) - pad
        reads = (pos >= 0) & (pos < n)
        windows = axis_windows(n, n_out, k, stride, pad)
        assert len(windows) == k
        for j, window in enumerate(windows):
            outs = np.flatnonzero(reads[:, j])
            if not outs.size:
                assert window is None
                continue
            dst, src = window
            assert list(range(n_out)[dst]) == list(outs)
            assert list(range(n)[src]) == list(pos[outs, j])
        valid = network._valid_taps(n, n_out, k, stride, pad, np.float32)
        assert np.array_equal(np.broadcast_to(valid, reads.shape), reads)

    def test_patch_matrix_holds_real_frames_only(self):
        # N=1: the 9-tap patch matrix over T frames, not over T + 2 padded ones
        rng = np.random.default_rng(32)
        c, t, h, w = 8, 4, 16, 16
        layer = QConv3d(rng, c, c, (3, 3, 3), padding=(1, 1, 1), bits=4)
        x = random_codes(rng, 4, (1, c, t, h, w)).astype(np.float32)
        codes = random_codes(rng, 4, layer.weight.shape).astype(np.float32)
        tracemalloc.start()
        try:
            acc = layer.contract(x, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded_rows = c * 9 * (t + 2) * h * w * 4
        assert peak - acc.nbytes < padded_rows

    def test_conv_builds_no_batch_patch_matrix(self):
        rng = np.random.default_rng(31)
        layer = QConv3d(rng, 4, 4, (3, 3, 3), padding=(1, 1, 1), bits=4)
        x = random_codes(rng, 4, (4, 4, 4, 8, 8)).astype(np.float32)
        codes = random_codes(rng, 4, layer.weight.shape).astype(np.float32)
        tracemalloc.start()
        try:
            acc = layer.contract(x, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # [N, C*27, P] with P = T*H*W at unit stride and padding 1
        assert peak - acc.nbytes < 27 * x.nbytes

    @pytest.mark.parametrize("inputs,dtype", [(300, np.float32), (1100, np.float64)])
    def test_linear_equals_int64_reference(self, inputs, dtype):
        rng = np.random.default_rng(inputs)
        layer = QLinear(rng, inputs, 7, bits=8)
        assert layer.code_dtype() is dtype
        codes = random_codes(rng, 8, layer.weight.shape)
        x = random_codes(rng, 8, (3, 4, inputs))
        np.testing.assert_array_equal(
            layer.contract(x.astype(dtype), codes.astype(dtype)).astype(np.int64),
            ref.int_linear(x, codes))

    @pytest.mark.parametrize("bits,channels", [(8, 16), (8, 40), (4, 16), (2, 3)])
    def test_worst_case_reaches_bound_exactly(self, bits, channels):
        lo, _ = code_range(bits)
        layer = QConv3d(np.random.default_rng(0), channels, 2, (3, 3, 3), bits=bits)
        dtype = layer.code_dtype()
        acc = layer.contract(np.full((1, channels, 3, 4, 4), lo, dtype),
                             np.full(layer.weight.shape, lo, dtype))
        bound = channels * 27 * lo * lo          # K * 2^(b-1) * 2^(b-1)
        assert np.all(acc == bound)
        assert bound < (1 << 24 if dtype is np.float32 else 1 << 53)

    @staticmethod
    def kernel_dtypes(net):
        packed = packed_net(pack_model(net))
        return {name: layer.int_kernel.w_codes.dtype for name, layer in packed_layers(packed)}

    def test_presets_select_float32_and_wide_q8_float64(self):
        for variant in QUANTIZED:
            chosen = self.kernel_dtypes(calibrated_net(variant, base_channels=16, heads=2))
            assert chosen and all(d == np.float32 for d in chosen.values())
        chosen = self.kernel_dtypes(calibrated_net("q8", base_channels=64, heads=2))
        assert chosen["block0.cf0.conv"] == np.float64     # 64*27 * 2^14 >= 2^24
        assert chosen["block0.cf0.fuse"] == np.float32


class TestAccumulatorGuard:
    def test_dtype_boundaries(self):
        # 2-bit codes: bound = 4 * K
        assert code_dtype((1 << 22) - 1, 2) is np.float32
        assert code_dtype(1 << 22, 2) is np.float64
        assert code_dtype((1 << 51) - 1, 2) is np.float64
        with pytest.raises(ConfigError, match="not exact in float64"):
            code_dtype(1 << 51, 2)

    def test_32_bits_contract_in_float32(self):
        # 32-bit operands are float32 values, not codes: no type is exact
        assert code_dtype(1, 32) is np.float32
        assert code_dtype(1 << 51, 32) is np.float32

    def test_kernel_construction_raises(self):
        # a weight of 2^40 inputs, as a zero-stride view: K * 2^14 >= 2^53
        layer = QLinear(np.random.default_rng(0), 1, 1, bits=8)
        layer.weight.data = np.broadcast_to(np.float32(0), (1 << 40, 1))
        huge = PackedLayer(name="huge", kind="linear", bits=8, shape=(1 << 40, 1))
        with pytest.raises(ConfigError, match="not exact in float64"):
            IntKernel(huge, layer)

    def test_kernel_construction_raises_under_python_O(self):
        code = (
            "from qsci.errors import ConfigError\n"
            "from qsci.quantize import code_dtype\n"
            "assert False, 'asserts must be stripped'\n"
            "try:\n"
            "    code_dtype(1 << 40, 8)\n"
            "except ConfigError:\n"
            "    print('raised')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "raised"


def tiny_q4():
    return QNet(make_variant("q4", base_channels=2, heads=1, resdnet_blocks=1,
                             cformer_per_block=1, cr=2), seed=0)


class TestInstallChecks:
    """install_packed is the only check that a checkpoint's entries form a
    packed model of the network; each fault is a FormatError naming the entry."""

    @staticmethod
    def faulty(fault):
        fingerprint, state = pack_model(tiny_q4())
        words = state["fem.conv_a.words"]
        if fault == "missing":
            del state["fem.conv_a.words"]
        elif fault == "count":
            state["fem.conv_a.words"] = np.append(words, np.uint64(0))
        elif fault == "dtype":
            state["fem.conv_a.words"] = words.view(np.int64)
        elif fault == "float weight":
            state["fem.conv_a.weight"] = np.zeros((2, 2, 3, 3, 3), np.float32)
        elif fault == "unknown":
            state["fem.extra"] = np.zeros(1, np.float32)
        elif fault == "shape":
            state["fem.conv_a.bias"] = np.zeros(3, np.float32)
        elif fault == "float dtype":
            state["fem.conv_a.bias"] = state["fem.conv_a.bias"].astype(np.int64)
        elif fault == "fingerprint":
            fingerprint = fingerprint.replace("enhb=4", "enhb=3")
        return fingerprint, state

    @pytest.mark.parametrize("fault,match", [
        ("missing", "no entry 'fem.conv_a.words'"),
        ("count", "'fem.conv_a.words' is uint64 \\(8,\\)"),
        ("dtype", "'fem.conv_a.words' is int64"),
        ("float weight", "'fem.conv_a.weight' has no counterpart"),
        ("unknown", "'fem.extra' has no counterpart"),
        ("shape", "'fem.conv_a.bias' is float32 \\(3,\\)"),
        ("float dtype", "'fem.conv_a.bias' is int64"),
        ("fingerprint", "fingerprint"),
    ])
    def test_fault_is_a_format_error(self, fault, match):
        with pytest.raises(FormatError, match=match):
            install_packed(tiny_q4(), self.faulty(fault))

    def test_intact_model_installs_a_kernel_per_packed_layer(self):
        net = tiny_q4()
        install_packed(net, pack_model(tiny_q4()))
        with_kernel = {name for name, layer in net.quant_layers() if layer.int_kernel}
        assert with_kernel == {name for name, _ in packed_layers(net)} != set()

    def test_hooks_see_installed_model_inputs_as_float_model(self):
        # a hook sees each layer's input through its activation quantizer,
        # which an integer kernel reaches through act_quantize
        def input_shapes(net):
            shapes = {}
            net.forward_with_hooks(
                np.zeros((1, 2, net.cfg.cr, 8, 8), np.float32),
                [(layer.aq, lambda x, name=name: shapes.update({name: x.shape}))
                 for name, layer in net.quant_layers()])
            return shapes

        net = tiny_q4()
        install_packed(net, pack_model(tiny_q4()))
        shapes = input_shapes(net)
        assert shapes == input_shapes(tiny_q4())
        assert len(shapes) == len(net.quant_layers())
        assert all(q.on_next is None for q in net.quantizers())


class TestCorrection:
    """The separable zero-point correction equals the tap-by-tap int64
    contraction of the weight codes with an all-ones input."""

    @pytest.mark.parametrize("name", ["fem.conv_a", "fem.conv_b", "vrm.conv_up",
                                      "block0.cf0.fuse", "block0.cf0.attn.q_proj"])
    def test_equals_int64_reference_on_ones(self, name):
        layer = dict(tiny_q4().named_modules())[name]
        rng = np.random.default_rng(len(name))
        codes = random_codes(rng, layer.bits, layer.weight.shape)
        if isinstance(layer, QConv3d):
            # odd extents: uneven strided and zero-padded borders
            ones = np.ones((1, layer.in_ch, 3, 7, 6), np.int64)
            want = ref.int_conv3d(ones, codes, layer.stride, layer.padding)[0]
        else:
            ones = np.ones((2, layer.in_features), np.int64)
            want = ref.int_linear(ones, codes)[0]
        corr = layer.correction(ones.shape, codes.astype(layer.code_dtype()))
        np.testing.assert_array_equal(np.broadcast_to(corr, want.shape).astype(np.int64), want)


@pytest.fixture(scope="module")
def nets64():
    """One network per preset, calibrated on 64x64 clips with non-zero
    output and shortcut weights, built on first use and shared."""
    built = {}

    def get(preset):
        if preset not in built:
            wide = preset == "q8_c64"
            built[preset] = calibrated_net("q8" if wide else preset, hw=64,
                                           **({"base_channels": 64} if wide else {}))
        return built[preset]
    return get


class TestWholeNetwork:
    """``reconstruct`` of a network and of its packed model are one
    computation: the frames are equal, not merely close."""

    @pytest.mark.parametrize("preset", QUANTIZED + ["q8_c64"])
    def test_packed_frames_equal_network_frames(self, nets64, preset):
        net = nets64(preset)
        packed = packed_net(pack_model(net))
        masks, _, meas = small_inputs(hw=64, seed=3)
        for m in meas:
            assert np.array_equal(packed.reconstruct(m, masks).frames,
                                  net.reconstruct(m, masks).frames)


class TestAgreementWithFakeQuant:
    """The tape-free forward of every packed layer equals, bit for bit, the
    forward of the unpacked layer under a tape, whose straight-through
    backward training uses."""

    @pytest.mark.parametrize("variant", QUANTIZED)
    def test_every_layer_equals_its_taped_forward(self, nets64, variant):
        net = nets64(variant)
        packed = packed_net(pack_model(net))
        fq_layers = dict(net.named_modules())
        seen = []

        class Recording:
            def __init__(self, name, kernel):
                self.name, self.kernel = name, kernel

            def __call__(self, x):
                out = self.kernel(x)
                seen.append((self.name, x, out))
                return out

        for name, layer in packed.quant_layers():
            if layer.int_kernel is not None:
                layer.int_kernel = Recording(name, layer.int_kernel)
        masks, _, meas = small_inputs(hw=64, seed=3)
        packed.reconstruct(meas[0], masks)

        assert {name for name, _, _ in seen} == {name for name, _ in packed_layers(net)}
        for name, x, out in seen:
            with Tape():
                want = fq_layers[name].forward(Tensor(x)).data
            if isinstance(fq_layers[name], QConv3d) and ("conv_out" in name or "short_" in name):
                assert np.abs(want).max() > 0, f"{name} does not reach the output"
            assert np.array_equal(out, want), name
