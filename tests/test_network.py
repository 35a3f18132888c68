"""Reconstruction network: structure, equivalences, and the float reference."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import qsci.autodiff as ad
import reference_impl as ref
from qsci import network
from qsci.autodiff import Tape, Tensor
from qsci.errors import ConfigError, FormatError, NumericError, ShapeError
from qsci.network import (BACKBONE, CFormerBlock, LayerNorm, QConv3d, QLinear, QNet,
                          QNetConfig, ShiftedAttention, _gelu_by_accumulator, check_state,
                          make_variant, parse_fingerprint)
from qsci.quantize import act_quantize, fake_quant
from qsci.sci import encode, generate_masks, initial_estimate, synth_video
from small_models import calibrated_net, small_inputs

TINY = dict(base_channels=8, resdnet_blocks=1, cformer_per_block=1, heads=2, cr=2)


def tiny_cfg(**kw):
    merged = {**TINY, **kw}
    return QNetConfig(**merged)


def tiny_inputs(t=2, hw=8, seed=0):
    masks = generate_masks(seed, t, hw, hw)
    clip = synth_video(seed + 1, t, hw, hw)
    meas = encode(clip, masks)
    return masks, clip, meas


class TestConfig:
    def test_heads_divide_channels(self):
        with pytest.raises(ConfigError, match="divisible"):
            QNetConfig(base_channels=6, heads=4)

    def test_shortcut_bits_floor(self):
        with pytest.raises(ConfigError, match="shortcut_bits"):
            QNetConfig(body_bits=8, shortcut_bits=4)

    def test_fingerprint_round_trip(self):
        cfg = tiny_cfg(body_bits=4, shortcut_bits=8, use_fem_shortcuts=True,
                       use_qk_shift=True, fem_bits=8)
        assert parse_fingerprint(cfg.fingerprint()) == cfg

    # a quantized base, so that shortcut_bits (>= body_bits) can change too,
    # and a value other than the base's for every QNetConfig field
    FP_BASE = QNetConfig(body_bits=4, shortcut_bits=8)
    FP_CHANGED = dict(base_channels=8, resdnet_blocks=3, cformer_per_block=1, heads=4, cr=2,
                      body_bits=2, shortcut_bits=32, use_fem_shortcuts=True,
                      use_vrm_shortcuts=True, use_qk_shift=True, fem_bits=8, enh_bits=3,
                      vrm_bits=32)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(QNetConfig)])
    def test_fingerprint_round_trips_each_field(self, field):
        # a field missing from the fingerprint table fails here
        cfg = dataclasses.replace(self.FP_BASE, **{field: self.FP_CHANGED[field]})
        assert cfg != self.FP_BASE
        assert parse_fingerprint(cfg.fingerprint()) == cfg
        assert cfg.fingerprint() != self.FP_BASE.fingerprint()
        geometry_changed = cfg.backbone_geometry() != self.FP_BASE.backbone_geometry()
        assert geometry_changed == (field in [f for _, f in BACKBONE])

    @pytest.mark.parametrize("edit", [
        lambda fp: fp + ";x=1",                              # unknown key
        lambda fp: fp + ";C=16",                             # repeated key, later value
        lambda fp: fp + ";C=8",                              # repeated key, same value
        lambda fp: fp.replace("C=8;N=2", "N=2;C=8"),         # reordered
        lambda fp: fp.replace("body=4", "body=04"),          # padded value
    ], ids=["unknown", "repeated", "repeated-same", "reordered", "padded"])
    def test_non_canonical_fingerprint_rejected(self, edit):
        fp = QNetConfig(base_channels=8, resdnet_blocks=2, body_bits=4,
                        shortcut_bits=8).fingerprint()
        assert parse_fingerprint(fp).fingerprint() == fp
        with pytest.raises(ConfigError, match="malformed config fingerprint"):
            parse_fingerprint(edit(fp))

    def test_quantized_flag(self):
        assert not tiny_cfg(body_bits=32, shortcut_bits=32).quantized
        assert tiny_cfg(body_bits=8, shortcut_bits=8).quantized
        assert tiny_cfg(body_bits=32, fem_bits=4).quantized


class TestVariants:
    def test_q8_flags(self):
        cfg = make_variant("q8")
        assert cfg.body_bits == 8
        assert not cfg.use_fem_shortcuts and not cfg.use_vrm_shortcuts
        assert cfg.use_qk_shift

    @pytest.mark.parametrize("name,bits", [("q4", 4), ("q3", 3), ("q2", 2)])
    def test_low_bit_variants(self, name, bits):
        cfg = make_variant(name)
        assert cfg.body_bits == bits
        assert cfg.shortcut_bits == 8
        assert cfg.use_fem_shortcuts and cfg.use_vrm_shortcuts and cfg.use_qk_shift

    def test_fp32(self):
        cfg = make_variant("fp32")
        assert cfg.body_bits == 32
        assert not (cfg.use_fem_shortcuts or cfg.use_vrm_shortcuts or cfg.use_qk_shift)

    def test_baseline(self):
        cfg = make_variant("q4_baseline")
        assert cfg.body_bits == 4
        assert not (cfg.use_fem_shortcuts or cfg.use_vrm_shortcuts or cfg.use_qk_shift)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_variant("q5")


class TestForward:
    def test_output_shape_and_range(self):
        masks, clip, meas = tiny_inputs()
        net = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=0)
        rec = net.reconstruct(meas, masks)
        assert rec.frames.shape == clip.frames.shape
        assert rec.frames.min() >= 0.0 and rec.frames.max() <= 1.0

    def test_deterministic(self):
        masks, _, meas = tiny_inputs()
        net = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=0)
        a = net.reconstruct(meas, masks).frames
        b = net.reconstruct(meas, masks).frames
        np.testing.assert_array_equal(a, b)

    def test_wrong_t_rejected(self):
        net = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=0)
        with pytest.raises(ShapeError, match="T="):
            net.forward_stack(Tensor(np.zeros((1, 2, 3, 8, 8), np.float32)))

    def test_odd_spatial_rejected(self):
        net = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=0)
        with pytest.raises(ShapeError, match="even"):
            net.forward_stack(Tensor(np.zeros((1, 2, 2, 7, 7), np.float32)))

    @pytest.mark.parametrize("variant", ["fp32", "q8", "q4"])
    def test_untrained_model_outputs_estimate(self, variant):
        # zero-initialized output conv: the model reproduces channel 0
        masks, _, meas = tiny_inputs()
        net = QNet(make_variant(variant, **TINY), seed=0)
        stack = initial_estimate(meas, masks)
        if net.cfg.quantized:
            net.calibrate_quantizers(stack)
        rec = net.reconstruct(meas, masks)
        np.testing.assert_allclose(rec.frames, np.clip(stack[0, 0], 0, 1), atol=1e-5)


class TestFloatReference:
    @pytest.mark.parametrize("flags", [
        dict(),
        dict(use_fem_shortcuts=True, use_vrm_shortcuts=True, use_qk_shift=True),
    ])
    def test_32bit_matches_independent_reference(self, flags):
        cfg = tiny_cfg(body_bits=32, shortcut_bits=32, **flags)
        net = QNet(cfg, seed=3)
        # shortcut convs are zero-initialized; randomize so the test is not
        # comparing zeros, and give the shifts a nonzero value too
        rng = np.random.default_rng(5)
        for name, p in net.named_params():
            if "short_" in name or "beta_" in name:
                p.data = (rng.standard_normal(p.data.shape) * 0.05).astype(np.float32)
        masks, _, meas = tiny_inputs()
        stack = initial_estimate(meas, masks)
        ours = net.forward_stack(Tensor(stack)).data
        theirs = ref.forward(stack, net.state_dict(), cfg)
        np.testing.assert_allclose(ours, theirs.astype(np.float32), atol=1e-6)


class TestWholeNetworkGradient:
    """The engine's gradient of a whole fp32 network with the query/key
    shift, checked tensor by tensor against central differences of the
    same MSE loss, computed by the float64 reference forward.

    The directional derivative ``s = <g, d>`` along a fixed random direction
    ``d`` of each parameter tensor must match ``(L(θ + εd) - L(θ - εd)) / 2ε``.
    The float64 difference is exact to far below float32 rounding; its
    truncation and rounding error is estimated as its change when ε doubles.
    The engine's error is float32 rounding. Every gradient element is made
    by a chain of at most ``nodes`` backward rules, each summing at most
    ``largest`` terms (the largest array on the tape), so by the
    probabilistic bound of Higham and Mary (SIAM J. Sci. Comput. 41(5),
    2019), with n = nodes * largest roundings its relative error is at most
    λ·sqrt(n)·u, u = 2^-24, except with probability 2n·exp(-λ²/2) ≤ 1e-9.
    That relative error is taken of ``S = sum |g·d|``, the sum the
    directional derivative adds up. ``beta_k`` and ``k_proj.bias`` shift
    each query's logits by one amount, which softmax ignores: their true
    gradient is 0 and their ``S`` is rounding noise, so every tensor's
    bound also carries the largest ``S`` of any tensor.
    """

    EPS = 1e-6

    def test_directional_derivatives_match_central_differences(self, monkeypatch):
        cfg = QNetConfig(base_channels=4, resdnet_blocks=1, cformer_per_block=1, heads=2,
                         cr=2, use_qk_shift=True)
        net = QNet(cfg, seed=0)
        rng = np.random.default_rng(11)
        # conv_out, the biases and the shifts start at zero; give them values
        for _, p in net.named_params():
            if not p.data.any():
                p.data = (rng.standard_normal(p.shape) * 0.01).astype(np.float32)
        masks = generate_masks(3, 2, 8, 8)
        clips = [synth_video(4 + i, 2, 8, 8) for i in range(2)]
        stack = np.concatenate([initial_estimate(encode(c, masks), masks) for c in clips])
        gt = np.stack([c.frames for c in clips])
        # the size of each node's inputs, seen as they are recorded
        sizes = []
        record = Tape.record

        def sizing_record(tape, out, inputs, backward_fn, name):
            sizes.extend(t.size for t in inputs)
            record(tape, out, inputs, backward_fn, name)

        monkeypatch.setattr(Tape, "record", sizing_record)
        with Tape() as tape:
            diff = net.forward_stack(Tensor(stack)) - Tensor(gt)
            loss = ad.mean(diff * diff)
        monkeypatch.undo()
        n = len(tape.nodes) * max(sizes)
        ad.backward(loss)
        lam = math.sqrt(2 * math.log(2 * n / 1e-9))
        rel = lam * math.sqrt(n) * 2.0 ** -24

        theta = {name: p.data.astype(np.float64) for name, p in net.named_params()}

        def ref_loss(params):
            return np.mean((ref.forward(stack, params, cfg) - gt) ** 2)

        def central(name, d, eps):
            lp = ref_loss({**theta, name: theta[name] + eps * d})
            lm = ref_loss({**theta, name: theta[name] - eps * d})
            return (lp - lm) / (2 * eps)

        rows = []
        for name, p in net.named_params():
            assert p.grad is not None, f"no gradient reached {name}"
            d = rng.standard_normal(p.shape)
            terms = p.grad.astype(np.float64) * d
            fd = central(name, d, self.EPS)
            fd_err = abs(fd - central(name, d, 2 * self.EPS))
            rows.append((name, terms.sum(), np.abs(terms).sum(), fd, fd_err))
        floor = max(r[2] for r in rows)
        bad = [(name, s, fd) for name, s, total, fd, fd_err in rows
               if abs(s - fd) > rel * (total + floor) + fd_err]
        assert not bad, f"directional derivative vs central difference: {bad}"


class TestShiftedAttention:
    def test_zero_shift_bit_equals_unshifted(self):
        rng = np.random.default_rng(0)
        shifted = ShiftedAttention(np.random.default_rng(1), 8, 2, 8, shift=True)
        plain = ShiftedAttention(np.random.default_rng(1), 8, 2, 8, shift=False)
        for (_, a), (_, b) in zip(shifted.named_params(), plain.named_params()):
            pass  # structures differ by beta params; copy shared ones by name
        shared = dict(plain.named_params())
        for name, p in shifted.named_params():
            if name in shared:
                p.data = shared[name].data.copy()
        tok = Tensor(rng.standard_normal((5, 3, 8)).astype(np.float32))
        np.testing.assert_array_equal(shifted.forward(tok).data, plain.forward(tok).data)

    def test_single_token_probability_one(self):
        rng = np.random.default_rng(2)
        attn = ShiftedAttention(np.random.default_rng(3), 8, 2, 32, shift=False)
        tok = Tensor(rng.standard_normal((4, 1, 8)).astype(np.float32))
        out = attn.forward(tok)
        v = attn.v_proj.forward(tok)
        expect = attn.out_proj.forward(v)
        np.testing.assert_allclose(out.data, expect.data, atol=1e-6)

    def test_shift_moves_mean_exactly(self):
        rng = np.random.default_rng(4)
        attn = ShiftedAttention(np.random.default_rng(5), 8, 2, 8, shift=True)
        attn.beta_q.data = rng.standard_normal(8).astype(np.float32) * 0.5
        tok = Tensor(rng.standard_normal((6, 3, 8)).astype(np.float32))
        q = attn.q_proj.forward(tok)
        q_shifted = q + attn.beta_q
        lhs = float(q_shifted.data.mean()) - float(q.data.mean())
        rhs = float(attn.beta_q.data.mean())
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_head_mismatch(self):
        with pytest.raises(ShapeError):
            ShiftedAttention(np.random.default_rng(0), 6, 4, 8, shift=False)

    def test_shift_params_absent_without_flag(self):
        attn = ShiftedAttention(np.random.default_rng(0), 8, 2, 8, shift=False)
        names = [n for n, _ in attn.named_params()]
        assert not any("beta" in n for n in names)


class TestResidualStructure:
    def test_zero_final_projection_is_identity(self):
        rng = np.random.default_rng(6)
        block = CFormerBlock(np.random.default_rng(7), 8, 2, 32, shift=False)
        block.mlp_out.weight.data[:] = 0.0
        block.mlp_out.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 8, 2, 4, 4)).astype(np.float32))
        out = block.forward(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_init_shortcuts_match_plain_stack(self):
        masks, _, meas = tiny_inputs()
        plain = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=9)
        with_sc = QNet(tiny_cfg(body_bits=32, shortcut_bits=32, use_fem_shortcuts=True,
                                use_vrm_shortcuts=True), seed=9)
        shared = dict(plain.named_params())
        for name, p in with_sc.named_params():
            if name in shared:
                p.data = shared[name].data.copy()
        a = plain.reconstruct(meas, masks).frames
        b = with_sc.reconstruct(meas, masks).frames
        np.testing.assert_array_equal(a, b)

    def test_shortcut_params_absent_without_flags(self):
        net = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=0)
        assert not any("short_" in n for n, _ in net.named_params())


class TestAudit:
    def test_every_body_layer_has_one_quantizer_pair(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        for name, layer in net.quant_layers():
            assert layer.aq is not None and layer.wq is not None
            assert layer.aq.bits == layer.bits and layer.wq.bits == layer.bits

    def test_audit_lists_all_layers_with_bits(self):
        cfg = make_variant("q4", **TINY)
        net = QNet(cfg, seed=0)
        rows = net.audit((8, 8))
        assert len(rows) == len(net.quant_layers())
        by_name = {r["name"]: r for r in rows}
        assert by_name["fem.conv_a"]["w_bits"] == 4
        assert by_name["fem.short_a"]["w_bits"] == 8
        assert all(r["flops"] > 0 and r["weight_params"] > 0 for r in rows)

    def test_stage_bit_overrides(self):
        cfg = tiny_cfg(body_bits=8, shortcut_bits=8, fem_bits=4)
        net = QNet(cfg, seed=0)
        rows = {r["name"]: r for r in net.audit((8, 8))}
        assert rows["fem.conv_a"]["w_bits"] == 4
        assert rows["vrm.conv_up"]["w_bits"] == 8
        assert rows["block0.cf0.conv"]["w_bits"] == 8


def erf_sizes(monkeypatch):
    """Element counts of every ``erf`` call that ``gelu`` makes from now on."""
    sizes = []
    real = ad.erf
    monkeypatch.setattr(ad, "erf", lambda v: (sizes.append(v.size), real(v))[1])
    return sizes


def without_gelu(layer, x):
    """``layer``'s tape-free code-domain output before its GELU."""
    layer.gelu = False
    try:
        return layer.code_forward(x, act_quantize(layer.weight, layer.wq))
    finally:
        layer.gelu = True


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestGeluByAccumulator:
    """GELU is ``mlp_in``'s own output activation. Tape-free, a quantized
    unpadded layer runs it once per accumulator value of a per-channel
    table: the bits of the direct formula on the layer's output."""

    @pytest.mark.parametrize("variant,tabled", [
        ("q4", True), ("q3", True), ("q2", True), ("q4_baseline", True),
        ("q3_baseline", True), ("q2_baseline", True), ("q8", False), ("fp32", False)])
    def test_real_mlp_in_outputs(self, monkeypatch, variant, tabled):
        # the quantizer after the GELU (what calibration fits) sees exactly
        # the direct formula's bits
        net = calibrated_net(variant, hw=32)
        masks, _, meas = small_inputs(4, 32, seed=1, count=1)
        layers = dict(net.named_modules())
        mlp_in = layers["block0.cf0.mlp_in"]
        seen_in, seen_out = [], []
        mlp_in.aq.on_next = seen_in.append
        layers["block0.cf0.mlp_out"].aq.on_next = seen_out.append
        sizes = erf_sizes(monkeypatch)
        net.reconstruct(meas[0], masks)
        monkeypatch.undo()
        [x], [got] = seen_in, seen_out
        if variant == "fp32":
            pre = ad.conv3d(Tensor(x), mlp_in.weight, mlp_in.bias).data
        else:
            pre = without_gelu(mlp_in, x)
        assert same_bits(got, ad.gelu(Tensor(pre)).data)
        assert len(sizes) == 1
        assert (sizes[0] < got.size) == tabled

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_raises_from_the_table(self, monkeypatch, bad):
        net = calibrated_net("q4", hw=32)
        masks, _, meas = small_inputs(4, 32, seed=1, count=1)
        mlp_in = dict(net.named_modules())["block0.cf0.mlp_in"]
        mlp_in.bias.data[1] = bad
        seen_in = []
        mlp_in.aq.on_next = seen_in.append
        sizes = erf_sizes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="op 'gelu'"):
                net.reconstruct(meas[0], masks)
        out_size = seen_in[0].size // mlp_in.in_ch * mlp_in.out_ch
        assert len(sizes) == 1 and 0 < sizes[0] <= out_size // 4    # a table's erf

    def test_no_table_under_a_tape(self, monkeypatch):
        # the taped mlp_in is ad.gelu after ad.conv3d: the same value and
        # gradient bytes, with erf run on every output
        net = calibrated_net("q4", hw=16)
        mlp_in = dict(net.named_modules())["block0.cf0.mlp_in"]
        x_arr = np.random.default_rng(5).standard_normal((1, 8, 4, 8, 8)).astype(np.float32)
        g = np.random.default_rng(6).standard_normal((1, 16, 4, 8, 8)).astype(np.float32)
        results = []
        for composed in (False, True):
            sizes = erf_sizes(monkeypatch)
            x = Tensor(x_arr, requires_grad=True)
            for p in mlp_in.params():
                p.zero_grad()
            with Tape():
                if composed:
                    out = ad.gelu(ad.conv3d(fake_quant(x, mlp_in.aq),
                                            fake_quant(mlp_in.weight, mlp_in.wq), mlp_in.bias))
                else:
                    out = mlp_in.forward(x)
                loss = ref.sum_(out * Tensor(g))
            ad.backward(loss)
            assert sizes == [out.size]
            results.append([out.data, x.grad] + [p.grad for p in mlp_in.params()])
            monkeypatch.undo()
        for a, b in zip(*results):
            assert same_bits(a, b)

    def test_padded_layer_runs_the_direct_formula(self, monkeypatch):
        # a padded layer's offset varies with position, so no per-channel table
        rng = np.random.default_rng(7)
        layer = QConv3d(rng, 3, 4, (1, 3, 3), padding=(0, 1, 1), bits=4, gelu=True)
        x = rng.standard_normal((1, 3, 2, 6, 6)).astype(np.float32)
        layer.aq.calibrate(x)
        layer.wq.calibrate(layer.weight.data)
        layer.bias.data[:] = rng.standard_normal(4)
        sizes = erf_sizes(monkeypatch)
        got = layer.code_forward(x, act_quantize(layer.weight, layer.wq))
        assert sizes == [got.size]
        assert same_bits(got, ad.gelu(Tensor(without_gelu(layer, x))).data)

    @pytest.mark.parametrize("zero,tabled", [(0.0, True), (-0.0, False)])
    def test_minus_zero_offset_runs_the_direct_formula(self, zero, tabled):
        # an accumulator of -0.0 shares the table entry of 0, whose bits
        # differ from it only where the offset is -0.0
        acc = np.float32([-0.0, 0.0, 1.0, 2.0] * 8).reshape(1, 2, 4, 2, 2)
        offset = np.float32([zero, 0.5]).reshape(2, 1, 1, 1)
        got = _gelu_by_accumulator(acc, np.float32(0.25), offset)
        assert (got is not None) == tabled
        if tabled:
            direct = acc * np.float32(0.25) + offset
            assert same_bits(got, ad.gelu(Tensor(direct)).data)


U32 = 2.0 ** -24     # unit roundoff of float32


def gamma(m):
    """Higham's gamma_m = m*u / (1 - m*u): a float32 sum of m terms, in any
    order, is within gamma_m * (sum of their magnitudes) of the exact sum."""
    return m * U32 / (1 - m * U32)


class TestFloat32CodeForward:
    """A 32-bit layer runs the same code-domain forward as a quantized one,
    with its float values as codes. Tape-free and taped, each output is a
    float32 sum of the layer's n = C*k3 (or in_features) products and its
    bias, in each route's own order, so the two differ by at most
    2*gamma_{n+1} * (sum |w||x| + |b|), elementwise."""

    @pytest.mark.parametrize("geometry", [
        dict(in_ch=16, out_ch=32, kernel=(1, 1, 1)),
        dict(in_ch=16, out_ch=1, kernel=(1, 3, 3), padding=(0, 1, 1)),
        dict(in_ch=8, out_ch=8, kernel=(3, 3, 3), padding=(1, 1, 1)),
        dict(in_ch=8, out_ch=32, kernel=(1, 3, 3), padding=(0, 1, 1)),
        dict(in_ch=8, out_ch=8, kernel=(3, 3, 3), stride=(1, 2, 2), padding=(1, 1, 1)),
    ], ids=["k111", "channels-first-conv_out", "k333-temporal-taps", "k133", "strided-conv_b"])
    def test_conv_within_float32_summation_error(self, geometry):
        rng = np.random.default_rng(geometry["out_ch"] + sum(geometry["kernel"]))
        layer = QConv3d(rng, **geometry)
        layer.bias.data[:] = rng.standard_normal(layer.out_ch)
        x = rng.standard_normal((2, layer.in_ch, 4, 8, 8)).astype(np.float32)
        mass = ref.conv3d(np.abs(x), np.abs(layer.weight.data), np.abs(layer.bias.data),
                          layer.stride, layer.padding)
        self.check(layer, x, mass)

    def test_linear_within_float32_summation_error(self):
        rng = np.random.default_rng(9)
        layer = QLinear(rng, 16, 24)
        layer.bias.data[:] = rng.standard_normal(24)
        x = rng.standard_normal((6, 4, 16)).astype(np.float32)
        mass = (np.abs(x).astype(np.float64) @ np.abs(layer.weight.data)
                + np.abs(layer.bias.data))
        self.check(layer, x, mass)

    @staticmethod
    def check(layer, x, mass):
        free = layer.forward(Tensor(x)).data
        with Tape():
            taped = layer.forward(Tensor(x)).data
        n = layer.weight_count() // layer.out_features
        assert free.shape == taped.shape == mass.shape
        assert np.all(np.abs(free.astype(np.float64) - taped) <= 2 * gamma(n + 1) * mass)


class TestOneTapeFreeRoute:
    @pytest.mark.parametrize("variant", ["fp32", "q4"])
    def test_tape_free_forwards_never_run_autodiff_conv3d(self, monkeypatch, variant):
        net = calibrated_net(variant, hw=16)
        masks, _, meas = small_inputs(4, 16, seed=1, count=1)
        stack = initial_estimate(meas[0], masks)

        def refuse(*args, **kwargs):
            raise RuntimeError("autodiff.conv3d reached")

        monkeypatch.setattr(ad, "conv3d", refuse)
        net.reconstruct(meas[0], masks)
        net.calibrate_quantizers(stack)
        net.audit((16, 16))
        with Tape(), pytest.raises(RuntimeError, match="conv3d reached"):
            net.forward_stack(Tensor(stack))       # the taped forward does run it

    def test_only_quantized_layers_build_a_correction_map(self, monkeypatch):
        # at 32 bits code_forward multiplies the map by alpha_w * z = 0
        fp32, q4 = calibrated_net("fp32", hw=16), calibrated_net("q4", hw=16)
        masks, _, meas = small_inputs(4, 16, seed=1, count=1)

        def refuse(*args):
            raise RuntimeError("correction map built")

        monkeypatch.setattr(network, "_valid_taps", refuse)
        fp32.reconstruct(meas[0], masks)
        with pytest.raises(RuntimeError, match="correction map built"):
            q4.reconstruct(meas[0], masks)


def memory_of(a):
    return a.__array_interface__["data"][0], a.nbytes


class TestScanOnce:
    """One tape-free forward scans each array for NaN/Inf once: an op's
    output is scanned by the op, and a quantizer scans only what no op
    scanned (the input stack, parameters, code-domain layer outputs)."""

    def test_no_array_scanned_twice(self, monkeypatch):
        net = calibrated_net("q4", hw=16)
        masks, _, meas = small_inputs(4, 16, seed=1, count=1)
        scanned, norms = [], []     # the arrays themselves: no address is reused
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: (scanned.append(a), real(a))[1])
        forward = LayerNorm.forward
        monkeypatch.setattr(LayerNorm, "forward",
                            lambda self, x: (norms.append(forward(self, x)), norms[-1])[1])
        net.reconstruct(meas[0], masks)
        monkeypatch.undo()
        counts = {}
        for a in scanned:
            counts[memory_of(a)] = counts.get(memory_of(a), 0) + 1
        assert norms and all(counts[memory_of(n.data)] == 1 for n in norms)
        assert max(counts.values()) == 1


class TestLayerNormNode:
    def test_cformer_records_8_fewer_tape_nodes(self, monkeypatch):
        # one ad.layer_norm node in place of the nine-op chain
        def nodes():
            block = CFormerBlock(np.random.default_rng(0), 8, 2, 4, True)
            x = Tensor(np.random.default_rng(1).standard_normal((1, 8, 2, 4, 4))
                       .astype(np.float32), requires_grad=True)
            with Tape() as tape:
                block.forward(x)
            return len(tape.nodes)

        one_node = nodes()
        monkeypatch.setattr(LayerNorm, "forward",
                            lambda self, x: ref.layer_norm_ops(x, self.gain, self.bias, self.EPS))
        assert nodes() - one_node == 8


class TestCheckpointInit:
    def test_quantized_init_from_fp32_backbone(self):
        fp32 = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=1)
        q4 = QNet(make_variant("q4", **TINY), seed=2)
        q4.init_from_backbone(fp32.state_dict(), fp32.cfg.backbone_geometry())
        np.testing.assert_array_equal(q4.fem.conv_a.weight.data, fp32.fem.conv_a.weight.data)

    def test_geometry_mismatch_rejected(self):
        fp32 = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=1)
        other = QNet(QNetConfig(base_channels=16, resdnet_blocks=1, cformer_per_block=1,
                                heads=2, cr=2, body_bits=8, shortcut_bits=8), seed=0)
        with pytest.raises(ConfigError, match="geometry"):
            other.init_from_backbone(fp32.state_dict(), fp32.cfg.backbone_geometry())

    def test_missing_backbone_param_rejected(self):
        fp32 = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=1)
        state = fp32.state_dict()
        del state["fem.conv_a.weight"]
        q8 = QNet(make_variant("q8", **TINY), seed=0)
        with pytest.raises(FormatError, match="fem.conv_a.weight"):
            q8.init_from_backbone(state, fp32.cfg.backbone_geometry())

    @pytest.mark.parametrize("name,shape", [
        ("fem.short_a.wieght", (3,)),       # misspelt: no network carries it
        ("vrm.conv_out.aq.bogus", (5,)),    # unknown quantizer entry
        ("fem.short_a.weight", (3,)),       # a shortcut weight of the wrong shape
    ])
    def test_entry_no_network_carries_rejected(self, name, shape):
        state = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=1).state_dict()
        state[name] = np.zeros(shape, np.float32)
        net = QNet(make_variant("q4_baseline", **TINY), seed=0)
        with pytest.raises(FormatError, match=name):
            net.init_from_backbone(state, net.cfg.backbone_geometry())

    def test_wrong_dtype_entry_rejected(self):
        # nothing is cast: a float64 weight does not fit a float32 network
        state = QNet(tiny_cfg(body_bits=32, shortcut_bits=32), seed=1).state_dict()
        state["fem.conv_a.weight"] = state["fem.conv_a.weight"].astype(np.float64)
        net = QNet(make_variant("q4", **TINY), seed=0)
        with pytest.raises(FormatError, match="'fem.conv_a.weight' is float64"):
            net.init_from_backbone(state, net.cfg.backbone_geometry())

    def test_baseline_init_from_shortcut_shift_checkpoint(self):
        q4 = QNet(make_variant("q4", **TINY), seed=1)
        q4.fem.conv_a.aq.alpha.data[0] = 0.25
        q2 = QNet(make_variant("q2_baseline", **TINY), seed=0)
        q2.init_from_backbone(q4.state_dict(), q4.cfg.backbone_geometry())
        np.testing.assert_array_equal(q2.vrm.conv_up.weight.data, q4.vrm.conv_up.weight.data)
        assert q2.fem.conv_a.aq.alpha.data[0] == 0.25

    def test_load_state_mismatch_is_format_error(self):
        net = QNet(make_variant("q8", **TINY), seed=0)
        state = net.state_dict()
        with pytest.raises(FormatError, match="unexpected"):
            net.load_state({**state, "fem.conv_a.words": np.zeros(3, np.uint64)})
        state["fem.conv_a.bias"] = np.zeros(3, np.float32)
        with pytest.raises(FormatError, match="fem.conv_a.bias"):
            net.load_state(state)

    def test_load_state_wrong_dtype_is_format_error(self):
        net = QNet(make_variant("q8", **TINY), seed=0)
        state = net.state_dict()
        state["fem.conv_a.bias"] = state["fem.conv_a.bias"].astype(np.int64)
        with pytest.raises(FormatError, match="'fem.conv_a.bias' is int64"):
            net.load_state(state)

    def test_load_state_round_trip(self):
        net = QNet(make_variant("q8", **TINY), seed=4)
        state = net.state_dict()
        other = QNet(make_variant("q8", **TINY), seed=5)
        other.load_state(state)
        for (n1, p1), (n2, p2) in zip(net.named_params(), other.named_params()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)


class TestCheckState:
    EXPECT = {"a": (np.dtype(np.float32), (2,)), "b": (np.dtype(np.uint64), (1,))}

    def test_fitting_state_passes(self):
        check_state({"a": np.zeros(2, np.float32), "b": np.zeros(1, np.uint64)}, self.EXPECT)
        check_state({"a": np.zeros(2, np.float32)}, self.EXPECT, required=["a"])

    def test_missing_and_unexpected_named_together(self):
        with pytest.raises(FormatError, match="no entry 'b'; unexpected entry 'c'"):
            check_state({"a": np.zeros(2, np.float32), "c": np.zeros(1)}, self.EXPECT)

    def test_names_reported_before_dtype(self):
        state = {"a": np.zeros(2, np.int64), "b": np.zeros(1, np.uint64), "c": np.zeros(1)}
        with pytest.raises(FormatError, match="unexpected entry 'c'"):
            check_state(state, self.EXPECT)
        del state["c"]
        with pytest.raises(FormatError, match="'a' is int64 \\(2,\\), network expects float32"):
            check_state(state, self.EXPECT)

    def test_missing_required_entry_named(self):
        with pytest.raises(FormatError, match="no entry 'b'"):
            check_state({"a": np.zeros(2, np.float32)}, self.EXPECT, required=["a", "b"])


class TestQuantizerHooks:
    """Calibration and the audit see each quantizer's input through a one-shot
    hook; nothing stays armed and a forward writes nothing to the modules."""

    @staticmethod
    def stack():
        masks, _, meas = tiny_inputs()
        return initial_estimate(meas, masks)

    @staticmethod
    def scales(net):
        return [(float(q.alpha.data[0]), float(q.z.data[0])) for q in net.quantizers()]

    def test_calibration_is_one_shot(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        net.calibrate_quantizers(self.stack())
        assert all(q.on_next is None for q in net.quantizers())
        fitted = self.scales(net)
        net.forward_stack(Tensor(self.stack() * 3.0))
        assert self.scales(net) == fitted

    def test_non_finite_stack_leaves_no_hook(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        stack = self.stack()
        stack[0, 0, 0, 0, 0] = np.inf
        with pytest.raises(NumericError):
            net.calibrate_quantizers(stack)
        assert all(q.on_next is None for q in net.quantizers())

    def test_failed_calibration_leaves_scales_unchanged(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        net.calibrate_quantizers(self.stack())
        fitted = self.scales(net)
        stack = self.stack()
        stack[0, 1, 1, 3, 4] = np.inf
        with pytest.raises(NumericError):
            net.calibrate_quantizers(stack)
        assert self.scales(net) == fitted
        assert np.isfinite(net.forward_stack(Tensor(self.stack())).data).all()

    def test_first_layer_fitted_to_its_input(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        stack = self.stack()
        net.calibrate_quantizers(stack)
        conv = net.fem.conv_a
        lo, hi = float(stack.min()), float(stack.max())
        q_p = conv.aq.q_p
        assert conv.aq.z.data[0] == np.float32(0.5 * (hi + lo))
        assert conv.aq.alpha.data[0] == np.float32(0.5 * (hi - lo) / q_p)
        assert conv.wq.alpha.data[0] == np.float32(float(np.abs(conv.weight.data).max()) / q_p)
        assert conv.wq.z.data[0] == 0.0

    def test_every_quantizer_listed_once(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        quantizers = net.quantizers()
        assert len({id(q) for q in quantizers}) == len(quantizers)
        assert len(net.alpha_params()) == len(quantizers)
        assert {id(p) for p in net.alpha_params()} == {
            id(p) for n, p in net.named_params() if n.endswith(".alpha")}
        assert QNet(make_variant("fp32", **TINY), seed=0).alpha_params() == []

    @pytest.mark.parametrize("variant", ["fp32", "q4"])
    def test_forward_sets_no_attribute(self, variant):
        net = QNet(make_variant(variant, **TINY), seed=0)
        net.calibrate_quantizers(self.stack())
        objects = [m for _, m in net.named_modules()] + net.quantizers()
        before = [dict(vars(o)) for o in objects]
        net.forward_stack(Tensor(self.stack()))
        with Tape():
            net.forward_stack(Tensor(self.stack()))
        for o, attrs in zip(objects, before):
            after = vars(o)
            assert after.keys() == attrs.keys()
            assert all(after[k] is attrs[k] for k in attrs), type(o).__name__
