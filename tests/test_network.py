"""Reconstruction network: structure, equivalences, and the float reference."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import qsci.autodiff as ad
import reference_impl as ref
from qsci import cli, network, quantize
from qsci.autodiff import Tape, Tensor
from qsci.errors import ConfigError, FormatError, NumericError, ShapeError
from qsci.evaluation import count_efficiency
from qsci.network import (BACKBONE, CFormerBlock, LayerNorm, Module, QConv3d, QLinear,
                          QNet, QNetConfig, ShiftedAttention, _gelu_by_accumulator, check_state,
                          every_stage, make_variant, parse_fingerprint)
from qsci.quantize import ActQuantizer, act_quantize, fake_quant
from qsci.sci import encode, generate_masks, initial_estimate, synth_video
from qsci.training import mse_loss
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

    def test_shortcut_width_is_derived(self):
        # every preset and ablate row runs its shortcuts at 8 bits, the widest
        # stage's width where that is wider: 32 bits for fp32 alone
        fp32 = make_variant("fp32")
        rows = [cfg for bits in (2, 3, 4, 8) for table in (cli._ladder_configs, cli._grid_configs)
                for _, cfg in table(fp32, bits)]
        for cfg in [make_variant(name) for name in network.VARIANT_NAMES] + rows:
            widest = max(cfg.fem_bits, cfg.enh_bits, cfg.vrm_bits)
            assert cfg.shortcut_bits == max(8, widest) == (32 if cfg == fp32 else 8), cfg
        with pytest.raises(TypeError):   # a property, not a field
            QNetConfig(shortcut_bits=8)
        # so a fingerprint naming any other width names no network
        cfg = QNetConfig(**every_stage(4))
        fp = cfg.fingerprint()
        assert ";short=8;fem=0;vrm=0;" in fp and parse_fingerprint(fp) == cfg
        for short in (4, 32):
            with pytest.raises(ConfigError, match=f"canonical form is '{re.escape(fp)}'"):
                parse_fingerprint(fp.replace(";short=8;", f";short={short};"))

    def test_fingerprint_round_trip(self):
        cfg = tiny_cfg(fem_bits=8, enh_bits=4, vrm_bits=4,
                       use_fem_shortcuts=True, use_qk_shift=True)
        assert parse_fingerprint(cfg.fingerprint()) == cfg

    # a value other than the base's for every QNetConfig field
    FP_BASE = QNetConfig(**every_stage(4))
    FP_CHANGED = dict(base_channels=8, resdnet_blocks=3, cformer_per_block=1, heads=4, cr=2,
                      fem_bits=8, enh_bits=3, vrm_bits=2,
                      use_fem_shortcuts=True, use_vrm_shortcuts=True, use_qk_shift=True)

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
        lambda fp: fp.replace("femb=4", "femb=04"),          # padded value
    ], ids=["unknown", "repeated", "repeated-same", "reordered", "padded"])
    def test_non_canonical_fingerprint_rejected(self, edit):
        fp = QNetConfig(base_channels=8, resdnet_blocks=2, **every_stage(4)).fingerprint()
        assert parse_fingerprint(fp).fingerprint() == fp
        with pytest.raises(ConfigError, match="malformed config fingerprint"):
            parse_fingerprint(edit(fp))

    def test_quantized_flag(self):
        assert not tiny_cfg().quantized
        assert tiny_cfg(**every_stage(8)).quantized
        assert tiny_cfg(fem_bits=4).quantized


class TestVariants:
    def test_q8_flags(self):
        cfg = make_variant("q8")
        assert (cfg.fem_bits, cfg.enh_bits, cfg.vrm_bits) == (8, 8, 8)
        assert not cfg.use_fem_shortcuts and not cfg.use_vrm_shortcuts
        assert cfg.use_qk_shift

    @pytest.mark.parametrize("name,bits", [("q4", 4), ("q3", 3), ("q2", 2)])
    def test_low_bit_variants(self, name, bits):
        cfg = make_variant(name)
        assert (cfg.fem_bits, cfg.enh_bits, cfg.vrm_bits) == (bits, bits, bits)
        assert cfg.shortcut_bits == 8
        assert cfg.use_fem_shortcuts and cfg.use_vrm_shortcuts and cfg.use_qk_shift

    def test_fp32(self):
        cfg = make_variant("fp32")
        assert (cfg.fem_bits, cfg.enh_bits, cfg.vrm_bits) == (32, 32, 32)
        assert not (cfg.use_fem_shortcuts or cfg.use_vrm_shortcuts or cfg.use_qk_shift)

    def test_baseline(self):
        cfg = make_variant("q4_baseline")
        assert (cfg.fem_bits, cfg.enh_bits, cfg.vrm_bits) == (4, 4, 4)
        assert not (cfg.use_fem_shortcuts or cfg.use_vrm_shortcuts or cfg.use_qk_shift)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_variant("q5")


class TestForward:
    def test_output_shape_and_range(self):
        masks, clip, meas = tiny_inputs()
        net = QNet(tiny_cfg(), seed=0)
        rec = net.reconstruct(meas, masks)
        assert rec.frames.shape == clip.frames.shape
        assert rec.frames.min() >= 0.0 and rec.frames.max() <= 1.0

    def test_deterministic(self):
        masks, _, meas = tiny_inputs()
        net = QNet(tiny_cfg(), seed=0)
        a = net.reconstruct(meas, masks).frames
        b = net.reconstruct(meas, masks).frames
        np.testing.assert_array_equal(a, b)

    def test_wrong_t_rejected(self):
        net = QNet(tiny_cfg(), seed=0)
        with pytest.raises(ShapeError, match="T="):
            net.forward_stack(Tensor(np.zeros((1, 2, 3, 8, 8), np.float32)))

    def test_odd_spatial_rejected(self):
        net = QNet(tiny_cfg(), seed=0)
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


def signed_zeros(rng, shape):
    """Random float32 data with a quarter of its entries +0.0 or -0.0."""
    x = rng.standard_normal(shape).astype(np.float32)
    x[rng.random(shape) < 0.25] = 0.0
    return np.where(rng.random(shape) < 0.5, x, -x)


class TestSpaceChannelRearrangement:
    """``_space_to_channel`` and ``_channel_to_space`` are compositions of
    ``reshape`` and ``transpose``: the permutations of the reference's
    pixel unshuffle and shuffle (r=2), forward and backward."""

    # helper: (its reference, the reference's inverse, an input shape)
    HELPERS = {
        network._space_to_channel: (ref.pixel_unshuffle, ref.pixel_shuffle, (2, 3, 3, 6, 10)),
        network._channel_to_space: (ref.pixel_shuffle, ref.pixel_unshuffle, (2, 12, 3, 3, 5)),
    }

    def test_index_map(self):
        # channels [a,b,c,d] land as the 2x2 block [[a,b],[c,d]]
        x = np.array([1.0, 2.0, 3.0, 4.0], np.float32).reshape(1, 4, 1, 1, 1)
        out = network._channel_to_space(Tensor(x))
        assert out.shape == (1, 1, 1, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_bijection_bit_exact(self):
        rng = np.random.default_rng(12)
        x = rng.random((2, 8, 3, 4, 5)).astype(np.float32)
        out = network._space_to_channel(network._channel_to_space(Tensor(x)))
        np.testing.assert_array_equal(out.data, x)
        y = rng.random((2, 2, 3, 4, 6)).astype(np.float32)
        out2 = network._channel_to_space(network._space_to_channel(Tensor(y)))
        np.testing.assert_array_equal(out2.data, y)

    @pytest.mark.parametrize("helper", list(HELPERS), ids=lambda f: f.__name__)
    def test_bit_equal_to_reference(self, helper):
        forward, _, shape = self.HELPERS[helper]
        x = signed_zeros(np.random.default_rng(40), shape)
        out = helper(Tensor(x)).data
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert out.tobytes() == forward(x, 2).tobytes()

    @pytest.mark.parametrize("helper", list(HELPERS), ids=lambda f: f.__name__)
    def test_gradient_is_the_inverse_permutation(self, helper):
        _, inverse, shape = self.HELPERS[helper]
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            out = helper(x)
            g = signed_zeros(rng, out.shape)
            loss = ref.sum_(out, g)
        assert [n.name for n in tape.nodes] == ["reshape", "transpose", "reshape", "sum"]
        ad.backward(loss)
        assert x.grad.tobytes() == inverse(g, 2).tobytes()

    def test_scans_nothing_and_passes_the_mark(self, monkeypatch):
        rng = np.random.default_rng(13)
        plain = Tensor(rng.random((1, 4, 2, 4, 4)).astype(np.float32))
        marked = plain + plain
        scanned = []
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: (scanned.append(a), real(a))[1])
        for x in (plain, marked):
            outs = [network._space_to_channel(x), network._channel_to_space(x)]
            assert [o.scanned for o in outs] == [x is marked] * 2
        assert scanned == []


class TestFloatReference:
    @pytest.mark.parametrize("flags", [
        dict(),
        dict(use_fem_shortcuts=True, use_vrm_shortcuts=True, use_qk_shift=True),
    ])
    def test_32bit_matches_independent_reference(self, flags):
        cfg = tiny_cfg(**flags)
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
    """The engine's gradient of a whole network with the query/key shift and
    both stages' shortcuts (so the FEM's space-to-channel and the VRM's
    channel-to-space rearrangements, and every ``short_*`` weight), checked
    tensor by tensor against central differences of the same MSE loss,
    computed by the float64 reference forward: fp32, and q4 and q2 with
    every quantizer written out (:class:`reference_impl.StraightThrough`).

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

    In the quantized tests each reference quantizer is
    ``alpha·(clip(v) + c) + z``, with ``c`` fixed so that at θ it gives the
    code that the engine's taped forward made (read through the quantizer's
    ``on_next`` hook); its derivatives at θ are then the straight-through
    and LSQ gradients. The quantizers are calibrated on the input, and each
    range is narrowed by a random factor, so that some values clip and none
    sits on an edge by construction. Each direction there is a unit one
    scaled by its tensor's RMS ``r``, so that a step moves every tensor by
    the same fraction: a scale is as small as 2e-4, and a step of 1e-6 would
    move it by 0.5%. The bound is the one above with the largest ``S`` taken
    of the unit directions and scaled by ``r``, so that relative to each
    tensor's own derivative it is what a unit direction gets: at θ the
    reference's quantized values are the engine's codes, and the engine's
    rounding is bounded by the same chain and sum lengths. It does not hold
    where the loss is not smooth: where a pre-clip value crosses a clip edge
    between θ - 2εd and θ + 2εd, or where the engine's and the reference's
    pre-clip values at θ lie on two sides of an edge. Each such element is
    reported, with the tensors whose differences it touched, on stdout and
    in the failure message.
    """

    EPS = 1e-6

    @staticmethod
    def build(cfg):
        """(net, rng, stack, gt) at the test geometry, with every parameter
        that starts at zero given a small random value."""
        net = QNet(cfg, seed=0)
        rng = np.random.default_rng(11)
        # conv_out, the shortcuts, the biases and the shifts start at zero; give them values
        for _, p in net.named_params():
            if not p.data.any():
                p.data = (rng.standard_normal(p.shape) * 0.01).astype(np.float32)
        masks = generate_masks(3, 2, 8, 8)
        clips = [synth_video(4 + i, 2, 8, 8) for i in range(2)]
        stack = np.concatenate([initial_estimate(encode(c, masks), masks) for c in clips])
        return net, rng, stack, np.stack([c.frames for c in clips])

    @staticmethod
    def backward_rel(net, stack, gt, monkeypatch):
        """Run the taped loss and its backward; return the relative bound
        λ·sqrt(n)·u of the engine's rounding."""
        # the size of each node's inputs, seen as they are recorded
        sizes = []
        record = Tape.record

        def sizing_record(tape, out, inputs, backward_fn, name):
            sizes.extend(t.size for t in inputs)
            record(tape, out, inputs, backward_fn, name)

        monkeypatch.setattr(Tape, "record", sizing_record)
        with Tape() as tape:
            loss = mse_loss(net.forward_stack(Tensor(stack)), gt)
        monkeypatch.undo()
        n = len(tape.nodes) * max(sizes)
        ad.backward(loss)
        lam = math.sqrt(2 * math.log(2 * n / 1e-9))
        return lam * math.sqrt(n) * 2.0 ** -24

    def mismatches(self, net, rng, rel, ref_loss, scaled=False):
        """Each tensor whose directional derivative misses the central
        difference of ``ref_loss(params, name)`` by more than its bound;
        ``scaled`` scales each direction by its tensor's RMS."""
        theta = {name: p.data.astype(np.float64) for name, p in net.named_params()}

        def central(name, d, eps):
            lp = ref_loss({**theta, name: theta[name] + eps * d}, name)
            lm = ref_loss({**theta, name: theta[name] - eps * d}, name)
            return (lp - lm) / (2 * eps)

        rows = []
        for name, p in net.named_params():
            assert p.grad is not None, f"no gradient reached {name}"
            r = np.sqrt(np.mean(theta[name] ** 2)) if scaled else 1.0
            d = rng.standard_normal(p.shape) * r
            terms = p.grad.astype(np.float64) * d
            fd = central(name, d, self.EPS)
            fd_err = abs(fd - central(name, d, 2 * self.EPS))
            rows.append((name, r, terms.sum(), np.abs(terms).sum(), fd, fd_err))
        floor = max(total / r for _, r, _, total, _, _ in rows)
        return [(name, s, fd) for name, r, s, total, fd, fd_err in rows
                if abs(s - fd) > rel * (total + r * floor) + fd_err]

    def test_directional_derivatives_match_central_differences(self, monkeypatch):
        cfg = QNetConfig(base_channels=4, resdnet_blocks=1, cformer_per_block=1, heads=2,
                         cr=2, use_fem_shortcuts=True, use_vrm_shortcuts=True,
                         use_qk_shift=True)
        net, rng, stack, gt = self.build(cfg)
        rel = self.backward_rel(net, stack, gt, monkeypatch)

        def ref_loss(params, name):
            return np.mean((ref.forward(stack, params, cfg) - gt) ** 2)

        bad = self.mismatches(net, rng, rel, ref_loss)
        assert not bad, f"directional derivative vs central difference: {bad}"

    @pytest.mark.parametrize("variant", ["q4", "q2"])
    def test_quantized_directional_derivatives_match_central_differences(self, monkeypatch,
                                                                         variant):
        cfg = make_variant(variant, base_channels=4, resdnet_blocks=1, cformer_per_block=1,
                           heads=2, cr=2)
        net, rng, stack, gt = self.build(cfg)
        net.calibrate_quantizers(stack)
        # narrow each range, so that some values clip and none sits on an edge by construction
        for q in net.quantizers():
            q.alpha.data *= np.float32(rng.uniform(0.7, 0.9))
        site_of = {id(p): name[:-len(".alpha")] for name, p in net.named_params()
                   if name.endswith(".alpha")}
        codes, sides = {}, {}

        def side(v, bits):
            """-1 below the clip range, 0 in it (edges included), 1 above."""
            return (v > (1 << (bits - 1)) - 1).astype(np.int8) - (v < -(1 << (bits - 1)))

        for q in net.quantizers():
            def capture(arr, site=site_of[id(q.alpha)], q=q):
                codes[site] = (q.bits, act_quantize(arr, q))
                v = (arr - np.float32(q.z.data[0])) / np.float32(q.alpha.data[0])
                sides[site] = side(v, q.bits)
            q.on_next = capture
        rel = self.backward_rel(net, stack, gt, monkeypatch)
        assert set(codes) == set(site_of.values()) and len(codes) == len(net.quantizers())

        quant = ref.StraightThrough(codes)
        near = {}    # (site, element) -> the tensors whose differences it touched

        def ref_loss(params, name):
            loss = np.mean((ref.forward(stack, params, cfg, quant) - gt) ** 2)
            for site, v in quant.pre_clip.items():
                for i in np.flatnonzero(side(v, codes[site][0]) != sides[site]):
                    near.setdefault((site, int(i)), set()).add(name)
            return loss

        ref_loss({name: p.data.astype(np.float64) for name, p in net.named_params()}, "θ")
        bad = self.mismatches(net, rng, rel, ref_loss, scaled=True)
        report = {key: sorted(names) for key, names in sorted(near.items())}
        print(f"{variant}: elements within the finite-difference step of a clip edge: {report}")
        assert not bad, (f"directional derivative vs central difference: {bad}; "
                         f"elements within the finite-difference step of a clip edge: {report}")


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
        plain = QNet(tiny_cfg(), seed=9)
        with_sc = QNet(tiny_cfg(use_fem_shortcuts=True,
                                use_vrm_shortcuts=True), seed=9)
        shared = dict(plain.named_params())
        for name, p in with_sc.named_params():
            if name in shared:
                p.data = shared[name].data.copy()
        a = plain.reconstruct(meas, masks).frames
        b = with_sc.reconstruct(meas, masks).frames
        np.testing.assert_array_equal(a, b)

    def test_shortcut_params_absent_without_flags(self):
        net = QNet(tiny_cfg(), seed=0)
        assert not any("short_" in n for n, _ in net.named_params())


class TestAudit:
    """The network's cost table: one ``count_efficiency`` row per weight layer."""

    def test_every_body_layer_has_one_quantizer_pair(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        for name, layer in net.quant_layers():
            assert layer.aq is not None and layer.wq is not None
            assert layer.aq.bits == layer.bits and layer.wq.bits == layer.bits

    def test_audit_lists_all_layers_with_bits(self):
        cfg = make_variant("q4", **TINY)
        rows = count_efficiency(cfg, (8, 8)).rows
        assert [r["name"] for r in rows] == [name for name, _ in QNet(cfg).quant_layers()]
        by_name = {r["name"]: r for r in rows}
        assert by_name["fem.conv_a"]["w_bits"] == 4
        assert by_name["fem.short_a"]["w_bits"] == 8
        assert all(r["flops"] > 0 and r["weight_params"] > 0 for r in rows)

    def test_stage_bit_overrides(self):
        cfg = tiny_cfg(fem_bits=4, enh_bits=8, vrm_bits=8)
        rows = {r["name"]: r for r in count_efficiency(cfg, (8, 8)).rows}
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
    """``layer``'s code-domain output before its GELU."""
    return network._epilogue(*layer._accumulate(x, act_quantize(layer.weight, layer.wq)))


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
        assert same_bits(got, ad.gelu(Tensor(without_gelu(mlp_in, x))).data)
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

    def test_taped_table_has_the_bytes_of_the_composition(self, monkeypatch):
        # the taped mlp_in takes its value and its GELU derivative from the
        # accumulator table, with erf run on at most a quarter of the
        # outputs: the value and gradient bytes of ad.gelu after fake_quant
        # -> ad.conv3d, which runs erf on every output
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
                                            fake_quant(mlp_in.weight, mlp_in.wq), mlp_in.bias,
                                            without_gelu(mlp_in, x), (1, 1, 1), (0, 0, 0)))
                else:
                    out = mlp_in.forward(x)
                loss = ref.sum_(out, g)
            ad.backward(loss)
            if composed:
                assert sizes == [out.size]
            else:
                assert len(sizes) == 1 and 0 < sizes[0] <= out.size // 4, sizes
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
        table = _gelu_by_accumulator(acc, np.float32(0.25), offset)
        assert (table is not None) == tabled
        if tabled:
            keys, slots = table
            direct = acc * np.float32(0.25) + offset
            assert same_bits(keys.take(slots), direct)
            assert same_bits(ad.gelu(Tensor(keys)).data.take(slots), ad.gelu(Tensor(direct)).data)


U32 = 2.0 ** -24     # unit roundoff of float32


def gamma(m):
    """Higham's gamma_m = m*u / (1 - m*u): a float32 sum of m terms, in any
    order, is within gamma_m * (sum of their magnitudes) of the exact sum."""
    return m * U32 / (1 - m * U32)


class TestFloat32CodeForward:
    """A 32-bit layer runs the same code-domain forward as a quantized one,
    with its float values as codes, with or without a tape: taped and
    tape-free outputs are equal, bit for bit. Each output is a float32 sum
    of the layer's n = C*k3 (or in_features) products and its bias, in each
    route's own order, so it is within 2*gamma_{n+1} * (sum |w||x| + |b|) of
    the float64 reference, elementwise."""

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
        w, b = layer.weight.data, layer.bias.data
        exact = ref.conv3d(x, w, b, layer.stride, layer.padding)
        mass = ref.conv3d(np.abs(x), np.abs(w), np.abs(b), layer.stride, layer.padding)
        self.check(layer, x, exact, mass)

    def test_linear_within_float32_summation_error(self):
        rng = np.random.default_rng(9)
        layer = QLinear(rng, 16, 24)
        layer.bias.data[:] = rng.standard_normal(24)
        x = rng.standard_normal((6, 4, 16)).astype(np.float32)
        w, b = layer.weight.data.astype(np.float64), layer.bias.data
        exact = x.astype(np.float64) @ w + b
        mass = np.abs(x).astype(np.float64) @ np.abs(w) + np.abs(b)
        self.check(layer, x, exact, mass)

    @staticmethod
    def check(layer, x, exact, mass):
        free = layer.forward(Tensor(x)).data
        with Tape():
            taped = layer.forward(Tensor(x)).data
        n = layer.weight.size // layer.out_features
        assert free.shape == taped.shape == exact.shape
        assert free.tobytes() == taped.tobytes()
        assert np.all(np.abs(free - exact) <= 2 * gamma(n + 1) * mass)


class TestOneForward:
    """A forward has one value, with or without a tape: under a tape a
    layer records its code-domain value as one node on its input, weight,
    quantizer parameters and bias, and that node's gradients have the bytes
    of the composition the layer recorded before: ``fake_quant`` of the
    input and of the weight, then ``ad.conv3d``'s or ``ad.linear``'s rule
    on their outputs."""

    @pytest.mark.parametrize("variant", network.VARIANT_NAMES)
    def test_taped_forward_stack_equals_tape_free(self, variant):
        net = calibrated_net(variant)
        masks, _, meas = small_inputs()
        stack = np.concatenate([initial_estimate(m, masks) for m in meas])
        free = net.forward_stack(Tensor(stack)).data
        with Tape():
            taped = net.forward_stack(Tensor(stack)).data
        assert free.tobytes() == taped.tobytes()

    ROUTES = {
        "k333-padded": lambda rng, bits: QConv3d(rng, 8, 8, (3, 3, 3), padding=(1, 1, 1),
                                                 bits=bits),
        "k333-strided": lambda rng, bits: QConv3d(rng, 8, 8, (3, 3, 3), stride=(1, 2, 2),
                                                  padding=(1, 1, 1), bits=bits),
        "k133": lambda rng, bits: QConv3d(rng, 8, 32, (1, 3, 3), padding=(0, 1, 1), bits=bits),
        "k111": lambda rng, bits: QConv3d(rng, 16, 32, (1, 1, 1), bits=bits),
        "channels-first-conv_out": lambda rng, bits: QConv3d(rng, 16, 1, (1, 3, 3),
                                                             padding=(0, 1, 1), bits=bits),
        "linear": lambda rng, bits: QLinear(rng, 16, 24, bits=bits),
    }

    @pytest.mark.parametrize("bits", (2, 3, 4, 8, 32))
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_node_gradients_have_the_bytes_of_the_float_rule(self, route, bits):
        rng = np.random.default_rng(bits)
        layer = self.ROUTES[route](rng, bits)
        layer.bias.data[:] = rng.standard_normal(layer.out_features)
        linear = isinstance(layer, QLinear)
        shape = (6, 4, layer.in_features) if linear else (2, layer.in_ch, 4, 8, 8)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        layer.aq.calibrate(x.data * 0.5)     # some values clip
        layer.wq.calibrate(layer.weight.data * 0.5)
        with Tape():
            out = layer.forward(x)
        assert out.node.name == ("linear" if linear else "conv3d")
        quantizers = (layer.aq.alpha, layer.aq.z) if bits < 32 else ()
        weight_scale = (layer.wq.alpha,) if bits < 32 else ()
        inputs = (x,) + quantizers + (layer.weight,) + weight_scale + (layer.bias,)
        assert len(out.node.inputs) == len(inputs)
        assert all(sink is t for sink, t in zip(out.node.inputs, inputs))
        g = rng.standard_normal(out.shape).astype(np.float32)
        got = out.node.backward_fn(g)
        # the composition on fresh leaves that hold the same arrays
        x_leaf = Tensor(x.data, requires_grad=True)
        w_leaf = Tensor(layer.weight.data, requires_grad=True)
        with Tape():
            xq, wq = fake_quant(x_leaf, layer.aq), fake_quant(w_leaf, layer.wq)
            if linear:
                rule = ad.linear(xq, wq, layer.bias, out.data)
            else:
                rule = ad.conv3d(xq, wq, layer.bias, out.data, layer.stride, layer.padding)
        g_xq, g_wq, g_bias = rule.node.backward_fn(g)
        if bits < 32:
            dx, dalpha_x, dz_x = xq.node.backward_fn(g_xq)
            dw, dalpha_w, _ = wq.node.backward_fn(g_wq)
            want = (dx, dalpha_x, dz_x, dw, dalpha_w, g_bias)
        else:
            want = (g_xq, g_wq, g_bias)
        assert len(got) == len(want)
        for a, e in zip(got, want):
            assert a.shape == e.shape and a.tobytes() == e.tobytes()


class TestOneQuantizePerOperand:
    """One taped q4 step computes the pre-clip value (x - z)/alpha of each
    quantized layer operand, its input and its weight, once in the forward
    (its codes) and once in the backward (its dequantized value and the
    straight-through rule). The attention's query, key and probability
    quantizers are ``fake_quant`` nodes: each computes it once in the
    forward and once in its backward rule, and the probabilities' ``matmul``
    once more to rebuild its operand (the query and key reach theirs
    through a transpose, which the tape keeps)."""

    def test_pre_clip_calls_of_one_taped_step(self, monkeypatch):
        net = calibrated_net("q4")
        masks, clips, meas = small_inputs()
        stack = np.concatenate([initial_estimate(m, masks) for m in meas])
        layers = [layer for _, layer in net.quant_layers()]
        assert all(layer.bits < 32 for layer in layers)
        inputs = []
        for layer in layers:
            layer.aq.on_next = inputs.append
        calls = []
        real = quantize._pre_clip
        monkeypatch.setattr(quantize, "_pre_clip",
                            lambda x, alpha, z: (calls.append(x), real(x, alpha, z))[1])
        with Tape():
            loss = mse_loss(net.forward_stack(Tensor(stack)), np.stack([c.frames for c in clips]))
        forward = calls[:]
        calls.clear()
        ad.backward(loss)
        operands = inputs + [layer.weight.data for layer in layers]
        assert len(inputs) == len(layers)
        attention = sum(isinstance(m, ShiftedAttention) for _, m in net.named_modules())
        assert attention > 0
        for phase, per_attention in ((forward, 3), (calls, 4)):
            for arr in operands:
                assert sum(a is arr for a in phase) == sum(o is arr for o in operands)
            rest = [a for a in phase if not any(a is o for o in operands)]
            assert len(rest) == per_attention * attention
            assert len(phase) == 2 * len(layers) + per_attention * attention


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
        count_efficiency(net.cfg, (16, 16))
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
        fp32 = QNet(tiny_cfg(), seed=1)
        q4 = QNet(make_variant("q4", **TINY), seed=2)
        q4.init_from_backbone(fp32.state_dict(), fp32.cfg.backbone_geometry())
        np.testing.assert_array_equal(q4.fem.conv_a.weight.data, fp32.fem.conv_a.weight.data)

    def test_geometry_mismatch_rejected(self):
        fp32 = QNet(tiny_cfg(), seed=1)
        other = QNet(QNetConfig(base_channels=16, resdnet_blocks=1, cformer_per_block=1,
                                heads=2, cr=2, **every_stage(8)), seed=0)
        with pytest.raises(ConfigError, match="geometry"):
            other.init_from_backbone(fp32.state_dict(), fp32.cfg.backbone_geometry())

    def test_missing_backbone_param_rejected(self):
        fp32 = QNet(tiny_cfg(), seed=1)
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
        state = QNet(tiny_cfg(), seed=1).state_dict()
        state[name] = np.zeros(shape, np.float32)
        net = QNet(make_variant("q4_baseline", **TINY), seed=0)
        with pytest.raises(FormatError, match=name):
            net.init_from_backbone(state, net.cfg.backbone_geometry())

    def test_wrong_dtype_entry_rejected(self):
        # nothing is cast: a float64 weight does not fit a float32 network
        state = QNet(tiny_cfg(), seed=1).state_dict()
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

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_non_positive_scale_is_config_error(self, alpha):
        """Every loader refuses it before it sets any parameter."""
        net = QNet(make_variant("q4", **TINY), seed=4)
        state = net.state_dict()
        state["block0.cf0.attn.kq.alpha"] = np.float32([alpha])
        before = QNet(make_variant("q4", **TINY), seed=5)
        for load in (lambda m: m.load_state(state),
                     lambda m: m.init_from_backbone(state, m.cfg.backbone_geometry())):
            other = QNet(make_variant("q4", **TINY), seed=5)
            with pytest.raises(ConfigError, match="'block0.cf0.attn.kq.alpha' is .*, not > 0"):
                load(other)
            for (_, p), (_, q) in zip(other.named_params(), before.named_params()):
                np.testing.assert_array_equal(p.data, q.data)

    @pytest.mark.parametrize("entry,value", [
        ("fem.conv_a.bias", np.inf), ("fem.conv_a.aq.z", np.inf), ("vrm.conv_out.bias", np.nan),
        ("block0.cf0.conv.weight", -np.inf), ("block0.cf0.attn.beta_q", np.nan),
    ], ids=["bias-inf", "zero-point-inf", "bias-nan", "weight-minus-inf", "shift-nan"])
    def test_non_finite_entry_is_config_error(self, entry, value):
        """Every loader refuses it before it sets any parameter."""
        net = QNet(make_variant("q4", **TINY), seed=4)
        state = net.state_dict()
        state[entry].reshape(-1)[-1] = value
        before = QNet(make_variant("q4", **TINY), seed=5)
        for load in (lambda m: m.load_state(state),
                     lambda m: m.init_from_backbone(state, m.cfg.backbone_geometry())):
            other = QNet(make_variant("q4", **TINY), seed=5)
            with pytest.raises(ConfigError, match=f"'{re.escape(entry)}' holds a non-finite"):
                load(other)
            for (_, p), (_, q) in zip(other.named_params(), before.named_params()):
                np.testing.assert_array_equal(p.data, q.data)

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
    """Calibration and the efficiency count see each quantizer's input
    through a one-shot hook; nothing stays armed and a forward writes nothing
    to the modules."""

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
    def test_taped_forward_calls_each_layer_hook_once(self, variant):
        # each hook re-arms itself, so a second call would be seen
        net = QNet(make_variant(variant, **TINY), seed=0)
        net.calibrate_quantizers(self.stack())
        layers = net.quant_layers()

        def seen(taped):
            calls = {name: [] for name, _ in layers}
            for name, layer in layers:
                def hook(arr, name=name, q=layer.aq):
                    calls[name].append(arr.copy())
                    q.on_next = hook
                layer.aq.on_next = hook
            try:
                if taped:
                    with Tape():
                        net.forward_stack(Tensor(self.stack()))
                else:
                    net.forward_stack(Tensor(self.stack()))
            finally:
                for _, layer in layers:
                    layer.aq.on_next = None
            return calls

        free, taped = seen(False), seen(True)
        for name, _ in layers:
            assert len(free[name]) == len(taped[name]) == 1, name
            assert taped[name][0].tobytes() == free[name][0].tobytes(), name

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


class Leaf(Module):
    def __init__(self):
        self.w = Tensor(np.zeros(2, np.float32), requires_grad=True)


class Toy(Module):
    def __init__(self):
        self.kids = [Leaf(), Leaf()]    # assigned first, walked after the own entries
        self.t = Tensor(np.zeros(3, np.float32), requires_grad=True)
        self.a4 = ActQuantizer(4)
        self.a32 = ActQuantizer(32)
        self.none = None
        self.child = Leaf()
        self.w4 = ActQuantizer(4, symmetric=True)
        self.bits = 4


class TestRegistry:
    """A module's attributes are its registry: the walks read ``vars``."""

    def test_toy_module_names_and_order(self):
        toy = Toy()
        assert [n for n, _ in toy.named_params()] == [
            "t", "a4.alpha", "a4.z", "w4.alpha", "kids0.w", "kids1.w", "child.w"]
        assert [n for n, _ in toy.named_params()] == list(toy.state_dict())
        assert [p for _, p in toy.named_params()] == toy.params()
        assert list(toy.named_modules()) == [
            ("", toy), ("kids0", toy.kids[0]), ("kids1", toy.kids[1]), ("child", toy.child)]
        assert toy.quantizers() == [toy.a4, toy.a32, toy.w4]

    @pytest.mark.parametrize("variant", network.VARIANT_NAMES)
    def test_quant_layers_in_forward_order_shortcuts_last(self, variant):
        """The ``report`` CSV lists its rows in this order: the order in which
        a forward reaches each layer's ``aq`` hook, except that each stage's
        shortcut convs, assigned after its main convs, follow them."""
        net = QNet(make_variant(variant, **TINY), seed=0)
        reached = []
        net.forward_with_hooks(
            np.zeros((1, 2, TINY["cr"], 8, 8), np.float32),
            [(layer.aq, lambda x, name=name: reached.append(name))
             for name, layer in net.quant_layers()])
        stages = list(dict.fromkeys(name.split(".")[0] for name in reached))
        listed = [name for name, _ in net.quant_layers()]
        assert listed == sorted(reached, key=lambda name: (stages.index(name.split(".")[0]),
                                                           ".short_" in name))
        assert (listed == reached) == (variant not in ("q4", "q3", "q2"))

    @pytest.mark.parametrize("variant", ["fp32", "q4"])
    def test_every_parameter_requires_grad(self, variant):
        net = QNet(make_variant(variant, **TINY), seed=0)
        tensors = {f"{name}.{attr}": v for name, m in net.named_modules()
                   for attr, v in vars(m).items() if isinstance(v, Tensor)}
        assert tensors and all(t.requires_grad for t in tensors.values()), [
            name for name, t in tensors.items() if not t.requires_grad]
        assert all(p.requires_grad for p in net.params())
