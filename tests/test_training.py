"""Optimizer, augmentation, loss, held-out PSNR and the training entry
checks."""

import re

import numpy as np
import pytest

from qsci.autodiff import Tape, Tensor, backward
from qsci.containers import ExperimentConfig
from qsci.errors import ConfigError
from qsci.evaluation import psnr
from qsci.network import VARIANT_NAMES, QNet, make_variant
from qsci.sci import encode, generate_masks, initial_estimate, synth_video
from qsci.training import (EVAL_BATCH, HOLDOUT_SEED_OFFSET, MASK_SEED_OFFSET, Adam, augment,
                           evaluate_psnr, make_synth_dataset, mse_loss, start_net, train)
from small_models import calibrated_net, small_inputs

TINY = dict(base_channels=8, resdnet_blocks=1, cformer_per_block=1, heads=2, cr=2)


class TestAdam:
    def test_step_matches_hand_formula_with_floors(self):
        lr, eps = 0.01, 1e-8
        assert (Adam.BETA1, Adam.BETA2, Adam.EPS) == (0.9, 0.999, eps)
        w = Tensor(np.float32([0.5, -1.0, 2.0]), requires_grad=True)
        scale = Tensor(np.float32([0.004]), requires_grad=True)
        g_w = np.float32([0.2, -0.4, 0.0])
        w.grad, scale.grad = g_w.copy(), np.float32([3.0])
        w0, s0 = w.data.copy(), scale.data.copy()
        opt = Adam([w, scale], lr, floors=[(scale, 0.001)])
        opt.step()
        # t = 1: m_hat = g, v_hat = g^2
        expect_w = w0 - lr * g_w / (np.sqrt(np.float64(g_w) ** 2) + eps)
        np.testing.assert_allclose(w.data, expect_w.astype(np.float32), rtol=1e-6)
        assert s0[0] - lr < 0.001           # the raw step would cross the floor
        assert scale.data[0] == np.float32(0.001)
        assert w.data.dtype == np.float32 and scale.data.dtype == np.float32


@pytest.mark.parametrize("variant,bits", [(v, {}) for v in VARIANT_NAMES] + [
    ("fp32", dict(fem_bits=8, enh_bits=4, vrm_bits=8))], ids=list(VARIANT_NAMES) + ["enh_4bit"])
def test_one_step_reaches_every_parameter(variant, bits):
    """One taped training step of every preset, and of a mixed-width row of
    ``ablate``'s grid, leaves a gradient on every parameter ``train`` hands
    its optimizer."""
    masks, clips, meas = small_inputs()
    net = calibrated_net(variant, **bits)
    stack = np.concatenate([initial_estimate(m, masks) for m in meas])
    with Tape():
        loss = mse_loss(net.forward_stack(Tensor(stack)), np.stack([c.frames for c in clips]))
    backward(loss)
    assert [name for name, p in net.named_params() if p.grad is None] == []


class TestAugment:
    def test_all_switches_off_is_identity(self):
        # a crop to the clip's own size keeps every pixel
        clip = synth_video(3, 2, 10, 10)
        out = augment(clip, 10, np.random.default_rng(0), do_flip=False, do_scale=False)
        np.testing.assert_array_equal(out.frames, clip.frames)

    def test_crop_size(self):
        out = augment(synth_video(3, 2, 20, 20), 8, np.random.default_rng(1))
        assert out.frames.shape == (2, 8, 8)


class TestLoss:
    def test_mse_matches_formula(self):
        rng = np.random.default_rng(0)
        pred = rng.random((2, 3, 4, 5)).astype(np.float32)
        gt = rng.random((2, 3, 4, 5)).astype(np.float32)
        expect = np.mean((np.float64(pred) - gt) ** 2)
        assert mse_loss(Tensor(pred), gt).item() == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("shape", [(3, 5, 7), (1, 3, 3, 5)])
    def test_one_node_with_the_bits_of_the_float32_chain(self, shape):
        # the chain it replaced: d = pred - gt, then the mean of d * d; the
        # mean passes 1 / count on, and each operand of the square gets
        # that times d, which backward adds
        rng = np.random.default_rng(len(shape))
        pred = rng.standard_normal(shape).astype(np.float32)
        gt = rng.standard_normal(shape).astype(np.float32)
        pred.flat[:4] = [0.0, -0.0, -0.0, 0.0]
        gt.flat[:4] = [0.0, 0.0, -0.0, -0.0]
        x = Tensor(pred, requires_grad=True)
        with Tape() as tape:
            loss = mse_loss(x, gt)
        assert [node.name for node in tape.nodes] == ["mse_loss"]
        backward(loss)
        d = pred - gt
        m = np.broadcast_to(np.float32(1) / d.size, shape).astype(np.float32)
        assert loss.data.tobytes() == np.float32([(d * d).mean(dtype=np.float32)]).tobytes()
        assert x.grad.tobytes() == (m * d + m * d).tobytes()


class TestDataset:
    def test_seed_offsets(self):
        ds = make_synth_dataset(7, n_train=1, n_holdout=2, t=2, train_hw=8, crop=8)
        np.testing.assert_array_equal(ds.masks.masks,
                                      generate_masks(7 + MASK_SEED_OFFSET, 2, 8, 8).masks)
        np.testing.assert_array_equal(ds.holdout_clips[1].frames,
                                      synth_video(7 + HOLDOUT_SEED_OFFSET + 1, 2, 8, 8).frames)


class TestEvaluatePsnr:
    def test_equals_mean_per_clip_psnr(self):
        ds = make_synth_dataset(2, n_train=1, n_holdout=EVAL_BATCH + 1, t=2, train_hw=8, crop=8)
        net = QNet(make_variant("fp32", **TINY), seed=0)
        per_clip = [psnr(net.reconstruct(encode(c, ds.masks), ds.masks).frames, c.frames)
                    for c in ds.holdout_clips]
        # a full batch and a batch of one clip against one clip per forward
        assert evaluate_psnr(net, ds) == pytest.approx(np.mean(per_clip), rel=1e-9)

    def test_no_holdout_is_nan(self):
        ds = make_synth_dataset(2, n_train=1, n_holdout=0, t=2, train_hw=8, crop=8)
        assert np.isnan(evaluate_psnr(QNet(make_variant("fp32", **TINY)), ds))


class TestTrainChecks:
    def test_quantized_without_init_rejected(self):
        with pytest.raises(ConfigError, match="--init"):
            start_net(ExperimentConfig(), make_variant("q4", **TINY), None)

    def test_init_of_another_geometry_names_both(self):
        # the geometry is read off the init pair's own fingerprint
        other = QNet(make_variant("fp32", **{**TINY, "base_channels": 4}), seed=0)
        init = (other.cfg.fingerprint(), other.state_dict())
        q4 = make_variant("q4", **TINY)
        with pytest.raises(ConfigError, match=re.escape(other.cfg.backbone_geometry())) as info:
            start_net(ExperimentConfig(), q4, init)
        assert q4.backbone_geometry() in str(info.value)

    def test_untrained_run_returns_its_init(self):
        ds = make_synth_dataset(0, n_train=1, n_holdout=0, t=2, train_hw=8, crop=8)
        init_net = QNet(make_variant("fp32", **TINY), seed=5)
        init = (init_net.cfg.fingerprint(), init_net.state_dict())
        cfg = ExperimentConfig(train_epochs_phase1=0, train_epochs_phase2=0)
        net = start_net(cfg, make_variant("fp32", **TINY), init)
        (fingerprint, got), curve = train(cfg, net, ds)
        assert fingerprint == init[0] and curve == []
        assert got.keys() == init[1].keys()
        assert all(np.array_equal(got[k], init[1][k]) for k in got)

    def test_mask_frame_count_must_match(self):
        ds = make_synth_dataset(0, n_train=1, n_holdout=0, t=2, train_hw=8, crop=8)
        cfg = ExperimentConfig()
        net = start_net(cfg, make_variant("fp32", **{**TINY, "cr": 4}), None)
        with pytest.raises(ConfigError, match="T="):
            train(cfg, net, ds)

