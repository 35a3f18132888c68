"""Quality metrics and the bit-adjusted efficiency table."""

import numpy as np
import pytest

from qsci.errors import ShapeError
from qsci.evaluation import PSNR_CAP_DB, count_efficiency, psnr, ssim
from qsci.network import QNet, make_variant

TINY = dict(base_channels=8, resdnet_blocks=1, cformer_per_block=1, heads=2, cr=2)


class TestPsnr:
    def test_identical_inputs_give_the_cap(self):
        a = np.random.default_rng(0).random((2, 8, 8))
        assert psnr(a, a.copy()) == PSNR_CAP_DB

    def test_known_mse(self):
        # MSE 0.01 -> 10 * log10(1 / 0.01) = 20 dB
        a = np.zeros((4, 5))
        assert psnr(a, a + 0.1) == pytest.approx(20.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSsim:
    def test_identical_frames_score_one(self):
        rng = np.random.default_rng(1)
        a = rng.random((16, 14))
        assert ssim(a, a.copy()) == 1.0
        stack = rng.random((3, 12, 12))
        assert ssim(stack, stack.copy()) == 1.0

    def test_different_frames_score_below_one(self):
        rng = np.random.default_rng(2)
        assert ssim(rng.random((12, 12)), rng.random((12, 12))) < 1.0

    @pytest.mark.parametrize("shape", [(10, 12), (12, 10), (2, 10, 10)])
    def test_below_window_size_rejected(self, shape):
        with pytest.raises(ShapeError):
            ssim(np.zeros(shape), np.zeros(shape))


class TestEfficiency:
    def test_totals_are_row_sums(self):
        rep = count_efficiency(make_variant("q4", **TINY), (8, 8))
        assert rep.params_m * 1e6 == pytest.approx(sum(r["adj_params"] for r in rep.rows))
        assert rep.ops_g * 1e9 == pytest.approx(sum(r["adj_ops"] for r in rep.rows))

    def test_audit_flops_of_a_conv_and_a_linear_row(self):
        net = QNet(make_variant("q4", **TINY), seed=0)
        rows = {r["name"]: r for r in net.audit((8, 8))}
        # fem.conv_a: 2 -> 8 channels, 3x3x3, padding 1, stride 1 on a
        # 1 x 2 x 8 x 8 (T x H x W) input: 128 output positions
        assert rows["fem.conv_a"]["flops"] == 2 * 128 * 8 * 2 * 27
        # fem.conv_b is strided (1, 2, 2): 2 x 4 x 4 = 32 positions
        assert rows["fem.conv_b"]["flops"] == 2 * 32 * 8 * 8 * 27
        # q_proj: one token per (H, W) position after the strided stage and
        # per frame, 4 * 4 * 2 = 32 tokens of 8 -> 8 features
        assert rows["block0.cf0.attn.q_proj"]["flops"] == 2 * 32 * 8 * 8
        assert rows["block0.cf0.attn.q_proj"]["kind"] == "linear"
        assert rows["fem.conv_a"]["w_bits"] == rows["fem.conv_a"]["a_bits"] == 4
