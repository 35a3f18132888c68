"""Quality metrics and the bit-adjusted efficiency table."""

import numpy as np
import pytest

import reference_impl
from qsci.errors import ShapeError
from qsci.evaluation import PSNR_CAP_DB, count_efficiency, psnr, ssim
from qsci.network import make_variant

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


def noisy_pair(shape, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    a = rng.random(shape)
    b = np.clip(a + 0.2 * rng.standard_normal(shape), 0.0, 1.0)
    return a.astype(dtype), b.astype(dtype)


class TestSsim:
    def test_identical_frames_score_one(self):
        rng = np.random.default_rng(1)
        for shape in [(16, 14), (11, 11), (12, 30), (3, 12, 12), (2, 11, 11), (4, 64, 64)]:
            a = rng.random(shape)
            assert ssim(a, a.copy()) == 1.0, shape

    @pytest.mark.parametrize("shape", [(16, 14), (11, 11), (12, 30), (30, 12),
                                       (3, 12, 12), (2, 11, 11), (4, 64, 64), (2, 12, 30)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_full_window_reference(self, shape, dtype):
        a, b = noisy_pair(shape, seed=sum(shape), dtype=dtype)
        assert ssim(a, b) == pytest.approx(reference_impl.ssim(a, b), abs=1e-12)

    def test_matches_reference_with_a_constant_region(self):
        a, b = noisy_pair((3, 24, 20), seed=7)
        a[:, :14, :] = 0.5      # zero variance under whole windows in a
        b[:, :14, :] = 0.5      # ... and in b, where the map is exactly 1
        b[1] = 0.25             # a constant frame against a textured one
        assert ssim(a, b) == pytest.approx(reference_impl.ssim(a, b), abs=1e-12)
        assert ssim(a[0], b[0]) == pytest.approx(reference_impl.ssim(a[0], b[0]), abs=1e-12)

    def test_different_frames_score_below_one(self):
        rng = np.random.default_rng(2)
        assert ssim(rng.random((12, 12)), rng.random((12, 12))) < 1.0

    @pytest.mark.parametrize("shape", [(10, 12), (12, 10), (2, 10, 10)])
    def test_below_window_size_rejected(self, shape):
        with pytest.raises(ShapeError, match="smaller than the 11x11 window"):
            ssim(np.zeros(shape), np.zeros(shape))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="differ in shape"):
            ssim(np.zeros((12, 12)), np.zeros((12, 13)))

    @pytest.mark.parametrize("shape", [(12,), (2, 2, 12, 12)])
    def test_rank_other_than_2_or_3_rejected(self, shape):
        with pytest.raises(ShapeError, match="2-D frames or 3-D stacks"):
            ssim(np.zeros(shape), np.zeros(shape))


class TestEfficiency:
    def test_totals_are_row_sums(self):
        rep = count_efficiency(make_variant("q4", **TINY), (8, 8))
        assert rep.params_m * 1e6 == pytest.approx(sum(r["adj_params"] for r in rep.rows))
        assert rep.ops_g * 1e9 == pytest.approx(sum(r["adj_ops"] for r in rep.rows))

    def test_hand_count_of_each_kernel_class(self):
        # an 8 x 16 (H x W) frame, so that a count that reads one extent
        # twice is off; T = 2 frames and C = 8 channels throughout
        rows = {r["name"]: r for r in count_efficiency(make_variant("q4", **TINY), (8, 16)).rows}
        # fem.conv_a: 2 -> 8 channels, 3x3x3, padding 1, stride 1 on a
        # 2 x 8 x 16 (T x H x W) input: 256 output positions
        assert rows["fem.conv_a"]["flops"] == 2 * 256 * 8 * 2 * 27
        # fem.conv_b is strided (1, 2, 2): 2 x 4 x 8 = 64 positions
        assert rows["fem.conv_b"]["flops"] == 2 * 64 * 8 * 8 * 27
        # vrm.conv_up (k133): 8 -> 32 channels, 1x3x3, padding (0, 1, 1) on
        # the strided 2 x 4 x 8 features: 64 positions
        assert rows["vrm.conv_up"]["flops"] == 2 * 64 * 32 * 8 * 9
        assert rows["vrm.conv_up"]["geometry"] == "8x32x1x3x3"
        # block0.cf0.fuse (k111): the concat of two branches, 16 -> 8
        # channels, at the same 64 positions
        assert rows["block0.cf0.fuse"]["flops"] == 2 * 64 * 8 * 16
        assert rows["block0.cf0.fuse"]["geometry"] == "16x8x1x1x1"
        # q_proj: one token per (H, W) position after the strided stage and
        # per frame, 4 * 8 * 2 = 64 tokens of 8 -> 8 features
        assert rows["block0.cf0.attn.q_proj"]["flops"] == 2 * 64 * 8 * 8
        assert rows["block0.cf0.attn.q_proj"]["geometry"] == "8x8"
        assert rows["block0.cf0.attn.q_proj"]["kind"] == "linear"
        assert rows["fem.conv_a"]["kind"] == "conv3d"
        assert rows["fem.conv_a"]["w_bits"] == rows["fem.conv_a"]["a_bits"] == 4
        # 4 of 32 bits: weights and FLOPs scale by 1/8, the bias stays
        conv_a = rows["fem.conv_a"]
        assert (conv_a["weight_params"], conv_a["bias_params"]) == (8 * 2 * 27, 8)
        assert conv_a["adj_params"] == 8 * 2 * 27 / 8 + 8
        assert conv_a["adj_ops"] == conv_a["flops"] / 8
