"""Mask generation, snapshot encoding, estimate stack, synthetic clips."""

import numpy as np
import pytest

from qsci.errors import ConfigError, ShapeError
from qsci.sci import (MaskSet, Measurement, MovingShape, VideoClip, encode,
                      generate_masks, initial_estimate, render_clip, synth_video)


class TestGenerateMasks:
    def test_binary_values(self):
        m = generate_masks(0, 4, 16, 16)
        assert set(np.unique(m.masks)) <= {0.0, 1.0}

    def test_deterministic(self):
        a = generate_masks(7, 4, 8, 8).masks
        b = generate_masks(7, 4, 8, 8).masks
        np.testing.assert_array_equal(a, b)

    def test_density_within_3_sigma(self):
        # T*H*W = 4096 Bernoulli(p) draws: count within p*n +- 3*sqrt(n p (1-p))
        p = 0.5
        m = generate_masks(3, 4, 32, 32, p)
        n = 4 * 32 * 32
        ones = m.masks.sum()
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(ones - p * n) <= 3 * sigma

    def test_default_density_is_half(self):
        m = generate_masks(0, 8, 64, 64)
        assert m.density == 0.5
        assert abs(m.masks.mean() - 0.5) < 0.02

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_density(self, p):
        with pytest.raises(ConfigError):
            generate_masks(0, 2, 4, 4, p)

    def test_temporal_sum(self):
        masks = np.zeros((2, 2, 2), np.float32)
        masks[0, 0, 0] = 1.0
        masks[1, 0, 0] = 1.0
        ms = MaskSet(masks=masks, seed=0, density=0.25)
        assert ms.temporal_sum[0, 0] == 2.0
        assert ms.temporal_sum[1, 1] == 0


class TestEncode:
    def test_single_frame_all_ones(self):
        clip = synth_video(0, 1, 8, 8)
        masks = MaskSet(masks=np.ones((1, 8, 8), np.float32), seed=0, density=1.0)
        y = encode(clip, masks)
        np.testing.assert_array_equal(y.y, clip.frames[0])
        assert y.cr == 1

    def test_all_zero_mask(self):
        clip = synth_video(1, 3, 8, 8)
        masks = MaskSet(masks=np.zeros((3, 8, 8), np.float32), seed=0, density=0.0)
        np.testing.assert_array_equal(encode(clip, masks).y, np.zeros((8, 8)))

    def test_linearity_exact_on_dyadic_frames(self):
        # frames on the 1/256 grid and power-of-two coefficients make every
        # float op exact, so the linear model holds bit-for-bit
        rng = np.random.default_rng(2)
        masks = generate_masks(5, 4, 8, 8)
        f1 = (rng.integers(0, 128, (4, 8, 8)) / 256.0).astype(np.float32)
        f2 = (rng.integers(0, 128, (4, 8, 8)) / 256.0).astype(np.float32)
        a, b = 2.0, 0.5
        combo = VideoClip(frames=(a * f1 + b * f2).astype(np.float32))
        lhs = encode(combo, masks).y
        rhs = a * encode(VideoClip(frames=f1), masks).y + b * encode(VideoClip(frames=f2), masks).y
        np.testing.assert_array_equal(lhs, rhs)

    def test_shape_mismatch(self):
        clip = synth_video(0, 2, 8, 8)
        masks = generate_masks(0, 3, 8, 8)
        with pytest.raises(ShapeError):
            encode(clip, masks)

    def test_noise_deterministic_per_seed(self):
        clip = synth_video(0, 2, 8, 8)
        masks = generate_masks(0, 2, 8, 8)
        y1 = encode(clip, masks, noise_sigma=0.1, noise_seed=3).y
        y2 = encode(clip, masks, noise_sigma=0.1, noise_seed=3).y
        y3 = encode(clip, masks, noise_sigma=0.1, noise_seed=4).y
        np.testing.assert_array_equal(y1, y2)
        assert not np.array_equal(y1, y3)

    def test_per_pixel_lipschitz_bound(self):
        # |delta y| <= (sum_t M_t) * max_t |delta X_t| per pixel
        rng = np.random.default_rng(6)
        masks = generate_masks(7, 4, 8, 8)
        f1 = rng.random((4, 8, 8)).astype(np.float32)
        f2 = rng.random((4, 8, 8)).astype(np.float32)
        dy = np.abs(encode(VideoClip(frames=f1), masks).y - encode(VideoClip(frames=f2), masks).y)
        bound = masks.temporal_sum * np.abs(f1 - f2).max(axis=0)
        assert np.all(dy <= bound + 1e-6)


class TestInitialEstimate:
    def test_single_frame_round_trip(self):
        clip = synth_video(3, 1, 8, 8)
        masks = MaskSet(masks=np.ones((1, 8, 8), np.float32), seed=0, density=1.0)
        meas = encode(clip, masks)
        stack = initial_estimate(meas, masks)
        assert stack.shape == (1, 2, 1, 8, 8)
        np.testing.assert_array_equal(stack[0, 0, 0], clip.frames[0])

    def test_zero_coverage_pixels_guarded(self):
        masks_arr = np.zeros((2, 4, 4), np.float32)
        masks_arr[:, :2, :] = 1.0     # bottom half never exposed
        masks = MaskSet(masks=masks_arr, seed=0, density=0.5)
        clip = VideoClip(frames=np.full((2, 4, 4), 0.8, np.float32))
        stack = initial_estimate(encode(clip, masks), masks)
        assert np.isfinite(stack).all()
        np.testing.assert_array_equal(stack[0, 0, :, 2:, :], np.zeros((2, 2, 4)))

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(8)
        masks = generate_masks(9, 4, 6, 6)
        clip = VideoClip(frames=rng.random((4, 6, 6)).astype(np.float32))
        meas = encode(clip, masks)
        stack = initial_estimate(meas, masks)
        for i in range(6):
            for j in range(6):
                s = masks.masks[:, i, j].sum()
                e = meas.y[i, j] / max(s, 1.0)
                for t in range(4):
                    assert stack[0, 0, t, i, j] == pytest.approx(e, abs=1e-6)
                    assert stack[0, 1, t, i, j] == pytest.approx(
                        masks.masks[t, i, j] * e, abs=1e-6)

    def test_cr_mismatch(self):
        masks = generate_masks(0, 4, 8, 8)
        meas = Measurement(y=np.zeros((8, 8), np.float32), cr=3)
        with pytest.raises(ShapeError):
            initial_estimate(meas, masks)


class TestSynthVideo:
    def test_deterministic(self):
        a = synth_video(11, 4, 16, 16).frames
        b = synth_video(11, 4, 16, 16).frames
        np.testing.assert_array_equal(a, b)

    def test_no_shapes_repeat_the_background(self):
        background = np.linspace(0.0, 1.0, 48, dtype=np.float32).reshape(6, 8)
        clip = render_clip([], t=3, h=6, w=8, background=background)
        for t in range(3):
            np.testing.assert_array_equal(clip.frames[t], background)

    def test_value_range(self):
        clip = synth_video(13, 4, 32, 32)
        assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0

    def test_centroid_tracks_velocity(self):
        # single bright disk on black background, velocity (1, 0) px/frame:
        # the intensity-weighted column centroid advances 1 px per frame
        shape = MovingShape(kind="disk", center=(10.0, 16.0), velocity=(1.0, 0.0),
                            size=4.0, intensity=1.0)
        clip = render_clip([shape], t=6, h=32, w=32, background=np.zeros((32, 32), np.float32))
        cols = np.arange(32, dtype=np.float64)
        centroids = []
        for t in range(6):
            f = clip.frames[t].astype(np.float64)
            centroids.append(float((f.sum(axis=0) * cols).sum() / f.sum()))
        deltas = np.diff(centroids)
        np.testing.assert_allclose(deltas, np.ones(5), atol=0.1)

    def test_rect_shape_renders(self):
        shape = MovingShape(kind="rect", center=(8.0, 8.0), velocity=(0.0, 0.0),
                            size=3.0, intensity=1.0, aspect=1.0)
        clip = render_clip([shape], t=1, h=16, w=16, background=np.zeros((16, 16), np.float32))
        assert clip.frames[0, 8, 8] == pytest.approx(1.0)
        assert clip.frames[0, 0, 0] == 0.0
