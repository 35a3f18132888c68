"""Loss, optimizer, augmentation and the two-phase training loop.

The loop follows the backbone recipe: Adam at 1e-4 for a first phase, then
1e-5 for a shorter second phase, with random crop / flip / rescale
augmentation. Measurements are regenerated from each augmented clip, so the
label always matches the input. A quantized model must start from a
full-precision checkpoint with identical backbone geometry; its quantizer
ranges are then calibrated on one batch before the first step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import zoom as nd_zoom

from . import autodiff as ad
from .autodiff import Tensor
from .containers import ExperimentConfig
from .errors import ConfigError, ShapeError
from .evaluation import psnr
from .network import QNet, QNetConfig, parse_fingerprint
from .quantize import ALPHA_FLOOR
from .sci import MaskSet, VideoClip, encode, generate_masks, initial_estimate, synth_video


def mse_loss(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean squared error over all frame pixels: for a [T, H, W] pair this is
    exactly (1/(T*nx*ny)) * sum_t ||pred_t - gt_t||^2; batched inputs are
    additionally averaged over the batch. ``gt`` is data and gets no gradient.

    One tape node, which keeps ``d = pred - gt``, with the bits of the chain
    ``sub, mul, mean``: the mean passed ``g / count`` to the square, whose
    two operands, both ``d``, each got ``t = (g / count) * d``; ``backward``
    added them, and the subtraction passed ``t + t`` to ``pred`` unchanged."""
    gt = np.asarray(gt, dtype=np.float32)
    if pred.shape != gt.shape:
        raise ShapeError(f"loss operands differ in shape: {pred.shape} vs {gt.shape}")
    d = pred.data - gt

    def bwd(g):
        t = np.broadcast_to(g.reshape(()) / d.size, d.shape).astype(np.float32)
        t *= d
        return (t + t,)

    return ad._finish(np.asarray((d * d).mean(dtype=np.float32)), (pred,), bwd, "mse_loss")


class Adam:
    """Standard Adam with bias correction; optional per-parameter positive
    floors applied after each step (used for quantizer scales)."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, floors=()):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.floors = list(floors)

    def step(self):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = (p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)).astype(np.float32)
        for p, floor in self.floors:
            p.data = np.maximum(p.data, np.float32(floor))

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


SCALE_RANGE = (0.75, 1.25)

# seed offsets of the mask set and of the held-out clips from the data seed
MASK_SEED_OFFSET = 99_000
HOLDOUT_SEED_OFFSET = 50_000

EVAL_BATCH = 8   # held-out clips per forward of evaluate_psnr


def _apply_flips(frames: np.ndarray, do_h: bool, do_v: bool) -> np.ndarray:
    if do_h:
        frames = frames[:, :, ::-1]
    if do_v:
        frames = frames[:, ::-1, :]
    return frames


def augment(clip: VideoClip, crop: int, rng: np.random.Generator,
            do_flip=True, do_scale=True) -> VideoClip:
    """Random rescale (bilinear, factor in [0.75, 1.25]) then random crop to
    the training size, then 0.5-probability horizontal/vertical flips. With
    both switches off the clip is only cropped."""
    frames = clip.frames
    if do_scale:
        t, h, w = frames.shape
        # keep the rescaled clip croppable (+0.5 covers zoom rounding)
        lo = min(max(SCALE_RANGE[0], (crop + 0.5) / h, (crop + 0.5) / w), SCALE_RANGE[1])
        factor = float(rng.uniform(lo, SCALE_RANGE[1]))
        scaled = [nd_zoom(f, factor, order=1, prefilter=False) for f in frames]
        frames = np.clip(np.stack(scaled), 0.0, 1.0).astype(np.float32)
    t, h, w = frames.shape
    if h < crop or w < crop:
        raise ShapeError(f"clip {h}x{w} smaller than crop {crop}")
    top = int(rng.integers(0, h - crop + 1))
    left = int(rng.integers(0, w - crop + 1))
    frames = frames[:, top:top + crop, left:left + crop]
    if do_flip:
        frames = _apply_flips(frames, bool(rng.random() < 0.5), bool(rng.random() < 0.5))
    return VideoClip(frames=np.ascontiguousarray(frames, dtype=np.float32))


@dataclass
class Dataset:
    """Training clips (any size >= crop), a crop-sized mask set, and
    crop-sized held-out clips evaluated without augmentation."""

    train_clips: list
    holdout_clips: list
    masks: MaskSet


def make_synth_dataset(seed: int, n_train: int, n_holdout: int, t: int,
                       train_hw: int, crop: int, mask_p: float = 0.5) -> Dataset:
    masks = generate_masks(seed + MASK_SEED_OFFSET, t, crop, crop, mask_p)
    train = [synth_video(seed + i, t, train_hw, train_hw) for i in range(n_train)]
    hold = [synth_video(seed + HOLDOUT_SEED_OFFSET + i, t, crop, crop) for i in range(n_holdout)]
    return Dataset(train_clips=train, holdout_clips=hold, masks=masks)


def evaluate_psnr(net: QNet, dataset: Dataset) -> float:
    """Mean held-out PSNR of noiseless reconstructions (batched forwards)."""
    clips = dataset.holdout_clips
    if not clips:
        return float("nan")
    vals = []
    for start in range(0, len(clips), EVAL_BATCH):
        chunk = clips[start:start + EVAL_BATCH]
        stacks, gts = _batch_stacks(chunk, dataset.masks, 0.0, 0)
        out = net.forward_stack(Tensor(stacks)).data
        vals.extend(psnr(out[i], gts[i]) for i in range(len(chunk)))
    return float(np.mean(vals))


def _batch_stacks(clips, masks: MaskSet, noise_sigma: float, noise_seed: int):
    stacks, gts = [], []
    for i, clip in enumerate(clips):
        meas = encode(clip, masks, noise_sigma, noise_seed + i)
        stacks.append(initial_estimate(meas, masks))
        gts.append(clip.frames)
    return np.concatenate(stacks, axis=0), np.stack(gts)


def start_net(cfg: ExperimentConfig, netcfg: QNetConfig, init: tuple | None) -> QNet:
    """The network ``train`` starts from, seeded by ``cfg``'s ``train.seed``.
    ``init``, a ``(fingerprint, state)`` pair as ``load_checkpoint``
    returns, loads that checkpoint, whose backbone geometry must be the
    network's; a quantized network needs one. It reads no data."""
    if netcfg.quantized and init is None:
        raise ConfigError("quantized variant requires --init pointing at a full-precision "
                          "checkpoint with identical geometry")
    net = QNet(netcfg, seed=cfg.train_seed)
    if init is not None:
        fingerprint, state = init
        net.init_from_backbone(state, parse_fingerprint(fingerprint).backbone_geometry())
    return net


def train(cfg: ExperimentConfig, net: QNet, dataset: Dataset) -> tuple:
    """Run both learning-rate phases of ``cfg``'s ``train.*`` recipe on
    ``net`` (see :func:`start_net`), with ``cfg``'s ``data.noise_sigma`` on
    every training measurement; returns ``(model, curve)``: the trained
    model as the ``(fingerprint, state)`` pair that ``load_checkpoint``
    returns, and the per-epoch loss / held-out PSNR records. Deterministic
    per seed."""
    if net.cfg.cr != dataset.masks.t:
        raise ConfigError(f"model T={net.cfg.cr} but mask set has T={dataset.masks.t}")
    if net.cfg.quantized:
        calib_rng = np.random.default_rng(cfg.train_seed)
        calib = [augment(c, cfg.train_crop, calib_rng, False, False)
                 for c in dataset.train_clips[: cfg.train_batch_size]]
        stacks, _ = _batch_stacks(calib, dataset.masks, 0.0, 0)
        net.calibrate_quantizers(stacks)

    floors = [(p, ALPHA_FLOOR) for p in net.alpha_params()]
    opt = Adam(net.params(), cfg.train_lr_phase1, floors=floors)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.train_seed, spawn_key=(3,)))

    curve = []
    n = len(dataset.train_clips)
    epoch_global = 0
    for phase, (lr, epochs) in enumerate([(cfg.train_lr_phase1, cfg.train_epochs_phase1),
                                          (cfg.train_lr_phase2, cfg.train_epochs_phase2)],
                                         start=1):
        opt.lr = lr
        for _ in range(epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, cfg.train_batch_size):
                idx = order[start:start + cfg.train_batch_size]
                batch = [augment(dataset.train_clips[i], cfg.train_crop, rng,
                                 cfg.train_aug_flip, cfg.train_aug_scale) for i in idx]
                noise_seed = cfg.train_seed * 1_000_003 + epoch_global * 1009 + start
                stacks, gts = _batch_stacks(batch, dataset.masks, cfg.data_noise_sigma, noise_seed)
                with ad.Tape():
                    pred = net.forward_stack(Tensor(stacks))
                    loss = mse_loss(pred, gts)
                ad.backward(loss)
                opt.step()
                opt.zero_grad()
                losses.append(loss.item())
            epoch_global += 1
            curve.append({
                "epoch": epoch_global,
                "phase": phase,
                "lr": lr,
                "train_loss": float(np.mean(losses)) if losses else float("nan"),
                "val_psnr": evaluate_psnr(net, dataset),
            })
    return (net.cfg.fingerprint(), net.state_dict()), curve
