"""Video snapshot-compressive-imaging encoder simulation.

Hardware encoding folds T frames into one 2-D snapshot: each frame is
modulated by a pre-stored random binary mask and the modulated frames are
summed on the sensor. This module generates the masks, forms measurements
(optionally with additive Gaussian sensor noise), builds the network input
stack from a measurement, and synthesizes small moving-object clips for
desk-scale training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class MaskSet:
    """Binary modulation masks, one per frame slot."""

    masks: np.ndarray          # [T, H, W], values in {0, 1}, float32
    seed: int
    density: float

    def __post_init__(self):
        m = self.masks
        if m.ndim != 3:
            raise ShapeError(f"masks must be [T,H,W], got {m.shape}")
        if not np.isin(m, (0.0, 1.0)).all():
            raise ConfigError("mask values must be exactly 0 or 1")

    @property
    def t(self) -> int:
        return self.masks.shape[0]

    @property
    def frame_shape(self):
        return self.masks.shape[1:]

    @property
    def temporal_sum(self) -> np.ndarray:
        """Per-pixel count of open mask slots, [H, W]."""
        return self.masks.sum(axis=0)


@dataclass
class Measurement:
    """A single snapshot and the compression ratio that produced it."""

    y: np.ndarray              # [H, W]
    cr: int

    def __post_init__(self):
        if self.y.ndim != 2:
            raise ShapeError(f"measurement must be [H,W], got {self.y.shape}")


@dataclass
class VideoClip:
    """T frames with values in [0, 1]."""

    frames: np.ndarray         # [T, H, W]

    def __post_init__(self):
        if self.frames.ndim != 3:
            raise ShapeError(f"clip frames must be [T,H,W], got {self.frames.shape}")


def generate_masks(seed: int, t: int, h: int, w: int, p: float = 0.5) -> MaskSet:
    """I.i.d. Bernoulli(p) binary masks, deterministic per seed."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"mask density must be in (0, 1), got {p}")
    rng = np.random.default_rng(seed)
    masks = (rng.random((t, h, w)) < p).astype(np.float32)
    return MaskSet(masks=masks, seed=seed, density=p)


def encode(video: VideoClip, masks: MaskSet, noise_sigma: float = 0.0,
           noise_seed: int = 0) -> Measurement:
    """Snapshot formation: y = sum_t M_t * X_t (+ Gaussian noise)."""
    if video.frames.shape != masks.masks.shape:
        raise ShapeError(
            f"video {video.frames.shape} and masks {masks.masks.shape} differ"
        )
    y = (masks.masks * video.frames).sum(axis=0, dtype=np.float32)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(noise_seed)
        y = y + rng.normal(0.0, noise_sigma, size=y.shape).astype(np.float32)
    return Measurement(y=y.astype(np.float32), cr=masks.t)


def initial_estimate(meas: Measurement, masks: MaskSet) -> np.ndarray:
    """Network input stack [1, 2, T, H, W] built from one measurement.

    Channel 0 repeats the normalized estimate E = y / max(sum_t M_t, 1) over
    the T slots; channel 1 re-applies each mask to E. The max(., 1) guard
    leaves never-exposed pixels at the raw (zero in the noiseless model)
    measurement value. A non-finite measurement gives a non-finite stack,
    which the network's forward rejects; building it warns nothing.
    """
    if meas.y.shape != masks.frame_shape:
        raise ShapeError(f"measurement {meas.y.shape} vs masks {masks.frame_shape}")
    if meas.cr != masks.t:
        raise ShapeError(f"compression ratio {meas.cr} vs mask count {masks.t}")
    norm = np.maximum(masks.temporal_sum, 1.0)
    est = (meas.y / norm).astype(np.float32)
    t = masks.t
    ch0 = np.broadcast_to(est, (t,) + est.shape)
    with np.errstate(invalid="ignore"):     # 0 * inf where a mask is closed
        ch1 = masks.masks * est
    stack = np.stack([ch0, ch1], axis=0)[np.newaxis]   # [1, 2, T, H, W]
    return np.ascontiguousarray(stack, dtype=np.float32)


# ---------------------------------------------------------------------------
# synthetic clips: moving anti-aliased shapes over a smooth textured background
# ---------------------------------------------------------------------------

@dataclass
class MovingShape:
    """One rendered object with a constant per-clip velocity.

    Velocity is (columns/frame, rows/frame); position is the shape center in
    (col, row) pixel coordinates at frame 0.
    """

    kind: str                  # "disk" or "rect"
    center: tuple              # (col, row) at t=0
    velocity: tuple            # (d_col, d_row) per frame
    size: float                # disk radius or rect half-side
    intensity: float
    aspect: float = 1.0        # rect height/width ratio


def _coverage(shape: MovingShape, t: int, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Anti-aliased coverage in [0,1] for one shape at frame t, over the
    float32 pixel grid ``yy`` (row indices) and ``xx`` (column indices)."""
    cx = shape.center[0] + shape.velocity[0] * t
    cy = shape.center[1] + shape.velocity[1] * t
    if shape.kind == "disk":
        d = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2) - shape.size
    elif shape.kind == "rect":
        dx = np.abs(xx - cx) - shape.size
        dy = np.abs(yy - cy) - shape.size * shape.aspect
        d = np.maximum(dx, dy)
    else:
        raise ConfigError(f"unknown shape kind '{shape.kind}'")
    # 1px soft edge for anti-aliasing
    return np.clip(0.5 - d, 0.0, 1.0)


def _smooth_background(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Low-frequency texture in roughly [0.1, 0.45]."""
    coarse = rng.random((max(h // 8, 2), max(w // 8, 2))).astype(np.float32)
    ys = np.linspace(0, coarse.shape[0] - 1, h, dtype=np.float32)
    xs = np.linspace(0, coarse.shape[1] - 1, w, dtype=np.float32)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, coarse.shape[0] - 1)
    x1 = np.minimum(x0 + 1, coarse.shape[1] - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = coarse[np.ix_(y0, x0)] * (1 - fx) + coarse[np.ix_(y0, x1)] * fx
    bot = coarse[np.ix_(y1, x0)] * (1 - fx) + coarse[np.ix_(y1, x1)] * fx
    tex = top * (1 - fy) + bot * fy
    return (0.1 + 0.35 * tex).astype(np.float32)


def render_clip(shapes: list, t: int, h: int, w: int, background: np.ndarray) -> VideoClip:
    """Composite shapes over an [h, w] background for t frames, alpha-blended."""
    frames = np.empty((t, h, w), dtype=np.float32)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)     # one pixel grid for every frame and shape
    for ti in range(t):
        frame = background.copy()
        for shape in shapes:
            cov = _coverage(shape, ti, yy, xx)
            frame = frame * (1.0 - cov) + shape.intensity * cov
        frames[ti] = np.clip(frame, 0.0, 1.0)
    return VideoClip(frames=frames)


def synth_video(seed: int, t: int, h: int, w: int) -> VideoClip:
    """Deterministic clip of three moving shapes over a smooth background."""
    rng = np.random.default_rng(seed)
    background = _smooth_background(rng, h, w)
    shapes = []
    for _ in range(3):
        kind = "disk" if rng.random() < 0.5 else "rect"
        size = float(rng.uniform(0.08, 0.2) * min(h, w))
        center = (float(rng.uniform(size, w - size)), float(rng.uniform(size, h - size)))
        speed = rng.uniform(0.5, 2.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        velocity = (float(speed * np.cos(angle)), float(speed * np.sin(angle)))
        intensity = float(rng.uniform(0.55, 1.0))
        aspect = float(rng.uniform(0.6, 1.6))
        shapes.append(MovingShape(kind, center, velocity, size, intensity, aspect))
    return render_clip(shapes, t, h, w, background)
