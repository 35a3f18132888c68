"""Reconstruction quality metrics and bit-adjusted efficiency accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import conv3d_output_shape
from .errors import ShapeError
from .network import QConv3d, QNet, QNetConfig

PSNR_CAP_DB = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB with MAX=1.0.

    Identical inputs return the 100 dB cap; otherwise 10*log10(1/MSE).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"psnr operands differ in shape: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return 10.0 * math.log10(1.0 / mse)


def _valid_blur_matrix(n: int) -> np.ndarray:
    """[n - 10, n] banded matrix whose row i holds the 11 normalised 1-D
    Gaussian taps at columns i .. i + 10, so ``m @ x`` is a 'valid' 1-D pass
    along x's first axis. The 2-D SSIM window is the taps' outer product."""
    coords = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    taps = g / g.sum()
    m = np.zeros((n - SSIM_WINDOW + 1, n))
    for i in range(len(m)):
        m[i, i:i + SSIM_WINDOW] = taps
    return m


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity with the standard 11x11 Gaussian window
    (sigma 1.5, k1=0.01, k2=0.03, dynamic range 1.0).

    3-D inputs are treated as frame stacks: the SSIM map is averaged per
    frame, then over frames. The window is separable, so it is applied as
    two 1-D 'valid' passes (along W, then along H) to the five moment maps
    of all frames at once.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim operands differ in shape: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise ShapeError(f"ssim expects 2-D frames or 3-D stacks, got {a.ndim}-D")
    h, w = a.shape[-2:]
    if min(h, w) < SSIM_WINDOW:
        raise ShapeError(f"frame {(h, w)} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")

    moments = np.stack([a, b, a * a, b * b, a * b])           # [5, (T,) H, W]
    mu_a, mu_b, ex_aa, ex_bb, ex_ab = (_valid_blur_matrix(h)
                                       @ (moments @ _valid_blur_matrix(w).T))
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2

    mu_aa = mu_a * mu_a
    mu_bb = mu_b * mu_b
    mu_ab = mu_a * mu_b
    var_a = ex_aa - mu_aa
    var_b = ex_bb - mu_bb
    cov = ex_ab - mu_ab

    num = (2.0 * mu_ab + c1) * (2.0 * cov + c2)
    den = (mu_aa + mu_bb + c1) * (var_a + var_b + c2)
    return float(np.mean(np.mean(num / den, axis=(-2, -1))))


# ---------------------------------------------------------------------------
# bit-adjusted Params / OPs accounting
# ---------------------------------------------------------------------------

@dataclass
class EffReport:
    """Per-layer efficiency table plus totals (totals are exact row sums)."""

    rows: list
    params_m: float
    ops_g: float


def count_efficiency(cfg: QNetConfig, input_hw) -> EffReport:
    """Bit-adjusted Params/OPs of the network a config describes, on an
    ``input_hw`` frame: one row per weight layer, in ``quant_layers()``
    order, from the input shape that one forward of zeros brings to the
    layer's activation quantizer. FLOPs are 2 per multiply-accumulate.

    A layer's one width scales its weight count and its FLOPs by bits/32
    (32-bit counts unadjusted); biases stay full precision, so their count
    enters unadjusted.
    """
    net = QNet(cfg, seed=0)
    layers = net.quant_layers()
    h, w = input_hw
    in_shapes = {}
    net.forward_with_hooks(np.zeros((1, 2, cfg.cr, h, w), np.float32),
                           [(layer.aq, lambda x, name=name: in_shapes.update({name: x.shape}))
                            for name, layer in layers])
    rows = []
    for name, layer in layers:
        if isinstance(layer, QConv3d):
            kind, dims = "conv3d", (layer.in_ch, layer.out_ch) + layer.kernel
            n, _, *out_dims = conv3d_output_shape(in_shapes[name], layer.weight.shape,
                                                  layer.stride, layer.padding)
            positions = n * math.prod(out_dims)           # output voxels
        else:
            kind, dims = "linear", layer.weight.shape
            positions = math.prod(in_shapes[name][:-1])   # tokens
        weight_params, bits = layer.weight.size, layer.bits
        flops = 2 * positions * weight_params
        rows.append({"name": name, "kind": kind, "geometry": "x".join(map(str, dims)),
                     "w_bits": bits, "a_bits": bits, "weight_params": weight_params,
                     "bias_params": layer.out_features, "flops": flops,
                     "adj_params": weight_params * bits / 32.0 + layer.out_features,
                     "adj_ops": flops * bits / 32.0})
    params_m = sum(r["adj_params"] for r in rows) / 1e6
    ops_g = sum(r["adj_ops"] for r in rows) / 1e9
    return EffReport(rows=rows, params_m=params_m, ops_g=ops_g)
