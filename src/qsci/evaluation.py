"""Reconstruction quality metrics and bit-adjusted efficiency accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

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


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g, g)
    return win / win.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity with the standard 11x11 Gaussian window
    (sigma 1.5, k1=0.01, k2=0.03, dynamic range 1.0).

    3-D inputs are treated as frame stacks and averaged over frames.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim operands differ in shape: {a.shape} vs {b.shape}")
    if a.ndim == 3:
        return float(np.mean([ssim(fa, fb) for fa, fb in zip(a, b)]))
    if a.ndim != 2:
        raise ShapeError(f"ssim expects 2-D frames or 3-D stacks, got {a.ndim}-D")
    if min(a.shape) < SSIM_WINDOW:
        raise ShapeError(f"frame {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")

    # imported here: scipy.signal takes most of a second to import, and only
    # SSIM needs it
    from scipy.signal import convolve2d

    win = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2

    mu_a = convolve2d(a, win, mode="valid")
    mu_b = convolve2d(b, win, mode="valid")
    mu_aa = mu_a * mu_a
    mu_bb = mu_b * mu_b
    mu_ab = mu_a * mu_b
    var_a = convolve2d(a * a, win, mode="valid") - mu_aa
    var_b = convolve2d(b * b, win, mode="valid") - mu_bb
    cov = convolve2d(a * b, win, mode="valid") - mu_ab

    num = (2.0 * mu_ab + c1) * (2.0 * cov + c2)
    den = (mu_aa + mu_bb + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# bit-adjusted Params / OPs accounting
# ---------------------------------------------------------------------------

def bit_adjusted_params(raw_params: float, bits: int) -> float:
    """Parameter count scaled by bits/32 (32-bit entries unadjusted)."""
    return raw_params * bits / 32.0


def bit_adjusted_ops(flops: float, w_bits: int, a_bits: int) -> float:
    """FLOPs scaled by max(weight bits, activation bits)/32."""
    return flops * max(w_bits, a_bits) / 32.0


def speedup(full_precision_ops: float, quantized_ops: float) -> float:
    return full_precision_ops / quantized_ops


@dataclass
class EffReport:
    """Per-layer efficiency table plus totals (totals are exact row sums)."""

    rows: list
    params_m: float
    ops_g: float

    @staticmethod
    def from_audit(audit_rows: list) -> "EffReport":
        rows = []
        for r in audit_rows:
            adj_params = (bit_adjusted_params(r["weight_params"], r["w_bits"])
                          + r.get("bias_params", 0))
            adj_ops = bit_adjusted_ops(r["flops"], r["w_bits"], r["a_bits"])
            rows.append({**r, "adj_params": adj_params, "adj_ops": adj_ops})
        params_m = sum(r["adj_params"] for r in rows) / 1e6
        ops_g = sum(r["adj_ops"] for r in rows) / 1e9
        return EffReport(rows=rows, params_m=params_m, ops_g=ops_g)


def count_efficiency(net_or_audit, input_hw=None) -> EffReport:
    """Bit-adjusted Params/OPs from a network, a config, or a prebuilt audit
    table (list of rows with weight_params/bias_params/flops/w_bits/a_bits).

    Biases stay full precision, so their count enters unadjusted.
    """
    if isinstance(net_or_audit, list):
        return EffReport.from_audit(net_or_audit)
    from .network import QNet, QNetConfig

    if isinstance(net_or_audit, QNetConfig):
        net = QNet(net_or_audit, seed=0)
    elif isinstance(net_or_audit, QNet):
        net = net_or_audit
    else:
        raise TypeError(f"expected audit rows, QNet or QNetConfig, got {type(net_or_audit)}")
    if input_hw is None:
        raise ValueError("input_hw required when auditing a network")
    return EffReport.from_audit(net.audit(input_hw))
