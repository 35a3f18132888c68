"""Learnable fake quantizers with straight-through gradients.

Scheme: asymmetric activation quantization (scale ``alpha`` plus real-valued
zero-point ``z``) and symmetric weight quantization (scale only). Codes are
produced by scale/shift, clip to the signed b-bit range, then round half to
even; dequantization maps codes back to real values. ``fake_quant`` is the
tape-recorded quantize-then-dequantize used during training: its input
gradient passes through where the pre-clip value lies inside the clip range
and is zero outside, and the scale/zero-point gradients treat the rounding
as identity (clipped elements contribute the saturated code instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError, ShapeError

VALID_BITS = (2, 3, 4, 8, 32)

# Positive floor applied to every learnable scale after an optimizer step.
ALPHA_FLOOR = 1e-8


@dataclass(frozen=True)
class BitWidth:
    """Signed integer bit-width; 32 marks a full-precision pass-through."""

    bits: int

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise ConfigError(f"unsupported bit-width {self.bits}; expected one of {VALID_BITS}")

    @property
    def passthrough(self) -> bool:
        return self.bits == 32

    @property
    def q_n(self) -> int:
        """Magnitude of the lower clip bound, 2^(bits-1)."""
        if self.passthrough:
            raise ConfigError("pass-through quantizer has no clip range")
        return 1 << (self.bits - 1)

    @property
    def q_p(self) -> int:
        """Upper clip bound, 2^(bits-1) - 1."""
        if self.passthrough:
            raise ConfigError("pass-through quantizer has no clip range")
        return (1 << (self.bits - 1)) - 1


class ActQuantizer:
    """Asymmetric activation quantizer: learnable scale and zero-point."""

    def __init__(self, bits: int):
        self.bitwidth = BitWidth(bits)
        self.alpha = Tensor([1.0], requires_grad=True)
        self.z = Tensor([0.0], requires_grad=True)

    @property
    def bits(self) -> int:
        return self.bitwidth.bits

    def params(self):
        if self.bitwidth.passthrough:
            return []
        return [("alpha", self.alpha), ("z", self.z)]

    def calibrate(self, samples: np.ndarray):
        """Fit alpha/z so the observed range maps inside the clip interval."""
        if self.bitwidth.passthrough:
            return
        lo = float(samples.min())
        hi = float(samples.max())
        self.z.data[0] = 0.5 * (hi + lo)
        self.alpha.data[0] = max(0.5 * (hi - lo) / self.bitwidth.q_p, ALPHA_FLOOR)


class WeightQuantizer:
    """Symmetric weight quantizer: learnable scale, no zero-point."""

    def __init__(self, bits: int):
        self.bitwidth = BitWidth(bits)
        self.alpha = Tensor([1.0], requires_grad=True)

    @property
    def bits(self) -> int:
        return self.bitwidth.bits

    def params(self):
        if self.bitwidth.passthrough:
            return []
        return [("alpha", self.alpha)]

    def calibrate(self, w: np.ndarray):
        if self.bitwidth.passthrough:
            return
        self.alpha.data[0] = max(float(np.abs(w).max()) / self.bitwidth.q_p, ALPHA_FLOOR)


def _check_input(x: np.ndarray, what: str):
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what} passed to quantizer")


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)


def act_quantize(x, q: ActQuantizer) -> np.ndarray:
    """Integer codes round(clip((x - z)/alpha, -q_n, q_p)), half to even."""
    arr = _as_array(x)
    _check_input(arr, "activation")
    if q.bitwidth.passthrough:
        raise ConfigError("act_quantize on a pass-through quantizer")
    alpha = float(q.alpha.data[0])
    if alpha <= 0:
        raise ConfigError(f"quantizer scale must be positive, got {alpha}")
    z = float(q.z.data[0])
    bw = q.bitwidth
    v = (arr - z) / np.float32(alpha)
    return np.rint(np.clip(v, -bw.q_n, bw.q_p)).astype(np.float32)


def act_dequantize(codes, q: ActQuantizer) -> np.ndarray:
    arr = _as_array(codes)
    return (arr * np.float32(float(q.alpha.data[0])) + np.float32(float(q.z.data[0]))).astype(np.float32)


def weight_quantize(w, q: WeightQuantizer) -> np.ndarray:
    """Integer codes round(clip(w/alpha, -q_n, q_p)), half to even."""
    arr = _as_array(w)
    _check_input(arr, "weight")
    if q.bitwidth.passthrough:
        raise ConfigError("weight_quantize on a pass-through quantizer")
    alpha = float(q.alpha.data[0])
    if alpha <= 0:
        raise ConfigError(f"quantizer scale must be positive, got {alpha}")
    bw = q.bitwidth
    return np.rint(np.clip(arr / np.float32(alpha), -bw.q_n, bw.q_p)).astype(np.float32)


def weight_dequantize(codes, q: WeightQuantizer) -> np.ndarray:
    arr = _as_array(codes)
    return (arr * np.float32(float(q.alpha.data[0]))).astype(np.float32)


def fake_quant(x: Tensor, q) -> Tensor:
    """Quantize-then-dequantize with straight-through gradients.

    Input gradient: pass-through where the pre-clip value (x - z)/alpha lies
    in [-q_n, q_p] (inclusive), zero where clipped. Scale gradient: rounding
    residual (code - pre-clip value) in range, saturated code (+q_p / -q_n)
    where clipped. Zero-point gradient: 1 where clipped, 0 in range. A 32-bit
    quantizer returns the input unchanged.
    """
    if q.bitwidth.passthrough:
        return x

    is_act = isinstance(q, ActQuantizer)
    alpha = float(q.alpha.data[0])
    if alpha <= 0:
        raise ConfigError(f"quantizer scale must be positive, got {alpha}")
    z = float(q.z.data[0]) if is_act else 0.0
    bw = q.bitwidth
    q_n, q_p = bw.q_n, bw.q_p

    arr = x.data
    if ad.FINITE_CHECKS:
        _check_input(arr, "fake_quant input")
    v = arr - np.float32(z)
    v /= np.float32(alpha)
    codes = np.clip(v, -q_n, q_p)
    np.rint(codes, out=codes)
    out = codes * np.float32(alpha)
    out += np.float32(z)

    def bwd(g):
        clipped = v < -q_n
        clipped |= v > q_p
        mid = ~clipped
        dx = g * mid
        # codes - v in range; where clipped, the code itself (q_p or -q_n)
        dalpha_field = v * mid
        np.subtract(codes, dalpha_field, out=dalpha_field)
        dalpha = np.array([(g * dalpha_field).sum()], dtype=np.float32)
        if not is_act:
            return dx, dalpha
        dz = np.array([(g * clipped).sum()], dtype=np.float32)
        return dx, dalpha, dz

    inputs = (x, q.alpha, q.z) if is_act else (x, q.alpha)
    return ad._finish(out, inputs, bwd, "fake_quant")


def q_linear(x, w, aq: ActQuantizer, wq: WeightQuantizer) -> np.ndarray:
    """Quantized matmul in the code domain:
    alpha_x * alpha_w * ((Q_a(x) + z/alpha_x) @ Q_w(w)).

    Numerically equal to contracting the fake-quantized operands; this is the
    identity the bit-packed integer path relies on. Pass-through quantizers
    degrade to the plain product.
    """
    xa = _as_array(x)
    wa = _as_array(w)
    if xa.shape[-1] != wa.shape[-2 if wa.ndim > 1 else 0]:
        raise ShapeError(f"q_linear contraction mismatch: {xa.shape} vs {wa.shape}")
    a_pass = aq.bitwidth.passthrough
    w_pass = wq.bitwidth.passthrough
    if a_pass and w_pass:
        return xa @ wa
    xs = xa if a_pass else (act_quantize(xa, aq) * np.float32(float(aq.alpha.data[0]))
                            + np.float32(float(aq.z.data[0])))
    ws = wa if w_pass else weight_dequantize(weight_quantize(wa, wq), wq)
    if a_pass or w_pass:
        return xs @ ws
    # full code-domain form
    alpha_x = float(aq.alpha.data[0])
    alpha_w = float(wq.alpha.data[0])
    z = float(aq.z.data[0])
    cx = act_quantize(xa, aq)
    cw = weight_quantize(wa, wq)
    acc = (cx + np.float32(z / alpha_x)) @ cw
    return (np.float32(alpha_x * alpha_w) * acc).astype(np.float32)
