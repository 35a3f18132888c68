"""Learnable fake quantizers with straight-through gradients.

One class, :class:`ActQuantizer`, serves both kinds: asymmetric activation
quantization (scale ``alpha`` plus real-valued zero-point ``z``) and, with
``symmetric`` set, symmetric weight quantization, whose ``z`` stays pinned
at 0 and is neither learned nor saved. Codes are produced by scale/shift,
clip to the signed b-bit range, then round half to even; dequantization
maps codes back to real values. Training differentiates through them by
the straight-through rule (:func:`_straight_through`): the input gradient
passes through where the pre-clip value lies inside the clip range and is
zero outside, and the scale/zero-point gradients treat the rounding as
identity (clipped elements contribute the saturated code instead). A
layer's quantizers are part of its own tape node (:class:`Operand`), whose
forward value the layer computes from the codes of :func:`act_quantize`;
``fake_quant``, the tape-recorded quantize-then-dequantize, serves the
attention core's query, key and probabilities. A 32-bit quantizer is the
identity: ``fake_quant``, ``act_quantize`` and ``ActQuantizer.operand``
return their input.

Each quantizer can carry a one-shot hook, ``on_next``: the next
``fake_quant`` or ``act_quantize`` through it clears the hook and calls it
with its input array. Calibration and the efficiency count use it to see the
data reaching a quantizer without any mode flag or per-forward record.

A non-finite input raises NumericError: the clip would turn an infinity
into a finite code. After the hook, ``fake_quant`` scans only an input
without the mark :attr:`~qsci.autodiff.Tensor.scanned`, which the op that
made it sets, and leaves it unmarked, as its input may be a parameter,
which is written in place. ``act_quantize`` goes by the input's type: a
Tensor is scanned unless it carries the mark, and is marked once scanned,
so an activation that feeds two layers is scanned once; an array, such as
a weight's ``data``, is scanned on every call and never marked.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError

VALID_BITS = (2, 3, 4, 8, 32)

# float types that hold every integer of magnitude below the limit exactly
_EXACT_FLOATS = ((np.float32, 1 << 24), (np.float64, 1 << 53))

# Positive floor applied to every learnable scale after an optimizer step.
ALPHA_FLOOR = 1e-8


class ActQuantizer:
    """A ``bits``-wide quantizer with a learnable scale ``alpha`` and
    zero-point ``z`` (asymmetric, for activations); with ``symmetric`` set,
    ``z`` stays 0 and is not a parameter (for weights). Codes clip to
    [-q_n, q_p] = [-2^(bits-1), 2^(bits-1) - 1]; at 32 bits the quantizer is
    the identity and no code reads that range."""

    def __init__(self, bits: int, symmetric: bool = False):
        if bits not in VALID_BITS:
            raise ConfigError(f"unsupported bit-width {bits}; expected one of {VALID_BITS}")
        self.bits = bits
        self.q_n = 1 << (bits - 1)
        self.q_p = self.q_n - 1
        self.symmetric = symmetric
        self.alpha = Tensor([1.0], requires_grad=True)
        self.z = Tensor([0.0], requires_grad=not symmetric)
        self.on_next = None     # one-shot hook, see _run_hook

    def params(self):
        if self.bits == 32:
            return []
        if self.symmetric:
            return [("alpha", self.alpha)]
        return [("alpha", self.alpha), ("z", self.z)]

    def calibrate(self, samples: np.ndarray):
        """Fit the scale (and zero-point) so the observed range maps inside
        the clip interval: max|w|/q_p when symmetric, else the min/max midpoint
        and half-range/q_p. Non-finite samples raise NumericError and leave both
        unchanged."""
        if self.bits == 32:
            return
        _check_input(samples, "calibration sample")
        if self.symmetric:
            self.alpha.data[0] = max(float(np.abs(samples).max()) / self.q_p, ALPHA_FLOOR)
            return
        lo = float(samples.min())
        hi = float(samples.max())
        self.z.data[0] = 0.5 * (hi + lo)
        self.alpha.data[0] = max(0.5 * (hi - lo) / self.q_p, ALPHA_FLOOR)

    def operand(self, t: Tensor):
        """``t`` through this quantizer as an operand of a layer's tape node
        (an :class:`Operand`); at 32 bits, where the quantizer is the
        identity, ``t`` itself."""
        return t if self.bits == 32 else Operand(t, self)


def _check_input(x: np.ndarray, what: str):
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what} passed to quantizer")


def _run_hook(q: ActQuantizer, arr: np.ndarray):
    """Clear the quantizer's one-shot hook, then call it on ``arr``: the input
    of the fake_quant or act_quantize that reached the quantizer."""
    hook = q.on_next
    if hook is not None:
        q.on_next = None
        hook(arr)


def _pre_clip(x: np.ndarray, alpha: float, z: float) -> np.ndarray:
    """(x - z)/alpha as a fresh float32 array; a scale that is not > 0
    (NaN included) is a ConfigError."""
    if not alpha > 0:
        raise ConfigError(f"quantizer scale must be positive, got {alpha}")
    v = x - np.float32(z)
    v /= np.float32(alpha)
    return v


def _codes(v: np.ndarray, q: ActQuantizer, out=None) -> np.ndarray:
    """The codes rint(clip(v, -q_n, q_p)), half to even, of pre-clip values
    ``v``, into ``out`` (which may be ``v``) or a fresh array."""
    out = np.clip(v, -q.q_n, q.q_p, out=out)
    return np.rint(out, out=out)


def act_quantize(x, q: ActQuantizer) -> np.ndarray:
    """Integer codes round(clip((x - z)/alpha, -q_n, q_p)), half to even.
    The input's type decides its scan for non-finite values: a Tensor that
    carries the scan mark is not scanned, and one without it is scanned and
    marked; an array is always scanned. A 32-bit quantizer is the identity:
    after the hook and the scan it returns the input array itself, as
    float32, so a 32-bit layer's "codes" are its float values."""
    tensor = isinstance(x, Tensor)
    arr = x.data if tensor else np.asarray(x, dtype=np.float32)
    _run_hook(q, arr)
    if not (tensor and x.scanned):
        _check_input(arr, "input")
        if tensor:
            x.mark_scanned()
    if q.bits == 32:
        return arr
    v = _pre_clip(arr, float(q.alpha.data[0]), float(q.z.data[0]))
    return _codes(v, q, out=v)


def code_dtype(k: int, bits: int):
    """float32 or, failing that, float64: the first float type that holds
    every integer up to k * 2^(bits-1) * 2^(bits-1), the worst-case
    |accumulator| of k products of two bits-wide codes. A code contraction in
    that type is therefore exact in any summation order. A contraction that
    neither holds is a ConfigError. At 32 bits the operands are the float32
    values themselves (:func:`act_quantize` is the identity there), so the
    type is float32 and the contraction rounds as any float32 sum does."""
    if bits == 32:
        return np.float32
    bound = k << (2 * bits - 2)
    for dtype, limit in _EXACT_FLOATS:
        if bound < limit:
            return dtype
    raise ConfigError(f"{k} products of {bits}-bit codes reach |acc| = {bound}, "
                      f"not exact in float64")


def _dequantize(codes: np.ndarray, alpha: float, z: float) -> np.ndarray:
    """codes * alpha + z, float32, in place in ``codes``."""
    codes *= np.float32(alpha)
    codes += np.float32(z)
    return codes


def _straight_through(x: np.ndarray, alpha: float, z: float, q: ActQuantizer):
    """The straight-through rule of fake-quantizing ``x`` with scale
    ``alpha`` and zero-point ``z``, from one pre-clip pass: (the
    dequantized ``x``, ``grads``), where ``grads(g, need_dx)`` maps the
    gradient ``g`` of the dequantized ``x`` to ``(dx, dalpha, dz)``; ``dx``
    is ``None`` unless ``need_dx``, and ``dz`` for a symmetric ``q``.

    Input gradient: pass-through where the pre-clip value (x - z)/alpha lies
    in [-q_n, q_p] (inclusive), zero where clipped. Scale gradient: rounding
    residual (code - pre-clip value) in range, saturated code (+q_p / -q_n)
    where clipped. Zero-point gradient: 1 where clipped, 0 in range. The
    dequantized array takes :func:`fake_quant`'s forward steps, so it has
    their bits. ``grads`` allocates nothing input-sized: ``dz`` reuses the
    dequantized array's buffer, so it is called after the last read of that
    array, and ``dx`` that of the scale gradient's field.
    """
    v = _pre_clip(x, alpha, z)
    codes = _codes(v, q)
    clipped = v < -q.q_n
    clipped |= v > q.q_p
    mid = ~clipped
    # codes - v in range; where clipped, the code itself (q_p or -q_n)
    field = np.multiply(v, mid, out=v)
    np.subtract(codes, field, out=field)
    deq = _dequantize(codes, alpha, z)

    def grads(g, need_dx):
        dalpha = np.array([np.multiply(g, field, out=field).sum()], dtype=np.float32)
        dz = None if q.symmetric else np.array([np.multiply(g, clipped, out=deq).sum()],
                                               dtype=np.float32)
        dx = np.multiply(g, mid, out=field) if need_dx else None    # dalpha has read field
        return dx, dalpha, dz

    return deq, grads


def fake_quant(x: Tensor, q) -> Tensor:
    """Quantize-then-dequantize with straight-through gradients
    (:func:`_straight_through`), as one tape node on ``x``, ``q.alpha`` and
    ``q.z``. A 32-bit quantizer returns the input unchanged. A hook set in
    ``q.on_next`` is cleared, then called with the input array, before
    anything else; then an input without the scan mark is scanned. Only the
    attention's query, key and probability quantizers use it: a layer's
    quantizers are part of its own node (:class:`Operand`).

    The forward dequantizes the codes, made as :func:`act_quantize` makes
    them, in place. The tape keeps only the input array, the scale and the
    zero-point: the backward recomputes the pre-clip value from the input,
    with the forward's scale and zero-point, and the codes from that. For an
    input that does not require grad when it is recorded, the input gradient
    is ``None`` and is not computed. A recorded output's
    :attr:`~qsci.autodiff.Tensor.rebuild` runs the forward's float32 steps
    again on what the tape keeps, so it gives the output's bits, and a
    ``matmul`` that reads the output keeps that, not the array.

    LSQ (Esser et al., arXiv 1902.08153) also multiplies the scale gradient
    by 1/sqrt(N * q_p); that factor is omitted on purpose. Every scale is its
    own parameter of the trainer's Adam, which divides each gradient by its
    running RMS, so a constant per-quantizer factor cancels except against
    Adam's ``eps``.
    """
    _run_hook(q, x.data)
    if q.bits == 32:
        return x
    if not x.scanned:
        _check_input(x.data, "fake_quant input")
    xd = x.data
    need_dx = x.requires_grad
    alpha = float(q.alpha.data[0])
    z = float(q.z.data[0])

    def dequant():
        v = _pre_clip(xd, alpha, z)
        return _dequantize(_codes(v, q, out=v), alpha, z)

    def bwd(g):
        return _straight_through(xd, alpha, z, q)[1](g, need_dx)

    out = ad._finish(dequant(), (x, q.alpha, q.z), bwd, "fake_quant")
    if out.node is not None:
        out.rebuild = dequant
    return out


class Operand:
    """``t`` through quantizer ``q`` as an operand of a layer's tape node
    (:func:`~qsci.autodiff.conv3d`, :func:`~qsci.autodiff.linear`), which
    takes ``tensors`` (``t``, the scale, and the zero-point if ``q`` is
    asymmetric) as inputs. In backward, ``read()`` gives the dequantized
    array and the map from its gradient to theirs, both from one
    :func:`_straight_through` pass over the forward's array, scale and
    zero-point. The scale needs that gradient, so ``requires_grad`` is set
    even where ``t`` requires none; ``t``'s own gradient is then ``None``.
    No hook runs and nothing is scanned: the layer's :func:`act_quantize`
    of ``t`` did both."""

    requires_grad = True

    def __init__(self, t: Tensor, q: ActQuantizer):
        self.shape = t.shape
        self.tensors = (t, q.alpha) if q.symmetric else (t, q.alpha, q.z)
        data, need_dx, count = t.data, t.requires_grad, len(self.tensors)
        alpha, z = float(q.alpha.data[0]), float(q.z.data[0])

        def read():
            deq, grads = _straight_through(data, alpha, z, q)
            return deq, lambda g: grads(g, need_dx)[:count]

        self.read = read
