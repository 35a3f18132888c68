"""Miniature three-stage quantized reconstruction network.

Stage 1 extracts features from the measurement stack with a small strided
conv path (optionally bridged by 8-bit 1x1x1 shortcut convolutions, with a
channel-packing pixel rearrangement before the last shortcut so its spatial
size matches the strided main path). Stage 2 enhances features with residual
blocks that fuse a 3-D conv branch and a temporal attention branch whose
query/key can carry learnable distribution shifts. Stage 3 reconstructs the
frames with an upsampling conv stack (again optionally shortcut-bridged) and
clamps the output to [0, 1].

Every weight-bearing layer in the body carries one activation quantizer and
one weight quantizer at its assigned bit-width; a 32-bit quantizer is the
identity. Under a tape, every layer runs fake-quant values through the float
contraction of :func:`~qsci.autodiff.conv3d` or
:func:`~qsci.autodiff.matmul`, which training differentiates; without one
(evaluation, calibration, the audit, a packed model) every layer, 32-bit
ones included, runs the code-domain forward: an exact contraction of integer
codes, or at 32 bits a float32 contraction of the float values (see
:class:`QLayer`). A forward writes nothing to the modules:
calibration and the structural audit see the data reaching each quantizer
through its one-shot ``on_next`` hook (see :mod:`qsci.quantize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, axis_windows, conv3d_output_shape, sample_patches, tap_windows
from .errors import ConfigError, FormatError, ShapeError
from .quantize import VALID_BITS, ActQuantizer, act_quantize, code_dtype, fake_quant
from .sci import MaskSet, Measurement, VideoClip, initial_estimate


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QNetConfig:
    """One network: its backbone geometry, the bit-width of each of its
    three stages (the paper's per-module assignment: ``fem_bits`` for
    feature extraction, ``enh_bits`` for the feature enhancement blocks,
    ``vrm_bits`` for video reconstruction; 32 is full precision), and its
    additions: shortcut convs at a derived ``shortcut_bits`` and the query/key shift."""

    base_channels: int = 16
    resdnet_blocks: int = 2
    cformer_per_block: int = 2
    heads: int = 2
    cr: int = 4                      # compression ratio T
    fem_bits: int = 32
    enh_bits: int = 32
    vrm_bits: int = 32
    use_fem_shortcuts: bool = False
    use_vrm_shortcuts: bool = False
    use_qk_shift: bool = False

    def __post_init__(self):
        if self.base_channels < 1 or self.heads < 1:
            raise ConfigError(f"base_channels {self.base_channels} and heads {self.heads} "
                              f"must be >= 1")
        if self.base_channels % self.heads != 0:
            raise ConfigError(
                f"base_channels {self.base_channels} not divisible by heads {self.heads}"
            )
        for label in ("fem_bits", "enh_bits", "vrm_bits"):
            if getattr(self, label) not in VALID_BITS:
                raise ConfigError(f"{label}={getattr(self, label)} not in {VALID_BITS}")
        if self.cr < 1 or self.resdnet_blocks < 1 or self.cformer_per_block < 1:
            raise ConfigError("cr, resdnet_blocks and cformer_per_block must be >= 1")

    def fingerprint(self) -> str:
        return ";".join(["v2"] + [f"{key}={int(getattr(self, f))}" for key, f in FINGERPRINT])

    def backbone_geometry(self) -> str:
        """The part of the fingerprint that must match for checkpoint init."""
        return ";".join(f"{key}={getattr(self, f)}" for key, f in BACKBONE)

    @property
    def shortcut_bits(self) -> int:
        """The shortcut convs' width: 8 bits, or the widest stage's if wider."""
        return max(8, self.fem_bits, self.enh_bits, self.vrm_bits)

    @property
    def quantized(self) -> bool:
        """Some stage runs below 32 bits (the shortcuts only if every stage does)."""
        return min(self.fem_bits, self.enh_bits, self.vrm_bits) < 32


def every_stage(bits: int) -> dict:
    """The stage widths of a network that runs all three stages at ``bits``."""
    return dict(fem_bits=bits, enh_bits=bits, vrm_bits=bits)


# (key, attribute) of each entry of a "v2;..." fingerprint, in order; every
# value is an integer (a flag is 0 or 1), ``short`` the derived shortcut width.
# The first five rows are the backbone geometry, shared with an init checkpoint.
FINGERPRINT = (("C", "base_channels"), ("N", "resdnet_blocks"), ("K", "cformer_per_block"),
               ("heads", "heads"), ("T", "cr"), ("femb", "fem_bits"), ("enhb", "enh_bits"),
               ("vrmb", "vrm_bits"), ("short", "shortcut_bits"), ("fem", "use_fem_shortcuts"),
               ("vrm", "use_vrm_shortcuts"), ("shift", "use_qk_shift"))
BACKBONE = FINGERPRINT[:5]


def parse_fingerprint(fp: str) -> QNetConfig:
    """The config a fingerprint names, built from its field entries; one that
    is not exactly that config's ``fingerprint()`` is a ConfigError."""
    head, *parts = fp.split(";")
    if head != "v2":
        raise ConfigError(f"unrecognized config fingerprint '{fp}'")
    kv = dict(part.partition("=")[::2] for part in parts)
    types = {f.name: bool if f.type == "bool" else int for f in fields(QNetConfig)}
    try:
        cfg = QNetConfig(**{f: types[f](int(kv[key])) for key, f in FINGERPRINT if f in types})
    except (KeyError, ValueError) as exc:   # a missing or non-integer field
        raise ConfigError(f"malformed config fingerprint '{fp}': {exc!r}") from exc
    if cfg.fingerprint() != fp:   # an unknown, repeated, reordered or padded entry; a wrong short
        raise ConfigError(f"malformed config fingerprint '{fp}': "
                          f"the canonical form is '{cfg.fingerprint()}'")
    return cfg


VARIANT_NAMES = ("fp32", "q8", "q4", "q3", "q2", "q4_baseline", "q3_baseline", "q2_baseline")


def make_variant(name: str, **overrides) -> QNetConfig:
    """Named quantization presets; ``overrides`` set further config fields.

    q8 runs every stage at 8 bits and only adds the query/key shift (it has
    no shortcuts); q4/q3/q2 run all three stages at 4/3/2 bits and enable
    the 8-bit shortcut modules plus the shift; the *_baseline presets run
    all three stages at 4/3/2 bits with no additions; fp32 is the
    unquantized backbone.
    """
    if name == "fp32":
        return QNetConfig(**overrides)
    if name == "q8":
        return QNetConfig(**every_stage(8), use_qk_shift=True, **overrides)
    if name in ("q4", "q3", "q2"):
        return QNetConfig(**every_stage(int(name[1])), use_fem_shortcuts=True,
                          use_vrm_shortcuts=True, use_qk_shift=True, **overrides)
    if name.endswith("_baseline") and name[:2] in ("q4", "q3", "q2"):
        return QNetConfig(**every_stage(int(name[1])), **overrides)
    raise ConfigError(f"unknown variant '{name}'; expected one of {VARIANT_NAMES}")


# ---------------------------------------------------------------------------
# module plumbing
# ---------------------------------------------------------------------------

class Module:
    """Minimal parameter registry with dotted-name traversal."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._modules: dict[str, Module] = {}
        self._quantizers: list = []

    def register_param(self, name: str, tensor: Tensor):
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module"):
        self._modules[name] = module
        return module

    def register_quantizer(self, name: str, q):
        for pname, p in q.params():
            self.register_param(f"{name}.{pname}", p)
        self._quantizers.append(q)
        return q

    def named_params(self, prefix: str = ""):
        for n, p in self._params.items():
            yield prefix + n, p
        for n, m in self._modules.items():
            yield from m.named_params(prefix + n + ".")

    def named_modules(self, prefix: str = ""):
        yield prefix.rstrip("."), self
        for n, m in self._modules.items():
            yield from m.named_modules(prefix + n + ".")

    def params(self):
        return [p for _, p in self.named_params()]

    def quantizers(self):
        """Every quantizer, this module's first, then its children's."""
        return [q for _, m in self.named_modules() for q in m._quantizers]

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.named_params()}

    def expected_state(self) -> dict:
        """{name: (dtype, shape)} of this module's float32 parameters."""
        return {name: (np.dtype(np.float32), p.data.shape) for name, p in self.named_params()}

    def load_state(self, state: dict, expect: Optional[dict] = None, required=None):
        """Set each parameter that ``state`` holds, once :func:`check_state`
        finds that it fits ``expect`` (default: exactly this module's)."""
        check_state(state, self.expected_state() if expect is None else expect, required)
        for name, p in self.named_params():
            if name in state:
                p.data = np.ascontiguousarray(state[name])


def check_state(state: dict, expect: dict, required=None):
    """The one test that a state fits a network. ``expect`` maps each entry
    the state may hold to its (dtype, shape); ``required`` names the entries
    it must hold (default: all of ``expect``). A state that does not fit
    raises FormatError naming the first missing and the first unexpected
    entry, or else the first entry of the wrong dtype or shape."""
    missing = sorted(set(expect if required is None else required) - set(state))
    unexpected = sorted(set(state) - set(expect))
    faults = [f"no entry '{missing[0]}'"] if missing else []
    if unexpected:
        faults.append(f"unexpected entry '{unexpected[0]}' has no counterpart in the network")
    if faults:
        raise FormatError("state does not fit the network: " + "; ".join(faults))
    for name in sorted(state):
        arr, (dtype, shape) = state[name], expect[name]
        if arr.dtype != dtype or arr.shape != shape:
            raise FormatError(f"state entry '{name}' is {arr.dtype} {arr.shape}, "
                              f"network expects {dtype} {shape}")


def _he_weight(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    std = math.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


class QLayer(Module):
    """What :class:`QConv3d` and :class:`QLinear` share: a weight with one
    weight quantizer, one input activation quantizer, a full-precision bias,
    all at ``bits`` (at 32 the quantizers are the identity), an optional
    GELU on the output, and the code-domain forward.

    Without a tape every layer runs in the code domain
    (:meth:`code_forward`): on its installed integer kernel if it has one,
    else on the codes of its float weight; a 32-bit layer's codes are its
    float values. Under a tape it runs ``fake_quant`` on input and weight,
    the float contraction and, with ``gelu`` set,
    :func:`~qsci.autodiff.gelu`, which training differentiates. The two
    forwards are equal in exact arithmetic and differ by float rounding
    only.
    """

    def __init__(self, weight: np.ndarray, out_features: int, bits: int, gelu: bool = False):
        super().__init__()
        self.bits = bits
        self.gelu = gelu
        self.weight = self.register_param("weight", Tensor(weight))
        self.bias = self.register_param("bias", Tensor(np.zeros(out_features, np.float32)))
        self.aq = self.register_quantizer("aq", ActQuantizer(bits))
        self.wq = self.register_quantizer("wq", ActQuantizer(bits, symmetric=True))
        self.int_kernel = None       # set by packed.install_packed; forward then runs it

    def _untaped(self, x: Tensor) -> Optional[Tensor]:
        """The forward in the code domain, or None under a tape, where the
        fake-quant forward runs. A GELU layer's output is marked as scanned:
        ``gelu`` scanned it, or the table it came from."""
        if self.int_kernel is not None:
            out = Tensor(self.int_kernel(x))
        elif ad.active_tape() is None:
            out = Tensor(self.code_forward(x, act_quantize(self.weight.data, self.wq)))
        else:
            return None
        if self.gelu:
            out.mark_scanned()
        return out

    def code_forward(self, x, w_codes: np.ndarray) -> np.ndarray:
        """``x`` (a Tensor or an array) through the layer from activation and
        weight codes, float32. A Tensor that carries the scan mark is
        quantized without a second scan, and one without it is marked (see
        :mod:`qsci.quantize`).

        The codes are contracted exactly in the float type of
        :func:`~qsci.quantize.code_dtype`: every partial sum is an integer
        that type holds, so any summation order gives the same bits, and
        :meth:`contract` may group the taps as it likes. With
        x = alpha_x * x_code + z and w = alpha_w * w_code, the float32
        epilogue is then ``fl(fl(acc*s) + off)``, with ``s = alpha_x*alpha_w``
        and ``off = alpha_w*z*corr + bias``, where ``corr`` sums the weight
        codes over the taps that meet each output. A 32-bit layer takes the
        same steps on its float values with alpha = 1 and z = 0, so its
        output is the float32 contraction plus the bias; that contraction
        rounds, and its grouping decides the last bits.

        A GELU layer then runs :func:`~qsci.autodiff.gelu` on that. Where
        the accumulators are integers (below 32 bits) and ``off`` is one
        value per channel (an unpadded layer), an output is a function of
        its channel and its accumulator alone, so the epilogue and GELU run
        once per accumulator value in each channel's [min, max] and every
        output is gathered by its accumulator
        (:func:`_gelu_by_accumulator`): the same bits, by construction. A
        32-bit layer, a padded layer and a table that would hold more than a
        quarter as many entries as the output (as at 8 bits) run the
        epilogue and GELU on every output.
        """
        w_codes = w_codes.astype(self.code_dtype(), copy=False)
        x_codes = act_quantize(x, self.aq).astype(w_codes.dtype, copy=False)
        acc = self.contract(x_codes, w_codes)
        step = self._code_step()
        offset = self.correction(x.shape, w_codes).astype(np.float32, copy=False)
        offset *= np.float32(float(self.wq.alpha.data[0]) * float(self.aq.z.data[0]))
        offset += self.bias.data.reshape((-1,) + (1,) * (offset.ndim - 1))
        if self.gelu and self.bits < 32 and offset.size == self.out_features:
            out = _gelu_by_accumulator(acc, step, offset)
            if out is not None:
                return out
        out = acc.astype(np.float32, copy=False)
        out *= step
        out += offset
        return ad.gelu(Tensor(out)).data if self.gelu else out

    def _code_step(self) -> np.float32:
        """``alpha_x*alpha_w``: the value of one accumulator unit."""
        return np.float32(float(self.aq.alpha.data[0]) * float(self.wq.alpha.data[0]))

    def code_dtype(self):
        """The float type in which this layer's code contraction is exact;
        float32 at 32 bits, where the contraction rounds."""
        return code_dtype(self.weight.size // self.out_features, self.bits)


class QConv3d(QLayer):
    """3-D convolution with one input activation quantizer and one weight
    quantizer; bias stays full precision. A 32-bit quantizer is the
    identity."""

    def __init__(self, rng, in_ch, out_ch, kernel, stride=(1, 1, 1), padding=(0, 0, 0),
                 bits=32, zero_init=False, gelu=False):
        self.in_ch = in_ch
        self.out_ch = self.out_features = out_ch
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        kt, kh, kw = self.kernel
        shape = (out_ch, in_ch, kt, kh, kw)
        if zero_init:
            w = np.zeros(shape, dtype=np.float32)
        else:
            w = _he_weight(rng, shape, in_ch * kt * kh * kw)
        super().__init__(w, out_ch, bits, gelu)

    def forward(self, x: Tensor) -> Tensor:
        out = self._untaped(x)
        if out is not None:
            return out
        xq = fake_quant(x, self.aq)
        wq = fake_quant(self.weight, self.wq)
        out = ad.conv3d(xq, wq, self.bias, self.stride, self.padding)
        return ad.gelu(out) if self.gelu else out

    def contract(self, x_codes, w_codes):
        """[N,C,T,H,W] x [O,C,kt,kh,kw] codes -> [N,O,To,Ho,Wo], by one of
        three routes; none pads the input.

        - An unpadded 1x1x1 unit-stride conv is one channel GEMM on a view
          of the input.
        - A unit-stride conv with fewer outputs than input channels (here
          ``conv_out``, 16 -> 1) runs channels first (kn2row): per sample,
          one GEMM ``[k3*O, C] @ [C, T*H*W]`` gives every tap's channel sum
          at every input voxel, and each tap's window of it is added into
          the output.
        - Otherwise each sample fills one reused patch matrix of its kh*kw
          spatial taps over its T real frames, [C*kh*kw, T*Ho*Wo]. Temporal
          tap ``it`` adds one GEMM into the output frames that read a real
          frame through it, over the columns of the frames they read
          (:func:`~qsci.autodiff.axis_windows`): at temporal stride 1 a
          column range of the matrix, else a strided copy. A tap that reads
          only padding adds nothing. A tap that covers every output frame
          writes first, else the output starts from zeros.

        Regrouping the sum is exact for codes: every partial sum of a code
        contraction is an integer whose magnitude the dtype bound of
        :func:`~qsci.quantize.code_dtype` keeps exactly representable, so the
        result equals one 27-tap GEMM, bit for bit. For the float values of
        a 32-bit layer it is a rounding: each route sums in its own order,
        so the result is within float32 summation error of that GEMM, not
        equal to it.
        """
        n, o, to, ho, wo = conv3d_output_shape(x_codes.shape, self.weight.shape,
                                               self.stride, self.padding)
        c = self.in_ch
        unit_stride = self.stride == (1, 1, 1)
        if self.kernel == (1, 1, 1) and unit_stride and not any(self.padding):
            return (w_codes.reshape(o, c) @ x_codes.reshape(n, c, -1)).reshape(n, o, to, ho, wo)
        if unit_stride and o < c:
            return self._contract_channels_first(x_codes, w_codes, (to, ho, wo))
        t = x_codes.shape[2]
        kt, kh, kw = self.kernel
        # [kt, O, C*kh*kw]: each temporal tap's weight, columns ordered as the patch rows
        w_taps = w_codes.reshape(o, c, kt, -1).transpose(2, 0, 1, 3).reshape(kt, o, -1)
        taps = [(it, window) for it, window in
                enumerate(axis_windows(t, to, kt, self.stride[0], self.padding[0])) if window]
        taps.sort(key=lambda tap: tap[1][0] != slice(0, to))    # a covering tap first
        covered = bool(taps) and taps[0][1][0] == slice(0, to)
        hw = ho * wo
        out = (np.empty if covered else np.zeros)((n, o, to * hw), dtype=w_codes.dtype)
        part = np.empty((o, to * hw), dtype=w_codes.dtype) if len(taps) > covered else None
        for i, patches in enumerate(sample_patches(x_codes, (1, kh, kw), (1,) + self.stride[1:],
                                                   (0,) + self.padding[1:])):
            frames = patches.reshape(-1, t, hw)
            for j, (it, (dst, src)) in enumerate(taps):
                cols = frames[:, src].reshape(len(frames), -1)
                if j == 0 and covered:
                    np.matmul(w_taps[it], cols, out=out[i])
                else:
                    out[i][:, dst.start * hw:dst.stop * hw] += np.matmul(
                        w_taps[it], cols, out=part[:, :cols.shape[1]])
        return out.reshape(n, o, to, ho, wo)

    def _contract_channels_first(self, x_codes, w_codes, out_dims):
        """The channels-first route of :meth:`contract`."""
        n, c = x_codes.shape[:2]
        o = self.out_ch
        # [k3*O, C], tap-major: row k*O + j is tap k of output channel j
        w_rows = w_codes.reshape(o, c, -1).transpose(2, 0, 1).reshape(-1, c)
        windows = tap_windows(x_codes.shape[2:], self.kernel, self.stride, self.padding,
                              out_dims)
        out = np.zeros((n, o) + out_dims, dtype=w_codes.dtype)
        for x_i, out_i in zip(x_codes, out):
            sums = (w_rows @ x_i.reshape(c, -1)).reshape((-1, o) + x_i.shape[1:])
            for k, dst, src in windows:
                out_i[(...,) + dst] += sums[k][(...,) + src]
        return out

    def correction(self, in_shape, w_codes):
        """[O, To, Ho, Wo]: each output's sum of the weight codes over the
        taps that meet the zero-padded input. The codes are summed over C,
        then each tap axis is contracted with its 0/1 valid-tap matrix; an
        unpadded axis stays size 1 (every tap meets every output). An
        unpadded layer and a 32-bit one return [O, 1, 1, 1], the sum over
        all taps: at 32 bits :meth:`code_forward` multiplies the map by
        alpha_w*z = 0, so no map over the outputs is built."""
        if self.bits == 32 or not any(self.padding):
            return w_codes.reshape(self.out_ch, -1).sum(axis=1).reshape(-1, 1, 1, 1)
        out_dims = conv3d_output_shape(in_shape, self.weight.shape, self.stride,
                                       self.padding)[2:]
        vt, vh, vw = (_valid_taps(*axis, w_codes.dtype) for axis in
                      zip(in_shape[2:], out_dims, self.kernel, self.stride, self.padding))
        corr = vh @ (w_codes.sum(axis=1) @ vw.T)          # [O, kt, Ho, Wo]
        o, kt, ho, wo = corr.shape
        return (vt @ corr.reshape(o, kt, ho * wo)).reshape(o, -1, ho, wo)


def _valid_taps(n_in, n_out, k, stride, pad, dtype) -> np.ndarray:
    """[n_out, k]: 1 where tap k of output position o reads inside the input
    of length n_in (its :func:`~qsci.autodiff.axis_windows` output window),
    else 0; unpadded, one row of ones broadcasts."""
    if not pad:
        return np.ones((1, k), dtype)
    valid = np.zeros((n_out, k), dtype)
    for j, window in enumerate(axis_windows(n_in, n_out, k, stride, pad)):
        if window:
            valid[window[0], j] = 1
    return valid


def _gelu_by_accumulator(acc, step, offset) -> Optional[np.ndarray]:
    """``gelu(fl(fl(acc*step) + offset))`` over integer accumulators ``acc``,
    float32, where ``offset`` broadcasts against the trailing axes of ``acc``
    and holds one value per channel along its first axis; None where the
    table below would hold more than a quarter as many entries as ``acc``.

    The table has one entry per accumulator value in each channel's
    [min, max], computed with the epilogue's own float32 ops, and each output
    is its channel's entry at its accumulator: the bits of the direct
    formula. An accumulator of -0.0 takes the entry of 0, which differs
    only where the offset is -0.0; such a layer runs the direct formula.
    """
    axis = acc.ndim - offset.ndim
    reduced = tuple(a for a in range(acc.ndim) if a != axis)
    if not acc.size or np.signbit(offset[offset == 0]).any():
        return None
    lo = acc.min(axis=reduced).astype(np.intp)
    spans = acc.max(axis=reduced).astype(np.intp) - lo + 1
    if 4 * int(spans.sum()) > acc.size:
        return None
    first = np.cumsum(spans) - spans                  # each channel's first entry
    chan = np.repeat(np.arange(spans.size), spans)    # each entry's channel
    keys = (np.arange(chan.size) - first[chan] + lo[chan]).astype(np.float32)
    keys *= step
    keys += offset.reshape(-1)[chan]
    table = ad.gelu(Tensor(keys)).data
    slots = acc.astype(np.intp)
    slots -= (lo - first).reshape((-1,) + (1,) * (acc.ndim - axis - 1))
    return table.take(slots)


class QLinear(QLayer):
    """Token-wise linear layer, weight stored [in, out], same quantizer pair."""

    def __init__(self, rng, in_features, out_features, bits=32):
        self.in_features = in_features
        self.out_features = out_features
        super().__init__(_he_weight(rng, (in_features, out_features), in_features),
                         out_features, bits)

    def forward(self, x: Tensor) -> Tensor:
        out = self._untaped(x)
        if out is not None:
            return out
        xq = fake_quant(x, self.aq)
        wq = fake_quant(self.weight, self.wq)
        return ad.matmul(xq, wq) + self.bias

    def contract(self, x_codes, w_codes):
        """[..., in] x [in, out] codes -> [..., out], one GEMM over every
        token."""
        rows = x_codes.reshape(-1, self.in_features) @ w_codes
        return rows.reshape(x_codes.shape[:-1] + (self.out_features,))

    def correction(self, in_shape, w_codes):
        """[out]: every input meets every weight."""
        return w_codes.sum(axis=0)


class LayerNorm(Module):
    """Normalization over the channel axis of [B, T, C] tokens, one
    :func:`~qsci.autodiff.layer_norm` node."""

    EPS = 1e-5

    def __init__(self, channels: int):
        super().__init__()
        self.gain = self.register_param("gain", Tensor(np.ones(channels, dtype=np.float32)))
        self.bias = self.register_param("bias", Tensor(np.zeros(channels, dtype=np.float32)))

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias, self.EPS)


class ShiftedAttention(Module):
    """Temporal self-attention with quantized projections and optional
    learnable query/key distribution shifts.

    Logits use the dequantized query/key values scaled by 1/sqrt(head_dim);
    attention probabilities pass through their own quantizer before weighting
    the (unquantized) values. With zero shifts the layer is exactly the
    unshifted quantized attention.
    """

    def __init__(self, rng, channels: int, heads: int, bits: int, shift: bool):
        super().__init__()
        if channels % heads != 0:
            raise ShapeError(f"channels {channels} not divisible by heads {heads}")
        self.channels = channels
        self.heads = heads
        self.head_dim = channels // heads
        self.shift = shift
        self.q_proj = self.register_module("q_proj", QLinear(rng, channels, channels, bits))
        self.k_proj = self.register_module("k_proj", QLinear(rng, channels, channels, bits))
        self.v_proj = self.register_module("v_proj", QLinear(rng, channels, channels, bits))
        self.out_proj = self.register_module("out_proj", QLinear(rng, channels, channels, bits))
        if shift:
            self.beta_q = self.register_param("beta_q", Tensor(np.zeros(channels, np.float32)))
            self.beta_k = self.register_param("beta_k", Tensor(np.zeros(channels, np.float32)))
        else:
            self.beta_q = None
            self.beta_k = None
        self.qq = self.register_quantizer("qq", ActQuantizer(bits))
        self.kq = self.register_quantizer("kq", ActQuantizer(bits))
        self.pq = self.register_quantizer("pq", ActQuantizer(bits))

    def _split_heads(self, x: Tensor, b: int, t: int) -> Tensor:
        x = ad.reshape(x, (b, t, self.heads, self.head_dim))
        return ad.transpose(x, (0, 2, 1, 3))

    def forward(self, tokens: Tensor) -> Tensor:
        b, t, c = tokens.shape
        if c != self.channels:
            raise ShapeError(f"token channels {c} do not match layer channels {self.channels}")
        q = self.q_proj.forward(tokens)
        k = self.k_proj.forward(tokens)
        v = self.v_proj.forward(tokens)
        if self.shift:
            q = q + self.beta_q
            k = k + self.beta_k
        qh = self._split_heads(fake_quant(q, self.qq), b, t)
        kh = self._split_heads(fake_quant(k, self.kq), b, t)
        vh = self._split_heads(v, b, t)
        logits = ad.scale(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))),
                          1.0 / math.sqrt(self.head_dim))
        probs = ad.softmax(logits)
        mixed = ad.matmul(fake_quant(probs, self.pq), vh)
        merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (b, t, c))
        return self.out_proj.forward(merged)


def _to_tokens(x: Tensor):
    """[N, C, T, H, W] -> ([N*H*W, T, C], restore shape)."""
    n, c, t, h, w = x.shape
    perm = ad.transpose(x, (0, 3, 4, 2, 1))
    return ad.reshape(perm, (n * h * w, t, c)), (n, c, t, h, w)


def _from_tokens(tok: Tensor, shape) -> Tensor:
    n, c, t, h, w = shape
    x = ad.reshape(tok, (n, h, w, t, c))
    return ad.transpose(x, (0, 4, 3, 1, 2))


class CFormerBlock(Module):
    """Residual block fusing a 3-D conv branch with the temporal attention
    branch (concat + 1x1x1), followed by a quantized pointwise MLP whose GELU
    is ``mlp_in``'s own output activation (see :meth:`QLayer.code_forward`).
    """

    MLP_RATIO = 2

    def __init__(self, rng, channels: int, heads: int, bits: int, shift: bool):
        super().__init__()
        c = channels
        self.conv = self.register_module(
            "conv", QConv3d(rng, c, c, (3, 3, 3), padding=(1, 1, 1), bits=bits))
        self.norm = self.register_module("norm", LayerNorm(c))
        self.attn = self.register_module(
            "attn", ShiftedAttention(rng, c, heads, bits, shift))
        self.fuse = self.register_module(
            "fuse", QConv3d(rng, 2 * c, c, (1, 1, 1), bits=bits))
        hidden = self.MLP_RATIO * c
        self.mlp_in = self.register_module(
            "mlp_in", QConv3d(rng, c, hidden, (1, 1, 1), bits=bits, gelu=True))
        self.mlp_out = self.register_module(
            "mlp_out", QConv3d(rng, hidden, c, (1, 1, 1), bits=bits))

    def forward(self, x: Tensor) -> Tensor:
        conv_branch = ad.leaky_relu(self.conv.forward(x))
        tokens, shape = _to_tokens(x)
        attn_tokens = self.attn.forward(self.norm.forward(tokens))
        attn_branch = _from_tokens(attn_tokens, shape)
        fused = self.fuse.forward(ad.concat([conv_branch, attn_branch], axis=1))
        return x + self.mlp_out.forward(self.mlp_in.forward(fused))


class ResDNetBlock(Module):
    """K CFormer blocks with a tail fusion conv and a residual skip."""

    def __init__(self, rng, channels: int, heads: int, k: int, bits: int, shift: bool):
        super().__init__()
        self.cformers = [
            self.register_module(f"cf{i}", CFormerBlock(rng, channels, heads, bits, shift))
            for i in range(k)
        ]
        self.tail = self.register_module(
            "tail", QConv3d(rng, channels, channels, (1, 1, 1), bits=bits))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for blk in self.cformers:
            h = blk.forward(h)
        return x + self.tail.forward(h)


def check_frame_size(h: int, w: int):
    """Raise ShapeError unless the network takes h x w frames: the strided
    stage halves both extents, so they must be even."""
    if h % 2 or w % 2:
        raise ShapeError(f"spatial extents must be even for the strided stage, got {h}x{w}")


class FeatureExtraction(Module):
    """Strided conv stack over the estimate stack; optional zero-initialized
    8-bit 1x1x1 shortcut convs bridge each stage, the last one fed through a
    space-to-channel rearrangement to match the strided output size."""

    IN_CH = 2

    def __init__(self, rng, cfg: QNetConfig):
        super().__init__()
        c = cfg.base_channels
        bits = cfg.fem_bits
        self.use_shortcuts = cfg.use_fem_shortcuts
        self.conv_a = self.register_module(
            "conv_a", QConv3d(rng, self.IN_CH, c, (3, 3, 3), padding=(1, 1, 1), bits=bits))
        self.conv_b = self.register_module(
            "conv_b", QConv3d(rng, c, c, (3, 3, 3), stride=(1, 2, 2), padding=(1, 1, 1),
                              bits=bits))
        if self.use_shortcuts:
            sb = cfg.shortcut_bits
            self.short_a = self.register_module(
                "short_a", QConv3d(rng, self.IN_CH, c, (1, 1, 1), bits=sb, zero_init=True))
            self.short_b = self.register_module(
                "short_b", QConv3d(rng, 4 * c, c, (1, 1, 1), bits=sb, zero_init=True))

    def forward(self, x: Tensor) -> Tensor:
        n, ch, t, h, w = x.shape
        if ch != self.IN_CH:
            raise ShapeError(f"estimate stack must have {self.IN_CH} channels, got {ch}")
        check_frame_size(h, w)
        h1 = self.conv_a.forward(x)
        if self.use_shortcuts:
            h1 = h1 + self.short_a.forward(x)
        h1 = ad.leaky_relu(h1)
        h2 = self.conv_b.forward(h1)
        if self.use_shortcuts:
            h2 = h2 + self.short_b.forward(ad.pixel_unshuffle_spatial(h1, 2))
        return ad.leaky_relu(h2)


class VideoReconstruction(Module):
    """Upsampling conv stack emitting T frames in [0, 1]; optional 8-bit
    1x1x1 shortcut convs parallel each stage.

    The network predicts a correction on top of the normalized measurement
    estimate (the base argument), so the untrained model already reproduces
    the estimate instead of saturating the output clamp.
    """

    def __init__(self, rng, cfg: QNetConfig):
        super().__init__()
        c = cfg.base_channels
        bits = cfg.vrm_bits
        self.use_shortcuts = cfg.use_vrm_shortcuts
        self.conv_up = self.register_module(
            "conv_up", QConv3d(rng, c, 4 * c, (1, 3, 3), padding=(0, 1, 1), bits=bits))
        # zero-init so the untrained model emits the estimate unchanged
        self.conv_out = self.register_module(
            "conv_out", QConv3d(rng, c, 1, (1, 3, 3), padding=(0, 1, 1), bits=bits,
                                zero_init=True))
        if self.use_shortcuts:
            sb = cfg.shortcut_bits
            self.short_up = self.register_module(
                "short_up", QConv3d(rng, c, 4 * c, (1, 1, 1), bits=sb, zero_init=True))
            self.short_out = self.register_module(
                "short_out", QConv3d(rng, c, 1, (1, 1, 1), bits=sb, zero_init=True))

    def forward(self, x: Tensor, base: Tensor) -> Tensor:
        u = self.conv_up.forward(x)
        if self.use_shortcuts:
            u = u + self.short_up.forward(x)
        u = ad.leaky_relu(ad.pixel_shuffle_spatial(u, 2))
        y = self.conv_out.forward(u)
        if self.use_shortcuts:
            y = y + self.short_out.forward(u)
        return ad.clamp(y + base, 0.0, 1.0)


class QNet(Module):
    """Composition: estimate stack -> feature extraction -> residual
    enhancement blocks -> video reconstruction."""

    def __init__(self, cfg: QNetConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
        self.fem = self.register_module("fem", FeatureExtraction(rng, cfg))
        self.blocks = [
            self.register_module(
                f"block{i}",
                ResDNetBlock(rng, cfg.base_channels, cfg.heads, cfg.cformer_per_block,
                             cfg.enh_bits, cfg.use_qk_shift))
            for i in range(cfg.resdnet_blocks)
        ]
        self.vrm = self.register_module("vrm", VideoReconstruction(rng, cfg))

    def forward_stack(self, stack: Tensor) -> Tensor:
        """[B, 2, T, H, W] estimate stacks -> [B, T, H, W] frames. The stack
        is data, which no gradient reaches; its estimate channel is copied."""
        b, _, t, h, w = stack.shape
        if t != self.cfg.cr:
            raise ShapeError(f"stack has T={t}, model expects T={self.cfg.cr}")
        feat = self.fem.forward(stack)
        for blk in self.blocks:
            feat = blk.forward(feat)
        base = Tensor(stack.data[:, :1])   # the broadcast estimate channel
        y = self.vrm.forward(feat, base)
        return ad.reshape(y, (b, t, h, w))

    def reconstruct(self, meas: Measurement, masks: MaskSet) -> VideoClip:
        stack = Tensor(initial_estimate(meas, masks))
        out = self.forward_stack(stack)
        return VideoClip(frames=out.data[0].copy())

    # -- initialization / calibration -------------------------------------

    def init_from_backbone(self, state: dict, backbone_geometry: str):
        """Load a checkpoint of the same backbone geometry into a (possibly
        quantized) model.

        The checkpoint must hold every full-precision backbone parameter, and
        each of its entries must be one that a network of this geometry can
        carry (the backbone plus quantizer scales/zero-points, query/key
        shifts and shortcut convs), with that network's dtype and shape.
        Entries this model has are loaded; the others are skipped, and model
        parameters absent from the checkpoint keep their initial values. A
        geometry mismatch is a ConfigError; entries that do not fit are a
        FormatError (see :func:`check_state`).
        """
        if backbone_geometry != self.cfg.backbone_geometry():
            raise ConfigError(
                f"init checkpoint geometry '{backbone_geometry}' does not match "
                f"model geometry '{self.cfg.backbone_geometry()}'"
            )
        geometry = {f: getattr(self.cfg, f) for _, f in BACKBONE}
        # q4 carries every quantizer, query/key shift and shortcut conv there is
        self.load_state(state, QNet(make_variant("q4", **geometry)).expected_state(),
                        required=QNet(make_variant("fp32", **geometry)).expected_state())

    def _forward_with_hooks(self, stack: np.ndarray, hooks):
        """One forward of ``stack`` with each (quantizer, hook) pair armed;
        every hook is cleared afterwards, also when the forward raises."""
        try:
            for q, hook in hooks:
                q.on_next = hook
            self.forward_stack(Tensor(np.asarray(stack, dtype=np.float32)))
        finally:
            for q in self.quantizers():
                q.on_next = None

    def calibrate_quantizers(self, stack: np.ndarray):
        """One forward pass that refits every quantizer range to the data
        reaching it."""
        self._forward_with_hooks(stack, [(q, q.calibrate) for q in self.quantizers()])

    def alpha_params(self):
        """Learnable quantizer scales (clamped positive after each step)."""
        return [q.alpha for q in self.quantizers() if q.bits < 32]

    def quant_layers(self):
        """(name, layer) for every weight-bearing layer, forward order."""
        return [(name, m) for name, m in self.named_modules()
                if isinstance(m, QLayer)]

    def audit(self, input_hw) -> list:
        """Structural table: every weight-bearing layer with its bit
        assignment, parameter count and MAC-based FLOPs for the given input.

        Runs one dummy forward that records each layer's input shape to
        resolve data-dependent shapes.
        """
        h, w = input_hw
        layers = self.quant_layers()
        in_shapes = {}

        def recorder(name):
            def record(x):
                in_shapes[name] = x.shape
            return record

        self._forward_with_hooks(np.zeros((1, 2, self.cfg.cr, h, w), dtype=np.float32),
                                 [(layer.aq, recorder(name)) for name, layer in layers])
        rows = []
        for name, layer in layers:
            if name not in in_shapes:
                raise ShapeError(f"layer '{name}' not exercised by audit forward")
            in_shape = in_shapes[name]
            if isinstance(layer, QConv3d):
                kt, kh, kw = layer.kernel
                out_shape = conv3d_output_shape(in_shape, layer.weight.shape,
                                                layer.stride, layer.padding)
                positions = int(np.prod(out_shape[2:])) * out_shape[0]
                macs = positions * layer.out_ch * layer.in_ch * kt * kh * kw
                kind = "conv3d"
                geometry = f"{layer.in_ch}x{layer.out_ch}x{kt}x{kh}x{kw}"
            else:
                tokens = int(np.prod(in_shape[:-1]))
                macs = tokens * layer.in_features * layer.out_features
                kind = "linear"
                geometry = f"{layer.in_features}x{layer.out_features}"
            rows.append({
                "name": name,
                "kind": kind,
                "geometry": geometry,
                "w_bits": layer.bits,
                "a_bits": layer.bits,
                "weight_params": layer.weight.size,
                "bias_params": layer.out_features,
                "flops": 2 * macs,
            })
        return rows
