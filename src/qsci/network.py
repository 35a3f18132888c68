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
one weight quantizer at its assigned bit-width; a 32-bit assignment disables
quantization for that layer. Under a tape, a quantized layer runs fake-quant
values through the float contraction, which training differentiates; without
one (evaluation, calibration, a packed model) it computes the same layer in
the code domain, an exact contraction of integer codes (see
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
from .autodiff import Tensor, conv3d_output_shape, conv_patches
from .errors import ConfigError, FormatError, ShapeError
from .quantize import (VALID_BITS, ActQuantizer, WeightQuantizer, act_quantize, code_dtype,
                       fake_quant)
from .sci import MaskSet, Measurement, VideoClip, initial_estimate


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QNetConfig:
    base_channels: int = 16
    resdnet_blocks: int = 2
    cformer_per_block: int = 2
    heads: int = 2
    cr: int = 4                      # compression ratio T
    body_bits: int = 32
    shortcut_bits: int = 32
    use_fem_shortcuts: bool = False
    use_vrm_shortcuts: bool = False
    use_qk_shift: bool = False
    # optional per-stage overrides of body_bits (bit-width ablation grid)
    fem_bits: Optional[int] = None
    enh_bits: Optional[int] = None
    vrm_bits: Optional[int] = None

    def __post_init__(self):
        if self.base_channels % self.heads != 0:
            raise ConfigError(
                f"base_channels {self.base_channels} not divisible by heads {self.heads}"
            )
        for label, bits in (("body_bits", self.body_bits), ("shortcut_bits", self.shortcut_bits)):
            if bits not in VALID_BITS:
                raise ConfigError(f"{label}={bits} not in {VALID_BITS}")
        for label, bits in (("fem_bits", self.fem_bits), ("enh_bits", self.enh_bits),
                            ("vrm_bits", self.vrm_bits)):
            if bits is not None and bits not in VALID_BITS:
                raise ConfigError(f"{label}={bits} not in {VALID_BITS}")
        if self.shortcut_bits < self.body_bits:
            raise ConfigError(
                f"shortcut_bits {self.shortcut_bits} must be >= body_bits {self.body_bits}"
            )
        if self.cr < 1 or self.resdnet_blocks < 1 or self.cformer_per_block < 1:
            raise ConfigError("cr, resdnet_blocks and cformer_per_block must be >= 1")

    def stage_bits(self, stage: str) -> int:
        override = {"fem": self.fem_bits, "enh": self.enh_bits, "vrm": self.vrm_bits}[stage]
        return self.body_bits if override is None else override

    def fingerprint(self) -> str:
        return ";".join(["v1"] + [f"{key}={_fp_value(getattr(self, f))}"
                                  for key, f in FINGERPRINT])

    def backbone_geometry(self) -> str:
        """The part of the fingerprint that must match for checkpoint init."""
        return ";".join(f"{key}={getattr(self, f)}" for key, f in BACKBONE)

    @property
    def quantized(self) -> bool:
        bits = [self.stage_bits(s) for s in ("fem", "enh", "vrm")]
        if any(b < 32 for b in bits):
            return True
        return (self.use_fem_shortcuts or self.use_vrm_shortcuts) and self.shortcut_bits < 32


# (key, field) of each fingerprint entry, in order. The first five rows are
# the backbone geometry, which an init checkpoint must share with the network.
FINGERPRINT = (("C", "base_channels"), ("N", "resdnet_blocks"), ("K", "cformer_per_block"),
               ("heads", "heads"), ("T", "cr"), ("body", "body_bits"),
               ("short", "shortcut_bits"), ("fem", "use_fem_shortcuts"),
               ("vrm", "use_vrm_shortcuts"), ("shift", "use_qk_shift"), ("femb", "fem_bits"),
               ("enhb", "enh_bits"), ("vrmb", "vrm_bits"))
BACKBONE = FINGERPRINT[:5]


def _fp_value(v) -> str:
    return "-" if v is None else str(int(v))


def parse_fingerprint(fp: str) -> QNetConfig:
    head, *parts = fp.split(";")
    if head != "v1":
        raise ConfigError(f"unrecognized config fingerprint '{fp}'")
    kv = dict(part.partition("=")[::2] for part in parts)
    types = {f.name: f.type for f in fields(QNetConfig)}

    def value(key, field):
        text = kv[key]
        if text == "-" and types[field].startswith("Optional"):
            return None
        return bool(int(text)) if types[field] == "bool" else int(text)

    try:
        return QNetConfig(**{field: value(key, field) for key, field in FINGERPRINT})
    except (KeyError, ValueError) as exc:   # a missing or non-integer field
        raise ConfigError(f"malformed config fingerprint '{fp}': {exc!r}") from exc


VARIANT_NAMES = ("fp32", "q8", "q4", "q3", "q2", "q4_baseline", "q3_baseline", "q2_baseline")


def make_variant(name: str, **overrides) -> QNetConfig:
    """Named quantization presets.

    q8 keeps every layer at 8-bit and only adds the query/key shift; q4/q3/q2
    quantize the body to 4/3/2 bits and enable the 8-bit shortcut modules plus
    the shift; the *_baseline presets quantize everything directly with no
    additions; fp32 is the unquantized backbone.
    """
    if name == "fp32":
        return QNetConfig(body_bits=32, shortcut_bits=32, **overrides)
    if name == "q8":
        return QNetConfig(body_bits=8, shortcut_bits=8, use_qk_shift=True, **overrides)
    if name in ("q4", "q3", "q2"):
        bits = int(name[1])
        return QNetConfig(body_bits=bits, shortcut_bits=8, use_fem_shortcuts=True,
                          use_vrm_shortcuts=True, use_qk_shift=True, **overrides)
    if name.endswith("_baseline") and name[:2] in ("q4", "q3", "q2"):
        bits = int(name[1])
        return QNetConfig(body_bits=bits, shortcut_bits=8, **overrides)
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
    all at ``bits`` (32 disables quantization), and the code-domain forward.

    A sub-32-bit layer runs without a tape in the code domain
    (:meth:`code_forward`): on its installed integer kernel if it has one,
    else on the codes of its float weight. Under a tape it runs
    ``fake_quant`` on input and weight and the float contraction, whose
    straight-through backward training differentiates. The two forwards are
    equal in exact arithmetic and differ by float rounding only.
    """

    def __init__(self, weight: np.ndarray, out_features: int, bits: int, bias: bool):
        super().__init__()
        self.bits = bits
        self.weight = self.register_param("weight", Tensor(weight))
        self.bias = self.register_param("bias", Tensor(np.zeros(out_features, np.float32))) \
            if bias else None
        self.aq = self.register_quantizer("aq", ActQuantizer(bits))
        self.wq = self.register_quantizer("wq", WeightQuantizer(bits))
        self.int_kernel = None       # set by packed.install_packed; forward then runs it

    def _untaped(self, x: Tensor) -> Optional[Tensor]:
        """The forward in the code domain, or None where the fake-quant
        forward runs: under a tape, or at 32 bits."""
        if self.int_kernel is not None:
            return Tensor(self.int_kernel(x.data))
        if self.bits < 32 and ad.active_tape() is None:
            return Tensor(self.code_forward(x.data, act_quantize(self.weight, self.wq)))
        return None

    def code_forward(self, x: np.ndarray, w_codes: np.ndarray) -> np.ndarray:
        """``x`` through the layer from activation and weight codes, float32.

        The codes are contracted exactly in the float type of
        :func:`~qsci.quantize.code_dtype`. With x = alpha_x * x_code + z and
        w = alpha_w * w_code, the float32 epilogue is then
        ``alpha_x*alpha_w*acc + alpha_w*z*corr + bias``, where ``corr`` sums
        the weight codes over the taps that meet each output.
        """
        w_codes = w_codes.astype(self.code_dtype(), copy=False)
        x_codes = act_quantize(x, self.aq).astype(w_codes.dtype, copy=False)
        acc = self.contract(x_codes, w_codes).astype(np.float32, copy=False)
        alpha_w = float(self.wq.alpha.data[0])
        acc *= np.float32(float(self.aq.alpha.data[0]) * alpha_w)
        offset = self.correction(x.shape, w_codes).astype(np.float32, copy=False)
        offset *= np.float32(alpha_w * float(self.aq.z.data[0]))
        if self.bias is not None:
            offset += self.bias.data.reshape((-1,) + (1,) * (offset.ndim - 1))
        acc += offset
        return acc

    def code_dtype(self):
        """The float type in which this layer's code contraction is exact."""
        return code_dtype(self.weight_count() // self.out_features, self.bits)

    def weight_count(self) -> int:
        return self.weight.size

    def bias_count(self) -> int:
        return 0 if self.bias is None else self.out_features


class QConv3d(QLayer):
    """3-D convolution with one input activation quantizer and one weight
    quantizer; bias stays full precision. 32-bit disables quantization."""

    def __init__(self, rng, in_ch, out_ch, kernel, stride=(1, 1, 1), padding=(0, 0, 0),
                 bits=32, bias=True, zero_init=False):
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
        super().__init__(w, out_ch, bits, bias)

    def forward(self, x: Tensor) -> Tensor:
        out = self._untaped(x)
        if out is not None:
            return out
        xq = fake_quant(x, self.aq)
        wq = fake_quant(self.weight, self.wq)
        return ad.conv3d(xq, wq, self.bias, self.stride, self.padding)

    def contract(self, x_codes, w_codes):
        """[N,C,T,H,W] x [O,C,kt,kh,kw] codes -> [N,O,To,Ho,Wo], one GEMM."""
        n, o, to, ho, wo = conv3d_output_shape(x_codes.shape, self.weight.shape,
                                               self.stride, self.padding)
        patches = conv_patches(x_codes, self.kernel, self.stride, self.padding, (to, ho, wo))
        return (w_codes.reshape(o, -1) @ patches).reshape(n, o, to, ho, wo)

    def correction(self, in_shape, w_codes):
        """[O, To, Ho, Wo]: each output's sum of the weight codes over the
        taps that meet the zero-padded input. The codes are summed over C,
        then each tap axis is contracted with its 0/1 valid-tap matrix; an
        unpadded axis stays size 1 (every tap meets every output)."""
        if not any(self.padding):
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
    of length n_in, else 0; unpadded, one row of ones broadcasts."""
    if not pad:
        return np.ones((1, k), dtype)
    pos = np.arange(n_out)[:, None] * stride + np.arange(k) - pad
    return ((pos >= 0) & (pos < n_in)).astype(dtype)


class QLinear(QLayer):
    """Token-wise linear layer, weight stored [in, out], same quantizer pair."""

    def __init__(self, rng, in_features, out_features, bits=32, bias=True):
        self.in_features = in_features
        self.out_features = out_features
        super().__init__(_he_weight(rng, (in_features, out_features), in_features),
                         out_features, bits, bias)

    def forward(self, x: Tensor) -> Tensor:
        out = self._untaped(x)
        if out is not None:
            return out
        xq = fake_quant(x, self.aq)
        wq = fake_quant(self.weight, self.wq)
        out = ad.matmul(xq, wq)
        if self.bias is not None:
            out = out + self.bias
        return out

    def contract(self, x_codes, w_codes):
        """[..., in] x [in, out] codes -> [..., out]."""
        return x_codes @ w_codes

    def correction(self, in_shape, w_codes):
        """[out]: every input meets every weight."""
        return w_codes.sum(axis=0)


class LayerNorm(Module):
    """Normalization over the channel axis of [B, T, C] tokens."""

    EPS = 1e-5

    def __init__(self, channels: int):
        super().__init__()
        self.gain = self.register_param("gain", Tensor(np.ones(channels, dtype=np.float32)))
        self.bias = self.register_param("bias", Tensor(np.zeros(channels, dtype=np.float32)))

    def forward(self, x: Tensor) -> Tensor:
        mu = ad.mean(x, axis=-1, keepdims=True)
        xc = x - mu
        var = ad.mean(xc * xc, axis=-1, keepdims=True)
        normed = xc / ad.sqrt(var + self.EPS)
        return normed * self.gain + self.bias


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
        probs = ad.softmax(logits, axis=-1)
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
    branch (concat + 1x1x1), followed by a quantized pointwise MLP."""

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
            "mlp_in", QConv3d(rng, c, hidden, (1, 1, 1), bits=bits))
        self.mlp_out = self.register_module(
            "mlp_out", QConv3d(rng, hidden, c, (1, 1, 1), bits=bits))

    def forward(self, x: Tensor) -> Tensor:
        conv_branch = ad.leaky_relu(self.conv.forward(x))
        tokens, shape = _to_tokens(x)
        attn_tokens = self.attn.forward(self.norm.forward(tokens))
        attn_branch = _from_tokens(attn_tokens, shape)
        fused = self.fuse.forward(ad.concat([conv_branch, attn_branch], axis=1))
        hidden = ad.gelu(self.mlp_in.forward(fused))
        return x + self.mlp_out.forward(hidden)


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


class FeatureExtraction(Module):
    """Strided conv stack over the estimate stack; optional zero-initialized
    8-bit 1x1x1 shortcut convs bridge each stage, the last one fed through a
    space-to-channel rearrangement to match the strided output size."""

    IN_CH = 2

    def __init__(self, rng, cfg: QNetConfig):
        super().__init__()
        c = cfg.base_channels
        bits = cfg.stage_bits("fem")
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
        if h % 2 or w % 2:
            raise ShapeError(f"spatial extents must be even for the strided stage, got {h}x{w}")
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
        bits = cfg.stage_bits("vrm")
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
        enh_bits = cfg.stage_bits("enh")
        self.blocks = [
            self.register_module(
                f"block{i}",
                ResDNetBlock(rng, cfg.base_channels, cfg.heads, cfg.cformer_per_block,
                             enh_bits, cfg.use_qk_shift))
            for i in range(cfg.resdnet_blocks)
        ]
        self.vrm = self.register_module("vrm", VideoReconstruction(rng, cfg))

    def forward_stack(self, stack: Tensor) -> Tensor:
        """[B, 2, T, H, W] estimate stacks -> [B, T, H, W] frames."""
        b, _, t, h, w = stack.shape
        if t != self.cfg.cr:
            raise ShapeError(f"stack has T={t}, model expects T={self.cfg.cr}")
        feat = self.fem.forward(stack)
        for blk in self.blocks:
            feat = blk.forward(feat)
        base = ad.narrow(stack, 1, 0, 1)   # the broadcast estimate channel
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
        return [q.alpha for q in self.quantizers() if not q.bitwidth.passthrough]

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
                "weight_params": layer.weight_count(),
                "bias_params": layer.bias_count(),
                "flops": 2 * macs,
            })
        return rows
