"""Deployment-style integer inference: bit-packed weights and integer
accumulation kernels numerically matched to the fake-quant float path.

Weight codes are stored as b-bit two's-complement fields packed little-endian
into 64-bit words (no field straddles a word; leftover bits are zero).
Contractions multiply activation codes with weight codes on float BLAS: both
are small integers, so every product and partial sum is an integer bounded by
the layer's worst-case accumulator, which the chosen float type holds exactly.
The real-valued zero-point enters as a per-output correction term (for
convolutions a cached correction map that accounts for zero padding at the
borders), after which the accumulator is scaled by the product of the two
quantizer scales in float64.

Everything that is not a weight contraction (softmax, norms, activations,
residuals, the attention products) runs in float on dequantized values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import conv3d_output_shape, conv_patches
from .containers import (_open_container, _read_array, _read_exact, _read_str, _read_uint,
                         _write_array, _write_str, _write_uint)
from .errors import ConfigError, FormatError
from .evaluation import bit_adjusted_ops
from .network import QConv3d, QLinear, QNet, parse_fingerprint
from .quantize import ActQuantizer, act_quantize, weight_quantize
from .sci import MaskSet, Measurement, VideoClip

# float types that hold every integer of magnitude below the limit exactly
_EXACT_FLOATS = ((np.float32, 1 << 24), (np.float64, 1 << 53))
PACK_BITS = (2, 3, 4, 8)


def pack_weights(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack signed integer codes into uint64 words, bits-wide fields filled
    LSB-first; padding bits are zero. Exact and reversible."""
    if bits not in PACK_BITS:
        raise ConfigError(f"cannot bit-pack {bits}-bit codes")
    flat = np.asarray(codes).reshape(-1)
    q_n, q_p = 1 << (bits - 1), (1 << (bits - 1)) - 1
    ints = np.rint(flat).astype(np.int64)
    if flat.size and (ints.min() < -q_n or ints.max() > q_p):
        raise ConfigError(f"codes outside the signed {bits}-bit range [-{q_n}, {q_p}]")
    per_word = 64 // bits
    words = np.zeros(packed_word_count(flat.size, bits), dtype=np.uint64)
    fields = (ints & ((1 << bits) - 1)).astype(np.uint64)   # two's complement
    for slot in range(per_word):
        chunk = fields[slot::per_word]
        words[: chunk.size] |= chunk << np.uint64(slot * bits)
    return words


def packed_word_count(count: int, bits: int) -> int:
    """Words that :func:`pack_weights` fills with ``count`` codes."""
    per_word = 64 // bits
    return (count + per_word - 1) // per_word


def unpack_weights(words: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_weights`; returns int64 codes."""
    if bits not in PACK_BITS:
        raise ConfigError(f"cannot unpack {bits}-bit codes")
    per_word = 64 // bits
    words = np.asarray(words, dtype=np.uint64)
    if count > words.size * per_word:
        raise FormatError(f"{count} codes cannot fit in {words.size} words at {bits} bits")
    mask = np.uint64((1 << bits) - 1)
    out = np.empty(words.size * per_word, dtype=np.int64)
    for slot in range(per_word):
        fields = ((words >> np.uint64(slot * bits)) & mask).astype(np.int64)
        out[slot::per_word] = fields
    out = out[:count]
    sign = 1 << (bits - 1)
    return np.where(out >= sign, out - (1 << bits), out)


@dataclass
class PackedLayer:
    """One quantized weight layer in deployment form."""

    name: str
    kind: str                    # "conv3d" | "linear"
    bits: int
    shape: tuple                 # conv: (O,C,kt,kh,kw); linear: (in, out)
    stride: tuple = (1, 1, 1)
    padding: tuple = (0, 0, 0)
    alpha_w: float = 1.0
    alpha_x: float = 1.0
    z: float = 0.0
    words: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))

    @property
    def code_count(self) -> int:
        return int(np.prod(self.shape))

    def codes(self) -> np.ndarray:
        return unpack_weights(self.words, self.bits, self.code_count).reshape(self.shape)

    def contraction_length(self) -> int:
        if self.kind == "conv3d":
            _, c, kt, kh, kw = self.shape
            return c * kt * kh * kw
        return self.shape[0]

    def accumulator_bound(self, a_bits: int) -> int:
        """Worst-case |accumulator|: K * 2^(a-1) * 2^(b-1)."""
        return self.contraction_length() * (1 << (a_bits - 1)) * (1 << (self.bits - 1))

    def code_dtype(self, a_bits: int):
        """float32 or, failing that, float64: the first that holds every
        integer up to the worst-case accumulator, so contractions are exact."""
        bound = self.accumulator_bound(a_bits)
        for dtype, limit in _EXACT_FLOATS:
            if bound < limit:
                return dtype
        raise ConfigError(
            f"layer '{self.name}' worst case |acc| = {bound} is not exact in float64"
        )


class IntKernel:
    """Integer-path forward for one layer; callable on float activations.

    Activation codes (``act_quantize``, clipped to a bits) and weight codes
    (b bits) are contracted as floats of :meth:`PackedLayer.code_dtype`.
    Every product and every partial sum is an integer of magnitude at most
    ``accumulator_bound`` = K * 2^(a-1) * 2^(b-1), and float32 (float64)
    represents every integer below 2^24 (2^53), so the accumulator is exact in
    any summation order: it equals the int64 contraction bit for bit. A layer
    whose bound float64 cannot hold is rejected when the kernel is built.
    """

    def __init__(self, layer: PackedLayer, aq, bias: Optional[np.ndarray]):
        self.layer = layer
        self.aq = aq
        self.dtype = layer.code_dtype(aq.bits)
        codes = layer.codes().astype(self.dtype)
        conv = layer.kind == "conv3d"
        self.w_codes = codes.reshape(layer.shape[0], -1) if conv else codes
        self.bias = bias.reshape(-1, 1, 1, 1) if conv and bias is not None else bias
        self._corr: dict = {}   # input shape without N -> correction

    def contract(self, x_codes: np.ndarray) -> np.ndarray:
        """Exact code contraction (no scaling or correction), in ``dtype``:
        [N,C,T,H,W] -> [N,O,To,Ho,Wo] for a conv, [..., in] -> [..., out]."""
        x_codes = np.asarray(x_codes, dtype=self.dtype)
        if self.layer.kind != "conv3d":
            return x_codes @ self.w_codes
        layer = self.layer
        n, o, to, ho, wo = conv3d_output_shape(x_codes.shape, layer.shape,
                                               layer.stride, layer.padding)
        patches = conv_patches(x_codes, layer.shape[2:], layer.stride, layer.padding,
                               (to, ho, wo))
        return (self.w_codes @ patches).reshape(n, o, to, ho, wo)

    def _correction(self, in_shape) -> np.ndarray:
        """sum_j Q_w(w)_j over the weights that meet each output (for a conv,
        fewer taps at the zero-padded borders), in float64, cached."""
        key = tuple(in_shape[1:])
        if key not in self._corr:
            ones = np.ones((1,) + key, dtype=self.dtype)
            self._corr[key] = self.contract(ones).astype(np.float64)
        return self._corr[key]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        layer = self.layer
        x_codes = act_quantize(x, self.aq)
        # in place, the same float64 roundings as
        # alpha_x * alpha_w * (acc + (z / alpha_x) * corr) + bias
        out = self.contract(x_codes).astype(np.float64, copy=False)
        out += (layer.z / layer.alpha_x) * self._correction(x_codes.shape)
        out *= layer.alpha_x * layer.alpha_w
        if self.bias is not None:
            out += self.bias
        return out.astype(np.float32)


@dataclass
class PackedModel:
    fingerprint: str
    layers: list                 # PackedLayer, forward order
    blobs: dict                  # name -> float32 array (biases, shifts, norms, ...)


def _geometry(layer) -> dict:
    """The PackedLayer fields fixed by the network layer's structure."""
    if isinstance(layer, QConv3d):
        return dict(kind="conv3d", shape=tuple(layer.weight.shape), stride=layer.stride,
                    padding=layer.padding)
    return dict(kind="linear", shape=tuple(layer.weight.shape))


def pack_model(net: QNet) -> PackedModel:
    """Quantize and bit-pack every sub-32-bit weight layer; everything else
    (biases, shifts, norms, 32-bit weights, remaining quantizer params) goes
    into the float blob section."""
    layers = []
    packed_param_names = set()
    for name, layer in net.quant_layers():
        if layer.bits >= 32:
            continue
        codes = weight_quantize(layer.weight.data, layer.wq)
        layers.append(PackedLayer(
            name=name, bits=layer.bits, **_geometry(layer),
            alpha_w=float(layer.wq.alpha.data[0]),
            alpha_x=float(layer.aq.alpha.data[0]),
            z=float(layer.aq.z.data[0]),
            words=pack_weights(codes, layer.bits),
        ))
        packed_param_names.update({
            f"{name}.weight", f"{name}.wq.alpha", f"{name}.aq.alpha", f"{name}.aq.z",
        })
    blobs = {pname: p.data.copy() for pname, p in net.named_params()
             if pname not in packed_param_names}
    return PackedModel(fingerprint=net.cfg.fingerprint(), layers=layers, blobs=blobs)


def install_packed(net: QNet, model: PackedModel):
    """Attach integer kernels and float blobs to a network skeleton."""
    if net.cfg.fingerprint() != model.fingerprint:
        raise FormatError(
            f"packed model fingerprint '{model.fingerprint}' does not match "
            f"network '{net.cfg.fingerprint()}'"
        )
    modules = dict(net.named_modules())
    own = dict(net.named_params())
    audit_count = sum(1 for _, l in net.quant_layers() if l.bits < 32)
    if audit_count != len(model.layers):
        raise FormatError(
            f"packed model has {len(model.layers)} layers, network expects {audit_count}"
        )
    for pl in model.layers:
        layer = modules.get(pl.name)
        if layer is None or not isinstance(layer, (QConv3d, QLinear)):
            raise FormatError(f"packed layer '{pl.name}' not found in network")
        if layer.bits != pl.bits:
            raise FormatError(f"layer '{pl.name}' bits {layer.bits} vs packed {pl.bits}")
        for key, want in _geometry(layer).items():
            if getattr(pl, key) != want:
                raise FormatError(f"layer '{pl.name}' {key} {want} vs packed {getattr(pl, key)}")
        # act quantizer params come from the packed record
        layer.aq.alpha.data[0] = pl.alpha_x
        layer.aq.z.data[0] = pl.z
        layer.wq.alpha.data[0] = pl.alpha_w
        bias = model.blobs.get(f"{pl.name}.bias")
        layer.int_kernel = IntKernel(pl, layer.aq, bias)
    for pname, arr in model.blobs.items():
        if pname not in own:
            raise FormatError(f"blob '{pname}' has no counterpart in network")
        if own[pname].data.shape != arr.shape:
            raise FormatError(f"blob '{pname}' shape {arr.shape} vs {own[pname].data.shape}")
        own[pname].data = np.ascontiguousarray(arr, dtype=np.float32)


def packed_net(model: PackedModel) -> QNet:
    """A network skeleton for the model's fingerprint with the model installed;
    its integer kernels cache their correction maps across calls."""
    net = QNet(parse_fingerprint(model.fingerprint), seed=0)
    install_packed(net, model)
    return net


def infer_packed(model: PackedModel, meas: Measurement, masks: MaskSet) -> VideoClip:
    """Full-network inference over the integer path (one-shot: builds the
    network each call; reuse :func:`packed_net` for many clips)."""
    return packed_net(model).reconstruct(meas, masks, packed=True)


# ---------------------------------------------------------------------------
# container format: magic "QSCIPACK"
# ---------------------------------------------------------------------------

PACK_MAGIC = b"QSCIPACK"
PACK_VERSION = 1

_KIND_TAGS = {"conv3d": 0, "linear": 1}
_KIND_NAMES = {v: k for k, v in _KIND_TAGS.items()}
_KIND_NDIM = {"conv3d": 5, "linear": 2}


def write_packed(model: PackedModel, path):
    with open(path, "wb") as fh:
        fh.write(PACK_MAGIC)
        _write_uint(fh, PACK_VERSION, 2)
        _write_str(fh, model.fingerprint)
        _write_uint(fh, len(model.blobs), 4)
        for name in sorted(model.blobs):
            _write_str(fh, name)
            _write_array(fh, model.blobs[name])
        _write_uint(fh, len(model.layers), 4)
        for pl in model.layers:
            _write_str(fh, pl.name)
            fh.write(bytes([_KIND_TAGS[pl.kind], pl.bits]))
            _write_uint(fh, len(pl.shape), 2)
            for d in (*pl.shape, *pl.stride, *pl.padding):
                _write_uint(fh, d, 4)
            fh.write(np.array([pl.alpha_w, pl.alpha_x, pl.z], dtype="<f4").tobytes())
            _write_uint(fh, pl.code_count, 8)
            _write_uint(fh, pl.words.size, 8)
            fh.write(pl.words.astype("<u8").tobytes())


def _read_packed_layer(fh) -> PackedLayer:
    name = _read_str(fh)
    tag, bits = _read_uint(fh, 1), _read_uint(fh, 1)
    kind = _KIND_NAMES.get(tag)
    if kind is None:
        raise FormatError(f"layer '{name}': unknown kind tag {tag}")
    if bits not in PACK_BITS:
        raise FormatError(f"layer '{name}': {bits}-bit codes are not packable")
    ndim = _read_uint(fh, 2)
    if ndim != _KIND_NDIM[kind]:
        raise FormatError(f"layer '{name}': {kind} weights cannot have {ndim} dims")
    shape = tuple(_read_uint(fh, 4) for _ in range(ndim))
    stride = tuple(_read_uint(fh, 4) for _ in range(3))
    padding = tuple(_read_uint(fh, 4) for _ in range(3))
    if min(stride) < 1:
        raise FormatError(f"layer '{name}': stride {stride}")
    alpha_w, alpha_x, z = np.frombuffer(_read_exact(fh, 12), dtype="<f4")
    code_count = _read_uint(fh, 8)
    if code_count != math.prod(shape):
        raise FormatError(f"layer '{name}' code count {code_count} vs shape {shape}")
    n_words = _read_uint(fh, 8)
    if n_words != packed_word_count(code_count, bits):
        raise FormatError(f"layer '{name}': {n_words} words for {code_count} {bits}-bit codes")
    words = np.frombuffer(_read_exact(fh, 8 * n_words), dtype="<u8").copy()
    return PackedLayer(name=name, kind=kind, bits=bits, shape=shape, stride=stride,
                       padding=padding, alpha_w=float(alpha_w), alpha_x=float(alpha_x),
                       z=float(z), words=words)


def read_packed(path) -> PackedModel:
    """Read a packed model; a truncated or corrupt file raises FormatError."""
    fh = _open_container(path, PACK_MAGIC, PACK_VERSION, "packed-model")
    fingerprint = _read_str(fh)
    blobs = {}
    for _ in range(_read_uint(fh, 4)):
        name = _read_str(fh)
        blobs[name] = _read_array(fh)
    layers = [_read_packed_layer(fh) for _ in range(_read_uint(fh, 4))]
    return PackedModel(fingerprint=fingerprint, layers=layers, blobs=blobs)


# ---------------------------------------------------------------------------
# kernel micro-benchmark
# ---------------------------------------------------------------------------

def kernel_bench(in_shape, w_shape, bits: int, repetitions: int,
                 stride=(1, 1, 1), padding=(0, 0, 0), seed: int = 0) -> dict:
    """Time the code contraction of :class:`IntKernel` (the one integer
    inference runs) on random codes and report wall-clock per call next to
    the bit-adjusted theoretical OPs for the same geometry.
    No pass/fail: the ratio is informational."""
    report = {"in_shape": tuple(in_shape), "w_shape": tuple(w_shape), "bits": bits,
              "repetitions": repetitions, "calls": []}
    out_shape = conv3d_output_shape(in_shape, w_shape, stride, padding)
    o, c, kt, kh, kw = w_shape
    macs = int(np.prod(out_shape[1:])) * c * kt * kh * kw * in_shape[0]
    flops = 2.0 * macs
    report["float_flops"] = flops
    report["theoretical_ops"] = bit_adjusted_ops(flops, bits, bits)
    if repetitions <= 0:
        return report

    rng = np.random.default_rng(seed)
    q_p = (1 << (bits - 1)) - 1
    codes = rng.integers(-q_p, q_p + 1, size=w_shape).astype(np.float32)
    layer = PackedLayer(name="bench", kind="conv3d", bits=bits, shape=tuple(w_shape),
                        stride=tuple(stride), padding=tuple(padding),
                        words=pack_weights(codes, bits))
    kernel = IntKernel(layer, ActQuantizer(bits), None)
    x_codes = rng.integers(-q_p, q_p + 1, size=in_shape).astype(np.float32)
    for _ in range(repetitions):
        t0 = time.perf_counter()
        kernel.contract(x_codes)
        report["calls"].append(time.perf_counter() - t0)
    mean_s = float(np.mean(report["calls"]))
    report["wall_clock_s"] = mean_s
    report["achieved_ops_per_s"] = report["theoretical_ops"] / mean_s if mean_s > 0 else 0.0
    return report
