"""Deployment-style integer inference: bit-packed weights run through the
network's own code-domain forward.

A packed model is a ``QSCICKPT`` checkpoint (see :mod:`qsci.containers`),
held as the ``(fingerprint, state)`` pair that ``load_checkpoint`` returns:
the network's parameters, with each sub-32-bit layer's float weight replaced
by a ``<layer>.words`` entry that holds its weight codes as b-bit
two's-complement fields packed little-endian into uint64 words (no field
straddles a word; leftover bits are zero). Quantizer scales and zero-points
stay float32 entries. :func:`install_packed` checks every entry against the
network and gives each packed layer an :class:`IntKernel`, which the layer's
forward then runs.

An integer kernel is the layer's :meth:`~qsci.network.QLayer.code_forward`
fed from the unpacked words instead of from the codes of a float weight: an
exact contraction of activation and weight codes on float BLAS, then a
float32 epilogue that applies the scales, the zero-point correction and the
bias. The weight codes are the same integers either way, so a packed model
reconstructs the same frames, bit for bit, as the network it was packed
from, whose forward under a tape, which training differentiates, has the
same value as its tape-free one.

A weight layer's output activation is part of its forward: ``mlp_in``'s
GELU runs inside its ``code_forward``, once per value of the layer's
integer accumulators. Everything else that is not a weight contraction
(softmax, norms, the other activations, residuals, the attention products)
runs in float on dequantized values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .containers import load_checkpoint
from .errors import ConfigError, FormatError
from .network import QConv3d, QLayer, QNet, parse_fingerprint
from .quantize import act_quantize
from .sci import MaskSet, Measurement, VideoClip

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
    fields = np.zeros((packed_word_count(flat.size, bits), per_word), dtype=np.uint64)
    fields.reshape(-1)[:flat.size] = ints & ((1 << bits) - 1)     # two's complement
    fields <<= _slot_shifts(bits)
    return np.bitwise_or.reduce(fields, axis=1)


def _slot_shifts(bits: int) -> np.ndarray:
    """The left shift of each bits-wide field slot of a word."""
    return np.arange(0, 64 // bits * bits, bits, dtype=np.uint64)


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
    fields = words[:, None] >> _slot_shifts(bits)
    fields &= np.uint64((1 << bits) - 1)
    out = fields.reshape(-1)[:count].astype(np.int64)
    sign = 1 << (bits - 1)
    return np.where(out >= sign, out - (1 << bits), out)


@dataclass
class PackedLayer:
    """One quantized weight layer in deployment form."""

    name: str
    kind: str                    # "conv3d" | "linear"
    bits: int
    shape: tuple                 # conv: (O,C,kt,kh,kw); linear: (in, out)
    words: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))

    def codes(self) -> np.ndarray:
        return unpack_weights(self.words, self.bits, int(np.prod(self.shape))).reshape(self.shape)


class IntKernel:
    """The installed forward of one packed network layer: its
    :meth:`~qsci.network.QLayer.code_forward` on the weight codes unpacked
    from ``layer.words``. They are unpacked once, into the float type that
    the layer's accumulator bound selects, so a layer whose contraction
    float64 cannot hold exactly is rejected when its kernel is built."""

    def __init__(self, layer: PackedLayer, module: QLayer):
        self.layer = layer
        self.module = module
        dtype = module.code_dtype()     # raises before any code is unpacked
        self.w_codes = layer.codes().astype(dtype)

    def __call__(self, x) -> np.ndarray:
        """The layer's output for ``x``, a Tensor (its scan mark is honoured)
        or an array."""
        return self.module.code_forward(x, self.w_codes)


def packed_layers(net: QNet) -> list:
    """(name, layer) of every weight layer whose codes are packed: those
    below 32 bits, in :meth:`~qsci.network.QNet.quant_layers` order."""
    return [(name, layer) for name, layer in net.quant_layers() if layer.bits < 32]


def pack_model(net: QNet) -> tuple:
    """The packed model of ``net``: the ``(fingerprint, state)`` pair that
    ``load_checkpoint`` returns, whose state is the network's parameters
    with every sub-32-bit weight replaced by its bit-packed codes."""
    state = net.state_dict()
    for name, layer in packed_layers(net):
        codes = act_quantize(state.pop(f"{name}.weight"), layer.wq)
        state[f"{name}.words"] = pack_weights(codes, layer.bits)
    return net.cfg.fingerprint(), state


def read_packed(path) -> tuple:
    """Read a packed model, the ``(fingerprint, state)`` pair that
    ``load_checkpoint`` returns; a truncated or corrupt file raises
    FormatError, and :func:`install_packed` checks that its entries fit."""
    return load_checkpoint(path)


def install_packed(net: QNet, model: tuple):
    """Load a packed model, the ``(fingerprint, state)`` pair that
    ``load_checkpoint`` returns, into a network skeleton and attach an
    integer kernel to every packed layer. The entries are the network's
    parameters with each packed ``.weight`` replaced by its ``.words``; a
    fingerprint other than the network's, or a state that does not fit (for
    words: the wrong count), raises FormatError, see
    :func:`~qsci.network.check_state`."""
    fingerprint, state = model
    if net.cfg.fingerprint() != fingerprint:
        raise FormatError(
            f"packed model fingerprint '{fingerprint}' does not match "
            f"network '{net.cfg.fingerprint()}'"
        )
    expect = net.expected_state()
    for name, layer in packed_layers(net):
        del expect[f"{name}.weight"]
        n_words = packed_word_count(layer.weight.size, layer.bits)
        expect[f"{name}.words"] = (np.dtype(np.uint64), (n_words,))
    net.load_state(state, expect)
    for name, layer in packed_layers(net):
        kind = "conv3d" if isinstance(layer, QConv3d) else "linear"
        pl = PackedLayer(name=name, kind=kind, bits=layer.bits, shape=layer.weight.shape,
                         words=state[f"{name}.words"])
        layer.int_kernel = IntKernel(pl, layer)


def packed_net(model: tuple) -> QNet:
    """A network skeleton for the fingerprint of ``model``, the
    ``(fingerprint, state)`` pair that ``load_checkpoint`` returns, with the
    model installed."""
    net = QNet(parse_fingerprint(model[0]), seed=0)
    install_packed(net, model)
    return net


def infer_packed(model: tuple, meas: Measurement, masks: MaskSet) -> VideoClip:
    """Full-network inference over the integer path (one-shot: builds the
    network each call; reuse :func:`packed_net` for many clips)."""
    return packed_net(model).reconstruct(meas, masks)
