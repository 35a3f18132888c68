"""Low-bit quantization toolkit for video snapshot compressive imaging:
one learnable fake quantizer (:class:`ActQuantizer`, symmetric for weights)
with straight-through gradients, a miniature quantized reconstruction
network with shifted temporal attention, a bit-packed integer inference
path, and bit-adjusted efficiency accounting.
"""

from .autodiff import Tape, Tensor, backward
from .network import QNet, QNetConfig, make_variant
from .quantize import ActQuantizer, fake_quant
from .sci import MaskSet, Measurement, VideoClip, encode, generate_masks, initial_estimate, synth_video

__all__ = [
    "Tape", "Tensor", "backward",
    "QNet", "QNetConfig", "make_variant",
    "ActQuantizer", "fake_quant",
    "MaskSet", "Measurement", "VideoClip", "encode", "generate_masks",
    "initial_estimate", "synth_video",
]

__version__ = "0.1.0"
