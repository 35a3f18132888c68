"""Small calibrated quantized networks and inputs shared by the packed-path
and CLI tests."""

import numpy as np

from qsci.network import QNet, make_variant
from qsci.sci import encode, generate_masks, initial_estimate, synth_video

SMALL = dict(base_channels=8, resdnet_blocks=1, cformer_per_block=1, heads=2)


def small_inputs(t=4, hw=16, count=2, seed=0):
    """(masks, clips, measurements) of ``count`` synthetic clips."""
    masks = generate_masks(seed + 99, t, hw, hw)
    clips = [synth_video(seed + i, t, hw, hw) for i in range(count)]
    return masks, clips, [encode(c, masks) for c in clips]


def calibrated_net(variant, t=4, hw=16, seed=0, **overrides) -> QNet:
    """A preset with small non-zero ``conv_out``/shortcut weights (zero at
    init, so they would otherwise not reach the output), its quantizers
    calibrated on synthetic clips of the given size."""
    net = QNet(make_variant(variant, **{**SMALL, "cr": t, **overrides}), seed=seed)
    state = net.state_dict()
    rng = np.random.default_rng(seed)
    for name in sorted(state):
        if (".short_" in name or "conv_out" in name) and name.endswith(".weight"):
            state[name] = (rng.standard_normal(state[name].shape) * 2e-3).astype(np.float32)
    net.load_state(state)
    masks, _, meas = small_inputs(t, hw, seed=seed)
    net.calibrate_quantizers(np.concatenate([initial_estimate(m, masks) for m in meas]))
    return net
