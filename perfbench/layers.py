"""Which program calls the traced run wraps, and the per-layer metrics
computed from the spans they record.

Layers are the program's modules. Every ``.ms`` total is milliseconds per
item of the timed phase (summed over outermost spans of that name), every
``.calls`` total is calls per item, and p50/tail figures are per call.
FLOPs and im2col bytes are computed from array shapes, not measured.
"""

from __future__ import annotations

import inspect
import statistics

from qsci import autodiff, containers, evaluation, network, packed, quantize, sci, training
from qsci.autodiff import conv3d_output_shape

from tracing import Patcher, Tracer, percentile, self_times, tail_percentile

KERNEL_CLASSES = ("k333", "k111", "k133", "linear")
BWD_CLASSES = ("conv3d", "fake_quant", "matmul")
_SCALE_MS = 1e3
_FLOAT_BYTES = 4


def kernel_class(kernel) -> str:
    """'k333' / 'k111' / 'k133' from a (kt, kh, kw) kernel."""
    kt, kh, kw = kernel
    if (kt, kh, kw) == (1, 1, 1):
        return "k111"
    if (kt, kh, kw) == (1, 3, 3):
        return "k133"
    if (kt, kh, kw) == (3, 3, 3):
        return "k333"
    return f"k{kt}{kh}{kw}"


def patch_bytes(in_shape, w_shape, stride, padding) -> int:
    """Bytes of the float32 im2col patch matrix one conv3d forward builds."""
    n, _, to, ho, wo = conv3d_output_shape(in_shape, w_shape, stride, padding)
    _, c, kt, kh, kw = w_shape
    return n * c * kt * kh * kw * to * ho * wo * _FLOAT_BYTES


def conv_flops(layer, in_shape) -> int:
    """2 * MACs of one QConv3d forward (the formula of ``QNet.audit``)."""
    out = conv3d_output_shape(in_shape, layer.weight.shape, layer.stride, layer.padding)
    kt, kh, kw = layer.kernel
    return 2 * out[0] * out[2] * out[3] * out[4] * layer.out_ch * layer.in_ch * kt * kh * kw


def linear_flops(layer, in_shape) -> int:
    tokens = 1
    for d in in_shape[:-1]:
        tokens *= d
    return 2 * tokens * layer.in_features * layer.out_features


def install(tracer: Tracer, patcher: Patcher):
    """Wrap every traced call of the program. Each wrapper passes its
    arguments to the original unchanged and returns its result."""
    def plain(name):
        return lambda orig: (lambda *a, **k: tracer.call(name, 0.0, orig, *a, **k))

    for module, attr, name in (
        (autodiff, "backward", "autodiff.backward"),
        (quantize, "fake_quant", "quantize.fake_quant"),
        (quantize, "act_quantize", "quantize.act_quantize"),
        (packed, "read_packed", "packed.read_packed"),
        (packed, "install_packed", "packed.install_packed"),
        (packed, "infer_packed", "packed.infer_packed"),
        (training, "augment", "training.augment"),
        (training, "evaluate_psnr", "training.evaluate_psnr"),
        (sci, "encode", "sci.encode"),
        (sci, "initial_estimate", "sci.initial_estimate"),
        (sci, "synth_video", "sci.synth_video"),
        (evaluation, "psnr", "evaluation.psnr"),
        (evaluation, "ssim", "evaluation.ssim"),
        (containers, "load_checkpoint", "containers.load_checkpoint"),
        (containers, "save_checkpoint", "containers.save_checkpoint"),
    ):
        patcher.wrap_function(module, attr, plain(name))

    conv_sig = inspect.signature(autodiff.conv3d)

    def conv3d(orig):
        def wrapper(*a, **k):
            b = conv_sig.bind(*a, **k)
            b.apply_defaults()
            x, w = b.arguments["x"], b.arguments["w"]
            nbytes = patch_bytes(x.shape, w.shape, b.arguments["stride"], b.arguments["padding"])
            return tracer.call("autodiff.conv3d", nbytes, orig, *a, **k)
        return wrapper

    patcher.wrap_function(autodiff, "conv3d", conv3d)

    def qconv_forward(orig):
        def wrapper(self, x, *a, **k):
            name = "network.conv_" + kernel_class(self.kernel)
            return tracer.call(name, conv_flops(self, x.shape), orig, self, x, *a, **k)
        return wrapper

    def qlinear_forward(orig):
        def wrapper(self, x, *a, **k):
            return tracer.call("network.linear", linear_flops(self, x.shape), orig, self, x, *a, **k)
        return wrapper

    def forward_stack(orig):
        def wrapper(*a, **k):
            under_tape = 1.0 if autodiff.active_tape() is not None else 0.0
            return tracer.call("network.forward_stack", under_tape, orig, *a, **k)
        return wrapper

    def int_kernel_call(orig):
        def wrapper(self, *a, **k):
            pl = self.layer
            cls = kernel_class(pl.shape[2:]) if pl.kind == "conv3d" else "linear"
            return tracer.call("packed.int_kernel." + cls, 0.0, orig, self, *a, **k)
        return wrapper

    def record(orig):
        def wrapper(self, out, inputs, backward_fn, name):
            tracer.count("autodiff.tape_nodes")
            span = "autodiff.bwd." + (name if name in BWD_CLASSES else "other")

            def timed_backward(g):
                return tracer.call(span, 0.0, backward_fn, g)

            return orig(self, out, inputs, timed_backward, name)
        return wrapper

    patcher.wrap_method(network.QConv3d, "forward", qconv_forward)
    patcher.wrap_method(network.QLinear, "forward", qlinear_forward)
    patcher.wrap_method(network.ShiftedAttention, "forward", plain("network.attention"))
    patcher.wrap_method(network.QNet, "forward_stack", forward_stack)
    patcher.wrap_method(network.QNet, "__init__", plain("network.qnet_init"))
    patcher.wrap_method(network.QNet, "calibrate_quantizers", plain("training.calibrate"))
    patcher.wrap_method(packed.IntKernel, "__call__", int_kernel_call)
    patcher.wrap_method(training.Adam, "step", plain("training.adam_step"))
    patcher.wrap_method(autodiff.Tape, "record", record)


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def _training_steps(spans) -> list[float]:
    """Forward-under-tape + backward + Adam time of each optimizer step."""
    steps, fwd, bwd = [], 0.0, 0.0
    for s in spans:
        if not s.outer:
            continue
        if s.name == "network.forward_stack" and s.value:
            fwd = s.duration
        elif s.name == "autodiff.backward":
            bwd = s.duration
        elif s.name == "training.adam_step":
            steps.append(fwd + bwd + s.duration)
            fwd = bwd = 0.0
    return steps


def _forward_span(cls: str) -> str:
    """Span name of the QConv3d/QLinear forward of a kernel class."""
    return "network.linear" if cls == "linear" else f"network.conv_{cls}"


def _dist(prefix: str, samples_s) -> dict:
    pct = tail_percentile(len(samples_s))
    vals = [v * _SCALE_MS for v in samples_s]
    return {
        f"{prefix}.p50_ms": (percentile(vals, 50), "ms"),
        f"{prefix}.tail_ms": (percentile(vals, pct), "ms"),
        f"{prefix}.tail_pct": (pct, "pct"),
        f"{prefix}.samples": (len(vals), "count"),
    }


def layer_metrics(tracer: Tracer, timed_runs, items: int, check_run: str,
                  computed: dict) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, from the spans of the
    traced timed runs (``items`` processed in them). ``check_run`` holds the
    untimed fake-quant reference forwards that ``packed.int_vs_fq`` compares
    against; ``computed`` carries shape-derived counts for the workload."""
    runs = set(timed_runs)
    spans = [s for s in tracer.spans if s.run in runs]
    per_item = 1.0 / max(items, 1)

    total: dict = {}
    calls: dict = {}
    value: dict = {}
    for s in spans:
        if s.outer:
            total[s.name] = total.get(s.name, 0.0) + s.duration
            calls[s.name] = calls.get(s.name, 0) + 1
            value[s.name] = value.get(s.name, 0.0) + s.value

    def ms(name):
        return total.get(name, 0.0) * _SCALE_MS * per_item

    m = {}
    m["autodiff.conv3d.fwd_ms"] = (ms("autodiff.conv3d"), "ms/item")
    m["autodiff.conv3d.calls"] = (calls.get("autodiff.conv3d", 0) * per_item, "calls/item")
    m["autodiff.conv3d.patch_mb"] = (value.get("autodiff.conv3d", 0.0) / 1e6 * per_item, "MB/item")
    for cls in BWD_CLASSES + ("other",):
        m[f"autodiff.bwd.{cls}_ms"] = (ms(f"autodiff.bwd.{cls}"), "ms/item")
    m["autodiff.backward_ms"] = (ms("autodiff.backward"), "ms/item")
    nodes = sum(n for (run, name), n in tracer.counts.items()
                if run in runs and name == "autodiff.tape_nodes")
    backwards = calls.get("autodiff.backward", 0)
    m["autodiff.tape_nodes"] = (nodes / backwards if backwards else 0.0, "nodes/step")

    m["quantize.fake_quant.fwd_ms"] = (ms("quantize.fake_quant"), "ms/item")
    m["quantize.fake_quant.calls"] = (calls.get("quantize.fake_quant", 0) * per_item, "calls/item")
    m["quantize.act_quantize.ms"] = (ms("quantize.act_quantize"), "ms/item")

    for cls in KERNEL_CLASSES:
        m[f"{_forward_span(cls)}.ms"] = (ms(_forward_span(cls)), "ms/item")
    attn_self = self_times(tracer.spans, lambda c: c.name == "network.linear")
    m["network.attention.self_ms"] = (
        sum(t for s, t in zip(tracer.spans, attn_self)
            if s.run in runs and s.name == "network.attention" and s.outer)
        * _SCALE_MS * per_item, "ms/item")
    m.update(_dist("network.forward_stack",
                   [s.duration for s in spans if s.name == "network.forward_stack" and s.outer]))
    for cls in KERNEL_CLASSES:
        secs = total.get(_forward_span(cls), 0.0)
        flops = value.get(_forward_span(cls), 0.0)
        m[f"network.{cls}.gflops_per_s"] = (flops / secs / 1e9 if secs else 0.0, "GFLOP/s")

    m["packed.read_packed.ms"] = (ms("packed.read_packed"), "ms/item")
    m["packed.install_packed.ms"] = (ms("packed.install_packed"), "ms/item")
    m["packed.qnet_build.ms"] = (ms("network.qnet_init"), "ms/item")
    m.update(_dist("packed.infer_packed",
                   [s.duration for s in spans if s.name == "packed.infer_packed" and s.outer]))
    for cls in KERNEL_CLASSES:
        m[f"packed.int_kernel.{cls}.ms"] = (ms(f"packed.int_kernel.{cls}"), "ms/item")
    m["packed.nets_built_per_clip"] = (calls.get("network.qnet_init", 0) * per_item, "nets/item")
    fq = {}
    for s in tracer.spans:
        if s.run == check_run and s.outer:
            fq.setdefault(s.name, []).append(s.duration)
    for cls in KERNEL_CLASSES:
        n_int = calls.get(f"packed.int_kernel.{cls}", 0)
        fq_calls = fq.get(_forward_span(cls))
        ratio = 0.0
        if n_int and fq_calls:
            ratio = (total[f"packed.int_kernel.{cls}"] / n_int) / statistics.fmean(fq_calls)
        m[f"packed.int_vs_fq.{cls}"] = (ratio, "ratio")
        m[f"packed.int_vs_fq_theory.{cls}"] = (computed["theory_ratio"][cls], "ratio")
    for key, unit in (("max_abs", "abs"), ("psnr_gap_db", "dB"),
                      ("clip_share_over_tol", "ratio"), ("layer_rel_err", "rel")):
        m[f"packed.int_vs_fq.{key}"] = (computed.get(f"int_vs_fq_{key}", 0.0), unit)

    m["training.adam_step.ms"] = (ms("training.adam_step"), "ms/item")
    m["training.augment.ms"] = (ms("training.augment"), "ms/item")
    m["training.calibrate.ms"] = (ms("training.calibrate"), "ms/item")
    m["training.evaluate_psnr.ms"] = (ms("training.evaluate_psnr"), "ms/item")
    m.update(_dist("training.step", _training_steps(spans)))

    for name in ("sci.encode", "sci.initial_estimate", "sci.synth_video",
                 "evaluation.psnr", "evaluation.ssim",
                 "containers.load_checkpoint", "containers.save_checkpoint"):
        m[f"{name}.ms"] = (ms(name), "ms/item")

    for cls in KERNEL_CLASSES:
        m[f"computed.{cls}.gflop"] = (computed["gflop"][cls], "GFLOP/item")
        m[f"computed.{cls}.adj_gop"] = (computed["adj_gop"][cls], "GOP/item")
    m["trace.spans"] = (len(spans) * per_item, "spans/item")
    return m


def computed_counts(cfg, input_hw) -> dict:
    """Per-kernel-class forward FLOPs and bit-adjusted OPs of one item at
    ``input_hw``, from ``count_efficiency`` over ``QNet.audit``."""
    flops = dict.fromkeys(KERNEL_CLASSES, 0.0)
    adj = dict.fromkeys(KERNEL_CLASSES, 0.0)
    for row in evaluation.count_efficiency(cfg, input_hw).rows:
        if row["kind"] == "linear":
            cls = "linear"
        else:
            cls = kernel_class(tuple(int(d) for d in row["geometry"].split("x")[2:]))
        flops[cls] += row["flops"]
        adj[cls] += row["adj_ops"]
    return {
        "gflop": {c: flops[c] / 1e9 for c in KERNEL_CLASSES},
        "adj_gop": {c: adj[c] / 1e9 for c in KERNEL_CLASSES},
        "theory_ratio": {c: adj[c] / flops[c] if flops[c] else 0.0 for c in KERNEL_CLASSES},
    }
