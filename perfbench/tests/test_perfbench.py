"""Tests of the benchmark's own helpers (run with
``python -m pytest perfbench/tests`` from the repository root)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Patcher, Span, Tracer, percentile, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Context, Geometry  # noqa: E402

TINY = Geometry(data_dirs=2, clips_per_dir=1, hw=16, calib_clips=1, train_items=4,
                train_batch=2, train_crop=16, train_clip_hw=24, holdout=2)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 5.0, 0, "r"),       # overlaps a: union of children is [1, 5]
        Span("a.1", 1.5, 2.5, 1, "r"),
        Span("late", 9.5, 11.0, 0, "r"),   # only [9.5, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([5.5, 1.0, 3.0, 1.0, 1.5])
    only_b = self_times(spans, lambda s: s.name == "b")
    assert only_b[0] == pytest.approx(7.0)
    assert only_b[1] == pytest.approx(2.0)


def test_tracer_nests_and_marks_outermost():
    tr = Tracer()
    tr.run = "x"

    def inner(n):
        return tr.call("f", 0.0, inner, n - 1) if n else "done"

    assert tr.call("f", 2.5, inner, 2) == "done"
    assert [s.parent for s in tr.spans] == [-1, 0, 1]
    assert [s.outer for s in tr.spans] == [True, False, False]
    assert tr.spans[0].value == 2.5 and all(s.run == "x" for s in tr.spans)
    assert all(s.t1 >= s.t0 for s in tr.spans)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(12) == 50
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([], 90) == 0.0


def test_probe_scales_wall_time_to_reference_seconds():
    class SlowHost(hostspeed.Probe):
        """Probes read 1x and then 3x the reference time: a 2x slower host."""

        def __call__(self):
            self.samples.append(hostspeed.REFERENCE_S * (1 + 2 * len(self.samples)))
            return self.samples[-1]

    probe = SlowHost()
    with probe.timed() as clock:
        sum(range(10_000))
    assert clock.wall > 0 and clock.ref == pytest.approx(clock.wall / 2)
    assert len(probe.samples) == 2
    assert 0 < hostspeed.Probe()() < 10.0


def _targets():
    from qsci import autodiff, network, packed, quantize, training

    return [(m, a) for m in (autodiff, network, packed, quantize, training)
            for a in ("fake_quant", "conv3d", "backward", "infer_packed", "augment")
            if hasattr(m, a)] + [
        (network.QConv3d, "forward"), (network.QLinear, "forward"),
        (network.ShiftedAttention, "forward"), (network.QNet, "__init__"),
        (network.QNet, "forward_stack"), (packed.IntKernel, "__call__"),
        (training.Adam, "step"), (autodiff.Tape, "record")]


def test_wrappers_call_originals_and_are_restored():
    import qsci
    from qsci import autodiff, network, quantize

    before = {(id(o), a): (o.__dict__[a] if isinstance(o, type) else getattr(o, a))
              for o, a in _targets()}
    x = autodiff.Tensor(np.linspace(-2, 2, 24, dtype=np.float32).reshape(2, 12))
    q = quantize.ActQuantizer(4)
    q.calibrate(x.data)
    expected = quantize.fake_quant(x, q).data

    tr = Tracer()
    with Patcher() as patcher:
        layers.install(tr, patcher)
        assert network.fake_quant is not before[(id(network), "fake_quant")]
        assert qsci.fake_quant is network.fake_quant
        assert network.QConv3d.__dict__["forward"] is not before[(id(network.QConv3d), "forward")]
        np.testing.assert_array_equal(network.fake_quant(x, q).data, expected)
    assert [s.name for s in tr.spans] == ["quantize.fake_quant"]

    after = {(id(o), a): (o.__dict__[a] if isinstance(o, type) else getattr(o, a))
             for o, a in _targets()}
    assert all(after[k] is before[k] for k in before)
    assert qsci.fake_quant is quantize.fake_quant


def test_span_flops_match_audit():
    from qsci.autodiff import Tensor
    from qsci.network import QNet, make_variant

    cfg = make_variant("q4")
    counts = layers.computed_counts(cfg, (16, 16))
    net = QNet(cfg, seed=0)
    tr = Tracer()
    with Patcher() as patcher:
        layers.install(tr, patcher)
        net.forward_stack(Tensor(np.zeros((1, 2, 4, 16, 16), np.float32)))
    for cls in layers.KERNEL_CLASSES:
        name = layers._forward_span(cls)
        flops = sum(s.value for s in tr.spans if s.name == name)
        assert flops / 1e9 == pytest.approx(counts["gflop"][cls], rel=1e-12)


def test_corrupted_packed_file_counts_as_failure(tmp_path):
    wl = WORKLOADS["infer_int"]
    ctx = Context(tmp_path / "w", 5, TINY)
    wl.setup(ctx)
    packed_file = ctx.work / "q4.pack"
    packed_file.write_bytes(packed_file.read_bytes()[:200])
    reps, _ = run.timed_phase(wl, ctx, 0.0)
    failed, _, _ = wl.check(ctx, reps)
    assert len(reps) == TINY.data_dirs and not any(r.ok for r in reps)
    assert failed == [TINY.clips_per_dir] * TINY.data_dirs


@pytest.mark.parametrize("workload,trace", [("train_q4", 0), ("eval_q4", 0), ("infer_int", 0),
                                            ("train_q4", 1), ("eval_q4", 1), ("infer_int", 1)])
def test_metric_names_match_benchmark_json(workload, trace):
    args = argparse.Namespace(workload=workload, seed=2, seconds=0.0, trace=trace)
    result = run.run_workload(args, geo=TINY)
    assert sorted(result["metrics"]) == sorted(run.declared_metrics(trace))
    assert result["attempted"] >= 1
