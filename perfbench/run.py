"""Benchmark of the qsci CLI: QAT training, fake-quant evaluation and
integer inference, end to end (``--trace 0``) or layer by layer
(``--trace 1``).

    python3 perfbench/run.py --workload eval_q4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. Scratch files go to ``.perfbench/`` in the checkout and
the set-up directories are removed at exit; a JSON record of each run (the
environment, the metrics and, when traced, every span) is kept in
``.perfbench/results/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_q4", "eval_q4", "infer_int")
END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "psnr_db": "dB", "passed_share": "ratio"}


def _pin_threads():
    """One caller in one process: serial CLI, single-threaded BLAS. Must run
    before numpy is imported."""
    os.environ["QSCI_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads() -> int:
    """Thread count reported by the OpenBLAS bundled with numpy, or -1."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment(args, items_per_command: int, commands: int) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": _blas_threads(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "QSCI_THREADS": os.environ.get("QSCI_THREADS", ""),
        "items_per_command": items_per_command, "commands": commands,
    }


def timed_phase(wl, ctx, seconds: float, tracer=None, between=None, probe=None):
    """Run the workload's CLI commands back to back until ``seconds`` have
    passed and every command of the cycle ran once. Each command is timed
    between two host-speed probes, and its outputs are collected after its
    clock stops. Between commands the garbage collector runs, as it would
    between separate CLI processes, and then ``between(elapsed_seconds)``
    when given."""
    import gc
    import time
    import traceback

    from hostspeed import Probe
    from workloads import Rep, run_cli, traced

    probe = probe or Probe()
    reps, runs = [], []
    start = time.perf_counter()
    while len(reps) < wl.min_commands(ctx) or time.perf_counter() - start < seconds:
        i = len(reps)
        gc.collect()
        runs.append(f"{'traced' if tracer else 'timed'}-{i}")
        error = ""
        with traced(tracer, runs[-1]), probe.timed() as clock:
            try:
                ok, out = run_cli(wl.argv(ctx, i))
                error = "" if ok else out
            except (Exception, SystemExit):   # a crash fails the command's items
                ok, error = False, traceback.format_exc()
        output = None
        if ok:
            try:
                output = wl.collect(ctx, i)
            except Exception:
                ok, error = False, traceback.format_exc()
        if error:
            print(f"{wl.name}: command {i} failed:\n{error}", file=sys.stderr)
        reps.append(Rep(i, clock.wall, ok, error, output, clock.ref))
        if between is not None:
            between(time.perf_counter() - start)
    return reps, runs


def _throughput(wl, ctx, reps, failed) -> float:
    """Items that passed per reference second: the items of one command,
    times the share that passed, over the median of the commands' times in
    reference seconds."""
    import statistics

    passed = 1.0 - sum(failed) / (wl.items(ctx) * len(reps))
    return wl.items(ctx) * passed / statistics.median(r.ref_seconds for r in reps)


def _wall_throughput(wl, ctx, reps, failed) -> float:
    """Items that passed per second of summed command wall time."""
    return (wl.items(ctx) * len(reps) - sum(failed)) / sum(r.seconds for r in reps)


def run_workload(args, geo=None) -> dict:
    """Set up, time, check; returns the result record of one run.

    The workload's ``setup_reps`` set-ups are spread over the untraced timed
    phase, so that ``setup_s`` and ``items_per_s`` sample the same stretch of
    time. Every set-up and command is timed between two host-speed probes
    (see ``hostspeed``); the end-to-end times are in reference seconds."""
    import gc
    import resource
    import shutil
    import statistics
    import tempfile

    import layers
    from hostspeed import REFERENCE_S, Probe
    from qsci.network import make_variant
    from tracing import Tracer
    from workloads import BENCH, WORKLOADS, Context

    geo = geo or BENCH
    wl = WORKLOADS[args.workload]
    base = ROOT / ".perfbench"
    (base / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base))
    probe = Probe()
    try:
        setup_s, setup_wall_s = [], []

        def set_up():
            c = Context(tmp / f"setup{len(setup_s)}", args.seed, geo)
            gc.collect()
            with probe.timed() as clock:
                wl.setup(c)
            setup_s.append(clock.ref)
            setup_wall_s.append(clock.wall)
            return c

        phase_s = args.seconds / 2 if args.trace else args.seconds

        def between(elapsed):
            while len(setup_s) < wl.setup_reps and elapsed >= len(setup_s) * phase_s / wl.setup_reps:
                set_up()

        ctx = set_up()
        reps, _ = timed_phase(wl, ctx, phase_s, between=between, probe=probe)
        while len(setup_s) < wl.setup_reps:
            set_up()
        tracer = Tracer() if args.trace else None
        traced_reps, traced_runs = [], []
        if tracer is not None:
            traced_reps, traced_runs = timed_phase(wl, ctx, phase_s, tracer, probe=probe)
        all_reps = reps + traced_reps
        failed, psnr, info = wl.check(ctx, all_reps, tracer)
        items = wl.items(ctx)

        attempted = items * len(all_reps)
        n_failed = sum(failed)
        if tracer is None:
            metrics = {
                "items_per_s": _throughput(wl, ctx, reps, failed),
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "psnr_db": psnr,
                "passed_share": 1.0 - n_failed / attempted,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        else:
            hw = wl.input_hw(ctx)
            computed = layers.computed_counts(make_variant("q4"), (hw, hw))
            computed.update(info)
            metrics = layers.layer_metrics(tracer, traced_runs, items * len(traced_reps),
                                           "check-fq", computed)
            untraced = _throughput(wl, ctx, reps, failed[:len(reps)])
            traced = _throughput(wl, ctx, traced_reps, failed[len(reps):])
            metrics["trace.items_per_s_untraced"] = (untraced, "1/s")
            metrics["trace.items_per_s_traced"] = (traced, "1/s")
            metrics["trace.overhead_ratio"] = (untraced / traced if traced else 0.0, "ratio")

        env = environment(args, items, len(all_reps))
        env.update(reference_probe_s=REFERENCE_S,
                   host_slowdown=statistics.median(probe.samples) / REFERENCE_S,
                   items_per_s_wall=_wall_throughput(wl, ctx, reps, failed[:len(reps)]),
                   setup_wall_s=setup_wall_s, setup_ref_s=setup_s,
                   command_s=[r.seconds for r in all_reps],
                   command_ref_s=[r.ref_seconds for r in all_reps], probe_s=probe.samples,
                   failed_share=n_failed / attempted, **info)
        record = {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        out = base / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        spans = [] if tracer is None else [
            [s.name, s.t0, s.t1, s.parent, s.run, s.value] for s in tracer.spans]
        out.write_text(json.dumps({"env": env, **record, "spans": spans}), encoding="ascii")
        return {"env": env, **record}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def declared_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_result(result: dict):
    name = result["env"]["workload"]
    for key, m in result["metrics"].items():
        print(f"{name:10s} {key:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:10s} {'failed_share':34s} {result['env']['failed_share']:>16.6g} ratio")
    print(f"{name:10s} {'items_per_s_wall':34s} {result['env']['items_per_s_wall']:>16.6g} 1/s")
    print(f"{name:10s} {'host_slowdown':34s} {result['env']['host_slowdown']:>16.6g} ratio")
    print("env " + json.dumps(result["env"]))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "qsci" / "__init__.py").is_file():
        print(f"no qsci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    _pin_threads()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args)
    names = declared_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        print(f"metric names {sorted(result['metrics'])} differ from BENCHMARK.json {names}",
              file=sys.stderr)
        return 3
    print_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
