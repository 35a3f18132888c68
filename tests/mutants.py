"""Mutation check of Tier-1: a registry of mutants, each one edit of one
source snippet, and a runner that reports which of them Tier-1 kills.

    python tests/mutants.py [--out mutants.csv] [--only NAME[,NAME]]

The runner first runs Tier-1 on an unedited copy of the tree, and stops if
that fails. Then, for each mutant in turn, it copies the tree to a temporary
directory, replaces the snippet there and runs Tier-1 there with ``-x``; the
checkout itself is never edited. A mutant is killed when that run fails, or
when it runs longer than ``TIMEOUT`` seconds. The CSV gets one row per
mutant: its name, whether it was killed, the first failing test, the run's
wall time and what a test that kills it pins. ``--only`` runs the unedited
copy and then only the named mutants, so a change that adds mutants can run
just those.

This is a script, not a pytest module, so it is not part of Tier-1; it uses
the standard library only. ``tests/test_source.py`` checks that each snippet
occurs exactly once in its file, so a change that moves or deletes a
mutated line updates the registry with it.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 900.0     # seconds per Tier-1 run; a hanging mutant counts as killed
TIER1 = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")
NOT_COPIED = shutil.ignore_patterns(".git", ".perfbench", "__pycache__", ".pytest_cache",
                                    ".hypothesis", ".benchmarks", "mutants.csv")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # relative to the root of the tree
    snippet: str        # occurs exactly once in the file
    replacement: str
    why: str            # what a test that kills it pins


MUTANTS = (
    Mutant("alpha_guard_weakened", "src/qsci/quantize.py",
           "if not alpha > 0:", "if alpha < 0:",
           "a zero scale is refused, not divided by"),
    Mutant("alpha_guard_deleted", "src/qsci/quantize.py",
           "if not alpha > 0:", "if False:",
           "a scale that is not > 0, NaN included, is a ConfigError"),
    Mutant("pgm_floor", "src/qsci/cli.py",
           "np.rint(frame * 255.0)", "np.floor(frame * 255.0)",
           "a dumped frame rounds to the nearest 8-bit level"),
    Mutant("rebuild_skips_clip", "src/qsci/quantize.py",
           "out.rebuild = dequant",
           "out.rebuild = lambda: np.rint(_pre_clip(xd, alpha, z)) * np.float32(alpha)"
           " + np.float32(z)",
           "a rebuilt fake_quant output has the forward's bits, clipped codes included"),
    Mutant("leaky_relu_grad_at_zero", "src/qsci/autodiff.py",
           "np.where(out > 0, g, g * ns)", "np.where(out >= 0, g, g * ns)",
           "at a zero input leaky_relu passes the gradient times the slope"),
    Mutant("conv_reads_quantizer_input", "src/qsci/quantize.py",
           "out.rebuild = dequant", "out.rebuild = lambda: xd",
           "conv3d and matmul differentiate with the dequantized operand"),
    Mutant("code_dtype_bound_halved", "src/qsci/quantize.py",
           "bound = k << (2 * bits - 2)", "bound = k << (2 * bits - 3)",
           "a code contraction runs in a float type that holds its accumulators exactly"),
    Mutant("repeated_entry_accepted", "src/qsci/containers.py",
           "if name in state:", "if False:",
           "a checkpoint that names an entry twice is a FormatError"),
    Mutant("act_quantize_scan_skipped", "src/qsci/quantize.py",
           "if not (tensor and x.scanned):", "if not tensor:",
           "a Tensor that no op scanned is scanned before its codes clip an infinity"),
    Mutant("truncation_unchecked", "src/qsci/containers.py",
           "if n > fh.size - fh.tell():", "if False:",
           "a truncated checkpoint or pack is a FormatError, not a traceback"),
    Mutant("manifest_header_unchecked", "src/qsci/cli.py",
           "if header != MANIFEST_HEADER:", "if False:",
           "a data dir whose manifest lacks the header line is a DataError"),
    Mutant("non_finite_data_accepted", "src/qsci/cli.py",
           "if not np.isfinite(arr).all():", "if False:",
           "a data file that holds a NaN or an infinity is a DataError naming it"),
    Mutant("non_finite_entry_accepted", "src/qsci/network.py",
           'if arr.dtype.kind == "f" and not np.isfinite(arr).all():', "if False:",
           "a checkpoint or pack entry that holds a NaN or an infinity is a ConfigError"),
    Mutant("layer_node_reads_quantizer_input", "src/qsci/network.py",
           "out = node(self.aq.operand(x),", "out = node(x,",
           "a layer's tape node differentiates with its fake-quant input"),
    Mutant("straight_through_dx_unmasked", "src/qsci/quantize.py",
           "np.multiply(g, mid, out=field)", "np.multiply(g, 1, out=field)",
           "the input gradient is zero where the pre-clip value is clipped"),
    Mutant("gelu_slope_from_output_table", "src/qsci/autodiff.py",
           "slope = _gelu_slope(keys, cdf).take(table[1])",
           "slope = _gelu_slope(out, cdf).take(table[1])",
           "the taped GELU table's derivative is taken at the pre-GELU keys"),
    Mutant("allocator_pin_dropped", "src/qsci/cli.py",
           "mallopt(param, 1 << 30)", "pass",
           "a command pins glibc's thresholds, so a freed array's pages are reused"),
    Mutant("query_through_key_quantizer", "src/qsci/network.py",
           "fake_quant(q, self.qq)", "fake_quant(q, self.kq)",
           "the attention quantizes its queries with the query quantizer"),
    Mutant("key_shift_by_query_beta", "src/qsci/network.py",
           "k = k + self.beta_k", "k = k + self.beta_q",
           "the query/key shift adds beta_k to the keys"),
    Mutant("straight_through_dz_sign_flipped", "src/qsci/quantize.py",
           "[np.multiply(g, clipped, out=deq).sum()]", "[-np.multiply(g, clipped, out=deq).sum()]",
           "the zero-point gradient is +g summed where clipped"),
    Mutant("alpha_grad_residual_where_clipped", "src/qsci/quantize.py",
           "field = np.multiply(v, mid, out=v)", "field = v",
           "the scale gradient takes the saturated code, not the residual, where clipped"),
    Mutant("short_b_reads_pre_activation", "src/qsci/network.py",
           "h1 = ad.leaky_relu(h1)\n        h2 = self.conv_b.forward(h1)",
           "a1 = ad.leaky_relu(h1)\n        h2 = self.conv_b.forward(a1)",
           "FEM's second shortcut reads the activated first stage"),
    Mutant("short_out_reads_activation_twice", "src/qsci/network.py",
           "self.short_out.forward(u)", "self.short_out.forward(ad.leaky_relu(u))",
           "VRM's output shortcut reads the same activated features as conv_out"),
)


def first_failure(stdout: str) -> str:
    """The test id of the first FAILED or ERROR line of pytest's summary."""
    for line in stdout.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0]
    return ""


def run_tier1(tree: Path):
    """(passed, first failing test, seconds) of Tier-1 with ``-x`` in ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, timeout=TIMEOUT,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return False, "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return True, "", seconds
    return False, first_failure(proc.stdout) or f"exit {proc.returncode}", seconds


def mutated_copy(mutant, work: Path) -> Path:
    """A copy of the tree in ``work`` with ``mutant`` applied."""
    tree = work / "tree"
    shutil.copytree(ROOT, tree, ignore=NOT_COPIED)
    if mutant is not None:
        path = tree / mutant.path
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
    return tree


def selected(only: str):
    """The registry's mutants named in the comma-separated ``only``, in
    registry order; every mutant when ``only`` is empty."""
    names = set(filter(None, only.split(",")))
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        raise ValueError(f"no mutant named {', '.join(sorted(unknown))}")
    return [m for m in MUTANTS if not names or m.name in names]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="mutants.csv", help="CSV to write")
    ap.add_argument("--only", default="", metavar="NAME[,NAME]",
                    help="run only these mutants (after the unedited copy)")
    args = ap.parse_args(argv)
    try:
        chosen = selected(args.only)
    except ValueError as exc:
        ap.error(str(exc))

    rows = []
    for mutant in [None, *chosen]:
        with tempfile.TemporaryDirectory(prefix="qsci-mutant-") as work:
            passed, failure, seconds = run_tier1(mutated_copy(mutant, Path(work)))
        if mutant is None:
            if not passed:
                raise SystemExit(f"Tier-1 fails on the unedited tree: {failure}")
            continue
        rows.append({"mutant": mutant.name, "killed": int(not passed),
                     "first_failure": failure, "seconds": f"{seconds:.1f}", "why": mutant.why})
        print(f"{mutant.name}: {'killed by ' + failure if not passed else 'SURVIVED'}",
              flush=True)
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
