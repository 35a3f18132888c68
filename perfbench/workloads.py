"""The three workloads: set-up through the program, the CLI commands the
timed phase runs, and the correctness checks on what those commands wrote.

Every input is derived from the workload seed. Set-up writes ``gen-data``
directories and fixture checkpoints with the program's public functions;
the timed phase only runs ``qsci.cli.main(argv)``; the checks run afterwards,
outside the timed phase, and compare each command's outputs with the
benchmark's own recomputation.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from qsci import cli, packed
from qsci.autodiff import Tensor
from qsci.containers import load_checkpoint, save_checkpoint
from qsci.network import QNet, make_variant, parse_fingerprint
from qsci.sci import MaskSet, Measurement, VideoClip, encode, initial_estimate
from qsci.training import make_synth_dataset

import layers
from tracing import Patcher

# The fixture model is the same for every workload seed (only the data
# varies), so psnr_db moves with the data and not with a random backbone.
# The zero-initialized output and shortcut convs get weights of the size a
# short training run gives them, so the integer path is compared on layers
# that contribute to the output.
FIXTURE_SEED = 0
FIXTURE_STD = 2e-4
PSNR_CSV_TOL_DB = 1e-5        # CSV rows carry six decimals
PSNR_RECOMPUTE_TOL_DB = 1e-4  # holdout PSNR re-run one clip at a time
PSNR_INT_VS_FQ_TOL_DB = 1e-4
INT_VS_FQ_ABS_TOL = 1e-5
INT_REPEAT_TOL = 1e-5         # timed output vs the benchmark's own integer run
LAYER_RTOL = 1e-5             # integer kernel vs fake-quant layer, same input


@dataclass(frozen=True)
class Geometry:
    """Input sizes of the workloads."""

    data_dirs: int = 4          # eval_q4 / infer_int cycle through these
    clips_per_dir: int = 2
    hw: int = 64
    frames: int = 4
    calib_clips: int = 2        # clips of data dir 0 the q4 fixture is calibrated on
    train_items: int = 16       # training samples per train command: two steps
    train_batch: int = 8
    train_crop: int = 32
    train_clip_hw: int = 48
    holdout: int = 16


BENCH = Geometry()


@dataclass
class Context:
    work: Path
    seed: int
    geo: Geometry

    @property
    def data_seed(self) -> int:
        """Seed of the generated clips; consecutive workload seeds share none."""
        return 1000 * self.seed

    def data(self, k: int) -> Path:
        return self.work / f"data{k}"


@dataclass
class Rep:
    """One run of the timed command; ``index`` counts commands in its phase.
    ``seconds`` is wall time, ``ref_seconds`` the same in reference seconds."""

    index: int
    seconds: float
    ok: bool
    error: str
    output: object = None
    ref_seconds: float = 0.0


def psnr_db(a, b) -> float:
    """The benchmark's own PSNR (MAX=1) in float64."""
    mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    return 100.0 if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def run_cli(argv) -> tuple[bool, str]:
    """Run one CLI command in-process; (exit code 0, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main([str(a) for a in argv])
    return rc == 0, buf.getvalue()


def read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return [line.split(",") for line in lines[1:] if line.strip()]


def load_data_dir(path: Path):
    """(masks, [(index, clip, measurement)]) from a gen-data directory."""
    arr = np.load(path / "masks.npy").astype(np.float32)
    masks = MaskSet(masks=arr, seed=-1, density=float(arr.mean()))
    entries = []
    for idx, clip_name, meas_name, *_ in read_csv(path / "manifest.csv"):
        clip = VideoClip(frames=np.load(path / clip_name).astype(np.float32))
        meas = Measurement(y=np.load(path / meas_name).astype(np.float32), cr=masks.t)
        entries.append((int(idx), clip, meas))
    return masks, entries


def load_net(path: Path):
    fp, state = load_checkpoint(path)
    net = QNet(parse_fingerprint(fp), seed=0)
    net.load_state(state)
    return net


def write_fp32_fixture(ctx: Context) -> dict:
    """He-initialized fp32 backbone of the q4 preset geometry with a small
    ``conv_out`` kernel; saved as ``fp32.qsc``."""
    cfg = make_variant("fp32")
    state = QNet(cfg, seed=FIXTURE_SEED).state_dict()
    rng = np.random.default_rng([FIXTURE_SEED, 1])
    shape = state["vrm.conv_out.weight"].shape
    state["vrm.conv_out.weight"] = (rng.standard_normal(shape) * FIXTURE_STD).astype(np.float32)
    save_checkpoint(ctx.work / "fp32.qsc", cfg.fingerprint(), state)
    return state


def write_q4_fixture(ctx: Context, fp32_state: dict):
    """q4 preset initialized from the fp32 fixture, shortcut convs given
    small weights, quantizers calibrated on the first clips of the seed's
    data; saved as ``q4.qsc``."""
    cfg = make_variant("q4")
    net = QNet(cfg, seed=FIXTURE_SEED)
    net.init_from_backbone(fp32_state, cfg.backbone_geometry())
    state = net.state_dict()
    rng = np.random.default_rng([FIXTURE_SEED, 2])
    for name in sorted(state):
        if ".short_" in name and name.endswith(".weight"):
            state[name] = (rng.standard_normal(state[name].shape) * FIXTURE_STD).astype(np.float32)
    net.load_state(state)
    masks, entries = load_data_dir(ctx.data(0))
    stacks = [initial_estimate(meas, masks) for _, _, meas in entries[: ctx.geo.calib_clips]]
    net.calibrate_quantizers(np.concatenate(stacks))
    save_checkpoint(ctx.work / "q4.qsc", cfg.fingerprint(), net.state_dict())


@contextlib.contextmanager
def traced(tracer, run: str):
    """Trace the block under run id ``run`` when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.run = run
    with Patcher() as patcher:
        layers.install(tracer, patcher)
        yield
    tracer.run = ""


def _report(workload: str, where: str, problem: str):
    print(f"{workload}: {where}: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# train_q4
# ---------------------------------------------------------------------------

class TrainQ4:
    """``qsci train`` of the q4 preset from an fp32 fixture (QAT fine-tune)."""

    name = "train_q4"
    setup_reps = 31     # a set-up takes milliseconds; more of them steady the median
    setup_reps = 31     # a set-up takes milliseconds; more of them steady the median

    def items(self, ctx):
        return ctx.geo.train_items

    def input_hw(self, ctx):
        return ctx.geo.train_crop

    def min_commands(self, ctx):
        return 1

    def setup(self, ctx):
        g = ctx.geo
        ctx.work.mkdir(parents=True)
        write_fp32_fixture(ctx)
        (ctx.work / "train.cfg").write_text("\n".join([
            "net.variant = q4",
            "net.resdnet_blocks = 2",
            "net.cformer_per_block = 2",
            "train.epochs_phase1 = 1",
            "train.epochs_phase2 = 0",
            f"train.batch_size = {g.train_batch}",
            f"train.crop = {g.train_crop}",
            f"train.seed = {ctx.seed}",
            f"data.seed = {ctx.data_seed}",
            f"data.count = {g.train_items}",
            f"data.holdout = {g.holdout}",
            f"data.clip_hw = {g.train_clip_hw}",
            "out.dir = run",
        ]) + "\n", encoding="ascii")

    def argv(self, ctx, i):
        return ["--workdir", ctx.work, "train", "--config", "train.cfg", "--init", "fp32.qsc"]

    def collect(self, ctx, i):
        rows = read_csv(ctx.work / "run" / "loss.csv")
        return (rows,) + load_checkpoint(ctx.work / "run" / "checkpoint.qsc")

    def _problems(self, rows, fingerprint, state, holdout):
        if len(rows) != 1 or len(rows[0]) != 5:
            return [f"loss.csv holds {rows}, expected one row of 5 fields"]
        try:
            loss, csv_psnr = float(rows[0][3]), float(rows[0][4])
        except ValueError:
            return [f"unparsable loss.csv row {rows[0]}"]
        if not (math.isfinite(loss) and math.isfinite(csv_psnr)):
            return ["non-finite loss or PSNR"]
        if not all(np.isfinite(a).all() for a in state.values()):
            return ["non-finite parameters"]
        net = QNet(parse_fingerprint(fingerprint), seed=0)
        net.load_state(state)
        ours = float(np.mean([psnr_db(net.reconstruct(encode(c, holdout.masks),
                                                      holdout.masks).frames, c.frames)
                              for c in holdout.holdout_clips]))
        if abs(ours - csv_psnr) > PSNR_RECOMPUTE_TOL_DB:
            return [f"holdout PSNR {csv_psnr} vs recomputed {ours}"]
        return []

    def check(self, ctx, reps, tracer=None):
        g = ctx.geo
        holdout = make_synth_dataset(ctx.data_seed, 0, g.holdout, g.frames, g.train_clip_hw,
                                     g.train_crop)
        failed, psnrs, seen = [], [], {}
        for i, rep in enumerate(reps):
            problems = ["command failed"]
            if rep.ok:
                # training is deterministic: check each distinct output once
                rows, fingerprint, state = rep.output
                key = (fingerprint, str(rows),
                       b"".join(state[k].tobytes() for k in sorted(state)))
                if key not in seen:
                    seen[key] = self._problems(rows, fingerprint, state, holdout)
                problems = seen[key]
            for p in problems:
                _report(self.name, f"command {i}", p)
            failed.append(g.train_items if problems else 0)
            if not problems:
                psnrs.append(float(rep.output[0][0][4]))
        return failed, float(np.mean(psnrs)) if psnrs else float("nan"), {}


# ---------------------------------------------------------------------------
# eval_q4 and infer_int: one command per data directory, in turn
# ---------------------------------------------------------------------------

class _ClipWorkload:
    """Commands over the data directories in turn; an item is one clip."""

    name = ""
    setup_reps = 7
    setup_reps = 7

    def items(self, ctx):
        return ctx.geo.clips_per_dir

    def input_hw(self, ctx):
        return ctx.geo.hw

    def min_commands(self, ctx):
        return ctx.geo.data_dirs

    def setup(self, ctx):
        g = ctx.geo
        ctx.work.mkdir(parents=True)
        for k in range(g.data_dirs):
            ok, out = run_cli(["--workdir", ctx.work, "gen-data",
                               "--seed", ctx.data_seed + 100 * k, "--count", g.clips_per_dir,
                               "--T", g.frames, "--H", g.hw, "--W", g.hw, "--out", f"data{k}"])
            if not ok:
                raise RuntimeError(f"gen-data failed: {out}")
        write_q4_fixture(ctx, write_fp32_fixture(ctx))

    def reference(self, ctx, tracer):
        """{(dir, index): {"clip", "fq", ...}} with the fake-quant
        reconstruction of every clip (traced as run ``check-fq``)."""
        net = load_net(ctx.work / "q4.qsc")
        ref = {}
        with traced(tracer, "check-fq"):
            for k in range(ctx.geo.data_dirs):
                masks, entries = load_data_dir(ctx.data(k))
                for idx, clip, meas in entries:
                    ref[(k, idx)] = {"clip": clip.frames, "meas": meas, "masks": masks,
                                     "fq": net.reconstruct(meas, masks).frames}
        return net, ref

    def problem(self, r, row):
        raise NotImplementedError

    def check(self, ctx, reps, tracer=None):
        net, ref = self.reference(ctx, tracer)
        info = self.extend_reference(ctx, net, ref)
        n = ctx.geo.clips_per_dir
        failed, dir_psnr = [], {}
        for i, rep in enumerate(reps):
            k = rep.index % ctx.geo.data_dirs
            if not rep.ok:
                _report(self.name, f"command {i}", "command failed")
                failed.append(n)
                continue
            passed = []
            for (kk, idx), r in ref.items():
                if kk != k:
                    continue
                problem = self.problem(r, rep.output.get(idx))
                if problem:
                    _report(self.name, f"command {i}, data{k} clip {idx}", problem)
                else:
                    passed.append(rep.output[idx][0])
            failed.append(n - len(passed))
            if len(passed) == n:
                dir_psnr.setdefault(k, float(np.mean(passed)))
        psnr = float(np.mean(list(dir_psnr.values()))) if dir_psnr else float("nan")
        return failed, psnr, info

    def extend_reference(self, ctx, net, ref) -> dict:
        return {}


class EvalQ4(_ClipWorkload):
    """``qsci eval`` of the q4 fixture over 64x64 gen-data directories."""

    name = "eval_q4"

    def argv(self, ctx, i):
        return ["--workdir", ctx.work, "eval", "--ckpt", "q4.qsc",
                "--data", f"data{i % ctx.geo.data_dirs}", "--out", "eval_out"]

    def collect(self, ctx, i):
        return {int(r[0]): (float(r[1]), float(r[2]))
                for r in read_csv(ctx.work / "eval_out" / "metrics.csv") if r[0] != "average"}

    def problem(self, r, row):
        if row is None:
            return "missing CSV row"
        if not (all(math.isfinite(v) for v in row) and np.isfinite(r["fq"]).all()):
            return "non-finite output"
        ours = psnr_db(r["fq"], r["clip"])
        if abs(row[0] - ours) > PSNR_CSV_TOL_DB:
            return f"CSV PSNR {row[0]} vs recomputed {ours}"
        return None


class InferInt(_ClipWorkload):
    """``qsci infer-int`` of the packed q4 fixture over the same data."""

    name = "infer_int"

    def setup(self, ctx):
        super().setup(ctx)
        ok, out = run_cli(["--workdir", ctx.work, "pack", "--ckpt", "q4.qsc", "--out", "q4.pack"])
        if not ok:
            raise RuntimeError(f"pack failed: {out}")

    def argv(self, ctx, i):
        return ["--workdir", ctx.work, "infer-int", "--packed", "q4.pack",
                "--data", f"data{i % ctx.geo.data_dirs}", "--out", "int_out"]

    def collect(self, ctx, i):
        out = ctx.work / "int_out"
        return {int(r[0]): (float(r[1]), np.load(out / f"recon_{int(r[0]):04d}.npy"))
                for r in read_csv(out / "int_metrics.csv")}

    def extend_reference(self, ctx, fq_net, ref) -> dict:
        """Adds the benchmark's own ``infer_packed`` reconstruction of each
        clip, during which every integer kernel is compared with the
        fake-quant forward of the same layer on the same input."""
        modules = dict(fq_net.named_modules())
        try:
            model = packed.read_packed(ctx.work / "q4.pack")
            for r in ref.values():
                errs = [0.0]

                def agreeing(orig):
                    def wrapper(self, x):
                        out = orig(self, x)
                        want = modules[self.layer.name].forward(Tensor(x)).data
                        scale = max(1.0, float(np.abs(want).max()))
                        errs.append(float(np.abs(out - want).max()) / scale)
                        return out
                    return wrapper

                with Patcher() as patcher:
                    patcher.wrap_method(packed.IntKernel, "__call__", agreeing)
                    r["int"] = packed.infer_packed(model, r["meas"], r["masks"]).frames
                r["layer_err"] = max(errs)
        except Exception:   # a broken packed file fails every item in problem()
            _report(self.name, "own integer run", traceback.format_exc())
        return _end_to_end_gap(ref)

    def problem(self, r, row):
        if row is None:
            return "missing output"
        csv_psnr, frames = row
        if not (math.isfinite(csv_psnr) and np.isfinite(frames).all()):
            return "non-finite output"
        if abs(csv_psnr - psnr_db(frames, r["clip"])) > PSNR_CSV_TOL_DB:
            return f"CSV PSNR {csv_psnr} vs recomputed from saved frames"
        if "int" not in r or float(np.abs(frames - r["int"]).max()) > INT_REPEAT_TOL:
            return "saved frames differ from the benchmark's own integer run"
        if r["layer_err"] > LAYER_RTOL:
            return (f"an integer kernel differs from its fake-quant layer by "
                    f"{r['layer_err']:.3g} (relative)")
        return None


def _end_to_end_gap(ref) -> dict:
    """How far whole integer reconstructions are from fake-quant ones.

    Reported, not counted as failures: float32 rounding in the fake-quant
    GEMMs moves values by about 1e-6 relative, which flips the occasional
    activation code next to a rounding boundary, and the flip reaches the
    output through every later layer."""
    gaps, over = [], 0
    done = [r for r in ref.values() if "layer_err" in r]
    for r in done:
        max_abs = float(np.abs(r["int"] - r["fq"]).max())
        gap = abs(psnr_db(r["int"], r["clip"]) - psnr_db(r["fq"], r["clip"]))
        gaps.append((max_abs, gap))
        over += max_abs > INT_VS_FQ_ABS_TOL or gap > PSNR_INT_VS_FQ_TOL_DB
    nan = float("nan")
    return {"int_vs_fq_max_abs": max((g[0] for g in gaps), default=nan),
            "int_vs_fq_psnr_gap_db": max((g[1] for g in gaps), default=nan),
            "int_vs_fq_clip_share_over_tol": over / len(done) if done else nan,
            "int_vs_fq_layer_rel_err": max((r["layer_err"] for r in done), default=nan)}


WORKLOADS = {w.name: w for w in (TrainQ4(), EvalQ4(), InferInt())}
