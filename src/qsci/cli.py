"""Command-line entry points for reproducible desk-scale experiments.

Commands: gen-data, train, eval, ablate, pack, infer-int, report.
Every command is deterministic given its config and seeds; binary outputs
round-trip bit-exactly and CSV outputs are byte-identical across reruns.
``ablate`` writes, into the config's ``out.dir``, ``config_echo.txt``, the
shared backbone ``fp32_init.qsc``, one ``<row>.qsc`` per row, and
``ladder.csv`` and ``grid.csv`` (``row,psnr_db,ssim,params_m,ops_g``); a
row's ``psnr_db,ssim`` are the ``average`` row of ``eval`` of its checkpoint
on the held-out clips. Rows that build the same network are trained once;
a ``net.variant`` other than fp32 or a ``data.holdout`` of 0 is a config
error. Exit codes: 0 success, 2 config error (an output path that cannot
be created or written among them), 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from .containers import ExperimentConfig, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, QsciError, ShapeError
from .evaluation import SSIM_WINDOW, count_efficiency, psnr, ssim
from .network import (BACKBONE, QNet, QNetConfig, check_frame_size, every_stage, make_variant,
                      parse_fingerprint)
from .packed import pack_model, packed_layers, packed_net, read_packed
from .sci import MaskSet, Measurement, VideoClip, encode, generate_masks, synth_video
from .training import MASK_SEED_OFFSET, Dataset, make_synth_dataset, start_net, train


def _resolve(workdir: Path, p: str) -> Path:
    path = Path(p)
    return path if path.is_absolute() else workdir / path


@contextlib.contextmanager
def _writing(path: Path):
    """Turn an OSError raised while creating or writing the output ``path``
    (a file, or a directory and what goes into it) into a ConfigError that
    names the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_pgm(path: Path, frame: np.ndarray):
    """8-bit binary PGM, values scaled from [0,1]."""
    h, w = frame.shape
    data = np.clip(np.rint(frame * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _net_config(cfg: ExperimentConfig) -> QNetConfig:
    # the key net.<field> sets the backbone geometry field <field>
    return make_variant(cfg.net_variant, **{f: getattr(cfg, f"net_{f}") for _, f in BACKBONE})


def _dataset(cfg: ExperimentConfig) -> Dataset:
    return make_synth_dataset(cfg.data_seed, cfg.data_count, cfg.data_holdout,
                              cfg.net_cr, cfg.data_clip_hw, cfg.train_crop,
                              cfg.data_mask_p)


def _write_loss_csv(path: Path, curve):
    lines = ["epoch,phase,lr,train_loss,val_psnr"]
    for row in curve:
        lines.append(f"{row['epoch']},{row['phase']},{row['lr']:.8g},"
                     f"{row['train_loss']:.8f},{row['val_psnr']:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# the first line of a data dir's manifest.csv; its rows follow in this order
MANIFEST_HEADER = "index,clip,measurement,clip_sha256,meas_sha256"


def cmd_gen_data(args, workdir: Path) -> int:
    check_frame_size(args.H, args.W)   # frames the model commands would reject
    mask_seed = args.mask_seed if args.mask_seed is not None else args.seed + MASK_SEED_OFFSET
    masks = generate_masks(mask_seed, args.T, args.H, args.W, args.p)
    out = _resolve(workdir, args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        np.save(out / "masks.npy", masks.masks)
        rows = [MANIFEST_HEADER]
        for i in range(args.count):
            clip = synth_video(args.seed + i, args.T, args.H, args.W)
            meas = encode(clip, masks, args.noise_sigma, noise_seed=args.seed + i)
            clip_path = out / f"clip_{i:04d}.npy"
            meas_path = out / f"meas_{i:04d}.npy"
            np.save(clip_path, clip.frames)
            np.save(meas_path, meas.y)
            rows.append(f"{i},{clip_path.name},{meas_path.name},"
                        f"{_sha256(clip_path)},{_sha256(meas_path)}")
        (out / "manifest.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {args.count} clips to {out}")
    return 0


def _load_data_dir(path: Path, cr: int, min_hw: int = 1):
    """(masks, [(index, clip, measurement)]) of a gen-data directory. The
    masks must be a binary [T, H, W] stack with the model's compression
    ratio ``cr`` as T, each clip [T, H, W] and finite, and each measurement
    [H, W]; a missing, unreadable, misshapen or non-finite clip file, or a
    manifest without ``MANIFEST_HEADER`` or listing an index twice, raises
    DataError naming it. Frames the network cannot take (see
    :func:`~qsci.network.check_frame_size`), or smaller than ``min_hw`` on a
    side (the SSIM window, where the clips are scored by SSIM), raise
    DataError naming the dir."""
    def load(name: str, shape=None) -> np.ndarray:
        try:
            arr = np.load(path / name).astype(np.float32)
        except (OSError, ValueError) as exc:
            raise DataError(f"unreadable {path / name}: {exc}") from exc
        if shape is not None and arr.shape != shape:
            raise DataError(f"{path / name} has shape {arr.shape}, expected {shape}")
        return arr

    try:
        header, *rows = (path / "manifest.csv").read_text(encoding="ascii").splitlines() or [""]
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable data dir {path}: {exc}") from exc
    if header != MANIFEST_HEADER:
        raise DataError(f"{path / 'manifest.csv'} lacks the header line '{MANIFEST_HEADER}'")
    masks_arr = load("masks.npy")
    try:
        masks = MaskSet(masks=masks_arr, seed=-1, density=float(masks_arr.mean()))
    except ValueError as exc:   # ShapeError or ConfigError
        raise DataError(f"{path / 'masks.npy'}: {exc}") from exc
    if masks.t != cr:
        raise DataError(f"data compression ratio {masks.t} vs model {cr}")
    h, w = masks.frame_shape
    try:
        check_frame_size(h, w)
    except ShapeError as exc:
        raise DataError(f"data dir {path}: {exc}") from exc
    if min(h, w) < min_hw:
        raise DataError(f"data dir {path}: frames {h}x{w} are smaller than the "
                        f"{min_hw}x{min_hw} SSIM window")
    entries = []
    for line in filter(str.strip, rows):
        try:
            idx, clip_name, meas_name = line.split(",")[:3]
            idx = int(idx)
        except ValueError as exc:
            raise DataError(f"{path / 'manifest.csv'} row '{line}': {exc}") from exc
        if any(idx == e[0] for e in entries):
            raise DataError(f"{path / 'manifest.csv'} lists index {idx} twice")
        frames = load(clip_name, masks.masks.shape)
        if not np.isfinite(frames).all():   # it would be scored as nan
            raise DataError(f"{path / clip_name} holds a non-finite value")
        entries.append((idx, VideoClip(frames=frames),
                        Measurement(y=load(meas_name, masks.frame_shape), cr=masks.t)))
    return masks, entries


def cmd_train(args, workdir: Path) -> int:
    cfg = ExperimentConfig.load(_resolve(workdir, args.config))
    netcfg = _net_config(cfg)
    init = None if args.init is None else load_checkpoint(_resolve(workdir, args.init))
    net = start_net(cfg, netcfg, init)   # checks the init before any clip is made
    model, curve = train(cfg, net, _dataset(cfg))
    out = _resolve(workdir, cfg.out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_echo.txt").write_text(cfg.echo(), encoding="ascii")
        save_checkpoint(out / "checkpoint.qsc", *model)
        _write_loss_csv(out / "loss.csv", curve)
    last_psnr = curve[-1]["val_psnr"] if curve else float("nan")
    print(f"trained {netcfg.fingerprint()} -> {out / 'checkpoint.qsc'} "
          f"(final holdout PSNR {last_psnr:.3f} dB)")
    return 0


def _load_net(ckpt_path: Path) -> QNet:
    fp, state = load_checkpoint(ckpt_path)
    net = QNet(parse_fingerprint(fp), seed=0)
    net.load_state(state)
    return net


def _reconstruct_all(net: QNet, masks: MaskSet, entries, score):
    """[(index, frames, score(frames, clip frames))] for each (index, clip,
    measurement) entry, in order."""
    results = []
    for idx, clip, meas in entries:
        frames = net.reconstruct(meas, masks).frames
        results.append((idx, frames, score(frames, clip.frames)))
    return results


def _psnr_ssim(frames: np.ndarray, gt: np.ndarray):
    return psnr(frames, gt), ssim(frames, gt)


def _mean_psnr_ssim(scores) -> str:
    """'psnr_db,ssim' means of (psnr, ssim) pairs, as eval's average row."""
    return f"{np.mean([p for p, _ in scores]):.6f},{np.mean([s for _, s in scores]):.6f}"


def cmd_eval(args, workdir: Path) -> int:
    net = _load_net(_resolve(workdir, args.ckpt))
    masks, entries = _load_data_dir(_resolve(workdir, args.data), net.cfg.cr, SSIM_WINDOW)
    results = _reconstruct_all(net, masks, entries, _psnr_ssim)

    out = _resolve(workdir, args.out)
    rows = ["index,psnr_db,ssim"]
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        for idx, frames, (p, s) in results:
            rows.append(f"{idx},{p:.6f},{s:.6f}")
            if args.dump_frames:
                for t, frame in enumerate(frames):
                    _write_pgm(out / f"recon_{idx:04d}_f{t}.pgm", frame)
        if results:
            rows.append("average," + _mean_psnr_ssim([r[2] for r in results]))
        (out / "metrics.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    print((out / "metrics.csv").read_text(encoding="ascii"), end="")
    return 0


def _ladder_configs(fp32: QNetConfig, bits: int):
    """Break-down ladder from the plain ``bits``-bit net: each step switches
    on one more addition."""
    step = dataclasses.replace(fp32, **every_stage(bits))
    rows, name = [("baseline", step)], ""
    for suffix, flag in (("+shift", "use_qk_shift"), ("+fem", "use_fem_shortcuts"),
                         ("+vrm", "use_vrm_shortcuts")):
        name += suffix
        step = dataclasses.replace(step, **{flag: True})
        rows.append((name, step))
    return rows


def _grid_configs(fp32: QNetConfig, bits: int):
    """Per-stage bit-width grid: one stage of the plain 8-bit net at ``bits``."""
    all_8bit = dataclasses.replace(fp32, **every_stage(8))
    return [("all_8bit", all_8bit)] + [
        (f"{stage}_{bits}bit", dataclasses.replace(all_8bit, **{f"{stage}_bits": bits}))
        for stage in ("fem", "enh", "vrm")]


def cmd_ablate(args, workdir: Path) -> int:
    cfg = ExperimentConfig.load(_resolve(workdir, args.config))
    if cfg.net_variant != "fp32":
        raise ConfigError(f"ablate trains its rows from an fp32 backbone; "
                          f"net.variant must be fp32, got '{cfg.net_variant}'")
    if cfg.data_holdout == 0 or cfg.train_crop < SSIM_WINDOW:
        raise ConfigError(f"ablate scores its rows by SSIM on train.crop-sized held-out clips; "
                          f"data.holdout must be >= 1 and train.crop >= {SSIM_WINDOW} (the SSIM "
                          f"window), got {cfg.data_holdout} and {cfg.train_crop}")
    fp32_cfg = _net_config(cfg)
    tables = {"ladder.csv": _ladder_configs(fp32_cfg, args.bits),
              "grid.csv": _grid_configs(fp32_cfg, args.bits)}
    dataset = _dataset(cfg)
    holdout = [(i, c, encode(c, dataset.masks)) for i, c in enumerate(dataset.holdout_clips)]
    out = _resolve(workdir, cfg.out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_echo.txt").write_text(cfg.echo(), encoding="ascii")

        # shared full-precision backbone, identical seeds for every row
        fp32, _ = train(cfg, start_net(cfg, fp32_cfg, None), dataset)
        save_checkpoint(out / "fp32_init.qsc", *fp32)
        trained = {}   # row config -> (fingerprint, state): rows of one network train once
        for csv_name, rows in tables.items():
            lines = ["row,psnr_db,ssim,params_m,ops_g"]
            for name, rowcfg in rows:
                if rowcfg not in trained:
                    trained[rowcfg], _ = train(cfg, start_net(cfg, rowcfg, fp32), dataset)
                save_checkpoint(out / f"{name}.qsc", *trained[rowcfg])
                net = _load_net(out / f"{name}.qsc")
                results = _reconstruct_all(net, dataset.masks, holdout, _psnr_ssim)
                rep = count_efficiency(net, (cfg.train_crop, cfg.train_crop))
                lines.append(f"{name},{_mean_psnr_ssim([r[2] for r in results])},"
                             f"{rep.params_m:.6f},{rep.ops_g:.6f}")
            (out / csv_name).write_text("\n".join(lines) + "\n", encoding="ascii")
            print((out / csv_name).read_text(encoding="ascii"), end="")
    return 0


def cmd_pack(args, workdir: Path) -> int:
    net = _load_net(_resolve(workdir, args.ckpt))
    out = _resolve(workdir, args.out)
    with _writing(out):
        save_checkpoint(out, *pack_model(net))
    layers = [layer for _, layer in packed_layers(net)]
    n_codes = sum(layer.weight.size for layer in layers)
    print(f"packed {len(layers)} layers / {n_codes} codes -> {out}")
    return 0


def cmd_infer_int(args, workdir: Path) -> int:
    net = packed_net(read_packed(_resolve(workdir, args.packed)))
    masks, entries = _load_data_dir(_resolve(workdir, args.data), net.cfg.cr)
    results = _reconstruct_all(net, masks, entries, psnr)
    out = _resolve(workdir, args.out)
    rows = ["index,psnr_db"]
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        for idx, frames, p in results:
            np.save(out / f"recon_{idx:04d}.npy", frames)
            rows.append(f"{idx},{p:.6f}")
        (out / "int_metrics.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    print((out / "int_metrics.csv").read_text(encoding="ascii"), end="")
    return 0


def cmd_report(args, workdir: Path) -> int:
    if args.ckpt:
        net = _load_net(_resolve(workdir, args.ckpt))
    else:
        net = QNet(make_variant(args.variant), seed=0)
    rep = count_efficiency(net, (args.input_hw, args.input_hw))
    rows = ["layer,kind,geometry,w_bits,a_bits,raw_params,adj_params,flops,adj_ops"]
    for r in rep.rows:
        rows.append(f"{r['name']},{r['kind']},{r['geometry']},{r['w_bits']},{r['a_bits']},"
                    f"{r['weight_params'] + r['bias_params']},{r['adj_params']:.1f},"
                    f"{r['flops']},{r['adj_ops']:.1f}")
    rows.append(f"total,,,,,,{rep.params_m * 1e6:.1f},,{rep.ops_g * 1e9:.1f}")
    text = "\n".join(rows) + "\n"
    if args.out:
        out = _resolve(workdir, args.out)
        with _writing(out):
            out.write_text(text, encoding="ascii")
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------

def _at_least(low, kind=int):
    """An argparse ``type``: a finite ``kind`` number >= ``low``; any other
    argument is a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = kind(text)
            if math.isfinite(value) and value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__} >= {low}, "
                                         f"got '{text}'")
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qsci", description=__doc__)
    ap.add_argument("--workdir", default=".", help="root for relative paths")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="emit synthetic clips, masks and measurements")
    g.add_argument("--seed", type=_at_least(0), required=True)
    g.add_argument("--count", type=_at_least(0), required=True)
    g.add_argument("--T", type=_at_least(1), default=4)
    g.add_argument("--H", type=_at_least(1), default=32)
    g.add_argument("--W", type=_at_least(1), default=32)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--noise-sigma", type=_at_least(0, float), default=0.0, dest="noise_sigma")
    g.add_argument("--mask-seed", type=_at_least(0), default=None, dest="mask_seed")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model from an experiment config")
    t.add_argument("--config", required=True)
    t.add_argument("--init", default=None, help="full-precision init checkpoint")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="PSNR/SSIM table for a checkpoint on a data dir")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--dump-frames", action="store_true", dest="dump_frames")
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="break-down ladder and per-stage bit grid")
    a.add_argument("--config", required=True)
    a.add_argument("--bits", type=int, choices=(2, 3, 4, 8), default=4)
    a.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("pack", help="write a checkpoint whose sub-32-bit weights are "
                                    "bit-packed codes, for infer-int")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pack)

    i = sub.add_parser("infer-int", help="integer-path inference from a packed model")
    i.add_argument("--packed", required=True)
    i.add_argument("--data", required=True)
    i.add_argument("--out", required=True)
    i.set_defaults(fn=cmd_infer_int)

    r = sub.add_parser("report", help="bit-adjusted Params/OPs table")
    r.add_argument("--ckpt", default=None)
    r.add_argument("--variant", default="fp32")
    r.add_argument("--input-hw", type=_at_least(1), default=32, dest="input_hw")
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    workdir = Path(args.workdir)
    try:
        return args.fn(args, workdir)
    except QsciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
