"""CLI behaviour: malformed containers and data dirs, a file of the wrong
kind, an entry of the wrong dtype and a missing checkpoint end in exit code
3, a missing config and a missing or mismatched ``train --init`` in exit
code 2, no config value or argument ends in a traceback, the reruns of
every command are byte-identical, ``eval`` and ``infer-int`` report the
same PSNR, every ``ablate`` row is ``eval`` of its checkpoint and each
distinct row network trains once, and the ``report`` table follows the
bit-adjusted formulas."""

import ast
import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsci
from qsci import cli
from qsci.containers import ExperimentConfig, load_checkpoint, save_checkpoint
from qsci.errors import FormatError
from qsci.evaluation import SSIM_WINDOW, count_efficiency
from qsci.network import QNet, make_variant
from qsci.packed import infer_packed, pack_model, read_packed
from qsci.sci import encode, generate_masks, synth_video
from qsci.training import HOLDOUT_SEED_OFFSET, MASK_SEED_OFFSET, train
from small_models import calibrated_net

T, HW = 4, 16
SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    """(exit code, stderr) of one in-process CLI command; an argument that
    the parser rejects exits 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A q4 checkpoint, its packed model and a data dir of two clips."""
    root = tmp_path_factory.mktemp("cli")
    net = calibrated_net("q4", t=T, hw=HW)
    save_checkpoint(root / "q4.qsc", net.cfg.fingerprint(), net.state_dict())
    assert run("--workdir", root, "pack", "--ckpt", "q4.qsc", "--out", "q4.pack")[0] == 0
    assert run("--workdir", root, "gen-data", "--seed", 5, "--count", 2, "--T", T,
               "--H", HW, "--W", HW, "--out", "data")[0] == 0
    return root


def write_data_dir(path, hw):
    """A data dir of one T-frame clip in gen-data's layout (without the hash
    columns), at a frame size that gen-data may refuse."""
    masks = generate_masks(5 + MASK_SEED_OFFSET, T, hw, hw)
    clip = synth_video(5, T, hw, hw)
    path.mkdir()
    np.save(path / "masks.npy", masks.masks)
    np.save(path / "clip_0000.npy", clip.frames)
    np.save(path / "meas_0000.npy", encode(clip, masks).y)
    (path / "manifest.csv").write_text(f"{cli.MANIFEST_HEADER}\n0,clip_0000.npy,meas_0000.npy\n",
                                       encoding="ascii")


def count_synthesis(monkeypatch):
    """Wrap cli.make_synth_dataset; returns the list of the calls' arguments."""
    synthesized, synth = [], cli.make_synth_dataset
    monkeypatch.setattr(cli, "make_synth_dataset", lambda *a: synthesized.append(a) or synth(*a))
    return synthesized


def cuts(size, samples):
    return sorted(set(np.linspace(0, size - 1, samples).astype(int)))


class TestCorruptContainers:
    @pytest.mark.parametrize("suffix,reader", [("pack", read_packed),
                                               ("qsc", load_checkpoint)])
    def test_every_truncation_is_a_format_error(self, tmp_path, suffix, reader):
        # the smallest q4 network: reading is quadratic in the file size here
        net = QNet(make_variant("q4", base_channels=2, heads=1, resdnet_blocks=1,
                                cformer_per_block=1, cr=2), seed=0)
        whole = tmp_path / f"whole.{suffix}"
        state = pack_model(net)[1] if suffix == "pack" else net.state_dict()
        save_checkpoint(whole, net.cfg.fingerprint(), state)
        data = whole.read_bytes()
        reader(whole)
        cut_path = tmp_path / f"cut.{suffix}"
        for cut in range(len(data)):
            cut_path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                reader(cut_path)

    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_truncated_file_exits_3(self, work, tmp_path, command, flag, name):
        data = (work / name).read_bytes()
        for cut in cuts(len(data), 101):
            (tmp_path / name).write_bytes(data[:cut])
            rc, err = run("--workdir", tmp_path, command, flag, name,
                          "--data", work / "data", "--out", "out")
            assert rc == 3, (cut, err)
            assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_appended_bytes_exit_3(self, work, tmp_path, command, flag, name):
        (tmp_path / name).write_bytes((work / name).read_bytes() + b"\0")
        rc, err = run("--workdir", tmp_path, command, flag, name,
                      "--data", work / "data", "--out", "out")
        assert rc == 3 and "after the last entry" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["missing", "length", "dtype"])
    def test_bad_words_entry_exits_3(self, work, tmp_path, fault):
        fingerprint, state = load_checkpoint(work / "q4.pack")
        entry = "fem.conv_a.words"
        words = state.pop(entry)
        assert words.dtype == np.uint64
        if fault == "length":
            state[entry] = words[:-1]
        elif fault == "dtype":
            state[entry] = words.view(np.int64)
        save_checkpoint(tmp_path / "bad.pack", fingerprint, state)
        rc, err = run("--workdir", tmp_path, "infer-int", "--packed", "bad.pack",
                      "--data", work / "data", "--out", "out")
        assert rc == 3, err
        assert entry in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["infer-int", "--packed", "q4.qsc", "--data", "data", "--out", "out"],
        ["eval", "--ckpt", "q4.pack", "--data", "data", "--out", "out"],
        ["train", "--config", "q4.cfg", "--init", "q4.pack"],
    ], ids=["infer-int-of-checkpoint", "eval-of-packed", "train-init-from-packed"])
    def test_packed_and_checkpoint_are_not_interchangeable(self, work, tmp_path, argv):
        # both are QSCICKPT files; their entries tell them apart
        for name in ("q4.qsc", "q4.pack"):
            (tmp_path / name).write_bytes((work / name).read_bytes())
        (tmp_path / "data").symlink_to(work / "data")
        (tmp_path / "q4.cfg").write_text(TRAIN_CFG.format(variant="q4", t=T, out="run"),
                                         encoding="ascii")
        rc, err = run("--workdir", tmp_path, *argv)
        assert rc == 3, err
        assert err.startswith("error:") and ".words" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,source,entry", [
        (["eval", "--ckpt", "bad.qsc", "--data", "data", "--out", "out"],
         "q4.qsc", "fem.conv_a.bias"),
        (["train", "--config", "q4.cfg", "--init", "bad.qsc"], "q4.qsc", "fem.conv_a.weight"),
        (["infer-int", "--packed", "bad.qsc", "--data", "data", "--out", "out"],
         "q4.pack", "fem.conv_a.bias"),
    ], ids=["eval", "train-init", "infer-int"])
    def test_wrong_dtype_entry_exits_3(self, work, tmp_path, argv, source, entry):
        # one check in every loader: an entry is never cast to fit
        fingerprint, state = load_checkpoint(work / source)
        state[entry] = state[entry].astype(np.int64)
        save_checkpoint(tmp_path / "bad.qsc", fingerprint, state)
        (tmp_path / "data").symlink_to(work / "data")
        (tmp_path / "q4.cfg").write_text(TRAIN_CFG.format(variant="q4", t=T, out="run"),
                                         encoding="ascii")
        rc, err = run("--workdir", tmp_path, *argv)
        assert rc == 3, err
        assert f"'{entry}' is int64" in err and "Traceback" not in err
        # train writes to the config's out.dir, "run"; eval and infer-int to "out"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.qsc", "data", "q4.cfg"]


    def test_non_numeric_fingerprint_field_is_a_config_error(self, work, tmp_path):
        data = (work / "q4.pack").read_bytes()
        (tmp_path / "bad.pack").write_bytes(data.replace(b";C=8;", b";C=x;", 1))
        rc, err = run("--workdir", tmp_path, "infer-int", "--packed", "bad.pack",
                      "--data", work / "data", "--out", "out")
        assert rc == 2
        assert "malformed config fingerprint" in err

    @pytest.mark.parametrize("suffix", [";x=1", ";C=8"], ids=["unknown", "repeated"])
    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_non_canonical_fingerprint_exits_2(self, work, tmp_path, suffix, command,
                                               flag, name):
        fingerprint, state = load_checkpoint(work / name)
        save_checkpoint(tmp_path / name, fingerprint + suffix, state)
        rc, err = run("--workdir", tmp_path, command, flag, name, "--data", work / "data",
                      "--out", "out")
        assert rc == 2, err
        assert f"'{fingerprint + suffix}'" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestMissingInput:
    """A named input file that cannot be read ends in an exit code, 3 for a
    checkpoint or pack and 2 for a config, and nothing is written."""

    @pytest.mark.parametrize("argv,code", [
        (["eval", "--ckpt", "missing.qsc", "--data", "data", "--out", "out"], 3),
        (["infer-int", "--packed", "missing.pack", "--data", "data", "--out", "out"], 3),
        (["pack", "--ckpt", "missing.qsc", "--out", "out.pack"], 3),
        (["report", "--ckpt", "missing.qsc", "--out", "report.csv"], 3),
        (["train", "--config", "q4.cfg", "--init", "missing.qsc"], 3),
        (["train", "--config", "missing.cfg"], 2),
        (["ablate", "--config", "missing.cfg"], 2),
    ], ids=["eval", "infer-int", "pack", "report", "train-init", "train-config",
            "ablate-config"])
    def test_missing_file_exits_with_its_code(self, work, tmp_path, argv, code):
        (tmp_path / "data").symlink_to(work / "data")
        (tmp_path / "q4.cfg").write_text(TRAIN_CFG.format(variant="q4", t=T, out="run"),
                                         encoding="ascii")
        rc, err = run("--workdir", tmp_path, *argv)
        assert rc == code, err
        assert err.startswith("error:") and "missing." in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "q4.cfg"]

    def test_init_of_another_geometry_writes_nothing(self, tmp_path, monkeypatch):
        # a C=4 fp32 checkpoint cannot initialize a C=8 q4 network
        net = QNet(make_variant("fp32", base_channels=4, cformer_per_block=1, cr=T), seed=0)
        save_checkpoint(tmp_path / "fp32.qsc", net.cfg.fingerprint(), net.state_dict())
        (tmp_path / "q4.cfg").write_text(TRAIN_CFG.format(variant="q4", t=T, out="run"),
                                         encoding="ascii")
        synthesized = count_synthesis(monkeypatch)
        rc, err = run("--workdir", tmp_path, "train", "--config", "q4.cfg", "--init", "fp32.qsc")
        assert rc == 2, err
        assert err.startswith("error:") and "does not match" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fp32.qsc", "q4.cfg"]
        assert synthesized == []   # the init is checked before any clip is made

    def test_quantized_train_without_init_writes_nothing(self, tmp_path, monkeypatch):
        (tmp_path / "q4.cfg").write_text(TRAIN_CFG.format(variant="q4", t=T, out="run"),
                                         encoding="ascii")
        synthesized = count_synthesis(monkeypatch)
        rc, err = run("--workdir", tmp_path, "train", "--config", "q4.cfg")
        assert rc == 2, err
        assert err.startswith("error:") and "--init" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists() and synthesized == []


class TestUntrainableConfig:
    """A config that the training loop cannot run is a config error when it
    is read: before any data is synthesized and before the out dir exists."""

    @pytest.mark.parametrize("edit,key", [
        (("train.crop = 16", "train.crop = 15"), "train.crop"),
        (("data.clip_hw = 16", "data.clip_hw = 12"), "data.clip_hw"),
    ], ids=["odd-crop", "clip-below-crop"])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_exits_2_naming_the_key(self, tmp_path, monkeypatch, command, edit, key):
        text = (TRAIN_CFG.format(variant="fp32", t=T, out="run") if command == "train"
                else ABLATE_CFG)
        (tmp_path / "run.cfg").write_text(text.replace(*edit), encoding="ascii")
        synthesized = count_synthesis(monkeypatch)
        rc, err = run("--workdir", tmp_path, command, "--config", "run.cfg")
        assert rc == 2 and f"key '{key}'" in err and "Traceback" not in err, err
        assert synthesized == [] and [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


GUARD_CFG = """\
net.base_channels = 4
net.resdnet_blocks = 1
net.cformer_per_block = 1
net.cr = 2
train.epochs_phase1 = 0
train.epochs_phase2 = 0
train.batch_size = 2
train.crop = 8
data.count = 2
data.holdout = 1
data.clip_hw = 8
out.dir = run
"""
NUMERIC_KEYS = [f.name.replace("_", ".", 1) for f in dataclasses.fields(ExperimentConfig)
                if f.type in ("int", "float")]
GEN_DATA = {"--seed": 1, "--count": 1, "--T": 2, "--H": 8, "--W": 8, "--p": 0.5,
            "--noise-sigma": 0.01, "--mask-seed": 3}


class TestNoTraceback:
    """User input never ends in a traceback: each run exits 0, or 2, 3 or 4
    with an ``error:`` line and nothing written. A negative or non-finite
    number is rejected (exit 2) wherever it is given."""

    @staticmethod
    def check(tmp_path, argv, inputs, rejected):
        rc, err = run("--workdir", tmp_path, *argv)
        assert rc in ((2,) if rejected else (0, 2, 3, 4)), (rc, err)
        assert "Traceback" not in err
        if rc:
            assert "error:" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == inputs
        return err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_train_config_value(self, tmp_path, key, value):
        lines = [line for line in GUARD_CFG.splitlines() if not line.startswith(key + " ")]
        (tmp_path / "guard.cfg").write_text("\n".join(lines + [f"{key} = {value}"]) + "\n",
                                            encoding="ascii")
        self.check(tmp_path, ["train", "--config", "guard.cfg"], ["guard.cfg"], value != "0")

    @pytest.mark.parametrize("value", [-1, 0])
    @pytest.mark.parametrize("flag", list(GEN_DATA))
    def test_gen_data_argument(self, tmp_path, flag, value):
        args = {**GEN_DATA, flag: value}
        self.check(tmp_path, ["gen-data", *(x for kv in args.items() for x in kv),
                              "--out", "data"], [], value < 0)

    @pytest.mark.parametrize("value", [-1, 0])
    def test_report_input_size(self, tmp_path, value):
        self.check(tmp_path, ["report", "--input-hw", value, "--out", "report.csv"], [],
                   value < 0)

    @pytest.mark.parametrize("old,new", [
        (";heads=2;", ";heads=0;"), (";heads=2;", ";heads=-2;"), ("v2;C=8;", "v2;C=0;"),
        # the same network in the fingerprint format before per-stage widths
        ("v2;C=8;N=1;K=1;heads=2;T=4;femb=4;enhb=4;vrmb=4;short=8;fem=1;vrm=1;shift=1",
         "v1;C=8;N=1;K=1;heads=2;T=4;body=4;short=8;fem=1;vrm=1;shift=1;femb=-;enhb=-;vrmb=-"),
    ])
    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_fingerprint_without_channels_or_heads(self, work, tmp_path, command, flag,
                                                   name, old, new):
        fingerprint, state = load_checkpoint(work / name)
        save_checkpoint(tmp_path / name, fingerprint.replace(old, new), state)
        self.check(tmp_path, [command, flag, name, "--data", work / "data", "--out", "out"],
                   [name], True)

    @pytest.mark.parametrize("command", ["gen-data", "eval", "infer-int", "train", "ablate",
                                         "pack", "report"])
    def test_unwritable_output(self, work, tmp_path, command):
        """An output directory that is an existing file, a file under one, or
        a file in a directory that does not exist is a config error that
        names the path."""
        (tmp_path / "taken").write_text("", encoding="ascii")
        # a crop that ablate takes: it scores its rows by SSIM on crop-sized clips
        (tmp_path / "guard.cfg").write_text(
            GUARD_CFG.replace("out.dir = run", "out.dir = taken")
            .replace("train.crop = 8", "train.crop = 12").replace("clip_hw = 8", "clip_hw = 12"),
            encoding="ascii")
        data = ["--data", work / "data", "--out", "taken"]
        argv, path = {
            "gen-data": (["gen-data", *(x for kv in GEN_DATA.items() for x in kv),
                          "--out", "taken"], "taken"),
            "eval": (["eval", "--ckpt", work / "q4.qsc", *data], "taken"),
            "infer-int": (["infer-int", "--packed", work / "q4.pack", *data], "taken"),
            "train": (["train", "--config", "guard.cfg"], "taken"),
            "ablate": (["ablate", "--config", "guard.cfg"], "taken"),
            "pack": (["pack", "--ckpt", work / "q4.qsc", "--out", "taken/q4.pack"], "taken"),
            "report": (["report", "--out", "/nonexistent/x.csv"], "/nonexistent/x.csv"),
        }[command]
        assert not Path("/nonexistent").exists()
        assert path in self.check(tmp_path, argv, ["guard.cfg", "taken"], True)


class TestDataValidation:
    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_missing_clip_file_exits_3(self, work, tmp_path, command, flag, name):
        data = tmp_path / "data"
        data.mkdir()
        for f in (work / "data").iterdir():
            if f.name != "clip_0001.npy":
                (data / f.name).write_bytes(f.read_bytes())
        rc, err = run("--workdir", work, command, flag, name, "--data", data,
                      "--out", tmp_path / "out")
        assert rc == 3, err
        assert "clip_0001.npy" in err

    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_wrong_frame_count_exits_3(self, work, tmp_path, command, flag, name):
        assert run("--workdir", tmp_path, "gen-data", "--seed", 5, "--count", 1,
                   "--T", T // 2, "--H", HW, "--W", HW, "--out", "data2")[0] == 0
        rc, err = run("--workdir", work, command, flag, name, "--data", tmp_path / "data2",
                      "--out", tmp_path / "out")
        assert rc == 3
        assert f"data compression ratio {T // 2} vs model {T}" in err

    @pytest.mark.parametrize("name,bad", [
        ("meas_0001.npy", np.zeros((HW + 2, HW), np.float32)),
        ("clip_0001.npy", np.zeros((T, HW, HW + 2), np.float32)),
        ("masks.npy", np.ones((HW, HW), np.float32)),
        ("masks.npy", np.full((T, HW, HW), 0.5, np.float32)),
    ], ids=["measurement-shape", "clip-shape", "masks-2d", "masks-not-binary"])
    @pytest.mark.parametrize("command,flag,ckpt", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_misshapen_file_exits_3(self, work, tmp_path, command, flag, ckpt, name, bad):
        data = tmp_path / "data"
        data.mkdir()
        for f in (work / "data").iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        np.save(data / name, bad)
        rc, err = run("--workdir", work, command, flag, ckpt, "--data", data,
                      "--out", tmp_path / "out")
        assert rc == 3, err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_repeated_manifest_index_exits_3(self, work, tmp_path, command, flag, name):
        data = tmp_path / "data"
        shutil.copytree(work / "data", data)
        manifest = (data / "manifest.csv").read_text(encoding="ascii").splitlines()
        second = manifest[2].replace("1,", "0,", 1)
        (data / "manifest.csv").write_text("\n".join(manifest[:2] + [second]) + "\n",
                                           encoding="ascii")
        rc, err = run("--workdir", work, command, flag, name, "--data", data,
                      "--out", tmp_path / "out")
        assert rc == 3, err
        assert "lists index 0 twice" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_non_finite_clip_exits_3(self, work, tmp_path, command, flag, name, bad):
        # a ground-truth clip is only scored, so its NaN would be a nan score
        data = tmp_path / "data"
        shutil.copytree(work / "data", data)
        frames = np.load(data / "clip_0001.npy")
        frames[1, 2, 3] = bad
        np.save(data / "clip_0001.npy", frames)
        rc, err = run("--workdir", work, command, flag, name, "--data", data,
                      "--out", tmp_path / "out")
        assert rc == 3, err
        assert "clip_0001.npy" in err and "non-finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_frames_the_network_or_ssim_cannot_take_exit_3(self, work, tmp_path, command,
                                                           flag, name):
        # odd frames cannot pass the strided stage; 4x4 frames are smaller
        # than the SSIM window that eval scores with, and infer-int scores none
        for hw, rejected in ((9, True), (4, command == "eval")):
            data = tmp_path / f"data{hw}"
            write_data_dir(data, hw)
            out = tmp_path / f"out{hw}"
            rc, err = run("--workdir", work, command, flag, name, "--data", data, "--out", out)
            if not rejected:
                assert rc == 0, err
                continue
            assert rc == 3, err
            assert err.startswith(f"error: data dir {data}: ") and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("header", [None, "", "index,clip,measurement"],
                             ids=["missing", "empty", "short"])
    @pytest.mark.parametrize("command,flag,name", [("infer-int", "--packed", "q4.pack"),
                                                   ("eval", "--ckpt", "q4.qsc")])
    def test_manifest_without_its_header_exits_3(self, work, tmp_path, command, flag, name,
                                                 header):
        # a first line that is not the header is not skipped as one: without
        # a header, clip 0 would go unscored
        data = tmp_path / "data"
        shutil.copytree(work / "data", data)
        rows = (data / "manifest.csv").read_text(encoding="ascii").splitlines()[1:]
        lines = rows if header is None else [header] + rows
        (data / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
        rc, err = run("--workdir", work, command, flag, name, "--data", data,
                      "--out", tmp_path / "out")
        assert rc == 3, err
        assert str(data / "manifest.csv") in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_gen_data_refuses_frames_the_network_cannot_take(self, work, tmp_path):
        for h, w in ((9, 9), (8, 9), (9, 8)):
            rc, err = run("--workdir", tmp_path, "gen-data", "--seed", 5, "--count", 1,
                          "--T", T, "--H", h, "--W", w, "--out", "data")
            assert rc == 2 and f"got {h}x{w}" in err and "Traceback" not in err, err
            assert list(tmp_path.iterdir()) == []
        # small even frames are taken: infer-int scores them without SSIM
        assert run("--workdir", tmp_path, "gen-data", "--seed", 5, "--count", 1, "--T", T,
                   "--H", 4, "--W", 4, "--out", "data")[0] == 0
        assert run("--workdir", tmp_path, "infer-int", "--packed", work / "q4.pack",
                   "--data", "data", "--out", "out")[0] == 0


class TestNonFiniteParameters:
    def test_nan_mlp_bias_exits_4_from_gelu(self, work, tmp_path):
        # the first op to see the NaN is the GELU after mlp_in, whose table
        # route must hand a non-finite input to the direct formula's check
        fingerprint, state = load_checkpoint(work / "q4.qsc")
        bias = state["block0.cf0.mlp_in.bias"].copy()
        bias[1] = np.nan
        state["block0.cf0.mlp_in.bias"] = bias
        save_checkpoint(tmp_path / "nan.qsc", fingerprint, state)
        data = work / "data"
        rc, err = run("--workdir", tmp_path, "eval", "--ckpt", "nan.qsc", "--data", data,
                      "--out", "eval")
        assert rc == 4 and "op 'gelu'" in err
        assert run("--workdir", tmp_path, "pack", "--ckpt", "nan.qsc", "--out", "nan.pack")[0] == 0
        rc, err = run("--workdir", tmp_path, "infer-int", "--packed", "nan.pack", "--data", data,
                      "--out", "int")
        assert rc == 4 and "op 'gelu'" in err


class TestNonFiniteScannedOnce:
    """A NaN or +inf ends in NumericError, exit 4, without a RuntimeWarning
    (Tier-1 turns warnings into errors) wherever it enters: the input stack,
    a conv weight, ``fuse.bias`` (its code-domain output feeds ``mlp_in``
    directly) and ``out_proj.bias`` (which reaches ``fuse`` through a
    transpose and a concat). Each array is scanned once, so these are the
    inputs no op scanned before a quantizer clips them."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_input_stack(self, work, tmp_path, bad):
        data = tmp_path / "data"
        shutil.copytree(work / "data", data)
        meas = data / (data / "manifest.csv").read_text().splitlines()[1].split(",")[2]
        y = np.load(meas)
        y[3, 5] = bad
        np.save(meas, y)
        for argv in (["eval", "--ckpt", work / "q4.qsc"],
                     ["infer-int", "--packed", work / "q4.pack"]):
            rc, err = run("--workdir", tmp_path, *argv, "--data", data, "--out", "out")
            assert rc == 4 and "non-finite" in err, err

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", ["block0.cf0.conv.weight", "block0.cf0.fuse.bias",
                                       "block0.cf0.attn.out_proj.bias"])
    def test_parameter(self, work, tmp_path, entry, bad):
        fingerprint, state = load_checkpoint(work / "q4.qsc")
        value = state[entry].copy()
        value.reshape(-1)[1] = bad
        state[entry] = value
        save_checkpoint(tmp_path / "bad.qsc", fingerprint, state)
        data = work / "data"
        rc, err = run("--workdir", tmp_path, "eval", "--ckpt", "bad.qsc", "--data", data,
                      "--out", "eval")
        assert rc == 4 and "non-finite" in err, err
        rc, err = run("--workdir", tmp_path, "pack", "--ckpt", "bad.qsc", "--out", "bad.pack")
        if entry.endswith(".weight"):
            assert rc == 4 and "non-finite" in err, err     # its codes cannot be packed
            return
        assert rc == 0, err
        rc, err = run("--workdir", tmp_path, "infer-int", "--packed", "bad.pack", "--data", data,
                      "--out", "int")
        assert rc == 4 and "non-finite" in err, err


def run_python(*argv, flags=()):
    """(exit code, stderr) of one CLI command in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, *flags, "-m", "qsci.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr


class TestNonFiniteGelu:
    def test_minus_inf_mlp_bias_exits_4_without_warning(self, work, tmp_path):
        # gelu(-inf) is -inf * Phi(-inf) = -inf * 0: a NaN that must raise as
        # op 'gelu' with no RuntimeWarning printed before it
        fingerprint, state = load_checkpoint(work / "q4.qsc")
        bias = state["block0.cf0.mlp_in.bias"].copy()
        bias[1] = -np.inf
        state["block0.cf0.mlp_in.bias"] = bias
        save_checkpoint(tmp_path / "inf.qsc", fingerprint, state)
        assert run("--workdir", tmp_path, "pack", "--ckpt", "inf.qsc", "--out", "inf.pack")[0] == 0
        for argv in (["eval", "--ckpt", "inf.qsc"], ["infer-int", "--packed", "inf.pack"]):
            rc, err = run_python("--workdir", tmp_path, *argv, "--data", work / "data",
                                 "--out", "out", flags=["-W", "default"])
            assert rc == 4 and "op 'gelu'" in err, err
            assert "Warning" not in err, err


class TestOptimizedInterpreter:
    def test_no_module_guards_with_assert(self):
        # python -O strips asserts, so every guard in the package is a raise
        for path in sorted((SRC / "qsci").rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, f"{path.name}: assert at line(s) {lines}"

    def test_eval_under_python_O_writes_the_same_metrics(self, work, tmp_path):
        # python -O strips asserts: no guard that shapes a result may be one
        for flags, out in (([], "plain"), (["-O"], "optimized")):
            rc, err = run_python("--workdir", work, "eval", "--ckpt", "q4.qsc", "--data", "data",
                                 "--out", tmp_path / out, flags=flags)
            assert rc == 0, err
        assert ((tmp_path / "plain" / "metrics.csv").read_bytes()
                == (tmp_path / "optimized" / "metrics.csv").read_bytes())

    def test_infer_int_under_python_O_writes_the_same_outputs(self, work, tmp_path):
        outs = {}
        for flags, out in (([], "plain"), (["-O"], "optimized")):
            rc, err = run_python("--workdir", work, "infer-int", "--packed", "q4.pack",
                                 "--data", "data", "--out", tmp_path / out, flags=flags)
            assert rc == 0, err
            outs[out] = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
        assert sorted(outs["plain"]) == ["int_metrics.csv", "recon_0000.npy", "recon_0001.npy"]
        assert outs["plain"] == outs["optimized"]


class TestInferIntDeterminism:
    def test_reruns_byte_identical_and_equal_to_one_shot(self, work):
        outs = [work / "int_a", work / "int_b"]
        for out in outs:
            assert run("--workdir", work, "infer-int", "--packed", "q4.pack",
                       "--data", "data", "--out", out)[0] == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == ["int_metrics.csv", "recon_0000.npy", "recon_0001.npy"]
        for f in files:
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

        model = read_packed(work / "q4.pack")
        masks, entries = cli._load_data_dir(work / "data", T)
        for idx, _, meas in entries:
            one_shot = infer_packed(model, meas, masks).frames
            assert np.array_equal(np.load(outs[0] / f"recon_{idx:04d}.npy"), one_shot)


class TestEvalEqualsInferInt:
    # q3 is where a single flipped code used to move a frame by up to 0.17
    @pytest.mark.parametrize("variant", ["q4", "q3"])
    def test_psnr_columns_identical(self, tmp_path, variant):
        net = calibrated_net(variant, t=T, hw=64)
        save_checkpoint(tmp_path / "q4.qsc", net.cfg.fingerprint(), net.state_dict())
        for argv in (["pack", "--ckpt", "q4.qsc", "--out", "q4.pack"],
                     ["gen-data", "--seed", 11, "--count", 2, "--T", T, "--H", 64, "--W", 64,
                      "--out", "data"],
                     ["eval", "--ckpt", "q4.qsc", "--data", "data", "--out", "eval"],
                     ["infer-int", "--packed", "q4.pack", "--data", "data", "--out", "int"]):
            assert run("--workdir", tmp_path, *argv)[0] == 0

        def psnr_column(path):
            rows = path.read_text(encoding="ascii").splitlines()[1:]
            return [row.split(",")[:2] for row in rows if not row.startswith("average")]

        evaluated = psnr_column(tmp_path / "eval" / "metrics.csv")
        assert len(evaluated) == 2
        assert evaluated == psnr_column(tmp_path / "int" / "int_metrics.csv")


class TestReport:
    def test_rows_follow_bit_width_and_sum_to_total(self, tmp_path):
        assert run("--workdir", tmp_path, "report", "--variant", "q4", "--input-hw", 16,
                   "--out", "report.csv")[0] == 0
        lines = (tmp_path / "report.csv").read_text(encoding="ascii").splitlines()
        header, *rows, total = [line.split(",") for line in lines]
        assert header[0] == "layer" and total[0] == "total"
        audit = {r["name"]: r for r in QNet(make_variant("q4"), seed=0).audit((16, 16))}
        assert [r[0] for r in rows] == list(audit)
        col = {name: i for i, name in enumerate(header)}
        for r in rows:
            a = audit[r[0]]
            ratio = max(int(r[col["w_bits"]]), int(r[col["a_bits"]])) / 32
            assert int(r[col["raw_params"]]) == a["weight_params"] + a["bias_params"]
            assert int(r[col["flops"]]) == a["flops"]
            assert float(r[col["adj_params"]]) == pytest.approx(
                a["weight_params"] * ratio + a["bias_params"], abs=0.05)
            assert float(r[col["adj_ops"]]) == pytest.approx(a["flops"] * ratio, abs=0.05)
        for name in ("adj_params", "adj_ops"):
            # each row is printed to 0.1, the total from the exact sum
            assert float(total[col[name]]) == pytest.approx(
                sum(float(r[col[name]]) for r in rows), abs=0.05 * len(rows))


TRAIN_CFG = """\
net.variant = {variant}
net.base_channels = 8
net.cformer_per_block = 1
net.cr = {t}
train.epochs_phase1 = 1
train.epochs_phase2 = 1
train.batch_size = 2
train.crop = 16
data.count = 4
data.holdout = 2
data.clip_hw = 16
out.dir = {out}
"""


class TestRerunDeterminism:
    def test_train_reruns_byte_identical(self, tmp_path):
        init = []
        for variant in ("fp32", "q4"):
            (tmp_path / f"{variant}.cfg").write_text(
                TRAIN_CFG.format(variant=variant, t=T, out=variant), encoding="ascii")
            outputs = []
            for _ in range(2):
                assert run("--workdir", tmp_path, "train", "--config", f"{variant}.cfg",
                           *init)[0] == 0
                outputs.append([(tmp_path / variant / f).read_bytes()
                                for f in ("loss.csv", "checkpoint.qsc")])
            assert outputs[0] == outputs[1]
            init = ["--init", f"{variant}/checkpoint.qsc"]

    def test_eval_reruns_byte_identical(self, work):
        outs = [work / "eval_a", work / "eval_b"]
        for out in outs:
            assert run("--workdir", work, "eval", "--ckpt", "q4.qsc", "--data", "data",
                       "--out", out, "--dump-frames")[0] == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert "metrics.csv" in files and len(files) == 1 + 2 * T
        for f in files:
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_pack_reruns_byte_identical(self, work):
        assert run("--workdir", work, "pack", "--ckpt", "q4.qsc", "--out", "again.pack")[0] == 0
        assert (work / "again.pack").read_bytes() == (work / "q4.pack").read_bytes()

    def test_gen_data_reruns_byte_identical(self, tmp_path):
        outs = [tmp_path / "data_a", tmp_path / "data_b"]
        for out in outs:
            assert run("--workdir", tmp_path, "gen-data", "--seed", 7, "--count", 2, "--T", T,
                       "--H", HW, "--W", HW, "--noise-sigma", 0.01, "--out", out)[0] == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == ["clip_0000.npy", "clip_0001.npy", "manifest.csv", "masks.npy",
                         "meas_0000.npy", "meas_0001.npy"]
        for f in files:
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_report_reruns_byte_identical(self, work):
        printed = []
        for out in ("report_a.csv", "report_b.csv"):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert cli.main(["--workdir", str(work), "report", "--ckpt", "q4.qsc",
                                 "--input-hw", str(HW), "--out", out]) == 0
            printed.append(stdout.getvalue())
        assert (work / "report_a.csv").read_bytes() == (work / "report_b.csv").read_bytes()
        assert printed[0] == printed[1] == (work / "report_a.csv").read_text(encoding="ascii")


ABLATE_CFG = """\
net.base_channels = 4
net.resdnet_blocks = 1
net.cr = 2
train.epochs_phase1 = 1
train.epochs_phase2 = 0
train.batch_size = 2
train.crop = 16
data.seed = 3
data.count = 2
data.holdout = 2
data.clip_hw = 16
out.dir = ablate
"""
LADDER = ["baseline", "+shift", "+shift+fem", "+shift+fem+vrm"]
GRID = ["all_8bit", "fem_4bit", "enh_4bit", "vrm_4bit"]


def counting_train(monkeypatch):
    """Replace cli.train with a wrapper; returns the list of configs it trains."""
    trained = []

    def wrapper(tcfg, net, *rest):
        trained.append(net.cfg)
        return train(tcfg, net, *rest)

    monkeypatch.setattr(cli, "train", wrapper)
    return trained


class TestAblate:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Two ablate runs of the tiny config, the configs the first one
        trains, and its held-out clips as a data dir (data seed 3, crop 16,
        cr 2, 2 clips)."""
        root = tmp_path_factory.mktemp("ablate")
        (root / "ablate.cfg").write_text(ABLATE_CFG, encoding="ascii")
        outs = []
        with pytest.MonkeyPatch.context() as mp:
            trained = counting_train(mp)
            for rerun in ("a", "b"):
                assert run("--workdir", root, "ablate", "--config", "ablate.cfg")[0] == 0
                outs.append((root / "ablate").rename(root / f"ablate_{rerun}"))
        assert run("--workdir", root, "gen-data", "--seed", 3 + HOLDOUT_SEED_OFFSET,
                   "--mask-seed", 3 + MASK_SEED_OFFSET, "--count", 2, "--T", 2,
                   "--H", 16, "--W", 16, "--out", "holdout")[0] == 0
        return root, outs, trained[:len(trained) // 2]

    @staticmethod
    def table(path):
        header, *rows = [line.split(",") for line in
                         path.read_text(encoding="ascii").splitlines()]
        return header, {r[0]: r[1:] for r in rows}

    def test_rows_and_header(self, runs):
        _, (out, _), _ = runs
        for csv, names in (("ladder.csv", LADDER), ("grid.csv", GRID)):
            header, rows = self.table(out / csv)
            assert header == ["row", "psnr_db", "ssim", "params_m", "ops_g"]
            assert list(rows) == names
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["config_echo.txt", "fp32_init.qsc", "grid.csv", "ladder.csv"]
            + [f"{name}.qsc" for name in LADDER + GRID])

    def test_rerun_byte_identical(self, runs):
        _, (a, b), _ = runs
        for f in a.iterdir():
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name

    def test_efficiency_columns_match_count_efficiency(self, runs):
        _, (out, _), _ = runs
        for csv in ("ladder.csv", "grid.csv"):
            for name, (_, _, params_m, ops_g) in self.table(out / csv)[1].items():
                rep = count_efficiency(cli._load_net(out / f"{name}.qsc"), (16, 16))
                assert (params_m, ops_g) == (f"{rep.params_m:.6f}", f"{rep.ops_g:.6f}")

    def test_each_row_is_eval_of_its_checkpoint(self, runs):
        root, (out, _), _ = runs
        for csv in ("ladder.csv", "grid.csv"):
            for name, (psnr_db, ssim, _, _) in self.table(out / csv)[1].items():
                assert run("--workdir", root, "eval", "--ckpt", out / f"{name}.qsc",
                           "--data", "holdout", "--out", f"eval_{name}")[0] == 0
                _, evaluated = self.table(root / f"eval_{name}" / "metrics.csv")
                assert list(evaluated) == ["0", "1", "average"]
                assert evaluated["average"] == [psnr_db, ssim]

    def test_each_distinct_network_trains_once(self, runs):
        # at 4 bits the fp32 backbone and all 8 rows differ
        assert len(runs[2]) == 9
        assert len(set(runs[2])) == 9

    def test_rows_of_one_network_train_once_at_8_bits(self, tmp_path, monkeypatch):
        # baseline, all_8bit, fem_8bit, enh_8bit and vrm_8bit are one network
        (tmp_path / "ablate.cfg").write_text(ABLATE_CFG, encoding="ascii")
        trained = counting_train(monkeypatch)
        assert run("--workdir", tmp_path, "ablate", "--config", "ablate.cfg",
                   "--bits", 8)[0] == 0
        assert len(trained) == 5
        out = tmp_path / "ablate"
        baseline = (out / "baseline.qsc").read_bytes()
        for name in ("all_8bit", "fem_8bit", "enh_8bit", "vrm_8bit"):
            assert (out / f"{name}.qsc").read_bytes() == baseline, name

    @pytest.mark.parametrize("bits", [5, 32])
    def test_bits_outside_the_choices_rejected(self, tmp_path, monkeypatch, bits):
        (tmp_path / "ablate.cfg").write_text(ABLATE_CFG, encoding="ascii")
        trained = counting_train(monkeypatch)
        rc, err = run("--workdir", tmp_path, "ablate", "--config", "ablate.cfg", "--bits", bits)
        assert rc == 2 and "(choose from 2, 3, 4, 8)" in err, err
        assert trained == [] and sorted(p.name for p in tmp_path.iterdir()) == ["ablate.cfg"]

    def test_quantized_variant_rejected_before_training(self, tmp_path, monkeypatch):
        (tmp_path / "ablate.cfg").write_text("net.variant = q4\n" + ABLATE_CFG,
                                             encoding="ascii")
        trained = counting_train(monkeypatch)
        rc, err = run("--workdir", tmp_path, "ablate", "--config", "ablate.cfg")
        assert rc == 2 and "net.variant must be fp32" in err
        assert trained == [] and not (tmp_path / "ablate").exists()

    def test_no_holdout_rejected_before_training(self, tmp_path, monkeypatch):
        # its rows are scored on the held-out clips: none would score nan
        (tmp_path / "ablate.cfg").write_text(ABLATE_CFG.replace("data.holdout = 2",
                                                                "data.holdout = 0"),
                                             encoding="ascii")
        trained = counting_train(monkeypatch)
        rc, err = run("--workdir", tmp_path, "ablate", "--config", "ablate.cfg")
        assert rc == 2 and "data.holdout" in err, err
        assert trained == [] and not (tmp_path / "ablate").exists()

    def test_crop_below_the_ssim_window_rejected_before_training(self, tmp_path, monkeypatch):
        # its held-out clips are train.crop wide, too small to score by SSIM
        (tmp_path / "ablate.cfg").write_text(ABLATE_CFG.replace("train.crop = 16",
                                                                "train.crop = 8"),
                                             encoding="ascii")
        trained = counting_train(monkeypatch)
        rc, err = run("--workdir", tmp_path, "ablate", "--config", "ablate.cfg")
        assert rc == 2 and "train.crop" in err and f">= {SSIM_WINDOW}" in err, err
        assert trained == [] and not (tmp_path / "ablate").exists()


def test_all_exports_resolve():
    missing = [name for name in qsci.__all__ if not hasattr(qsci, name)]
    assert not missing and len(set(qsci.__all__)) == len(qsci.__all__)


def test_import_leaves_scipy_signal_unloaded(work, tmp_path):
    # scipy.signal costs about half a second and 47 MB to import, and no
    # command needs it: SSIM applies its window as two 1-D passes
    env = dict(os.environ, PYTHONPATH=str(Path(qsci.__file__).parents[1]))
    code = ("import sys\n"
            "from qsci import cli\n"
            "print('scipy.signal' in sys.modules)\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, 'scipy.signal' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code, "--workdir", str(work), "eval",
                          "--ckpt", "q4.qsc", "--data", "data", "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "False" and lines[-1] == "0 False"
    assert (tmp_path / "out" / "metrics.csv").read_text().startswith("index,psnr_db,ssim\n")
