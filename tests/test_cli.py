"""CLI behaviour: malformed containers and data dirs end in exit code 3, and
``train``, ``eval``, ``pack`` and ``infer-int`` reruns are byte-identical."""

import contextlib
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsci
from qsci import cli
from qsci.containers import load_checkpoint, save_checkpoint
from qsci.errors import FormatError
from qsci.network import QNet, make_variant
from qsci.packed import infer_packed, pack_model, read_packed, write_packed
from small_models import calibrated_net

T, HW = 4, 16


def run(*argv):
    """(exit code, stderr) of one in-process CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
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
        if suffix == "pack":
            write_packed(pack_model(net), whole)
        else:
            save_checkpoint(whole, net.cfg.fingerprint(), net.state_dict())
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

    @pytest.mark.parametrize("field,value", [("kind", 2), ("kind", 1), ("kind", 255),
                                             ("bits", 0), ("bits", 5), ("bits", 8),
                                             ("bits", 16)])
    def test_flipped_kind_or_bits_exits_3(self, work, tmp_path, field, value):
        data = bytearray((work / "q4.pack").read_bytes())
        first = read_packed(work / "q4.pack").layers[0]
        assert first.kind == "conv3d" and first.bits == 4
        name = first.name.encode()
        at = data.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        data[at + (field == "bits")] = value
        (tmp_path / "bad.pack").write_bytes(bytes(data))
        rc, err = run("--workdir", tmp_path, "infer-int", "--packed", "bad.pack",
                      "--data", work / "data", "--out", "out")
        assert rc == 3, err


    def test_non_numeric_fingerprint_field_is_a_config_error(self, work, tmp_path):
        data = (work / "q4.pack").read_bytes()
        (tmp_path / "bad.pack").write_bytes(data.replace(b";C=8;", b";C=x;", 1))
        rc, err = run("--workdir", tmp_path, "infer-int", "--packed", "bad.pack",
                      "--data", work / "data", "--out", "out")
        assert rc == 2
        assert "malformed config fingerprint" in err


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


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs most of a second to import; only SSIM (eval) needs it
    env = dict(os.environ, PYTHONPATH=str(Path(qsci.__file__).parents[1]))
    code = "import sys, qsci.cli; print('scipy.signal' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "False"
