"""Byte identity against a pinned manifest: a fixed tiny command script runs
in-process in a temporary dir, and the SHA-256 of every file it writes, and
of each command's stdout with the workdir path replaced by ``WORKDIR``, must
equal the line for it in ``golden_sha256.txt``.

The script runs ``gen-data`` with noise; ``train`` of the fp32 preset, then
of each quantized preset from the fp32 checkpoint; ``eval --dump-frames``,
``report --ckpt`` and ``report --variant`` of all eight; ``pack`` and
``infer-int`` of the seven quantized ones; and ``ablate --bits 4`` and
``--bits 8``. The fp32 float paths round as the BLAS groups them, so the
manifest's header names the numpy, scipy and BLAS versions it was written
with and the OpenBLAS kernel (core type) that ran, and the test fails,
naming both, under any other version or kernel. The kernel is read from
numpy's bundled OpenBLAS, ``unknown`` where that cannot be read;
``OPENBLAS_CORETYPE`` selects another one (e.g. ``Haswell`` on an AVX-512
CPU).

A change that moves outputs by design rewrites the manifest by running this
module as a script, which then prints each path that moved against the
manifest it replaced, one line each, as ``changed``, ``added`` or
``missing``::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from qsci import cli
from qsci.network import VARIANT_NAMES

MANIFEST = Path(__file__).with_name("golden_sha256.txt")
WORKDIR = "<workdir>"

CONFIG = """\
net.variant = {variant}
net.base_channels = 8
net.resdnet_blocks = 1
net.cformer_per_block = 2
net.cr = 2
train.epochs_phase1 = 1
train.epochs_phase2 = 1
train.batch_size = 2
train.crop = 12
data.seed = 4
data.count = 3
data.holdout = 1
data.clip_hw = 12
data.noise_sigma = 0.01
out.dir = {out}
"""


def blas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas*``)
    runs, as its ``scipy_openblas_get_corename64_`` names it; ``unknown``
    where that library or symbol is missing."""
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs")
                      .glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def environment() -> dict:
    """The versions the float outputs depend on, read as perfbench/run.py
    reads them, and the BLAS kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "kernel": blas_kernel()}


def commands():
    """(label, argv) of each command of the script, in order."""
    quantized = [v for v in VARIANT_NAMES if v != "fp32"]
    yield "gen-data", ["gen-data", "--seed", "9", "--count", "2", "--T", "2", "--H", "12",
                       "--W", "12", "--noise-sigma", "0.01", "--out", "data"]
    yield "train_fp32", ["train", "--config", "fp32.cfg"]
    for v in quantized:
        yield f"train_{v}", ["train", "--config", f"{v}.cfg", "--init", "fp32/checkpoint.qsc"]
    for v in VARIANT_NAMES:
        yield f"eval_{v}", ["eval", "--ckpt", f"{v}/checkpoint.qsc", "--data", "data",
                            "--out", f"eval_{v}", "--dump-frames"]
        yield f"report_{v}", ["report", "--ckpt", f"{v}/checkpoint.qsc", "--input-hw", "12",
                              "--out", f"report_{v}.csv"]
        yield f"report-variant_{v}", ["report", "--variant", v, "--input-hw", "12"]
    for v in quantized:
        yield f"pack_{v}", ["pack", "--ckpt", f"{v}/checkpoint.qsc", "--out", f"{v}.pack"]
        yield f"infer-int_{v}", ["infer-int", "--packed", f"{v}.pack", "--data", "data",
                                 "--out", f"int_{v}"]
    for bits in ("4", "8"):
        yield f"ablate{bits}", ["ablate", "--config", f"ablate{bits}.cfg", "--bits", bits]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(workdir: Path) -> dict:
    """{path: sha256} of every file the script leaves in ``workdir`` and of
    each command's stdout, as ``stdout/<nn>_<label>``."""
    for v in VARIANT_NAMES:
        (workdir / f"{v}.cfg").write_text(CONFIG.format(variant=v, out=v), encoding="ascii")
    for out in ("ablate4", "ablate8"):
        (workdir / f"{out}.cfg").write_text(CONFIG.format(variant="fp32", out=out),
                                            encoding="ascii")
    digests = {}
    for i, (label, argv) in enumerate(commands()):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["--workdir", str(workdir), *argv])
        if rc != 0:
            raise RuntimeError(f"command {label} exited {rc}")
        text = out.getvalue().replace(str(workdir), WORKDIR)
        digests[f"stdout/{i:02d}_{label}"] = sha256(text.encode())
    for path in workdir.rglob("*"):
        if path.is_file():
            digests[path.relative_to(workdir).as_posix()] = sha256(path.read_bytes())
    return digests


def read_manifest():
    """(environment, {path: sha256}) of the pinned manifest."""
    env, digests = {}, {}
    for line in MANIFEST.read_text(encoding="ascii").splitlines():
        key, value = line.lstrip("# ").split(" ", 1)
        (env if line.startswith("#") else digests)[key] = value
    return env, digests


def write_manifest():
    """Rewrite the manifest, then print each path whose digest changed, was
    added or went missing against the manifest it replaced."""
    old = read_manifest()[1] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_script(Path(tmp).resolve())
    lines = [f"# {k} {v}" for k, v in environment().items()]
    lines += [f"{path} {digests[path]}" for path in sorted(digests)]
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="ascii")
    for path in sorted(old.keys() | digests.keys()):
        if path not in digests:
            print(f"missing {path}")
        elif path not in old:
            print(f"added {path}")
        elif old[path] != digests[path]:
            print(f"changed {path}")


def test_outputs_match_manifest(tmp_path):
    pinned_env, pinned = read_manifest()
    env = environment()
    assert env == pinned_env, (
        f"the manifest was written with {pinned_env}, this environment has {env}; "
        f"float outputs need not match across them; to compare, rewrite the manifest "
        f"at the parent commit in this environment")
    digests = run_script(tmp_path.resolve())
    changed = sorted(p for p in pinned.keys() & digests.keys() if pinned[p] != digests[p])
    missing = sorted(pinned.keys() - digests.keys())
    new = sorted(digests.keys() - pinned.keys())
    assert not (changed or missing or new), (
        f"{len(changed)} outputs changed: {changed}; missing: {missing}; new: {new}")


def test_rewrite_prints_what_moved(tmp_path, monkeypatch, capsys):
    """Rewriting the manifest lists each path that changed, was added or
    went missing against the manifest it replaced, and no other."""
    manifest = tmp_path / "golden_sha256.txt"
    manifest.write_text("# numpy 0\nkept aa\nmoved bb\ngone cc\n", encoding="ascii")
    monkeypatch.setattr(sys.modules[__name__], "MANIFEST", manifest)
    monkeypatch.setattr(sys.modules[__name__], "run_script",
                        lambda workdir: {"kept": "aa", "moved": "dd", "new": "ee"})
    write_manifest()
    assert capsys.readouterr().out.splitlines() == ["missing gone", "changed moved", "added new"]
    assert read_manifest() == (environment(), {"kept": "aa", "moved": "dd", "new": "ee"})


def test_another_kernel_fails_naming_both():
    """Run in a child whose environment alone selects another OpenBLAS
    kernel, the manifest test fails before it runs the script, and names
    the pinned kernel and the child's."""
    pinned = read_manifest()[0]["kernel"]
    if pinned == "unknown":
        pytest.skip("the manifest names no kernel")
    other = "Prescott" if pinned == "Haswell" else "Haswell"
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": other, "PYTHONPATH": os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_outputs_match_manifest"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout
    assert f"'kernel': '{pinned}'" in done.stdout and f"'kernel': '{other}'" in done.stdout


if __name__ == "__main__":
    write_manifest()
