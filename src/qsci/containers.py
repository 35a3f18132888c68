"""Binary checkpoint container and the plain-text experiment config.

Checkpoints carry a config fingerprint plus named little-endian arrays
(float32, int64 or uint64); save/load round trips are bit-exact. The reader
returns the fingerprint as stored: callers compare it with the network they
build (``install_packed``, ``init_from_backbone`` through its backbone
geometry). The same container holds trained networks and packed models
(whose state carries uint64 weight codes, see :mod:`qsci.packed`);
:func:`qsci.network.check_state`, the one check that a state fits a
network, tells them apart for every loader. The reader checks every length
against the bytes left, so a truncated or corrupt file raises FormatError.
The experiment config is a ``section.key = value`` text file with a fixed
key schema; unknown keys are rejected and the parsed values are echoed into
the run directory for provenance.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError

CKPT_MAGIC = b"QSCICKPT"
CKPT_VERSION = 1

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<i8"): 1, np.dtype("<u8"): 2}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def _write_uint(fh, v: int, nbytes: int):
    fh.write(int(v).to_bytes(nbytes, "little"))


def _read_exact(fh, n: int) -> bytes:
    """The next ``n`` bytes; a file that ends first is truncated."""
    if n > fh.size - fh.tell():
        raise FormatError(f"truncated file: {n} bytes expected at offset {fh.tell()}")
    return fh.read(n)


def _read_uint(fh, nbytes: int) -> int:
    return int.from_bytes(_read_exact(fh, nbytes), "little")


def _write_str(fh, s: str):
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError("string field too long")
    _write_uint(fh, len(raw), 2)
    fh.write(raw)


def _read_str(fh) -> str:
    try:
        return _read_exact(fh, _read_uint(fh, 2)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"string field is not UTF-8: {exc}") from exc


def _write_array(fh, arr: np.ndarray):
    arr = np.asarray(arr)
    le = arr.dtype.newbyteorder("<")
    if le not in _DTYPE_TAGS:
        raise FormatError(f"unsupported array dtype {arr.dtype}")
    fh.write(bytes([_DTYPE_TAGS[le], arr.ndim]))
    for d in arr.shape:
        _write_uint(fh, d, 4)
    fh.write(np.ascontiguousarray(arr, dtype=le).tobytes())


def _read_array(fh) -> np.ndarray:
    tag = _read_uint(fh, 1)
    dtype = _TAG_DTYPES.get(tag)
    if dtype is None:
        raise FormatError(f"unknown dtype tag {tag}")
    shape = tuple(_read_uint(fh, 4) for _ in range(_read_uint(fh, 1)))
    raw = _read_exact(fh, math.prod(shape) * dtype.itemsize)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def save_checkpoint(path, fingerprint: str, state: dict):
    """Write named parameter arrays under the given config fingerprint."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        _write_uint(fh, CKPT_VERSION, 2)
        _write_str(fh, fingerprint)
        _write_uint(fh, len(state), 4)
        for name in sorted(state):
            _write_str(fh, name)
            _write_array(fh, np.asarray(state[name]))


def load_checkpoint(path):
    """Read (fingerprint, state); rejects a wrong magic or version.

    The whole file is read into memory; ``size`` lets every read be checked
    against the bytes left, so a corrupt length is never allocated."""
    with open(path, "rb") as raw:
        data = raw.read()
    fh = io.BytesIO(data)
    fh.size = len(data)
    got = fh.read(len(CKPT_MAGIC))
    if got != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {got!r}")
    got = _read_uint(fh, 2)
    if got != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {got}")
    fingerprint = _read_str(fh)
    state = {}
    for _ in range(_read_uint(fh, 4)):
        name = _read_str(fh)
        state[name] = _read_array(fh)
    return fingerprint, state


# ---------------------------------------------------------------------------
# experiment config: "section.key = value" text files
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    # net.*
    net_variant: str = "fp32"
    net_base_channels: int = 16
    net_resdnet_blocks: int = 1
    net_cformer_per_block: int = 1
    net_heads: int = 2
    net_cr: int = 4
    # train.*
    train_lr_phase1: float = 1e-4
    train_lr_phase2: float = 1e-5
    train_epochs_phase1: int = 60
    train_epochs_phase2: int = 20
    train_batch_size: int = 8
    train_crop: int = 32
    train_aug_crop: bool = True
    train_aug_flip: bool = True
    train_aug_scale: bool = True
    train_seed: int = 0
    # data.*
    data_seed: int = 1
    data_count: int = 200
    data_holdout: int = 16
    data_clip_hw: int = 48
    data_mask_p: float = 0.5
    data_noise_sigma: float = 0.0
    # out.*
    out_dir: str = "run"

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'section.key = value', got '{raw}'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEY_MAP:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            fname, ftype = _KEY_MAP[key]
            setattr(cfg, fname, _convert(key, value, ftype))
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def echo(self) -> str:
        """Canonical text rendering of every key (written for provenance)."""
        lines = []
        for key, (fname, _) in sorted(_KEY_MAP.items()):
            v = getattr(self, fname)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"


# "section.key" -> (field name, type): the field net_base_channels is the key
# net.base_channels
_KEY_MAP = {f.name.replace("_", ".", 1): (f.name, f.type) for f in fields(ExperimentConfig)}


def _convert(key, value, ftype):
    tname = ftype if isinstance(ftype, str) else ftype.__name__
    try:
        if tname == "bool":
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if tname == "int":
            return int(value)
        if tname == "float":
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse '{value}' as {tname}") from exc
