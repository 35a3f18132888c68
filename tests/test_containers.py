"""The binary container rejects bytes after its last entry and a repeated
entry; the plain-text experiment config: comments, key and value errors, a
repeated key, an unreadable file, and the echo that a run directory
records."""

import dataclasses

import numpy as np
import pytest

from qsci.containers import ExperimentConfig, load_checkpoint, save_checkpoint
from qsci.errors import ConfigError, FormatError
from qsci.network import QNet, make_variant
from qsci.packed import pack_model, read_packed


@pytest.mark.parametrize("suffix,reader", [("pack", read_packed), ("qsc", load_checkpoint)])
@pytest.mark.parametrize("tail", ["one byte", "the file again"])
def test_appended_bytes_are_a_format_error(tmp_path, suffix, reader, tail):
    net = QNet(make_variant("q4", base_channels=2, heads=1, resdnet_blocks=1,
                            cformer_per_block=1, cr=2), seed=0)
    path = tmp_path / f"model.{suffix}"
    state = pack_model(net)[1] if suffix == "pack" else net.state_dict()
    save_checkpoint(path, net.cfg.fingerprint(), state)
    data = path.read_bytes()
    reader(path)
    path.write_bytes(data + (b"\0" if tail == "one byte" else data))
    with pytest.raises(FormatError, match="after the last entry"):
        reader(path)


def test_repeated_entry_is_a_format_error(tmp_path):
    path = tmp_path / "twice.qsc"
    save_checkpoint(path, "fp", {"x.bias": np.float32([1.0]), "y.bias": np.float32([2.0])})
    data = path.read_bytes()
    assert data.count(b"y.bias") == 1
    path.write_bytes(data.replace(b"y.bias", b"x.bias"))
    with pytest.raises(FormatError, match="entry 'x.bias' appears twice"):
        load_checkpoint(path)


def test_comments_and_blank_lines_are_skipped():
    cfg = ExperimentConfig.parse(
        "# a whole-line comment\n"
        "\n"
        "   \n"
        "net.variant = q4   # a trailing comment\n"
        "  train.crop=24\n"
    )
    assert cfg == dataclasses.replace(ExperimentConfig(), net_variant="q4", train_crop=24)


def test_empty_text_is_the_default_config():
    assert ExperimentConfig.parse("# nothing set\n") == ExperimentConfig()


def test_unknown_key_names_its_line():
    with pytest.raises(ConfigError, match="line 3: unknown key 'net.width'"):
        ExperimentConfig.parse("net.cr = 2\n\nnet.width = 8\n")


def test_aug_crop_is_an_unknown_key():
    # training always crops to train.crop: the masks are that size
    with pytest.raises(ConfigError, match="line 2: unknown key 'train.aug_crop'"):
        ExperimentConfig.parse("train.aug_flip = true\ntrain.aug_crop = false\n")


def test_repeated_key_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: key 'train.seed' is already set on line 1"):
        ExperimentConfig.parse("train.seed = 1\nnet.cr = 2\ntrain.seed = 2\n")


def test_unreadable_file_is_a_config_error(tmp_path):
    (tmp_path / "latin1.cfg").write_bytes("out.dir = caf\xe9\n".encode("latin-1"))
    for name in ("missing.cfg", "latin1.cfg"):
        with pytest.raises(ConfigError, match=f"cannot read config .*{name}"):
            ExperimentConfig.load(tmp_path / name)


def test_line_without_equals_names_its_line():
    with pytest.raises(ConfigError, match="line 1: expected 'section.key = value'"):
        ExperimentConfig.parse("net.cr 2\n")


@pytest.mark.parametrize("line,kind", [
    ("train.aug_flip = maybe", "bool"),
    ("net.cr = 2.5", "int"),
    ("train.batch_size = eight", "int"),
    ("train.lr_phase1 = fast", "float"),
])
def test_malformed_value_is_a_config_error(line, kind):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"key '{key}': cannot parse .* as {kind}"):
        ExperimentConfig.parse(line + "\n")


@pytest.mark.parametrize("text,value", [("true", True), ("On", True), ("1", True),
                                        ("no", False), ("FALSE", False), ("0", False)])
def test_bool_spellings(text, value):
    assert ExperimentConfig.parse(f"train.aug_scale = {text}\n").train_aug_scale is value


def test_echo_parses_back_with_every_section_set():
    # a non-default value in every field of the net, train, data and out sections
    changed = {}
    for f in dataclasses.fields(ExperimentConfig):
        default = f.default
        if isinstance(default, bool):
            changed[f.name] = not default
        elif isinstance(default, str):
            changed[f.name] = default + "_x"
        else:
            # an even step keeps train.crop even and data.clip_hw above it
            changed[f.name] = default + 2 if isinstance(default, int) else default + 0.37
    cfg = dataclasses.replace(ExperimentConfig(), **changed)
    assert all(getattr(cfg, name) != getattr(ExperimentConfig(), name) for name in changed)
    assert ExperimentConfig.parse(cfg.echo()) == cfg
    assert ExperimentConfig.parse(cfg.echo()).echo() == cfg.echo()


@pytest.mark.parametrize("field,value", [("train_lr_phase1", float("inf")), ("train_crop", 0),
                                         ("data_seed", -1), ("data_noise_sigma", float("nan"))])
def test_construction_checks_each_range(field, value):
    # the check runs on every construction, dataclasses.replace's included
    key = field.replace("_", ".", 1)
    with pytest.raises(ConfigError, match=f"key '{key}' must be finite and"):
        dataclasses.replace(ExperimentConfig(), **{field: value})
