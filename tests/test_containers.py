"""The plain-text experiment config: comments, key and value errors, and the
echo that a run directory records."""

import dataclasses

import pytest

from qsci.containers import ExperimentConfig
from qsci.errors import ConfigError


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
            changed[f.name] = default + 3 if isinstance(default, int) else default + 0.37
    cfg = dataclasses.replace(ExperimentConfig(), **changed)
    assert all(getattr(cfg, name) != getattr(ExperimentConfig(), name) for name in changed)
    assert ExperimentConfig.parse(cfg.echo()) == cfg
    assert ExperimentConfig.parse(cfg.echo()).echo() == cfg.echo()
