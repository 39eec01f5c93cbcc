import json

import pytest

from asmsim.asm_parser import ParserConfig
from asmsim.config import (COMPILER_ENV_VAR, DEFAULT_COMPILER_COMMAND,
                           ToolConfig, config_from_dict, load_tool_config)
from asmsim.errors import InputError


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_defaults():
    config = ToolConfig()
    assert config.compiler_command == DEFAULT_COMPILER_COMMAND
    assert config.compiler_flags == ("-S", "-mthumb", "-O0")
    assert config.output_format == "markdown"
    assert config.ngram_mode == "blocks"
    assert config.jobs == 1
    assert config.strides is None
    assert config.parser.strict is False


def test_file_overrides(tmp_path):
    path = write_config(tmp_path, {
        "compiler_command": "cc {input} -o {output}",
        "compiler_flags": ["-S"],
        "output_format": "csv",
        "ngram_mode": "linear",
        "jobs": 4,
        "strides": [1, 2],
        "parser": {"strict": True, "comment_markers": [";"],
                   "branch_mnemonics": ["jmp", "jz"]},
    })
    config = load_tool_config(path, env={})
    assert config.compiler_command == "cc {input} -o {output}"
    assert config.compiler_flags == ("-S",)
    assert config.output_format == "csv"
    assert config.ngram_mode == "linear"
    assert config.jobs == 4
    assert config.strides == (1, 2)
    assert config.parser.strict is True
    assert config.parser.comment_markers == frozenset({";"})
    assert config.parser.branch_mnemonics == frozenset({"jmp", "jz"})


def test_partial_file_keeps_other_defaults(tmp_path):
    path = write_config(tmp_path, {"jobs": 2})
    config = load_tool_config(path, env={})
    assert config.jobs == 2
    assert config.output_format == "markdown"


def test_env_compiler_applies_and_file_wins(tmp_path):
    config = load_tool_config(None, env={COMPILER_ENV_VAR: "env-cc"})
    assert config.compiler_command == "env-cc"
    path = write_config(tmp_path, {"compiler_command": "file-cc"})
    config = load_tool_config(path, env={COMPILER_ENV_VAR: "env-cc"})
    assert config.compiler_command == "file-cc"


def test_empty_env_compiler_is_unset():
    config = load_tool_config(None, env={COMPILER_ENV_VAR: ""})
    assert config.compiler_command == DEFAULT_COMPILER_COMMAND


@pytest.mark.parametrize("doc", [
    {"no_such_key": 1},
    {"jobs": 0},
    {"jobs": "many"},
    {"output_format": "xml"},
    {"ngram_mode": "sometimes"},
    {"strides": ["1"]},
    {"parser": {"branch_mnemonics": []}},
    {"parser": {"unknown": True}},
    {"compiler_flags": "-S"},
    {"parser": {"comment_markers": [""]}},
    {"parser": {"comment_markers": ["@", ""]}},
    {"jobs": True},
    {"strides": [True]},
    {"compiler_command": ""},
    {"compiler_flags": [1]},
    {"parser": []},
    {"parser": {"strict": "yes"}},
    {"compiler_command": "   "},
    {"compiler_command": 'gcc "x'},
    {"parser": {"comment_markers": ["@\n"]}},
    {"parser": {"comment_markers": ["//", "\u2028"]}},
    {"parser": {"comment_markers": ["@", " "]}},
    {"parser": {"comment_markers": ["\t \u3000"]}},
])
def test_invalid_configs_rejected(tmp_path, doc):
    path = write_config(tmp_path, doc)
    with pytest.raises(InputError) as excinfo:
        load_tool_config(path, env={})
    assert excinfo.value.entity == str(path)


@pytest.mark.parametrize("make", [
    lambda: ParserConfig(branch_mnemonics=frozenset()),
    lambda: ParserConfig(comment_markers=frozenset({""})),
    lambda: ParserConfig(comment_markers=frozenset({"@\r"})),
    lambda: ToolConfig(jobs=0),
    lambda: ToolConfig(compiler_command="  "),
    lambda: ToolConfig(output_format="xml"),
    lambda: ToolConfig(ngram_mode="x"),
    lambda: ParserConfig(comment_markers=frozenset({"@", " "})),
], ids=["no-branches", "empty-marker", "line-break-marker", "jobs-0", "blank-command",
        "format-xml", "mode-x", "space-marker"])
def test_direct_construction_checks_the_values(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize("doc, base", [
    ({"jobs": 0}, ToolConfig()),
    ({"output_format": "xml"}, ToolConfig(jobs=2)),
    ({"parser": {"branch_mnemonics": []}}, ToolConfig()),
    ({"branch_mnemonics": []}, ParserConfig()),
    ({"comment_markers": [""]}, ParserConfig(strict=True)),
])
def test_a_changed_copy_is_checked_and_names_the_layer(doc, base):
    with pytest.raises(InputError) as excinfo:
        config_from_dict(doc, base, entity="e")
    assert excinfo.value.entity == "e"


def test_missing_config_file(tmp_path):
    with pytest.raises(InputError):
        load_tool_config(tmp_path / "absent.json", env={})


def test_config_from_dict_layers():
    base = config_from_dict({"jobs": 3}, None)
    layered = config_from_dict({"output_format": "json"}, base)
    assert layered.jobs == 3
    assert layered.output_format == "json"


def test_every_field_is_set_from_a_file(tmp_path):
    """A value unlike the default for each field that ``_fields``
    names reaches the loaded config, so no field drops out of the one path."""
    parser = {"comment_markers": [";"], "branch_mnemonics": ["jmp"], "strict": True}
    doc = {"compiler_command": "cc", "compiler_flags": ["-S"], "parser": parser,
           "strides": [1, 2], "output_format": "json", "ngram_mode": "linear", "jobs": 3}
    config = load_tool_config(write_config(tmp_path, doc), env={})
    for loaded, default, values in ((config, ToolConfig(), doc),
                                    (config.parser, ParserConfig(), parser)):
        for name in loaded._fields:
            value, got = values[name], getattr(loaded, name)
            assert got != getattr(default, name)
            if name != "parser":
                assert got == (type(got)(value) if isinstance(value, list) else value)
