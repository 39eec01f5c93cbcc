"""Tool configuration: defaults, JSON config files, environment overrides.

Precedence, lowest to highest: built-in defaults, the ASMSIM_CC
environment variable (compiler command only), the config file, CLI flags
(applied by the CLI itself).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .asm_parser import ParserConfig
from .errors import InputError
from .report import OUTPUT_FORMATS

COMPILER_ENV_VAR = "ASMSIM_CC"

# The compile step targets ARM Thumb assembly output; optimization is off
# so the emitted instructions track the source as closely as possible.
DEFAULT_COMPILER_COMMAND = "arm-none-eabi-gcc"
DEFAULT_COMPILER_FLAGS = ("-S", "-mthumb", "-O0")

NGRAM_MODES = ("blocks", "linear")


@dataclass(frozen=True)
class ToolConfig:
    compiler_command: str = DEFAULT_COMPILER_COMMAND
    compiler_flags: tuple[str, ...] = DEFAULT_COMPILER_FLAGS
    parser: ParserConfig = field(default_factory=ParserConfig)
    strides: tuple[int, ...] | None = None
    output_format: str = "markdown"
    ngram_mode: str = "blocks"
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise InputError(f"jobs must be >= 1, got {self.jobs}")
        if self.output_format not in OUTPUT_FORMATS:
            raise InputError(f"unknown output format {self.output_format!r}")
        if self.ngram_mode not in NGRAM_MODES:
            raise InputError(f"unknown ngram mode {self.ngram_mode!r}")


_TOP_LEVEL_KEYS = {"compiler_command", "compiler_flags", "parser", "strides",
                   "output_format", "ngram_mode", "jobs"}
_PARSER_KEYS = {"comment_markers", "branch_mnemonics", "strict"}


def _string_list(value: object, what: str, entity: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what} must be a list of strings", entity=entity)
    return tuple(value)


def _parser_from_dict(doc: Mapping, base: ParserConfig, entity: str) -> ParserConfig:
    unknown = set(doc) - _PARSER_KEYS
    if unknown:
        raise InputError(f"unknown parser config keys: {sorted(unknown)}", entity=entity)
    markers = base.comment_markers
    if "comment_markers" in doc:
        markers = frozenset(_string_list(doc["comment_markers"], "comment_markers", entity))
    branches = base.branch_mnemonics
    if "branch_mnemonics" in doc:
        branches = frozenset(_string_list(doc["branch_mnemonics"], "branch_mnemonics", entity))
        if not branches:
            raise InputError("branch_mnemonics must not be empty", entity=entity)
    strict = base.strict
    if "strict" in doc:
        if not isinstance(doc["strict"], bool):
            raise InputError('"strict" must be a boolean', entity=entity)
        strict = doc["strict"]
    return ParserConfig(comment_markers=markers, branch_mnemonics=branches, strict=strict)


def config_from_dict(doc: Mapping, base: ToolConfig | None = None, *,
                     entity: str = "<config>") -> ToolConfig:
    """Apply the keys present in ``doc`` over ``base``."""
    base = base if base is not None else ToolConfig()
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}", entity=entity)

    updates: dict = {}
    if "compiler_command" in doc:
        if not isinstance(doc["compiler_command"], str) or not doc["compiler_command"]:
            raise InputError('"compiler_command" must be a non-empty string', entity=entity)
        updates["compiler_command"] = doc["compiler_command"]
    if "compiler_flags" in doc:
        updates["compiler_flags"] = _string_list(doc["compiler_flags"],
                                                 "compiler_flags", entity)
    if "parser" in doc:
        if not isinstance(doc["parser"], Mapping):
            raise InputError('"parser" must be an object', entity=entity)
        updates["parser"] = _parser_from_dict(doc["parser"], base.parser, entity)
    if "strides" in doc:
        strides = doc["strides"]
        if (not isinstance(strides, list)
                or not all(isinstance(s, int) and not isinstance(s, bool) for s in strides)):
            raise InputError('"strides" must be a list of integers', entity=entity)
        updates["strides"] = tuple(strides)
    if "output_format" in doc:
        updates["output_format"] = doc["output_format"]
    if "ngram_mode" in doc:
        updates["ngram_mode"] = doc["ngram_mode"]
    if "jobs" in doc:
        if not isinstance(doc["jobs"], int) or isinstance(doc["jobs"], bool):
            raise InputError('"jobs" must be an integer', entity=entity)
        updates["jobs"] = doc["jobs"]
    try:
        return replace(base, **updates)
    except InputError as exc:
        raise InputError(exc.message, entity=entity) from exc


def load_tool_config(path: str | Path | None = None, *,
                     env: Mapping[str, str] | None = None) -> ToolConfig:
    """Defaults, then the environment compiler override, then the file."""
    env = os.environ if env is None else env
    config = ToolConfig()
    env_cc = env.get(COMPILER_ENV_VAR)
    if env_cc:
        config = replace(config, compiler_command=env_cc)
    if path is not None:
        path = Path(path)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read config file: {exc}", entity=str(path)) from exc
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file is not valid JSON: {exc}",
                             entity=str(path)) from exc
        if not isinstance(doc, dict):
            raise InputError("config root must be an object", entity=str(path))
        config = config_from_dict(doc, config, entity=str(path))
    return config


__all__ = ["ToolConfig", "config_from_dict", "load_tool_config",
           "COMPILER_ENV_VAR", "DEFAULT_COMPILER_COMMAND", "DEFAULT_COMPILER_FLAGS",
           "NGRAM_MODES"]
