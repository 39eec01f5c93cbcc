"""Tool configuration: defaults, JSON config files, environment overrides.

Precedence, lowest to highest: built-in defaults, the ASMSIM_CC
environment variable (compiler command only; empty is unset), the config
file, CLI flags. Each layer is a mapping applied by :func:`config_from_dict`,
so all of them pass the same type and range checks: it builds each result
through the class, as ``_replace`` would skip the checks.
"""

from __future__ import annotations

import os
import shlex
from pathlib import Path
from typing import Mapping, NamedTuple

from .asm_parser import DEFAULT_CONFIG, ParserConfig
from .corpus import load_json_object
from .errors import InputError
from .report import OUTPUT_FORMATS

COMPILER_ENV_VAR = "ASMSIM_CC"

# The compile step targets ARM Thumb assembly output; optimization is off
# so the emitted instructions track the source as closely as possible.
DEFAULT_COMPILER_COMMAND = "arm-none-eabi-gcc"
DEFAULT_COMPILER_FLAGS = ("-S", "-mthumb", "-O0")

NGRAM_MODES = ("blocks", "linear")


class _ToolFields(NamedTuple):
    compiler_command: str = DEFAULT_COMPILER_COMMAND
    compiler_flags: tuple[str, ...] = DEFAULT_COMPILER_FLAGS
    parser: ParserConfig = DEFAULT_CONFIG
    strides: tuple[int, ...] | None = None
    output_format: str = "markdown"
    ngram_mode: str = "blocks"
    jobs: int = 1


class ToolConfig(_ToolFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ToolConfig:
        self = super().__new__(cls, *args, **kwargs)
        try:
            words = shlex.split(self.compiler_command)
        except ValueError as exc:  # an unclosed quote or a trailing backslash
            raise InputError(f"compiler_command is not a shell command: {exc}") from None
        if not words:
            raise InputError("compiler_command must name a program")
        if self.jobs < 1:
            raise InputError(f"jobs must be >= 1, got {self.jobs}")
        if self.output_format not in OUTPUT_FORMATS:
            raise InputError(f"unknown output format {self.output_format!r}")
        if self.ngram_mode not in NGRAM_MODES:
            raise InputError(f"unknown ngram mode {self.ngram_mode!r}")
        return self


# The JSON type of each ToolConfig and ParserConfig field but `parser`, a
# nested object; (container, item type) is a list stored as that container.
_JSON_TYPES: dict[str, type | tuple[type, type]] = {
    "compiler_command": str,
    "compiler_flags": (tuple, str),
    "strides": (tuple, int),
    "output_format": str,
    "ngram_mode": str,
    "jobs": int,
    "comment_markers": (frozenset, str),
    "branch_mnemonics": (frozenset, str),
    "strict": bool,
}


def config_from_dict(doc: Mapping, base: ToolConfig | ParserConfig | None = None, *,
                     entity: str | None = "<config>") -> ToolConfig | ParserConfig:
    """Apply the keys present in ``doc`` over ``base`` (default: the
    built-in defaults). Each key names a field of ``base``; a mapping under
    ``parser`` applies over ``base.parser`` the same way. Errors name
    ``entity``, the layer being applied."""
    base = base if base is not None else ToolConfig()
    unknown = set(doc) - set(base._fields)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}", entity=entity)
    updates = {}
    for key, value in doc.items():
        nested = getattr(base, key)
        if isinstance(nested, ParserConfig):
            if not isinstance(value, Mapping):
                raise InputError(f'"{key}" must be an object', entity=entity)
            value = config_from_dict(value, nested, entity=entity)
        elif isinstance(kind := _JSON_TYPES[key], tuple):
            container, item = kind
            if type(value) is not list or any(type(v) is not item for v in value):
                raise InputError(f'"{key}" must be a list of {item.__name__}', entity=entity)
            value = container(value)
        elif type(value) is not kind:  # exact: JSON true is no int
            raise InputError(f'"{key}" must be {kind.__name__}, got {type(value).__name__}',
                             entity=entity)
        updates[key] = value
    try:
        # through the class, whose checks _replace would skip
        return type(base)(**{**base._asdict(), **updates})
    except InputError as exc:
        raise InputError(exc.message, entity=entity) from exc


def load_tool_config(path: str | Path | None = None, *,
                     env: Mapping[str, str] | None = None) -> ToolConfig:
    """Defaults, then the environment compiler override, then the file."""
    env = os.environ if env is None else env
    config = ToolConfig()
    if env_cc := env.get(COMPILER_ENV_VAR):
        config = config_from_dict({"compiler_command": env_cc}, config,
                                  entity=COMPILER_ENV_VAR)
    if path is not None:
        doc = load_json_object(Path(path), "config file", InputError)
        config = config_from_dict(doc, config, entity=str(path))
    return config

