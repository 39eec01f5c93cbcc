"""Exception types shared across the package.

Every error carries an ``entity`` (a file, a manifest entry, a grid
coordinate, ...) so diagnostics can point at the offending object, and an
``exit_code`` so the CLI can map failures onto its documented exit codes:
2 usage or I/O, 3 degenerate input, 4 external tool failure, 5 invalid corpus.
"""

from __future__ import annotations

import json


class AsmSimError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def __init__(self, message: str, entity: str | None = None):
        super().__init__(message)
        self.message = message
        self.entity = entity

    def diagnostic(self) -> str:
        """One machine-parseable line: code, entity, message; the values are JSON
        strings passed through :func:`one_line`, so no character can end the line."""
        entity, message = (one_line(json.dumps(text, ensure_ascii=False)) for text in
                           ("-" if self.entity is None else self.entity, self.message))
        return f"error: code={self.exit_code} entity={entity} message={message}"


# the ten characters at which str.splitlines ends a line ("\r\n" is two of them)
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ESCAPES = {c: json.dumps(chr(c))[1:-1] for c in (*range(0x20), 0x7F, *map(ord, LINE_BREAKS))}


def one_line(text: str) -> str:
    """``text`` with its control and line-break characters written as their JSON
    escapes: the one rule for a path, name or label in a line asmsim writes."""
    return text.translate(_ESCAPES)


def reason(exc: Exception) -> str:
    """Why ``exc`` failed, for an error's message: an OSError's ``strerror``, as
    ``str(exc)`` repeats the file name that the error's entity already names."""
    return getattr(exc, "strerror", None) or str(exc)


class InputError(AsmSimError):
    """Bad usage or settings, or a file, directory or stdout that was not read or written."""

    exit_code = 2


class ParseError(AsmSimError):
    """An unclassifiable assembly line was hit in strict mode."""

    exit_code = 3


class EmptyProgramError(AsmSimError):
    """A metric that is undefined for empty programs was asked to score one."""

    exit_code = 3


class NormalizationError(AsmSimError):
    """Normalization against a non-positive baseline or group value."""

    exit_code = 3


class ToolError(AsmSimError):
    """The external cross-compiler is missing or failed."""

    exit_code = 4


class ManifestError(AsmSimError):
    """An invalid corpus: its manifest, its grid or its strides."""

    exit_code = 5
