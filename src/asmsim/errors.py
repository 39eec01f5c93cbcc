"""Exception types shared across the package.

Every error carries an ``entity`` (a file, a manifest entry, a grid
coordinate, ...) so diagnostics can point at the offending object, and an
``exit_code`` so the CLI can map failures onto its documented exit codes:
2 I/O, 3 degenerate input, 4 external tool failure, 5 invalid corpus.
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
        """One machine-parseable line: code, entity, message; the values are
        JSON strings, so ``"``, ``\\``, control characters and line breaks are escaped."""
        entity = _quote(self.entity if self.entity is not None else "-")
        return f"error: code={self.exit_code} entity={entity} message={_quote(self.message)}"


# json.dumps leaves these raw, yet str.splitlines breaks lines at them
_LINE_SEPARATORS = {0x85: "\\u0085", 0x2028: "\\u2028", 0x2029: "\\u2029"}


def _quote(text: str) -> str:
    return json.dumps(text, ensure_ascii=False).translate(_LINE_SEPARATORS)


class InputError(AsmSimError):
    """A file or directory could not be read."""

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
    """Structurally invalid corpus manifest."""

    exit_code = 5


class DuplicateIdError(ManifestError):
    """Two manifest entries share an id."""


class IncompleteGridError(AsmSimError):
    """The corpus does not cover the programmer x application grid exactly."""

    exit_code = 5


class InvalidStrideError(AsmSimError):
    """A totally-different grouping stride is unusable for the grid size."""

    exit_code = 5
