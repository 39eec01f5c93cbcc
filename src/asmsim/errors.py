"""Exception types shared across the package.

Every error carries an ``entity`` (a file, a manifest entry, a grid
coordinate, ...) so diagnostics can point at the offending object, and an
``exit_code`` so the CLI can map failures onto its documented exit codes:
2 I/O, 3 degenerate input, 4 external tool failure, 5 invalid corpus.
"""

from __future__ import annotations


class AsmSimError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def __init__(self, message: str, entity: str | None = None):
        super().__init__(message)
        self.message = message
        self.entity = entity

    def diagnostic(self) -> str:
        """One machine-parseable line: code, entity, message."""
        entity = self.entity if self.entity is not None else "-"
        return f'error: code={self.exit_code} entity="{entity}" message="{self.message}"'


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


class PatternMismatchError(AsmSimError):
    """A :class:`PatternSet` holds a pattern of the wrong length, or a
    program's pattern is missing from the universe it is checked against.

    Either case is a programming error rather than bad input: the pattern
    set was built by hand, or the universe came from a different corpus.
    """


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
