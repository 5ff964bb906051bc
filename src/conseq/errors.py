"""Error taxonomy shared by every module.

Three failure kinds are kept apart so callers (and the CLI exit-code
mapping) can tell them apart:

* DomainError  -- an argument is outside the mathematical domain of the
  operation (element not in the language, mismatched languages,
  negative atom index).
* UsageError   -- the call itself is malformed or unsupported (step
  cap below 1, exhaustiveness bound exceeded, unknown scenario id).
* InputSyntaxError -- text failed to parse; carries a position so the
  message can point at the offending line or column.
"""

from __future__ import annotations


class ConseqError(Exception):
    """Base class for all workbench errors."""


class DomainError(ConseqError):
    """Argument lies outside the operation's mathematical domain."""


class UsageError(ConseqError):
    """Malformed or unsupported call."""


class InputSyntaxError(ConseqError):
    """Unparseable input text.

    `where` is a human-readable location: a line number for system
    files, a 1-based `column N` for formulas.
    """

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(message if where is None else f"{where}: {message}")
