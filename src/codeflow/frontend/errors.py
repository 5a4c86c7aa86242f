"""Errors raised by the MiniLang frontend."""

from __future__ import annotations

from ..errors import DataError


class FrontendError(DataError):
    """Base class for lexing/parsing failures."""


class LexError(FrontendError):
    """Lexing failure at a known character offset into the decoded source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (character offset {offset})")
        self.offset = offset


class InvalidCharacter(LexError):
    pass


class UnterminatedString(LexError):
    pass


class IndentationMismatch(LexError):
    """Dedent to an indentation width that was never opened."""


class MiniLangSyntaxError(FrontendError):
    """Parse failure at a known token index, with the kinds/texts that would
    have been accepted there."""

    def __init__(self, message: str, token_index: int, expected: frozenset[str]):
        super().__init__(f"{message} (token index {token_index})")
        self.token_index = token_index
        self.expected = expected
