"""Errors raised by the MiniLang frontend."""

from __future__ import annotations

from ..errors import DataError


class FrontendError(DataError):
    """A lexing or parsing failure; the message ends with the character
    offset or token index where it happened."""
