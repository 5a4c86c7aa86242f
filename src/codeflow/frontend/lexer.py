"""MiniLang lexer.

MiniLang is a Python-shaped mini-language: `#` comments, indentation-based
blocks, identifiers/numbers/strings, and a small operator set. The lexer
emits the full code-token sequence, including `newline`, `indent` and
`dedent` tokens, so downstream consumers see one flat stream.

One `findall` of one compiled pattern cuts the whole source. Its groups are
the blanks `[ \\t\\r]*` before each piece, then newline (with any comment
before it), identifier, number, string, operator, and any other character.
That last group leaves no gap, so the offset of each piece follows from the
lengths consumed so far, with no match object per token. A comment is
matched only with its newline, so no token is found inside one. Operators
are tried longest first. Character classes are spelled out in ASCII
(`[A-Za-z_]`, `[0-9]`), never `\\w` or `\\d`, which would also match
letters and digits such as `é` or `٣`. The loop over the pieces measures
the indentation at each line start and tracks parenthesis depth. Where the
last group fires, a quote means an unterminated string and anything else
an invalid character.

A token is its kind and its text; its index is its place in the list. The
offsets are kept only to report where a `LexError` occurs; they count
characters, not the bytes of an encoded file.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import IndentationMismatch, InvalidCharacter, UnterminatedString

KEYWORDS = frozenset({"def", "if", "elif", "else", "while", "for", "in", "return"})

OPERATORS = (
    "+=", "-=", "*=", "/=", "<=", ">=", "==", "!=",
    "=", "+", "-", "*", "/", "%", "<", ">", "(", ")", ",", ":",
)


class Token(NamedTuple):
    """One token; its index is its place in the token list."""

    kind: str  # identifier | number | string | operator | keyword | newline | indent | dedent
    text: str


# Longest first, so '<=' wins over '<', '+=' over '+', etc.
_OPERATOR = "|".join(re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True))
# A string runs to its closing quote; a backslash escapes any next character.
_STRING_BODY = r"[^{q}\\\n]*(?:\\[\s\S][^{q}\\\n]*)*"
_STRING = "|".join(q + _STRING_BODY.format(q=q) + q for q in "'\"")
# (blanks, newline, identifier, number, string, operator, other) per piece.
_PIECES = re.compile(
    r"([ \t\r]*)(?:"
    r"((?:#[^\n]*)?\n)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([0-9]+(?:\.[0-9]+)?)"
    rf"|({_STRING})"
    rf"|({_OPERATOR})"
    r"|(.))"
).findall
# From just after an opening quote to the first unescaped newline or the end.
_UNTERMINATED = re.compile(_STRING_BODY.format(q=""))
# Builds a token without the Python-level NamedTuple constructor: a fifth of
# the lexing time.
_new = tuple.__new__
# Tokens are immutable, so every newline and every dedent is one shared token.
_NEWLINE = Token("newline", "\n")
_DEDENT = Token("dedent", "")


def tokenize(source: str) -> list[Token]:
    """Lex `source` into the complete token sequence.

    Comments (`#` to end of line) produce no tokens. Blank and comment-only
    lines produce no newline/indent/dedent tokens. Newlines inside an open
    parenthesis are treated as plain whitespace. Any indentation still open
    at end of input is closed with dedents.

    Raises InvalidCharacter, UnterminatedString or IndentationMismatch.
    """
    tokens: list[Token] = []
    append = tokens.append
    indents = [0]
    pos = 0
    paren_depth = 0
    at_line_start = True

    for blank, newline, identifier, number, string, operator, other in _PIECES(source):
        start = pos + len(blank)
        if newline:
            pos = start + len(newline)
            if not (at_line_start or paren_depth):  # blank lines and open parentheses emit nothing
                append(_NEWLINE)
                at_line_start = True
            continue
        # A blank is "other" only at the end of input, where `[ \t\r]*` gave
        # it back; a '#' only when no newline follows its comment.
        if other and other in " \t\r#":
            break
        if at_line_start:
            width = len(blank)
            if width > indents[-1]:
                indents.append(width)
                append(Token("indent", blank))
            else:
                while width < indents[-1]:
                    indents.pop()
                    append(_DEDENT)
                if width != indents[-1]:
                    raise IndentationMismatch("unindent does not match any outer level", start)
            at_line_start = False

        if identifier:
            text = identifier
            kind = "keyword" if text in KEYWORDS else "identifier"
        elif operator:
            text, kind = operator, "operator"
            if text == "(":
                paren_depth += 1
            elif text == ")" and paren_depth:
                paren_depth -= 1
        elif number:
            text, kind = number, "number"
        elif string:
            text, kind = string, "string"
        elif other in "'\"":
            end = _UNTERMINATED.match(source, start + 1).end()
            where = "line" if end < len(source) and source[end] == "\n" else "input"
            raise UnterminatedString(f"string literal hits end of {where}", start)
        else:
            raise InvalidCharacter(f"unexpected character {other!r}", start)
        pos = start + len(text)
        append(_new(Token, (kind, text)))

    # Close any indentation still open at end of input.
    while len(indents) > 1:
        indents.pop()
        append(_DEDENT)
    return tokens
