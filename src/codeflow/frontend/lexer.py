"""MiniLang lexer.

MiniLang is a Python-shaped mini-language: `#` comments, indentation-based
blocks, identifiers/numbers/strings, and a small operator set. The lexer
emits the full code-token sequence, including `newline`, `indent` and
`dedent` tokens, so downstream consumers see one flat stream.

One compiled pattern cuts every token: `_TOKEN.match(source, pos)` skips
`[ \\t\\r]*`, then matches one named group per token kind (`newline`,
`identifier`, `number`, `string`, `operator`), and `lastgroup` names the
kind. A comment is matched only together with its newline, so the pattern
cannot cut a comment short to find a token inside it. The operator alternative
is built from `OPERATORS`, longest first. Character classes are spelled out
in ASCII (`[A-Za-z_]`, `[0-9]`), never `\\w` or `\\d`, which would also
match letters and digits such as `é` or `٣`. A small Python step measures
the indentation at each line start, and a counter tracks parenthesis depth.
Where the pattern fails, a quote means an unterminated string and anything
else an invalid character.

Span bookkeeping: every token records the character range of the source
`str` it was cut from, so that re-inserting the skipped whitespace
reproduces the source exactly. Offsets count characters, not the bytes of
an encoded file. Synthetic `dedent` tokens carry an empty span at the point
they fire.
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


class Span(NamedTuple):
    """Half-open character range [start, end) into the source `str`."""

    start: int
    end: int


class Token(NamedTuple):
    """One token. A tuple, so its `index` field shadows `tuple.index`."""

    kind: str  # identifier | number | string | operator | keyword | newline | indent | dedent
    text: str
    span: Span
    index: int  # 0-based position in the token sequence


# Longest first, so '<=' wins over '<', '+=' over '+', etc.
_OPERATOR = "|".join(re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True))
# A string runs to its closing quote; a backslash escapes any next character.
_STRING_BODY = r"[^{q}\\\n]*(?:\\[\s\S][^{q}\\\n]*)*"
_STRING = "|".join(q + _STRING_BODY.format(q=q) + q for q in "'\"")
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?:#[^\n]*)?(?P<newline>\n)"
    r"|(?P<identifier>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?)"
    rf"|(?P<string>{_STRING})"
    rf"|(?P<operator>{_OPERATOR}))"
)
# Blank and comment-only lines, then the indentation of the next line (group 1).
_LINE_START = re.compile(r"(?:[ \t\r]*(?:#[^\n]*)?\n)*([ \t\r]*)")
# What `_TOKEN` skipped before it failed.
_SKIP = re.compile(r"[ \t\r]*(?:#[^\n]*)?")
# From just after an opening quote to the first unescaped newline or the end.
_UNTERMINATED = re.compile(_STRING_BODY.format(q=""))
# Builds a token without the Python-level NamedTuple constructor: a fifth of
# the lexing time.
_new = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Lex `source` into the complete token sequence.

    Comments (`#` to end of line) produce no tokens. Blank and comment-only
    lines produce no newline/indent/dedent tokens. Newlines inside an open
    parenthesis are treated as plain whitespace. Any indentation still open
    at end of input is closed with zero-width dedents.

    Raises InvalidCharacter, UnterminatedString or IndentationMismatch.
    """
    tokens: list[Token] = []
    append = tokens.append
    indents = [0]
    pos = 0
    n = len(source)
    paren_depth = 0
    at_line_start = True
    match = _TOKEN.match

    while True:
        if at_line_start:
            line_start, pos = _LINE_START.match(source, pos).span(1)
            if pos == n or source[pos] == "#":  # only blank lines or a last comment remain
                break
            width = pos - line_start
            if width > indents[-1]:
                indents.append(width)
                append(Token("indent", source[line_start:pos], Span(line_start, pos), len(tokens)))
            else:
                while width < indents[-1]:
                    indents.pop()
                    append(Token("dedent", "", Span(pos, pos), len(tokens)))
                if width != indents[-1]:
                    raise IndentationMismatch("unindent does not match any outer level", pos)
            at_line_start = False

        m = match(source, pos)
        if m is None:
            pos = _SKIP.match(source, pos).end()
            if pos == n:
                break
            ch = source[pos]
            if ch in "'\"":
                end = _UNTERMINATED.match(source, pos + 1).end()
                where = "line" if end < n and source[end] == "\n" else "input"
                raise UnterminatedString(f"string literal hits end of {where}", pos)
            raise InvalidCharacter(f"unexpected character {ch!r}", pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        text = source[start:pos]
        if kind == "newline":
            if paren_depth:
                continue
            at_line_start = True
        elif kind == "identifier":
            if text in KEYWORDS:
                kind = "keyword"
        elif kind == "operator":
            if text == "(":
                paren_depth += 1
            elif text == ")" and paren_depth:
                paren_depth -= 1
        append(_new(Token, (kind, text, _new(Span, (start, pos)), len(tokens))))

    # Close any indentation still open at end of input.
    while len(indents) > 1:
        indents.pop()
        append(Token("dedent", "", Span(n, n), len(tokens)))
    return tokens
