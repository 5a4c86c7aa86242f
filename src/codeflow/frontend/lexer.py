"""MiniLang lexer.

MiniLang is a Python-shaped mini-language: `#` comments, indentation-based
blocks, identifiers/numbers/strings, and a small operator set. The lexer
emits the full code-token sequence, including `newline`, `indent` and
`dedent` tokens, so downstream consumers see one flat stream.

One `findall` of one compiled pattern cuts the whole source. Its groups are
the blanks `[ \\t\\r]*` before each piece, then newline (with any comment
before it), identifier, number, string, operator, and any other character.
That last group leaves no gap, so each token's span follows from the lengths
consumed so far, with no match object per token. A comment is matched only
with its newline, so no token is found inside one. Operators are tried
longest first. Character classes are spelled out in ASCII (`[A-Za-z_]`,
`[0-9]`), never `\\w` or `\\d`, which would also match letters and digits
such as `é` or `٣`. The loop over the pieces measures the indentation at
each line start and tracks parenthesis depth. Where the last group fires, a
quote means an unterminated string and anything else an invalid character.

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

    for blank, newline, identifier, number, string, operator, other in _PIECES(source):
        start = pos + len(blank)
        if newline:
            pos = start + len(newline)
            if not (at_line_start or paren_depth):  # blank lines and open parentheses emit nothing
                append(_new(Token, ("newline", "\n", _new(Span, (pos - 1, pos)), len(tokens))))
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
                append(Token("indent", blank, Span(pos, start), len(tokens)))
            else:
                while width < indents[-1]:
                    indents.pop()
                    append(Token("dedent", "", Span(start, start), len(tokens)))
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
            where = "line" if end < n and source[end] == "\n" else "input"
            raise UnterminatedString(f"string literal hits end of {where}", start)
        else:
            raise InvalidCharacter(f"unexpected character {other!r}", start)
        pos = start + len(text)
        append(_new(Token, (kind, text, _new(Span, (start, pos)), len(tokens))))

    # Close any indentation still open at end of input.
    while len(indents) > 1:
        indents.pop()
        append(Token("dedent", "", Span(n, n), len(tokens)))
    return tokens
