"""MiniLang lexer.

MiniLang is a Python-shaped mini-language: `#` comments, indentation-based
blocks, identifiers/numbers/strings, and a small operator set. The lexer
emits the full code-token sequence, including `newline`, `indent` and
`dedent` tokens, so downstream consumers see one flat stream.

One `findall` of one compiled pattern cuts the whole source into pairs of
the blanks `[ \\t\\r]*` before a piece and the piece. The piece's
alternatives are tried in this order, the common pieces first: identifier,
two-character operator, one-character operator, newline, number, comment
with its newline, string, and any other character. A comment is matched
only with its newline, so no token is found inside one. Character classes
are spelled out in ASCII (`[A-Za-z_]`, `[0-9]`), never `\\w` or `\\d`,
which would also match letters and digits such as `é` or `٣`.

The loop over the pieces looks each one up in a table of tokens by text,
which every call copies from the shared table of keywords, operators and
the newline. The first time an identifier or number appears its token is
built and added to the call's table, so each later occurrence costs one
dict hit; strings and indents are built each time. The table dies with the
call: no token is kept from one call to the next. The loop measures the
indentation at each line start and tracks parenthesis depth. A lone quote
means an unterminated string and any other unmatched character an invalid
one. The pieces leave no gap, so the character offset that a `LexError`
reports is the sum of the lengths before its piece; the loop itself keeps
no position.

A token is its kind and its text; its index is its place in the list.
Offsets count characters, not the bytes of an encoded file.
"""

from __future__ import annotations

import re
from operator import length_hint
from string import ascii_letters, digits
from typing import NamedTuple

from .errors import IndentationMismatch, InvalidCharacter, LexError, UnterminatedString

KEYWORDS = frozenset({"def", "if", "elif", "else", "while", "for", "in", "return"})

OPERATORS = (
    "+=", "-=", "*=", "/=", "<=", ">=", "==", "!=",
    "=", "+", "-", "*", "/", "%", "<", ">", "(", ")", ",", ":",
)


class Token(NamedTuple):
    """One token; its index is its place in the token list."""

    kind: str  # identifier | number | string | operator | keyword | newline | indent | dedent
    text: str


# The operator classes are built from the table; every two-character
# operator ends in '='.
_OPERATOR_2 = "".join(re.escape(op[0]) for op in OPERATORS if len(op) == 2)
_OPERATOR_1 = "".join(re.escape(op) for op in OPERATORS if len(op) == 1)
# A string runs to its closing quote; a backslash escapes any next character.
_STRING_BODY = r"[^{q}\\\n]*(?:\\[\s\S][^{q}\\\n]*)*"
_STRING = "|".join(q + _STRING_BODY.format(q=q) + q for q in "'\"")
# (blanks, piece), with the piece's alternatives in the order above.
_PIECES = re.compile(
    r"([ \t\r]*)("
    r"[A-Za-z_][A-Za-z0-9_]*"
    rf"|[{_OPERATOR_2}]=|[{_OPERATOR_1}]"
    r"|\n"
    r"|[0-9]+(?:\.[0-9]+)?"
    r"|#[^\n]*\n"
    rf"|{_STRING}"
    r"|.)"
).findall
# From just after an opening quote to the first unescaped newline or the end.
_UNTERMINATED = re.compile(_STRING_BODY.format(q=""))
# Builds a token without the Python-level NamedTuple constructor.
_new = tuple.__new__
# Tokens are immutable, so each keyword, operator, newline and dedent is one
# shared token.
_NEWLINE = Token("newline", "\n")
_DEDENT = Token("dedent", "")
_FIXED = {
    **{kw: Token("keyword", kw) for kw in KEYWORDS},
    **{op: Token("operator", op) for op in OPERATORS},
    "\n": _NEWLINE,
}
_OPEN, _CLOSE = _FIXED["("], _FIXED[")"]
# The kind of an identifier or number piece, by its first character.
_KINDS = {
    **dict.fromkeys(ascii_letters + "_", "identifier"),
    **dict.fromkeys(digits, "number"),
}


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
    paren_depth = 0
    at_line_start = True
    pieces = _PIECES(source)
    rest = iter(pieces)
    known = _FIXED.copy()  # this call's tokens by text; gone when it returns

    for blank, piece in rest:
        token = known.get(piece)
        if token is None:
            kind = _KINDS.get(piece[0])
            if kind is not None:
                token = known[piece] = _new(Token, (kind, piece))
            elif len(piece) > 1:  # a string, or a comment with its newline
                token = _NEWLINE if piece[0] == "#" else _new(Token, ("string", piece))
            elif piece in " \t\r#":
                # Only at the end of input: a blank that `[ \t\r]*` gave
                # back, or a comment with no newline after it.
                break
            else:
                raise _error(source, pieces, rest, indents if at_line_start else None)
        if token is _NEWLINE:
            if not (at_line_start or paren_depth):  # blank lines and open parentheses emit nothing
                append(_NEWLINE)
                at_line_start = True
            continue
        if at_line_start:
            width = len(blank)
            if width > indents[-1]:
                indents.append(width)
                append(_new(Token, ("indent", blank)))
            elif width < indents[-1]:
                if width not in indents:
                    raise _error(source, pieces, rest, indents)
                while width < indents[-1]:
                    indents.pop()
                    append(_DEDENT)
            at_line_start = False
        if token is _OPEN:
            paren_depth += 1
        elif token is _CLOSE and paren_depth:
            paren_depth -= 1
        append(token)

    # Close any indentation still open at end of input.
    while len(indents) > 1:
        indents.pop()
        append(_DEDENT)
    return tokens


def _error(source: str, pieces: list, rest, indents: list[int] | None) -> LexError:
    """The error of the piece just taken from `rest`, at the character offset
    after its blanks. `indents` are the open indentation widths when the
    piece starts a line: an unindent to a width that none of them matches
    comes first. Otherwise the piece is a lone quote or an invalid character."""
    done = len(pieces) - length_hint(rest) - 1
    blank, piece = pieces[done]
    start = sum(len(b) + len(p) for b, p in pieces[:done]) + len(blank)
    if indents is not None and len(blank) not in indents and len(blank) < indents[-1]:
        return IndentationMismatch("unindent does not match any outer level", start)
    if piece in "'\"":
        end = _UNTERMINATED.match(source, start + 1).end()
        where = "line" if end < len(source) and source[end] == "\n" else "input"
        return UnterminatedString(f"string literal hits end of {where}", start)
    return InvalidCharacter(f"unexpected character {piece!r}", start)
