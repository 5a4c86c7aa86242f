"""Recursive-descent parser for MiniLang token streams.

`_Parser` unzips the tokens once into three flat views, `kinds`, `texts`
and `spans`, each closed by an end sentinel (kind and text None), and the
grammar methods index them at `self.pos`: checking a token is a tuple
lookup, not a method call. Since a token's index is its position, `pos` is
also the token index that `Name` nodes and errors record. Binary
expressions are parsed by precedence climbing over the one `LEVELS` table:
`expression(level)` parses a primary, then folds in every operator of that
level or tighter, each with a right operand parsed one level tighter, so
every level is left-associative. Spans and nodes are built positionally,
spans with `tuple.__new__` as the lexer does.
"""

from __future__ import annotations

from typing import NoReturn

from .errors import MiniLangSyntaxError
from .lexer import Span, Token
from .syntax import (
    Assign,
    AugAssign,
    BinOp,
    Call,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    If,
    Literal,
    Module,
    Name,
    Param,
    Return,
    Stmt,
    While,
)

ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/="})
# Binary operators by precedence level, loosest first. No other token's text
# equals an operator's, so the text alone identifies one.
LEVELS = {
    "<": 1, ">": 1, "<=": 1, ">=": 1, "==": 1, "!=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3, "%": 3,
}

_EXPR_START = frozenset({"identifier", "number", "string", "("})
_END = (None, None, None, None)
_new = tuple.__new__

# Deepest nesting of blocks, `elif` arms, parentheses and call arguments the
# parser accepts. Each level costs up to four Python frames here (a block:
# `statement`, `if_stmt`, `_conditional`, `block`) and up to three in the
# DFG walk, so this keeps both well inside the interpreter's recursion limit
# and turns deeper input into a syntax error.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.kinds, self.texts, self.spans, _ = zip(*tokens, _END)
        self.pos = 0
        self.depth = 0

    # -- token plumbing -------------------------------------------------

    def expect(self, kind: str, text: str | None = None) -> int:
        """Consume the token at `pos` if it matches, and return its index."""
        pos = self.pos
        if self.kinds[pos] != kind or (text is not None and self.texts[pos] != text):
            self.fail({kind if text is None else text})
        self.pos = pos + 1
        return pos

    def fail(self, expected: set[str]) -> NoReturn:
        pos = self.pos
        kind = self.kinds[pos]
        got = "end of input" if kind is None else f"{kind} {self.texts[pos]!r}"
        raise MiniLangSyntaxError(
            f"expected one of {sorted(expected)}, got {got}", pos, frozenset(expected)
        )

    def nest(self) -> None:
        """Enter one level of nesting; the caller leaves it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MiniLangSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.pos, frozenset())

    # -- statements -----------------------------------------------------

    def parse_module(self) -> Module:
        body: list[Stmt] = []
        kinds = self.kinds
        while kinds[self.pos] is not None:
            body.append(self.statement())
        end = self.spans[-2][1] if len(kinds) > 1 else 0
        return Module(_new(Span, (0, end)), tuple(body))

    def statement(self) -> Stmt:
        if self.kinds[self.pos] == "keyword":
            compound = _COMPOUND.get(self.texts[self.pos])
            if compound is None:
                self.fail(set(_COMPOUND) | _EXPR_START)
            return compound(self)
        return self.simple_stmt()

    def simple_stmt(self) -> Stmt:
        pos = self.pos
        op = self.texts[pos + 1]
        if self.kinds[pos] == "identifier" and op in ASSIGN_OPS:
            self.pos = pos + 2
            value = self.expression()
            self.end_of_statement()
            name_span = self.spans[pos]
            target = Name(name_span, self.texts[pos], pos)
            span = _new(Span, (name_span[0], value.span[1]))
            if op == "=":
                return Assign(span, target, value)
            return AugAssign(span, target, op, value)
        value = self.expression()
        self.end_of_statement()
        return ExprStmt(value.span, value)

    def return_stmt(self) -> Return:
        kw = self.expect("keyword", "return")
        value: Expr | None = None
        if self.kinds[self.pos] in _EXPR_START or self.texts[self.pos] == "(":
            value = self.expression()
        self.end_of_statement()
        end = value.span[1] if value is not None else self.spans[kw][1]
        return Return(_new(Span, (self.spans[kw][0], end)), value)

    def end_of_statement(self) -> None:
        kind = self.kinds[self.pos]
        if kind == "newline":
            self.pos += 1
        elif kind is not None and kind != "dedent":  # end of input / block close handles it
            self.fail({"newline"})

    def block(self) -> tuple[Stmt, ...]:
        self.expect("operator", ":")
        self.expect("newline")
        self.expect("indent")
        self.nest()
        body: list[Stmt] = []
        kinds = self.kinds
        while kinds[self.pos] != "dedent":
            if kinds[self.pos] is None:
                self.fail({"dedent"})
            body.append(self.statement())
        self.pos += 1  # dedent
        self.depth -= 1
        return tuple(body)

    def if_stmt(self) -> If:
        return self._conditional(self.expect("keyword", "if"))

    def _conditional(self, kw: int) -> If:
        test = self.expression()
        body = self.block()
        orelse: tuple[Stmt, ...] = ()
        if self.kinds[self.pos] == "keyword":
            if self.texts[self.pos] == "elif":
                nested_kw = self.pos
                self.pos += 1
                self.nest()
                orelse = (self._conditional(nested_kw),)
                self.depth -= 1
            elif self.texts[self.pos] == "else":
                self.pos += 1
                orelse = self.block()
        end = (orelse[-1] if orelse else body[-1]).span[1]
        return If(_new(Span, (self.spans[kw][0], end)), test, body, orelse)

    def while_stmt(self) -> While:
        kw = self.expect("keyword", "while")
        test = self.expression()
        body = self.block()
        return While(_new(Span, (self.spans[kw][0], body[-1].span[1])), test, body)

    def for_stmt(self) -> For:
        kw = self.expect("keyword", "for")
        name = self.expect("identifier")
        self.expect("keyword", "in")
        it = self.expression()
        body = self.block()
        target = Name(self.spans[name], self.texts[name], name)
        return For(_new(Span, (self.spans[kw][0], body[-1].span[1])), target, it, body)

    def function_def(self) -> FunctionDef:
        kw = self.expect("keyword", "def")
        name = self.expect("identifier")
        self.expect("operator", "(")
        params: list[Param] = []
        if self.texts[self.pos] != ")":
            while True:
                p = self.expect("identifier")
                params.append(Param(self.texts[p], p, self.spans[p]))
                if self.texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect("operator", ")")
        body = self.block()
        span = _new(Span, (self.spans[kw][0], body[-1].span[1]))
        return FunctionDef(span, self.texts[name], name, tuple(params), body)

    # -- expressions ----------------------------------------------------

    def expression(self, level: int = 1) -> Expr:
        """Parse a primary and fold in every binary operator of `level` or tighter."""
        left = self.primary()
        texts = self.texts
        while True:
            op = texts[self.pos]
            op_level = LEVELS.get(op)
            if op_level is None or op_level < level:
                return left
            self.pos += 1
            right = self.expression(op_level + 1)
            left = BinOp(_new(Span, (left.span[0], right.span[1])), left, op, right)

    def primary(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind == "identifier":
            self.pos = pos + 1
            if self.texts[pos + 1] == "(":
                return self.call(pos)
            return Name(self.spans[pos], text, pos)
        if kind == "number":
            self.pos = pos + 1
            return Literal(self.spans[pos], float(text) if "." in text else int(text), text)
        if kind == "string":
            self.pos = pos + 1
            return Literal(self.spans[pos], text[1:-1], text)
        if text == "(":
            self.pos = pos + 1
            self.nest()
            inner = self.expression()
            self.depth -= 1
            self.expect("operator", ")")
            return inner
        self.fail(set(_EXPR_START))

    def call(self, name: int) -> Call:
        self.pos += 1  # the "(" that `primary` saw
        self.nest()
        args: list[Expr] = []
        if self.texts[self.pos] != ")":
            while True:
                args.append(self.expression())
                if self.texts[self.pos] != ",":
                    break
                self.pos += 1
        self.depth -= 1
        close = self.expect("operator", ")")
        span = _new(Span, (self.spans[name][0], self.spans[close][1]))
        return Call(span, self.texts[name], name, tuple(args))


_COMPOUND = {
    "def": _Parser.function_def,
    "if": _Parser.if_stmt,
    "while": _Parser.while_stmt,
    "for": _Parser.for_stmt,
    "return": _Parser.return_stmt,
}


def parse(tokens: list[Token]) -> Module:
    """Parse a token sequence (as produced by `tokenize`) into a Module.

    Raises MiniLangSyntaxError with the offending token index and the set of
    kinds/texts that were acceptable there, or with an empty set when the
    input nests deeper than `MAX_NESTING`.
    """
    return _Parser(tokens).parse_module()


def parse_source(source: str) -> Module:
    from .lexer import tokenize

    return parse(tokenize(source))
