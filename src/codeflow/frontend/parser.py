"""Recursive-descent parser for MiniLang token streams.

`_Parser` unzips the tokens once into two flat views, `kinds` and `texts`,
each closed by an end sentinel (None), and the grammar methods index them
at `self.pos`: checking a token is a tuple lookup, not a method call. Since
a token's index is its position, `pos` is also the token index that `Name`
and `Param` nodes and errors record; nodes carry no source positions.
Binary expressions are parsed by precedence climbing over the one `LEVELS`
table: `expression(level)` parses a primary, then folds in every operator
of that level or tighter, each with a right operand parsed one level
tighter, so every level is left-associative.
"""

from __future__ import annotations

from typing import NoReturn

from .errors import MiniLangSyntaxError
from .lexer import Token
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
_END = (None, None)

# Deepest nesting of blocks, `elif` arms, parentheses and call arguments the
# parser accepts. Each level costs up to four Python frames here (a block:
# `statement`, `if_stmt`, `_conditional`, `block`) and up to three in the
# DFG walk, so this keeps both well inside the interpreter's recursion limit
# and turns deeper input into a syntax error.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.kinds, self.texts = zip(*tokens, _END)
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
        return Module(tuple(body))

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
            target = Name(self.texts[pos], pos)
            if op == "=":
                return Assign(target, value)
            return AugAssign(target, op, value)
        value = self.expression()
        self.end_of_statement()
        return ExprStmt(value)

    def return_stmt(self) -> Return:
        self.expect("keyword", "return")
        value: Expr | None = None
        if self.kinds[self.pos] in _EXPR_START or self.texts[self.pos] == "(":
            value = self.expression()
        self.end_of_statement()
        return Return(value)

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
        self.expect("keyword", "if")
        return self._conditional()

    def _conditional(self) -> If:
        test = self.expression()
        body = self.block()
        orelse: tuple[Stmt, ...] = ()
        if self.kinds[self.pos] == "keyword":
            if self.texts[self.pos] == "elif":
                self.pos += 1
                self.nest()
                orelse = (self._conditional(),)
                self.depth -= 1
            elif self.texts[self.pos] == "else":
                self.pos += 1
                orelse = self.block()
        return If(test, body, orelse)

    def while_stmt(self) -> While:
        self.expect("keyword", "while")
        test = self.expression()
        return While(test, self.block())

    def for_stmt(self) -> For:
        self.expect("keyword", "for")
        name = self.expect("identifier")
        self.expect("keyword", "in")
        it = self.expression()
        return For(Name(self.texts[name], name), it, self.block())

    def function_def(self) -> FunctionDef:
        self.expect("keyword", "def")
        name = self.expect("identifier")
        self.expect("operator", "(")
        params: list[Param] = []
        if self.texts[self.pos] != ")":
            while True:
                p = self.expect("identifier")
                params.append(Param(self.texts[p], p))
                if self.texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect("operator", ")")
        return FunctionDef(self.texts[name], tuple(params), self.block())

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
            left = BinOp(left, op, right)

    def primary(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind == "identifier":
            self.pos = pos + 1
            if self.texts[pos + 1] == "(":
                return self.call(text)
            return Name(text, pos)
        if kind in ("number", "string"):
            self.pos = pos + 1
            return Literal(text)
        if text == "(":
            self.pos = pos + 1
            self.nest()
            inner = self.expression()
            self.depth -= 1
            self.expect("operator", ")")
            return inner
        self.fail(set(_EXPR_START))

    def call(self, func: str) -> Call:
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
        self.expect("operator", ")")
        return Call(func, tuple(args))


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
