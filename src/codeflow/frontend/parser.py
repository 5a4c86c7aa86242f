"""Recursive-descent parser for MiniLang token streams."""

from __future__ import annotations

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

AUG_OPS = frozenset({"+=", "-=", "*=", "/="})
COMPARE_OPS = frozenset({"<", ">", "<=", ">=", "==", "!="})
ADD_OPS = frozenset({"+", "-"})
MUL_OPS = frozenset({"*", "/", "%"})

_EXPR_START = frozenset({"identifier", "number", "string", "("})

# Deepest nesting of blocks, `elif` arms, parentheses and call arguments the
# parser accepts. Each level costs up to six Python frames here and a few more
# in the DFG walk, so this keeps both well inside the interpreter's recursion
# limit and turns deeper input into a syntax error.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return False
        return text is None or tok.text == text

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            self.fail({text if text is not None else kind})
        return self.advance()

    def fail(self, expected: set[str]) -> None:
        tok = self.peek()
        index = tok.index if tok is not None else len(self.tokens)
        got = f"{tok.kind} {tok.text!r}" if tok is not None else "end of input"
        raise MiniLangSyntaxError(
            f"expected one of {sorted(expected)}, got {got}", index, frozenset(expected)
        )

    def nest(self) -> None:
        """Enter one level of nesting; the caller leaves it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            index = tok.index if tok is not None else len(self.tokens)
            raise MiniLangSyntaxError(f"nesting deeper than {MAX_NESTING} levels", index, frozenset())

    def _span_from(self, start: int) -> Span:
        end_tok = self.tokens[self.pos - 1]
        return Span(start, end_tok.span.end)

    # -- statements -----------------------------------------------------

    def parse_module(self) -> Module:
        body: list[Stmt] = []
        while self.peek() is not None:
            body.append(self.statement())
        total = Span(0, self.tokens[-1].span.end) if self.tokens else Span(0, 0)
        return Module(span=total, body=tuple(body))

    def statement(self) -> Stmt:
        tok = self.peek()
        assert tok is not None
        if tok.kind == "keyword":
            if tok.text == "def":
                return self.function_def()
            if tok.text == "if":
                return self.if_stmt()
            if tok.text == "while":
                return self.while_stmt()
            if tok.text == "for":
                return self.for_stmt()
            if tok.text == "return":
                return self.return_stmt()
            self.fail({"def", "if", "while", "for", "return"} | _EXPR_START)
        return self.simple_stmt()

    def simple_stmt(self) -> Stmt:
        start = self.peek().span.start  # type: ignore[union-attr]
        if self.at("identifier") and self.pos + 1 < len(self.tokens):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "operator" and (nxt.text == "=" or nxt.text in AUG_OPS):
                name_tok = self.advance()
                op = self.advance().text
                value = self.expression()
                target = Name(span=name_tok.span, id=name_tok.text, token_index=name_tok.index)
                self.end_of_statement()
                span = Span(start, value.span.end)
                if op == "=":
                    return Assign(span=span, target=target, value=value)
                return AugAssign(span=span, target=target, op=op, value=value)
        value = self.expression()
        self.end_of_statement()
        return ExprStmt(span=value.span, value=value)

    def return_stmt(self) -> Return:
        kw = self.expect("keyword", "return")
        value: Expr | None = None
        tok = self.peek()
        if tok is not None and (tok.kind in ("identifier", "number", "string") or tok.text == "("):
            value = self.expression()
        self.end_of_statement()
        end = value.span.end if value is not None else kw.span.end
        return Return(span=Span(kw.span.start, end), value=value)

    def end_of_statement(self) -> None:
        tok = self.peek()
        if tok is None or tok.kind == "dedent":
            return  # end of input / block close handles it
        if tok.kind == "newline":
            self.advance()
            return
        self.fail({"newline"})

    def block(self) -> tuple[Stmt, ...]:
        self.expect("operator", ":")
        self.expect("newline")
        self.expect("indent")
        self.nest()
        body: list[Stmt] = []
        while not self.at("dedent"):
            if self.peek() is None:
                self.fail({"dedent"})
            body.append(self.statement())
        self.advance()  # dedent
        self.depth -= 1
        return tuple(body)

    def if_stmt(self) -> If:
        kw = self.expect("keyword", "if")
        return self._conditional(kw)

    def _conditional(self, kw: Token) -> If:
        test = self.expression()
        body = self.block()
        orelse: tuple[Stmt, ...] = ()
        if self.at("keyword", "elif"):
            nested_kw = self.advance()
            self.nest()
            orelse = (self._conditional(nested_kw),)
            self.depth -= 1
        elif self.at("keyword", "else"):
            self.advance()
            orelse = self.block()
        end = (orelse[-1] if orelse else body[-1]).span.end
        return If(span=Span(kw.span.start, end), test=test, body=body, orelse=orelse)

    def while_stmt(self) -> While:
        kw = self.expect("keyword", "while")
        test = self.expression()
        body = self.block()
        return While(span=Span(kw.span.start, body[-1].span.end), test=test, body=body)

    def for_stmt(self) -> For:
        kw = self.expect("keyword", "for")
        name_tok = self.expect("identifier")
        self.expect("keyword", "in")
        it = self.expression()
        body = self.block()
        target = Name(span=name_tok.span, id=name_tok.text, token_index=name_tok.index)
        return For(span=Span(kw.span.start, body[-1].span.end), target=target, iter=it, body=body)

    def function_def(self) -> FunctionDef:
        kw = self.expect("keyword", "def")
        name_tok = self.expect("identifier")
        self.expect("operator", "(")
        params: list[Param] = []
        if not self.at("operator", ")"):
            while True:
                p = self.expect("identifier")
                params.append(Param(name=p.text, token_index=p.index, span=p.span))
                if self.at("operator", ","):
                    self.advance()
                    continue
                break
        self.expect("operator", ")")
        body = self.block()
        return FunctionDef(
            span=Span(kw.span.start, body[-1].span.end),
            name=name_tok.text,
            name_token=name_tok.index,
            params=tuple(params),
            body=body,
        )

    # -- expressions ----------------------------------------------------

    def expression(self) -> Expr:
        return self._binary(0)

    def _binary(self, level: int) -> Expr:
        ops = (COMPARE_OPS, ADD_OPS, MUL_OPS)
        if level == len(ops):
            return self.primary()
        left = self._binary(level + 1)
        while self.at("operator") and self.peek().text in ops[level]:  # type: ignore[union-attr]
            op = self.advance().text
            right = self._binary(level + 1)
            left = BinOp(span=Span(left.span.start, right.span.end), left=left, op=op, right=right)
        return left

    def primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            self.fail(set(_EXPR_START))
        assert tok is not None
        if tok.kind == "identifier":
            self.advance()
            if self.at("operator", "("):
                return self.call(tok)
            return Name(span=tok.span, id=tok.text, token_index=tok.index)
        if tok.kind == "number":
            self.advance()
            value: int | float = float(tok.text) if "." in tok.text else int(tok.text)
            return Literal(span=tok.span, value=value, raw=tok.text)
        if tok.kind == "string":
            self.advance()
            return Literal(span=tok.span, value=tok.text[1:-1], raw=tok.text)
        if tok.kind == "operator" and tok.text == "(":
            self.advance()
            self.nest()
            inner = self.expression()
            self.depth -= 1
            self.expect("operator", ")")
            return inner
        self.fail(set(_EXPR_START))
        raise AssertionError("unreachable")

    def call(self, name_tok: Token) -> Call:
        self.expect("operator", "(")
        self.nest()
        args: list[Expr] = []
        if not self.at("operator", ")"):
            while True:
                args.append(self.expression())
                if self.at("operator", ","):
                    self.advance()
                    continue
                break
        self.depth -= 1
        close = self.expect("operator", ")")
        return Call(
            span=Span(name_tok.span.start, close.span.end),
            func=name_tok.text,
            func_token=name_tok.index,
            args=tuple(args),
        )


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
