"""Shared test utilities: a seeded random-program generator that emits
canonical-style source (so pretty-printing is a fixed point), the
character-loop reference lexer, the token-by-token reference parser, an AST
walk and the pretty-printer that renders those programs, an independent
entry-by-entry attention-mask oracle, a fixpoint reaching-definitions
data-flow oracle, a layer norm composed from autograd primitives (with the
`power` node only it uses), the composed encoder graph (node wrappers of the
fused layer's kernels) and the per-tensor Adam step that oracle the fused
versions, the set-based target samplers that oracle the array-based ones of
`codeflow.pretrain`, a crafted-checkpoint writer, and small synthetic
corpora."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

import codeflow.autograd as ag
from codeflow.frontend import syntax as ast
from codeflow.frontend.errors import IndentationMismatch, InvalidCharacter, MiniLangSyntaxError, UnterminatedString
from codeflow.frontend.lexer import KEYWORDS, OPERATORS, Token
from codeflow.frontend.parser import MAX_NESTING
from codeflow.frontend.syntax import (
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
from codeflow.encoding import MASK, RESERVED, build_attention_mask
from codeflow.model import Activations, ModelParams, compute_gradients
from codeflow.pretrain import (
    MASK_FRACTION,
    NODE_SAMPLE_FRACTION,
    CorpusItem,
    MlmBatchTarget,
    NoMaskablePositions,
    StructureTargets,
)

IDENTIFIERS = [
    "acc", "base", "count", "delta", "extra", "flag", "gain", "high",
    "index", "join", "keep", "low", "mark", "next_val", "outer", "pivot",
    "quota", "rate", "size", "total", "upper", "value", "width", "shift",
]
FUNCTIONS = ["probe", "emit", "clamp", "mix"]
BIN_OPS = ["+", "-", "*", "/", "%"]
CMP_OPS = ["<", ">", "<=", ">=", "==", "!="]


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


def random_expr(rng: np.random.Generator, names: list[str], depth: int = 0) -> ast.AstNode:
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        kind = int(rng.integers(4))
        if kind == 0 and names:
            return ast.Name(_pick(rng, names), -1)
        if kind == 1:
            return ast.Literal(str(int(rng.integers(100))))
        if kind == 2:
            a, b = int(rng.integers(10)), int(rng.integers(10))
            return ast.Literal(f"{a}.{b}")
        word = _pick(rng, ["alpha", "omega", "note"])
        return ast.Literal(f'"{word}"')
    if roll < 0.85:
        op = _pick(rng, BIN_OPS)
        return ast.BinOp(random_expr(rng, names, depth + 1), op, random_expr(rng, names, depth + 1))
    args = tuple(random_expr(rng, names, depth + 1) for _ in range(int(rng.integers(0, 3))))
    return ast.Call(_pick(rng, FUNCTIONS), args)


def _condition(rng, names):
    return ast.BinOp(random_expr(rng, names, depth=2), _pick(rng, CMP_OPS), random_expr(rng, names, depth=2))


def random_stmt(rng: np.random.Generator, names: list[str], depth: int = 0, max_depth: int = 2) -> ast.AstNode:
    # Weight assignments heavily so most programs carry data flow. Compound
    # statements appear only above `max_depth`.
    roll = rng.random()
    fresh = _pick(rng, IDENTIFIERS)
    if roll < 0.45 or depth >= max_depth:
        target = fresh if rng.random() < 0.5 or not names else _pick(rng, names)
        stmt = ast.Assign(ast.Name(target, -1), random_expr(rng, names))
        if target not in names:
            names.append(target)
        return stmt
    if roll < 0.55 and names:
        op = _pick(rng, ["+=", "-=", "*=", "/="])
        return ast.AugAssign(ast.Name(_pick(rng, names), -1), op, random_expr(rng, names))
    if roll < 0.7:
        body = random_block(rng, names, depth + 1, max_depth)
        orelse: tuple = ()
        branch = rng.random()
        if branch < 0.3:
            orelse = random_block(rng, list(names), depth + 1, max_depth)
        elif branch < 0.45:
            orelse = (ast.If(_condition(rng, names), random_block(rng, list(names), depth + 1, max_depth), ()),)
        return ast.If(_condition(rng, names), body, orelse)
    if roll < 0.8:
        return ast.While(_condition(rng, names), random_block(rng, names, depth + 1, max_depth))
    if roll < 0.9:
        loop_var = fresh
        if loop_var not in names:
            names.append(loop_var)
        iterable = random_expr(rng, names)
        return ast.For(ast.Name(loop_var, -1), iterable, random_block(rng, names, depth + 1, max_depth))
    if roll < 0.95:
        return ast.Return(random_expr(rng, names) if rng.random() < 0.8 else None)
    return ast.ExprStmt(ast.Call(_pick(rng, FUNCTIONS), tuple(random_expr(rng, names) for _ in range(int(rng.integers(1, 3))))))


def random_block(rng: np.random.Generator, names: list[str], depth: int, max_depth: int = 2) -> tuple:
    return tuple(random_stmt(rng, names, depth, max_depth) for _ in range(int(rng.integers(1, 4))))


def random_program(rng: np.random.Generator, max_depth: int = 2) -> str:
    """Canonical-style MiniLang source with, usually, real data flow;
    `if`/`while`/`for` nest at most `max_depth` deep."""
    top: list = []
    names: list[str] = []
    if rng.random() < 0.6:
        params = tuple(
            ast.Param(_pick(rng, IDENTIFIERS) + str(i), -1) for i in range(int(rng.integers(1, 4)))
        )
        fn_names = [p.name for p in params]
        body = tuple(random_stmt(rng, fn_names, 1, max_depth) for _ in range(int(rng.integers(1, 5))))
        top.append(ast.FunctionDef("main_fn", params, body))
    for _ in range(int(rng.integers(1, 4))):
        top.append(random_stmt(rng, names, 0, max_depth))
    return pretty(ast.Module(tuple(top)))


# Reference lexer --------------------------------------------------------------

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


def reference_tokenize(source: str) -> list[Token]:
    """The character-loop lexer that `tokenize` replaced, kept as its
    differential oracle: lex `source` into the complete token sequence.

    Comments (`#` to end of line) produce no tokens. Blank and comment-only
    lines produce no newline/indent/dedent tokens. Newlines inside an open
    parenthesis are treated as plain whitespace. Any indentation still open
    at end of input is closed with dedents.

    Raises InvalidCharacter, UnterminatedString or IndentationMismatch.
    """
    tokens: list[Token] = []
    indents = [0]
    pos = 0
    n = len(source)
    paren_depth = 0
    at_line_start = True

    def emit(kind: str, start: int, end: int) -> None:
        tokens.append(Token(kind, source[start:end]))

    while pos < n:
        if at_line_start and paren_depth == 0:
            # Measure indentation, skipping blank/comment-only lines entirely.
            line_start = pos
            while pos < n and source[pos] in " \t\r":
                pos += 1
            if pos >= n:
                break
            if source[pos] == "\n":
                pos += 1
                continue
            if source[pos] == "#":
                while pos < n and source[pos] != "\n":
                    pos += 1
                continue
            width = pos - line_start
            if width > indents[-1]:
                indents.append(width)
                emit("indent", line_start, pos)
            else:
                while width < indents[-1]:
                    indents.pop()
                    emit("dedent", pos, pos)
                if width != indents[-1]:
                    raise IndentationMismatch("unindent does not match any outer level", pos)
            at_line_start = False
            continue

        ch = source[pos]
        if ch == "\n":
            if paren_depth == 0:
                emit("newline", pos, pos + 1)
                at_line_start = True
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "#":
            while pos < n and source[pos] != "\n":
                pos += 1
            continue
        if ch in _IDENT_START:
            start = pos
            while pos < n and source[pos] in _IDENT_CONT:
                pos += 1
            word = source[start:pos]
            emit("keyword" if word in KEYWORDS else "identifier", start, pos)
            continue
        if ch in _DIGITS:
            start = pos
            while pos < n and source[pos] in _DIGITS:
                pos += 1
            if pos + 1 < n and source[pos] == "." and source[pos + 1] in _DIGITS:
                pos += 1
                while pos < n and source[pos] in _DIGITS:
                    pos += 1
            emit("number", start, pos)
            continue
        if ch in "'\"":
            quote = ch
            start = pos
            pos += 1
            while pos < n:
                c = source[pos]
                if c == "\\" and pos + 1 < n:
                    pos += 2
                    continue
                if c == quote:
                    pos += 1
                    break
                if c == "\n":
                    raise UnterminatedString("string literal hits end of line", start)
                pos += 1
            else:
                raise UnterminatedString("string literal hits end of input", start)
            emit("string", start, pos)
            continue
        for op in OPERATORS:
            if source.startswith(op, pos):
                if op == "(":
                    paren_depth += 1
                elif op == ")":
                    paren_depth = max(0, paren_depth - 1)
                emit("operator", pos, pos + len(op))
                pos += len(op)
                break
        else:
            raise InvalidCharacter(f"unexpected character {ch!r}", pos)

    # Close any indentation still open at end of input.
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("dedent", ""))
    return tokens


# Reference parser -------------------------------------------------------------

AUG_OPS = frozenset({"+=", "-=", "*=", "/="})
COMPARE_OPS = frozenset({"<", ">", "<=", ">=", "==", "!="})
ADD_OPS = frozenset({"+", "-"})
MUL_OPS = frozenset({"*", "/", "%"})

_EXPR_START = frozenset({"identifier", "number", "string", "("})


class _ReferenceParser:
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

    def name(self) -> Name:
        """Consume an identifier as the variable occurrence at its token index."""
        index = self.pos
        return Name(id=self.expect("identifier").text, token_index=index)

    def fail(self, expected: set[str]) -> None:
        tok = self.peek()
        got = f"{tok.kind} {tok.text!r}" if tok is not None else "end of input"
        raise MiniLangSyntaxError(
            f"expected one of {sorted(expected)}, got {got}", self.pos, frozenset(expected)
        )

    def nest(self) -> None:
        """Enter one level of nesting; the caller leaves it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MiniLangSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.pos, frozenset())

    # -- statements -----------------------------------------------------

    def parse_module(self) -> Module:
        body: list[Stmt] = []
        while self.peek() is not None:
            body.append(self.statement())
        return Module(body=tuple(body))

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
        if self.at("identifier") and self.pos + 1 < len(self.tokens):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "operator" and (nxt.text == "=" or nxt.text in AUG_OPS):
                target = self.name()
                op = self.advance().text
                value = self.expression()
                self.end_of_statement()
                if op == "=":
                    return Assign(target=target, value=value)
                return AugAssign(target=target, op=op, value=value)
        value = self.expression()
        self.end_of_statement()
        return ExprStmt(value=value)

    def return_stmt(self) -> Return:
        self.expect("keyword", "return")
        value: Expr | None = None
        tok = self.peek()
        if tok is not None and (tok.kind in ("identifier", "number", "string") or tok.text == "("):
            value = self.expression()
        self.end_of_statement()
        return Return(value=value)

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
        self.expect("keyword", "if")
        return self._conditional()

    def _conditional(self) -> If:
        test = self.expression()
        body = self.block()
        orelse: tuple[Stmt, ...] = ()
        if self.at("keyword", "elif"):
            self.advance()
            self.nest()
            orelse = (self._conditional(),)
            self.depth -= 1
        elif self.at("keyword", "else"):
            self.advance()
            orelse = self.block()
        return If(test=test, body=body, orelse=orelse)

    def while_stmt(self) -> While:
        self.expect("keyword", "while")
        test = self.expression()
        body = self.block()
        return While(test=test, body=body)

    def for_stmt(self) -> For:
        self.expect("keyword", "for")
        target = self.name()
        self.expect("keyword", "in")
        it = self.expression()
        body = self.block()
        return For(target=target, iter=it, body=body)

    def function_def(self) -> FunctionDef:
        self.expect("keyword", "def")
        name_tok = self.expect("identifier")
        self.expect("operator", "(")
        params: list[Param] = []
        if not self.at("operator", ")"):
            while True:
                p = self.name()
                params.append(Param(name=p.id, token_index=p.token_index))
                if self.at("operator", ","):
                    self.advance()
                    continue
                break
        self.expect("operator", ")")
        body = self.block()
        return FunctionDef(name=name_tok.text, params=tuple(params), body=body)

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
            left = BinOp(left=left, op=op, right=right)
        return left

    def primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            self.fail(set(_EXPR_START))
        assert tok is not None
        if tok.kind == "identifier":
            name = self.name()
            if self.at("operator", "("):
                return self.call(name.id)
            return name
        if tok.kind in ("number", "string"):
            self.advance()
            return Literal(raw=tok.text)
        if tok.kind == "operator" and tok.text == "(":
            self.advance()
            self.nest()
            inner = self.expression()
            self.depth -= 1
            self.expect("operator", ")")
            return inner
        self.fail(set(_EXPR_START))
        raise AssertionError("unreachable")

    def call(self, func: str) -> Call:
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
        self.expect("operator", ")")
        return Call(func=func, args=tuple(args))


def reference_parse(tokens: list[Token]) -> ast.Module:
    """The token-by-token recursive-descent parser that `parse` replaced, kept
    as its differential oracle: `peek`/`at`/`advance` calls for each token
    checked and one `_binary` method per precedence level.

    Raises MiniLangSyntaxError with the offending token index and the set of
    kinds/texts that were acceptable there, or with an empty set when the
    input nests deeper than `MAX_NESTING`.
    """
    return _ReferenceParser(tokens).parse_module()


# AST traversal and pretty-printer -------------------------------------------


def children(node: ast.AstNode) -> tuple[ast.AstNode, ...]:
    out: list[ast.AstNode] = []
    for f in fields(node):
        v = getattr(node, f.name)
        if isinstance(v, ast.AstNode):
            out.append(v)
        elif isinstance(v, tuple):
            out.extend(c for c in v if isinstance(c, ast.AstNode))
    return tuple(out)


def walk(node: ast.AstNode) -> Iterator[ast.AstNode]:
    """Pre-order traversal with an explicit stack: a long operator chain is
    a deep left-leaning tree."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


INDENT = "    "


def pretty(node: ast.AstNode) -> str:
    """Render an AST back to canonical MiniLang source (4-space indents).

    Re-tokenizing the output yields the same (kind, text) token sequence the
    tree was parsed from, provided the original used the canonical style.
    """
    if isinstance(node, ast.Module):
        return "".join(_stmt(s, 0) for s in node.body)
    return _expr(node) if isinstance(node, (ast.BinOp, ast.Call, ast.Name, ast.Literal)) else _stmt(node, 0)


def _stmt(node: ast.AstNode, depth: int) -> str:
    pad = INDENT * depth
    if isinstance(node, ast.Assign):
        return f"{pad}{node.target.id} = {_expr(node.value)}\n"
    if isinstance(node, ast.AugAssign):
        return f"{pad}{node.target.id} {node.op} {_expr(node.value)}\n"
    if isinstance(node, ast.Return):
        if node.value is None:
            return f"{pad}return\n"
        return f"{pad}return {_expr(node.value)}\n"
    if isinstance(node, ast.ExprStmt):
        return f"{pad}{_expr(node.value)}\n"
    if isinstance(node, ast.If):
        out = f"{pad}if {_expr(node.test)}:\n" + _block(node.body, depth + 1)
        orelse = node.orelse
        while len(orelse) == 1 and isinstance(orelse[0], ast.If):
            nested = orelse[0]
            out += f"{pad}elif {_expr(nested.test)}:\n" + _block(nested.body, depth + 1)
            orelse = nested.orelse
        if orelse:
            out += f"{pad}else:\n" + _block(orelse, depth + 1)
        return out
    if isinstance(node, ast.While):
        return f"{pad}while {_expr(node.test)}:\n" + _block(node.body, depth + 1)
    if isinstance(node, ast.For):
        return f"{pad}for {node.target.id} in {_expr(node.iter)}:\n" + _block(node.body, depth + 1)
    if isinstance(node, ast.FunctionDef):
        params = ", ".join(p.name for p in node.params)
        return f"{pad}def {node.name}({params}):\n" + _block(node.body, depth + 1)
    raise TypeError(f"not a statement node: {node!r}")


def _block(stmts: tuple[ast.Stmt, ...], depth: int) -> str:
    return "".join(_stmt(s, depth) for s in stmts)


_PRECEDENCE = {
    "==": 0, "!=": 0, "<": 0, ">": 0, "<=": 0, ">=": 0,
    "+": 1, "-": 1,
    "*": 2, "/": 2, "%": 2,
}


def _expr(node: ast.AstNode, parent_prec: int = -1) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Literal):
        return node.raw
    if isinstance(node, ast.Call):
        return f"{node.func}({', '.join(_expr(a) for a in node.args)})"
    if isinstance(node, ast.BinOp):
        prec = _PRECEDENCE[node.op]
        # Left-associative: the right child needs parens at equal precedence.
        # The left spine of a chain is followed in a loop while its left
        # children need no parens, so a long `a + a + ...` does not recurse.
        tails = []
        spine, spine_prec = node, prec
        while isinstance(spine, ast.BinOp) and _PRECEDENCE[spine.op] >= spine_prec:
            spine_prec = _PRECEDENCE[spine.op]
            tails.append(f" {spine.op} {_expr(spine.right, spine_prec + 1)}")
            spine = spine.left
        text = _expr(spine, spine_prec) + "".join(reversed(tails))
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {node!r}")


# independent mask oracle ------------------------------------------------------


def mask_oracle(example) -> np.ndarray:
    """Entry-wise re-statement of the attention predicate, kept deliberately
    naive (a pure double loop) so it can serve as the comparison oracle."""
    n = len(example)
    segs = example.segments
    edges = set(example.node_edges)
    links = set(example.node_token_links)
    allow = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if segs[i] == "special":
                ok = True
            elif segs[i] != "node" and segs[j] != "node":
                ok = True
            elif segs[i] == "node":
                ok = (j, i) in edges or (i, j) in links or i == j
            else:
                ok = (j, i) in links
            allow[i, j] = ok
    return allow


# fixpoint data-flow oracle ----------------------------------------------------


def _expr_names(node) -> list[tuple[int, str]]:
    if isinstance(node, ast.Name):
        return [(node.token_index, node.id)]
    if isinstance(node, ast.BinOp):
        return _expr_names(node.left) + _expr_names(node.right)
    if isinstance(node, ast.Call):
        return [occ for arg in node.args for occ in _expr_names(arg)]
    return []


def dfg_oracle(module) -> tuple[list[tuple[int, str, str]], set[tuple[int, int]]]:
    """The data-flow graph of a parsed module by the textbook iterative
    reaching-definitions analysis: lower the statements to a control-flow
    graph (loops get a back edge), iterate IN/OUT sets to a fixpoint, then
    read off def->use edges plus the value->target edges of assignments and
    `for` targets. Returns the ``(token_index, name, role)`` of every
    occurrence in token order, where an occurrence that some statement
    defines is a definition and any other is a use, and the ``<src, dst>``
    edges between their indices.

    Loop semantics follow `codeflow.dfg`: a loop's exit is reached from its
    entry and from the end of its body, a `for` evaluates its iterable and
    defines its target on every iteration, and a function body is a separate
    graph that starts from its parameters. A `return` jumps to the exit: its
    node has no successor, so the statements after it start from a fresh
    node with no predecessor and are unreachable."""
    cfg: list[tuple[list, tuple | None, list]] = []  # (uses, definition, value sources)
    succ: list[list[int]] = []

    def new(uses=(), define=None, sources=(), after=None) -> int:
        cfg.append((list(uses), define, [tok for tok, _ in sources]))
        succ.append([])
        if after is not None:
            succ[after].append(len(cfg) - 1)
        return len(cfg) - 1

    def block(stmts, cur: int) -> int:
        for s in stmts:
            cur = stmt(s, cur)
        return cur

    def stmt(s, cur: int) -> int:
        if isinstance(s, ast.Assign):
            value = _expr_names(s.value)
            return new(value, (s.target.token_index, s.target.id), value, cur)
        if isinstance(s, ast.AugAssign):
            value = _expr_names(s.value)
            target = (s.target.token_index, s.target.id)
            return new(value + [target], target, value, cur)
        if isinstance(s, ast.If):
            test = new(_expr_names(s.test), after=cur)
            join = new()
            succ[block(s.body, test)].append(join)
            succ[block(s.orelse, test)].append(join)
            return join
        if isinstance(s, ast.While):
            head = new(_expr_names(s.test), after=cur)
            succ[block(s.body, head)].append(head)
            return head
        if isinstance(s, ast.For):
            head = new(after=cur)
            iterable = _expr_names(s.iter)
            bind = new(iterable, (s.target.token_index, s.target.id), iterable, head)
            succ[block(s.body, bind)].append(head)
            return head
        if isinstance(s, ast.FunctionDef):
            inner = new()
            for p in s.params:
                inner = new(define=(p.token_index, p.name), after=inner)
            block(s.body, inner)
            return cur
        if isinstance(s, (ast.Return, ast.ExprStmt)):
            node = new(_expr_names(s.value) if s.value is not None else [], after=cur)
            return new() if isinstance(s, ast.Return) else node  # return -> exit: what follows has no predecessor
        raise TypeError(f"unexpected statement {s!r}")

    block(module.body, new())
    preds: list[list[int]] = [[] for _ in cfg]
    for n, outs in enumerate(succ):
        for m in outs:
            preds[m].append(n)
    reach_in = [frozenset()] * len(cfg)
    reach_out = [frozenset()] * len(cfg)
    changed = True
    while changed:
        changed = False
        for n, (_, define, _) in enumerate(cfg):
            reach_in[n] = frozenset().union(*(reach_out[p] for p in preds[n]))
            out = reach_in[n]
            if define is not None:
                out = frozenset(d for d in out if d[1] != define[1]) | {define}
            if out != reach_out[n]:
                reach_out[n], changed = out, True

    uses_of: set[tuple[int, str]] = set()
    defines: set[tuple[int, str]] = set()
    edges: set[tuple[int, int]] = set()
    for n, (uses, define, sources) in enumerate(cfg):
        uses_of.update(uses)
        for tok, name in uses:
            edges.update((dtok, tok) for dtok, dname in reach_in[n] if dname == name)
        if define is not None:
            defines.add(define)
            edges.update((src, define[0]) for src in sources)
    ordered = sorted(
        [(tok, name, "definition") for tok, name in defines]
        + [(tok, name, "use") for tok, name in uses_of - defines]
    )
    node_of = {tok: i for i, (tok, _, _) in enumerate(ordered)}
    return ordered, {(node_of[a], node_of[b]) for a, b in edges if a != b}


# composed kernel reference ----------------------------------------------------


def power(a, exponent: float):
    a = ag.as_tensor(a)
    out = a.data**exponent
    return ag._make(out, (a,), lambda g: (g * exponent * a.data ** (exponent - 1.0),))


def composed_layer_norm(a, gain, bias, eps: float = 1e-5):
    """Row-wise layer norm built from autograd primitives, one node per op:
    the definition the fused `layer_norm` must reproduce bit for bit."""
    mu = ag.tmean(a, axis=-1, keepdims=True)
    centered = ag.add(a, ag.mul(mu, -1.0))
    var = ag.tmean(ag.mul(centered, centered), axis=-1, keepdims=True)
    inv = power(ag.add(var, eps), -0.5)
    return ag.add(ag.mul(ag.mul(centered, inv), gain), bias)


# autograd nodes over the fused layer's kernels, and the graph they compose -----


def softmax(a, axis: int = -1):
    a = ag.as_tensor(a)
    out = ag.softmax_kernel(a.data.copy(), axis=axis)
    return ag._make(out, (a,), lambda g: (ag.softmax_vjp(g, out, axis=axis),))


def gelu(a):
    a = ag.as_tensor(a)
    out, t = ag.gelu_kernel(a.data)
    return ag._make(out, (a,), lambda g: (g * ag.gelu_slope(a.data.copy(), t.copy()),))


def layer_norm(a, gain, bias, eps: float = 1e-5):
    """Row-wise layer norm over the last axis, as one node."""
    a, gain, bias = ag.as_tensor(a), ag.as_tensor(gain), ag.as_tensor(bias)
    out, stats = ag.layer_norm_kernel(a.data, gain.data, bias.data, eps)
    return ag._make(out, (a, gain, bias), lambda g: ag.layer_norm_vjp(g, gain.data, stats))


def transpose(a, axes):
    """Permute the axes by `axes` (`ag.transpose` swaps the last two)."""
    a = ag.as_tensor(a)
    inverse = np.argsort(axes)
    return ag._make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def reshape(a, shape):
    a = ag.as_tensor(a)
    return ag._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors, axis: int = 0):
    tensors = [ag.as_tensor(t) for t in tensors]
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return ag._make(
        np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis))
    )


def columns(a, cols: slice):
    """Columns `cols` of a matrix, as a contiguous copy."""
    a = ag.as_tensor(a)

    def vjp(g):
        out = np.zeros_like(a.data)
        out[:, cols] = g
        return (out,)

    return ag._make(np.ascontiguousarray(a.data[:, cols]), (a,), vjp)


def composed_forward(params, ids, position_ids, additive_mask, layer_norm=layer_norm):
    """The encoder as a graph of about 30 small nodes per layer, every row
    treated as real: the oracle of the one-node `model.encoder_layer`.
    `layer_norm` swaps in another norm (`composed_layer_norm`)."""
    cfg = params.config
    t = params.tensors
    ids, position_ids = np.asarray(ids, dtype=np.intp), np.asarray(position_ids, dtype=np.intp)
    single = ids.ndim == 1
    mask = np.asarray(additive_mask)[None] if single else np.asarray(additive_mask)
    batch, length = mask.shape[0], mask.shape[1]

    def fused(n, kind):
        """A third of layer `n`'s Q/K/V block: its query, key or value columns."""
        third = ("wq", "wk", "wv").index(kind) * cfg.hidden_dim
        return columns(t[f"layer{n}.qkv"], slice(third, third + cfg.hidden_dim))

    def split_heads(x):
        return transpose(reshape(x, (batch, length, cfg.num_heads, cfg.head_dim)), (0, 2, 1, 3))

    h = ag.add(ag.take_rows(t["tok_emb"], ids.reshape(-1)), ag.take_rows(t["pos_emb"], position_ids.reshape(-1)))
    acts = Activations(hidden=[h])
    for n in range(cfg.num_layers):
        wq = ag.mul(fused(n, "wq"), 1.0 / math.sqrt(cfg.head_dim))
        q, k = split_heads(ag.matmul(h, wq)), split_heads(ag.matmul(h, fused(n, "wk")))
        scores = ag.add(ag.matmul(q, ag.transpose(k)), ag.Tensor(mask[:, None].astype(h.dtype, copy=False)))
        weights = softmax(scores, axis=-1)
        v = split_heads(ag.matmul(h, fused(n, "wv")))
        merged = reshape(transpose(ag.matmul(weights, v), (0, 2, 1, 3)), (batch * length, cfg.hidden_dim))
        ctx = ag.matmul(merged, t[f"layer{n}.wo"])
        g = layer_norm(ag.add(ctx, h), t[f"layer{n}.attn_ln.gain"], t[f"layer{n}.attn_ln.bias"])
        ffn_hidden = gelu(ag.add(ag.matmul(g, t[f"layer{n}.ffn.w1"]), t[f"layer{n}.ffn.b1"]))
        ffn_out = ag.add(ag.matmul(ffn_hidden, t[f"layer{n}.ffn.w2"]), t[f"layer{n}.ffn.b2"])
        h = layer_norm(ag.add(ffn_out, g), t[f"layer{n}.ffn_ln.gain"], t[f"layer{n}.ffn_ln.bias"])
        heads = weights.data[0] if single else np.swapaxes(weights.data, 0, 1)
        acts.attention.append([ag.Tensor(w) for w in heads])
        acts.hidden.append(h)
    return acts


def composed_reads(params, ids, position_ids, masks, reads, layer_norm=layer_norm):
    """The stand-in of a blocked ``forward(..., reads=...)``: `composed_forward`
    of each block of `masks` alone, `final` gathered to the rows of `reads`,
    sequence after sequence, `rows` saying where each landed, and no maps."""
    finals, start, sequences = [], 0, 0
    for mask in masks:
        batch, length = mask.shape[:2]
        rows = slice(start, start + batch * length)
        acts = composed_forward(
            params, np.reshape(ids[rows], (batch, length)), np.reshape(position_ids[rows], (batch, length)), mask, layer_norm
        )
        picks = [b * length + np.asarray(read) for b, read in enumerate(reads[sequences : sequences + batch])]
        finals.append(ag.take_rows(acts.final, np.concatenate(picks)))
        start, sequences = rows.stop, sequences + batch
    landed = np.cumsum([0] + [len(read) for read in reads])
    rows = [np.arange(a, b) for a, b in zip(landed, landed[1:])]
    return Activations(hidden=[concat(finals, axis=0)], rows=rows, maps=[[] for _ in reads])


def with_dtype(params, dtype) -> ModelParams:
    """`params` over a copy of its store in `dtype`."""
    return ModelParams(params.config, params.flat.astype(dtype))


def gradient_copies(loss_fn, params):
    """`compute_gradients` with every gradient copied out of `params.grad`,
    which the next call overwrites."""
    value, grads = compute_gradients(loss_fn, params)
    return value, {name: grad.copy() for name, grad in grads.items()}


@dataclass
class ReferenceAdamState:
    """Per-name moments of `reference_adam_step`, kept apart from the flat
    moments of `optim.AdamState` so the oracle shares no state with the code
    it checks."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def reference_init_adam(params) -> ReferenceAdamState:
    m, v = ({name: np.zeros_like(t.data) for name, t in params.tensors.items()} for _ in range(2))
    return ReferenceAdamState(m, v)


def reference_adam_step(params, grads, state: ReferenceAdamState, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam per tensor, with a fresh array per expression and each parameter's
    `data` rebound: the oracle of `optim.adam_step`, which computes the same
    ops over one flat store into scratch buffers and updates it in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, tensor in params.tensors.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        tensor.data = tensor.data - np.asarray(lr * update, dtype=tensor.data.dtype)
    return state


# set-based target samplers ----------------------------------------------------
#
# `select_mlm_targets`, `sample_edge_targets` and `sample_align_targets` as
# they were before the samplers read arrays prepared once per example: Python
# sets, `sorted` and a mask rebuilt per call. They make the same generator
# calls with the same arguments, so they oracle the array versions field for
# field and draw for draw.


def reference_select_mlm_targets(example, rng: np.random.Generator, vocab_size: int) -> MlmBatchTarget:
    maskable = [i for i, segment in enumerate(example.segments) if segment in ("comment", "code")]
    if not maskable:
        raise NoMaskablePositions("example has no comment or code tokens")
    count = max(1, int(MASK_FRACTION * len(maskable) + 0.5))
    chosen = sorted(int(p) for p in rng.choice(len(maskable), size=count, replace=False))
    positions = tuple(maskable[i] for i in chosen)
    ids = list(example.ids)
    originals = tuple(ids[p] for p in positions)
    reserved_count = len(RESERVED)
    for p in positions:
        u = rng.random()
        if u < 0.8:
            ids[p] = MASK
        elif u < 0.9 and vocab_size > reserved_count:
            ids[p] = int(rng.integers(reserved_count, vocab_size))
    return MlmBatchTarget(masked_ids=tuple(ids), positions=positions, original_ids=originals)


def _reference_node_subset(example, rng: np.random.Generator) -> tuple[int, ...]:
    nodes = example.node_positions
    count = math.ceil(NODE_SAMPLE_FRACTION * len(nodes))
    chosen = rng.choice(len(nodes), size=count, replace=False)
    return tuple(sorted(nodes[int(i)] for i in chosen))


def _reference_targets(example, rng, sampled, positives: list, pool: list, hidden: list) -> StructureTargets:
    negatives = []
    if take := min(len(positives), len(pool)):
        negatives = [pool[int(i)] for i in sorted(rng.choice(len(pool), size=take, replace=False))]
    allow = np.array(build_attention_mask(example))
    for query, key in hidden:
        allow[query, key] = False
    allow.flags.writeable = False
    return StructureTargets(
        sampled_positions=sampled,
        masked=tuple(positives),
        candidates=tuple(positives + negatives),
        labels=tuple([1] * len(positives) + [0] * len(negatives)),
        mask=allow,
    )


def reference_sample_edge_targets(example, rng: np.random.Generator) -> StructureTargets | None:
    edges = sorted(example.node_edges)
    if not edges:
        return None
    nodes = example.node_positions
    sampled = _reference_node_subset(example, rng)
    in_sample = set(sampled)
    positives = [e for e in edges if e[0] in in_sample or e[1] in in_sample]
    edge_set = set(edges)
    mirrored = {(b, a) for a, b in edge_set}
    pool = sorted(
        ({(a, b) for a in sampled for b in nodes} | {(a, b) for a in nodes for b in sampled})
        - edge_set
        - mirrored
        - {(a, a) for a in sampled}
    )
    return _reference_targets(example, rng, sampled, positives, pool, [(dst, src) for src, dst in positives])


def reference_sample_align_targets(example, rng: np.random.Generator) -> StructureTargets | None:
    if not example.node_positions:
        return None
    sampled = _reference_node_subset(example, rng)
    in_sample = set(sampled)
    links = sorted(example.node_token_links)
    positives = [l for l in links if l[0] in in_sample]
    pool = sorted({(v, c) for v in sampled for c in example.code_positions} - set(links))
    hidden = positives + [(c, v) for v, c in positives]
    return _reference_targets(example, rng, sampled, positives, pool, hidden)


# crafted checkpoints ----------------------------------------------------------


def checkpoint_file(header: bytes, store: bytes) -> bytes:
    """A GCB2 checkpoint of config JSON `header` and float bytes `store`
    under a valid sha256, so that a crafted config or store size reaches the
    checks past the digest."""
    body = b"GCB2" + struct.pack("<I", len(header)) + header + store
    return body + hashlib.sha256(body).digest()


# synthetic corpora ------------------------------------------------------------

QUERY_WORDS = [
    "merge", "sorted", "records", "running", "window", "median", "batch",
    "payload", "checksum", "rolling", "average", "bucket", "histogram",
    "prefix", "suffix", "overlap", "digest", "stream", "cursor", "ledger",
]


def overfit_corpus(n: int = 64) -> list[CorpusItem]:
    """Small functions with guaranteed data-flow edges, two languages."""
    items = []
    for i in range(n):
        a = IDENTIFIERS[i % len(IDENTIFIERS)]
        b = IDENTIFIERS[(i + 7) % len(IDENTIFIERS)]
        c = IDENTIFIERS[(i + 13) % len(IDENTIFIERS)]
        body_variant = i % 4
        if body_variant == 0:
            code = (
                f"def fn{i}({a}, {b}):\n"
                f"    {c} = {a} + {b}\n"
                f"    {c} = {c} * {i % 9}\n"
                f"    return {c}\n"
            )
        elif body_variant == 1:
            code = (
                f"def fn{i}({a}, {b}):\n"
                f"    {c} = {a} - {b}\n"
                f"    if {c} < 0:\n"
                f"        {c} = {b} - {a}\n"
                f"    return {c}\n"
            )
        elif body_variant == 2:
            code = (
                f"def fn{i}({a}):\n"
                f"    {b} = 0\n"
                f"    while {b} < {a}:\n"
                f"        {b} += {i % 5 + 1}\n"
                f"    return {b}\n"
            )
        else:
            code = (
                f"def fn{i}({a}, {b}):\n"
                f"    {c} = {a} % {b}\n"
                f"    {a} = {c} + {i % 11}\n"
                f"    return {a}\n"
            )
        w1 = QUERY_WORDS[i % len(QUERY_WORDS)]
        w2 = QUERY_WORDS[(i + 5) % len(QUERY_WORDS)]
        lang = "python" if i % 4 != 3 else "java"
        items.append(CorpusItem(code=code, docstring=f"{w1} {w2} routine variant", lang=lang))
    return items


def search_pairs(n: int = 16) -> list[tuple[str, str]]:
    """Query/code pairs whose query words never appear in the code."""
    pairs = []
    for i in range(n):
        a = IDENTIFIERS[(2 * i) % len(IDENTIFIERS)]
        b = IDENTIFIERS[(2 * i + 1) % len(IDENTIFIERS)]
        shape = i % 4
        if shape == 0:
            code = f"def job{i}({a}, {b}):\n    {a} = {a} * {b} + {i}\n    return {a}\n"
        elif shape == 1:
            code = f"def job{i}({a}, {b}):\n    if {a} > {b}:\n        {a} = {b}\n    return {a} + {i}\n"
        elif shape == 2:
            code = f"def job{i}({a}):\n    {b} = {i}\n    while {b} > {a}:\n        {b} -= 1\n    return {b}\n"
        else:
            code = f"def job{i}({a}, {b}):\n    {b} = {a} / {b}\n    {a} = {b} % {i + 2}\n    return {a}\n"
        q = (
            f"{QUERY_WORDS[i % 20]} {QUERY_WORDS[(i + 3) % 20]} "
            f"{QUERY_WORDS[(i + 7) % 20]} {QUERY_WORDS[(i + 12) % 20]}"
        )
        pairs.append((q, code))
    return pairs


def clone_corpus() -> list[tuple[str, str, int]]:
    """Eight labeled pairs: positives are identifier-renamed twins."""
    out = []
    for i in range(4):
        a = IDENTIFIERS[i]
        b = IDENTIFIERS[i + 8]
        code = f"def dup{i}({a}):\n    {a} = {a} * {a} + {i}\n    return {a}\n"
        twin = f"def dup{i}({b}):\n    {b} = {b} * {b} + {i}\n    return {b}\n"
        out.append((code, twin, 1))
    for i in range(4):
        a = IDENTIFIERS[i + 4]
        b = IDENTIFIERS[i + 12]
        left = f"def one{i}({a}):\n    {a} += {i}\n    return {a}\n"
        right = (
            f"def two{i}({a}, {b}):\n    while {a} < {b}:\n        {a} = {a} + {b} % 3\n    return {b}\n"
        )
        out.append((left, right, 0))
    return out


# ---------------------------------------------------------------------------
# Hand-traced data-flow graphs.  Each entry is (source, nodes, edges) where
# nodes = [(name, token_index, role), ...] in node-id order and edges is the
# full <src, dst> set.  Worked out by hand from the reaching-definition
# rules; the tests must not recompute them.

D = "definition"
U = "use"

DFG_TRACES: list[tuple[str, list[tuple[str, int, str]], set[tuple[int, int]]]] = [
    (
        "v = max_value - min_value\n",
        [("v", 0, D), ("max_value", 2, U), ("min_value", 4, U)],
        {(1, 0), (2, 0)},
    ),
    (
        "a = 1\nb = a\n",
        [("a", 0, D), ("b", 4, D), ("a", 6, U)],
        {(0, 2), (2, 1)},
    ),
    (
        "x = 1\nx += 2\ny = x\n",
        [("x", 0, D), ("x", 4, D), ("y", 8, D), ("x", 10, U)],
        {(0, 1), (1, 3), (3, 2)},
    ),
    (
        "x = 1\nif p > 0:\n    x = 2\nelse:\n    x = 3\ny = x\n",
        [("x", 0, D), ("p", 5, U), ("x", 11, D), ("x", 20, D), ("y", 25, D), ("x", 27, U)],
        {(2, 5), (3, 5), (5, 4)},
    ),
    (
        "x = 1\nif p > 0:\n    x = 2\ny = x\n",
        [("x", 0, D), ("p", 5, U), ("x", 11, D), ("y", 16, D), ("x", 18, U)],
        {(0, 4), (2, 4), (4, 3)},
    ),
    (
        "i = 0\nwhile i < 3:\n    i = i + 1\ns = i\n",
        [("i", 0, D), ("i", 5, U), ("i", 11, D), ("i", 13, U), ("s", 18, D), ("i", 20, U)],
        {(0, 1), (2, 1), (0, 3), (2, 3), (3, 2), (0, 5), (2, 5), (5, 4)},
    ),
    (
        "total = 0\nfor x in items:\n    total = total + x\nr = total\n",
        [
            ("total", 0, D),
            ("x", 5, D),
            ("items", 7, U),
            ("total", 11, D),
            ("total", 13, U),
            ("x", 15, U),
            ("r", 18, D),
            ("total", 20, U),
        ],
        {(2, 1), (0, 4), (3, 4), (1, 5), (4, 3), (5, 3), (0, 7), (3, 7), (7, 6)},
    ),
    (
        "def f(a, b):\n    return a + b\n",
        [("a", 3, D), ("b", 5, D), ("a", 11, U), ("b", 13, U)],
        {(0, 2), (1, 3)},
    ),
    (
        "r = probe(x, y + 1)\n",
        [("r", 0, D), ("x", 4, U), ("y", 6, U)],
        {(1, 0), (2, 0)},
    ),
    (
        "y = x + x\n",
        [("y", 0, D), ("x", 2, U), ("x", 4, U)],
        {(1, 0), (2, 0)},
    ),
    (
        "x = 1\nx = x + 1\n",
        [("x", 0, D), ("x", 4, D), ("x", 6, U)],
        {(0, 2), (2, 1)},
    ),
    (
        "if a > 0:\n    r = 1\nelif a < 0:\n    r = 2\nelse:\n    r = 3\ns = r\n",
        [
            ("a", 1, U),
            ("r", 7, D),
            ("a", 13, U),
            ("r", 19, D),
            ("r", 28, D),
            ("s", 33, D),
            ("r", 35, U),
        ],
        {(1, 6), (3, 6), (4, 6), (6, 5)},
    ),
    (
        "x = 1\ndef f(a):\n    y = a + x\n    return y\nz = x\n",
        [
            ("x", 0, D),
            ("a", 7, D),
            ("y", 12, D),
            ("a", 14, U),
            ("x", 16, U),
            ("y", 19, U),
            ("z", 22, D),
            ("x", 24, U),
        ],
        {(1, 3), (3, 2), (4, 2), (2, 5), (0, 7), (7, 6)},
    ),
    (
        "n = 5\nacc = 0\nwhile n > 0:\n    acc = acc + n\n    n = n - 1\nout = acc\n",
        [
            ("n", 0, D),
            ("acc", 4, D),
            ("n", 9, U),
            ("acc", 15, D),
            ("acc", 17, U),
            ("n", 19, U),
            ("n", 21, D),
            ("n", 23, U),
            ("out", 28, D),
            ("acc", 30, U),
        ],
        {
            (0, 2),
            (6, 2),
            (1, 4),
            (3, 4),
            (0, 5),
            (6, 5),
            (4, 3),
            (5, 3),
            (0, 7),
            (6, 7),
            (7, 6),
            (1, 9),
            (3, 9),
            (9, 8),
        },
    ),
    (
        "x = 2\nprobe(x, x)\n",
        [("x", 0, D), ("x", 6, U), ("x", 8, U)],
        {(0, 1), (0, 2)},
    ),
    (
        "probe(1, 'two')\n",
        [],
        set(),
    ),
    (
        "a = 1\nif a > 0:\n    b = a\nelse:\n    b = 2\nc = b\n",
        [
            ("a", 0, D),
            ("a", 5, U),
            ("b", 11, D),
            ("a", 13, U),
            ("b", 20, D),
            ("c", 25, D),
            ("b", 27, U),
        ],
        {(0, 1), (0, 3), (3, 2), (2, 6), (4, 6), (6, 5)},
    ),
    (
        "s = 0\nfor i in xs:\n    s += i\nr = s\n",
        [
            ("s", 0, D),
            ("i", 5, D),
            ("xs", 7, U),
            ("s", 11, D),
            ("i", 13, U),
            ("r", 16, D),
            ("s", 18, U),
        ],
        {(2, 1), (0, 3), (1, 4), (4, 3), (0, 6), (3, 6), (6, 5)},
    ),
    (
        "x = 10\nwhile x > 0:\n    if x > 5:\n        x = x - 5\n    else:\n        x = x - 1\ndone = x\n",
        [
            ("x", 0, D),
            ("x", 5, U),
            ("x", 12, U),
            ("x", 18, D),
            ("x", 20, U),
            ("x", 29, D),
            ("x", 31, U),
            ("done", 37, D),
            ("x", 39, U),
        ],
        {
            (0, 1),
            (3, 1),
            (5, 1),
            (0, 2),
            (3, 2),
            (5, 2),
            (0, 4),
            (3, 4),
            (5, 4),
            (4, 3),
            (0, 6),
            (3, 6),
            (5, 6),
            (6, 5),
            (0, 8),
            (3, 8),
            (5, 8),
            (8, 7),
        },
    ),
    (
        "def first(a):\n    return a\ndef second(b):\n    b = b + 1\n    return b\n",
        [
            ("a", 3, D),
            ("a", 9, U),
            ("b", 15, D),
            ("b", 20, D),
            ("b", 22, U),
            ("b", 27, U),
        ],
        {(0, 1), (2, 4), (4, 3), (3, 5)},
    ),
]
