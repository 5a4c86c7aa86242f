"""MiniLang abstract syntax tree.

Nodes are frozen dataclasses. Every node carries the byte span it covers;
`Name` leaves additionally record the index of the identifier token they
resolve to, which is what the data-flow extractor keys on. Function and
call names are deliberately *not* `Name` nodes: functions are not
variables.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Union

from .lexer import Span

Expr = Union["BinOp", "Call", "Name", "Literal"]
Stmt = Union[
    "FunctionDef", "Assign", "AugAssign", "If", "While", "For", "Return", "ExprStmt"
]


@dataclass(frozen=True)
class AstNode:
    span: Span

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def children(self) -> tuple["AstNode", ...]:
        out: list[AstNode] = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, AstNode):
                out.append(v)
            elif isinstance(v, tuple):
                out.extend(c for c in v if isinstance(c, AstNode))
        return tuple(out)


@dataclass(frozen=True)
class Param:
    """Formal parameter: a definition site that is not an expression."""

    name: str
    token_index: int
    span: Span


@dataclass(frozen=True)
class Name(AstNode):
    id: str
    token_index: int


@dataclass(frozen=True)
class Literal(AstNode):
    value: int | float | str
    raw: str


@dataclass(frozen=True)
class BinOp(AstNode):
    left: Expr
    op: str
    right: Expr


@dataclass(frozen=True)
class Call(AstNode):
    func: str
    func_token: int
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Assign(AstNode):
    target: Name
    value: Expr


@dataclass(frozen=True)
class AugAssign(AstNode):
    target: Name
    op: str  # one of += -= *= /=
    value: Expr


@dataclass(frozen=True)
class Return(AstNode):
    value: Expr | None


@dataclass(frozen=True)
class ExprStmt(AstNode):
    value: Expr


@dataclass(frozen=True)
class If(AstNode):
    test: Expr
    body: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]  # empty, a single nested If (elif), or the else body


@dataclass(frozen=True)
class While(AstNode):
    test: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class For(AstNode):
    target: Name
    iter: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class FunctionDef(AstNode):
    name: str
    name_token: int
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Module(AstNode):
    body: tuple[Stmt, ...]


def walk(node: AstNode) -> Iterator[AstNode]:
    """Pre-order traversal with an explicit stack: a long operator chain is
    a deep left-leaning tree."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


INDENT = "    "


def pretty(node: AstNode) -> str:
    """Render an AST back to canonical MiniLang source (4-space indents).

    Re-tokenizing the output yields the same (kind, text) token sequence the
    tree was parsed from, provided the original used the canonical style.
    """
    if isinstance(node, Module):
        return "".join(_stmt(s, 0) for s in node.body)
    return _expr(node) if isinstance(node, (BinOp, Call, Name, Literal)) else _stmt(node, 0)


def _stmt(node: AstNode, depth: int) -> str:
    pad = INDENT * depth
    if isinstance(node, Assign):
        return f"{pad}{node.target.id} = {_expr(node.value)}\n"
    if isinstance(node, AugAssign):
        return f"{pad}{node.target.id} {node.op} {_expr(node.value)}\n"
    if isinstance(node, Return):
        if node.value is None:
            return f"{pad}return\n"
        return f"{pad}return {_expr(node.value)}\n"
    if isinstance(node, ExprStmt):
        return f"{pad}{_expr(node.value)}\n"
    if isinstance(node, If):
        out = f"{pad}if {_expr(node.test)}:\n" + _block(node.body, depth + 1)
        orelse = node.orelse
        while len(orelse) == 1 and isinstance(orelse[0], If):
            nested = orelse[0]
            out += f"{pad}elif {_expr(nested.test)}:\n" + _block(nested.body, depth + 1)
            orelse = nested.orelse
        if orelse:
            out += f"{pad}else:\n" + _block(orelse, depth + 1)
        return out
    if isinstance(node, While):
        return f"{pad}while {_expr(node.test)}:\n" + _block(node.body, depth + 1)
    if isinstance(node, For):
        return f"{pad}for {node.target.id} in {_expr(node.iter)}:\n" + _block(node.body, depth + 1)
    if isinstance(node, FunctionDef):
        params = ", ".join(p.name for p in node.params)
        return f"{pad}def {node.name}({params}):\n" + _block(node.body, depth + 1)
    raise TypeError(f"not a statement node: {node!r}")


def _block(stmts: tuple[Stmt, ...], depth: int) -> str:
    return "".join(_stmt(s, depth) for s in stmts)


_PRECEDENCE = {
    "==": 0, "!=": 0, "<": 0, ">": 0, "<=": 0, ">=": 0,
    "+": 1, "-": 1,
    "*": 2, "/": 2, "%": 2,
}


def _expr(node: AstNode, parent_prec: int = -1) -> str:
    if isinstance(node, Name):
        return node.id
    if isinstance(node, Literal):
        return node.raw
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_expr(a) for a in node.args)})"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        # Left-associative: the right child needs parens at equal precedence.
        # The left spine of a chain is followed in a loop while its left
        # children need no parens, so a long `a + a + ...` does not recurse.
        tails = []
        spine, spine_prec = node, prec
        while isinstance(spine, BinOp) and _PRECEDENCE[spine.op] >= spine_prec:
            spine_prec = _PRECEDENCE[spine.op]
            tails.append(f" {spine.op} {_expr(spine.right, spine_prec + 1)}")
            spine = spine.left
        text = _expr(spine, spine_prec) + "".join(reversed(tails))
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {node!r}")
