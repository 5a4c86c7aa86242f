"""MiniLang abstract syntax tree.

Nodes are frozen dataclasses. Every node carries the byte span it covers;
`Name` leaves additionally record the index of the identifier token they
resolve to, which is what the data-flow extractor keys on. Function and
call names are deliberately *not* `Name` nodes: functions are not
variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
