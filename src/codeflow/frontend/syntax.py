"""MiniLang abstract syntax tree.

Nodes are slotted dataclasses, compared by value, not hashable: a slotted
init costs under a third of a frozen one, and the parser builds dozens of
nodes per program. Nothing mutates a node once the parser has built it,
and the data-flow extractor keys its loop memo on `id(node)`. Nodes carry
no source positions: `Name` leaves and `Param`s record only the index of
the identifier token they resolve to, which is what the data-flow
extractor keys on. Function and call names are deliberately *not* `Name`
nodes, and record no token: functions are not variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Expr = Union["BinOp", "Call", "Name", "Literal"]
Stmt = Union[
    "FunctionDef", "Assign", "AugAssign", "If", "While", "For", "Return", "ExprStmt"
]


@dataclass(slots=True)
class AstNode:
    """Base of every expression and statement node."""


@dataclass(slots=True)
class Param:
    """Formal parameter: a definition site that is not an expression."""

    name: str
    token_index: int


@dataclass(slots=True)
class Name(AstNode):
    id: str
    token_index: int


@dataclass(slots=True)
class Literal(AstNode):
    raw: str


@dataclass(slots=True)
class BinOp(AstNode):
    left: Expr
    op: str
    right: Expr


@dataclass(slots=True)
class Call(AstNode):
    func: str
    args: tuple[Expr, ...]


@dataclass(slots=True)
class Assign(AstNode):
    target: Name
    value: Expr


@dataclass(slots=True)
class AugAssign(AstNode):
    target: Name
    op: str  # one of += -= *= /=
    value: Expr


@dataclass(slots=True)
class Return(AstNode):
    value: Expr | None


@dataclass(slots=True)
class ExprStmt(AstNode):
    value: Expr


@dataclass(slots=True)
class If(AstNode):
    test: Expr
    body: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]  # empty, a single nested If (elif), or the else body


@dataclass(slots=True)
class While(AstNode):
    test: Expr
    body: tuple[Stmt, ...]


@dataclass(slots=True)
class For(AstNode):
    target: Name
    iter: Expr
    body: tuple[Stmt, ...]


@dataclass(slots=True)
class FunctionDef(AstNode):
    name: str
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]


@dataclass(slots=True)
class Module(AstNode):
    body: tuple[Stmt, ...]
