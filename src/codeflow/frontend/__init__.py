"""MiniLang frontend: lexer, parser, AST."""

from .errors import (
    FrontendError,
    IndentationMismatch,
    InvalidCharacter,
    LexError,
    MiniLangSyntaxError,
    UnterminatedString,
)
from .lexer import KEYWORDS, OPERATORS, Token, tokenize
from .parser import parse, parse_source
from .syntax import (
    Assign,
    AstNode,
    AugAssign,
    BinOp,
    Call,
    ExprStmt,
    For,
    FunctionDef,
    If,
    Literal,
    Module,
    Name,
    Param,
    Return,
    While,
)

__all__ = [
    "FrontendError",
    "IndentationMismatch",
    "InvalidCharacter",
    "LexError",
    "MiniLangSyntaxError",
    "UnterminatedString",
    "KEYWORDS",
    "OPERATORS",
    "Token",
    "tokenize",
    "parse",
    "parse_source",
    "Assign",
    "AstNode",
    "AugAssign",
    "BinOp",
    "Call",
    "ExprStmt",
    "For",
    "FunctionDef",
    "If",
    "Literal",
    "Module",
    "Name",
    "Param",
    "Return",
    "While",
]
