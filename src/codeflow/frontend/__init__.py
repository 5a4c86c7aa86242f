"""MiniLang frontend: lexer, parser, AST."""

# The one name bound here: the benchmark's tracer reads
# `codeflow.frontend.FrontendError` to count rejected programs. Everything
# else is imported from the submodule that defines it.
from .errors import FrontendError
