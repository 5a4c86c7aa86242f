"""Data-flow graph extraction.

The graph has one node per variable occurrence (in source order) and a
directed edge ``<i, j>`` whenever the value of occurrence ``j`` comes from
occurrence ``i``. One reaching-definitions walk over the module,
`DataFlowWalk`, builds both: it records each occurrence as it meets it, by
token index with its name (`define` marks a definition, `uses_in` leaves a
use), and adds edges between token indices as it goes. `build_dfg` numbers
the occurrences in token order and renumbers the edges once, and
`encoding.encode_example` reads the walk itself. A node therefore exists
exactly when the walk visits its token. Two rules generate edges:

* assignment: ``x = expr`` adds an edge from every variable occurrence in
  ``expr`` to the target occurrence ``x``;
* reaching definitions: every use receives an edge from each definition of
  the same name that can reach it. ``if``/``else`` merges by union. A loop
  is summarised by ``gen``: the definitions that leave its body from an
  empty environment, memoised per loop. The body is then walked once from
  ``entry | gen``, the union of the environment at the loop and ``gen``,
  and that union is also the environment after the loop. So in-loop
  definitions reach the loop header, the body (around the back edge) and
  the uses after the loop. Every statement changes the environment in
  gen/kill form, so a second walk would add nothing: one walk reaches the
  fixpoint. A walk from the empty environment gives a subset of the edges
  and the same occurrences as the walk from ``entry | gen``, so ``gen``
  needs neither: each statement's expressions are walked once; loop
  summaries come from a definitions-only walk. The environment is updated
  in place and copied only where control flow branches.

Augmented assignment targets act as both a use (they receive edges from the
prior reaching definitions) and the new definition. Function parameters are
definitions with no incoming edges. Call target names and function names
are not variables and never become nodes. A use with no reaching
definition simply has no incoming edges. ``return`` ends its path: it
records its uses and leaves the empty environment, so a returning branch
adds nothing to the merge after an ``if``, to a loop's ``gen`` or to the
environment after a loop. Statements after a ``return`` in the same block
are unreachable and start from the empty environment: no definition from
before the ``return`` reaches them, and their own occurrences stay nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .frontend.syntax import (
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
    Return,
    While,
)

ROLE_DEF = "definition"
ROLE_USE = "use"


@dataclass(slots=True)
class VariableNode:
    """One variable occurrence. Like the AST nodes, a slotted dataclass that
    nothing mutates once built, compared by value and not hashable: its init
    costs about a quarter of a frozen one's."""

    id: int
    name: str
    token_index: int
    # Extraction metadata; not part of the serialized form, so not compared.
    role: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DataFlowGraph:
    nodes: tuple[VariableNode, ...]
    edges: frozenset[tuple[int, int]]  # <src, dst>: value of dst comes from src


# Environment: variable name -> token indices of its reaching definitions.
_Env = dict[str, frozenset[int]]


class DataFlowWalk:
    """The reaching-definitions walk of a module, over token indices.

    `occurrences` maps the token index of every variable occurrence to its
    name, `definitions` holds the indices that are definitions (every other
    occurrence is a use), and `edges` holds the ``<src, dst>`` pairs."""

    def __init__(self, module: Module) -> None:
        self.occurrences: dict[int, str] = {}
        self.definitions: set[int] = set()
        self.edges: set[tuple[int, int]] = set()
        self._gens: dict[int, _Env] = {}  # id(loop node) -> its body's gen set
        self.walk_body(module.body, {})

    def walk_body(self, stmts: tuple, env: _Env) -> _Env:
        """Walk `stmts` from `env`, which they update in place, and return
        the environment they leave."""
        uses_in, define = self.uses_in, self.define
        for node in stmts:
            kind = type(node)
            if kind is Assign:
                define(node.target.token_index, node.target.id, uses_in(node.value, env), env)
            elif kind is AugAssign:
                # x (op)= e: the single occurrence of x is fed by its own prior
                # reaching definitions as well as everything in e.
                sources = uses_in(node.value, env)
                sources.update(env.get(node.target.id, ()))
                define(node.target.token_index, node.target.id, sources, env)
            elif kind is If:
                uses_in(node.test, env)
                taken = self.walk_body(node.body, dict(env))
                env = _merge(self.walk_body(node.orelse, env), taken)
            elif kind is While or kind is For:
                env = _merge(env, self.gen(node))  # the fixpoint at the loop header
                inner = dict(env)
                if kind is While:
                    uses_in(node.test, inner)
                else:
                    define(node.target.token_index, node.target.id, uses_in(node.iter, inner), inner)
                self.walk_body(node.body, inner)
            elif kind is FunctionDef:
                # Fresh scope seeded by the parameters; no closure capture.
                inner = {}
                for p in node.params:
                    define(p.token_index, p.name, set(), inner)
                self.walk_body(node.body, inner)
            elif kind is Return or kind is ExprStmt:
                if node.value is not None:
                    uses_in(node.value, env)
                if kind is Return:
                    env = {}  # a return ends its path
            else:
                raise TypeError(f"unexpected statement node: {node!r}")
        return env

    def gen(self, loop: While | For) -> _Env:
        """The definitions that leave one pass of `loop` from the empty
        environment, memoised per loop."""
        gen = self._gens.get(id(loop))
        if gen is None:
            env = {loop.target.id: frozenset((loop.target.token_index,))} if type(loop) is For else {}
            gen = self._gens[id(loop)] = self.gen_body(loop.body, env)
        return gen

    def gen_body(self, stmts: tuple, env: _Env) -> _Env:
        """`walk_body` for definitions only: no uses, edges or occurrences."""
        for node in stmts:
            kind = type(node)
            if kind is Assign or kind is AugAssign:
                env[node.target.id] = frozenset((node.target.token_index,))
            elif kind is If:
                taken = self.gen_body(node.body, dict(env))
                env = _merge(self.gen_body(node.orelse, env), taken)
            elif kind is While or kind is For:
                env = _merge(env, self.gen(node))
            elif kind is Return:
                env = {}
        return env

    def uses_in(self, node: AstNode, env: _Env) -> set[int]:
        """Record every use in an expression, add def->use edges from `env`,
        and return the token indices of the uses."""
        occurrences, edges = self.occurrences, self.edges
        out: set[int] = set()
        stack = [node]  # iterative: a long operator chain is a deep left-leaning tree
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is Name:
                tok = node.token_index
                occurrences[tok] = node.id
                for d in env.get(node.id, ()):
                    edges.add((d, tok))
                out.add(tok)
            elif kind is BinOp:
                stack += (node.right, node.left)
            elif kind is Call:
                stack.extend(reversed(node.args))
            elif kind is not Literal:
                raise TypeError(f"unexpected expression node: {node!r}")
        return out

    def define(self, tok: int, name: str, sources: set[int], env: _Env) -> None:
        """Record a definition fed by `sources`; it alone reaches on from here."""
        self.occurrences[tok] = name
        self.definitions.add(tok)
        for s in sources:
            if s != tok:  # self-loops are a mask-time concern, never stored
                self.edges.add((s, tok))
        env[name] = frozenset((tok,))


def _merge(env: _Env, other: _Env) -> _Env:
    """Add `other`'s reaching definitions to `env` in place and return it."""
    for name, toks in other.items():
        had = env.get(name)
        env[name] = toks if had is None else had | toks
    return env


def build_dfg(ast: Module) -> DataFlowGraph:
    """Extract the data-flow graph of a parsed module."""
    walk = DataFlowWalk(ast)
    names, defs = walk.occurrences, walk.definitions
    order = sorted(names)
    node_id = {tok: i for i, tok in enumerate(order)}
    nodes = tuple([VariableNode(i, names[tok], tok, ROLE_DEF if tok in defs else ROLE_USE) for i, tok in enumerate(order)])
    edges = frozenset({(node_id[src], node_id[dst]) for src, dst in walk.edges})
    return DataFlowGraph(nodes=nodes, edges=edges)


def serialize_dfg(dfg: DataFlowGraph) -> str:
    """Emit the canonical JSON form (edges sorted lexicographically)."""
    payload = {
        "nodes": [
            {"id": n.id, "name": n.name, "token": n.token_index} for n in dfg.nodes
        ],
        "edges": [list(e) for e in sorted(dfg.edges)],
    }
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


def extract_dfg(source: str) -> DataFlowGraph:
    """tokenize + parse + build_dfg in one call."""
    from .frontend.parser import parse_source

    return build_dfg(parse_source(source))
