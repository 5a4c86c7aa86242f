"""Data-flow graph extraction.

The graph has one node per variable occurrence (in source order) and a
directed edge ``<i, j>`` whenever the value of occurrence ``j`` comes from
occurrence ``i``. One reaching-definitions walk over the module builds both:
it records each occurrence as it meets it, keyed by token index with its
name and role (`define` records a definition, `uses_in` a use), and adds
edges between token indices. `build_dfg` then numbers the occurrences in
token order and renumbers the edges once. A node therefore exists exactly
when the walk visits its token; walking a loop body again re-records the
same occurrences, which changes nothing. Two rules generate edges:

* assignment: ``x = expr`` adds an edge from every variable occurrence in
  ``expr`` to the target occurrence ``x``;
* reaching definitions: every use receives an edge from each definition of
  the same name that can reach it. ``if``/``else`` merges by union. A loop
  is summarised by ``gen``: the definitions that leave its body when the
  body is walked from an empty environment, memoised per loop. The body is
  then walked once from ``entry | gen``, the union of the environment at
  the loop and ``gen``, and that union is also the environment after the
  loop. So in-loop definitions reach the loop header, the body (around the
  back edge) and the uses after the loop. Every statement changes the
  environment in gen/kill form, so a second walk would add nothing: one
  walk reaches the fixpoint. A body nested k loops deep is walked k + 2
  times, not 2^(k+1) times.

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


class _Extractor:
    def __init__(self) -> None:
        self.occurrences: dict[int, tuple[str, str]] = {}  # token_index -> (name, role)
        self.edges: set[tuple[int, int]] = set()  # <src, dst> over token indices
        self.loop_gens: dict[int, _Env] = {}  # id(loop node) -> its body's gen set

    def walk_body(self, stmts: tuple, env: _Env) -> _Env:
        for s in stmts:
            env = self.walk_stmt(s, env)
        return env

    def walk_stmt(self, node: AstNode, env: _Env) -> _Env:
        if isinstance(node, Assign):
            sources = self.uses_in(node.value, env)
            return self.define(node.target.token_index, node.target.id, sources, env)
        if isinstance(node, AugAssign):
            # x (op)= e: the single occurrence of x is fed by its own prior
            # reaching definitions as well as everything in e.
            sources = self.uses_in(node.value, env)
            sources |= env.get(node.target.id, frozenset())
            return self.define(node.target.token_index, node.target.id, sources, env)
        if isinstance(node, If):
            self.uses_in(node.test, env)
            env_body = self.walk_body(node.body, dict(env))
            env_else = self.walk_body(node.orelse, dict(env)) if node.orelse else env
            return _merge(env_body, env_else)
        if isinstance(node, (While, For)):
            gen = self.loop_gens.get(id(node))
            if gen is None:
                gen = self.loop_gens[id(node)] = self.loop_pass(node, {})
            entry = _merge(env, gen)  # the fixpoint at the loop header
            self.loop_pass(node, entry)
            return entry
        if isinstance(node, FunctionDef):
            # Fresh scope seeded by the parameters; no closure capture.
            inner: _Env = {}
            for p in node.params:
                inner = self.define(p.token_index, p.name, set(), inner)
            self.walk_body(node.body, inner)
            return env
        if isinstance(node, (Return, ExprStmt)):
            if node.value is not None:
                self.uses_in(node.value, env)
            return {} if isinstance(node, Return) else env  # a return ends its path
        raise TypeError(f"unexpected statement node: {node!r}")

    def loop_pass(self, node: While | For, env: _Env) -> _Env:
        """One iteration: the test (or the iterable and the target), then the body."""
        if isinstance(node, While):
            self.uses_in(node.test, env)
        else:
            sources = self.uses_in(node.iter, env)
            env = self.define(node.target.token_index, node.target.id, sources, env)
        return self.walk_body(node.body, dict(env))

    def uses_in(self, node: AstNode, env: _Env) -> set[int]:
        """Record every use in an expression, add def->use edges from `env`,
        and return the token indices of the uses."""
        out: set[int] = set()
        stack = [node]  # iterative: a long operator chain is a deep left-leaning tree
        while stack:
            node = stack.pop()
            if isinstance(node, Name):
                self.occurrences[node.token_index] = (node.id, ROLE_USE)
                for d in env.get(node.id, ()):
                    self.add_edge(d, node.token_index)
                out.add(node.token_index)
            elif isinstance(node, BinOp):
                stack += (node.right, node.left)
            elif isinstance(node, Call):
                stack.extend(reversed(node.args))
            elif not isinstance(node, Literal):
                raise TypeError(f"unexpected expression node: {node!r}")
        return out

    def define(self, token_index: int, name: str, sources: set[int], env: _Env) -> _Env:
        """Record a definition fed by `sources` and return the environment it leaves."""
        self.occurrences[token_index] = (name, ROLE_DEF)
        for s in sources:
            self.add_edge(s, token_index)
        env = dict(env)
        env[name] = frozenset({token_index})
        return env

    def add_edge(self, src: int, dst: int) -> None:
        if src != dst:  # self-loops are a mask-time concern, never stored
            self.edges.add((src, dst))


def _merge(a: _Env, b: _Env) -> _Env:
    out = dict(a)
    for name, toks in b.items():
        out[name] = out.get(name, frozenset()) | toks
    return out


def build_dfg(ast: Module) -> DataFlowGraph:
    """Extract the data-flow graph of a parsed module."""
    ex = _Extractor()
    ex.walk_body(ast.body, {})
    order = sorted(ex.occurrences.items())
    node_id = {tok: i for i, (tok, _) in enumerate(order)}
    nodes = tuple([VariableNode(i, name, tok, role) for i, (tok, (name, role)) in enumerate(order)])
    edges = frozenset({(node_id[src], node_id[dst]) for src, dst in ex.edges})
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
