"""Data-flow graph extraction.

The graph has one node per variable occurrence (in source order) and a
directed edge ``<i, j>`` whenever the value of occurrence ``j`` comes from
occurrence ``i``. Two rules generate edges:

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
definition simply has no incoming edges.
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


@dataclass(frozen=True)
class VariableNode:
    id: int
    name: str
    token_index: int
    # Extraction metadata; not part of the serialized form, so not compared.
    role: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DataFlowGraph:
    nodes: tuple[VariableNode, ...]
    edges: frozenset[tuple[int, int]]  # <src, dst>: value of dst comes from src

    def node_by_token(self, token_index: int) -> VariableNode:
        for node in self.nodes:
            if node.token_index == token_index:
                return node
        raise KeyError(token_index)


# Environment: variable name -> set of node ids of reaching definitions.
_Env = dict[str, frozenset[int]]


class _Extractor:
    def __init__(self) -> None:
        self.occurrences: list[tuple[int, str, str]] = []  # (token_index, name, role)
        self.node_id: dict[int, int] = {}  # token_index -> node id (after ordering)
        self.edges: set[tuple[int, int]] = set()
        self.loop_gens: dict[int, _Env] = {}  # id(loop node) -> its body's gen set

    # -- pass 1: collect occurrences in token order ----------------------

    def collect(self, node: AstNode) -> None:
        if isinstance(node, Module):
            for s in node.body:
                self.collect(s)
        elif isinstance(node, FunctionDef):
            for p in node.params:
                self.occurrences.append((p.token_index, p.name, ROLE_DEF))
            for s in node.body:
                self.collect(s)
        elif isinstance(node, Assign):
            self._collect_expr(node.value)
            self.occurrences.append((node.target.token_index, node.target.id, ROLE_DEF))
        elif isinstance(node, AugAssign):
            self._collect_expr(node.value)
            self.occurrences.append((node.target.token_index, node.target.id, ROLE_DEF))
        elif isinstance(node, If):
            self._collect_expr(node.test)
            for s in node.body:
                self.collect(s)
            for s in node.orelse:
                self.collect(s)
        elif isinstance(node, While):
            self._collect_expr(node.test)
            for s in node.body:
                self.collect(s)
        elif isinstance(node, For):
            self.occurrences.append((node.target.token_index, node.target.id, ROLE_DEF))
            self._collect_expr(node.iter)
            for s in node.body:
                self.collect(s)
        elif isinstance(node, Return):
            if node.value is not None:
                self._collect_expr(node.value)
        elif isinstance(node, ExprStmt):
            self._collect_expr(node.value)
        else:
            raise TypeError(f"unexpected statement node: {node!r}")

    def _collect_expr(self, node: AstNode) -> None:
        # Iterative: a long operator chain is a deep left-leaning tree.
        stack = [node]
        while stack:
            node = stack.pop()
            if isinstance(node, Name):
                self.occurrences.append((node.token_index, node.id, ROLE_USE))
            elif isinstance(node, BinOp):
                stack += (node.right, node.left)
            elif isinstance(node, Call):
                stack.extend(reversed(node.args))
            elif not isinstance(node, Literal):
                raise TypeError(f"unexpected expression node: {node!r}")

    # -- pass 2: reaching-definitions walk, accumulating edges -----------

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
                inner[p.name] = frozenset({self.node_id[p.token_index]})
            self.walk_body(node.body, inner)
            return env
        if isinstance(node, Return):
            if node.value is not None:
                self.uses_in(node.value, env)
            return env
        if isinstance(node, ExprStmt):
            self.uses_in(node.value, env)
            return env
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
        """Resolve every use in an expression against `env`, adding def->use
        edges, and return the set of node ids occurring in the expression."""
        out: set[int] = set()
        stack = [node]
        while stack:
            node = stack.pop()
            if isinstance(node, Name):
                uid = self.node_id[node.token_index]
                for did in env.get(node.id, ()):
                    self.add_edge(did, uid)
                out.add(uid)
            elif isinstance(node, BinOp):
                stack += (node.right, node.left)
            elif isinstance(node, Call):
                stack.extend(reversed(node.args))
            elif not isinstance(node, Literal):
                raise TypeError(f"unexpected expression node: {node!r}")
        return out

    def define(self, token_index: int, name: str, sources: set[int], env: _Env) -> _Env:
        did = self.node_id[token_index]
        for sid in sources:
            self.add_edge(sid, did)
        env = dict(env)
        env[name] = frozenset({did})
        return env

    def add_edge(self, src: int, dst: int) -> None:
        if src != dst:  # self-loops are a mask-time concern, never stored
            self.edges.add((src, dst))


def _merge(a: _Env, b: _Env) -> _Env:
    out = dict(a)
    for name, ids in b.items():
        out[name] = out.get(name, frozenset()) | ids
    return out


def build_dfg(ast: Module) -> DataFlowGraph:
    """Extract the data-flow graph of a parsed module."""
    ex = _Extractor()
    ex.collect(ast)
    ordered = sorted(ex.occurrences)
    ex.node_id = {tok: i for i, (tok, _, _) in enumerate(ordered)}
    ex.walk_body(ast.body, {})
    nodes = tuple(
        VariableNode(id=i, name=name, token_index=tok, role=role)
        for i, (tok, name, role) in enumerate(ordered)
    )
    return DataFlowGraph(nodes=nodes, edges=frozenset(ex.edges))


def align_to_tokens(dfg: DataFlowGraph) -> set[tuple[int, int]]:
    """Pairs <node_id, token_index> linking each node to the identifier
    token it was identified from."""
    return {(node.id, node.token_index) for node in dfg.nodes}


def serialize_dfg(dfg: DataFlowGraph) -> str:
    """Emit the canonical JSON form (edges sorted lexicographically)."""
    payload = {
        "nodes": [
            {"id": n.id, "name": n.name, "token": n.token_index} for n in dfg.nodes
        ],
        "edges": [list(e) for e in sorted(dfg.edges)],
    }
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


def deserialize_dfg(text: str) -> DataFlowGraph:
    payload = json.loads(text)
    nodes = tuple(
        VariableNode(id=n["id"], name=n["name"], token_index=n["token"])
        for n in payload["nodes"]
    )
    edges = frozenset((src, dst) for src, dst in payload["edges"])
    return DataFlowGraph(nodes=nodes, edges=edges)


def extract_dfg(source: str) -> DataFlowGraph:
    """tokenize + parse + build_dfg in one call."""
    from .frontend import parse_source

    return build_dfg(parse_source(source))
