"""Data-flow graph extraction against hand-traced expectations and a
fixpoint reaching-definitions oracle."""

import json
import signal
import time
from collections import Counter

import numpy as np
import pytest

from codeflow.dfg import (
    ROLE_DEF,
    ROLE_USE,
    DataFlowGraph,
    DataFlowWalk,
    VariableNode,
    build_dfg,
    extract_dfg,
    serialize_dfg,
)
from codeflow.frontend.lexer import tokenize
from codeflow.frontend.parser import parse_source
from codeflow.frontend.syntax import Assign, AugAssign, ExprStmt, For, FunctionDef, If, Return, While
from helpers import DFG_TRACES, dfg_oracle, random_program, walk


@pytest.mark.parametrize("source,nodes,edges", DFG_TRACES)
def test_hand_traced_graphs(source, nodes, edges):
    g = extract_dfg(source)
    got = [(n.name, n.token_index, n.role) for n in g.nodes]
    assert got == nodes
    assert g.edges == frozenset(edges)


def test_node_ids_are_dense_and_token_ordered():
    for source, nodes, _ in DFG_TRACES:
        g = extract_dfg(source)
        assert [n.id for n in g.nodes] == list(range(len(nodes)))
        toks = [n.token_index for n in g.nodes]
        assert toks == sorted(toks)


def test_node_tokens_are_identifiers():
    for source, _, _ in DFG_TRACES:
        toks = tokenize(source)
        for node in extract_dfg(source).nodes:
            tok = toks[node.token_index]
            assert tok.kind == "identifier"
            assert tok.text == node.name


def test_function_and_call_names_are_not_nodes():
    g = extract_dfg("def f(a):\n    return probe(a)\n")
    assert [n.name for n in g.nodes] == ["a", "a"]


def test_no_self_loops_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g = extract_dfg(random_program(rng))
        ids = {n.id for n in g.nodes}
        for src, dst in g.edges:
            assert src != dst
            assert src in ids and dst in ids
        order = [n.token_index for n in g.nodes]
        assert order == sorted(order)
        assert [n.id for n in g.nodes] == list(range(len(order)))


def test_uninitialized_uses_have_no_incoming():
    g = extract_dfg("y = x + x\n")
    for node in g.nodes:
        if node.name == "x":
            assert not any(dst == node.id for _, dst in g.edges)


def test_params_have_no_incoming():
    g = extract_dfg("def f(a, b):\n    a = a + b\n    return a\n")
    params = [n.id for n in g.nodes if n.token_index in (3, 5)]
    for _, dst in g.edges:
        assert dst not in params


def test_roles():
    g = extract_dfg("x = 1\nx += 2\nprobe(x)\n")
    assert [n.role for n in g.nodes] == [ROLE_DEF, ROLE_DEF, ROLE_USE]


def test_build_dfg_accepts_parsed_module():
    mod = parse_source("a = 1\nb = a\n")
    g = build_dfg(mod)
    assert g.edges == frozenset({(0, 2), (2, 1)})


def test_serialize_is_canonical_json():
    g = extract_dfg("a = 1\nb = a\n")
    text = serialize_dfg(g)
    assert text == (
        '{"nodes":[{"id":0,"name":"a","token":0},'
        '{"id":1,"name":"b","token":4},'
        '{"id":2,"name":"a","token":6}],'
        '"edges":[[0,2],[2,1]]}'
    )


def test_serialize_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = extract_dfg(random_program(rng))
        payload = json.loads(serialize_dfg(g))
        assert payload["nodes"] == [
            {"id": n.id, "name": n.name, "token": n.token_index} for n in g.nodes
        ]
        assert {tuple(e) for e in payload["edges"]} == g.edges


def test_serialize_orders_edges():
    g = DataFlowGraph(
        nodes=(
            VariableNode(0, "a", 0),
            VariableNode(1, "b", 2),
            VariableNode(2, "c", 4),
        ),
        edges=frozenset({(2, 0), (0, 1), (0, 2)}),
    )
    assert '"edges":[[0,1],[0,2],[2,0]]' in serialize_dfg(g)


def test_empty_module():
    g = extract_dfg("")
    assert g.nodes == ()
    assert g.edges == frozenset()


def test_long_operator_chain():
    # A 2000-term chain is a 2000-deep tree; the expression walks are iterative.
    g = extract_dfg("def f(a):\n    b = " + " + ".join(["a"] * 2000) + "\n    return b\n")
    assert len(g.nodes) == 2003
    param, b_def, *uses, b_use = (n.id for n in g.nodes)
    assert g.edges == {(param, u) for u in uses} | {(u, b_def) for u in uses} | {(b_def, b_use)}


def test_return_ends_its_path():
    # `x = 1` (node 3) returns before `y = x`, so only `x = 0` (node 1) reaches the use (node 6).
    g = extract_dfg("def f(c):\n    x = 0\n    if c > 0:\n        x = 1\n        return x\n    y = x\n")
    assert g.edges == {(0, 2), (1, 6), (3, 4), (6, 5)}
    # Code after a return is unreachable: its occurrences are nodes, but the parameter does not reach its use.
    g = extract_dfg("def f(a):\n    return a\n    b = a\n")
    assert [(n.name, n.role) for n in g.nodes] == [("a", ROLE_DEF), ("a", ROLE_USE), ("b", ROLE_DEF), ("a", ROLE_USE)]
    assert g.edges == {(0, 1), (3, 2)}



def test_matches_fixpoint_oracle_on_nested_loops():
    # One walk per loop from entry + gen against IN/OUT sets iterated to a fixpoint.
    rng = np.random.default_rng(2024)
    for _ in range(400):
        mod = parse_source(random_program(rng, max_depth=4))
        nodes, edges = dfg_oracle(mod)
        g = build_dfg(mod)
        assert [(n.token_index, n.name, n.role) for n in g.nodes] == nodes
        assert g.edges == edges


def _too_slow(signum, frame):
    raise TimeoutError("extract_dfg did not finish within the guard")


@pytest.mark.parametrize("header", ["while x < {i}:", "for v{i} in x:"], ids=["while", "for"])
def test_deep_loop_nest_extracts_quickly(header):
    # Walking every loop body twice per level doubled the work per level.
    depth = 60
    source = (
        "x = 0\n"
        + "".join("    " * i + header.format(i=i) + "\n" for i in range(depth))
        + "    " * depth + "x = x + 1\ny = x\n"
    )
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 10.0)  # fail rather than hang if the walk is exponential
    try:
        start = time.perf_counter()
        g = extract_dfg(source)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    assert g.edges == dfg_oracle(parse_source(source))[1]


def _expression_sites(module) -> list:
    """Every expression a statement holds: an assignment's value, a test, a
    `for` iterable, and a returned or evaluated value."""
    sites = []
    for node in walk(module):
        if isinstance(node, (Assign, AugAssign, Return, ExprStmt)):
            if node.value is not None:
                sites.append(node.value)
        elif isinstance(node, (If, While)):
            sites.append(node.test)
        elif isinstance(node, For):
            sites.append(node.iter)
    return sites


def _random_programs(seed: int, count: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [random_program(rng, max_depth=4) for _ in range(count)]


def _deep_nest(header: str, depth: int = 60) -> str:
    return (
        "x = 0\n"
        + "".join("    " * i + header.format(i=i) + "\n" for i in range(depth))
        + "    " * depth + "x = x + 1\ny = x\n"
    )


@pytest.mark.parametrize(
    "sources",
    [
        _random_programs(seed=31, count=200),
        [_deep_nest("while x < {i}:"), _deep_nest("for v{i} in x:")],
    ],
    ids=["random-depth-4", "60-deep"],
)
def test_each_expression_is_walked_once(monkeypatch, sources):
    # Loop summaries come from a definitions-only walk, so however deep a
    # loop nests, the walk that records uses meets each expression once.
    visits = Counter()
    uses_in = DataFlowWalk.uses_in

    def counting(self, node, env):
        visits[id(node)] += 1
        return uses_in(self, node, env)

    monkeypatch.setattr(DataFlowWalk, "uses_in", counting)
    for source in sources:
        mod = parse_source(source)
        visits.clear()
        build_dfg(mod)
        sites = _expression_sites(mod)
        assert visits == Counter(id(e) for e in sites)
        assert len(visits) == len(sites)  # no two sites are one object
    assert max(_loop_depth(parse_source(source).body) for source in sources) >= 4


def _loop_depth(stmts) -> int:
    """How many loops deep `stmts` nest."""
    depths = [0]
    for s in stmts:
        blocks = (s.body, s.orelse) if isinstance(s, If) else (s.body,) if isinstance(s, (While, For, FunctionDef)) else ()
        depths += [_loop_depth(b) + isinstance(s, (While, For)) for b in blocks]
    return max(depths)
