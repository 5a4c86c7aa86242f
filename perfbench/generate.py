"""Seeded input generator for the benchmark workloads.

Everything here depends only on the seed and the standard library plus
numpy; it does not import the program under test, so the inputs stay the
same whatever the program does with them. Sizes are stratified by index
(the same size mix for every seed, shuffled by the seed), which keeps the
amount of work per run nearly constant across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

IDENTIFIERS = [
    "acc", "base", "count", "delta", "extra", "flag", "gain", "high",
    "index", "join", "keep", "low", "mark", "next_val", "outer", "pivot",
    "quota", "rate", "size", "total", "upper", "value", "width", "shift",
]
FUNCTIONS = ["probe", "emit", "clamp", "mix"]
BIN_OPS = ["+", "-", "*", "/", "%"]
CMP_OPS = ["<", ">", "<=", ">=", "==", "!="]
AUG_OPS = ["+=", "-=", "*=", "/="]
WORDS = [
    "add", "all", "average", "buffer", "check", "clip", "collect", "compute",
    "count", "cursor", "decay", "filter", "find", "first", "gather", "index",
    "items", "largest", "limit", "list", "loop", "maximum", "merge", "minimum",
    "normalize", "offset", "pair", "range", "rate", "reduce", "remove", "return",
    "running", "scale", "score", "shift", "smallest", "split", "step", "sum",
    "swap", "table", "total", "update", "value", "values", "weight", "window",
]
LANGS = ("python", "java")


@dataclass(frozen=True)
class Row:
    """One corpus row; `planted` names the reject kind, or None for a clean row."""

    code: str
    docstring: str
    lang: str
    planted: str | None = None


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


def _stratified_sizes(n: int, median: float, sigma: float, lo: int, hi: int) -> list[int]:
    """Log-normal quantiles at (i + 0.5) / n, clipped: the same multiset for every seed."""
    nd = NormalDist()
    return [
        min(hi, max(lo, round(math.exp(math.log(median) + sigma * nd.inv_cdf((i + 0.5) / n)))))
        for i in range(n)
    ]


def _docstring(rng: np.random.Generator, lo: int = 3, hi: int = 8) -> str:
    return " ".join(_pick(rng, WORDS) for _ in range(int(rng.integers(lo, hi + 1))))


# random programs -------------------------------------------------------------


class _ProgramWriter:
    """Emits canonical MiniLang source: four-space indents, one statement a line."""

    def __init__(self, rng: np.random.Generator, max_depth: int):
        self.rng = rng
        self.max_depth = max_depth
        self.lines: list[str] = []

    def expr(self, names: list[str], depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.45:
            if names and rng.random() < 0.7:
                return _pick(rng, names)
            return str(int(rng.integers(100)))
        if roll < 0.75:
            return f"{self.expr(names, depth + 1)} {_pick(rng, BIN_OPS)} {self.expr(names, depth + 1)}"
        if roll < 0.88:
            return f"({self.expr(names, depth + 1)} {_pick(rng, BIN_OPS)} {self.expr(names, depth + 1)})"
        args = ", ".join(self.expr(names, depth + 1) for _ in range(int(rng.integers(1, 3))))
        return f"{_pick(rng, FUNCTIONS)}({args})"

    def cond(self, names: list[str]) -> str:
        return f"{self.expr(names, 1)} {_pick(self.rng, CMP_OPS)} {self.expr(names, 1)}"

    def block(self, names: list[str], budget: int, depth: int) -> None:
        """Write statements at `depth` until `budget` statements are spent (at least one)."""
        indent = "    " * depth
        rng = self.rng
        spent = 0
        while spent < max(1, budget):
            left = budget - spent
            roll = rng.random()
            if depth < self.max_depth and left >= 3 and roll < 0.3:
                inner = int(rng.integers(1, min(left - 1, 6) + 1))
                kind = _pick(rng, ("if", "if", "while", "for"))
                if kind == "for":
                    var = _pick(rng, IDENTIFIERS)
                    self.lines.append(f"{indent}for {var} in {self.expr(names, 1)}:")
                    if var not in names:
                        names.append(var)
                else:
                    self.lines.append(f"{indent}{kind} {self.cond(names)}:")
                self.block(names, inner, depth + 1)
                spent += 1 + inner
                if kind == "if" and left - 1 - inner >= 2 and rng.random() < 0.35:
                    other = int(rng.integers(1, min(left - 1 - inner, 3) + 1))
                    self.lines.append(f"{indent}else:")
                    self.block(list(names), other, depth + 1)
                    spent += other
                continue
            if names and roll < 0.42:
                self.lines.append(f"{indent}{_pick(rng, names)} {_pick(rng, AUG_OPS)} {self.expr(names)}")
            elif roll < 0.93 or not names:
                target = _pick(rng, IDENTIFIERS) if rng.random() < 0.4 or not names else _pick(rng, names)
                self.lines.append(f"{indent}{target} = {self.expr(names)}")
                if target not in names:
                    names.append(target)
            else:
                self.lines.append(f"{indent}{_pick(rng, FUNCTIONS)}({self.expr(names)})")
            spent += 1


def random_program(rng: np.random.Generator, statements: int, max_depth: int, name: str) -> str:
    """A function of about `statements` statements ending in a return."""
    w = _ProgramWriter(rng, max_depth)
    params = list(dict.fromkeys(_pick(rng, IDENTIFIERS) for _ in range(int(rng.integers(1, 4)))))
    w.lines.append(f"def {name}({', '.join(params)}):")
    names = list(params)
    w.block(names, max(1, statements - 1), 1)
    w.lines.append(f"    return {_pick(rng, names)}")
    return "\n".join(w.lines) + "\n"


# pretrain -------------------------------------------------------------------


def _short_function(rng: np.random.Generator, i: int) -> str:
    a, b, c = (str(x) for x in rng.choice(IDENTIFIERS, size=3, replace=False))
    k = int(rng.integers(1, 10))
    op = _pick(rng, ["+", "-", "*"])
    variant = i % 4
    if variant == 0:
        return f"def fn{i}({a}, {b}):\n    {c} = {a} {op} {b}\n    {c} = {c} * {k}\n    return {c}\n"
    if variant == 1:
        return (
            f"def fn{i}({a}, {b}):\n    {c} = {a} - {b}\n    if {c} < {k}:\n"
            f"        {c} = {b} {op} {a}\n    return {c}\n"
        )
    if variant == 2:
        return f"def fn{i}({a}):\n    {b} = 0\n    while {b} < {a}:\n        {b} += {k}\n    return {b}\n"
    return f"def fn{i}({a}, {b}):\n    {c} = {a} % {b}\n    {a} = {c} {op} {k}\n    return {a}\n"


def pretrain_corpus(seed: int, n: int = 64) -> list[Row]:
    """Short functions in two languages (3:1), each with data-flow edges."""
    rng = np.random.default_rng([seed, 1])
    langs = [LANGS[0]] * (n - n // 4) + [LANGS[1]] * (n // 4)
    rng.shuffle(langs)
    return [Row(_short_function(rng, i), _docstring(rng, 3, 4), langs[i]) for i in range(n)]


# retrieval ------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalInputs:
    rows: list[Row]  # search corpus: docstring is the query, code the candidate
    pairs: list[tuple[int, int]]  # clone pairs as indices into rows


def retrieval_inputs(seed: int, n: int = 256, clone_snippets: int = 128) -> RetrievalInputs:
    """Programs of varied length (about 90 positions at the median), and clone
    pairs drawn as a ring over `clone_snippets` of them in shuffled order, so
    each of those snippets is in two pairs."""
    rng = np.random.default_rng([seed, 2])
    sizes = _stratified_sizes(n, median=8, sigma=0.55, lo=2, hi=48)
    rng.shuffle(sizes)
    rows = []
    seen = set()
    for i, size in enumerate(sizes):
        while True:
            code = random_program(rng, size, max_depth=2, name=f"job{i}")
            if code not in seen:
                seen.add(code)
                break
        rows.append(Row(code, _docstring(rng), LANGS[i % 2]))
    order = [int(x) for x in rng.permutation(n)[:clone_snippets]]
    pairs = [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]
    return RetrievalInputs(rows, pairs)


# ingest ---------------------------------------------------------------------

REJECT_KINDS = ("unparseable", "short_docstring", "http_docstring")


def _break_code(rng: np.random.Generator, code: str) -> str:
    """Make the code fail in the lexer or the parser, at a random line."""
    lines = code.splitlines()
    at = int(rng.integers(1, len(lines)))
    kind = int(rng.integers(4))
    if kind == 0:  # character outside the language
        lines[at] = lines[at] + " $"
    elif kind == 1:  # unbalanced parenthesis swallows the rest of the program
        lines[at] = lines[at] + " + (1"
    elif kind == 2:  # dedent to a width that was never opened
        lines[at] = "  " + lines[at].lstrip()
    else:  # an operator where an expression must start
        lines[at] = lines[at] + " * *"
    return "\n".join(lines) + "\n"


def ingest_rows(seed: int, n: int = 2400, reject_share: float = 0.15) -> list[Row]:
    """Programs with nesting up to four deep; a planted share of rows must be
    rejected: unparseable code, docstrings under three words, and docstrings
    that mention http. The reject count of each kind is exact."""
    rng = np.random.default_rng([seed, 3])
    sizes = _stratified_sizes(n, median=9, sigma=0.5, lo=2, hi=40)
    per_kind = round(n * reject_share / len(REJECT_KINDS))
    plan: list[str | None] = [k for k in REJECT_KINDS for _ in range(per_kind)]
    plan += [None] * (n - len(plan))
    rng.shuffle(sizes)
    rng.shuffle(plan)
    rows = []
    for i, (size, planted) in enumerate(zip(sizes, plan)):
        code = random_program(rng, size, max_depth=4, name=f"task{i}")
        doc = _docstring(rng)
        if planted == "unparseable":
            code = _break_code(rng, code)
        elif planted == "short_docstring":
            doc = _docstring(rng, 1, 2)
        elif planted == "http_docstring":
            doc = f"{doc} see http://example.org/{_pick(rng, WORDS)}"
        rows.append(Row(code, doc, LANGS[i % 2], planted))
    return rows
