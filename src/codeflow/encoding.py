"""Model-input construction: vocabulary, sequence layout, positions, mask.

The input sequence is ``[CLS] W [SEP] C [SEP] V``: comment words, code
tokens, then one position per data-flow node. Node positions share a single
reserved position id (the last slot of the position table) and attend only
along data-flow edges, to the code token they were identified from, and to
themselves; everything in the comment/code/special block attends freely
within that block, and special-token queries attend everywhere.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dfg import DataFlowWalk
from .errors import DataError
from .frontend.lexer import Token

PAD, CLS, SEP, MASK, UNK = 0, 1, 2, 3, 4
RESERVED = (("[PAD]", PAD), ("[CLS]", CLS), ("[SEP]", SEP), ("[MASK]", MASK), ("[UNK]", UNK))

SEG_SPECIAL = "special"
SEG_COMMENT = "comment"
SEG_CODE = "code"
SEG_NODE = "node"

# Attention is blocked by adding a large negative constant to the score,
# not a literal -inf: exp() then underflows to exactly zero.
MASK_PENALTY = -1e9

# What `Vocabulary.serialize` escapes in a token: the characters that would
# end its field or its line, and the backslash that starts an escape.
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {esc[1]: ch for ch, esc in _ESCAPES.items()}
_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
# An id in a vocabulary file: ASCII digits only, and few enough that int()
# stays far below Python's digit limit and the value fits an int64.
_ID = re.compile(r"[0-9]{1,18}")


class EmptyCorpus(DataError):
    pass


class VocabularyError(DataError):
    """A vocabulary file that does not parse, or ids a model cannot embed."""


class SequenceTooLong(DataError):
    pass


@dataclass(frozen=True)
class Limits:
    """Most comment words, code tokens and nodes kept; ``max_nodes=0`` drops the nodes."""

    max_comment: int = 128
    max_code: int = 256
    max_nodes: int = 64

    def __post_init__(self):
        for name in ("max_comment", "max_code", "max_nodes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, not {getattr(self, name)}")


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]

    def __len__(self) -> int:
        return len(self.token_to_id)

    def serialize(self) -> str:
        """Sorted ``token\\tid`` lines; backslash, tab, newline and carriage
        return escaped."""
        table = str.maketrans(_ESCAPES)
        lines = [f"{token.translate(table)}\t{idx}" for token, idx in sorted(self.token_to_id.items())]
        return "\n".join(lines) + "\n"

    @staticmethod
    def deserialize(text: str) -> "Vocabulary":
        """Parse `serialize`'s lines, split at ``\\n`` only. Raises
        VocabularyError for a line that is not ``token<TAB>id`` with an id of
        1 to 18 ASCII digits, an unknown escape, a token listed twice or an
        id two tokens hold."""
        mapping: dict[str, int] = {}
        holders: dict[int, str] = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            esc, tab, idx = line.rpartition("\t")
            if not tab or not _ID.fullmatch(idx):
                raise VocabularyError(f"line {lineno}: expected token<TAB>id, got {line[:40]!r}")

            def unescape(m: re.Match) -> str:
                if m[1] not in _UNESCAPES:
                    raise VocabularyError(f"line {lineno}: unknown escape {m[0]!r} in {esc[:40]!r}")
                return _UNESCAPES[m[1]]

            token = _ESCAPE.sub(unescape, esc)
            number = int(idx)
            if token in mapping:
                raise VocabularyError(f"line {lineno}: token {token!r} is listed twice")
            if number in holders:
                raise VocabularyError(f"line {lineno}: id {number} of {token!r} is already held by {holders[number]!r}")
            mapping[token] = number
            holders[number] = token
        return Vocabulary(mapping)


def comment_tokens(comment: str) -> list[str]:
    return comment.split()


# The model-facing names of the structural tokens; every other token is its text.
_NAMES = {"newline": "<nl>", "indent": "<ind>", "dedent": "<ded>"}


def code_token_strings(tokens: list[Token]) -> list[str]:
    """Canonical model-facing strings: structural tokens get stable names."""
    return [_NAMES.get(kind, text) for kind, text in tokens]


def build_vocab(corpus: list[tuple[str, str]], size: int) -> Vocabulary:
    """Frequency vocabulary over (comment, code) pairs.

    The five reserved ids come first; the remaining ``size - 5`` slots go to
    the most frequent tokens, ties broken by the lexicographically smaller
    token.
    """
    from .frontend.lexer import tokenize

    if size < 5:
        raise ValueError(f"vocabulary size must be at least 5, got {size}")
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for comment, code in corpus:
        counts.update(comment_tokens(comment))
        counts.update(code_token_strings(tokenize(code)))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mapping = dict(RESERVED)
    for token, _ in ranked[: size - 5]:
        mapping[token] = len(mapping)
    return Vocabulary(mapping)


@dataclass(frozen=True)
class EncodedExample:
    ids: tuple[int, ...]
    segments: tuple[str, ...]
    position_ids: tuple[int, ...]
    node_edges: frozenset[tuple[int, int]]  # <src_pos, dst_pos> over positions
    node_token_links: frozenset[tuple[int, int]]  # <node_pos, code_pos>

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def node_positions(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.segments) if s == SEG_NODE)

    @property
    def code_positions(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.segments) if s == SEG_CODE)


def encode_example(
    comment: str | None,
    code: str | None,
    vocab: Vocabulary,
    limits: Limits = Limits(),
    max_positions: int = 512,
) -> EncodedExample:
    """Build the ``[CLS] W [SEP] C [SEP] V`` input for one example.

    The code is lexed and parsed once, also without nodes, so encoding code
    raises the frontend's error for code that does not lex or parse. The
    node segment is read straight off the data-flow walk's occurrences and
    token-index edges, in one pass: they give the nodes and edges of
    `dfg.build_dfg`, with no graph built. Comment, code and node sequences
    are truncated to their limits; a node whose source token fell past the
    code truncation point is dropped, and edges touching dropped nodes are
    dropped with them. ``Limits(max_nodes=0)``, the no-data-flow ablation,
    runs no walk. A None comment or code drops that whole segment with the
    [SEP] that follows it (comment-only query encoding, code-only candidate
    encoding); without the code segment there are no nodes either.

    The comment/code block takes sequential positions from 0; every node
    shares the reserved id ``max_positions - 1``. Raises SequenceTooLong when
    the block needs more than ``max_positions - 1`` positions.
    """
    from .frontend.lexer import tokenize
    from .frontend.parser import parse

    get = vocab.token_to_id.get
    ids: list[int] = [CLS]
    segments: list[str] = [SEG_SPECIAL]
    if comment is not None:
        words = comment_tokens(comment)[: limits.max_comment]
        ids += [get(w, UNK) for w in words]
        ids.append(SEP)
        segments += [SEG_COMMENT] * len(words)
        segments.append(SEG_SPECIAL)
    links: frozenset[tuple[int, int]] = frozenset()
    edges: frozenset[tuple[int, int]] = frozenset()
    n_nodes = 0
    if code is not None:
        tokens = tokenize(code)
        tree = parse(tokens)
        kept_code = tokens[: limits.max_code]
        n_code = len(kept_code)
        code_start = len(ids)  # token i sits at position code_start + i
        ids += [get(_NAMES.get(kind, text), UNK) for kind, text in kept_code]
        ids.append(SEP)
        segments += [SEG_CODE] * n_code
        segments.append(SEG_SPECIAL)

        # The nodes are the first `max_nodes` occurrences, in token order,
        # whose token was kept: a prefix of them all. Node k sits at position
        # first + k, and an edge stays when both its ends are in the prefix.
        if limits.max_nodes:
            walk = DataFlowWalk(tree)
            names = walk.occurrences
            kept = sorted([tok for tok in names if tok < n_code])[: limits.max_nodes]
            first, n_nodes = len(ids), len(kept)
            ids += [get(names[tok], UNK) for tok in kept]
            segments += [SEG_NODE] * n_nodes
            position = {tok: first + k for k, tok in enumerate(kept)}
            last = kept[-1] if kept else -1
            # Frozen from sets, which size the table to fit: from a list it can
            # take twice the memory, and callers keep every example.
            links = frozenset({(pos, code_start + tok) for tok, pos in position.items()})
            edges = frozenset({(position[src], position[dst]) for src, dst in walk.edges if src <= last and dst <= last})

    sequential = len(ids) - n_nodes
    p_node = max_positions - 1
    if sequential > p_node:
        raise SequenceTooLong(f"sequence needs {sequential} sequential positions, only {p_node} available")
    return EncodedExample(
        ids=tuple(ids),
        segments=tuple(segments),
        position_ids=(*range(sequential), *[p_node] * n_nodes),
        node_edges=edges,
        node_token_links=links,
    )


def build_attention_mask(example: EncodedExample) -> np.ndarray:
    """Boolean allow-matrix: ``mask[i, j]`` is True when query ``i`` may
    attend key ``j``.

    Allowed entries: special-token queries see every key; any pair within
    the special/comment/code block; a node query sees the source of each of
    its incoming data-flow edges; node<->code alignment links both ways; a
    node sees itself. An example encoded without data flow has no nodes, so
    its mask allows every pair.
    """
    n = len(example)
    segs = example.segments
    is_node = np.array([s == SEG_NODE for s in segs], dtype=bool)
    is_special = np.array([s == SEG_SPECIAL for s in segs], dtype=bool)
    in_text_block = ~is_node  # special | comment | code

    mask = in_text_block[:, None] & in_text_block[None, :]
    mask |= is_special[:, None]  # [CLS]/[SEP] queries see everything
    for src, dst in example.node_edges:
        mask[dst, src] = True  # query = edge destination, key = edge source
    for npos, cpos in example.node_token_links:
        mask[npos, cpos] = True
        mask[cpos, npos] = True
    idx = np.where(is_node)[0]
    mask[idx, idx] = True  # node self-attention
    mask.flags.writeable = False
    return mask


def additive_mask(allow: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Convert a boolean allow-matrix to the additive form used in scores:
    0 where allowed, MASK_PENALTY where blocked."""
    # 1 - 1 = +0.0 where allowed, -1 * -MASK_PENALTY where blocked: the bits
    # `np.where(allow, 0.0, MASK_PENALTY)` gives, in a tenth of its time
    out = np.array(allow, dtype=dtype)
    out -= 1
    out *= -MASK_PENALTY
    out.flags.writeable = False
    return out


def mask_density(allow: np.ndarray) -> float:
    return float(allow.sum()) / float(allow.size)
