"""Vocabulary, sequence layout, positions, and the attention mask."""

import hashlib
import json

import numpy as np
import pytest

from codeflow.encoding import (
    CLS,
    MASK,
    MASK_PENALTY,
    PAD,
    SEP,
    UNK,
    EncodedExample,
    Limits,
    Vocabulary,
    additive_mask,
    build_attention_mask,
    build_vocab,
    code_token_strings,
    comment_tokens,
    encode_example,
    mask_density,
)
from codeflow import downstream, encoding
from codeflow.errors import DataError
from codeflow.dfg import build_dfg, extract_dfg, serialize_dfg
from codeflow.frontend import lexer, parser
from codeflow.frontend.errors import FrontendError
from codeflow.frontend.lexer import tokenize
from codeflow.frontend.parser import parse
from codeflow.pretrain import encode_corpus, sampling_arrays
from helpers import mask_oracle, overfit_corpus, random_program

COMMENT = "sum of values"
CODE = "a = 1\nb = a\n"


def encode(comment=COMMENT, code=CODE, **kw):
    vocab = build_vocab([(comment, code)], size=64)
    return encode_example(comment, code, vocab, **kw)


class TestVocabulary:
    def test_reserved_ids(self):
        v = build_vocab([("a", "x = 1\n")], size=32)
        assert v.token_to_id.get("[PAD]", UNK) == PAD == 0
        assert v.token_to_id.get("[CLS]", UNK) == CLS == 1
        assert v.token_to_id.get("[SEP]", UNK) == SEP == 2
        assert v.token_to_id.get("[MASK]", UNK) == MASK == 3
        assert v.token_to_id.get("[UNK]", UNK) == UNK == 4

    def test_frequency_then_lexicographic(self):
        v = build_vocab([("b b a a c", "")], size=8)
        assert v.token_to_id.get("a", UNK) == 5
        assert v.token_to_id.get("b", UNK) == 6
        assert v.token_to_id.get("c", UNK) == 7

    def test_unknown_maps_to_unk(self):
        v = build_vocab([("a", "")], size=8)
        assert v.token_to_id.get("never-seen", UNK) == UNK

    def test_size_cap(self):
        v = build_vocab([("a b c d e f g", "")], size=7)
        assert len(v) == 7

    def test_counts_comment_and_code_together(self):
        # "a" appears once in the comment and twice in the code.
        v = build_vocab([("a zz", "a = a\n")], size=6)
        assert v.token_to_id.get("a", UNK) == 5
        assert v.token_to_id.get("zz", UNK) == UNK

    def test_size_below_reserved_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([("a", "")], size=4)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="^cannot build a vocabulary from an empty corpus$"):
            build_vocab([], size=32)

    def test_serialize_round_trip(self):
        v = build_vocab([("alpha beta", "x = y + 1\n")], size=32)
        assert Vocabulary.deserialize(v.serialize()).token_to_id == v.token_to_id

    def test_serialize_escapes(self):
        # the last three spell escapes with a backslash: the MiniLang literal "\n" and the like
        v = Vocabulary({"a\\b": 5, "c\td": 6, "e\nf": 7, "g\rh": 8, '"\\n"': 9, "a\\tb": 10, "x\\\\n": 11})
        text = v.serialize()
        assert "a\\\\b\t5" in text and "g\\rh\t8" in text
        assert Vocabulary.deserialize(text).token_to_id == v.token_to_id

    def test_serialize_round_trip_fuzz(self):
        """Tokens built from escape letters, backslashes, quotes and
        characters `str.splitlines` breaks a line at."""
        rng = np.random.default_rng(4)
        alphabet = ["\\", "n", "t", "r", "a", '"', "\t", "\n", "\r", "\x0c", "\x85", "\u2028"]
        for _ in range(300):
            tokens = {"".join(rng.choice(alphabet, size=int(rng.integers(1, 8)))) for _ in range(6)}
            v = Vocabulary({tok: i for i, tok in enumerate(sorted(tokens), start=5)})
            text = v.serialize()
            assert text.count("\n") == len(v)
            assert Vocabulary.deserialize(text).token_to_id == v.token_to_id

    @pytest.mark.parametrize("line", ["a\\q\t5\n", "a\\\t5\n", "\\x41\t5\n"])
    def test_unknown_escape_is_rejected(self, line):
        with pytest.raises(DataError, match="^line 1: unknown escape"):
            Vocabulary.deserialize(line)


class TestTokenStreams:
    def test_comment_tokens_split_on_whitespace(self):
        assert comment_tokens("  sum  of\tvalues ") == ["sum", "of", "values"]

    def test_code_token_strings(self):
        strings = code_token_strings(tokenize("if x > 0:\n    y = 1\n"))
        assert strings == [
            "if", "x", ">", "0", ":", "<nl>", "<ind>", "y", "=", "1", "<nl>", "<ded>",
        ]


class TestLayout:
    def test_hand_checked_layout(self):
        ex = encode()
        vocab = build_vocab([(COMMENT, CODE)], size=64)
        # [CLS] sum of values [SEP] a = 1 <nl> b = a <nl> [SEP] a b a
        assert len(ex) == 17
        assert ex.segments == (
            "special",
            "comment", "comment", "comment",
            "special",
            "code", "code", "code", "code", "code", "code", "code", "code",
            "special",
            "node", "node", "node",
        )
        assert ex.ids[0] == CLS
        assert ex.ids[4] == SEP and ex.ids[13] == SEP
        assert ex.ids[1] == vocab.token_to_id.get("sum", UNK)
        assert ex.ids[5] == vocab.token_to_id.get("a", UNK)
        assert ex.ids[14] == vocab.token_to_id.get("a", UNK)  # node carries its variable name
        assert ex.ids[15] == vocab.token_to_id.get("b", UNK)

    def test_positions_sequential_then_shared(self):
        ex = encode(max_positions=512)
        assert ex.position_ids[:14] == tuple(range(14))
        assert ex.position_ids[14:] == (511, 511, 511)

    def test_links_and_edges_in_positions(self):
        ex = encode()
        # code block starts at 5: a=5 ==6 1=7 <nl>=8 b=9 ==10 a=11 <nl>=12
        assert ex.node_token_links == {(14, 5), (15, 9), (16, 11)}
        # dfg edges (0,2),(2,1) in node-position space
        assert ex.node_edges == {(14, 16), (16, 15)}

    def test_position_properties(self):
        ex = encode()
        assert [i for i, s in enumerate(ex.segments) if s == "comment"] == [1, 2, 3]
        assert ex.code_positions == tuple(range(5, 13))
        assert ex.node_positions == (14, 15, 16)
        assert sampling_arrays(ex).maskable.tolist() == [1, 2, 3] + list(range(5, 13))

    def test_comment_only(self):
        ex = encode_example(COMMENT, None, build_vocab([(COMMENT, CODE)], size=64))
        assert ex.segments == ("special", "comment", "comment", "comment", "special")
        assert ex.node_positions == ()
        assert ex.node_edges == frozenset()

    def test_code_only(self):
        ex = encode_example(None, CODE, build_vocab([(COMMENT, CODE)], size=64))
        assert ex.segments[0] == "special"
        assert "comment" not in ex.segments
        assert ex.code_positions == tuple(range(1, 9))
        assert ex.node_positions == (10, 11, 12)

    def test_no_dataflow_still_has_code(self):
        ex = encode(limits=Limits(max_nodes=0))
        assert ex.node_positions == ()
        assert ex.node_edges == frozenset()
        assert len(ex) == 14

    def test_deterministic(self):
        assert encode() == encode()


class TestNoDataflowAblation:
    """`Limits(max_nodes=0)` drops exactly the node segment."""

    @staticmethod
    def cut_after_last_sep(ex):
        end = len(ex.ids) - ex.ids[::-1].index(SEP)
        return ex.ids[:end], ex.segments[:end], ex.position_ids[:end]

    @pytest.mark.parametrize(
        "encoder",
        [
            lambda code, vocab, limits: encode_example("find the value", code, vocab, limits),
            lambda code, vocab, limits: downstream.encode_code_example(code, vocab, limits),
        ],
        ids=["encode_example", "encode_code_example"],
    )
    def test_equals_default_cut_after_last_sep(self, encoder):
        rng = np.random.default_rng(8)
        vocab = Vocabulary(dict((t, i) for t, i in zip("abcdefgh", range(5, 13))))
        for _ in range(400):
            code = random_program(rng, max_depth=4)
            full = encoder(code, vocab, Limits())
            ablated = encoder(code, vocab, Limits(max_nodes=0))
            assert (ablated.ids, ablated.segments, ablated.position_ids) == self.cut_after_last_sep(full)
            assert ablated.node_edges == frozenset() and ablated.node_token_links == frozenset()


class TestNodeSegment:
    """`encode_example` reads its nodes off the data-flow walk; they are the
    public graph's: `build_dfg`'s nodes whose token was kept, the first
    `max_nodes` of them, node k at position ``first + k``, its link to its
    code token, and the edges between kept nodes."""

    @staticmethod
    def from_graph(code, limits, first, code_start):
        tokens = tokenize(code)
        g = build_dfg(parse(tokens))
        nodes = [n for n in g.nodes if n.token_index < min(len(tokens), limits.max_code)][: limits.max_nodes]
        kept = len(nodes)
        links = {(first + n.id, code_start + n.token_index) for n in nodes}
        edges = {(first + src, first + dst) for src, dst in g.edges if src < kept and dst < kept}
        return [n.name for n in nodes], links, edges

    @pytest.mark.parametrize(
        "max_code,max_nodes", [(256, 64), (256, 0), (40, 64), (40, 5), (12, 3), (5, 0), (0, 64), (300, 1)]
    )
    def test_matches_the_public_graph(self, max_code, max_nodes):
        rng = np.random.default_rng(19)
        programs = [random_program(rng, max_depth=4) for _ in range(150)]
        vocab = build_vocab([("", code) for code in programs], size=4096)  # every name has its own id
        limits = Limits(max_code=max_code, max_nodes=max_nodes)
        nodes = 0
        for code in programs:
            ex = encode_example("find the value", code, vocab, limits)
            first = len(ex) - ex.segments.count("node")
            names, links, edges = self.from_graph(code, limits, first, code_start=5)
            assert list(ex.ids[first:]) == [vocab.token_to_id.get(name, UNK) for name in names]
            assert ex.node_token_links == links
            assert ex.node_edges == edges
            nodes += len(names)
        assert nodes > 0 or 0 in (max_code, max_nodes)


class TestPinnedEncoding:
    """A sha256 over what `encode_example` emits for 200 random programs with
    one vocabulary, and over each program's serialized graph, so a change to
    the frontend or the encoder that claims to keep its outputs must
    reproduce every id, segment, position, edge and node-to-code link."""

    DIGEST = "fa25b48ba0ccccaae46afe238f74cf3583d255dfdade4233bdc021e032ccda88"

    def test_outputs_are_pinned(self):
        rng = np.random.default_rng(7)  # 26 of its 200 programs pass the 256-token code limit
        rows = [(f"row {i} of the {('alpha', 'omega')[i % 2]} set", random_program(rng, max_depth=4)) for i in range(200)]
        vocab = build_vocab(rows, size=96)
        digest = hashlib.sha256()
        for comment, code in rows:
            ex = encode_example(comment, code, vocab)
            fields = [ex.ids, ex.segments, ex.position_ids, sorted(ex.node_edges), sorted(ex.node_token_links)]
            digest.update(json.dumps(fields).encode())
            digest.update(serialize_dfg(extract_dfg(code)).encode())
        assert digest.hexdigest() == self.DIGEST


class TestSingleLex:
    """Encoding code lexes and parses it once, and builds the graph from those tokens."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"tokenize": 0, "parse": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(lexer, "tokenize")
        counting(parser, "parse")
        return counts

    def test_code_is_lexed_and_parsed_once(self, calls):
        encode_example(COMMENT, CODE, Vocabulary({}))
        assert calls == {"tokenize": 1, "parse": 1}

    def test_comment_only_lexes_nothing(self, calls):
        encode_example(COMMENT, None, Vocabulary({}))
        assert calls == {"tokenize": 0, "parse": 0}

    def test_filter_vocab_encode_pass_lexes_each_program_three_times(self, calls):
        """`tokenize` and `parse` are looked up when called, so a patched
        function sees every call (the benchmark's tracer counts them so): the
        filter lexes and parses, the vocabulary lexes, encoding lexes and
        parses again."""
        items = overfit_corpus(8)
        kept = downstream.filter_search_corpus(items)
        vocab = build_vocab([(it.docstring, it.code) for it in kept], 64)
        encode_corpus(kept, vocab)
        assert len(kept) == len(items)
        assert calls == {"tokenize": 3 * len(items), "parse": 2 * len(items)}

    def test_no_walk_without_nodes(self, calls, monkeypatch):
        # The no-data-flow ablation keeps no node, so no walk runs; the parse
        # still does, and raises for code that does not parse.
        walks = []

        class CountingWalk(encoding.DataFlowWalk):
            def __init__(self, module):
                walks.append(module)
                super().__init__(module)

        monkeypatch.setattr(encoding, "DataFlowWalk", CountingWalk)
        encode_example(COMMENT, CODE, Vocabulary({}), Limits(max_nodes=0))
        assert len(walks) == 0 and calls == {"tokenize": 1, "parse": 1}
        assert len(encode_example(COMMENT, CODE, Vocabulary({}), Limits()).node_positions) == 3
        assert len(walks) == 1 and calls == {"tokenize": 2, "parse": 2}
        with pytest.raises(FrontendError, match=r"^expected one of \['\)'\], got end of input \(token index 4\)$"):
            encode_example(COMMENT, "a = (1\n", Vocabulary({}), Limits(max_nodes=0))


class TestTruncation:
    def test_comment_truncated(self):
        ex = encode(comment="one two three four", limits=Limits(max_comment=2))
        assert ex.segments.count("comment") == 2

    def test_code_truncated_and_orphan_nodes_dropped(self):
        # Keeping 6 code tokens keeps a@0 and b@4 but drops the use a@6;
        # both data-flow edges touch the dropped node.
        ex = encode(limits=Limits(max_code=6))
        assert len(ex.code_positions) == 6
        assert len(ex.node_positions) == 2
        assert ex.node_edges == frozenset()

    @pytest.mark.parametrize("field", ["max_comment", "max_code", "max_nodes"])
    def test_negative_limit_raises(self, field):
        # a negative cap would slice from the end and silently drop the last
        # comment word, code token or node; zero stays valid (no data flow)
        with pytest.raises(ValueError, match=field):
            Limits(**{field: -1})
        assert getattr(Limits(**{field: 0}), field) == 0

    def test_node_cap_keeps_token_order_prefix(self):
        ex = encode(limits=Limits(max_nodes=2))
        assert len(ex.node_positions) == 2
        vocab = build_vocab([(COMMENT, CODE)], size=64)
        assert ex.ids[ex.node_positions[0]] == vocab.token_to_id.get("a", UNK)
        assert ex.ids[ex.node_positions[1]] == vocab.token_to_id.get("b", UNK)

    def test_sequence_too_long(self):
        # 14 sequential slots are needed; p_node = max_positions - 1 must
        # leave room for positions 0..13.
        encode(max_positions=15)
        with pytest.raises(DataError, match=r"^sequence needs 14 sequential positions, only 13 available$"):
            encode(max_positions=14)
        # far past the boundary, the message still counts the whole block
        with pytest.raises(DataError, match=r"^sequence needs 14 sequential positions, only 1 available$"):
            encode(max_positions=2)


class TestMask:
    def test_hand_checked_rows(self):
        ex = encode()
        mask = build_attention_mask(ex)
        text = set(range(14))
        # beyond the text block: specials see everything, and the three code
        # tokens with an aligned node see that node (links are symmetric)
        extra = {0: {14, 15, 16}, 4: {14, 15, 16}, 13: {14, 15, 16}, 5: {14}, 9: {15}, 11: {16}}
        for i in range(14):
            assert set(np.where(mask[i])[0]) == text | extra.get(i, set())
        for i in (0, 4, 13):
            assert mask[i].all()
        # node rows: linked code token, self, then edge sources
        assert set(np.where(mask[14])[0]) == {5, 14}
        assert set(np.where(mask[15])[0]) == {9, 15, 16}
        assert set(np.where(mask[16])[0]) == {11, 16, 14}
        # alignment links are symmetric
        assert mask[5, 14] and mask[9, 15] and mask[11, 16]

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(99)
        vocab = Vocabulary(dict((t, i) for t, i in zip("abcdefgh", range(5, 13))))
        for _ in range(200):
            code = random_program(rng)
            ex = encode_example("find the value", code, vocab)
            got = build_attention_mask(ex)
            assert np.array_equal(got, mask_oracle(ex))

    def test_nodeless_example_allows_every_pair(self):
        ex = encode(limits=Limits(max_nodes=0))
        assert ex.node_positions == ()
        assert build_attention_mask(ex).all()  # no nodes: everything is one text block

    def test_mask_not_writeable(self):
        mask = build_attention_mask(encode())
        with pytest.raises(ValueError):
            mask[0, 0] = False


class TestAdditiveMask:
    def test_values_and_dtype(self):
        allow = build_attention_mask(encode())
        add = additive_mask(allow)
        assert add.dtype == np.float32
        assert set(np.unique(add)) == {MASK_PENALTY, 0.0}
        assert (add == 0.0).sum() == allow.sum()

    def test_dtype_override(self):
        allow = np.array([[True, False]])
        add = additive_mask(allow, dtype=np.float64)
        assert add.dtype == np.float64
        assert add[0, 1] == MASK_PENALTY

    def test_exp_underflows_to_zero(self):
        assert np.exp(np.float32(MASK_PENALTY)) == 0.0


def test_mask_density():
    allow = np.array([[True, False], [True, True]])
    assert mask_density(allow) == 0.75
    ex = encode(limits=Limits(max_nodes=0))
    assert mask_density(build_attention_mask(ex)) == 1.0


def test_encoded_example_len():
    ex = encode()
    assert len(ex) == len(ex.ids) == len(ex.segments) == len(ex.position_ids)
