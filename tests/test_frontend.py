import itertools
import sys

import numpy as np
import pytest

from codeflow.dfg import build_dfg
from codeflow.frontend.errors import (
    IndentationMismatch,
    InvalidCharacter,
    LexError,
    MiniLangSyntaxError,
    UnterminatedString,
)
from codeflow.frontend import lexer
from codeflow.frontend.lexer import OPERATORS, Token, tokenize
from codeflow.frontend.parser import MAX_NESTING, parse, parse_source
from codeflow.frontend.syntax import Assign, AugAssign, BinOp, Call, For, FunctionDef, If, Literal, Name, Return, While
from helpers import pretty, random_program, reference_parse, reference_tokenize, walk


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)]


class TestLexer:
    def test_token_stream_shape(self):
        toks = tokenize("x = y + 2\n")
        assert [(t.kind, t.text) for t in toks] == [
            ("identifier", "x"),
            ("operator", "="),
            ("identifier", "y"),
            ("operator", "+"),
            ("number", "2"),
            ("newline", "\n"),
        ]

    def test_token_texts_follow_the_source(self):
        src = "total = rate * 10\n"
        at = 0
        for t in tokenize(src):
            start = src.index(t.text, at)
            assert src[at:start].strip(" ") == ""  # only blanks between tokens
            at = start + len(t.text)
        assert at == len(src)

    def test_keywords_are_not_identifiers(self):
        assert kinds("return x\n") == ["keyword", "identifier", "newline"]
        assert kinds("forward = 1\n")[0] == "identifier"  # prefix of a keyword

    def test_comments_and_blank_lines_vanish(self):
        src = "# top\n\nx = 1  # tail\n   \n# only\n"
        assert texts(src) == ["x", "=", "1", "\n"]

    def test_newline_inside_parens_is_whitespace(self):
        assert kinds("f(a,\n  b)\n") == [
            "identifier", "operator", "identifier", "operator", "identifier", "operator", "newline",
        ]

    def test_indent_dedent_pairing(self):
        src = "if x > 0:\n    y = 1\nz = 2\n"
        ks = kinds(src)
        assert ks.count("indent") == 1 and ks.count("dedent") == 1
        assert ks.index("dedent") > ks.index("indent")

    def test_eof_closes_open_indentation(self):
        ks = kinds("if x > 0:\n    if y > 0:\n        z = 1")
        assert ks.count("indent") == 2 and ks.count("dedent") == 2

    def test_longest_operator_wins(self):
        assert texts("a <= b\n")[1] == "<="
        assert texts("a += b\n")[1] == "+="
        assert texts("a == b\n")[1] == "=="
        assert texts("a = b\n")[1] == "="

    def test_every_operator_is_one_token(self):
        for op in OPERATORS:
            assert tokenize(op) == [Token("operator", op)]

    def test_two_operator_characters_not_in_the_table_are_two_tokens(self):
        # guards the pattern's operator classes against drifting from OPERATORS:
        # '!' alone is no operator, so a run with it fails at the '!'
        chars = sorted(set("".join(OPERATORS)))
        for a, b in itertools.product(chars, repeat=2):
            if a + b in OPERATORS:
                continue
            if a in OPERATORS and b in OPERATORS:
                assert tokenize(a + b) == [Token("operator", a), Token("operator", b)]
            else:
                with pytest.raises(InvalidCharacter) as err:
                    tokenize(a + b)
                assert err.value.offset == (a + b).index("!")

    def test_float_and_int_numbers(self):
        assert [(t.kind, t.text) for t in tokenize("x = 1.25 + 3\n")][2][1] == "1.25"

    def test_string_literals_and_escapes(self):
        toks = tokenize("s = 'it\\'s'\n")
        assert toks[2].kind == "string" and toks[2].text == "'it\\'s'"
        toks = tokenize('s = "two words"\n')
        assert toks[2].text == '"two words"'

    def test_unterminated_string(self):
        with pytest.raises(UnterminatedString):
            tokenize("s = 'open\n")
        with pytest.raises(UnterminatedString):
            tokenize("s = 'open")

    def test_invalid_character(self):
        with pytest.raises(InvalidCharacter) as exc:
            tokenize("x = 1 @ 2\n")
        assert exc.value.offset == 6

    def test_bad_unindent(self):
        with pytest.raises(IndentationMismatch):
            tokenize("if x > 0:\n        y = 1\n    z = 2\n")

    @pytest.mark.parametrize("src, offset", [("é = 1\n", 0), ("x = ٣\n", 4)], ids=["letter", "digit"])
    def test_non_ascii_letters_and_digits_are_invalid(self, src, offset):
        with pytest.raises(InvalidCharacter) as exc:
            tokenize(src)
        assert exc.value.offset == offset

    def test_backslash_as_last_byte_of_a_string_hits_end_of_input(self):
        with pytest.raises(UnterminatedString, match="end of input") as exc:
            tokenize("s = 'a\\")
        assert exc.value.offset == 4

    def test_trailing_dot_is_not_part_of_a_number(self):
        assert texts("x = 1.5\n")[2] == "1.5"
        with pytest.raises(InvalidCharacter, match="'.'") as exc:  # `1` lexed, then the dot fails
            tokenize("x = 1.\n")
        assert exc.value.offset == 5

    def test_crlf_line_ends(self):
        assert [(t.kind, t.text) for t in tokenize("x = 1\r\ny = 2\r\n") if t.kind in ("number", "newline")] == [
            ("number", "1"), ("newline", "\n"), ("number", "2"), ("newline", "\n"),
        ]

    def test_comment_only_last_line_without_newline(self):
        toks = tokenize("if a:\n    x = 1\n  # done")
        assert [t.kind for t in toks][-3:] == ["number", "newline", "dedent"]
        assert toks[-1] == Token("dedent", "")

    def test_tokens_are_immutable_hashable_tuples(self):
        tok = tokenize("x\n")[0]
        assert repr(tok) == "Token(kind='identifier', text='x')"
        assert tok == tokenize("x\n")[0] and hash(tok) == hash(tokenize("x\n")[0])
        with pytest.raises(AttributeError):
            tok.text = "y"

    def test_no_token_table_outlives_a_call(self):
        """Each call builds its identifier and number tokens in a table of its
        own: lexing many sources leaves the shared fixed-token table as it
        was, lexing A first changes nothing in what B gives, and two calls
        share no token object beyond the fixed ones."""
        fixed = dict(lexer._FIXED)
        rng = np.random.default_rng(12)
        sources = [random_program(rng, max_depth=3) for _ in range(200)]
        alone = [tokenize(s) for s in sources]
        shared = {id(t) for t in fixed.values()} | {id(lexer._DEDENT)}
        for a, b, b_alone in zip(sources, sources[1:], alone[1:]):
            tokens_a, tokens_b = tokenize(a), tokenize(b)
            assert tokens_b == b_alone
            assert {id(t) for t in tokens_a} & {id(t) for t in tokens_b} <= shared
        assert len(lexer._FIXED) == len(fixed)
        assert all(lexer._FIXED[text] is token for text, token in fixed.items())


MUTATION_ALPHABET = "ab_01.9 \t\r\n#'\"\\()=+-*/%<>!,:@é٣"


def _lex_outcome(lex, source):
    try:
        return lex(source)  # each token is its (kind, text)
    except LexError as e:
        return (type(e), str(e), e.offset)


def _pick_chars(rng, alphabet, k):
    return [alphabet[int(i)] for i in rng.integers(len(alphabet), size=k)]


def _oracle_inputs() -> list[str]:
    """400 seeded random programs, a 1-3-edit byte mutant of each and a short
    random string per program, over `MUTATION_ALPHABET`."""
    rng = np.random.default_rng(10)
    alphabet = list(MUTATION_ALPHABET)
    inputs = []
    for _ in range(400):
        program = random_program(rng, max_depth=4)
        mutated = list(program)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(mutated)))
            mutated[at : at + int(rng.integers(2))] = _pick_chars(rng, alphabet, int(rng.integers(2)))
        inputs += [program, "".join(mutated), "".join(_pick_chars(rng, alphabet, int(rng.integers(1, 16))))]
    return inputs


def test_tokenize_matches_the_character_loop_reference():
    """Differential oracle: the pattern lexer gives the reference lexer's
    tokens, or its error class, message and offset, on random programs,
    byte mutations of them and short random strings."""
    inputs = _oracle_inputs()
    outcomes = [_lex_outcome(reference_tokenize, src) for src in inputs]
    mismatches = [src for src, want in zip(inputs, outcomes) if _lex_outcome(tokenize, src) != want]
    assert mismatches == []
    raised = sum(isinstance(o, tuple) for o in outcomes)
    assert 0.2 * len(inputs) < raised < 0.8 * len(inputs)  # both the token and the error paths ran


@pytest.mark.parametrize(
    "source",
    [
        # trailing blanks or a trailing comment, with no final newline
        "x = 1  ", "x = 1\t\r", "  ", "x\n  ", "if a:\n    x = 1\n      ", "if a:\n    x = 1\n  ",
        "x = 1  # done", "# only", "if a:\n    x = 1\n    # done", "f(x  # open",
        # carriage returns and tabs inside indentation
        "if a:\n\t b = 1\n\t c = 2\n", "if a:\n \r b\n", "if a:\n\r\n    b\n\r", "if a:\n\tb\n        c\n",
        "if a:\n  \tb\n\t  c\n",
        # an invalid character or unterminated string where the indentation
        # matches no outer level, at the line start and before it
        "if a:\n    b\n  @\n", "if a:\n    b\n  'c\n", "if a:\n    b\n  \"c", "if a:\n    b\n  é = 1\n",
        "if a:\n    b @\n  c\n", "if a:\n    'b\n  c\n", "if a:\n    b\n  c\n@",
        # a string ending in a backslash at the end of input
        "s = 'a\\", '"\\', "s = 'a\\'", "s = 'a\\\\",
        # a newline inside parentheses at a line start
        "(\n)\n", "f(\n  x,\n)\n", "if a:\n    (\n  b)\n    c\n", "x = (\n1\n)\n  y\n", "f(\n\n  # c\n  a)\n",
        # where the order of the pattern's alternatives decides the pieces
        "a!=b", "a ! b", "x=<y", "a==b==c", "**", "1.x", "x = 1.",
        "'a#b'", '"#"\n', "a#b\n", ")(", "x = 1\n# c\r\ny = 2\n",
    ],
)
def test_tokenize_matches_the_reference_on_edge_cases(source):
    assert _lex_outcome(tokenize, source) == _lex_outcome(reference_tokenize, source)


def _parse_outcome(parse_tokens, tokens):
    try:
        module = parse_tokens(tokens)
    except MiniLangSyntaxError as e:
        return (type(e), str(e), e.token_index, e.expected)
    nodes = list(walk(module))
    return module, [type(n) for n in nodes], [n.raw for n in nodes if isinstance(n, Literal)]


def _token_mutants(rng, token_lists, count):
    """Token lists with 1-3 edits, each deleting, duplicating, inserting or
    replacing a token (new tokens come from any of the lists)."""
    pool = [tok for tokens in token_lists for tok in tokens]
    out = []
    for _ in range(count):
        tokens = list(token_lists[int(rng.integers(len(token_lists)))])
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(tokens) + 1))
            new = [pool[int(rng.integers(len(pool)))]] if rng.random() < 0.5 else tokens[at : at + 1] * 2
            tokens[at : at + int(rng.integers(2))] = new[: int(rng.integers(3))]
        out.append(tokens)
    return out


def test_parse_matches_the_token_by_token_reference():
    """Differential oracle: `parse` gives the reference parser's AST (equal,
    with the same node and literal types) or its error class, message, token
    index and expected set, on every lexer-oracle input that lexes and on
    token-level mutants of the random programs."""
    inputs = _oracle_inputs()
    token_lists = []
    for src in inputs:
        try:
            token_lists.append(tokenize(src))
        except LexError:
            continue
    programs = [tokenize(src) for src in inputs[::3]]  # every third input is an unmutated program
    token_lists += _token_mutants(np.random.default_rng(11), programs, 400)
    outcomes = [_parse_outcome(reference_parse, tokens) for tokens in token_lists]
    mismatches = [
        tokens for tokens, want in zip(token_lists, outcomes) if _parse_outcome(parse, tokens) != want
    ]
    assert mismatches == []
    raised = sum(isinstance(o[0], type) for o in outcomes)
    assert 0.2 * len(token_lists) < raised < 0.8 * len(token_lists)  # both the AST and the error paths ran


NESTING_CASES = {
    "parentheses": lambda n: "x = " + "(" * n + "a" + ")" * n + "\n",
    "calls": lambda n: "x = " + "f(" * n + "a" + ")" * n + "\n",
    "blocks": lambda n: "".join("    " * i + "if a > 0:\n" for i in range(n)) + "    " * n + "x = 1\n",
    "elif": lambda n: "if a:\n    x = 1\n" + "elif a:\n    x = 1\n" * (n - 1),  # the last arm's block is level n
}


class TestParser:
    def test_left_associative_subtraction(self):
        mod = parse_source("x = a - b - c\n")
        value = mod.body[0].value
        assert isinstance(value, BinOp) and value.op == "-"
        assert isinstance(value.left, BinOp) and value.left.op == "-"
        assert value.right.id == "c"

    def test_precedence_mul_over_add_over_compare(self):
        value = parse_source("x = a + b * c < d\n").body[0].value
        assert value.op == "<"
        assert value.left.op == "+"
        assert value.left.right.op == "*"

    def test_parens_override_precedence(self):
        value = parse_source("x = a * (b + c)\n").body[0].value
        assert value.op == "*" and value.right.op == "+"

    def test_call_arguments(self):
        value = parse_source("x = mix(a, probe(b), 3)\n").body[0].value
        assert isinstance(value, Call) and value.func == "mix"
        assert isinstance(value.args[1], Call) and value.args[1].func == "probe"
        assert isinstance(value.args[2], Literal) and value.args[2].raw == "3"

    def test_literal_values(self):
        stmts = parse_source("a = 7\nb = 2.5\nc = 'hi'\n").body
        assert stmts[0].value.raw == "7"
        assert stmts[1].value.raw == "2.5"
        assert stmts[2].value.raw == "'hi'"

    def test_augassign(self):
        stmt = parse_source("x += y * 2\n").body[0]
        assert isinstance(stmt, AugAssign) and stmt.op == "+="
        assert stmt.target.id == "x"

    def test_if_elif_else_nesting(self):
        mod = parse_source(
            "if a > 0:\n    x = 1\nelif a < 0:\n    x = 2\nelse:\n    x = 3\n"
        )
        top = mod.body[0]
        assert isinstance(top, If)
        assert len(top.orelse) == 1 and isinstance(top.orelse[0], If)
        nested = top.orelse[0]
        assert len(nested.orelse) == 1 and isinstance(nested.orelse[0], Assign)

    def test_while_and_for(self):
        mod = parse_source("while n > 0:\n    n -= 1\nfor i in probe(n):\n    s = s + i\n")
        assert isinstance(mod.body[0], While)
        loop = mod.body[1]
        assert isinstance(loop, For) and loop.target.id == "i"
        assert isinstance(loop.iter, Call)

    def test_function_def_and_params(self):
        fn = parse_source("def add(a, b):\n    return a + b\n").body[0]
        assert isinstance(fn, FunctionDef)
        assert [p.name for p in fn.params] == ["a", "b"]
        assert isinstance(fn.body[0], Return)

    def test_bare_return(self):
        fn = parse_source("def noop():\n    return\n").body[0]
        assert fn.body[0].value is None

    def test_name_token_indices_point_at_identifier_tokens(self):
        src = "v = max_value - min_value\n"
        toks = tokenize(src)
        mod = parse_source(src)
        for node in walk(mod):
            if isinstance(node, Name):
                assert toks[node.token_index].text == node.id

    def test_missing_colon_is_syntax_error(self):
        with pytest.raises(MiniLangSyntaxError) as exc:
            parse_source("if a > b\n    x = 1\n")
        assert ":" in exc.value.expected

    def test_unary_minus_rejected(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_source("x = -1\n")

    def test_error_reports_token_index(self):
        with pytest.raises(MiniLangSyntaxError) as exc:
            parse_source("x = 1 +\n")
        # The newline (token 4) is where an operand was expected.
        assert exc.value.token_index == 4

    def test_statement_keyword_expected(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_source("= 3\n")

    @pytest.mark.parametrize("build", NESTING_CASES.values(), ids=NESTING_CASES.keys())
    def test_nesting_limit(self, build):
        parse_source(build(MAX_NESTING))
        with pytest.raises(MiniLangSyntaxError, match="nesting deeper than"):
            parse_source(build(MAX_NESTING + 1))

    def test_nesting_limit_fits_the_frame_budget(self):
        """`MAX_NESTING` levels cost at most four frames each in the parser and
        fewer in the DFG walk, as the comment at `MAX_NESTING` states: every
        case parses and gets its graph within that budget plus a small margin."""
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 4 * MAX_NESTING + 20)
        try:
            for build in NESTING_CASES.values():
                build_dfg(parse_source(build(MAX_NESTING)))
        finally:
            sys.setrecursionlimit(old)


class TestPretty:
    def test_canonical_block_rendering(self):
        src = "def f(a):\n    if a > 1:\n        a = a - 1\n    else:\n        a += 1\n    return a\n"
        assert pretty(parse_source(src)) == src

    def test_needed_parens_survive(self):
        src = "x = a * (b + c)\n"
        assert pretty(parse_source(src)) == src

    def test_redundant_parens_normalize_away(self):
        assert pretty(parse_source("x = (a * b) + c\n")) == "x = a * b + c\n"

    def test_right_child_parens_at_equal_precedence(self):
        src = "x = a - (b - c)\n"
        assert pretty(parse_source(src)) == src

    def test_long_operator_chain_walks_and_renders(self):
        # A 2000-term chain is a 2000-deep left spine; walk and pretty loop over it.
        src = "x = " + " + ".join(["a"] * 2000) + "\n"
        mod = parse_source(src)
        kinds = [type(node).__name__ for node in walk(mod)]
        assert kinds == ["Module", "Assign", "Name"] + ["BinOp"] * 1999 + ["Name"] * 2000
        assert pretty(mod) == src

    def test_pretty_parse_fixed_point_fuzz(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            src = random_program(rng)
            assert pretty(parse_source(src)) == src
