"""Parser, renderer, and round-trip tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meerkat.syntax import (
    UNIT,
    ActionBody,
    ActionLit,
    App,
    BinOp,
    Decl,
    DeclKind,
    DoStmt,
    If,
    Lambda,
    Lit,
    ParseError,
    Program,
    Ref,
    Token,
    Write,
    _LEVELS,
    _walk,
    parse_do,
    parse_expr,
    parse_program,
    render,
    tokenize,
)

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"


def test_parse_listing_program():
    p = parse_program(LISTING)
    assert [d.kind for d in p.decls] == [DeclKind.STATE, DeclKind.DEF, DeclKind.DEF]
    assert [d.name for d in p.decls] == ["x", "inc1", "inc2"]
    assert p.decls[0].init == Lit(1)
    assert p.decls[1].init == BinOp("+", Ref("x"), Lit(1))


def test_parse_empty_program():
    assert parse_program("") == Program(())
    assert parse_program("  // just a comment\n") == Program(())


def test_parse_action_declaration():
    p = parse_program("def f = action { x := x + 1 };")
    (d,) = p.decls
    assert d.kind is DeclKind.DEF
    init = d.init
    assert isinstance(init, ActionLit)
    assert init.body == ActionBody((Write("x", BinOp("+", Ref("x"), Lit(1))),))


def test_parse_do_forms():
    assert parse_do("do f") == DoStmt(Ref("f"))
    stmt = parse_do("do (if b then f else g)")
    assert stmt == DoStmt(If(Ref("b"), Ref("f"), Ref("g")))
    with pytest.raises(ParseError):
        parse_do("do")


def test_parse_do_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_do("do f g h ;")


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert parse_expr("1 + 2 * 3") == BinOp("+", Lit(1), BinOp("*", Lit(2), Lit(3)))

    def test_application_is_left_associative_and_tightest(self):
        e = parse_expr("f x + 1")
        assert e == BinOp("+", App(Ref("f"), Ref("x")), Lit(1))
        assert parse_expr("a b c") == App(App(Ref("a"), Ref("b")), Ref("c"))

    def test_comparison_below_arithmetic(self):
        assert parse_expr("a + 1 < b * 2") == BinOp(
            "<", BinOp("+", Ref("a"), Lit(1)), BinOp("*", Ref("b"), Lit(2))
        )

    def test_logic_lowest(self):
        e = parse_expr("a == b && c || d")
        assert e == BinOp("||", BinOp("&&", BinOp("==", Ref("a"), Ref("b")), Ref("c")), Ref("d"))

    def test_fn_extends_right(self):
        assert parse_expr("fn x => x + 1") == Lambda("x", BinOp("+", Ref("x"), Lit(1)))

    def test_if_extends_right(self):
        e = parse_expr("if a then b else c + 1")
        assert e == If(Ref("a"), Ref("b"), BinOp("+", Ref("c"), Lit(1)))

    def test_left_associativity_of_minus(self):
        assert parse_expr("a - b - c") == BinOp("-", BinOp("-", Ref("a"), Ref("b")), Ref("c"))

    def test_bang_desugars_to_if(self):
        assert parse_expr("!a") == If(Ref("a"), Lit(False), Lit(True))
        # unary binds looser than application: !f x negates the call result
        assert parse_expr("!f x") == If(App(Ref("f"), Ref("x")), Lit(False), Lit(True))

    def test_unary_minus_desugars(self):
        assert parse_expr("-a") == BinOp("-", Lit(0), Ref("a"))
        assert parse_expr("-5") == Lit(-5)
        assert parse_expr("1 - -5") == BinOp("-", Lit(1), Lit(-5))

    @pytest.mark.parametrize("op1", list(_LEVELS))
    @pytest.mark.parametrize("op2", list(_LEVELS))
    def test_every_operator_pair_groups_by_the_level_table(self, op1, op2):
        # every operator is left-associative: the right one groups first
        # only when it binds strictly tighter
        source = f"a {op1} b {op2} c"
        a, b, c = Ref("a"), Ref("b"), Ref("c")
        if _LEVELS[op2] > _LEVELS[op1]:
            want = BinOp(op1, a, BinOp(op2, b, c))
        else:
            want = BinOp(op2, BinOp(op1, a, b), c)
        assert parse_expr(source) == want
        assert render(want) == source


class TestLexing:
    def test_comments_and_crlf(self):
        p = parse_program("var a = 1; // trailing\r\ndef b = a; // another\r\n")
        assert [d.name for d in p.decls] == ["a", "b"]

    def test_string_escapes(self):
        e = parse_expr('"a\\n\\"b\\\\"')
        assert e == Lit('a\n"b\\')

    def test_unit_literal(self):
        assert parse_expr("()") == Lit(UNIT)

    def test_int_range(self):
        assert parse_expr("9223372036854775807") == Lit(2**63 - 1)
        assert parse_expr("-9223372036854775808") == Lit(-(2**63))
        with pytest.raises(ParseError):
            parse_expr("9223372036854775808")
        with pytest.raises(ParseError):
            parse_expr("-9223372036854775809")

    def test_empty_action(self):
        assert parse_expr("action { }") == ActionLit(ActionBody(()))

    def test_action_trailing_semicolon(self):
        a = parse_expr("action { a := 1; b := 2; }")
        b = parse_expr("action { a := 1; b := 2 }")
        assert a == b


INT_MAX_PLUS_1 = 2**63

# (source, tokens as (kind, text, line, col[, value]), the eof token last)
GOLDEN_TOKENS = [
    pytest.param(
        "var def action do fn if then else true false",
        [("var", "var", 1, 1), ("def", "def", 1, 5), ("action", "action", 1, 9), ("do", "do", 1, 16),
         ("fn", "fn", 1, 19), ("if", "if", 1, 22), ("then", "then", 1, 25), ("else", "else", 1, 30),
         ("true", "true", 1, 35), ("false", "false", 1, 40), ("eof", "", 1, 45)],
        id="keywords",
    ),
    pytest.param(
        "== => := && || = ; { } ( ) + - * / < !",
        [("==", "==", 1, 1), ("=>", "=>", 1, 4), (":=", ":=", 1, 7), ("&&", "&&", 1, 10),
         ("||", "||", 1, 13), ("=", "=", 1, 16), (";", ";", 1, 18), ("{", "{", 1, 20), ("}", "}", 1, 22),
         ("(", "(", 1, 24), (")", ")", 1, 26), ("+", "+", 1, 28), ("-", "-", 1, 30), ("*", "*", 1, 32),
         ("/", "/", 1, 34), ("<", "<", 1, 36), ("!", "!", 1, 38), ("eof", "", 1, 39)],
        id="punctuation",
    ),
    pytest.param(
        "a=b==c=>d===e=>=f",
        [("ident", "a", 1, 1), ("=", "=", 1, 2), ("ident", "b", 1, 3), ("==", "==", 1, 4),
         ("ident", "c", 1, 6), ("=>", "=>", 1, 7), ("ident", "d", 1, 9), ("==", "==", 1, 10),
         ("=", "=", 1, 12), ("ident", "e", 1, 13), ("=>", "=>", 1, 14), ("=", "=", 1, 16),
         ("ident", "f", 1, 17), ("eof", "", 1, 18)],
        id="equals-longest-first",
    ),
    pytest.param(
        "_x1 x_ X9 varx do_ 12ab",
        [("ident", "_x1", 1, 1), ("ident", "x_", 1, 5), ("ident", "X9", 1, 8), ("ident", "varx", 1, 11),
         ("ident", "do_", 1, 16), ("int", "12", 1, 20, 12), ("ident", "ab", 1, 22), ("eof", "", 1, 24)],
        id="identifiers",
    ),
    pytest.param(
        "0 007 9223372036854775807",
        [("int", "0", 1, 1, 0), ("int", "007", 1, 3, 7),
         ("int", "9223372036854775807", 1, 7, 2**63 - 1), ("eof", "", 1, 26)],
        id="integers",
    ),
    pytest.param(
        "9223372036854775808",
        [("int", "9223372036854775808", 1, 1, INT_MAX_PLUS_1), ("eof", "", 1, 20)],
        id="int-max-plus-1",
    ),
    pytest.param(
        "-9223372036854775808",
        [("-", "-", 1, 1), ("int", "9223372036854775808", 1, 2, INT_MAX_PLUS_1), ("eof", "", 1, 21)],
        id="int-min",
    ),
    pytest.param(
        "0009223372036854775808",
        [("int", "0009223372036854775808", 1, 1, INT_MAX_PLUS_1), ("eof", "", 1, 23)],
        id="leading-zeros",
    ),
    pytest.param(
        '"a\\n\\t\\r\\"\\\\b" ""',
        [("string", 'a\n\t\r"\\b', 1, 1, 'a\n\t\r"\\b'), ("string", "", 1, 16, ""), ("eof", "", 1, 18)],
        id="string-escapes",
    ),
    pytest.param(
        '"x // y" z',
        [("string", "x // y", 1, 1, "x // y"), ("ident", "z", 1, 10), ("eof", "", 1, 11)],
        id="comment-inside-string",
    ),
    pytest.param("x // end", [("ident", "x", 1, 1), ("eof", "", 1, 9)], id="comment-at-eof"),
    pytest.param(
        "a/b//c\n/d",
        [("ident", "a", 1, 1), ("/", "/", 1, 2), ("ident", "b", 1, 3), ("/", "/", 2, 1),
         ("ident", "d", 2, 2), ("eof", "", 2, 3)],
        id="slash-and-comment",
    ),
    pytest.param(
        'x\t=\t"\t"',
        [("ident", "x", 1, 1), ("=", "=", 1, 3), ("string", "\t", 1, 5, "\t"), ("eof", "", 1, 8)],
        id="tabs",
    ),
    pytest.param("a\r\nb\r\n", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 3, 1)], id="crlf"),
    pytest.param("\n\n  x  ", [("ident", "x", 3, 3), ("eof", "", 3, 6)], id="eof-after-spaces"),
    pytest.param("", [("eof", "", 1, 1)], id="empty"),
]

# (source, message, line, col) of the lexer's ParseError
GOLDEN_ERRORS = [
    pytest.param(":", "unexpected character ':'", 1, 1, id="lone-colon"),
    pytest.param("a & b", "unexpected character '&'", 1, 3, id="lone-amp"),
    pytest.param("a | b", "unexpected character '|'", 1, 3, id="lone-bar"),
    pytest.param("a > b", "unexpected character '>'", 1, 3, id="greater"),
    pytest.param("x :=: y", "unexpected character ':'", 1, 5, id="colon-after-assign"),
    pytest.param("x = 1 // ok\n\t@", "unexpected character '@'", 2, 2, id="after-comment-and-tab"),
    pytest.param("a\x0cb", "unexpected character '\\x0c'", 1, 2, id="form-feed"),
    pytest.param("x\n ٣", "unexpected character '٣'", 2, 2, id="arabic-digit"),
    pytest.param("é", "unexpected character 'é'", 1, 1, id="e-acute"),
    pytest.param('"abc', "unterminated string literal", 1, 1, id="unterminated-at-eof"),
    pytest.param('x\n  "abc\ny"', "unterminated string literal", 2, 3, id="unterminated-at-newline"),
    pytest.param('"a\\q"', "invalid string escape", 1, 4, id="bad-escape"),
    pytest.param('x "a\\', "invalid string escape", 1, 6, id="backslash-at-eof"),
    pytest.param('"a\\\n"', "invalid string escape", 1, 4, id="backslash-newline"),
    pytest.param(
        "x 9223372036854775809",
        "integer literal 9223372036854775809 out of 64-bit range", 1, 3,
        id="int-max-plus-2",
    ),
    pytest.param(
        "9" * 4301, f"integer literal {'9' * 40}... (4301 digits) out of 64-bit range", 1, 1,
        id="past-int-max-str-digits",
    ),
]


class TestGoldenLexer:
    @pytest.mark.parametrize(("source", "tokens"), GOLDEN_TOKENS)
    def test_tokens(self, source, tokens):
        assert tokenize(source) == [Token(*row) for row in tokens]

    @pytest.mark.parametrize(("source", "message", "line", "col"), GOLDEN_ERRORS)
    def test_errors(self, source, message, line, col):
        with pytest.raises(ParseError) as exc:
            tokenize(source)
        assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)

    def test_int_max_plus_1_is_an_int_only_when_negated(self):
        assert parse_expr("-0009223372036854775808") == Lit(-INT_MAX_PLUS_1)
        with pytest.raises(ParseError) as exc:
            parse_expr("0009223372036854775808")
        assert (exc.value.message, exc.value.line, exc.value.col) == (
            "integer literal 0009223372036854775808 out of 64-bit range", 1, 1,
        )

    def test_an_error_quotes_a_long_literal_by_its_first_digits(self):
        # 40 characters are quoted whole, a longer literal by its first 40
        # and its length, from the lexer and from the parser alike
        with pytest.raises(ParseError) as exc:
            tokenize("x " + "1" * 40)
        assert exc.value.message == f"integer literal {'1' * 40} out of 64-bit range"
        with pytest.raises(ParseError) as exc:
            parse_expr("0" * 5000 + "9223372036854775808")
        assert exc.value.message == f"integer literal {'0' * 40}... (5019 digits) out of 64-bit range"
        assert (exc.value.line, exc.value.col) == (1, 1)

    def test_a_long_literal_is_refused_at_its_significant_digits(self):
        # leading zeros do not count toward the 19-digit bound
        assert parse_expr("0" * 5000 + "42") == Lit(42)
        with pytest.raises(ParseError, match="out of 64-bit range"):
            parse_do(f"do (action {{ x := {'9' * 20} }})")


class TestErrors:
    def test_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_program("var x 1;")
        err = exc.value
        assert (err.line, err.col) == (1, 7)
        assert err.expected

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_expr('"abc')

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_program("var x = 1 @ 2;")

    def test_deep_nesting_is_an_error_not_a_crash(self):
        source = "(" * 100_000 + "1" + ")" * 100_000
        with pytest.raises(ParseError):
            parse_expr(source)
        with pytest.raises(ParseError):
            parse_expr("!" * 100_000 + "true")

    @pytest.mark.parametrize("op", ["+", "*", "&&", " "])
    def test_long_chain_is_an_error_not_a_crash(self, op):
        # a chain parses in a loop but builds a tree as deep as it is long;
        # 30 terms, as in the benchmark's longest chain, must still parse
        parse_program("var x = 1; def d = " + op.join(["x"] * 30) + ";")
        chain = op.join(["x"] * 3000)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_program(f"var x = 1; def d = {chain};")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_do(f"do (action {{ x := {chain} }})")


class TestRender:
    def test_listing_round_trips_through_text(self):
        p = parse_program(LISTING)
        assert parse_program(render(p)) == p
        assert render(p) == "var x = 1;\ndef inc1 = x + 1;\ndef inc2 = inc1 + 1;"

    def test_empty_program_renders_empty(self):
        assert render(Program(())) == ""

    def test_action_with_two_writes(self):
        e = ActionLit(ActionBody((Write("a", Lit(1)), Write("b", Lit(2)))))
        assert render(e) == "action { a := 1; b := 2 }"
        assert parse_expr(render(e)) == e

    def test_parenthesization_cases(self):
        cases = [
            BinOp("*", BinOp("+", Lit(1), Lit(2)), Lit(3)),
            BinOp("-", Lit(1), BinOp("-", Lit(2), Lit(3))),
            App(Lambda("x", Ref("x")), Lit(1)),
            App(Ref("f"), App(Ref("g"), Ref("x"))),
            BinOp("+", If(Ref("b"), Lit(1), Lit(2)), Lit(3)),
            Lambda("x", BinOp("+", Ref("x"), Lit(1))),
            If(If(Ref("a"), Ref("b"), Ref("c")), Lit(1), Lit(2)),
            DoStmt(ActionLit(ActionBody((Write("x", Lit(0)),)))),
        ]
        for ast in cases:
            text = render(ast)
            reparsed = parse_do(text) if isinstance(ast, DoStmt) else parse_expr(text)
            assert reparsed == ast, text


# --- structured AST generation for the round-trip property ---

names = st.sampled_from(["a", "b", "c", "x", "y", "foo", "_tmp", "v1"])
literals = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
    st.text(alphabet=st.characters(codec="ascii", exclude_characters="\x00"), max_size=6),
    st.just(UNIT),
).map(Lit)


def exprs():
    def extend(children):
        ops = st.sampled_from(["+", "-", "*", "/", "==", "<", "&&", "||"])
        return st.one_of(
            st.builds(Lambda, names, children),
            st.builds(App, children, children),
            st.builds(BinOp, ops, children, children),
            st.builds(If, children, children, children),
            st.builds(
                ActionLit,
                st.builds(
                    ActionBody,
                    st.lists(st.builds(Write, names, children), max_size=3).map(tuple),
                ),
            ),
        )

    return st.recursive(st.one_of(literals, st.builds(Ref, names)), extend, max_leaves=25)


programs = st.lists(
    st.builds(Decl, st.sampled_from([DeclKind.STATE, DeclKind.DEF]), names, exprs()),
    max_size=4,
).map(lambda ds: Program(tuple(ds)))


@settings(max_examples=300, deadline=None)
@given(exprs())
def test_roundtrip_expressions(ast):
    assert parse_expr(render(ast)) == ast


@settings(max_examples=150, deadline=None)
@given(programs)
def test_roundtrip_programs(ast):
    assert parse_program(render(ast)) == ast


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_roundtrip_do(ast):
    stmt = DoStmt(ast)
    assert parse_do(render(stmt)) == stmt


separators = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", " \n\t", " // note\n", "\n// \"quoted\" // x\n", " //\r\n"])


def token_gaps(text: str) -> list[int]:
    """The offsets of the spaces `render` puts between tokens: every space
    outside a string literal."""
    gaps, in_string, escaped = [], False, False
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
        elif in_string and ch == "\\":
            escaped = True
        elif ch == '"':
            in_string = not in_string
        elif ch == " " and not in_string:
            gaps.append(i)
    return gaps


@settings(max_examples=200, deadline=None)
@given(programs, st.data())
def test_every_token_sits_at_its_position(ast, data):
    # splice whitespace and comments between the rendered tokens, then
    # check each token's (line, col) against the source text itself
    plain = render(ast)
    pieces, start = [], 0
    for gap in token_gaps(plain):
        pieces += [plain[start:gap], data.draw(separators)]
        start = gap + 1
    pieces.append(plain[start:])
    source = data.draw(separators) + "".join(pieces) + data.draw(st.sampled_from(["", " // end", "\n"]))
    tokens = tokenize(source)
    assert [(t.kind, t.text, t.value) for t in tokens] == [(t.kind, t.text, t.value) for t in tokenize(plain)]
    lines = source.split("\n")
    offsets = [sum(len(line) + 1 for line in lines[: t.line - 1]) + t.col - 1 for t in tokens]
    for tok, at in zip(tokens, offsets):
        if tok.kind == "string":
            assert source[at] == '"'
        else:
            assert source.startswith(tok.text, at), (tok, source)
    ends = [at + len(tok.text) + 2 * (tok.kind == "string") for tok, at in zip(tokens, offsets)]
    assert all(end <= nxt for end, nxt in zip(ends, offsets[1:])), source
    assert offsets[-1] == len(source)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_parsing_is_total_on_text(source):
    try:
        parse_program(source)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=80))
def test_parsing_is_total_on_bytes(raw):
    try:
        parse_program(raw.decode("utf-8", errors="replace"))
    except ParseError:
        pass


def iter_exprs(e):
    """`e` and every subexpression, pre-order."""
    return (cur for cur, _ in _walk(e))


def test_iter_exprs_walks_every_node():
    e = parse_expr("if a then f (b + 1) else action { x := c }")
    names_seen = {n.name for n in iter_exprs(e) if isinstance(n, Ref)}
    assert names_seen == {"a", "f", "b", "c"}
