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
    Write,
    _LEVELS,
    _walk,
    parse_do,
    parse_expr,
    parse_program,
    render,
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
