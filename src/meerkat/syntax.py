"""Surface syntax for Meerkat: lexer, parser, AST, and pretty-printer.

A source file is a `;`-separated sequence of declarations:

    var x = 1;
    def inc1 = x + 1;
    def bump = action { x := x + 1 };

Expressions are a lambda-calculus core (`fn x => e`, application by
juxtaposition), integer/boolean/string/unit literals, binary operators,
`if e then e1 else e2`, and action literals `action { f := e; ... }`.
Actions submitted by users are written `do <expr>`.

Operator precedence, loosest to tightest:

    ||  <  &&  <  (== <)  <  (+ -)  <  (* /)  <  unary (! -)  <  application

`if` and `fn` extend as far right as possible.  `//` starts a line comment.

The lexer matches one compiled pattern per token.  Identifiers and digits
are ASCII, and an integer literal has at most 19 significant digits.

Unary operators exist only in the surface syntax: `!e` parses to
`if e then false else true` and `-e` to `0 - e` (a minus directly on an
integer literal folds into the literal).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

# Parser recursion guard so arbitrary input cannot crash.  One nesting level
# costs up to ten Python frames (`expr`, `unary`, `app`, `atom` and one `binary`
# per operator level climbed), so this must stay well under the recursion limit.
_MAX_NESTING = 80
# A chain `x + x + ... + x` parses in a loop into a tree as deep as it is long;
# the checker, evaluator and printer recurse over trees, so bound depth too.
_MAX_DEPTH = 200


@dataclass(frozen=True)
class Span:
    """Source position (1-based line and column)."""

    line: int
    col: int


class ParseError(Exception):
    """Malformed input. Carries the position and the tokens that were expected."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        loc = f"{line}:{col}"
        super().__init__(f"{loc}: {message}" + (f" (expected {', '.join(expected)})" if expected else ""))
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected

    def to_json(self) -> dict:
        return {
            "reason": "parse",
            "message": self.message,
            "line": self.line,
            "col": self.col,
            "expected": list(self.expected),
        }


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Unit:
    """The unit value, written `()`. A single shared instance is exported."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "()"


UNIT = Unit()

Literal = Union[int, bool, str, Unit]


@dataclass(frozen=True)
class Lit:
    value: Literal
    span: Span | None = field(default=None, compare=False)

    def __eq__(self, other):
        # Python has `1 == True`, but the literals `1` and `true` differ
        if other.__class__ is not Lit:
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


@dataclass(frozen=True)
class Ref:
    name: str
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Lambda:
    param: str
    body: "Expr"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class App:
    fn: "Expr"
    arg: "Expr"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Write:
    """One `target := rhs` entry of an action body."""

    target: str
    rhs: "Expr"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ActionBody:
    writes: tuple[Write, ...] = ()


@dataclass(frozen=True)
class ActionLit:
    body: ActionBody
    span: Span | None = field(default=None, compare=False)


Expr = Union[Lit, Ref, Lambda, App, BinOp, If, ActionLit]


class DeclKind(Enum):
    STATE = "var"
    DEF = "def"


@dataclass(frozen=True)
class Decl:
    kind: DeclKind
    name: str
    init: Expr
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Program:
    decls: tuple[Decl, ...] = ()


@dataclass(frozen=True)
class DoStmt:
    expr: Expr
    span: Span | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "var", "def", "action", "do", "fn", "if", "then", "else", "true", "false",
}

# One alternative per token class, tried in order at each position; the
# two-character operators come before their one-character prefixes.
_LEX = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|//[^\n]*)+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>==|=>|:=|&&|\|\||[=;{}()+\-*/<!])"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>")'
)
_STRING_RUN = re.compile(r'[^"\\\n]*')  # the plain characters of a string literal
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_INT_DIGITS = len(str(INT_MAX + 1))  # 19 significant digits at most
_QUOTED_DIGITS = 40  # a longer literal is quoted by its first digits and its length


def _out_of_range(text: str, line: int, col: int) -> ParseError:
    """The error for an integer literal outside the 64-bit range, quoting
    `text` whole only when it is short, so a reply stays small."""
    if len(text) > _QUOTED_DIGITS:
        text = f"{text[:_QUOTED_DIGITS]}... ({len(text)} digits)"
    return ParseError(f"integer literal {text} out of 64-bit range", line, col)


class Token(NamedTuple):
    kind: str  # "int" | "string" | "ident" | a keyword | a punctuation string | "eof"
    text: str
    line: int
    col: int
    value: object = None  # decoded payload for int/string tokens


def tokenize(source: str) -> list[Token]:
    """Lex `source` into tokens, one match of `_LEX` each. Raises
    ParseError on malformed input, including non-ASCII identifiers or
    digits and integer literals of more than 19 significant digits."""
    tokens: list[Token] = []
    i, n, line, line_start = 0, len(source), 1, 0
    while i < n:
        col = i - line_start + 1
        m = _LEX.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", line, col)
        kind, j = m.lastgroup, m.end()
        if kind == "skip":
            k = source.rfind("\n", i, j)
            if k >= 0:
                line += source.count("\n", i, j)
                line_start = k + 1
        elif kind == "ident":
            text = m.group()
            tokens.append(Token(text if text in KEYWORDS else "ident", text, line, col))
        elif kind == "punct":
            text = m.group()
            tokens.append(Token(text, text, line, col))
        elif kind == "int":
            text = m.group()
            digits = text.lstrip("0") or "0"
            # +1 leaves room for a folded unary minus
            if len(digits) > _INT_DIGITS or (value := int(digits)) > INT_MAX + 1:
                raise _out_of_range(text, line, col)
            tokens.append(Token("int", text, line, col, value))
        else:  # a string: its plain runs, then one escape at a time
            buf = []
            while True:
                run = _STRING_RUN.match(source, j)
                buf.append(run.group())
                j = run.end()
                if j >= n or source[j] == "\n":
                    raise ParseError("unterminated string literal", line, col)
                if source[j] == '"':
                    j += 1
                    break
                # a backslash; the escape is named by the character after it
                if (escape := _ESCAPES.get(source[j + 1 : j + 2])) is None:
                    raise ParseError("invalid string escape", line, j - line_start + 2)
                buf.append(escape)
                j += 2
            text = "".join(buf)
            tokens.append(Token("string", text, line, col, text))
        i = j
    tokens.append(Token("eof", "", line, i - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_ATOM_START = {"int", "string", "ident", "true", "false", "(", "action"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {describe(tok)}", tok.line, tok.col, (repr(kind),))
        return self.next()

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        raise ParseError(f"unexpected {describe(tok)}", tok.line, tok.col, expected)

    # -- entry points

    def program(self) -> Program:
        decls = []
        while not self.at("eof"):
            decls.append(self.decl())
        return Program(tuple(decls))

    def decl(self) -> Decl:
        tok = self.peek()
        if tok.kind == "var":
            kind = DeclKind.STATE
        elif tok.kind == "def":
            kind = DeclKind.DEF
        else:
            self.fail(("'var'", "'def'"))
        self.next()
        name = self.expect("ident")
        self.expect("=")
        init = self.bounded_expr()
        self.expect(";")
        return Decl(kind, name.text, init, Span(tok.line, tok.col))

    def do_stmt(self) -> DoStmt:
        tok = self.expect("do")
        e = self.bounded_expr()
        self.expect("eof")
        return DoStmt(e, Span(tok.line, tok.col))

    def bounded_expr(self) -> Expr:
        start = self.pos
        e = self.expr()
        # a tree is never deeper than the count of tokens it was parsed from
        if self.pos - start > _MAX_DEPTH and _expr_depth(e) > _MAX_DEPTH:
            tok = self.tokens[start]
            raise ParseError("expression is nested too deeply", tok.line, tok.col)
        return e

    def enter(self, tok: Token):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError("expression is nested too deeply", tok.line, tok.col)

    # -- expression grammar, loosest binding first

    def expr(self) -> Expr:
        tok = self.peek()
        self.enter(tok)
        try:
            if tok.kind == "fn":
                self.next()
                param = self.expect("ident")
                self.expect("=>")
                body = self.expr()
                return Lambda(param.text, body, Span(tok.line, tok.col))
            if tok.kind == "if":
                self.next()
                cond = self.expr()
                self.expect("then")
                then = self.expr()
                self.expect("else")
                orelse = self.expr()
                return If(cond, then, orelse, Span(tok.line, tok.col))
            return self.binary(1)
        finally:
            self.depth -= 1

    def binary(self, level: int) -> Expr:
        """A left-associative chain of operators binding at `level` or
        tighter, climbing the printer's `_LEVELS` table."""
        e = self.unary()
        while (op_level := _LEVELS.get(self.peek().kind, 0)) >= level:
            tok = self.next()
            rhs = self.binary(op_level + 1)
            e = BinOp(tok.kind, e, rhs, Span(tok.line, tok.col))
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind not in ("!", "-"):
            return self.app()
        self.enter(tok)
        try:
            self.next()
            span = Span(tok.line, tok.col)
            if tok.kind == "-" and self.peek().kind == "int":
                # fold the sign into the literal before the range check so
                # the most negative 64-bit value is writable
                lit_tok = self.next()
                folded = -lit_tok.value
                if folded < INT_MIN:
                    raise ParseError(
                        "integer literal out of 64-bit range", lit_tok.line, lit_tok.col
                    )
                return Lit(folded, span)
            operand = self.unary()
            if tok.kind == "!":
                return If(operand, Lit(False, span), Lit(True, span), span)
            if isinstance(operand, Lit) and type(operand.value) is int:
                folded = -operand.value
                if folded < INT_MIN or folded > INT_MAX:
                    raise ParseError("integer literal out of 64-bit range", tok.line, tok.col)
                return Lit(folded, span)
            return BinOp("-", Lit(0, span), operand, span)
        finally:
            self.depth -= 1

    def app(self) -> Expr:
        e = self.atom()
        while self.at(*_ATOM_START):
            arg = self.atom()
            e = App(e, arg, e.span)
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        self.enter(tok)
        try:
            span = Span(tok.line, tok.col)
            if tok.kind == "int":
                self.next()
                if tok.value > INT_MAX:
                    raise _out_of_range(tok.text, tok.line, tok.col)
                return Lit(tok.value, span)
            if tok.kind == "string":
                self.next()
                return Lit(tok.value, span)
            if tok.kind == "true":
                self.next()
                return Lit(True, span)
            if tok.kind == "false":
                self.next()
                return Lit(False, span)
            if tok.kind == "ident":
                self.next()
                return Ref(tok.text, span)
            if tok.kind == "(":
                self.next()
                if self.at(")"):
                    self.next()
                    return Lit(UNIT, span)
                e = self.expr()
                self.expect(")")
                return e
            if tok.kind == "action":
                self.next()
                self.expect("{")
                writes = []
                while not self.at("}"):
                    target = self.expect("ident")
                    self.expect(":=")
                    rhs = self.expr()
                    writes.append(Write(target.text, rhs, Span(target.line, target.col)))
                    if self.at(";"):
                        self.next()
                    elif not self.at("}"):
                        self.fail(("';'", "'}'"))
                self.next()
                return ActionLit(ActionBody(tuple(writes)), span)
            self.fail(("an expression",))
        finally:
            self.depth -= 1


def describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind in ("int", "string", "ident"):
        return f"{tok.kind} {tok.text!r}"
    return repr(tok.text)


def parse_program(source: str) -> Program:
    """Parse a `;`-separated declaration sequence. Raises ParseError."""
    return _Parser(tokenize(source)).program()


def parse_do(source: str) -> DoStmt:
    """Parse a `do <expr>` statement. Raises ParseError."""
    return _Parser(tokenize(source)).do_stmt()


def parse_expr(source: str) -> Expr:
    """Parse a single expression (the whole input must be consumed)."""
    p = _Parser(tokenize(source))
    e = p.bounded_expr()
    p.expect("eof")
    return e


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

# Precedence levels: the parser climbs `_LEVELS`, and the printer adds parens by all.
_LEVEL_LOW = 0      # fn / if
_LEVELS = {"||": 1, "&&": 2, "==": 3, "<": 3, "+": 4, "-": 4, "*": 5, "/": 5}
_LEVEL_UNARY = 6    # a negative literal reparses like a unary minus
_LEVEL_APP = 7
_LEVEL_ATOM = 8


def _level(e: Expr) -> int:
    if isinstance(e, (Lambda, If)):
        return _LEVEL_LOW
    if isinstance(e, BinOp):
        return _LEVELS[e.op]
    if isinstance(e, App):
        return _LEVEL_APP
    if isinstance(e, Lit) and type(e.value) is int and e.value < 0:
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _escape(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def _render_expr(e: Expr, minlevel: int) -> str:
    text = _render_raw(e)
    if _level(e) < minlevel:
        return f"({text})"
    return text


def _render_raw(e: Expr) -> str:
    if isinstance(e, Lit):
        v = e.value
        if v is UNIT:
            return "()"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, int):
            return str(v)
        return f'"{_escape(v)}"'
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Lambda):
        return f"fn {e.param} => {_render_expr(e.body, _LEVEL_LOW)}"
    if isinstance(e, If):
        return (
            f"if {_render_expr(e.cond, _LEVEL_LOW)} then {_render_expr(e.then, _LEVEL_LOW)}"
            f" else {_render_expr(e.orelse, _LEVEL_LOW)}"
        )
    if isinstance(e, BinOp):
        lvl = _LEVELS[e.op]
        # left-associative: the right operand needs strictly tighter binding
        return f"{_render_expr(e.lhs, lvl)} {e.op} {_render_expr(e.rhs, lvl + 1)}"
    if isinstance(e, App):
        return f"{_render_expr(e.fn, _LEVEL_APP)} {_render_expr(e.arg, _LEVEL_ATOM)}"
    if isinstance(e, ActionLit):
        if not e.body.writes:
            return "action { }"
        inner = "; ".join(f"{w.target} := {_render_expr(w.rhs, _LEVEL_LOW)}" for w in e.body.writes)
        return f"action {{ {inner} }}"
    raise TypeError(f"not an expression: {e!r}")


def render(ast: Expr | Program | DoStmt) -> str:
    """Pretty-print an AST so that parsing the result reproduces it."""
    if isinstance(ast, Program):
        return "\n".join(
            f"{d.kind.value} {d.name} = {_render_expr(d.init, _LEVEL_LOW)};" for d in ast.decls
        )
    if isinstance(ast, DoStmt):
        return f"do {_render_expr(ast.expr, _LEVEL_LOW)}"
    return _render_expr(ast, _LEVEL_LOW)


def _walk(e: Expr) -> Iterator[tuple[Expr, int]]:
    """Yield `e` and every subexpression, pre-order, each with its depth."""
    stack = [(e, 1)]
    while stack:
        cur, depth = stack.pop()
        yield cur, depth
        if isinstance(cur, Lambda):
            kids = (cur.body,)
        elif isinstance(cur, App):
            kids = (cur.arg, cur.fn)
        elif isinstance(cur, BinOp):
            kids = (cur.rhs, cur.lhs)
        elif isinstance(cur, If):
            kids = (cur.orelse, cur.then, cur.cond)
        elif isinstance(cur, ActionLit):
            kids = [w.rhs for w in cur.body.writes]
        else:
            continue
        stack.extend((kid, depth + 1) for kid in kids)


def mentions(program: Program) -> frozenset[str]:
    """Every name the code of `program` mentions, as a `Ref` or a write
    target, lambda parameters included: more than typing it looks up."""
    names: set[str] = set()
    for d in program.decls:
        for e, _ in _walk(d.init):
            if isinstance(e, Ref):
                names.add(e.name)
            elif isinstance(e, ActionLit):
                names.update(w.target for w in e.body.writes)
    return frozenset(names)


def _expr_depth(e: Expr) -> int:
    """The number of nodes on the longest path down from `e`."""
    return max(depth for _, depth in _walk(e))
