"""Runtime store: value cells for state variables and definitions, plus the
transactional, glitch-free propagation engine.

A cell holds a value, and a definition cell also its expression.  The
store never mutates in place.  Every operation returns a fresh `Store`
sharing every cell it did not rewrite, so an exception anywhere leaves the
caller's store exactly as it was, and any `Store` value is a consistent
committed snapshot that can be read from other threads without locking.
Its `txn` is the last transaction it has applied.

A propagation wave recomputes each affected definition exactly once, in
dependency order, so no definition ever observes a mix of pre- and
post-transaction inputs.  The wave writes only the cells it recomputes.
A wave reads the dependency edges from the `TypeEnv` it is given; the
store holds only cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .syntax import (
    ActionBody,
    ActionLit,
    App,
    BinOp,
    DeclKind,
    Expr,
    If,
    Lambda,
    Lit,
    Program,
    Ref,
    Unit,
    render,
)
from .typesys import TypeEnv, topo_order

_WRAP = 2**64
_INT_MIN = -(2**63)


class EvalError(Exception):
    """A runtime fault during expression evaluation. Aborts the transaction."""

    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason
        self.message = message

    def to_json(self) -> dict:
        return {"reason": self.reason, "message": self.message}


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntV:
    v: int


@dataclass(frozen=True)
class BoolV:
    v: bool


@dataclass(frozen=True)
class StringV:
    v: str


@dataclass(frozen=True)
class UnitV:
    pass


UNIT_V = UnitV()

# captured lambda locals, sorted by name for canonical equality
LocalBindings = tuple[tuple[str, "Value"], ...]


@dataclass(frozen=True)
class ClosureV:
    param: str
    body: Expr
    env: LocalBindings = ()


@dataclass(frozen=True)
class ActionV:
    """A suspended write sequence.

    Carries the lambda-local bindings visible where the literal was
    evaluated, so an action built inside a function can still evaluate its
    right-hand sides when triggered later.
    """

    body: ActionBody
    env: LocalBindings = ()


Value = IntV | BoolV | StringV | UnitV | ClosureV | ActionV


def _capture(ctx: Mapping[str, "Value"]) -> LocalBindings:
    return tuple(sorted(ctx.items()))


def value_to_json(v: Value):
    if isinstance(v, IntV):
        return v.v
    if isinstance(v, BoolV):
        return v.v
    if isinstance(v, StringV):
        return v.v
    if isinstance(v, UnitV):
        return None
    if isinstance(v, ClosureV):
        return {"fn": render(Lambda(v.param, v.body)), "captured": {n: value_to_json(x) for n, x in v.env}}
    return {"action": render(ActionLit(v.body)), "captured": {n: value_to_json(x) for n, x in v.env}}


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarCell:
    """A state-variable cell: its current value."""

    c: Value


@dataclass(frozen=True)
class DefCell:
    """A definition cell: its current value and the expression that
    computes it.  Which transactions have reached a cell is not stored: a
    committed store has applied every transaction up to `Store.txn`."""

    c: Value
    e: Expr


@dataclass(frozen=True)
class Change:
    """One observable cell change committed by a transaction."""

    name: str
    old: Value | None  # None when the name is newly created
    new: Value


def change_to_json(c: Change) -> dict:
    """The wire form of a change, shared by replies, events and traces."""
    return {
        "name": c.name,
        "old": None if c.old is None else value_to_json(c.old),
        "new": value_to_json(c.new),
    }


@dataclass(frozen=True)
class PropagationResult:
    """What one committed transaction did: its id, the value changes, and the
    definitions it recomputed, in recomputation order."""

    txn: int | None
    changes: tuple[Change, ...] = ()
    recomputed: tuple[str, ...] = ()


class Store:
    """The full runtime store: V cells and D cells."""

    __slots__ = ("vars", "defs", "txn")

    def __init__(
        self,
        vars: Mapping[str, VarCell] | None = None,
        defs: Mapping[str, DefCell] | None = None,
        txn: int = 0,
    ):
        self.vars: dict[str, VarCell] = dict(vars or {})
        self.defs: dict[str, DefCell] = dict(defs or {})
        self.txn = txn

    def names(self) -> frozenset[str]:
        return frozenset(self.vars) | frozenset(self.defs)

    def __contains__(self, name: str) -> bool:
        return name in self.vars or name in self.defs

    def value_of(self, name: str) -> Value:
        if name in self.vars:
            return self.vars[name].c
        return self.defs[name].c

    def values(self) -> dict[str, Value]:
        """Current value of every cell; the observable state of the store."""
        out = {n: c.c for n, c in self.vars.items()}
        out.update({n: c.c for n, c in self.defs.items()})
        return out

    def def_exprs(self) -> dict[str, Expr]:
        return {n: c.e for n, c in self.defs.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Store)
            and self.vars == other.vars
            and self.defs == other.defs
            and self.txn == other.txn
        )

    def __repr__(self) -> str:
        vs = ", ".join(f"{n}={json.dumps(value_to_json(c.c))}" for n, c in self.vars.items())
        ds = ", ".join(f"{n}={json.dumps(value_to_json(c.c))}" for n, c in self.defs.items())
        return f"Store(txn={self.txn}, vars=[{vs}], defs=[{ds}])"


def empty_store() -> Store:
    return Store()


def store_to_json(store: Store) -> dict:
    return {
        "txn": store.txn,
        "vars": {n: value_to_json(c.c) for n, c in sorted(store.vars.items())},
        "defs": {
            n: {"c": value_to_json(c.c), "expr": render(c.e)}
            for n, c in sorted(store.defs.items())
        },
    }


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _wrap64(n: int) -> int:
    return (n - _INT_MIN) % _WRAP + _INT_MIN


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("DivByZero", "division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def eval_expr(
    store: Store,
    ctx: Mapping[str, Value],
    e: Expr,
    var_overlay: Mapping[str, Value] | None = None,
    on_ref: Callable[[str], None] | None = None,
) -> Value:
    """Call-by-value evaluation against a store snapshot.

    Locals in `ctx` shadow top-level names.  Top-level reads go to the
    live cells each time (closures capture locals only).  `var_overlay`
    supplies not-yet-committed state-variable values for action bodies;
    `on_ref` observes every top-level read (used by tests to check that
    inferred dependency sets are sound).  Never mutates the store.
    """
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, Unit):
            return UNIT_V
        if isinstance(v, bool):
            return BoolV(v)
        if isinstance(v, int):
            return IntV(v)
        return StringV(v)
    if isinstance(e, Ref):
        name = e.name
        if name in ctx:
            return ctx[name]
        if on_ref is not None:
            on_ref(name)
        if var_overlay is not None and name in var_overlay:
            return var_overlay[name]
        if name in store.vars:
            return store.vars[name].c
        if name in store.defs:
            return store.defs[name].c
        raise EvalError("UnboundName", f"'{name}' is not bound")
    if isinstance(e, Lambda):
        return ClosureV(e.param, e.body, _capture(ctx))
    if isinstance(e, ActionLit):
        return ActionV(e.body, _capture(ctx))
    if isinstance(e, App):
        fn = eval_expr(store, ctx, e.fn, var_overlay, on_ref)
        arg = eval_expr(store, ctx, e.arg, var_overlay, on_ref)
        if not isinstance(fn, ClosureV):
            raise EvalError("NotAFunction", f"cannot apply {json.dumps(value_to_json(fn))}")
        call_ctx = dict(fn.env)
        call_ctx[fn.param] = arg
        return eval_expr(store, call_ctx, fn.body, var_overlay, on_ref)
    if isinstance(e, BinOp):
        lhs = eval_expr(store, ctx, e.lhs, var_overlay, on_ref)
        rhs = eval_expr(store, ctx, e.rhs, var_overlay, on_ref)
        op = e.op
        if op in ("&&", "||"):
            assert isinstance(lhs, BoolV) and isinstance(rhs, BoolV)
            return BoolV(lhs.v and rhs.v) if op == "&&" else BoolV(lhs.v or rhs.v)
        if op == "==":
            return BoolV(lhs == rhs)
        assert isinstance(lhs, IntV) and isinstance(rhs, IntV)
        a, b = lhs.v, rhs.v
        if op == "+":
            return IntV(_wrap64(a + b))
        if op == "-":
            return IntV(_wrap64(a - b))
        if op == "*":
            return IntV(_wrap64(a * b))
        if op == "/":
            return IntV(_wrap64(_int_div(a, b)))
        if op == "<":
            return BoolV(a < b)
        raise EvalError("BadOperator", f"unknown operator {op!r}")
    if isinstance(e, If):
        cond = eval_expr(store, ctx, e.cond, var_overlay, on_ref)
        assert isinstance(cond, BoolV)
        branch = e.then if cond.v else e.orelse
        return eval_expr(store, ctx, branch, var_overlay, on_ref)
    raise EvalError("BadExpression", f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Wave propagation
# ---------------------------------------------------------------------------

def _affected_defs(env: TypeEnv, seeds: Iterable[str]) -> set[str]:
    """Definitions transitively downstream of any seed name."""
    readers = env.readers()
    out: set[str] = set()
    pending = list(seeds)
    while pending:
        for dep in readers.get(pending.pop(), ()):
            if dep not in out:
                out.add(dep)
                pending.append(dep)
    return out


def _run_wave(store: Store, env: TypeEnv, affected: set[str]) -> list[str]:
    """Recompute `affected` definitions in dependency order, writing each
    new cell into `store`, which is still private to the caller and serves
    as the wave's one scratch view.  Every other cell is left as it was.
    Returns the recomputation order."""
    order = topo_order(env, affected)
    defs = store.defs
    for name in order:
        e = defs[name].e
        defs[name] = DefCell(eval_expr(store, {}, e), e)
    return order


def _diff(before: Mapping[str, Value | None], store: Store) -> tuple[Change, ...]:
    changes = []
    for name in sorted(before):
        old = before[name]
        new = store.value_of(name)
        if old != new:
            changes.append(Change(name, old, new))
    return tuple(changes)


def propagate(
    store: Store, env: TypeEnv, changed_vars: Mapping[str, Value], txn: int
) -> tuple[Store, PropagationResult]:
    """Commit a set of state-variable writes as one transaction.

    All writes land atomically, then every transitively affected
    definition of `env` is recomputed exactly once, in dependency order.
    Every other cell of the result is the very object it was in `store`.
    A fault during recomputation raises EvalError and commits nothing.
    """
    for name in changed_vars:
        if name not in store.vars:
            raise EvalError("NotAStateVariable", f"'{name}' is not a state variable")
    affected = _affected_defs(env, changed_vars)
    before: dict[str, Value | None] = {n: store.vars[n].c for n in changed_vars}
    before.update({n: store.defs[n].c for n in affected})
    new = Store(store.vars, store.defs, txn)
    for name, v in changed_vars.items():
        new.vars[name] = VarCell(v)
    order = _run_wave(new, env, affected)
    return new, PropagationResult(txn, _diff(before, new), tuple(order))


def init_cells(
    store: Store, env: TypeEnv, r: Program, txn: int
) -> tuple[Store, PropagationResult]:
    """Apply an accepted evolution to the store.

    `env` is the environment with the evolution's bindings merged in.
    Installs each declaration left to right (so later declarations can
    read earlier ones), then runs one propagation wave over everything
    downstream of a declared name — all under a single transaction.  An
    empty program returns the store unchanged and consumes no transaction.
    Any fault leaves the caller's store untouched.
    """
    if not r.decls:
        return store, PropagationResult(None)
    new = Store(store.vars, store.defs, txn)
    before: dict[str, Value | None] = {}
    for d in r.decls:
        name = d.name
        if name not in before:
            before[name] = new.value_of(name) if name in new else None
        v = eval_expr(new, {}, d.init)
        if d.kind is DeclKind.STATE:
            new.vars[name] = VarCell(v)
        else:
            new.defs[name] = DefCell(v, d.init)
    # the wave covers everything downstream of a declared name, including
    # declarations from this very program that read a name redeclared later
    affected = _affected_defs(env, before)
    before.update({n: new.defs[n].c for n in affected if n not in before})
    order = _run_wave(new, env, affected)
    return new, PropagationResult(txn, _diff(before, new), tuple(order))


def merge_defs(
    d1: Mapping[str, DefCell],
    d2: Mapping[str, DefCell],
    merged_vars: Mapping[str, VarCell],
    env: TypeEnv,
) -> dict[str, DefCell]:
    """Merge the definition maps of two transactions run from the same base
    store with disjoint state-variable write sets.

    A cell both maps share is one neither transaction recomputed, so no
    input of it changed and it stands.  Every other definition is
    recomputed against the merged variable state, in dependency order.
    Symmetric in its arguments.
    """
    if set(d1) != set(d2):
        raise ValueError("definition maps must cover the same names")
    merged = Store(merged_vars, d1)
    stale = {n for n, c1 in d1.items() if c1 is not d2[n]}
    for name in topo_order(env, stale):
        e = d1[name].e
        if e != d2[name].e:
            raise ValueError(f"'{name}' has diverging expressions; merge needs a common base")
        merged.defs[name] = DefCell(eval_expr(merged, {}, e), e)
    return merged.defs
