"""Runtime store: the value of every state variable and definition, plus
the transactional, glitch-free propagation engine.

The store holds values only: a definition's code is on its binding in the
`TypeEnv` each function here is given.  The store never mutates in place.
Every operation returns a fresh `Store` sharing every value it did not
rewrite, so an exception anywhere leaves the caller's store exactly as it
was, and any `Store` value is a consistent committed snapshot that can be
read from other threads without locking.  Its `txn` is the last
transaction it has applied.

A propagation wave recomputes each affected definition exactly once, in
dependency order, so no definition ever observes a mix of pre- and
post-transaction inputs.  The wave writes only the values it recomputes.
A wave reads the dependency edges and the code from the `TypeEnv` it is
given.  A wave's order is derived once per env and write set
(`wave_order`) and kept on the env with its other derived facts, so a
wave that repeats costs only the values it rewrites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

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
# The store
# ---------------------------------------------------------------------------

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
    """The full runtime store: every state variable's and definition's value
    by name, as of transaction `txn`, which it has applied with all before."""

    __slots__ = ("vars", "defs", "txn")

    def __init__(
        self,
        vars: Mapping[str, Value] | None = None,
        defs: Mapping[str, Value] | None = None,
        txn: int = 0,
    ):
        self.vars: dict[str, Value] = dict(vars or {})
        self.defs: dict[str, Value] = dict(defs or {})
        self.txn = txn

    def names(self) -> frozenset[str]:
        return frozenset(self.vars) | frozenset(self.defs)

    def __contains__(self, name: str) -> bool:
        return name in self.vars or name in self.defs

    def value_of(self, name: str) -> Value:
        return self.vars[name] if name in self.vars else self.defs[name]

    def values(self) -> dict[str, Value]:
        """Current value of every cell; the observable state of the store."""
        return {**self.vars, **self.defs}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Store)
            and self.vars == other.vars
            and self.defs == other.defs
            and self.txn == other.txn
        )

    def __repr__(self) -> str:
        vs = ", ".join(f"{n}={json.dumps(value_to_json(v))}" for n, v in self.vars.items())
        ds = ", ".join(f"{n}={json.dumps(value_to_json(v))}" for n, v in self.defs.items())
        return f"Store(txn={self.txn}, vars=[{vs}], defs=[{ds}])"


def store_to_json(store: Store, env: TypeEnv) -> dict:
    """The store's values, each definition's with its code from `env`."""
    return {
        "txn": store.txn,
        "vars": {n: value_to_json(v) for n, v in sorted(store.vars.items())},
        "defs": {
            n: {"c": value_to_json(v), "expr": render(env.get(n).expr)}
            for n, v in sorted(store.defs.items())
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
) -> Value:
    """Call-by-value evaluation against a store snapshot.

    Locals in `ctx` shadow top-level names.  Top-level reads go to the
    live cells each time (closures capture locals only).  `var_overlay`
    supplies not-yet-committed state-variable values for action bodies.
    A committed cell is read only as `store.vars[name]` or `store.defs[name]`.
    Never mutates the store.
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
        if var_overlay is not None and name in var_overlay:
            return var_overlay[name]
        if name in store.vars:
            return store.vars[name]
        if name in store.defs:
            return store.defs[name]
        raise EvalError("UnboundName", f"'{name}' is not bound")
    if isinstance(e, Lambda):
        return ClosureV(e.param, e.body, _capture(ctx))
    if isinstance(e, ActionLit):
        return ActionV(e.body, _capture(ctx))
    if isinstance(e, App):
        fn = eval_expr(store, ctx, e.fn, var_overlay)
        arg = eval_expr(store, ctx, e.arg, var_overlay)
        if not isinstance(fn, ClosureV):
            raise EvalError("NotAFunction", f"cannot apply {json.dumps(value_to_json(fn))}")
        call_ctx = dict(fn.env)
        call_ctx[fn.param] = arg
        return eval_expr(store, call_ctx, fn.body, var_overlay)
    if isinstance(e, BinOp):
        lhs = eval_expr(store, ctx, e.lhs, var_overlay)
        rhs = eval_expr(store, ctx, e.rhs, var_overlay)
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
        cond = eval_expr(store, ctx, e.cond, var_overlay)
        assert isinstance(cond, BoolV)
        branch = e.then if cond.v else e.orelse
        return eval_expr(store, ctx, branch, var_overlay)
    raise EvalError("BadExpression", f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Wave propagation
# ---------------------------------------------------------------------------

def wave_order(env: TypeEnv, written: Iterable[str]) -> tuple[str, ...]:
    """The definitions a wave writing the names `written` recomputes: all
    those transitively downstream of a written name, in dependency order.
    Derived once per env and write set and kept in the env's `wave_orders`,
    which holds at most `2 * len(env)` entries and drops its oldest to make
    room: the env is immutable, so an entry is never stale, and a
    long-lived env does not grow with its clients' distinct write sets.
    Twice the bindings, because the steps fired from one config use the
    order of each queued action's writes and of each pair's union, and
    both fit; at `len(env)` the pairs' orders evict the singles' orders
    that the next config needs again.
    Callers on two threads at worst derive one order twice."""
    key = frozenset(written)
    memo = env.wave_orders
    order = memo.get(key)
    if order is None:
        if memo and len(memo) >= 2 * len(env):
            del memo[next(iter(memo))]
        readers = env.readers()
        affected: set[str] = set()
        pending = list(key)
        while pending:
            for dep in readers.get(pending.pop(), ()):
                if dep not in affected:
                    affected.add(dep)
                    pending.append(dep)
        order = memo[key] = tuple(topo_order(env, affected))
    return order


def _run_wave(
    new: Store, env: TypeEnv, before: dict[str, Value | None]
) -> tuple[Store, PropagationResult]:
    """The tail of every transaction: `new` holds its writes and `before`
    each written name's old value (None for a new name).  Recompute each
    definition downstream of a written name once, in `wave_order`, by its
    code in `env`, into `new`, which is still private to the caller and
    serves as the wave's one scratch view, and report the changes."""
    order = wave_order(env, before)
    defs = new.defs
    for name in order:
        before.setdefault(name, defs[name])
        defs[name] = eval_expr(new, {}, env.get(name).expr)
    return new, PropagationResult(new.txn, diff(before, new), order)


def diff(before: Mapping[str, Value | None], store: Store) -> tuple[Change, ...]:
    """The changes from the values in `before` (None for a name that did
    not exist) to those of the same names in `store`, by name."""
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
    before: dict[str, Value | None] = {n: store.vars[n] for n in changed_vars}
    new = Store(store.vars, store.defs, txn)
    new.vars.update(changed_vars)
    return _run_wave(new, env, before)


def init_cells(
    store: Store, env: TypeEnv, r: Program, txn: int
) -> tuple[Store, PropagationResult]:
    """Apply an accepted evolution to the store.

    `env` is the environment with the evolution's bindings merged in.
    Installs each declaration left to right (so later declarations can
    read earlier ones), then recomputes `wave_order(env, <declared names>)`
    once — all under a single transaction, whose changes cover the declared
    and the recomputed names.  An empty program returns the store unchanged
    and consumes no transaction.  Any fault leaves the caller's store
    untouched.
    """
    if not r.decls:
        return store, PropagationResult(None)
    new = Store(store.vars, store.defs, txn)
    before: dict[str, Value | None] = {}
    for d in r.decls:
        name = d.name
        if name not in before:
            before[name] = new.value_of(name) if name in new else None
        (new.vars if d.kind is DeclKind.STATE else new.defs)[name] = eval_expr(new, {}, d.init)
    # the wave covers everything downstream of a declared name, including
    # declarations from this very program that read a name redeclared later
    return _run_wave(new, env, before)


def merge_defs(
    d1: Mapping[str, Value],
    d2: Mapping[str, Value],
    merged_vars: Mapping[str, Value],
    env: TypeEnv,
    w1: Collection[str],
    w2: Collection[str],
) -> dict[str, Value]:
    """Merge the definition values of two transactions run from the same
    base store under `env` with the disjoint state-variable write sets `w1`
    and `w2`.

    A definition downstream of one side's writes only cannot see the other
    side's, so its value is taken from that side's map as it is.  Only the
    definitions downstream of both sides are recomputed, by their code in
    `env`, against the merged variable state, in `wave_order(env, w1 | w2)`.
    Every other value is the one both maps share, since no input of it
    changed, and it stands.  Symmetric in the two sides.  Maps over
    different names raise ValueError.
    """
    if d1.keys() != d2.keys():
        raise ValueError("definition maps must cover the same names")
    down1, down2 = set(wave_order(env, w1)), set(wave_order(env, w2))
    merged = Store(merged_vars, d1)
    for name in wave_order(env, {*w1, *w2}):
        if name not in down1:
            merged.defs[name] = d2[name]
        elif name in down2:
            merged.defs[name] = eval_expr(merged, {}, env.get(name).expr)
    return merged.defs
