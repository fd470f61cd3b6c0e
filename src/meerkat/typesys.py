"""Dependency-annotated types and static checks.

Every top-level name is either a *state variable* (an independent mutable
cell, marked by a `None` dependency set) or a *definition* whose binding
records the set of top-level names its body reads, each paired with the
type it had when the definition was checked.  Function and action types
carry the same kind of set as a latent annotation: the reads happen when
the function is applied or the action is executed, not where the literal
appears.

The checks in this module are all pure; environments are immutable and
every operation returns a fresh value or a report.  An env caches only
what is derived from its bindings: its reverse edges and whether
`compatible` found it well-formed.  The reverse edges of an env that
`compatible` accepts are patched from its base's, so accepting an
evolution costs what its delta touches.
"""

from __future__ import annotations

import heapq
from collections import abc
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .syntax import (
    ActionLit,
    App,
    BinOp,
    DoStmt,
    DeclKind,
    Expr,
    If,
    Lambda,
    Lit,
    Program,
    Ref,
    Span,
    Unit,
)


class TypeCheckError(Exception):
    """A static rejection. `reason` is a stable machine-readable tag."""

    def __init__(self, reason: str, message: str, name: str | None = None, span: Span | None = None):
        loc = f" at {span.line}:{span.col}" if span else ""
        super().__init__(f"{reason}: {message}{loc}")
        self.reason = reason
        self.message = message
        self.name = name
        self.span = span

    def to_json(self) -> dict:
        out: dict = {"reason": self.reason, "message": self.message}
        if self.name is not None:
            out["name"] = self.name
        if self.span is not None:
            out["line"] = self.span.line
            out["col"] = self.span.col
        return out


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Base:
    name: str  # "Int" | "Bool" | "String" | "Unit"


INT = Base("Int")
BOOL = Base("Bool")
STRING = Base("String")
UNIT_T = Base("Unit")


@dataclass(frozen=True)
class DepSet:
    """An immutable name -> type map of direct reads. Stored sorted by name."""

    items: tuple[tuple[str, "Type"], ...] = ()

    @staticmethod
    def of(pairs: Mapping[str, "Type"] | Iterable[tuple[str, "Type"]] = ()) -> "DepSet":
        d = dict(pairs.items() if isinstance(pairs, abc.Mapping) else pairs)
        return DepSet(tuple(sorted(d.items())))

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.items)

    def get(self, name: str) -> "Type | None":
        for n, t in self.items:
            if n == name:
                return t
        return None

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.items)

    def __iter__(self) -> Iterator[tuple[str, "Type"]]:
        return iter(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def union(self, other: "DepSet") -> "DepSet":
        """Union two dependency sets; the same name at two types is an error."""
        merged = dict(self.items)
        for n, t in other.items:
            if n in merged and merged[n] != t:
                raise TypeCheckError(
                    "TypeMismatch",
                    f"'{n}' is read at two different types: {render_type(merged[n])} vs {render_type(t)}",
                    name=n,
                )
            merged[n] = t
        return DepSet.of(merged)


EMPTY_DEPS = DepSet()

WriteSet = frozenset  # state-variable names an action assigns


@dataclass(frozen=True)
class Func:
    dom: "Type"
    cod: "Type"
    deps: DepSet = EMPTY_DEPS


@dataclass(frozen=True)
class Action:
    reads: DepSet = EMPTY_DEPS
    writes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class TVar:
    """Inference-internal unification variable; never escapes infer_expr."""

    id: int


Type = Union[Base, Func, Action, TVar]


def render_type(t: Type) -> str:
    if isinstance(t, Base):
        return t.name
    if isinstance(t, Func):
        deps = ", ".join(n for n, _ in t.deps)
        ann = f" reads [{deps}]" if deps else ""
        return f"({render_type(t.dom)} -> {render_type(t.cod)}{ann})"
    if isinstance(t, Action):
        reads = ", ".join(n for n, _ in t.reads)
        writes = ", ".join(sorted(t.writes))
        return f"action(reads [{reads}] writes [{writes}])"
    return f"?{t.id}"


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Binding:
    """What the environment knows about a top-level name.

    `deps is None` marks a state variable; otherwise the binding is a
    definition and `deps` records its direct reads.
    """

    ty: Type
    deps: DepSet | None = None

    @property
    def is_state(self) -> bool:
        return self.deps is None


class TypeEnv:
    """Ordered, immutable map of top-level names to bindings: the one dependency graph.

    Besides its bindings an env keeps two derived facts: its reverse
    edges (`readers()`) and a mark that it is known to be well-formed.
    Only the merged env of a passing `compatible` carries the mark;
    `TypeEnv()`, `bind`, `without` and `env_merge` never set it, so any
    other env takes `compatible`'s whole-env check.
    """

    __slots__ = ("_bindings", "_readers", "_well_formed")

    def __init__(self, bindings: Mapping[str, Binding] | Iterable[tuple[str, Binding]] = ()):
        self._bindings = dict(bindings.items() if isinstance(bindings, abc.Mapping) else bindings)
        self._readers: dict[str, frozenset[str]] | None = None
        self._well_formed = False

    def get(self, name: str) -> Binding | None:
        return self._bindings.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __bool__(self) -> bool:
        return bool(self._bindings)

    def names(self) -> tuple[str, ...]:
        return tuple(self._bindings)

    def items(self) -> tuple[tuple[str, Binding], ...]:
        return tuple(self._bindings.items())

    def readers(self) -> Mapping[str, frozenset[str]]:
        """name -> the definitions that read it directly, derived on first
        use and kept: the env is immutable."""
        if self._readers is None:
            self._readers = _reverse_edges(self)
        return self._readers

    def bind(self, name: str, binding: Binding) -> "TypeEnv":
        merged = dict(self._bindings)
        merged[name] = binding
        return TypeEnv(merged)

    def without(self, names: Iterable[str]) -> "TypeEnv":
        drop = set(names)
        return TypeEnv({n: b for n, b in self._bindings.items() if n not in drop})

    def __eq__(self, other) -> bool:  # order-insensitive, like dict
        return isinstance(other, TypeEnv) and self._bindings == other._bindings

    def __repr__(self) -> str:
        parts = []
        for n, b in self._bindings.items():
            mark = "state" if b.is_state else "[" + ", ".join(g for g, _ in b.deps) + "]"
            parts.append(f"{n}: {render_type(b.ty)} {mark}")
        return "TypeEnv({" + ", ".join(parts) + "})"

    def to_json(self) -> dict:
        out = {}
        for n, b in self._bindings.items():
            out[n] = {
                "kind": "var" if b.is_state else "def",
                "type": render_type(b.ty),
                "deps": [] if b.is_state else sorted(g for g, _ in b.deps),
            }
        return out


def env_merge(base: TypeEnv, delta: TypeEnv) -> TypeEnv:
    """Overwrite-merge: delta's bindings shadow base's, new names append."""
    merged = dict(base.items())
    merged.update(dict(delta.items()))
    return TypeEnv(merged)


# ---------------------------------------------------------------------------
# Well-formedness and compatibility reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str  # "cycle" | "inconsistent" | "kind_flip" | "stale_dependent"
    name: str
    detail: str
    path: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {"kind": self.kind, "name": self.name, "detail": self.detail}
        if self.path:
            out["path"] = list(self.path)
        return out


@dataclass(frozen=True)
class CompatReport:
    """What `compatible` found.  An ok report also carries the merged env
    it accepted, which is the env to commit; it takes no part in equality."""

    violations: tuple[Violation, ...] = ()
    merged: TypeEnv | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "; ".join(f"{v.kind}({v.name}): {v.detail}" for v in self.violations)


OK_REPORT = CompatReport()


def dep_edges(env: TypeEnv) -> dict[str, frozenset[str]]:
    """name -> the set of names its binding reads directly (empty for state vars)."""
    return {
        n: (frozenset() if b.is_state else b.deps.names()) for n, b in env.items()
    }


def _reverse_edges(env: TypeEnv) -> dict[str, frozenset[str]]:
    """The reverse of `dep_edges(env)`."""
    rev: dict[str, set[str]] = {}
    for n, b in env.items():
        for d, _ in b.deps or ():
            rev.setdefault(d, set()).add(n)
    return {d: frozenset(ns) for d, ns in rev.items()}


def well_formed(env: TypeEnv) -> CompatReport:
    """Check the two environment invariants: consistency and acyclicity."""
    return CompatReport(tuple(_violations(env, env.names())))


def _violations(env: TypeEnv, names: Sequence[str]) -> list[Violation]:
    """The inconsistent bindings among `names`, in the order given, then
    the cycles reachable from them: a DFS from each name in sorted order,
    taking reads in sorted order and skipping unbound names, reports every
    back edge it meets.  Every name must be bound in `env`."""
    violations: list[Violation] = []
    for name in names:
        for dep, dep_ty in env.get(name).deps or ():
            bound = env.get(dep)
            if bound is None:
                violations.append(Violation("inconsistent", name, f"reads unbound name '{dep}'"))
            elif bound.ty != dep_ty:
                violations.append(
                    Violation(
                        "inconsistent",
                        name,
                        f"reads '{dep}' at {render_type(dep_ty)} but it is bound at {render_type(bound.ty)}",
                    )
                )
    state: dict[str, int] = {}  # 1 on the trail, 2 done
    for root in sorted(names):
        if root in state:
            continue
        # iterative DFS so deep graphs cannot overflow the stack; a binding's
        # reads are a DepSet, already sorted by name
        state[root] = 1
        trail = [root]
        stack = [iter(env.get(root).deps or ())]
        while stack:
            for nxt, _ in stack[-1]:
                if nxt not in env:
                    continue
                seen = state.get(nxt)
                if seen == 1:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    violations.append(Violation("cycle", nxt, " -> ".join(cycle), tuple(cycle)))
                elif seen is None:
                    state[nxt] = 1
                    trail.append(nxt)
                    stack.append(iter(env.get(nxt).deps or ()))
                    break
            else:
                state[trail.pop()] = 2
                stack.pop()
    return violations


def compatible(base: TypeEnv, delta: TypeEnv) -> CompatReport:
    """Can `delta` be applied on top of `base`?

    Beyond well-formedness of the merged environment this rejects kind
    flips (a name switching between state variable and definition) and
    type changes that leave a dependent definition behind: if a rebound
    name's type changes, every definition that reads it must itself be
    rebound in the same delta; `base.readers()` lists those dependents.

    When `base` is marked well-formed, only what the delta touches is
    checked: the kind flips and stale dependents above, and the violations
    among the delta's names and reachable from them (a base reader of a
    name rebound at another type is a stale dependent, and a new cycle
    must pass through a delta name).  Any other base, and anything the
    local check finds, takes the whole-env scan, so a rejection lists
    every violation of the merged env in the same order either way.  An
    ok report carries the merged env, marked well-formed, with its reverse
    edges patched from `base`'s.
    """
    merged = env_merge(base, delta)
    violations = _delta_violations(base, delta)
    if not (base._well_formed and not violations and not _violations(merged, delta.names())):
        violations[:0] = well_formed(merged).violations
        if violations:
            return CompatReport(tuple(violations))
    _patch_derived(base, delta, merged)
    merged._well_formed = True
    return CompatReport(merged=merged)


def _delta_violations(base: TypeEnv, delta: TypeEnv) -> list[Violation]:
    """The kind flips and stale dependents of applying `delta` to `base`,
    each rebound name's stale dependents in `base`'s env order."""
    violations: list[Violation] = []
    for name, new_b in delta.items():
        old_b = base.get(name)
        if old_b is None:
            continue
        if old_b.is_state != new_b.is_state:
            was, now = ("var", "def") if old_b.is_state else ("def", "var")
            violations.append(
                Violation("kind_flip", name, f"'{name}' changed from {was} to {now}")
            )
        if old_b.ty != new_b.ty:
            stale = {n for n in base.readers().get(name, ()) if n not in delta}
            if stale:
                violations.extend(
                    Violation(
                        "stale_dependent",
                        dep_name,
                        f"'{dep_name}' reads '{name}' whose type changed but was not rebound",
                    )
                    for dep_name in base.names()
                    if dep_name in stale
                )
    return violations


def _patch_derived(base: TypeEnv, delta: TypeEnv, merged: TypeEnv) -> None:
    """Give `merged` (`base` overwritten by `delta`) its reverse edges,
    patched from `base`'s instead of derived from every binding."""
    readers = dict(base.readers())
    for name, b in delta.items():
        old_b = base.get(name)
        old_reads = frozenset() if old_b is None or old_b.is_state else old_b.deps.names()
        new_reads = frozenset() if b.is_state else b.deps.names()
        for dep in old_reads - new_reads:
            rest = readers[dep] - {name}
            if rest:
                readers[dep] = rest
            else:
                del readers[dep]
        for dep in new_reads - old_reads:
            readers[dep] = readers.get(dep, frozenset()) | {name}
    merged._readers = readers


def topo_order(env: TypeEnv, names: Iterable[str]) -> list[str]:
    """Dependency-first order over `names`, by their bindings' direct reads.

    Deterministic: ties break lexicographically.  Requires acyclic edges.
    """
    wanted = set(names)
    indeg = {}
    rdeps: dict[str, list[str]] = {}
    for n in wanted:
        b = env.get(n)
        deps_in = [d for d, _ in (b.deps or ()) if d in wanted] if b is not None else []
        indeg[n] = len(deps_in)
        for d in deps_in:
            rdeps.setdefault(d, []).append(n)
    heap = sorted(n for n, d in indeg.items() if d == 0)
    heapq.heapify(heap)
    out = []
    while heap:
        n = heapq.heappop(heap)
        out.append(n)
        for m in rdeps.get(n, ()):
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(heap, m)
    if len(out) != len(wanted):
        raise ValueError("dependency graph has a cycle")
    return out


# ---------------------------------------------------------------------------
# Expression inference
# ---------------------------------------------------------------------------

_ARITH = {"+", "-", "*", "/"}
_LOGIC = {"&&", "||"}


class _Infer:
    def __init__(self, env: TypeEnv):
        self.env = env
        self.subst: dict[int, Type] = {}
        self.counter = 0

    def fresh(self) -> TVar:
        self.counter += 1
        return TVar(self.counter)

    def resolve(self, t: Type) -> Type:
        while isinstance(t, TVar) and t.id in self.subst:
            t = self.subst[t.id]
        return t

    def zonk(self, t: Type, span: Span | None) -> Type:
        t = self.resolve(t)
        if isinstance(t, TVar):
            raise TypeCheckError(
                "UnresolvedType",
                "type cannot be determined; only monomorphic uses are supported",
                span=span,
            )
        if isinstance(t, Func):
            return Func(self.zonk(t.dom, span), self.zonk(t.cod, span), t.deps)
        return t

    def _occurs(self, var: TVar, t: Type) -> bool:
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.id == var.id
        if isinstance(t, Func):
            return self._occurs(var, t.dom) or self._occurs(var, t.cod)
        return False

    def unify(self, a: Type, b: Type, span: Span | None, reason: str = "TypeMismatch"):
        a, b = self.resolve(a), self.resolve(b)
        if isinstance(a, TVar):
            if isinstance(b, TVar) and b.id == a.id:
                return
            if self._occurs(a, b):
                raise TypeCheckError(reason, "expression would need an infinite type", span=span)
            self.subst[a.id] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, span, reason)
            return
        if isinstance(a, Base) and isinstance(b, Base) and a.name == b.name:
            return
        if isinstance(a, Func) and isinstance(b, Func):
            if a.deps != b.deps:
                raise TypeCheckError(
                    reason,
                    f"function types read different dependencies: {render_type(a)} vs {render_type(b)}",
                    span=span,
                )
            self.unify(a.dom, b.dom, span, reason)
            self.unify(a.cod, b.cod, span, reason)
            return
        if isinstance(a, Action) and isinstance(b, Action) and a == b:
            return
        raise TypeCheckError(
            reason, f"expected {render_type(a)} but found {render_type(b)}", span=span
        )

    def infer(self, ctx: dict[str, Type], e: Expr) -> tuple[Type, DepSet]:
        if isinstance(e, Lit):
            v = e.value
            if isinstance(v, Unit):
                return UNIT_T, EMPTY_DEPS
            if isinstance(v, bool):
                return BOOL, EMPTY_DEPS
            if isinstance(v, int):
                return INT, EMPTY_DEPS
            if isinstance(v, str):
                return STRING, EMPTY_DEPS
            raise TypeCheckError("TypeMismatch", f"unsupported literal {v!r}", span=e.span)
        if isinstance(e, Ref):
            if e.name in ctx:
                # lambda parameters are local: they never enter dependency sets
                return ctx[e.name], EMPTY_DEPS
            b = self.env.get(e.name)
            if b is None:
                raise TypeCheckError("UnboundName", f"'{e.name}' is not bound", e.name, e.span)
            return b.ty, DepSet.of({e.name: b.ty})
        if isinstance(e, Lambda):
            param_t = self.fresh()
            body_ctx = dict(ctx)
            body_ctx[e.param] = param_t
            body_t, body_deps = self.infer(body_ctx, e.body)
            return Func(param_t, body_t, body_deps), EMPTY_DEPS
        if isinstance(e, App):
            fn_t, fn_deps = self.infer(ctx, e.fn)
            arg_t, arg_deps = self.infer(ctx, e.arg)
            fn_t = self.resolve(fn_t)
            if isinstance(fn_t, TVar):
                raise TypeCheckError(
                    "UnresolvedType",
                    "applied expression has no known function type",
                    span=e.span,
                )
            if not isinstance(fn_t, Func):
                raise TypeCheckError(
                    "NonFunctionApplication",
                    f"cannot apply a value of type {render_type(fn_t)}",
                    span=e.span,
                )
            self.unify(fn_t.dom, arg_t, e.span)
            deps = fn_deps.union(arg_deps).union(fn_t.deps)
            return fn_t.cod, deps
        if isinstance(e, BinOp):
            lt, ld = self.infer(ctx, e.lhs)
            rt, rd = self.infer(ctx, e.rhs)
            deps = ld.union(rd)
            if e.op in _ARITH:
                self.unify(lt, INT, e.span)
                self.unify(rt, INT, e.span)
                return INT, deps
            if e.op in _LOGIC:
                self.unify(lt, BOOL, e.span)
                self.unify(rt, BOOL, e.span)
                return BOOL, deps
            if e.op == "<":
                self.unify(lt, INT, e.span)
                self.unify(rt, INT, e.span)
                return BOOL, deps
            if e.op == "==":
                self.unify(lt, rt, e.span)
                t = self.resolve(lt)
                if isinstance(t, (Func, Action)):
                    raise TypeCheckError(
                        "TypeMismatch", "'==' compares base-type values only", span=e.span
                    )
                return BOOL, deps
            raise TypeCheckError("TypeMismatch", f"unknown operator {e.op!r}", span=e.span)
        if isinstance(e, If):
            ct, cd = self.infer(ctx, e.cond)
            self.unify(ct, BOOL, e.span)
            tt, td = self.infer(ctx, e.then)
            et, ed = self.infer(ctx, e.orelse)
            self.unify(tt, et, e.span, reason="BranchMismatch")
            return self.resolve(tt), cd.union(td).union(ed)
        if isinstance(e, ActionLit):
            reads = EMPTY_DEPS
            writes: set[str] = set()
            for w in e.body.writes:
                if w.target in ctx:
                    raise TypeCheckError(
                        "KindMismatch",
                        f"cannot write to '{w.target}': it is a local, not a state variable",
                        w.target,
                        w.span,
                    )
                b = self.env.get(w.target)
                if b is None:
                    raise TypeCheckError(
                        "UnboundName", f"'{w.target}' is not bound", w.target, w.span
                    )
                if not b.is_state:
                    raise TypeCheckError(
                        "KindMismatch",
                        f"cannot write to '{w.target}': it is a definition, not a state variable",
                        w.target,
                        w.span,
                    )
                rhs_t, rhs_deps = self.infer(ctx, w.rhs)
                self.unify(b.ty, rhs_t, w.span)
                reads = reads.union(rhs_deps)
                writes.add(w.target)
            return Action(reads, frozenset(writes)), EMPTY_DEPS
        raise TypeCheckError("TypeMismatch", f"not an expression: {e!r}")


def infer_expr(env: TypeEnv, ctx: Mapping[str, Type], e: Expr) -> tuple[Type, DepSet]:
    """Infer the type of `e` and the set of top-level names it reads directly.

    `ctx` types lambda parameters of an enclosing scope (empty for whole
    declarations).  Lambda parameter types are found by unification and
    must come out monomorphic.
    """
    inf = _Infer(env)
    t, deps = inf.infer(dict(ctx), e)
    span = getattr(e, "span", None)
    return inf.zonk(t, span), deps


def infer_program(env: TypeEnv, r: Program) -> TypeEnv:
    """Type a declaration sequence; returns only the bindings it contributes.

    Declarations see the bindings of earlier declarations in the same
    sequence.  A state variable's initializer must read nothing.
    """
    delta = TypeEnv()
    for d in r.decls:
        if d.name in delta:
            raise TypeCheckError(
                "DuplicateInProgram",
                f"'{d.name}' is declared twice in one submission",
                d.name,
                d.span,
            )
        working = env_merge(env, delta) if delta else env
        ty, deps = infer_expr(working, {}, d.init)
        if d.kind is DeclKind.STATE:
            if deps:
                names = ", ".join(f"'{n}'" for n, _ in deps)
                raise TypeCheckError(
                    "StateVarDependency",
                    f"state variable '{d.name}' must not depend on other names (reads {names})",
                    d.name,
                    d.span,
                )
            binding = Binding(ty, None)
        else:
            binding = Binding(ty, deps)
        delta = delta.bind(d.name, binding)
    return delta


def transitive_reads(env: TypeEnv, roots: DepSet) -> tuple[frozenset[str], frozenset[str]]:
    """Close `roots` over definition dependencies.

    Returns (state variables, definitions) reachable from the roots,
    roots included.
    """
    state_vars: set[str] = set()
    defs: set[str] = set()
    pending = list(roots.names())
    seen: set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        b = env.get(name)
        if b is None:
            raise TypeCheckError("UnboundName", f"'{name}' is not bound", name)
        if b.is_state:
            state_vars.add(name)
        else:
            defs.add(name)
            pending.extend(b.deps.names())
    return frozenset(state_vars), frozenset(defs)


@dataclass(frozen=True)
class DoPlan:
    """Static lock footprint of one `do`: what it will read and write."""

    read_vars: frozenset[str]
    read_defs: frozenset[str]
    writes: frozenset[str]

    def reads(self) -> frozenset[str]:
        return self.read_vars | self.read_defs


def check_do(env: TypeEnv, stmt: DoStmt) -> DoPlan:
    """Type a `do` statement and compute its lock plan.

    The expression must have an action type.  The plan's read set closes
    over both the names read to evaluate the expression itself and the
    action's recorded reads; `do` never changes the environment.
    """
    ty, outer = infer_expr(env, {}, stmt.expr)
    if not isinstance(ty, Action):
        raise TypeCheckError(
            "NotAnAction",
            f"'do' needs an action, found {render_type(ty)}",
            span=stmt.span,
        )
    roots = outer.union(ty.reads)
    read_vars, read_defs = transitive_reads(env, roots)
    return DoPlan(read_vars, read_defs, ty.writes)
