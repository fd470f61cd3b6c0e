"""Static checks: inference, environment merge, compatibility, read planning."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meerkat.syntax import parse_do, parse_expr, parse_program
from meerkat.typesys import (
    BOOL,
    EMPTY_DEPS,
    INT,
    STRING,
    UNIT_T,
    Action,
    Binding,
    CompatReport,
    DepSet,
    Func,
    TypeCheckError,
    TypeEnv,
    Violation,
    _reverse_edges,
    check_do,
    compatible,
    env_merge,
    infer_expr,
    infer_program,
    render_type,
    transitive_reads,
    well_formed,
)

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"


def dep_edges(env: TypeEnv) -> dict[str, frozenset[str]]:
    """name -> the names its binding reads directly (none for a state var)."""
    return {n: frozenset() if b.is_state else b.deps.names() for n, b in env.items()}


def listing_env() -> TypeEnv:
    return infer_program(TypeEnv(), parse_program(LISTING))


def infer(env, source, ctx=None):
    return infer_expr(env, ctx or {}, parse_expr(source))


class TestInferExpr:
    def test_literal_has_no_dependencies(self):
        assert infer(TypeEnv(), "1") == (INT, EMPTY_DEPS)
        assert infer(TypeEnv(), "true") == (BOOL, EMPTY_DEPS)
        assert infer(TypeEnv(), '"s"') == (STRING, EMPTY_DEPS)
        assert infer(TypeEnv(), "()") == (UNIT_T, EMPTY_DEPS)

    def test_state_variable_read(self):
        env = TypeEnv({"x": Binding(INT, None)})
        assert infer(env, "x + 1") == (INT, DepSet.of({"x": INT}))

    def test_local_reads_do_not_enter_deps(self):
        ty, deps = infer(TypeEnv(), "fn y => y + 1")
        assert ty == Func(INT, INT, EMPTY_DEPS)
        assert deps == EMPTY_DEPS

    def test_lambda_body_reads_become_latent(self):
        env = TypeEnv({"x": Binding(INT, None)})
        ty, deps = infer(env, "fn y => y + x")
        assert ty == Func(INT, INT, DepSet.of({"x": INT}))
        assert deps == EMPTY_DEPS

    def test_application_unions_latent_deps(self):
        env = TypeEnv(
            {
                "x": Binding(INT, None),
                "f": Binding(Func(INT, INT, DepSet.of({"x": INT})), DepSet()),
            }
        )
        ty, deps = infer(env, "f 1")
        assert ty == INT
        assert deps == DepSet.of({"f": env.get("f").ty, "x": INT})

    def test_action_literal_types_per_write(self):
        env = TypeEnv({"x": Binding(INT, None)})
        ty, deps = infer(env, "action { x := x + 1 }")
        assert ty == Action(DepSet.of({"x": INT}), frozenset({"x"}))
        assert deps == EMPTY_DEPS

    def test_action_write_to_definition_is_kind_mismatch(self):
        env = TypeEnv({"inc1": Binding(INT, DepSet())})
        with pytest.raises(TypeCheckError) as exc:
            infer(env, "action { inc1 := 2 }")
        assert exc.value.reason == "KindMismatch"

    def test_action_write_to_local_is_kind_mismatch(self):
        with pytest.raises(TypeCheckError) as exc:
            infer(TypeEnv(), "fn y => action { y := 2 }")
        assert exc.value.reason == "KindMismatch"

    def test_action_write_type_must_match_target(self):
        env = TypeEnv({"x": Binding(INT, None)})
        with pytest.raises(TypeCheckError) as exc:
            infer(env, "action { x := true }")
        assert exc.value.reason == "TypeMismatch"

    def test_unbound_name(self):
        with pytest.raises(TypeCheckError) as exc:
            infer(TypeEnv(), "nope + 1")
        assert exc.value.reason == "UnboundName"
        assert exc.value.name == "nope"

    def test_branch_mismatch(self):
        with pytest.raises(TypeCheckError) as exc:
            infer(TypeEnv(), "if true then 1 else false")
        assert exc.value.reason == "BranchMismatch"

    def test_non_function_application(self):
        with pytest.raises(TypeCheckError) as exc:
            infer(TypeEnv(), "1 2")
        assert exc.value.reason == "NonFunctionApplication"

    def test_polymorphic_lambda_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            infer(TypeEnv(), "fn y => y")
        assert exc.value.reason == "UnresolvedType"

    def test_condition_must_be_bool(self):
        with pytest.raises(TypeCheckError):
            infer(TypeEnv(), "if 1 then 2 else 3")

    def test_equality_on_functions_rejected(self):
        with pytest.raises(TypeCheckError):
            infer(TypeEnv(), "(fn y => y + 1) == (fn z => z + 1)")

    def test_nested_action_values_do_not_leak_writes(self):
        # an action stored inside another action's rhs is just a value;
        # only the outer literal's own writes count
        inner = Action(DepSet(), frozenset({"x"}))
        env = TypeEnv({"x": Binding(INT, None), "a": Binding(inner, None)})
        ty, _ = infer(env, "action { a := action { x := 1 }; x := 2 }")
        assert ty.writes == frozenset({"a", "x"})
        assert ty.reads == EMPTY_DEPS

    def test_branches_must_agree_on_annotations(self):
        env = TypeEnv(
            {
                "x": Binding(INT, None),
                "f": Binding(Func(INT, INT, DepSet.of({"x": INT})), DepSet()),
                "g": Binding(Func(INT, INT), DepSet()),
            }
        )
        with pytest.raises(TypeCheckError) as exc:
            infer(env, "if true then f else g")
        assert exc.value.reason == "BranchMismatch"


class TestInferProgram:
    def test_listing_environment(self):
        env = listing_env()
        assert env.get("x") == Binding(INT, None)
        assert env.get("inc1") == Binding(INT, DepSet.of({"x": INT}))
        assert env.get("inc2") == Binding(INT, DepSet.of({"inc1": INT}))

    def test_empty_program(self):
        assert infer_program(TypeEnv(), parse_program("")) == TypeEnv()

    def test_state_variable_initializer_must_be_closed(self):
        env = listing_env()
        with pytest.raises(TypeCheckError) as exc:
            infer_program(env, parse_program("var y = x + 1;"))
        assert exc.value.reason == "StateVarDependency"

    def test_state_variable_initializer_unbound(self):
        with pytest.raises(TypeCheckError) as exc:
            infer_program(TypeEnv(), parse_program("var y = x + 1;"))
        assert exc.value.reason == "UnboundName"

    def test_duplicate_names_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            infer_program(TypeEnv(), parse_program("var a = 1; def a = 2;"))
        assert exc.value.reason == "DuplicateInProgram"

    def test_later_declarations_see_earlier_ones(self):
        delta = infer_program(TypeEnv(), parse_program(LISTING))
        assert delta.get("inc2").deps == DepSet.of({"inc1": INT})

    def test_delta_contains_only_new_bindings(self):
        base = listing_env()
        delta = infer_program(base, parse_program("def inc3 = inc2 + 1;"))
        assert delta.names() == ("inc3",)


class TestEnvMerge:
    def test_identity(self):
        env = listing_env()
        assert env_merge(TypeEnv(), env) == env

    def test_overwrite(self):
        a = TypeEnv({"x": Binding(INT, None)})
        b = TypeEnv({"x": Binding(BOOL, None)})
        merged = env_merge(a, b)
        assert merged.get("x") == Binding(BOOL, None)
        assert len(merged) == 1

    def test_overwrite_keeps_others(self):
        base = listing_env()
        rebound = Binding(INT, DepSet.of({"x": INT}))
        merged = env_merge(base, TypeEnv({"inc1": rebound}))
        assert merged.get("inc1") == rebound
        assert merged.get("x") == base.get("x")
        assert merged.get("inc2") == base.get("inc2")

    def test_ordering_base_first_then_new(self):
        base = TypeEnv({"a": Binding(INT, None), "b": Binding(INT, None)})
        delta = TypeEnv({"b": Binding(INT, None), "c": Binding(INT, None)})
        assert env_merge(base, delta).names() == ("a", "b", "c")


class TestWellFormed:
    def test_listing_is_well_formed(self):
        assert well_formed(listing_env()).ok

    def test_empty_is_well_formed(self):
        assert well_formed(TypeEnv()).ok

    def test_self_loop(self):
        env = TypeEnv({"f": Binding(INT, DepSet.of({"f": INT}))})
        report = well_formed(env)
        assert not report.ok
        assert any(v.kind == "cycle" for v in report.violations)

    def test_inconsistent_dependency_type(self):
        env = TypeEnv(
            {"x": Binding(BOOL, None), "f": Binding(INT, DepSet.of({"x": INT}))}
        )
        report = well_formed(env)
        assert any(v.kind == "inconsistent" for v in report.violations)


class TestCompatible:
    def test_extension_is_compatible(self):
        base = listing_env()
        delta = infer_program(base, parse_program("def inc3 = inc2 + 1;"))
        assert compatible(base, delta).ok

    def test_cycle_between_deltas(self):
        base = TypeEnv({"a": Binding(INT, DepSet.of({"b": INT})), "b": Binding(INT, DepSet.of({"a": INT}))})
        report = well_formed(base)
        assert any(v.kind == "cycle" for v in report.violations)
        clean = TypeEnv({"a": Binding(INT, DepSet())})
        delta = TypeEnv({"b": Binding(INT, DepSet.of({"a": INT})), "a": Binding(INT, DepSet.of({"b": INT}))})
        assert not compatible(clean, delta).ok

    def test_stale_dependent_on_type_change(self):
        base = listing_env()
        delta = TypeEnv({"x": Binding(BOOL, None)})
        report = compatible(base, delta)
        assert any(
            v.kind == "stale_dependent" and v.name == "inc1" for v in report.violations
        )

    def test_type_change_with_rebound_dependents_is_ok(self):
        base = listing_env()
        delta = infer_program(
            base.without(["x", "inc1", "inc2"]),
            parse_program('var x = true; def inc1 = if x then 1 else 0; def inc2 = inc1 + 1;'),
        )
        assert compatible(base, delta).ok

    def test_kind_flip_rejected(self):
        base = listing_env()
        # rebind inc1 as a state variable at the same type
        delta = TypeEnv({"inc1": Binding(INT, None)})
        report = compatible(base, delta)
        assert any(v.kind == "kind_flip" for v in report.violations)

    def test_compatible_implies_merged_well_formed(self):
        base = listing_env()
        delta = infer_program(base, parse_program("def a = inc1 + inc2;"))
        assert compatible(base, delta).ok
        assert well_formed(env_merge(base, delta)).ok


class TestTransitiveReads:
    def test_listing_closure(self):
        env = listing_env()
        vs, ds = transitive_reads(env, DepSet.of({"inc2": INT}))
        assert vs == frozenset({"x"})
        assert ds == frozenset({"inc2", "inc1"})

    def test_empty_roots(self):
        assert transitive_reads(listing_env(), DepSet()) == (frozenset(), frozenset())

    def test_state_variable_root(self):
        vs, ds = transitive_reads(listing_env(), DepSet.of({"x": INT}))
        assert vs == frozenset({"x"})
        assert ds == frozenset()


class TestCheckDo:
    def test_plan_includes_the_action_definition_itself(self):
        env = listing_env()
        delta = infer_program(env, parse_program("def bump = action { x := x + 1 };"))
        env = env_merge(env, delta)
        plan = check_do(env, parse_do("do bump"))
        assert plan.read_vars == frozenset({"x"})
        assert plan.read_defs == frozenset({"bump"})
        assert plan.writes == frozenset({"x"})

    def test_not_an_action(self):
        with pytest.raises(TypeCheckError) as exc:
            check_do(listing_env(), parse_do("do 1"))
        assert exc.value.reason == "NotAnAction"

    def test_empty_action_plan(self):
        plan = check_do(listing_env(), parse_do("do (action { })"))
        assert plan.read_vars == frozenset()
        assert plan.read_defs == frozenset()
        assert plan.writes == frozenset()

    def test_do_never_extends_environment(self):
        env = listing_env()
        check_do(env, parse_do("do (action { x := 5 })"))
        assert env == listing_env()


class TestDepSet:
    def test_union_conflict_is_an_error(self):
        a = DepSet.of({"x": INT})
        b = DepSet.of({"x": BOOL})
        with pytest.raises(TypeCheckError):
            a.union(b)

    def test_union_is_order_insensitive(self):
        a = DepSet.of({"x": INT})
        b = DepSet.of({"y": BOOL})
        assert a.union(b) == b.union(a)


# --- properties ---

_names = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def random_programs(draw):
    """Sequences of declarations where every reference points backwards."""
    count = draw(st.integers(min_value=0, max_value=5))
    decls = []
    bound: list[str] = []
    for _ in range(count):
        name = draw(_names.filter(lambda n: n not in {d[0] for d in decls}))
        if not bound or draw(st.booleans()):
            decls.append((name, f"var {name} = {draw(st.integers(0, 9))};"))
        else:
            refs = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=3))
            body = " + ".join(refs)
            decls.append((name, f"def {name} = {body};"))
        bound.append(name)
    return "".join(text for _, text in decls)


@settings(max_examples=200, deadline=None)
@given(random_programs())
def test_accepted_programs_yield_well_formed_envs(source):
    delta = infer_program(TypeEnv(), parse_program(source))
    assert well_formed(delta).ok
    assert compatible(TypeEnv(), delta).ok


@settings(max_examples=100, deadline=None)
@given(random_programs(), random_programs())
def test_merge_is_monotone_in_names(src_a, src_b):
    a = infer_program(TypeEnv(), parse_program(src_a))
    b = infer_program(TypeEnv(), parse_program(src_b))
    merged = env_merge(a, b)
    assert set(merged.names()) == set(a.names()) | set(b.names())


@settings(max_examples=100, deadline=None)
@given(random_programs())
def test_inference_is_deterministic(source):
    p = parse_program(source)
    assert infer_program(TypeEnv(), p) == infer_program(TypeEnv(), p)


# --- the env's reverse edges against whole-env scans ---

_pool = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_types = st.sampled_from([INT, BOOL])


@st.composite
def random_envs(draw):
    """Arbitrary environments over a small name pool, in random order:
    state variables and definitions at random types, reading any names at
    any types, so they may be inconsistent or cyclic.  Two of them share
    names often, so a delta rebinds at changed types and flips kinds."""
    bindings = []
    for name in draw(st.lists(_pool, unique=True, max_size=6)):
        ty = draw(_types)
        if draw(st.booleans()):
            bindings.append((name, Binding(ty, None)))
        else:
            reads = draw(st.dictionaries(_pool, _types, max_size=3))
            bindings.append((name, Binding(ty, DepSet.of(reads))))
    return TypeEnv(bindings)


def reference_well_formed(env: TypeEnv) -> CompatReport:
    """`well_formed` as written before it shared one walk with `compatible`:
    every binding's consistency in env order, then a DFS from each name in
    sorted order that reports every back edge it meets as a cycle."""
    violations: list[Violation] = []
    for name, b in env.items():
        if b.is_state:
            continue
        for dep, dep_ty in b.deps:
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
    edges = {n: (frozenset() if b.is_state else b.deps.names()) for n, b in env.items()}
    state = {n: 0 for n in edges}  # 0 new, 1 on stack, 2 done
    for root in sorted(edges):
        if state[root]:
            continue
        stack = [(root, iter(sorted(edges[root])))]
        state[root] = 1
        trail = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in edges:
                    continue
                if state[nxt] == 1:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    violations.append(Violation("cycle", nxt, " -> ".join(cycle), tuple(cycle)))
                elif state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(sorted(edges[nxt]))))
                    trail.append(nxt)
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
                trail.pop()
    return CompatReport(tuple(violations))


@settings(max_examples=400, deadline=None)
@given(random_envs())
def test_well_formed_equals_the_reference(env):
    assert well_formed(env) == reference_well_formed(env)


def test_well_formed_reports_every_violation_in_a_fixed_order():
    env = TypeEnv({
        "x": Binding(BOOL, None),
        "c": Binding(INT, DepSet.of({"a": INT})),
        "a": Binding(INT, DepSet.of({"b": INT, "c": INT})),
        "w": Binding(INT, DepSet.of({"x": INT})),
        "b": Binding(INT, DepSet.of({"a": INT, "z": INT})),
    })
    expected = (
        Violation("inconsistent", "w", "reads 'x' at Int but it is bound at Bool"),
        Violation("inconsistent", "b", "reads unbound name 'z'"),
        Violation("cycle", "a", "a -> b -> a", ("a", "b", "a")),
        Violation("cycle", "a", "a -> c -> a", ("a", "c", "a")),
    )
    assert well_formed(env).violations == expected
    assert reference_well_formed(env).violations == expected


def whole_env_compatible(base: TypeEnv, delta: TypeEnv) -> CompatReport:
    """`compatible` as written before the env kept reverse edges: it scans
    every binding of the merged env for stale dependents."""
    merged = env_merge(base, delta)
    violations = list(reference_well_formed(merged).violations)
    delta_names = set(delta.names())
    for name, new_b in delta.items():
        old_b = base.get(name)
        if old_b is None:
            continue
        if old_b.is_state != new_b.is_state:
            was, now = ("var", "def") if old_b.is_state else ("def", "var")
            violations.append(Violation("kind_flip", name, f"'{name}' changed from {was} to {now}"))
        if old_b.ty != new_b.ty:
            for dep_name, dep_b in merged.items():
                if dep_b.is_state or dep_name in delta_names:
                    continue
                if name in dep_b.deps:
                    violations.append(
                        Violation(
                            "stale_dependent",
                            dep_name,
                            f"'{dep_name}' reads '{name}' whose type changed but was not rebound",
                        )
                    )
    return CompatReport(tuple(violations))


@settings(max_examples=400, deadline=None)
@given(random_envs(), random_envs())
def test_compatible_equals_the_whole_env_scan(base, delta):
    assert compatible(base, delta) == whole_env_compatible(base, delta)


_program_envs = random_programs().map(lambda source: infer_program(TypeEnv(), parse_program(source)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_envs(), _program_envs), st.lists(st.one_of(random_envs(), _program_envs), min_size=1, max_size=4))
def test_compatible_on_an_accepted_env_equals_the_whole_env_scan(base, deltas):
    # accepting the base onto the empty env marks it well-formed, so each
    # check below starts on the delta-local path; every accepted merge is
    # the next base
    accepted = compatible(TypeEnv(), base)
    assume(accepted.ok)
    env = accepted.merged
    for delta in deltas:
        report = compatible(env, delta)
        assert report == whole_env_compatible(env, delta)
        if report.ok:
            merged = report.merged
            assert merged.items() == env_merge(env, delta).items()
            assert merged.readers() == _reverse_edges(merged)
            env = merged


def test_stale_dependents_are_reported_in_env_order():
    base = TypeEnv({
        "x": Binding(INT, None),
        "q": Binding(INT, DepSet.of({"x": INT})),
        "p": Binding(INT, DepSet.of({"x": INT})),
    })
    delta = TypeEnv({"x": Binding(BOOL, None)})
    report = compatible(base, delta)
    assert [(v.kind, v.name) for v in report.violations] == [
        ("inconsistent", "q"), ("inconsistent", "p"), ("stale_dependent", "q"), ("stale_dependent", "p"),
    ]
    assert report == whole_env_compatible(base, delta)


@settings(max_examples=200, deadline=None)
@given(random_envs())
def test_readers_are_the_reverse_of_dep_edges(env):
    reverse: dict[str, set[str]] = {}
    for name, deps in dep_edges(env).items():
        for dep in deps:
            reverse.setdefault(dep, set()).add(name)
    assert env.readers() == {dep: frozenset(names) for dep, names in reverse.items()}
    assert env.readers() is env.readers()
