"""Store cells, evaluation, propagation waves, snapshots, and merging."""

from __future__ import annotations

import threading

import pytest

from meerkat.store import (
    ActionV,
    BoolV,
    Change,
    ClosureV,
    EvalError,
    IntV,
    Store,
    UNIT_V,
    eval_expr,
    init_cells,
    merge_defs,
    propagate,
    store_to_json,
    value_to_json,
    wave_order,
)
from meerkat.syntax import parse_expr, parse_program
from meerkat.typesys import TypeEnv, env_merge, infer_program, topo_order

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"


def build(source: str, base_env=None, base_store=None, txn=1):
    env = base_env or TypeEnv()
    store = base_store if base_store is not None else Store()
    program = parse_program(source)
    new_env = env_merge(env, infer_program(env, program))
    new_store, result = init_cells(store, new_env, program, txn)
    return new_env, new_store, result


class TestEval:
    def test_definition_body_reads_cells(self):
        _, store, _ = build(LISTING)
        assert eval_expr(store, {}, parse_expr("x + 1")) == IntV(2)

    def test_actions_are_suspended_values(self):
        env, store, _ = build(LISTING)
        before = store_to_json(store, env)
        v = eval_expr(store, {}, parse_expr("action { x := 0 }"))
        assert isinstance(v, ActionV)
        assert store_to_json(store, env) == before

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as exc:
            eval_expr(Store(), {}, parse_expr("1 / 0"))
        assert exc.value.reason == "DivByZero"

    def test_division_truncates_toward_zero(self):
        assert eval_expr(Store(), {}, parse_expr("-7 / 2")) == IntV(-3)
        assert eval_expr(Store(), {}, parse_expr("7 / -2")) == IntV(-3)

    def test_arithmetic_wraps_at_64_bits(self):
        v = eval_expr(Store(), {}, parse_expr("9223372036854775807 + 1"))
        assert v == IntV(-(2**63))

    def test_closures_capture_locals_only(self):
        _, store, _ = build(LISTING)
        f = eval_expr(store, {}, parse_expr("fn y => x + y"))
        assert isinstance(f, ClosureV)
        assert f.env == ()  # x is read live, not captured
        call = eval_expr(store, {}, parse_expr("(fn y => x + y) 10"))
        assert call == IntV(11)

    def test_top_level_reads_are_live_at_call_time(self):
        env, store, _ = build(LISTING)
        closure_src = "fn y => x + y"
        store2, _ = propagate(store, env, {"x": IntV(100)}, 2)
        f_before = eval_expr(store, {}, parse_expr(closure_src))
        # the same closure value applied against the newer snapshot sees new x
        ctx = dict(f_before.env)
        ctx[f_before.param] = IntV(1)
        assert eval_expr(store2, ctx, f_before.body) == IntV(101)

    def test_logic_and_equality(self):
        st = Store()
        assert eval_expr(st, {}, parse_expr("true && false")) == BoolV(False)
        assert eval_expr(st, {}, parse_expr("1 == 1 || false")) == BoolV(True)
        assert eval_expr(st, {}, parse_expr('"a" == "b"')) == BoolV(False)
        assert eval_expr(st, {}, parse_expr("()")) == UNIT_V

    def test_if_takes_one_branch_only(self):
        # the untaken branch must not be evaluated
        assert eval_expr(Store(), {}, parse_expr("if true then 1 else 1 / 0")) == IntV(1)


class TestInitCells:
    def test_listing_initial_values(self):
        _, store, result = build(LISTING)
        assert store.vars["x"] == IntV(1)
        assert store.defs["inc1"] == IntV(2)
        assert store.defs["inc2"] == IntV(3)
        assert {c.name: c.new for c in result.changes} == {
            "x": IntV(1),
            "inc1": IntV(2),
            "inc2": IntV(3),
        }

    def test_reevolve_definition_recomputes_dependents(self):
        env, store, _ = build(LISTING)
        env2, store2, result = build("def inc1 = x + 10;", env, store, txn=2)
        assert store2.defs["inc1"] == IntV(11)
        assert store2.defs["inc2"] == IntV(12)
        assert store2.vars["x"] is store.vars["x"]
        assert Change("inc1", IntV(2), IntV(11)) in result.changes
        assert "inc2" in result.recomputed

    def test_empty_evolution_is_identity(self):
        _, store, _ = build(LISTING)
        store2, result = init_cells(store, TypeEnv(), parse_program(""), 99)
        assert store2 == store
        assert result.txn is None

    def test_runtime_fault_leaves_store_untouched(self):
        env, store, _ = build(LISTING)
        program = parse_program("def boom = x / 0;")
        delta = infer_program(env, program)
        snapshot = store_to_json(store, env)
        with pytest.raises(EvalError):
            init_cells(store, env_merge(env, delta), program, 2)
        assert store_to_json(store, env) == snapshot
        assert "boom" not in store

    def test_redeclared_var_resets_cell_and_propagates(self):
        env, store, _ = build(LISTING)
        env2, store2, _ = build("var x = 5;", env, store, txn=2)
        assert store2.vars["x"] == IntV(5)
        assert store2.defs["inc1"] == IntV(6)
        assert store2.defs["inc2"] == IntV(7)

    def test_later_declaration_updates_earlier_one_in_same_wave(self):
        # g is installed against the old x, then the wave sees the new x
        env, store, _ = build("var x = 1;")
        env2, store2, _ = build("def g = x + 1; var x = 5;", env, store, txn=2)
        assert store2.defs["g"] == IntV(6)

    def test_a_definition_keeps_its_value_in_the_store_and_its_code_on_its_binding(self):
        env, store, _ = build(LISTING)
        assert store.defs["inc1"] == IntV(2)
        assert env.get("inc1").expr == parse_expr("x + 1")
        assert store.txn == 1


class TestPropagate:
    def test_listing_propagation(self):
        env, store, _ = build(LISTING)
        store2, result = propagate(store, env, {"x": IntV(2)}, 2)
        assert store2.vars["x"] == IntV(2)
        assert store2.defs["inc1"] == IntV(3)
        assert store2.defs["inc2"] == IntV(4)
        assert [c for c in result.changes] == [
            Change("inc1", IntV(2), IntV(3)),
            Change("inc2", IntV(3), IntV(4)),
            Change("x", IntV(1), IntV(2)),
        ]

    def test_empty_write_set_commits_a_vacuous_transaction(self):
        env, store, _ = build(LISTING)
        store2, result = propagate(store, env, {}, 2)
        assert result.changes == ()
        assert result.recomputed == ()
        assert store2.txn == 2
        for name, cell in store2.defs.items():
            assert cell is store.defs[name]
        assert store2.vars == store.vars

    def test_diamond_recomputes_each_definition_once_in_order(self):
        src = "var a = 1; def b = a + 1; def c = a + 2; def d = b + c;"
        env, store, _ = build(src)
        assert store.defs["d"] == IntV(5)
        store2, result = propagate(store, env, {"a": IntV(10)}, 2)
        assert result.recomputed.count("d") == 1
        assert set(result.recomputed) == {"b", "c", "d"}
        assert result.recomputed.index("d") > result.recomputed.index("b")
        assert result.recomputed.index("d") > result.recomputed.index("c")
        assert store2.defs["d"] == IntV(23)

    def test_unaffected_definitions_are_not_recomputed(self):
        src = (
            "var a = 1; var z = 1; def b = a + 1; def c = b * 2; "
            "def y = z + 1; def w = y + z; def k = 7;"
        )
        env, store, _ = build(src)
        store2, result = propagate(store, env, {"a": IntV(5)}, 2)
        assert result.recomputed == ("b", "c")
        # every cell the wave did not recompute is returned as it was received
        for name, cell in store2.defs.items():
            if name not in result.recomputed:
                assert cell is store.defs[name], name
        assert store2.vars["z"] is store.vars["z"]
        assert store.defs["c"] == IntV(4)  # the input store is untouched
        assert store2.defs["c"] == IntV(12)

    def test_fault_rolls_back_everything(self):
        env, store, _ = build("var x = 1; def d = 10 / x;")
        snapshot = store_to_json(store, env)
        with pytest.raises(EvalError):
            propagate(store, env, {"x": IntV(0)}, 2)
        assert store_to_json(store, env) == snapshot
        assert store.txn == 1

    def test_writing_a_definition_is_rejected(self):
        env, store, _ = build(LISTING)
        with pytest.raises(EvalError):
            propagate(store, env, {"inc1": IntV(9)}, 2)

    def test_history_tracks_committed_values(self):
        # the store's history is its sequence of committed snapshots: a
        # later commit leaves every earlier snapshot as it was
        env, s1, _ = build(LISTING)
        s2, r2 = propagate(s1, env, {"x": IntV(2)}, 2)
        s3, _ = propagate(s2, env, {"x": IntV(5)}, 3)
        assert [s.defs["inc1"] for s in (s1, s2, s3)] == [IntV(2), IntV(3), IntV(6)]
        assert [s.txn for s in (s1, s2, s3)] == [1, 2, 3]
        assert Change("inc1", IntV(2), IntV(3)) in r2.changes

    def test_history_entries_match_a_replay_from_scratch(self):
        # every committed snapshot must equal what a fresh store holds
        # after applying the writes up to that transaction
        writes = {2: {"x": IntV(4)}, 3: {"x": IntV(9)}, 4: {"x": IntV(1)}}
        env, store, _ = build(LISTING)
        snapshots = {}
        for txn, ws in writes.items():
            store, _ = propagate(store, env, ws, txn)
            snapshots[txn] = store
        for txn, snap in snapshots.items():
            _, rebuilt, _ = build(LISTING)
            for t in sorted(writes):
                if t <= txn:
                    rebuilt, _ = propagate(rebuilt, env, writes[t], t)
            assert store_to_json(snap, env) == store_to_json(rebuilt, env), txn


class TestSnapshotRead:
    def test_reads_after_commit(self):
        env, store, _ = build(LISTING)
        store2, _ = propagate(store, env, {"x": IntV(2)}, 2)
        got = {n: store2.value_of(n) for n in ("inc1", "inc2")}
        assert got == {"inc1": IntV(3), "inc2": IntV(4)}

    def test_concurrent_readers_never_see_torn_state(self):
        env, store, _ = build(LISTING)
        holder = {"store": store}
        stop = threading.Event()
        bad: list[str] = []

        def reader():
            while not stop.is_set():
                snap = holder["store"]
                got = {n: snap.value_of(n) for n in ("x", "inc1", "inc2")}
                if not (
                    got["inc1"].v == got["x"].v + 1 and got["inc2"].v == got["inc1"].v + 1
                ):
                    bad.append(str(got))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        current = store
        for k in range(2, 200):
            current, _ = propagate(current, env, {"x": IntV(k)}, k)
            holder["store"] = current
        stop.set()
        for t in threads:
            t.join()
        assert not bad


class TestMergeDefs:
    def base(self):
        return build("var a = 0; var b = 0; def s = a + b;")

    def test_merge_equals_serial_execution_in_both_orders(self):
        env, store, _ = self.base()
        st1, _ = propagate(store, env, {"a": IntV(1)}, 2)
        st2, _ = propagate(store, env, {"b": IntV(2)}, 3)
        merged_vars = dict(store.vars)
        merged_vars["a"] = st1.vars["a"]
        merged_vars["b"] = st2.vars["b"]
        merged = merge_defs(st1.defs, st2.defs, merged_vars, env, {"a"}, {"b"})
        assert merged["s"] == IntV(3)
        # serial oracle, both orders
        serial_ab, _ = propagate(st1, env, {"b": IntV(2)}, 3)
        serial_ba, _ = propagate(st2, env, {"a": IntV(1)}, 4)
        assert merged["s"] == serial_ab.defs["s"] == serial_ba.defs["s"]
        # and the merge is symmetric
        swapped = merge_defs(st2.defs, st1.defs, merged_vars, env, {"b"}, {"a"})
        assert swapped == merged

    def test_merge_matches_serial_bookkeeping(self):
        env, store, _ = self.base()
        st1, _ = propagate(store, env, {"a": IntV(1)}, 2)
        st2, _ = propagate(store, env, {"b": IntV(2)}, 3)
        merged_vars = {"a": st1.vars["a"], "b": st2.vars["b"]}
        merged = merge_defs(st1.defs, st2.defs, merged_vars, env, {"a"}, {"b"})
        serial, _ = propagate(st1, env, {"b": IntV(2)}, 3)
        assert merged == serial.defs

    def test_merge_is_idempotent(self):
        env, store, _ = self.base()
        st1, _ = propagate(store, env, {"a": IntV(7)}, 2)
        merged = merge_defs(st1.defs, st1.defs, dict(st1.vars), env, {"a"}, {"a"})
        assert merged == st1.defs

    def test_disjoint_affected_sets_union_pointwise(self):
        env, store, _ = build("var a = 0; var z = 0; def p = a + 1; def q = z + 1;")
        st1, _ = propagate(store, env, {"a": IntV(1)}, 2)
        st2, _ = propagate(store, env, {"z": IntV(2)}, 3)
        merged_vars = {"a": st1.vars["a"], "z": st2.vars["z"]}
        merged = merge_defs(st1.defs, st2.defs, merged_vars, env, {"a"}, {"z"})
        assert merged["p"] == IntV(2)
        assert merged["q"] == IntV(3)

    def test_maps_over_different_names_are_rejected(self):
        env, store, _ = self.base()
        st1, _ = propagate(store, env, {"a": IntV(1)}, 2)
        _, st2, _ = build("def extra = a;", env, store, txn=2)
        with pytest.raises(ValueError, match="same names"):
            merge_defs(st1.defs, st2.defs, dict(store.vars), env, {"a"}, ())

    def test_only_the_cells_downstream_of_the_writes_are_rewritten(self):
        env, store, _ = build("var a = 0; var b = 0; var z = 0; def p = a + b; def q = z + 1;")
        st1, _ = propagate(store, env, {"a": IntV(1)}, 2)
        st2, _ = propagate(store, env, {"b": IntV(2)}, 3)
        merged_vars = {**store.vars, "a": st1.vars["a"], "b": st2.vars["b"]}
        merged = merge_defs(st1.defs, st2.defs, merged_vars, env, {"a"}, {"b"})
        assert merged["p"] == IntV(3)
        assert merged["q"] is store.defs["q"]

    def test_a_cell_downstream_of_one_side_only_is_that_sides_cell(self):
        env, store, _ = build(
            "var a = 0; var b = 0; def p = a + 1; def q = b * 2; def r = p + q; def s = q + 1;"
        )
        st1, _ = propagate(store, env, {"a": IntV(1)}, 2)
        st2, _ = propagate(store, env, {"b": IntV(2)}, 3)
        merged_vars = {"a": st1.vars["a"], "b": st2.vars["b"]}
        for d1, d2, w1, w2 in ((st1.defs, st2.defs, {"a"}, {"b"}), (st2.defs, st1.defs, {"b"}, {"a"})):
            merged = merge_defs(d1, d2, merged_vars, env, w1, w2)
            assert merged["p"] is st1.defs["p"]
            assert merged["q"] is st2.defs["q"] and merged["s"] is st2.defs["s"]
            # downstream of both: recomputed over both writes
            assert merged["r"] == IntV(2 + 4)


class TestWaveOrder:
    def test_an_order_is_derived_once_per_env_and_write_set(self):
        env, store, _ = build("var a = 0; var b = 0; def p = a + 1; def q = p + b; def r = b * 2;")
        order = wave_order(env, {"a", "b"})
        assert order == ("p", "q", "r")
        assert wave_order(env, ["b", "a", "b"]) is order
        _, result = propagate(store, env, {"b": IntV(1), "a": IntV(1)}, 2)
        assert result.recomputed is order
        assert wave_order(env, {"b"}) == ("q", "r")
        assert wave_order(env, ()) == ()
        # an equal env derives its own
        assert wave_order(TypeEnv(env.items()), {"a", "b"}) is not order

    def test_the_memo_holds_at_most_two_entries_per_binding(self):
        n = 13
        source = " ".join(f"var v_{k} = {k};" for k in range(n))
        source += " " + " ".join(f"def d_{k} = v_{k} + v_{(k + 1) % n};" for k in range(n))
        env, _, _ = build(source)
        names = [f"v_{k}" for k in range(n)]
        for mask in range(1, 5_001):
            written = {v for k, v in enumerate(names) if mask >> k & 1}
            order = wave_order(env, written)
            assert len(env.wave_orders) <= 2 * len(env)
            if mask % 97 == 0:
                readers = {f"d_{k}" for k in range(n) if {f"v_{k}", f"v_{(k + 1) % n}"} & written}
                assert order == tuple(topo_order(env, readers))

    def test_a_memo_full_at_twice_the_bindings_drops_its_oldest_entry(self):
        env, _, _ = build("var a = 0; var b = 0; def p = a + 1; def q = b + 1;")
        # the install's order is the oldest entry, and the eighth evicts it
        written = [{"a"}, {"b"}, {"p"}, {"q"}, {"a", "b"}, {"a", "p"}, {"b", "q"}, {"p", "q"}]
        kept = [wave_order(env, w) for w in written]
        assert len(env.wave_orders) == 2 * len(env) == 8
        assert list(env.wave_orders) == [frozenset(w) for w in written]
        assert wave_order(env, {"a", "q"}) == ("p",)
        assert list(env.wave_orders) == [frozenset(w) for w in (*written[1:], {"a", "q"})]
        # the newest entries survive the eviction and are not derived again
        assert all(wave_order(env, w) is order for w, order in zip(written[1:], kept[1:]))

    def test_a_configs_single_and_pair_orders_fit_in_the_memo(self):
        # every action's writes and every pair's union, from one config: on
        # an env of 2k bindings that is k + k(k-1)/2 orders, 10 for k = 4,
        # and all of them are kept, so the next pass derives none (at a
        # bound of one entry per binding the pairs evict the singles)
        env, _, _ = build(
            "var a = 0; var b = 0; var c = 0; var d = 0; def p = a + b; def q = b + c; def r = c + d; def s = d + a;"
        )
        singles = [{"a"}, {"b"}, {"c"}, {"d"}]
        pairs = [x | y for k, x in enumerate(singles) for y in singles[k + 1 :]]
        first = [wave_order(env, w) for w in (*singles, *pairs)]
        assert all(wave_order(env, w) is order for w, order in zip((*singles, *pairs), first))


class _Reads(dict):
    """A cell map that adds the name of each cell read from it to `seen`."""

    def __init__(self, cells, seen: set[str]):
        super().__init__(cells)
        self.seen = seen

    def __getitem__(self, name):
        self.seen.add(name)
        return super().__getitem__(name)


def recording(store: Store, seen: set[str]) -> Store:
    """`store` with cell maps that note each top-level read `eval_expr`
    makes: it reads a bound cell only as `vars[name]` or `defs[name]`."""
    out = Store(txn=store.txn)
    out.vars, out.defs = _Reads(store.vars, seen), _Reads(store.defs, seen)
    return out


class TestDependencySoundness:
    def test_evaluation_reads_stay_inside_inferred_closure(self):
        from meerkat.typesys import infer_expr, transitive_reads

        env, store, _ = build(
            "var x = 2; def twice = x * 2; def quad = twice * 2; def other = x + 100;"
        )
        # a definition's cell holds its value, so only the direct reads show
        cases = {"twice + 1": {"twice"}, "quad + x": {"quad", "x"}, "if x == 2 then quad else twice": {"x", "quad"}}
        for source, reads in cases.items():
            expr = parse_expr(source)
            _, deps = infer_expr(env, {}, expr)
            vs, ds = transitive_reads(env, deps)
            allowed = vs | ds
            seen: set[str] = set()
            eval_expr(recording(store, seen), {}, expr)
            assert seen == reads and seen <= allowed, (source, seen, allowed)

    def test_soundness_on_generated_programs(self):
        # every definition body of a random program must read only names in
        # the transitive closure of its inferred dependency set
        import random

        from meerkat.typesys import infer_expr, transitive_reads

        rng = random.Random(17)
        for _ in range(150):
            count = rng.randrange(2, 14)
            lines = []
            bound = []
            for k in range(count):
                name = f"g{k}"
                if not bound or rng.random() < 0.4:
                    lines.append(f"var {name} = {rng.randrange(1, 9)};")
                else:
                    deps = rng.sample(bound, k=min(len(bound), rng.randrange(1, 4)))
                    glue = rng.choice([" + ", " * "])
                    cond = rng.choice(bound)
                    body = glue.join(deps)
                    if rng.random() < 0.3:
                        body = f"if {cond} == 1 then {body} else {deps[0]}"
                    lines.append(f"def {name} = {body};")
                bound.append(name)
            env, store, _ = build(" ".join(lines))
            for name in store.defs:
                code = env.get(name).expr
                _, deps = infer_expr(env, {}, code)
                vs, ds = transitive_reads(env, deps)
                seen: set[str] = set()
                eval_expr(recording(store, seen), {}, code)
                assert seen and seen <= vs | ds, (name, seen, vs | ds)  # every body reads a name


class TestSerialization:
    def test_store_json_shape(self):
        env, store, _ = build(LISTING)
        doc = store_to_json(store, env)
        assert doc == {
            "txn": 1,
            "vars": {"x": 1},
            "defs": {
                "inc1": {"c": 2, "expr": "x + 1"},
                "inc2": {"c": 3, "expr": "inc1 + 1"},
            },
        }

    def test_value_json_forms(self):
        assert value_to_json(IntV(3)) == 3
        assert value_to_json(BoolV(True)) is True
        assert value_to_json(UNIT_V) is None
        closure = eval_expr(Store(), {"k": IntV(1)}, parse_expr("fn y => y"))
        doc = value_to_json(ClosureV("y", parse_expr("y + k"), (("k", IntV(1)),)))
        assert doc == {"fn": "fn y => y + k", "captured": {"k": 1}}
