"""Stepper tests: approval, wait-die, transactional actions, quiescence."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meerkat.runtime
import meerkat.typesys
from meerkat.runtime import (
    Accepted,
    ActionFailed,
    Config,
    Executed,
    QueueDied,
    RandomSchedule,
    Rejected,
    Step,
    Submission,
    _do_plan,
    _merge_evolutions,
    _remove,
    _run_action,
    apply_step,
    check_config,
    do_pair_viable,
    enabled_steps,
    evolve_pair_viable,
    first_step,
    initial_config,
    run_steps,
    run_until_quiescent,
    step_do_many,
    step_evolve_many,
    step_queue_die,
    submit_do,
    submit_evolution,
)
from meerkat.simharness import build_config, load_scenario, validate_wave
from meerkat.store import Change, EvalError, IntV, Store, StringV, diff, eval_expr, propagate
from meerkat.syntax import parse_do, parse_program
from meerkat.typesys import (
    INT,
    Binding,
    CompatReport,
    DepSet,
    TypeCheckError,
    TypeEnv,
    check_do,
    topo_order,
    well_formed,
)

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def quiesced(source: str = LISTING) -> Config:
    cfg = submit_evolution(initial_config(), parse_program(source), "setup")
    cfg, outcomes = run_until_quiescent(cfg)
    assert isinstance(outcomes[0], Accepted)
    return cfg


def values(cfg: Config) -> dict:
    return {n: v.v for n, v in cfg.store.values().items() if isinstance(v, IntV)}


class TestSubmit:
    def test_submit_evolution_only_queues(self):
        cfg = submit_evolution(initial_config(), parse_program(LISTING), "alice")
        assert len(cfg.q_r) == 1
        assert len(cfg.env) == 0 and not cfg.store.names()

    def test_submit_empty_program_is_queued(self):
        cfg = submit_evolution(initial_config(), parse_program(""), "alice")
        assert len(cfg.q_r) == 1

    def test_queues_are_multisets(self):
        p = parse_program("var a = 1;")
        cfg = initial_config()
        cfg = submit_evolution(cfg, p, "alice")
        cfg = submit_evolution(cfg, p, "alice")
        assert len(cfg.q_r) == 2
        d = parse_do("do (action { })")
        cfg = submit_do(cfg, d, "u")
        cfg = submit_do(cfg, d, "u")
        assert len(cfg.q_do) == 2

    def test_a_pick_leaves_the_queue_by_identity(self):
        # two equal submissions: the one fired leaves, the other stays
        d = parse_do("do (action { x := 2 })")
        cfg = submit_do(submit_do(quiesced(), d, "u"), d, "u")
        first, second = cfg.q_do
        assert first == second and first is not second
        cfg2, (outcome,) = apply_step(cfg, Step("do_one", 1))
        assert isinstance(outcome, Executed)
        assert len(cfg2.q_do) == 1 and cfg2.q_do[0] is first

    def test_a_pick_that_is_not_queued_is_refused(self):
        cfg = submit_do(quiesced(), parse_do("do (action { x := 2 })"), "u")
        cfg = submit_evolution(cfg, parse_program("def y = x + 1;"), "p")
        (action,), (evolution,) = cfg.q_do, cfg.q_r
        for step, queued in ((step_do_many, action), (step_evolve_many, evolution)):
            copy = Submission(queued.item, queued.who)
            assert copy == queued
            with pytest.raises(AssertionError):
                step(cfg, (copy,))
            with pytest.raises(AssertionError):
                step(cfg, (queued, queued))


class TestEvolveOne:
    def test_listing_accepted(self):
        cfg = submit_evolution(initial_config(), parse_program(LISTING), "alice")
        cfg2, outcome = step_evolve_many(cfg, (cfg.q_r[0],))
        assert isinstance(outcome, Accepted)
        assert outcome.who == ("alice",)
        assert set(cfg2.env.names()) == {"x", "inc1", "inc2"}
        assert values(cfg2) == {"x": 1, "inc1": 2, "inc2": 3}
        assert not cfg2.q_r

    def test_cycle_rejected_and_removed(self):
        cfg = submit_evolution(initial_config(), parse_program("def a = b; def b = a;"), "p")
        cfg2, outcome = step_evolve_many(cfg, (cfg.q_r[0],))
        assert isinstance(outcome, Rejected) and outcome.final
        assert outcome.notified == ("p",)
        assert not cfg2.q_r
        assert cfg2.env == cfg.env

    def test_extension_accepted_with_derived_value(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def inc3 = inc2 + 1;"), "p")
        cfg2, outcome = step_evolve_many(cfg, (cfg.q_r[0],))
        assert isinstance(outcome, Accepted)
        assert values(cfg2)["inc3"] == 4

    def test_runtime_fault_rejects_and_preserves_store(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def boom = 1 / (x - 1);"), "p")
        cfg2, outcome = step_evolve_many(cfg, (cfg.q_r[0],))
        assert isinstance(outcome, Rejected) and outcome.final
        assert cfg2.store == cfg.store
        assert "boom" not in cfg2.env

    def test_empty_program_is_a_noop_acceptance(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program(""), "p")
        cfg2, outcome = step_evolve_many(cfg, (cfg.q_r[0],))
        assert isinstance(outcome, Accepted)
        assert outcome.txn is None
        assert cfg2.store == cfg.store
        assert cfg2.next_txn == cfg.next_txn


class TestEvolveTwo:
    def test_disjoint_pair_commits_in_one_step(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def inc3 = inc1 + 1;"), "p1")
        cfg = submit_evolution(cfg, parse_program("def dec1 = x - 1;"), "p2")
        cfg2, outcome = step_evolve_many(cfg, cfg.q_r[:2])
        assert isinstance(outcome, Accepted)
        assert values(cfg2)["inc3"] == 3
        assert values(cfg2)["dec1"] == 0
        assert not cfg2.q_r
        # one transaction for the pair
        assert cfg2.next_txn == cfg.next_txn + 1

    def test_pair_matches_both_serializations(self):
        base = quiesced()
        r1, r2 = parse_program("def inc3 = inc1 + 1;"), parse_program("def dec1 = x - 1;")
        cfg = submit_evolution(submit_evolution(base, r1, "p1"), r2, "p2")
        merged, outcome = step_evolve_many(cfg, cfg.q_r[:2])
        for first, second in ((r1, r2), (r2, r1)):
            serial = base
            serial = submit_evolution(serial, first, "a")
            serial, _ = step_evolve_many(serial, (serial.q_r[0],))
            serial = submit_evolution(serial, second, "b")
            serial, _ = step_evolve_many(serial, (serial.q_r[0],))
            assert serial.env == merged.env
            assert values(serial) == values(merged)

    def test_write_conflict_blocks_pair(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def inc1 = x + 5;"), "p1")
        cfg = submit_evolution(cfg, parse_program("def inc1 = x + 7;"), "p2")
        cfg2, outcome = step_evolve_many(cfg, cfg.q_r[:2])
        assert isinstance(outcome, Rejected) and not outcome.final
        assert len(cfg2.q_r) == 2  # both stay queued
        assert cfg2.env == cfg.env

    def test_three_way_approval_generalizes_the_pair_rule(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def inc3 = inc1 + 1;"), "p1")
        cfg = submit_evolution(cfg, parse_program("def dec1 = x - 1;"), "p2")
        cfg = submit_evolution(cfg, parse_program("var fresh = 9;"), "p3")
        cfg2, outcome = step_evolve_many(cfg, cfg.q_r)
        assert isinstance(outcome, Accepted)
        assert outcome.who == ("p1", "p2", "p3")
        assert values(cfg2)["inc3"] == 3 and values(cfg2)["dec1"] == 0 and values(cfg2)["fresh"] == 9
        assert cfg2.next_txn == cfg.next_txn + 1

    def test_three_way_with_any_overlap_is_blocked(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def n1 = x + 1;"), "p1")
        cfg = submit_evolution(cfg, parse_program("def n2 = x + 2;"), "p2")
        cfg = submit_evolution(cfg, parse_program("def n2 = x + 3;"), "p3")
        cfg2, outcome = step_evolve_many(cfg, cfg.q_r)
        assert isinstance(outcome, Rejected) and not outcome.final
        assert len(cfg2.q_r) == 3

    def test_write_lock_excludes_the_other_reader(self):
        cfg = quiesced()
        # p1 rebinds x; p2 reads x, so the pair cannot be approved together
        cfg = submit_evolution(
            cfg, parse_program("var x = 2; def inc1 = x + 1; def inc2 = inc1 + 1;"), "p1"
        )
        cfg = submit_evolution(cfg, parse_program("def d = x + 1;"), "p2")
        assert not evolve_pair_viable(cfg, cfg.q_r[0], cfg.q_r[1])
        cfg2, outcome = step_evolve_many(cfg, cfg.q_r[:2])
        assert isinstance(outcome, Rejected) and not outcome.final
        # but each one alone is fine
        _, o1 = step_evolve_many(cfg, (cfg.q_r[0],))
        _, o2 = step_evolve_many(cfg, (cfg.q_r[1],))
        assert isinstance(o1, Accepted) and isinstance(o2, Accepted)

    def test_a_cycle_through_base_definitions_blocks_the_pair(self):
        # the pair passes the lock rule: neither rebinds a name the other
        # reads, but the cycle closes through the base's b and e
        cfg = quiesced("var x = 0; def c = x + 2; def b = c + 1; def a = x; def e = a + 1;")
        cfg = submit_evolution(cfg, parse_program("def a = b + 1;"), "p1")
        cfg = submit_evolution(cfg, parse_program("def c = e + 1;"), "p2")
        assert list(enabled_steps(cfg)) == [Step("evolve_one", 0), Step("evolve_one", 1)]
        cfg2, outcome = step_evolve_many(cfg, cfg.q_r)
        assert isinstance(outcome, Rejected) and not outcome.final
        assert str(outcome.report) == "cycle(a): a -> b -> c -> e -> a"
        assert cfg2.q_r == cfg.q_r


class TestQueueDie:
    def blocked_pair(self) -> Config:
        cfg = quiesced("var x = 1;")
        cfg = submit_evolution(cfg, parse_program("def a = b + 1;"), "p1")
        cfg = submit_evolution(cfg, parse_program("def b = a + 1;"), "p2")
        return cfg

    def test_die_empties_queue_and_notifies_everyone(self):
        cfg = self.blocked_pair()
        cfg2, outcome = step_queue_die(cfg)
        assert isinstance(outcome, QueueDied)
        assert sorted(outcome.notified) == ["p1", "p2"]
        assert cfg2.q_r == ()
        assert cfg2.env == cfg.env and cfg2.store == cfg.store

    def test_die_needs_a_nonempty_queue(self):
        with pytest.raises(ValueError):
            step_queue_die(initial_config())

    def test_die_leaves_action_queue_alone(self):
        cfg = self.blocked_pair()
        cfg = submit_do(cfg, parse_do("do (action { x := 5 })"), "u")
        cfg2, _ = step_queue_die(cfg)
        assert len(cfg2.q_do) == 1


class TestDoOne:
    def test_action_write_propagates_through_both_definitions(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def setx2 = action { x := 2 };"), "p")
        cfg, _ = step_evolve_many(cfg, (cfg.q_r[0],))
        cfg = submit_do(cfg, parse_do("do setx2"), "u")
        cfg2, (outcome,) = step_do_many(cfg, (cfg.q_do[0],))
        assert isinstance(outcome, Executed)
        assert values(cfg2) == {"x": 2, "inc1": 3, "inc2": 4}

    def test_empty_action_executes_with_no_changes(self):
        cfg = quiesced()
        cfg = submit_do(cfg, parse_do("do (action { })"), "u")
        cfg2, (outcome,) = step_do_many(cfg, (cfg.q_do[0],))
        assert isinstance(outcome, Executed)
        assert outcome.changes == ()

    def test_runtime_fault_aborts_atomically(self):
        cfg = quiesced()
        cfg = submit_do(cfg, parse_do("do (action { x := 5; x := 1 / 0 })"), "u")
        cfg2, (outcome,) = step_do_many(cfg, (cfg.q_do[0],))
        assert isinstance(outcome, ActionFailed)
        assert cfg2.store == cfg.store
        assert values(cfg2)["x"] == 1

    def test_not_an_action_fails(self):
        cfg = quiesced()
        cfg = submit_do(cfg, parse_do("do 1"), "u")
        cfg2, (outcome,) = step_do_many(cfg, (cfg.q_do[0],))
        assert isinstance(outcome, ActionFailed)
        assert isinstance(outcome.error, TypeCheckError)
        assert outcome.error.reason == "NotAnAction"

    def test_write_sequence_sees_earlier_writes(self):
        cfg = quiesced("var x = 1;")
        cfg = submit_do(cfg, parse_do("do (action { x := x + 1; x := x * 10 })"), "u")
        cfg2, (outcome,) = step_do_many(cfg, (cfg.q_do[0],))
        assert values(cfg2)["x"] == 20

    def test_action_built_by_a_function_keeps_its_locals(self):
        cfg = quiesced("var x = 1; def make = fn n => action { x := n };")
        cfg = submit_do(cfg, parse_do("do (make 42)"), "u")
        cfg2, (outcome,) = step_do_many(cfg, (cfg.q_do[0],))
        assert isinstance(outcome, Executed)
        assert values(cfg2)["x"] == 42

    def test_the_fired_pick_leaves_the_queue_not_an_int_twin(self):
        # `1 == True` in Python; the two queued actions still differ
        cfg = quiesced("var x = 0;")
        cfg = submit_do(cfg, parse_do("do (action { x := 1 })"), "u")
        cfg = submit_do(cfg, parse_do("do (action { x := true })"), "u")
        assert cfg.q_do[0] != cfg.q_do[1]
        cfg2, (outcome,) = step_do_many(cfg, (cfg.q_do[1],))
        assert isinstance(outcome, ActionFailed)
        assert cfg2.q_do == (cfg.q_do[0],)
        cfg3, (outcome,) = step_do_many(cfg2, cfg2.q_do)
        assert isinstance(outcome, Executed)
        assert values(cfg3)["x"] == 1


class TestDoTwo:
    def base(self) -> Config:
        return quiesced("var a = 0; var b = 0; def s = a + b;")

    def test_disjoint_actions_merge_to_serial_result(self):
        cases = (
            ("var a = 0; var b = 0; def s = a + b;", "a := 1", "b := 2", {"a": 1, "b": 2, "s": 3}),
            # the product changes only once both writes land
            ("var a = 0; var b = 0; def d = a * b;", "a := 1", "b := 1", {"a": 1, "b": 1, "d": 1}),
            # each write recomputes part of a diamond; the pair reports
            # the union in dependency order
            (
                "var a = 0; var b = 0; def d2 = b + 1; def d = a + d2;",
                "a := 1",
                "b := 1",
                {"a": 1, "b": 1, "d2": 2, "d": 3},
            ),
        )
        for source, w1, w2, want in cases:
            base = quiesced(source)
            cfg = submit_do(base, parse_do(f"do (action {{ {w1} }})"), "u1")
            cfg = submit_do(cfg, parse_do(f"do (action {{ {w2} }})"), "u2")
            cfg2, outcomes = step_do_many(cfg, (cfg.q_do[0], cfg.q_do[1]))
            (outcome,) = outcomes
            assert isinstance(outcome, Executed)
            assert values(cfg2) == want
            assert validate_wave(cfg2.env, outcome) == []
            pair_changes = {c.name: (c.old, c.new) for c in outcome.changes}
            # equals serial execution in either order: cells and net changes
            for order in ((w1, w2), (w2, w1)):
                serial = base
                for w in order:
                    serial = submit_do(serial, parse_do(f"do (action {{ {w} }})"), "s")
                    serial, (_,) = step_do_many(serial, (serial.q_do[0],))
                assert values(serial) == values(cfg2)
                net = {
                    n: (base.store.value_of(n), v)
                    for n, v in serial.store.values().items()
                    if base.store.value_of(n) != v
                }
                assert pair_changes == net, (source, order)

    def test_write_write_conflict_is_not_viable(self):
        cfg = self.base()
        cfg = submit_do(cfg, parse_do("do (action { a := 1 })"), "u1")
        cfg = submit_do(cfg, parse_do("do (action { a := 2 })"), "u2")
        cfg2, outcomes = step_do_many(cfg, (cfg.q_do[0], cfg.q_do[1]))
        assert isinstance(outcomes[0], Rejected) and not outcomes[0].final
        assert len(cfg2.q_do) == 2

    def test_read_write_overlap_is_not_viable(self):
        cfg = self.base()
        cfg = submit_do(cfg, parse_do("do (action { a := 1 })"), "u1")
        cfg = submit_do(cfg, parse_do("do (action { b := a + 1 })"), "u2")
        cfg2, outcomes = step_do_many(cfg, (cfg.q_do[0], cfg.q_do[1]))
        assert isinstance(outcomes[0], Rejected) and not outcomes[0].final

    def test_one_fault_commits_the_survivor(self):
        # each pick is evaluated and propagated alone from the pre-step
        # store; survivors then merge in pick order, so a fault that only
        # the combination raises fails the later pick and the earlier stands
        base = quiesced("var a = 1; var b = 1; def s = 12 / (a + b);")
        assert base.next_txn == 2
        F, E = ActionFailed, Executed
        cases = (
            ("a := 1 / 0", "b := 2", ((F, None), (E, 3)), 4, {"a": 1, "b": 2, "s": 4}),
            ("a := 2", "b := 1 / 0", ((E, 2), (F, None)), 3, {"a": 2, "b": 1, "s": 4}),
            ("a := 1 / 0", "b := 1 / 0", ((F, None), (F, None)), 2, {"a": 1, "b": 1, "s": 6}),
            # only the combination faults s
            ("a := 2", "b := -2", ((E, 2), (F, None)), 3, {"a": 2, "b": 1, "s": 4}),
            # b faults s alone on the base
            ("a := 2", "b := -1", ((E, 2), (F, None)), 3, {"a": 2, "b": 1, "s": 4}),
            ("a := -1", "b := 2", ((F, None), (E, 3)), 4, {"a": 1, "b": 2, "s": 4}),
        )
        for w1, w2, want, next_txn, want_values in cases:
            cfg = submit_do(base, parse_do(f"do (action {{ {w1} }})"), "u1")
            cfg = submit_do(cfg, parse_do(f"do (action {{ {w2} }})"), "u2")
            cfg2, outcomes = step_do_many(cfg, (cfg.q_do[0], cfg.q_do[1]))
            assert [type(o) for o in outcomes] == [kind for kind, _ in want], (w1, w2)
            for o, who, (_, txn) in zip(outcomes, ("u1", "u2"), want):
                if isinstance(o, Executed):
                    assert (o.txn, o.who) == (txn, (who,)), (w1, w2)
                else:
                    assert o.notified == (who,), (w1, w2)
            assert cfg2.next_txn == next_txn, (w1, w2)
            assert values(cfg2) == want_values, (w1, w2)
            if next_txn == base.next_txn:
                assert cfg2.store == base.store
            assert not cfg2.q_do


class TestQuiescence:
    def test_listing_reaches_quiescence(self):
        cfg = submit_evolution(initial_config(), parse_program(LISTING), "p")
        cfg2, outcomes = run_until_quiescent(cfg)
        assert not cfg2.q_r and not cfg2.q_do
        assert len(cfg2.env) == 3

    def test_empty_queues_take_zero_steps(self):
        cfg2, outcomes = run_until_quiescent(initial_config())
        assert outcomes == []

    def test_blocked_evolutions_die_under_every_schedule(self):
        base = quiesced("var x = 1;")
        base = submit_evolution(base, parse_program("def a = b + 1;"), "p1")
        base = submit_evolution(base, parse_program("def b = a + 1;"), "p2")
        for seed in range(12):
            cfg2, outcomes = run_until_quiescent(base, RandomSchedule(seed))
            assert any(isinstance(o, QueueDied) for o in outcomes)
            assert cfg2.env == base.env
            assert cfg2.store == base.store

    def test_independent_work_converges_across_schedules(self):
        base = quiesced("var a = 0; var b = 0; def s = a + b;")
        base = submit_evolution(base, parse_program("def t = s * 2;"), "p1")
        base = submit_do(base, parse_do("do (action { a := 1 })"), "u1")
        base = submit_do(base, parse_do("do (action { b := 2 })"), "u2")
        finals = set()
        for seed in range(20):
            cfg2, _ = run_until_quiescent(base, RandomSchedule(seed))
            finals.add(tuple(sorted(values(cfg2).items())))
        assert len(finals) == 1
        assert dict(next(iter(finals))) == {"a": 1, "b": 2, "s": 3, "t": 6}

    def test_preservation_along_every_step(self):
        cfg = quiesced()
        cfg = submit_evolution(cfg, parse_program("def inc3 = inc2 + 1;"), "p1")
        cfg = submit_do(cfg, parse_do("do (action { x := 7 })"), "u1")
        cfg = submit_do(cfg, parse_do("do (action { })"), "u2")
        schedule = RandomSchedule(3)
        while (step := schedule(cfg)) is not None:
            cfg, _ = apply_step(cfg, step)
            assert check_config(cfg) == []



def reference_enabled_steps(cfg: Config) -> tuple[Step, ...]:
    """`enabled_steps` from first principles: every plan is computed afresh
    from `check_do` and `_merge_evolutions`, with no cache."""

    def approvable(*subs: Submission) -> bool:
        report = _merge_evolutions(cfg.env, [s.item for s in subs])
        return isinstance(report, CompatReport) and report.ok

    def do_plan(sub: Submission):
        try:
            return check_do(cfg.env, sub.item)
        except TypeCheckError:
            return None

    q_r, q_do = cfg.q_r, cfg.q_do
    steps = [Step("evolve_one", i) for i in range(len(q_r)) if approvable(q_r[i])]
    steps += [Step("evolve_two", i, j) for i, j in combinations(range(len(q_r)), 2) if approvable(q_r[i], q_r[j])]
    if q_r and not steps:
        steps.append(Step("queue_die"))
    steps += [Step("do_one", i) for i in range(len(q_do))]
    plans = [do_plan(s) for s in q_do]
    for i, j in combinations(range(len(q_do)), 2):
        p1, p2 = plans[i], plans[j]
        if p1 is not None and p2 is not None and not (
            p1.writes & p2.writes or p1.read_vars & p2.writes or p2.read_vars & p1.writes
        ):
            steps.append(Step("do_two", i, j))
    return tuple(steps)


def with_fresh_submissions(cfg: Config) -> Config:
    """The same config with new `Submission` objects, so nothing is cached."""
    return replace(
        cfg,
        q_r=tuple(Submission(s.item, s.who) for s in cfg.q_r),
        q_do=tuple(Submission(s.item, s.who) for s in cfg.q_do),
    )


def comparable(outcome):
    """An outcome with its error objects (equal only to themselves) as JSON."""
    return type(outcome), {
        k: v.to_json() if isinstance(v, Exception) else v for k, v in vars(outcome).items()
    }


def burst_config(seed: int) -> Config:
    """A burst like the benchmark's `burst_drain`, small: increments of 1-3
    cells (some pairs conflict), a division by a parity that is zero about
    half the time, and evolutions rebinding a pool name.  One evolution
    turns `p_1` into a string, so a queued `do` that adds to it stops
    typing once that evolution is accepted."""
    rng = random.Random(seed)
    pairs, pool = 8, 4
    decls = ["var z = 0;"]
    for k in range(pairs):
        decls.append(f"var v_{k} = {rng.randrange(8)}; def d_{k} = v_{k} * 2 + 1;")
    decls += [f"def p_{i} = d_{rng.randrange(pairs)} + v_{rng.randrange(pairs)};" for i in range(pool)]
    cfg = quiesced(" ".join(decls))
    kinds = ["inc"] * 9 + ["div", "evolve", "evolve", "flip", "reads_p1"]
    rng.shuffle(kinds)
    for n, kind in enumerate(kinds):
        who = f"s{n}"
        if kind == "inc":
            body = "; ".join(f"v_{k} := v_{k} + 1" for k in sorted(rng.sample(range(pairs), rng.randint(1, 3))))
            cfg = submit_do(cfg, parse_do(f"do (action {{ {body} }})"), who)
        elif kind == "div":
            d = f"(v_{rng.randrange(pairs)} - v_{rng.randrange(pairs)})"
            cfg = submit_do(cfg, parse_do(f"do (action {{ z := 1000 / ({d} - {d} / 2 * 2) }})"), who)
        elif kind == "evolve":
            code = f"def p_{rng.randrange(pool)} = d_{rng.randrange(pairs)} + v_{rng.randrange(pairs)};"
            cfg = submit_evolution(cfg, parse_program(code), who)
        elif kind == "flip":
            cfg = submit_evolution(cfg, parse_program('def p_1 = "s";'), who)
        else:
            cfg = submit_do(cfg, parse_do("do (action { z := p_1 + 1 })"), who)
    return cfg


def ring_of_dos(cfg: Config, n: int) -> Config:
    """`cfg` with n queued actions, action k copying `v_{k+1}` into `v_k`
    (mod n): each clashes with its two neighbours and pairs with the rest."""
    for k in range(n):
        cfg = submit_do(cfg, parse_do(f"do (action {{ v_{k} := v_{(k + 1) % n} }})"), f"u{k}")
    return cfg


def counting_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Wrap each `meerkat.runtime` global in `names` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(meerkat.runtime, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(meerkat.runtime, name, wrapper)
    return calls


# a cycle can close through the base's b and e (see TestEvolveTwo)
CYCLE_BASE = "var x = 0; var y = 1; def c = x + 2; def b = c + 1; def a = x; def e = a + 1;"
EVOLUTIONS = (
    "def a = b + 1;",  # with the next: a cycle through b and e
    "def c = e + 1;",
    "def a = y * 2;",  # rebinds a again
    "def n = a + c;",  # a new definition
    "def m = n + 1;",  # mentions a name another program rebinds
    "def n = y + 1; def m = n * 2;",
    "def f = nope;",  # does not type
    "def g = true + 1;",
    'var x = "s";',  # retypes x under its readers
    'var x = "s"; def c = 2; def a = 3;',  # retypes x with its readers
    "def c = true;",  # retypes c under its reader b
    "var a = 5;",  # kind flips
    "def y = 3;",
    "def e = x + y;",  # changes e's reads
)
ACTIONS = ("action { x := x + 1 }", "action { y := a }", "action { x := n }")


@st.composite
def evolution_queues(draw):
    """The config `CYCLE_BASE` with 0-8 queued evolutions drawn from
    `EVOLUTIONS`, 0-3 queued actions and a seed for picks."""
    cfg = quiesced(CYCLE_BASE)
    for k in range(draw(st.integers(0, 8))):
        cfg = submit_evolution(cfg, parse_program(draw(st.sampled_from(EVOLUTIONS))), f"p{k}")
    for k in range(draw(st.integers(0, 3))):
        cfg = submit_do(cfg, parse_do(f"do ({draw(st.sampled_from(ACTIONS))})"), f"u{k}")
    return cfg, draw(st.integers(0, 2**16))


class TestPlanCache:
    def test_a_cached_plan_does_not_survive_an_env_change(self):
        cfg = quiesced("var x = 0;")
        cfg = submit_do(cfg, parse_do("do (action { x := x + 1 })"), "u")
        cfg = submit_evolution(cfg, parse_program('var x = "a";'), "p")
        cfg = submit_evolution(cfg, parse_program("def d = x + 1;"), "q")
        # both evolutions and the do are planned, and viable, under this env
        assert tuple(enabled_steps(cfg)) == (Step("evolve_one", 0), Step("evolve_one", 1), Step("do_one", 0))
        cfg, _ = apply_step(cfg, Step("evolve_one", 0))
        # x is a string now: `def d` no longer types and the do no longer runs
        assert tuple(enabled_steps(cfg)) == (Step("queue_die"), Step("do_one", 0))
        cfg, outcomes = run_until_quiescent(cfg)
        assert outcomes[0] == QueueDied(("q",))
        assert isinstance(outcomes[1], ActionFailed)
        assert outcomes[1].error.reason == "TypeMismatch"
        assert cfg.store.value_of("x") == StringV("a")

    @pytest.mark.parametrize("source", ["samples", "burst"])
    def test_cached_scheduling_equals_uncached_scheduling(self, source):
        if source == "samples":
            paths = sorted(SAMPLES.glob("scenario_*.json"))
            assert paths
            starts = [build_config(load_scenario(str(p))) for p in paths]
        else:
            starts = [burst_config(seed) for seed in range(3)]
        for start in starts:
            for seed in range(20):
                cfg, schedule = start, RandomSchedule(seed)
                while options := enabled_steps(cfg):
                    assert tuple(options) == reference_enabled_steps(cfg)
                    fresh = with_fresh_submissions(cfg)
                    for i, j in combinations(range(len(cfg.q_do)), 2):
                        assert do_pair_viable(cfg, cfg.q_do[i], cfg.q_do[j]) == do_pair_viable(
                            fresh, fresh.q_do[i], fresh.q_do[j]
                        )
                    step = schedule(cfg)
                    after, outcomes = apply_step(cfg, step)
                    after_fresh, outcomes_fresh = apply_step(fresh, step)
                    assert after == after_fresh
                    assert list(map(comparable, outcomes)) == list(map(comparable, outcomes_fresh))
                    cfg = after
                assert not cfg.q_r and not cfg.q_do

    @settings(max_examples=150, deadline=None)
    @given(evolution_queues())
    def test_evolution_plans_equal_uncached_plans_at_every_step(self, queued):
        # besides the step it follows, each config fires a sibling step
        # first, so kept plans go back and forth between envs as the
        # explorer's walk moves them
        cfg, seed = queued
        rng = random.Random(seed)
        while options := enabled_steps(cfg):
            assert tuple(options) == reference_enabled_steps(cfg)
            for step in (options[rng.randrange(len(options))], options[rng.randrange(len(options))]):
                after, outcomes = apply_step(cfg, step)
                after_fresh, outcomes_fresh = apply_step(with_fresh_submissions(cfg), step)
                assert after == after_fresh
                assert list(map(comparable, outcomes)) == list(map(comparable, outcomes_fresh))
                assert check_config(after) == []
            cfg = after
        assert not cfg.q_r and not cfg.q_do

    def test_a_pair_the_lock_rule_refuses_keeps_its_report(self):
        for first, second, text in (
            ("def inc1 = x + 5;", "def d = inc1 * 2;", "UnboundName: 'inc1' is not bound at 1:9"),
            ("def d = inc1 * 2;", "def inc1 = x + 5;", "UnboundName: 'inc1' is not bound at 1:9"),
            ("def inc1 = x + 5;", "def inc1 = x + 7;", "WriteConflict: submissions rebind the same names ['inc1']"),
        ):
            cfg = submit_evolution(submit_evolution(quiesced(), parse_program(first), "p1"), parse_program(second), "p2")
            assert Step("evolve_two", 0, 1) not in enabled_steps(cfg)
            cfg2, outcome = step_evolve_many(cfg, cfg.q_r)
            assert cfg2 is cfg and isinstance(outcome, Rejected)
            assert (str(outcome.report), outcome.final, outcome.notified) == (text, False, ("p1", "p2"))

    def test_a_kept_plan_sees_a_cycle_that_a_commit_closes(self):
        # each alone is fine; once one commits, the other closes a cycle
        # through the base's b and e, which only its cycle walk read
        cfg = quiesced(CYCLE_BASE)
        cfg = submit_evolution(cfg, parse_program("def a = b + 1;"), "p1")
        cfg = submit_evolution(cfg, parse_program("def c = e + 1;"), "p2")
        assert tuple(enabled_steps(cfg)) == (Step("evolve_one", 0), Step("evolve_one", 1))
        for k in (0, 1):
            after, _ = apply_step(cfg, Step("evolve_one", k))
            assert tuple(enabled_steps(after)) == (Step("queue_die"),)

    def test_a_kept_evolution_plan_needs_an_env_known_well_formed(self):
        # an env no commit made is scanned whole, as the uncached planner does
        cfg = submit_evolution(quiesced(CYCLE_BASE), parse_program("def n = x + 1;"), "p")
        assert tuple(enabled_steps(cfg)) == (Step("evolve_one", 0),)
        cfg = replace(cfg, env=TypeEnv({**dict(cfg.env.items()), "z": Binding(INT, DepSet.of({"nope": INT}))}))
        assert tuple(enabled_steps(cfg)) == reference_enabled_steps(cfg) == (Step("queue_die"),)

    def test_plans_live_on_the_submission_and_follow_the_env(self):
        cfg = quiesced("var x = 0;")
        cfg = submit_do(cfg, parse_do("do (action { x := x + 1 })"), "u")
        cfg = submit_do(cfg, parse_do("do (action { x := 1 })"), "v")
        enabled_steps(cfg)
        sub = cfg.q_do[0]
        assert sub.plans[()].env is cfg.env and set(sub.plans) == {()}
        # the cache takes no part in equality or hashing
        twin = Submission(sub.item, sub.who)
        assert twin == sub and hash(twin) == hash(sub) and twin.plans == {}
        cfg = submit_evolution(cfg, parse_program("def d = x * 2;"), "p")
        cfg, _ = apply_step(cfg, Step("evolve_one", 0))
        enabled_steps(cfg)
        assert sub.plans[()].env is cfg.env

    def test_a_plan_outside_an_evolutions_footprint_still_goes_stale(self):
        # the `do` reads and writes nothing the evolution rebinds, yet it
        # stops typing: `w` is looked up to type the unused argument, so a
        # plan may be kept only while every name `check_do` looked up keeps
        # its binding, not just the names in the lock footprint
        cfg = quiesced("var u = 0; var v = 0; var w = 1;")
        cfg = submit_do(cfg, parse_do("do ((fn f => action { v := 1 }) (fn x => w + 1))"), "a")
        cfg = submit_do(cfg, parse_do("do (action { u := 1 })"), "b")
        assert Step("do_two", 0, 1) in enabled_steps(cfg)
        cached = cfg.q_do[0].plans[()].result
        assert (cached.reads(), cached.writes) == (frozenset(), frozenset({"v"}))
        cfg = submit_evolution(cfg, parse_program('var w = "s";'), "p")
        cfg, outcomes = run_until_quiescent(cfg)
        assert isinstance(outcomes[0], Accepted) and outcomes[0].who == ("p",)
        assert isinstance(outcomes[1], ActionFailed) and outcomes[1].notified == ("a",)
        assert outcomes[1].error.reason == "TypeMismatch"
        assert values(cfg) == {"u": 1, "v": 0}

    def test_a_plan_outlives_an_evolution_of_names_it_never_looked_up(self, monkeypatch):
        cfg = quiesced("var x = 0; var z = 0;")
        cfg = submit_do(cfg, parse_do("do (action { x := x + 1 })"), "u")
        cfg = submit_do(cfg, parse_do("do (action { z := y })"), "v")
        enabled_steps(cfg)
        kept = cfg.q_do[0].plans[()].result
        assert isinstance(cfg.q_do[1].plans[()].result, TypeCheckError)
        cfg = submit_evolution(cfg, parse_program("var y = 5; def d = z * 2;"), "p")
        cfg, _ = apply_step(cfg, Step("evolve_one", 0))
        calls = counting_calls(monkeypatch, "check_do")
        steps = enabled_steps(cfg)
        # `u` looked up `x` alone, which kept its binding; `v` looked up
        # `y`, unbound then and bound now, so only `v` types again
        assert calls["check_do"] == 1
        assert _do_plan(cfg.env, cfg.q_do[0]) is kept and cfg.q_do[0].plans[()].env is cfg.env
        assert Step("do_two", 0, 1) in steps
        cfg, outcomes = run_until_quiescent(cfg)
        assert [type(o) for o in outcomes] == [Executed, Executed]
        assert values(cfg) == {"x": 1, "z": 5, "y": 5, "d": 10}

    def test_a_step_reads_each_queued_plan_once(self, monkeypatch):
        # a step reads each queued plan once: q plan lookups, not two per
        # pair, and no typing with a lone action
        cfg = quiesced(" ".join(f"var v_{k} = 0;" for k in range(24)))
        lone = submit_do(cfg, parse_do("do (action { v_0 := 1 })"), "u")
        cfg = ring_of_dos(cfg, 24)
        calls = counting_calls(monkeypatch, "_do_plan", "do_pair_viable", "check_do")
        steps = enabled_steps(cfg)
        assert calls["_do_plan"] == 24 and calls["do_pair_viable"] == 0
        assert tuple(steps) == reference_enabled_steps(cfg)
        assert sum(s.kind == "do_two" for s in steps) == 24 * 23 // 2 - 24
        calls.update(dict.fromkeys(calls, 0))
        assert tuple(enabled_steps(lone)) == (Step("do_one", 0),)
        assert calls["check_do"] == 0


@st.composite
def mixed_queues(draw):
    """A quiesced config over 4-6 variables and `def d = v_0 + v_1`, with
    0-12 queued actions and 0-3 queued evolutions, and a seed for picks.

    The actions overlap on writes and reads by chance (the pool is small),
    and include read-only, self read-write, empty and ill-typed ones; the
    evolutions rebind `d` (which changes the reads of every action reading
    it), add a definition, turn a variable into a string, or do not type.
    """
    n = draw(st.integers(4, 6))
    var = st.integers(0, n - 1).map(lambda k: f"v_{k}")
    cfg = quiesced(" ".join(f"var v_{k} = {k};" for k in range(n)) + " def d = v_0 + v_1;")
    for k in range(draw(st.integers(0, 3))):
        code = draw(st.sampled_from(["def d = {a} * 2;", "def e = {a} + 1;", 'var {a} = "s";', "def f = nope;"]))
        cfg = submit_evolution(cfg, parse_program(code.format(a=draw(var))), f"p{k}")
    for k in range(draw(st.integers(0, 12))):
        a, b = draw(var), draw(var)
        body = draw(
            st.sampled_from(
                [
                    "action {{ {a} := {b} + 1 }}",
                    "action {{ {a} := 1; {b} := d }}" if a != b else "action {{ {a} := d }}",
                    "if {a} < 3 then action {{ }} else action {{ }}",
                    "action {{ {a} := {a} * 2 }}",
                    "action {{ }}",
                    'action {{ {a} := "s" }}',
                    "action {{ {a} := nope }}",
                    "5",
                ]
            )
        )
        cfg = submit_do(cfg, parse_do(f"do ({body.format(a=a, b=b)})"), f"u{k}")
    return cfg, draw(st.integers(0, 2**16))


class TestLazyOptions:
    def test_a_step_builds_no_pairs(self, monkeypatch):
        # the pairs come from an index of who writes what, and a `Step` is
        # built only when the schedule reads one
        cfg = quiesced(" ".join(f"var v_{k} = 0;" for k in range(24)))
        cfg = ring_of_dos(cfg, 24)
        calls = counting_calls(monkeypatch, "do_pair_viable", "Step")
        options = enabled_steps(cfg)
        assert calls == {"do_pair_viable": 0, "Step": 0}
        assert len(options) == 24 + 24 * 23 // 2 - 24
        assert options[len(options) - 1] == Step("do_two", 21, 23)
        assert calls == {"do_pair_viable": 0, "Step": 1}
        # a drain of independent actions builds one `Step` per fired step
        cfg = quiesced(" ".join(f"var v_{k} = 0;" for k in range(400)))
        for k in range(400):
            cfg = submit_do(cfg, parse_do(f"do (action {{ v_{k} := v_{k} + 1 }})"), f"u{k}")
        calls.update(dict.fromkeys(calls, 0))
        fired = 0
        for _, cfg, _ in run_steps(cfg, RandomSchedule(1)):
            fired += 1
        assert calls["Step"] == fired and 200 <= fired < 400
        assert values(cfg) == {f"v_{k}": 1 for k in range(400)}

    @settings(max_examples=200, deadline=None)
    @given(mixed_queues())
    def test_options_equal_the_reference_at_every_step(self, queued):
        cfg, seed = queued
        rng = random.Random(seed)
        while True:
            options, expected = enabled_steps(cfg), reference_enabled_steps(cfg)
            assert len(options) == len(expected)
            assert bool(options) == bool(expected)
            assert [options[k] for k in range(len(expected))] == list(expected)
            assert tuple(options) == expected
            with pytest.raises(IndexError):
                options[len(expected)]
            if not expected:
                break
            assert options[-1] == expected[-1]
            cfg, _ = apply_step(cfg, options[rng.randrange(len(options))])
        assert not cfg.q_r and not cfg.q_do


def test_a_run_of_dos_derives_the_reverse_edges_once(monkeypatch):
    # a transaction walks the env's cached reverse edges: its cost tracks
    # the cells it touches, not the size of the graph
    cfg = quiesced("var x = 0; var y = 0; def a = x + 1; def b = a * 2; def c = y + b;")
    cfg = replace(cfg, env=TypeEnv(cfg.env.items()))  # an equal env, nothing derived yet
    derived = []
    original = meerkat.typesys._reverse_edges
    monkeypatch.setattr(meerkat.typesys, "_reverse_edges", lambda env: derived.append(env) or original(env))
    for k in range(50):
        cfg = submit_do(cfg, parse_do(f"do (action {{ x := {k} }})"), "u")
        cfg, (outcome,) = run_until_quiescent(cfg)
        assert outcome.recomputed == ("a", "b", "c")
    assert len(derived) == 1 and derived[0] is cfg.env
    assert values(cfg) == {"x": 49, "y": 0, "a": 50, "b": 100, "c": 100}


def test_an_env_is_scanned_for_well_formedness_once(monkeypatch):
    # the report is kept on the immutable env, so the audit of every config
    # that shares it (each `do` step's successor does) reads it again
    cfg = quiesced()
    cfg = replace(cfg, env=TypeEnv(cfg.env.items()))  # an equal env, nothing derived yet
    scanned = []
    original = meerkat.typesys._violations
    monkeypatch.setattr(
        meerkat.typesys, "_violations", lambda env, names: scanned.append(env) or original(env, names)
    )
    assert well_formed(cfg.env).ok and well_formed(cfg.env).ok
    assert check_config(cfg) == []
    assert len(scanned) == 1 and scanned[0] is cfg.env
    # `compatible` marks the env it accepts, but the mark is no report:
    # the audit still scans that env, and so checks the delta-local path
    cfg, (outcome,) = run_until_quiescent(submit_evolution(quiesced(), parse_program("def a_2 = x + 2;"), "p"))
    assert isinstance(outcome, Accepted)
    scanned.clear()
    assert check_config(cfg) == []
    assert scanned == [cfg.env]


def test_accepted_evolutions_check_only_what_their_delta_touches(monkeypatch):
    # an env that `compatible` accepted is known well-formed, so the next
    # evolution checks its delta and patches the reverse edges from that
    # env: accepting it never walks the whole env
    cfg = quiesced(" ".join(f"var v_{k} = {k}; def d_{k} = v_{k} * 2 + 1;" for k in range(300)))
    reverse_edges = meerkat.typesys._reverse_edges
    calls = []
    for name in ("well_formed", "_reverse_edges"):
        original = getattr(meerkat.typesys, name)
        monkeypatch.setattr(
            meerkat.typesys, name, lambda env, name=name, original=original: calls.append(name) or original(env)
        )
    for k in range(1, 51):
        source = (
            f"def e_{k} = d_{k} + v_{k + 1};",  # a new definition
            f"def d_{k} = v_{k} * 2 + 1;",  # the same body again
            f"def d_{k} = v_{k + 1} + d_{k - 1};",  # a rebinding that changes its reads
        )[k % 3]
        cfg = submit_evolution(cfg, parse_program(source), "p")
        cfg, (outcome,) = run_until_quiescent(cfg)
        assert isinstance(outcome, Accepted), source
    assert calls == []
    assert cfg.env.readers() == reverse_edges(cfg.env)
    assert values(cfg)["d_2"] == 3 + 3 and values(cfg)["e_3"] == 7 + 4
    # a kind flip takes the whole-env scan and gets its report
    report = _merge_evolutions(cfg.env, [parse_program("var d_7 = 0;")])
    assert calls == ["well_formed"]
    assert str(report) == "kind_flip(d_7): 'd_7' changed from def to var"


# ---------------------------------------------------------------------------
# Several picks in one step against the merge that scanned for stale cells
# ---------------------------------------------------------------------------

def reference_merge_defs(d1, d2, merged_vars, env):
    """`merge_defs` as it was before wave orders: the stale values are every
    definition the two maps hold as different objects, sorted afresh and
    recomputed by their code in `env`."""
    if set(d1) != set(d2):
        raise ValueError("definition maps must cover the same names")
    merged = Store(merged_vars, d1)
    stale = {n for n, v1 in d1.items() if v1 is not d2[n]}
    for name in topo_order(env, stale):
        merged.defs[name] = eval_expr(merged, {}, env.get(name).expr)
    return merged.defs


def reference_step_do_many(cfg: Config, picks):
    """`step_do_many` as it was before wave orders, with the merge above and
    `recomputed` sorted afresh from the survivors' waves."""
    remaining = cfg.q_do
    for p in picks:
        remaining = _remove(remaining, (p,))
    if not all(do_pair_viable(cfg, p, q) for k, p in enumerate(picks) for q in picks[k + 1 :]):
        conflict = TypeCheckError("LockConflict", "actions overlap on reads or writes")
        return cfg, (Rejected(conflict, tuple(p.who for p in picks), final=False),)
    base = store = cfg.store
    outcomes: list = []
    runs = []
    for k, pick in enumerate(picks):
        planned = _do_plan(cfg.env, pick)
        if isinstance(planned, TypeCheckError):
            outcomes.append(ActionFailed(planned, (pick.who,)))
            continue
        try:
            pending = _run_action(base, pick.item)
            alone, prop = propagate(base, cfg.env, pending, cfg.next_txn + k)
            if runs:
                merged_vars = {**store.vars, **{n: alone.vars[n] for n in pending}}
                defs = reference_merge_defs(store.defs, alone.defs, merged_vars, cfg.env)
                alone = Store(merged_vars, defs, prop.txn)
        except EvalError as err:
            outcomes.append(ActionFailed(err, (pick.who,)))
            continue
        if not runs:
            place = len(outcomes)
            outcomes.append(None)
        runs.append((pick.who, pending, prop))
        store = alone
    if not runs:
        return replace(cfg, q_do=remaining), tuple(outcomes)
    _, _, prop = runs[0]
    changes, recomputed = prop.changes, prop.recomputed
    if len(runs) > 1:
        recomputed = tuple(topo_order(cfg.env, {n for *_, wave in runs for n in wave.recomputed}))
        names = {n for _, pending, _ in runs for n in pending} | set(recomputed)
        changes = tuple(
            Change(n, base.value_of(n), store.value_of(n))
            for n in sorted(names)
            if base.value_of(n) != store.value_of(n)
        )
    outcomes[place] = Executed(changes, store.txn, tuple(who for who, *_ in runs), recomputed)
    return replace(cfg, store=store, q_do=remaining), tuple(outcomes)


@st.composite
def merge_cases(draw):
    """A program over 3-5 positive variables and 2-5 definitions, each over
    two earlier names (so some share a variable downstream and some do not,
    and a division can fault), and 2-3 actions on disjoint variables.

    An action writes 1-2 variables a constant from -3 to 3 or an update of
    its own variable, so a division faults alone or only once another
    pick's write lands; some actions write nothing or do not type."""
    n = draw(st.integers(3, 5))
    names = [f"v_{k}" for k in range(n)]
    decls = [f"var v_{k} = {draw(st.integers(1, 3))};" for k in range(n)]
    # labels out of declaration order, so dependency order is not name order
    labels = draw(st.permutations("pqrst"))
    for k in range(draw(st.integers(2, 5))):
        form = draw(st.sampled_from(["{x} + {y}", "{x} * 2", "60 / ({x} + {y})", "if {x} < 3 then {y} else {x} + 1"]))
        # a division reads variables only, so a write or two can zero it
        pool = st.sampled_from(names[:n] if "/" in form else names)
        x, y = draw(pool), draw(pool)
        decls.append(f"def {labels[k]} = {form.format(x=x, y=y)};")
        names.append(labels[k])
    free = draw(st.permutations(range(n)))
    actions = []
    for _ in range(draw(st.integers(2, 3))):
        if not free:
            break
        m = draw(st.integers(1, min(2, len(free))))
        targets, free = free[:m], free[m:]
        c = draw(st.integers(-3, 3))
        rhs = draw(st.sampled_from(["{c}", "{c}", "{t} + {c}", "{t} * {c}"]))
        writes = "; ".join(f"v_{t} := {rhs.format(t=f'v_{t}', c=c)}" for t in targets)
        actions.append(draw(st.sampled_from([f"action {{ {writes} }}"] * 8 + ["action { }", "action { v_0 := true }"])))
    return " ".join(decls), tuple(actions)


class TestMultiPickMerge:
    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    # shared downstream `s`: alone each write is fine, together they
    # divide by zero; `b := -1` faults `s` alone
    @example(("var a = 1; var b = 1; var c = 1; def s = 12 / (a + b); def t = c + 1;",
              ("action { a := 2 }", "action { b := -2 }", "action { c := 5 }")))
    @example(("var a = 1; var b = 1; var c = 1; def s = 12 / (a + b); def t = c + 1;",
              ("action { b := -1 }", "action { a := 2 }", "action { c := 5 }")))
    # disjoint downstream defs, a diamond over both
    @example(("var a = 1; var b = 1; def r = a + 1; def q = b * 2; def p = r + q;",
              ("action { a := 3 }", "action { b := 4 }")))
    def test_several_picks_equal_the_reference(self, case):
        program, actions = case
        cfg = quiesced(program)
        for k, body in enumerate(actions):
            cfg = submit_do(cfg, parse_do(f"do ({body})"), f"u{k}")
        # the single picks first, as the explorer fires them: every step
        # after them reads its picks' solo waves from the cache
        singles = [(p,) for p in cfg.q_do]
        for picks in (*singles, cfg.q_do, cfg.q_do[::-1], cfg.q_do[:2]):
            got_cfg, got = step_do_many(cfg, picks)
            want_cfg, want = reference_step_do_many(cfg, picks)
            assert [comparable(o) for o in got] == [comparable(o) for o in want]
            assert got_cfg.store == want_cfg.store
            assert got_cfg.q_do == want_cfg.q_do

    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    # `b := -1` faults `s` from the pre-step store, but not once `a := 2`
    # has landed: it fails in the batch, so it goes first one at a time
    @example(("var a = 1; var b = 1; var c = 1; def s = 12 / (a + b); def t = c + 1;",
              ("action { a := 2 }", "action { b := -1 }", "action { c := 5 }")))
    # alone each write is fine, together they divide by zero
    @example(("var a = 1; var b = 1; var c = 1; def s = 12 / (a + b); def t = c + 1;",
              ("action { a := 2 }", "action { b := -2 }", "action { c := 5 }")))
    def test_several_picks_equal_their_picks_fired_one_at_a_time(self, case):
        # the judge of a batch: lock-compatible picks fired in one step
        # reach the values, and fail the submitters, of the same picks
        # fired one step each, each from the previous result.  The order
        # is the pick order, except that a pick whose wave faults from the
        # pre-step store fails in the batch wherever it stands, so those
        # picks go first.  Transaction numbers and outcome records differ
        # by design: a batch numbers by pick index and reports one
        # `Executed` for all of its survivors.
        program, actions = case
        cfg = quiesced(program)
        for k, body in enumerate(actions):
            cfg = submit_do(cfg, parse_do(f"do ({body})"), f"u{k}")

        def fails_alone(pick) -> bool:
            return isinstance(step_do_many(cfg, (pick,))[1][0], ActionFailed)

        for picks in (cfg.q_do, cfg.q_do[::-1], cfg.q_do[:2]):
            if not all(do_pair_viable(cfg, p, q) for p, q in combinations(picks, 2)):
                continue
            got_cfg, got = step_do_many(cfg, picks)
            one_at_a_time, failed = cfg, set()
            for pick in sorted(picks, key=fails_alone, reverse=True):  # stable
                one_at_a_time, (outcome,) = step_do_many(one_at_a_time, (pick,))
                if isinstance(outcome, ActionFailed):
                    failed.update(outcome.notified)
            assert got_cfg.store.vars == one_at_a_time.store.vars
            assert got_cfg.store.defs == one_at_a_time.store.defs
            assert {who for o in got if isinstance(o, ActionFailed) for who in o.notified} == failed
            assert got_cfg.q_do == one_at_a_time.q_do

    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    # `a := 2` then `b := -2` faults `s` in the merge; `t` is downstream
    # of `c` and `e`, and `u` of every pick
    @example(("var a = 1; var b = 1; var c = 1; var e = 2; def s = 12 / (a + b); def t = c + e; def u = s + t;",
              ("action { a := 2 }", "action { b := -2 }", "action { c := 5 }", "action { e := 3 }")))
    # a pick that writes its variable's own value changes nothing
    @example(("var a = 1; var b = 1; var c = 1; def s = a + b; def t = b + c;",
              ("action { a := a }", "action { b := 3 }", "action { c := c * 1 }")))
    def test_a_merged_change_list_equals_a_full_diff_against_the_base(self, case):
        # the reference derivation: diff every written or recomputed name
        # of the survivors against the base, as `step_do_many` once did
        program, actions = case
        cfg = quiesced(program)
        for k, body in enumerate(actions):
            cfg = submit_do(cfg, parse_do(f"do ({body})"), f"u{k}")
        for size in range(2, len(cfg.q_do) + 1):
            for picks in permutations(cfg.q_do, size):
                if not all(do_pair_viable(cfg, p, q) for p, q in combinations(picks, 2)):
                    continue
                after, outcomes = step_do_many(cfg, picks)
                for o in outcomes:
                    if isinstance(o, Executed) and len(o.who) > 1:
                        written = {n for p in picks if p.who in o.who for n in _do_plan(cfg.env, p).writes}
                        want = diff({n: cfg.store.value_of(n) for n in written.union(o.recomputed)}, after.store)
                        assert o.changes == want


def assert_first_step_refines(cfg: Config, seed: int) -> None:
    """At every config of a seeded random run from `cfg`, and of the run
    `first_step` drives from it: `first_step` is `enabled_steps`' first
    step, or None exactly when no step is enabled."""
    rng = random.Random(seed)
    for walk in ("random", "first"):
        at = cfg
        while True:
            step = first_step(at)  # before `enabled_steps` warms the plans
            options = enabled_steps(at)
            assert step == (options[0] if options else None)
            if step is None:
                break
            at, _ = apply_step(at, step if walk == "first" else options[rng.randrange(len(options))])
        assert not at.q_r and not at.q_do


class TestFirstStep:
    # the server's schedule refines the nondeterministic one: it fires a
    # step the explorer offers, and stops only when the explorer would

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(evolution_queues(), mixed_queues()))
    def test_it_is_the_first_enabled_step_of_queued_work(self, queued):
        assert_first_step_refines(*queued)

    @settings(max_examples=100, deadline=None)
    @given(merge_cases(), st.integers(0, 2**16))
    def test_it_is_the_first_enabled_step_of_merge_configs(self, case, seed):
        program, actions = case
        cfg = quiesced(program)
        for k, body in enumerate(actions):
            cfg = submit_do(cfg, parse_do(f"do ({body})"), f"u{k}")
        assert_first_step_refines(cfg, seed)

    @pytest.mark.parametrize("source", ["samples", "burst"])
    def test_it_is_the_first_enabled_step_of_bursts_and_samples(self, source):
        if source == "samples":
            paths = sorted(SAMPLES.glob("scenario_*.json"))
            assert paths
            starts = [build_config(load_scenario(str(p))) for p in paths]
        else:
            starts = [burst_config(seed) for seed in range(3)]
        for start in starts:
            for seed in range(20):
                assert_first_step_refines(start, seed)

