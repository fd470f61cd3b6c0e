"""Stepper tests: approval, wait-die, transactional actions, quiescence."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

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
    _evolution_delta,
    apply_step,
    check_config,
    do_pair_viable,
    enabled_steps,
    evolve_pair_viable,
    initial_config,
    run_until_quiescent,
    step_do_many,
    step_evolve_many,
    step_queue_die,
    submit_do,
    submit_evolution,
)
from meerkat.simharness import build_config, load_scenario, validate_wave
from meerkat.store import IntV, StringV
from meerkat.syntax import parse_do, parse_program
from meerkat.typesys import TypeCheckError, TypeEnv, check_do

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
            assert validate_wave(cfg, outcome) == []
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
        while True:
            options = enabled_steps(cfg)
            if not options:
                break
            cfg, _ = apply_step(cfg, schedule.choose(cfg, options))
            assert check_config(cfg) == []



def reference_enabled_steps(cfg: Config) -> tuple[Step, ...]:
    """`enabled_steps` from first principles: every plan is computed afresh
    from `check_do` and `_evolution_delta`, with no cache."""

    def approvable(*subs: Submission) -> bool:
        return isinstance(_evolution_delta(cfg.env, [s.item for s in subs]), tuple)

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


class TestPlanCache:
    def test_a_cached_plan_does_not_survive_an_env_change(self):
        cfg = quiesced("var x = 0;")
        cfg = submit_do(cfg, parse_do("do (action { x := x + 1 })"), "u")
        cfg = submit_evolution(cfg, parse_program('var x = "a";'), "p")
        cfg = submit_evolution(cfg, parse_program("def d = x + 1;"), "q")
        # both evolutions and the do are planned, and viable, under this env
        assert enabled_steps(cfg) == (Step("evolve_one", 0), Step("evolve_one", 1), Step("do_one", 0))
        cfg, _ = apply_step(cfg, Step("evolve_one", 0))
        # x is a string now: `def d` no longer types and the do no longer runs
        assert enabled_steps(cfg) == (Step("queue_die"), Step("do_one", 0))
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
                    assert options == reference_enabled_steps(cfg)
                    fresh = with_fresh_submissions(cfg)
                    for i, j in combinations(range(len(cfg.q_do)), 2):
                        assert do_pair_viable(cfg, cfg.q_do[i], cfg.q_do[j]) == do_pair_viable(
                            fresh, fresh.q_do[i], fresh.q_do[j]
                        )
                    step = schedule.choose(cfg, options)
                    after, outcomes = apply_step(cfg, step)
                    after_fresh, outcomes_fresh = apply_step(fresh, step)
                    assert after == after_fresh
                    assert list(map(comparable, outcomes)) == list(map(comparable, outcomes_fresh))
                    cfg = after
                assert not cfg.q_r and not cfg.q_do

    def test_plans_live_on_the_submission_and_follow_the_env(self):
        cfg = quiesced("var x = 0;")
        cfg = submit_do(cfg, parse_do("do (action { x := x + 1 })"), "u")
        cfg = submit_do(cfg, parse_do("do (action { x := 1 })"), "v")
        enabled_steps(cfg)
        sub = cfg.q_do[0]
        assert sub.plans["env"] is cfg.env and set(sub.plans) == {"env", ()}
        # the cache takes no part in equality or hashing
        twin = Submission(sub.item, sub.who)
        assert twin == sub and hash(twin) == hash(sub) and twin.plans == {}
        cfg = submit_evolution(cfg, parse_program("def d = x * 2;"), "p")
        cfg, _ = apply_step(cfg, Step("evolve_one", 0))
        enabled_steps(cfg)
        assert sub.plans["env"] is cfg.env

    def test_a_plan_outside_an_evolutions_footprint_still_goes_stale(self):
        # the `do` reads and writes nothing the evolution rebinds, yet it
        # stops typing: `w` is looked up to type the unused argument, so a
        # plan may be kept only while every name `check_do` looked up keeps
        # its binding, not just the names in the lock footprint
        cfg = quiesced("var u = 0; var v = 0; var w = 1;")
        cfg = submit_do(cfg, parse_do("do ((fn f => action { v := 1 }) (fn x => w + 1))"), "a")
        cfg = submit_do(cfg, parse_do("do (action { u := 1 })"), "b")
        assert Step("do_two", 0, 1) in enabled_steps(cfg)
        cached = cfg.q_do[0].plans[()][1]
        assert (cached.reads(), cached.writes) == (frozenset(), frozenset({"v"}))
        cfg = submit_evolution(cfg, parse_program('var w = "s";'), "p")
        cfg, outcomes = run_until_quiescent(cfg)
        assert isinstance(outcomes[0], Accepted) and outcomes[0].who == ("p",)
        assert isinstance(outcomes[1], ActionFailed) and outcomes[1].notified == ("a",)
        assert outcomes[1].error.reason == "TypeMismatch"
        assert values(cfg) == {"u": 1, "v": 0}

    def test_a_step_reads_each_queued_plan_once(self, monkeypatch):
        # the pair checks are set logic over plans read once per step: q
        # plan lookups, not two per pair, and no typing with a lone action
        calls = {"_do_plan": 0, "do_pair_viable": 0, "check_do": 0}

        def counting(name):
            original = getattr(meerkat.runtime, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(meerkat.runtime, name, wrapper)

        cfg = quiesced(" ".join(f"var v_{k} = 0;" for k in range(24)))
        lone = submit_do(cfg, parse_do("do (action { v_0 := 1 })"), "u")
        for k in range(24):
            cfg = submit_do(cfg, parse_do(f"do (action {{ v_{k} := v_{(k + 1) % 24} }})"), f"u{k}")
        for name in calls:
            counting(name)
        steps = enabled_steps(cfg)
        assert calls["_do_plan"] == 24 and calls["do_pair_viable"] == 0
        assert steps == reference_enabled_steps(cfg)
        assert sum(s.kind == "do_two" for s in steps) == 24 * 23 // 2 - 24
        calls.update(dict.fromkeys(calls, 0))
        assert enabled_steps(lone) == (Step("do_one", 0),)
        assert calls["check_do"] == 0


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
    report = _evolution_delta(cfg.env, [parse_program("var d_7 = 0;")])
    assert calls == ["well_formed"]
    assert str(report) == "kind_flip(d_7): 'd_7' changed from def to var"
