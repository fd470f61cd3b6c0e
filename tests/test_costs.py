"""Cost gates: counts of work, not time, asserted as growth laws.

A benchmark runs at fixed sizes on shared machines, so it cannot tell a
cost that grows with the input from one that does not.  These tests count
the operations a drain makes at several sizes and bound how the counts
grow, so a regression in growth fails here on any machine.
"""

from __future__ import annotations

import sys

import pytest

import meerkat.runtime
import meerkat.store
import meerkat.typesys
from meerkat.netserver import ServerState, Session
from meerkat.runtime import (
    Accepted,
    Executed,
    FixedSchedule,
    PicksRanOut,
    RandomSchedule,
    Step,
    initial_config,
    run_steps,
    run_until_quiescent,
    submit_do,
    submit_evolution,
)
from meerkat.simharness import Exhaustive, Scenario, ScenarioItem, explore
from meerkat.store import IntV
from meerkat.syntax import parse_do, parse_program, tokenize
from meerkat.typesys import TypeEnv

PAIRS = 600


@pytest.fixture(scope="module")
def installed():
    """The program of `PAIRS` var/def pairs `var v_k = k; def d_k = v_k * 2 + 1;`."""
    source = " ".join(f"var v_{k} = {k}; def d_{k} = v_{k} * 2 + 1;" for k in range(PAIRS))
    return initial_config(parse_program(source))


def counting(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls of each `meerkat.typesys` function in `names`,
    wherever the runtime or the type checker calls it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(meerkat.typesys, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in (meerkat.runtime, meerkat.typesys):
            if getattr(module, name) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("r", [10, 20, 40])
def test_draining_independent_evolutions_plans_at_most_quadratically(installed, monkeypatch, r):
    # r evolutions `def e_k = d_k + 1;` over disjoint names: every single
    # and every pair is approvable, and a commit changes nothing another
    # plan read, so each program is typed once and each pair checked once
    # (r and r(r+1)/2 here); re-planning every pair after every commit
    # makes O(r^3) of both
    cfg = installed
    for k in range(r):
        cfg = submit_evolution(cfg, parse_program(f"def e_{k} = d_{k} + 1;"), f"p{k}")
    calls = counting(monkeypatch, "infer_program", "compatible")
    cfg, outcomes = run_until_quiescent(cfg, RandomSchedule(1))
    assert all(isinstance(o, Accepted) for o in outcomes)
    assert {f"e_{k}" for k in range(r)} <= set(cfg.env.names())
    assert calls["infer_program"] <= r * r, calls
    assert calls["compatible"] <= r * r, calls


@pytest.mark.parametrize("q", [50, 100, 200])
def test_a_server_turn_schedules_a_hot_cell_drain_in_linear_work(monkeypatch, q):
    # q pipelined actions on one cell: the server fires the oldest each
    # step, so each action is typed once, when it fires, and no step
    # enumerates the queue.  A schedule that draws from `enabled_steps`
    # types every queued action each step, O(q^2) plans in all (1,324 at
    # q = 50)
    state = ServerState(initial_config(parse_program("var x = 0;")))
    session = state.sessions[1] = Session(id=1)
    batch = [(session, {"type": "do", "req": k, "expr": "do (action { x := x + 1 })"}) for k in range(q)]
    calls = dict.fromkeys(("_do_plan", "enabled_steps"), 0)
    for name in calls:
        original = getattr(meerkat.runtime, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(meerkat.runtime, name, wrapper)
    replies = []
    state.turn(batch, lambda sid, payload: replies.append(payload))
    assert calls == {"_do_plan": q, "enabled_steps": 0}
    assert [(p["type"], p["req"]) for p in replies] == [("executed", k) for k in range(q)]
    assert state.cfg.store.vars["x"] == IntV(q)


def test_action_steps_walk_the_evolution_queue_once(installed, monkeypatch):
    # 2 approvable evolutions and 20 actions: an action step leaves the env
    # and the evolution queue as they were, so the evolution head that the
    # first step built serves all 20.  Walking the queue every step checks
    # the evolution pair once per step, 21 times here
    cfg = installed
    for k in range(2):
        cfg = submit_evolution(cfg, parse_program(f"def e_{k} = d_{k} + 1;"), f"p{k}")
    for k in range(20):
        cfg = submit_do(cfg, parse_do(f"do (action {{ v_{k} := v_{k} + 1 }})"), f"u{k}")
    env, q_r = cfg.env, cfg.q_r
    calls = 0
    original = meerkat.runtime.evolve_pair_viable

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(meerkat.runtime, "evolve_pair_viable", counted)
    fired = []
    # each step's options: evolve_one 0, evolve_one 1, evolve_two 0 1, then
    # the actions; the 21st call finds the evolutions still enabled
    with pytest.raises(PicksRanOut):
        for step, cfg, _ in run_steps(cfg, FixedSchedule([3] * 20)):
            fired.append(step)
    assert fired == [Step("do_one", 0)] * 20
    assert cfg.env is env and cfg.q_r is q_r and not cfg.q_do
    assert [cfg.store.vars[f"v_{k}"] for k in range(20)] == [IntV(k + 1) for k in range(20)]
    assert calls == 1


def test_a_verdict_derives_few_wave_orders(monkeypatch):
    """A pin: the benchmark's `explore_verdict` scenario at seed 301 derives
    68 wave orders per verdict (at most 70 allowed).  When the memo held
    one order per binding, the orders of one config's pairs evicted those
    of its singles, and a verdict derived 288."""
    initial = "var a0 = 2; var a1 = 4; var a2 = 4; var a3 = 4; var a4 = 7; var a5 = 7;"
    initial += " def s = a0 + a1 + a2; def t = s * 2;"
    items = (
        ScenarioItem("do", "do (action { a1 := 21 })", "u1"),
        ScenarioItem("evolve", "def e_2 = t + 2;", "p2"),
        ScenarioItem("do", "do (action { a3 := 19 })", "u4"),
        ScenarioItem("evolve", "def e_1 = t + 1;", "p1"),
        ScenarioItem("do", "do (action { a5 := 48 })", "u0"),
        ScenarioItem("do", "do (action { a4 := 83 })", "u3"),
        ScenarioItem("do", "do (action { a0 := 34 })", "u2"),
    )
    derived = 0
    topo_order = meerkat.store.topo_order

    def counted(*args):
        nonlocal derived
        derived += 1
        return topo_order(*args)

    monkeypatch.setattr(meerkat.store, "topo_order", counted)  # `wave_order` calls it only to derive
    verdict = explore(Scenario(initial, items, independent=True), Exhaustive())
    assert (verdict.ok, verdict.schedules_complete, verdict.states, verdict.runs) == (True, True, 800, 16_320)
    assert derived <= 70, derived


def one_cell_do_work(monkeypatch, pairs: int) -> tuple[int, int, tuple[str, ...]]:
    """The `eval_expr` calls and `TypeEnv.get` lookups that one
    `do (action { v_0 := v_0 + 1 })` makes, from submission to commit, on
    the program of `pairs` var/def pairs, and the definitions it recomputes."""
    source = " ".join(f"var v_{k} = {k}; def d_{k} = v_{k} * 2 + 1;" for k in range(pairs))
    cfg = submit_do(initial_config(parse_program(source)), parse_do("do (action { v_0 := v_0 + 1 })"), "u")
    calls = {"eval_expr": 0, "get": 0}
    evaluate, get = meerkat.store.eval_expr, TypeEnv.get

    def counted_eval(*args, **kwargs):
        calls["eval_expr"] += 1
        return evaluate(*args, **kwargs)

    def counted_get(env, name):
        calls["get"] += 1
        return get(env, name)

    with monkeypatch.context() as patch:
        for module in (meerkat.store, meerkat.runtime):
            patch.setattr(module, "eval_expr", counted_eval)
        patch.setattr(TypeEnv, "get", counted_get)
        cfg, (outcome,) = run_until_quiescent(cfg)
    assert isinstance(outcome, Executed) and cfg.store.vars["v_0"] == IntV(1)
    return calls["eval_expr"], calls["get"], outcome.recomputed


def test_a_one_cell_do_does_the_same_work_at_any_program_size(monkeypatch):
    """A pin: a one-cell transaction's evaluations, env lookups and
    recomputed definitions track the cells it touches, not the size of the
    program (9 evaluations and 5 lookups at both sizes when it landed).

    Not counted: the copies of the store's value dicts that every
    transaction makes (ROADMAP item 4), which still grow with the program.
    """
    small, large = one_cell_do_work(monkeypatch, 200), one_cell_do_work(monkeypatch, 1_600)
    assert small == large, (small, large)
    assert small[2] == ("d_0",)


def test_lexing_makes_a_bounded_number_of_python_calls_per_token():
    """The lexer matches one compiled pattern per token, so the Python-level
    calls it makes track the tokens, not the characters: one per token
    (building it) when it landed.  A lexer that calls a helper for every
    character made 4.0 calls per token on this program."""
    # the benchmark's live server start-up program: 300 var/def pairs and
    # an aggregate over every tenth definition, 601 declarations in all
    decls = [f"var v_{k} = {k * 37 % 100};\ndef d_{k} = v_{k} * 2 + 1;" for k in range(300)]
    decls.append("def agg = " + " + ".join(f"d_{k}" for k in range(0, 300, 10)) + ";")
    source = "\n".join(decls) + "\n"
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        tokens = tokenize(source)
    finally:
        sys.setprofile(None)
    assert len(parse_program(source).decls) == 601
    assert calls <= 2 * len(tokens), (calls, len(tokens))
