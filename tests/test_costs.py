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
    RandomSchedule,
    initial_config,
    run_until_quiescent,
    submit_do,
    submit_evolution,
)
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
