"""Acceptance criteria for the runtime, one test per criterion.

Each test prints a single ``PASS criterion N`` / ``FAIL criterion N`` line
(visible with ``pytest -s``) and enforces the stated budget.  Criteria 3,
4, and part of 6 share one exhaustive exploration of generated
configurations, run once per session.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from meerkat.netserver import MeerkatServer
from meerkat.runtime import (
    Accepted,
    Executed,
    QueueDied,
    apply_step,
    check_config,
    enabled_steps,
    initial_config,
    run_until_quiescent,
    step_do_many,
    step_evolve_many,
    submit_do,
    submit_evolution,
)
from meerkat.simharness import check_oracle, config_key, oracle_recompute, validate_wave
from meerkat.store import IntV, init_cells, propagate
from meerkat.syntax import parse_do, parse_program
from meerkat.typesys import (
    BOOL,
    INT,
    Action,
    Binding,
    DepSet,
    TypeCheckError,
    TypeEnv,
    check_do,
    compatible,
    env_merge,
    infer_expr,
    infer_program,
    transitive_reads,
    well_formed,
)

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"


def dep_edges(env: TypeEnv) -> dict[str, frozenset[str]]:
    """name -> the names its binding reads directly (none for a state var)."""
    return {n: frozenset() if b.is_state else b.deps.names() for n, b in env.items()}


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its budget: {elapsed:.1f}s >= {budget_seconds}s"
        )
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def quiesce(source: str):
    cfg = submit_evolution(initial_config(), parse_program(source), "setup")
    cfg, outcomes = run_until_quiescent(cfg)
    assert isinstance(outcomes[0], Accepted)
    return cfg


def int_values(cfg) -> dict:
    return {n: v.v for n, v in cfg.store.values().items() if isinstance(v, IntV)}


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

def test_criterion_1_listing_reproduction():
    with criterion(1, "evolving the three-cell program then setting x to 2", 1.0):
        cfg = quiesce(LISTING)
        cfg = submit_do(cfg, parse_do("do (action { x := 2 })"), "user")
        cfg, outcomes = run_until_quiescent(cfg)
        assert isinstance(outcomes[0], Executed)
        got = int_values(cfg)
        assert got["inc1"] == 3
        assert got["inc2"] == 4


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------

def test_criterion_2_statics_suite():
    with criterion(2, "typing rules: actions, reads, well-formedness, compatibility", 5.0):
        env = infer_program(TypeEnv(), parse_program(LISTING))
        # the action rule: writes must target state variables, reads union
        ty, deps = infer_expr(env, {}, parse_do("do (action { x := x + 1 })").expr)
        assert ty == Action(DepSet.of({"x": INT}), frozenset({"x"}))
        assert deps.names() == frozenset()
        with pytest.raises(TypeCheckError) as exc:
            infer_expr(env, {}, parse_do("do (action { inc1 := 2 })").expr)
        assert exc.value.reason == "KindMismatch"
        # the reads judgment: transitive closure split into vars and defs
        assert transitive_reads(env, DepSet.of({"inc2": INT})) == (
            frozenset({"x"}),
            frozenset({"inc1", "inc2"}),
        )
        bump_env = env_merge(
            env, infer_program(env, parse_program("def bump = action { x := x + 1 };"))
        )
        plan = check_do(bump_env, parse_do("do bump"))
        assert plan.read_vars == frozenset({"x"})
        assert plan.read_defs == frozenset({"bump"})
        assert plan.writes == frozenset({"x"})
        with pytest.raises(TypeCheckError) as exc:
            check_do(env, parse_do("do 1"))
        assert exc.value.reason == "NotAnAction"
        # well-formedness: consistency and acyclicity
        assert well_formed(env).ok
        assert well_formed(TypeEnv()).ok
        loop = TypeEnv({"f": Binding(INT, DepSet.of({"f": INT}))})
        assert any(v.kind == "cycle" for v in well_formed(loop).violations)
        # compatibility: extension ok, cycles and stale dependents rejected
        assert compatible(env, infer_program(env, parse_program("def inc3 = inc2 + 1;"))).ok
        cyclic = TypeEnv(
            {"p": Binding(INT, DepSet.of({"q": INT})), "q": Binding(INT, DepSet.of({"p": INT}))}
        )
        assert not compatible(env, cyclic).ok
        stale = compatible(env, TypeEnv({"x": Binding(BOOL, None)}))
        assert any(
            v.kind == "stale_dependent" and v.name == "inc1" for v in stale.violations
        )
        assert any(v.kind == "kind_flip" for v in compatible(env, TypeEnv({"inc1": Binding(INT, None)})).violations)
        # state variables must not depend on anything
        with pytest.raises(TypeCheckError) as exc:
            infer_program(env, parse_program("var y = x + 1;"))
        assert exc.value.reason == "StateVarDependency"


# ---------------------------------------------------------------------------
# criteria 3, 4, 6a: one shared exhaustive exploration
# ---------------------------------------------------------------------------

@dataclass
class ExplorationStats:
    states: int = 0
    scenarios: int = 0
    terminal_runs: int = 0
    elapsed: float = 0.0
    progress_failures: list = field(default_factory=list)
    preservation_failures: list = field(default_factory=list)
    oracle_failures: list = field(default_factory=list)
    glitch_failures: list = field(default_factory=list)


BASES = [
    None,
    "var x = 1;",
    LISTING,
    "var a = 0; var b = 0; def s = a + b;",
    "var a = 1; def b = a + 1; def c = a + 2; def d = b + c;",
]

EVOLUTIONS = [
    "def fresh1 = 1;",
    "var fresh2 = 5;",
    "def fresh3 = fresh1 + 1;",          # depends on another pending submission
    "def cycle1 = cycle1 + 1;",          # self-referential: never approvable
    "def orphan = missing + 1;",         # unbound unless someone binds it
    "var dup = 1; var dup = 2;",         # duplicate binding: never approvable
    "def pair1 = 3; def pair2 = pair1 * 2;",
    "",                                   # the empty evolution
]

DOS = [
    "do (action { })",
    "do 1",                               # statically rejected
]

BASE_EVOLUTIONS = {
    2: ["def inc3 = inc2 + 1;", "def inc1 = x + 10;", "var x = true;"],
    3: ["def t = s * 2;", "var c2 = 3;"],
    4: ["def e = d * d;", "def b = a + 10;"],
}

BASE_DOS = {
    1: ["do (action { x := 2 })", "do (action { x := 1 / 0 })"],
    2: ["do (action { x := 2 })", "do (action { x := x + 1 })"],
    3: ["do (action { a := 1 })", "do (action { b := 2 })", "do (action { a := a + b })"],
    4: ["do (action { a := 5 })", "do (action { a := a * 2 })"],
}


def generate_scenarios():
    """Deterministic structured generator: every base paired with multisets
    of up to three pending submissions drawn from its pool.  The bases take
    turns, so a budget that stops early still covers every base."""
    per_base = []
    for base_idx, base in enumerate(BASES):
        pool = [("evolve", code) for code in EVOLUTIONS + BASE_EVOLUTIONS.get(base_idx, [])]
        pool += [("do", code) for code in DOS + BASE_DOS.get(base_idx, [])]
        combos = [(k,) for k in range(len(pool))]
        combos += list(itertools.combinations_with_replacement(range(len(pool)), 2))
        combos += list(itertools.combinations_with_replacement(range(len(pool)), 3))
        per_base.append([(base, tuple(pool[k] for k in combo)) for combo in combos])
    return [s for turn in itertools.zip_longest(*per_base) for s in turn if s is not None]


def explore_exhaustively(stats: ExplorationStats, base, submissions, state_cap=600):
    cfg = quiesce(base) if base else initial_config()
    for idx, (kind, code) in enumerate(submissions):
        who = f"{kind}{idx}"
        if kind == "evolve":
            cfg = submit_evolution(cfg, parse_program(code), who)
        else:
            cfg = submit_do(cfg, parse_do(code), who)
    # a config that another schedule already reached steps and audits the
    # same again, so each distinct config is expanded once
    stack, seen = [cfg], {config_key(cfg)}
    seen_states = 0
    while stack and seen_states < state_cap:
        cur = stack.pop()
        options = enabled_steps(cur)
        if cur.q_r or cur.q_do:
            if not options:
                stats.progress_failures.append((base, submissions))
                continue
        elif not options:
            stats.terminal_runs += 1
            stats.oracle_failures.extend(check_oracle(cur))
            continue
        for step in options:
            nxt, outcomes = apply_step(cur, step)
            seen_states += 1
            stats.states += 1
            stats.preservation_failures.extend(check_config(nxt))
            for o in outcomes:
                stats.glitch_failures.extend(validate_wave(nxt.env, o))
            key = config_key(nxt)
            if key not in seen:
                seen.add(key)
                stack.append(nxt)
    stats.scenarios += 1


@pytest.fixture(scope="module")
def exploration() -> ExplorationStats:
    start = time.monotonic()
    stats = ExplorationStats()
    scenarios = generate_scenarios()
    covered = Counter()
    for base, submissions in scenarios:
        explore_exhaustively(stats, base, submissions)
        covered[base] += 1
        if stats.states >= 14_000:
            break
    stats.elapsed = time.monotonic() - start
    offered = Counter(base for base, _ in scenarios)
    print(f"exploration covered {stats.scenarios}/{len(scenarios)} scenarios in {stats.states} steps:")
    for base in BASES:
        print(f"  {covered[base]}/{offered[base]} on base {base!r}")
    return stats


def test_criterion_3_progress(exploration):
    with criterion(3, "no reachable pending configuration lacks an enabled step", 300.0 - exploration.elapsed):
        assert exploration.states >= 10_000, exploration.states
        assert exploration.progress_failures == []


def test_criterion_4_preservation(exploration):
    with criterion(4, "every step preserves well-formedness and value typing", 300.0 - exploration.elapsed):
        assert exploration.states >= 10_000
        assert exploration.preservation_failures == []


# ---------------------------------------------------------------------------
# criterion 5 (+ the rest of 6)
# ---------------------------------------------------------------------------

def random_dag_program(rng: random.Random):
    """A program of up to 50 names where each definition reads at most 4."""
    count = rng.randrange(5, 51)
    lines = []
    bound: list[str] = []
    for k in range(count):
        name = f"n{k}"
        if not bound or rng.random() < 0.35:
            lines.append(f"var {name} = {rng.randrange(-50, 50)};")
        else:
            deps = rng.sample(bound, k=min(len(bound), rng.randrange(1, 5)))
            op = rng.choice([" + ", " - "])
            lines.append(f"def {name} = {op.join(deps)} + {rng.randrange(10)};")
        bound.append(name)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def glitch_runs():
    start = time.monotonic()
    rng = random.Random(7)
    glitch_failures = []
    oracle_failures = []
    runs = 0
    for _ in range(1000):
        source = random_dag_program(rng)
        program = parse_program(source)
        env = infer_program(TypeEnv(), program)
        store, _ = init_cells(initial_config().store, env, program, 1)
        var_names = sorted(store.vars)
        writes = {
            name: IntV(rng.randrange(-100, 100))
            for name in rng.sample(var_names, k=max(1, len(var_names) // 3))
        }
        store2, result = propagate(store, env, writes, 2)
        runs += 1
        # independently recompute the affected set from the environment
        edges = dep_edges(env)
        dependents: dict[str, set[str]] = {}
        for n, deps in edges.items():
            for d in deps:
                dependents.setdefault(d, set()).add(n)
        expected = set()
        frontier = list(writes)
        while frontier:
            n = frontier.pop()
            for m in dependents.get(n, ()):
                if m not in expected:
                    expected.add(m)
                    frontier.append(m)
        if set(result.recomputed) != expected:
            glitch_failures.append(f"affected set mismatch: {expected ^ set(result.recomputed)}")
        if len(set(result.recomputed)) != len(result.recomputed):
            glitch_failures.append("a definition was recomputed twice in one transaction")
        position = {n: i for i, n in enumerate(result.recomputed)}
        for n in result.recomputed:
            for dep in edges[n]:
                if dep in position and position[dep] > position[n]:
                    glitch_failures.append(f"{n} ran before its dependency {dep}")
        want = oracle_recompute(env, store2.vars)
        for name, v in want.items():
            if store2.defs[name] != v:
                oracle_failures.append(name)
    return runs, glitch_failures, oracle_failures, time.monotonic() - start


def test_criterion_5_glitch_freedom(glitch_runs):
    runs, glitch_failures, _, elapsed = glitch_runs
    with criterion(5, "1000 random dependency graphs recompute exactly once, in order", 120.0 - elapsed):
        assert runs == 1000
        assert glitch_failures == []


def test_criterion_6_oracle_equivalence(exploration, glitch_runs):
    with criterion(6, "incremental stores equal from-scratch recomputation", 60.0):
        assert exploration.terminal_runs > 0
        assert exploration.oracle_failures == []
        assert exploration.glitch_failures == []
        _, _, oracle_failures, _ = glitch_runs
        assert oracle_failures == []


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------

def test_criterion_7_confluence():
    with criterion(7, "concurrent pairs equal both serializations", 120.0):
        rng = random.Random(99)
        # --- 1000 disjoint-write action pairs ---
        mismatches = 0
        for _ in range(1000):
            left = [f"l{k}" for k in range(rng.randrange(1, 4))]
            right = [f"r{k}" for k in range(rng.randrange(1, 4))]
            shared = [f"c{k}" for k in range(rng.randrange(0, 3))]
            decls = [f"var {n} = {rng.randrange(10)};" for n in left + right + shared]
            decls.append(f"def view = {' + '.join(left + right + shared)};")
            base = quiesce(" ".join(decls))

            def one_action(own, label):
                writes = []
                for n in rng.sample(own, k=rng.randrange(1, len(own) + 1)):
                    reads = [rng.choice(own + shared)] if rng.random() < 0.7 else []
                    rhs = " + ".join(reads + [str(rng.randrange(20))])
                    writes.append(f"{n} := {rhs}")
                return parse_do("do (action { " + "; ".join(writes) + " })")

            d1, d2 = one_action(left, "u1"), one_action(right, "u2")
            cfg = submit_do(submit_do(base, d1, "u1"), d2, "u2")
            merged, outcomes = step_do_many(cfg, (cfg.q_do[0], cfg.q_do[1]))
            assert all(isinstance(o, Executed) for o in outcomes)
            for order in ((d1, d2), (d2, d1)):
                serial = base
                for d in order:
                    serial = submit_do(serial, d, "s")
                    serial, (out,) = step_do_many(serial, (serial.q_do[0],))
                    assert isinstance(out, Executed)
                if int_values(serial) != int_values(merged):
                    mismatches += 1
        assert mismatches == 0

        # --- accepted concurrent evolution pairs ---
        for trial in range(200):
            base = quiesce(LISTING)
            r1 = parse_program(f"def e{trial}a = inc2 + {rng.randrange(5)}; var w{trial} = 1;")
            r2 = parse_program(f"def e{trial}b = inc1 * {rng.randrange(5)};")
            cfg = submit_evolution(submit_evolution(base, r1, "p1"), r2, "p2")
            merged, outcome = step_evolve_many(cfg, cfg.q_r[:2])
            assert isinstance(outcome, Accepted)
            for order in ((r1, r2), (r2, r1)):
                serial = base
                for r in order:
                    serial = submit_evolution(serial, r, "s")
                    serial, out = step_evolve_many(serial, (serial.q_r[0],))
                    assert isinstance(out, Accepted)
                assert serial.env == merged.env
                assert int_values(serial) == int_values(merged)


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------

BLOCKED_SCENARIOS = [
    ("var x = 1;", ["def a = b + 1;", "def b = a + 1;"]),
    ("var x = 1;", ["def a = a + 1;"]),
    ("var x = 1;", ["def p = q + 1;", "def q = r + 1;", "def r = p + 1;"]),
    (LISTING, ["def u = missing + 1;", "var x = true;"]),
    ("var x = 1;", ["def a = b + 1;", "def b = a + 1;", "def c = c;"]),
]


def test_criterion_8_wait_die():
    with criterion(8, "blocked evolution queues die to empty with notifications", 60.0):
        for base_src, programs in BLOCKED_SCENARIOS:
            base = quiesce(base_src)
            cfg = base
            submitters = []
            for k, code in enumerate(programs):
                who = f"p{k}"
                submitters.append(who)
                cfg = submit_evolution(cfg, parse_program(code), who)
            # exhaustive over schedules, depth bounded well above need
            stack = [(cfg, 0)]
            terminals = 0
            while stack:
                cur, depth = stack.pop()
                options = enabled_steps(cur)
                if not options:
                    terminals += 1
                    assert cur.q_r == ()
                    assert cur.env == base.env
                    assert cur.store == base.store
                    continue
                assert depth < 8, "blocked scenarios must terminate within depth 8"
                for step in options:
                    nxt, outcomes = apply_step(cur, step)
                    died = [o for o in outcomes if isinstance(o, QueueDied)]
                    if died:
                        # exactly one notification per pending submitter
                        assert sorted(died[0].notified) == sorted(submitters)
                    stack.append((nxt, depth + 1))
            assert terminals > 0


# ---------------------------------------------------------------------------
# criterion 9
# ---------------------------------------------------------------------------

INIT_PROGRAM = "var a = 0; var b = 0; var c = 0; def total = a + b + c;"


class _Client:
    def __init__(self, address, role):
        self.sock = socket.create_connection(address, timeout=20)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self._send({"type": "hello", "version": 1, "role": role})
        assert json.loads(self.reader.readline())["type"] == "hello"
        self.req = 0

    def _send(self, payload):
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))

    def call(self, payload) -> dict:
        self.req += 1
        self._send(dict(payload, req=self.req))
        while True:
            msg = json.loads(self.reader.readline())
            if msg.get("req") == self.req:
                return msg

    def close(self):
        self.sock.close()


def test_criterion_9_end_to_end_protocol():
    with criterion(9, "loopback workload equals a single-client serial replay", 30.0):
        server = MeerkatServer(bind=("127.0.0.1", 0), initial=parse_program(INIT_PROGRAM))
        server.start()
        try:
            evolutions = [
                f"def view{k} = total * {k % 7} + {'a' if k % 3 == 0 else 'b' if k % 3 == 1 else 'c'};"
                for k in range(20)
            ]
            action_targets = ["a"] * 17 + ["b"] * 17 + ["c"] * 16
            results: dict[str, list] = {}

            def programmer(idx: int, codes: list[str]):
                client = _Client(server.address, "programmer")
                outs = []
                for code in codes:
                    outs.append(client.call({"type": "evolve", "code": code})["type"])
                client.close()
                results[f"prog{idx}"] = outs

            def user(idx: int, targets: list[str]):
                client = _Client(server.address, "user")
                outs = []
                for t in targets:
                    outs.append(
                        client.call({"type": "do", "expr": f"do (action {{ {t} := {t} + 1 }})"})[
                            "type"
                        ]
                    )
                client.close()
                results[f"user{idx}"] = outs

            threads = [
                threading.Thread(target=programmer, args=(0, evolutions[0:7])),
                threading.Thread(target=programmer, args=(1, evolutions[7:14])),
                threading.Thread(target=programmer, args=(2, evolutions[14:20])),
                threading.Thread(target=user, args=(0, action_targets[0:17])),
                threading.Thread(target=user, args=(1, action_targets[17:34])),
                threading.Thread(target=user, args=(2, action_targets[34:50])),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=25)
                assert not t.is_alive(), "a client stalled"
            for key, outs in results.items():
                expected = "accepted" if key.startswith("prog") else "executed"
                assert all(o == expected for o in outs), (key, outs)
            inspector = _Client(server.address, "user")
            dump = inspector.call({"type": "dump"})["value"]
            inspector.close()
        finally:
            server.stop()

        # single-client serial replay
        cfg = quiesce(INIT_PROGRAM)
        for code in evolutions:
            cfg = submit_evolution(cfg, parse_program(code), "serial")
            cfg, outs = run_until_quiescent(cfg)
            assert isinstance(outs[0], Accepted)
        for t in action_targets:
            cfg = submit_do(cfg, parse_do(f"do (action {{ {t} := {t} + 1 }})"), "serial")
            cfg, outs = run_until_quiescent(cfg)
            assert isinstance(outs[0], Executed)

        serial_vars = {n: v.v for n, v in cfg.store.vars.items()}
        serial_defs = {n: v.v for n, v in cfg.store.defs.items()}
        assert dump["vars"] == serial_vars
        assert {n: d["c"] for n, d in dump["defs"].items()} == serial_defs
        assert serial_vars == {"a": 17, "b": 17, "c": 16}
        assert serial_defs["total"] == 50
