"""Schedule exploration, the brute-force oracle, and replayable traces."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import meerkat.runtime
import meerkat.simharness as sim
import meerkat.store
from meerkat.runtime import (
    Accepted,
    RandomSchedule,
    apply_step,
    enabled_steps,
    initial_config,
    run_until_quiescent,
    step_evolve_many,
    submit_evolution,
)
from meerkat.simharness import (
    Exhaustive,
    Scenario,
    ScenarioItem,
    Seeded,
    Verdict,
    build_config,
    config_key,
    explore,
    load_scenario,
    main,
    observable,
    oracle_recompute,
    replay,
)
from meerkat.store import IntV, propagate
from meerkat.syntax import parse_program
from meerkat.typesys import TypeEnv, infer_program

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


class TestOracle:
    def listing_env(self):
        return infer_program(TypeEnv(), parse_program(LISTING))

    def test_listing_with_mutated_variable(self):
        got = oracle_recompute(self.listing_env(), {"x": IntV(2)})
        assert got == {"inc1": IntV(3), "inc2": IntV(4)}

    def test_no_definitions(self):
        env = infer_program(TypeEnv(), parse_program("var a = 1;"))
        assert oracle_recompute(env, {"a": IntV(9)}) == {}

    def test_random_dags_match_propagation(self):
        rng = random.Random(42)
        for _ in range(30):
            names = [f"n{k}" for k in range(rng.randrange(2, 12))]
            lines = []
            bound = []
            for name in names:
                if not bound or rng.random() < 0.4:
                    lines.append(f"var {name} = {rng.randrange(10)};")
                else:
                    deps = rng.sample(bound, k=min(len(bound), rng.randrange(1, 4)))
                    lines.append(f"def {name} = {' + '.join(deps)};")
                bound.append(name)
            source = "\n".join(lines)
            cfg = submit_evolution(initial_config(), parse_program(source), "gen")
            cfg, _ = run_until_quiescent(cfg)
            var_names = list(cfg.store.vars)
            if not var_names:
                continue
            target = rng.choice(var_names)
            store2, _ = propagate(cfg.store, cfg.env, {target: IntV(rng.randrange(100))}, cfg.next_txn)
            assert oracle_recompute(cfg.env, store2.vars) == store2.defs


CONFLUENCE = Scenario(
    initial="var a = 0; var b = 0; def s = a + b;",
    submissions=(
        ScenarioItem("do", "do (action { a := 1 })", "u1"),
        ScenarioItem("do", "do (action { b := 2 })", "u2"),
    ),
    independent=True,
)

BLOCKED = Scenario(
    initial="var x = 1;",
    submissions=(
        ScenarioItem("evolve", "def a = b + 1;", "p1"),
        ScenarioItem("evolve", "def b = a + 1;", "p2"),
    ),
    independent=True,
)

# two actions write the same variable with different values: they
# serialize, and the two orders disagree
ORDER_DEPENDENT = Scenario(
    initial="var x = 0;",
    submissions=(
        ScenarioItem("do", "do (action { x := 1 })", "u1"),
        ScenarioItem("do", "do (action { x := 2 })", "u2"),
    ),
    independent=True,
)

# an evolution and two actions, all independent
MIXED = Scenario(
    initial="var a = 0; var b = 0; def s = a + b;",
    submissions=(
        ScenarioItem("evolve", "def t = s * 2;", "p1"),
        ScenarioItem("do", "do (action { a := 1 })", "u1"),
        ScenarioItem("do", "do (action { b := 2 })", "u2"),
    ),
    independent=True,
)


class TestScenarios:
    def confluence(self) -> Scenario:
        return CONFLUENCE

    def test_confluent_scenario_passes_exhaustively(self):
        verdict = explore(self.confluence(), Exhaustive(depth_cap=6))
        assert verdict.ok, verdict.violations
        assert verdict.runs >= 3  # two serial orders plus the merged step
        assert verdict.schedules_complete

    def test_blocked_evolutions_always_die(self):
        scenario = BLOCKED
        verdict = explore(scenario, Exhaustive(depth_cap=8))
        assert verdict.ok, verdict.violations
        base = build_config(scenario)
        final = explore(scenario, Seeded(runs=5, seed=1))
        assert final.ok

    def test_empty_scenario_is_trivially_ok(self):
        verdict = explore(Scenario(), Exhaustive(depth_cap=4))
        assert verdict.ok
        assert verdict.runs == 1

    def test_order_dependent_workload_is_caught_and_replayable(self):
        # claiming independence for order-dependent writes must produce a
        # confluence violation with a usable trace
        scenario = ORDER_DEPENDENT
        verdict = explore(scenario, Exhaustive(depth_cap=6))
        assert not verdict.ok
        assert any("confluence" in v for v in verdict.violations)

    def test_seeded_mode_matches_exhaustive_verdict(self):
        verdict = explore(self.confluence(), Seeded(runs=10, seed=0))
        assert verdict.ok, verdict.violations
        assert verdict.runs == 10

    def test_mixed_independent_workload_converges_exhaustively(self):
        # every interleaving (including pair steps) must quiesce to the same
        # observable store
        scenario = MIXED
        verdict = explore(scenario, Exhaustive(depth_cap=8))
        assert verdict.ok, verdict.violations
        assert verdict.schedules_complete
        # e;d1;d2 / e;d2;d1 / e;pair / d1;e;d2 / d1;d2;e / d2;e;d1 / d2;d1;e / pair;e
        assert verdict.runs == 8

    def test_replay_reproduces_a_recorded_schedule(self):
        scenario = self.confluence()
        seeded = explore(scenario, Seeded(runs=1, seed=5))
        assert seeded.ok
        # record one run's picks by hand and replay them
        from meerkat.runtime import RandomSchedule, apply_step

        cfg = build_config(scenario)
        schedule = RandomSchedule(5)
        while (step := schedule(cfg)) is not None:
            cfg, _ = apply_step(cfg, step)
        verdict = replay(scenario, {"kind": "picks", "picks": schedule.picks})
        assert verdict.ok
        assert observable(cfg) == observable(build_and_run(scenario, schedule.picks))

    def test_replay_of_a_schedule_prefix_runs_only_its_steps(self):
        scenario = self.confluence()
        schedule = RandomSchedule(0)
        run_until_quiescent(build_config(scenario), schedule)
        assert len(schedule.picks) == 2  # the two actions one at a time
        for k in range(len(schedule.picks)):
            verdict = replay(scenario, {"kind": "picks", "picks": schedule.picks[:k]})
            assert verdict.ok, verdict.violations
            assert verdict.states == k
            assert verdict.runs == 0  # no oracle runs on a non-quiescent config

    def test_a_fault_in_a_step_reaches_the_replay_caller(self, monkeypatch):
        # only a pick list that runs out ends a replay early: an IndexError
        # raised inside a step is a fault, not the end of the schedule
        scenario = load_scenario(str(SAMPLES / "scenario_confluence.json"))
        trace = {"kind": "picks", "picks": [0, 0]}  # u1's action, then u2's
        assert replay(scenario, trace).runs == 1

        def faulty_step(cfg, step):
            raise IndexError("a fault inside a step")

        with monkeypatch.context() as patch:
            patch.setattr(meerkat.runtime, "apply_step", faulty_step)
            with pytest.raises(IndexError, match="a fault inside a step"):
                replay(scenario, trace)
        # a truncated pick list still replays its prefix, with no violation
        verdict = replay(scenario, {"kind": "picks", "picks": [0]})
        assert verdict.ok, verdict.violations
        assert (verdict.states, verdict.runs) == (1, 0)

    def test_replay_of_an_out_of_range_pick_is_a_violation(self):
        # the two actions offer three steps first (each alone, or the pair)
        verdict = replay(self.confluence(), {"kind": "picks", "picks": [7, 99]})
        assert not verdict.ok
        assert verdict.states == 0
        assert verdict.violations == ["replay diverged: step 1: pick 7 is out of range for 3 options"]
        # a pick that fits the first step but not the second names the second
        verdict = replay(self.confluence(), {"kind": "picks", "picks": [0, 99]})
        assert verdict.states == 1
        assert verdict.violations == ["replay diverged: step 2: pick 99 is out of range for 1 options"]


def build_and_run(scenario, picks):
    from meerkat.runtime import FixedSchedule, apply_step

    cfg = build_config(scenario)
    schedule = FixedSchedule(picks)
    while True:
        try:
            step = schedule(cfg)
        except IndexError:
            return cfg
        if step is None:
            return cfg
        cfg, _ = apply_step(cfg, step)


class TestScenarioFiles:
    def test_json_round_trip(self, tmp_path):
        scenario = Scenario(
            initial="var x = 1;",
            submissions=(ScenarioItem("do", "do (action { x := 2 })", "u"),),
            independent=True,
        )
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "initial": "var x = 1;",
                    "submissions": [{"kind": "do", "expr": "do (action { x := 2 })", "who": "u"}],
                    "independent": True,
                }
            )
        )
        assert load_scenario(str(path)) == scenario

    def test_cli_reports_ok(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "initial": "var a = 0; def d = a * 2;",
                    "submissions": [{"kind": "do", "expr": "do (action { a := 3 })", "who": "u"}],
                    "independent": True,
                }
            )
        )
        out = tmp_path / "verdict.json"
        code = main(["--scenario", str(path), "--exhaustive", "6", "--trace-out", str(out)])
        assert code == 0
        assert "runs=1 states=1 configs=2 complete=yes result=OK" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["configs"] == 2

    def test_shipped_sample_scenarios_pass(self, capsys):
        paths = sorted(SAMPLES.glob("scenario_*.json"))
        assert paths
        for path in paths:
            assert main(["--scenario", str(path), "--exhaustive", "8"]) == 0, path

    def test_cli_flags_missing_file(self, capsys):
        assert main(["--scenario", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize(
        "doc, why",
        [
            ([], "a scenario must be a JSON object"),
            ({"submissions": [1]}, "not subscriptable"),
            ({"submissions": [{"kind": "do", "expr": "do (action { x := })"}]}, "1:19: unexpected '}'"),
            ({"submissions": [{"kind": "evolve", "code": "def a = ;"}]}, "1:9: unexpected ';'"),
            # the planner's reason, not the queue death that ends a refusal
            ({"initial": "def a = b;"}, "initial program was not accepted: UnboundName: 'b' is not bound"),
            (
                {"submissions": [{"kind": "evolve", "code": "def a = 1;"}, {"kind": "do", "who": "u"}]},
                "cannot load scenario: submission 1 has no 'expr'",
            ),
            ({"submissions": [{"code": "def a = 1;"}]}, "cannot load scenario: submission 0 has no 'kind'"),
        ],
        ids=[
            "array",
            "non-object-submission",
            "unparsable-do",
            "unparsable-code",
            "refused-initial",
            "do-without-expr",
            "submission-without-kind",
        ],
    )
    def test_cli_refuses_a_malformed_scenario(self, tmp_path, capsys, doc, why):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot load scenario: ")
        assert why in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value", [("--runs", "0"), ("--runs", "-3"), ("--exhaustive", "0"), ("--exhaustive", "-1")]
    )
    def test_cli_refuses_to_check_nothing(self, capsys, flag, value):
        path = sorted(SAMPLES.glob("scenario_*.json"))[0]
        with pytest.raises(SystemExit) as raised:
            main(["--scenario", str(path), flag, value])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be at least 1, not {value}" in captured.err
        assert "result=" not in captured.out

    def test_cli_exit_code_on_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "initial": "var x = 0;",
                    "submissions": [
                        {"kind": "do", "expr": "do (action { x := 1 })", "who": "u1"},
                        {"kind": "do", "expr": "do (action { x := 2 })", "who": "u2"},
                    ],
                    "independent": True,
                }
            )
        )
        assert main(["--scenario", str(path), "--exhaustive", "6"]) == 1
        assert "VIOLATIONS" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The memoised explorer against the tree of schedules
# ---------------------------------------------------------------------------

def tree_explore(scenario: Scenario, mode: Exhaustive) -> tuple[Verdict, set]:
    """The exhaustive explorer without memoisation, kept as an oracle: a
    depth-first walk over the tree of schedules that fires and audits a
    config again every time another schedule reaches it.  Returns the
    verdict and the set of final observable stores."""
    verdict = Verdict()
    finals = []
    stack = [(build_config(scenario), ())]
    while stack:
        cfg, picks = stack.pop()
        if verdict.states >= mode.max_states:
            verdict.schedules_complete = False
            break
        options = enabled_steps(cfg)
        if (cfg.q_r or cfg.q_do) and not options:
            verdict.violations.append("progress violated: pending work but no enabled step")
            continue
        if not options:
            verdict.violations.extend(sim.check_oracle(cfg))
            finals.append(observable(cfg))
            verdict.runs += 1
            continue
        if len(picks) >= mode.depth_cap:
            verdict.schedules_complete = False
            continue
        for k in reversed(range(len(options))):
            nxt, outs = apply_step(cfg, options[k])
            verdict.states += 1
            for o in outs:
                verdict.violations.extend(sim.validate_wave(nxt.env, o))
            verdict.violations.extend(sim.check_config(nxt))
            stack.append((nxt, picks + (k,)))
    if scenario.independent and len(set(finals)) > 1:
        verdict.violations.append(
            f"confluence violated: {len(set(finals))} distinct final stores across {len(finals)} schedules"
        )
    verdict.ok = not verdict.violations
    return verdict, set(finals)


def memo_explore(scenario: Scenario, mode: Exhaustive, monkeypatch) -> tuple[Verdict, set]:
    """`explore`, with the final stores it hands to the oracle."""
    finals = set()
    check_oracle = sim.check_oracle

    def recording(cfg):
        finals.add(observable(cfg))
        return check_oracle(cfg)

    with monkeypatch.context() as m:
        m.setattr(sim, "check_oracle", recording)
        return explore(scenario, mode), finals


def flag_x_two(check_config):
    """`check_config` that also flags every config whose `x` is 2: a store
    only some schedules reach, so violations depend on the schedule."""

    def flagged(cfg):
        found = check_config(cfg)
        x = cfg.store.vars.get("x")
        if x == IntV(2):
            found.append("x is 2")
        return found

    return flagged


def assert_explorers_agree(scenario: Scenario, depth_cap: int, monkeypatch, flag: bool = False):
    mode = Exhaustive(depth_cap=depth_cap)
    with monkeypatch.context() as m:
        if flag:
            m.setattr(sim, "check_config", flag_x_two(sim.check_config))
        old, old_finals = tree_explore(scenario, mode)
        new, new_finals = memo_explore(scenario, mode, monkeypatch)
        assert new.ok == old.ok
        assert set(new.violations) == set(old.violations)
        assert new_finals == old_finals
        assert new.runs == old.runs
        assert new.schedules_complete == old.schedules_complete
        assert new.states <= old.states
        assert new.configs <= new.states + 1
        if any(not v.startswith("confluence") for v in new.violations):
            # confluence spans schedules and has no counterexample
            assert not replay(scenario, new.counterexample).ok


# a variable, a definition over it, and a second variable; the pools below
# reach all three or read a name that is not bound
INITIALS = [None, "var x = 0;", "var x = 1; def d = x + 1;", "var x = 0; var y = 0; def s = x + y;"]

EVOLUTION_POOL = [
    "def e = 1;",
    "def c = c + 1;",          # self-referential: blocked forever
    "def o = m + 1;",          # blocked until `m` is bound
    "def m = 2;",
    "var x = true;",           # retypes `x`: incompatible once a definition reads it
    "def d = x * 3;",
    "",
]

DO_POOL = [
    "do (action { x := 1 })",
    "do (action { x := 2 })",   # order-dependent with the one above
    "do (action { x := x + 1 })",
    "do (action { x := true })",  # a type error that is equal to `x := 1` as Python values
    "do (action { x := 1 / 0 })",  # a runtime fault
    "do 1",                     # not an action
    "do (action { y := x })",
    "do (action { y := 5 })",
]

submission_items = st.one_of(
    st.tuples(st.just("evolve"), st.sampled_from(EVOLUTION_POOL)),
    st.tuples(st.just("do"), st.sampled_from(DO_POOL)),
)

small_scenarios = st.builds(
    lambda initial, subs, independent: Scenario(
        initial, tuple(ScenarioItem(kind, src, who) for (kind, src), who in subs), independent
    ),
    st.sampled_from(INITIALS),
    st.lists(st.tuples(submission_items, st.sampled_from(["u1", "u2"])), min_size=1, max_size=5),
    st.sampled_from([True, True, False]),
)

# most caps are below the longest schedule, 8 is above every one
depth_caps = st.sampled_from([0, 1, 2, 3, 8, 8])


class TestMemoisedExplorer:
    def test_agrees_with_the_tree_on_the_module_scenarios(self, monkeypatch):
        for scenario in (CONFLUENCE, BLOCKED, ORDER_DEPENDENT, MIXED, Scenario()):
            for depth_cap in range(len(scenario.submissions) + 2):
                for flag in (False, True):
                    assert_explorers_agree(scenario, depth_cap, monkeypatch, flag)

    def test_agrees_with_the_tree_on_the_sample_scenarios(self, monkeypatch):
        paths = sorted(SAMPLES.glob("scenario_*.json"))
        assert paths
        for path in paths:
            scenario = load_scenario(str(path))
            for depth_cap in (1, 8):
                assert_explorers_agree(scenario, depth_cap, monkeypatch, flag=True)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(small_scenarios, depth_caps, st.booleans())
    def test_agrees_with_the_tree_on_generated_scenarios(self, monkeypatch, scenario, depth_cap, flag):
        assert_explorers_agree(scenario, depth_cap, monkeypatch, flag)

    def test_each_config_fires_its_steps_once(self):
        # the tree fires 18 steps for MIXED's 8 schedules; memoised, the
        # config after both actions (reached three ways) and each config
        # after the evolution and one action (two ways) fire their one
        # remaining step once
        verdict = explore(MIXED, Exhaustive(depth_cap=8))
        assert tree_explore(MIXED, Exhaustive(depth_cap=8))[0].states == 18
        assert (verdict.runs, verdict.states, verdict.configs) == (8, 14, 8)
        assert verdict.to_json()["configs"] == 8

    def test_counterexample_replays_the_violating_step(self, monkeypatch):
        scenario = Scenario(
            initial="var x = 0; def d = x + 1;",
            submissions=(
                ScenarioItem("do", "do (action { x := x + 1 })", "u1"),
                ScenarioItem("do", "do (action { x := x + 1 })", "u2"),
                ScenarioItem("do", "do (action { x := 5 })", "u3"),
            ),
        )
        monkeypatch.setattr(sim, "check_config", flag_x_two(sim.check_config))
        verdict = explore(scenario, Exhaustive())
        assert not verdict.ok
        assert "x is 2" in verdict.violations
        picks = verdict.counterexample["picks"]
        assert picks
        replayed = replay(scenario, {"kind": "picks", "picks": picks})
        assert "x is 2" in replayed.violations
        assert build_and_run(scenario, picks).store.vars["x"] == IntV(2)
        # the last pick is the violating step
        assert replay(scenario, {"kind": "picks", "picks": picks[:-1]}).ok

    def test_agrees_with_the_tree_on_a_broken_wave_order(self, monkeypatch):
        # every wave over two or more definitions runs reversed, so `d` is
        # recomputed before `b` and `c`, and from their stale values.  The
        # first such step lies below the node that `evolve_two` made and the
        # one-at-a-time schedule reaches under other transaction numbers; its
        # replay must print the same violations.
        def reversed_wave(env, written, wave_order=meerkat.store.wave_order):
            order = wave_order(env, written)
            return order[::-1] if len(order) >= 2 else order

        monkeypatch.setattr(meerkat.store, "wave_order", reversed_wave)
        monkeypatch.setattr(meerkat.runtime, "wave_order", reversed_wave)
        scenario = Scenario(
            initial="var x = 0;",
            submissions=(
                ScenarioItem("evolve", "def b = x + 1;", "p1"),
                ScenarioItem("evolve", "def c = x + 2;", "p2"),
                ScenarioItem("evolve", "def d = b + c;", "p3"),
                ScenarioItem("do", "do (action { x := 1 })", "u1"),
            ),
            independent=True,
        )
        mode = Exhaustive()
        old, old_finals = tree_explore(scenario, mode)
        new, new_finals = memo_explore(scenario, mode, monkeypatch)
        assert not new.ok and not old.ok
        assert set(new.violations) == set(old.violations)
        assert "'d' recomputed before its dependency 'c'" in new.violations
        assert any(v.startswith("'d' is ") for v in new.violations)
        assert new_finals == old_finals
        assert new.runs == old.runs
        assert new.states < old.states
        picks = new.counterexample["picks"]
        assert picks[:2] == [0, 0]  # `b`, then `c`: the pair's node
        replayed = replay(scenario, new.counterexample)
        assert replayed.violations == new.violations[: len(replayed.violations)]

    def test_a_step_budget_stops_the_walk(self):
        verdict = explore(MIXED, Exhaustive(depth_cap=8, max_states=3))
        assert not verdict.schedules_complete
        assert 3 <= verdict.states < explore(MIXED, Exhaustive(depth_cap=8)).states
        assert verdict.runs < 8


# ---------------------------------------------------------------------------
# The order-insensitive config key against an insertion-order key
# ---------------------------------------------------------------------------

def insertion_order_key(cfg, canon=None) -> tuple:
    """`config_key` without sorting: configs that bind the same names in
    other orders, say after two evolutions accepted in either order, get
    distinct keys and are walked and audited apart.  It takes the walk's
    `canon` as `config_key` does, and keys by plain values, each binding
    with its code, which binding equality leaves out.  Items 1 and 2 are
    `config_key`'s, the store that `observable` and confluence compare."""
    store = cfg.store
    return (
        tuple((n, b, b.expr) for n, b in cfg.env.items()),
        *config_key(cfg)[1:3],
        tuple(store.vars.items()),
        tuple(store.defs.items()),
        store.txn,
        cfg.q_r,
        cfg.q_do,
    )


def assert_keys_agree(scenario: Scenario, depth_cap: int, monkeypatch, flag: bool = False):
    mode = Exhaustive(depth_cap=depth_cap)
    with monkeypatch.context() as m:
        if flag:
            m.setattr(sim, "check_config", flag_x_two(sim.check_config))
        new, new_finals = memo_explore(scenario, mode, monkeypatch)
        m.setattr(sim, "config_key", insertion_order_key)
        old, old_finals = memo_explore(scenario, mode, monkeypatch)
    assert new.ok == old.ok
    assert set(new.violations) == set(old.violations)
    assert new_finals == old_finals
    assert new.runs == old.runs
    assert new.schedules_complete == old.schedules_complete
    assert new.states <= old.states
    assert new.configs <= old.configs


# two to three evolutions from the pool, then up to two more submissions,
# queued in any order
multi_evolution_scenarios = st.builds(
    lambda initial, subs, independent: Scenario(
        initial, tuple(ScenarioItem(kind, src, who) for (kind, src), who in subs), independent
    ),
    st.sampled_from(INITIALS),
    st.tuples(
        st.lists(
            st.tuples(st.tuples(st.just("evolve"), st.sampled_from(EVOLUTION_POOL)), st.sampled_from(["p1", "p2"])),
            min_size=2,
            max_size=3,
        ),
        st.lists(st.tuples(submission_items, st.sampled_from(["u1", "u2"])), max_size=2),
    ).flatmap(lambda parts: st.permutations(parts[0] + parts[1])),
    st.sampled_from([True, True, False]),
)


class TestOrderInsensitiveKey:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(small_scenarios, multi_evolution_scenarios), depth_caps, st.booleans())
    def test_agrees_with_the_insertion_order_key(self, monkeypatch, scenario, depth_cap, flag):
        assert_keys_agree(scenario, depth_cap, monkeypatch, flag)

    def test_evolutions_accepted_in_either_order_meet(self, monkeypatch):
        # `y` then `z`, `z` then `y` and both at once bind the same names in
        # other orders or under other transaction numbers: one config, where
        # the insertion-order key, which keeps `store.txn`, keeps three (and
        # so three more after the action), and 16 fired steps become 14
        scenario = Scenario(
            initial="var x = 1;",
            submissions=(
                ScenarioItem("evolve", "def y = x + 1;", "p1"),
                ScenarioItem("evolve", "def z = x + 2;", "p2"),
                ScenarioItem("do", "do (action { x := 2 })", "u1"),
            ),
            independent=True,
        )
        calls = {"check_config": 0, "validate_wave": 0}

        def counting(name):
            audit = getattr(sim, name)

            def counted(*args):
                calls[name] += 1
                return audit(*args)

            return counted

        outcomes_per_step = []
        apply_step = sim.apply_step

        def recording_apply_step(cfg, step):
            nxt, outs = apply_step(cfg, step)
            outcomes_per_step.append(len(outs))
            return nxt, outs

        for name in calls:
            monkeypatch.setattr(sim, name, counting(name))
        monkeypatch.setattr(sim, "apply_step", recording_apply_step)
        verdict = explore(scenario, Exhaustive())
        assert verdict.ok, verdict.violations
        assert (verdict.runs, verdict.states, verdict.configs) == (8, 14, 8)
        # every config but the start is audited once; every fired step's
        # outcomes are audited, one wave check each
        assert calls["check_config"] == verdict.configs - 1
        assert len(outcomes_per_step) == verdict.states
        assert calls["validate_wave"] == sum(outcomes_per_step)
        # the walk keys every config through `sim.config_key`: with the
        # insertion-order key in its place the two orders stay apart
        monkeypatch.setattr(sim, "config_key", insertion_order_key)
        apart = explore(scenario, Exhaustive())
        assert apart.ok, apart.violations
        assert (apart.runs, apart.states, apart.configs) == (8, 16, 12)

    def test_a_pair_of_evolutions_meets_its_sequential_schedules(self, monkeypatch):
        # `evolve_two` is one transaction and two `evolve_one`s are two, but
        # they bind the same names to the same cells: one node
        nodes = []

        class Recorded(sim._Node):
            __slots__ = ()

            def __init__(self, cfg):
                super().__init__(cfg)
                nodes.append(self)

        monkeypatch.setattr(sim, "_Node", Recorded)
        scenario = Scenario(
            initial="var x = 1;",
            submissions=(
                ScenarioItem("evolve", "def y = x + 1;", "p1"),
                ScenarioItem("evolve", "def z = x + 2;", "p2"),
            ),
        )
        verdict = explore(scenario, Exhaustive())
        assert verdict.ok, verdict.violations
        root = nodes[0]
        kinds = [step.kind for step in root.options]
        assert kinds == ["evolve_one", "evolve_one", "evolve_two"]
        y_first, z_first, both = root.children
        assert both is y_first.children[0] is z_first.children[0]
        assert both.cfg.store.txn == 2
        assert apply_step(y_first.cfg, y_first.options[0])[0].store.txn == 3
        assert (verdict.runs, verdict.states, verdict.configs) == (3, 5, 4)

    def test_the_key_carries_each_definitions_code(self, monkeypatch):
        # rebinding `d` in either order leaves equal bindings and, while x
        # is 0, equal values, but other code: the action tells them apart
        initial = "var x = 0; def d = x;"
        rebinds = tuple(ScenarioItem("evolve", f"def d = x * {k};", f"p{k}") for k in (2, 3))
        scenario = Scenario(initial, rebinds + (ScenarioItem("do", "do (action { x := 1 })", "u"),))
        start = build_config(scenario)
        ends = []
        for order in (start.q_r, start.q_r[::-1]):
            cfg = start
            for sub in order:
                cfg, outcome = step_evolve_many(cfg, (sub,))
                assert isinstance(outcome, Accepted)
            ends.append(cfg)
        three_last, two_last = ends
        assert three_last.env == two_last.env
        assert three_last.store.values() == two_last.store.values()
        assert sim.config_key(three_last) != sim.config_key(two_last)
        finished = [run_until_quiescent(cfg)[0].store.values()["d"] for cfg in ends]
        assert finished == [IntV(3), IntV(2)]
        verdict, finals = memo_explore(scenario, Exhaustive(), monkeypatch)
        assert verdict.ok, verdict.violations
        assert {v for _, defs in finals for n, v, _ in defs if n == "d"} == {IntV(2), IntV(3)}
        # without the action the two orders end apart, in stores that differ
        # only in code, so a claim that they commute fails confluence
        verdict = explore(Scenario(initial, rebinds, independent=True), Exhaustive())
        assert (verdict.runs, verdict.states, verdict.configs) == (2, 4, 5)
        assert verdict.violations == ["confluence violated: 2 distinct final stores across 2 schedules"]

    def test_equal_actions_from_one_submitter_meet(self, monkeypatch):
        # either copy of the action leads to one config, under either key
        scenario = Scenario(
            initial="var x = 0;",
            submissions=(ScenarioItem("do", "do (action { x := x + 1 })", "u"),) * 2,
        )
        for key in (sim.config_key, insertion_order_key):
            monkeypatch.setattr(sim, "config_key", key)
            verdict = explore(scenario, Exhaustive())
            assert verdict.ok, verdict.violations
            assert (verdict.runs, verdict.states, verdict.configs) == (2, 3, 3)

    def test_a_pair_reuses_the_solo_waves_of_its_picks(self, monkeypatch):
        # a node fires its `do_one` steps before its `do_two` steps, from one
        # store, so every pair reads both picks' waves from the cache
        scenario = Scenario(
            initial="var a = 1; var b = 1; var c = 1; var d = 1; var e = 1; def s = a + b; def t = s * c;",
            submissions=tuple(
                ScenarioItem("do", f"do (action {{ {v} := {k + 5} }})", f"u{k}") for k, v in enumerate("abcde")
            ),
            independent=True,
        )
        fired = dict.fromkeys(("do_one", "do_two"), 0)
        waves = 0

        def counting_apply(cfg, step):
            fired[step.kind] += 1
            return apply_step(cfg, step)

        def counting_propagate(*args):
            nonlocal waves
            waves += 1
            return propagate(*args)

        monkeypatch.setattr(sim, "apply_step", counting_apply)
        monkeypatch.setattr(meerkat.runtime, "propagate", counting_propagate)
        verdict = explore(scenario, Exhaustive())
        assert verdict.ok and verdict.schedules_complete, verdict.violations
        assert fired["do_two"] > 0 and waves == fired["do_one"]

    def test_the_benchmark_scenario_keeps_its_graph(self):
        # `perfbench`'s `explore_verdict` scenario at seed 301, written out
        scenario = Scenario(
            initial=(
                "var a0 = 2; var a1 = 4; var a2 = 4; var a3 = 4; var a4 = 7; var a5 = 7;"
                " def s = a0 + a1 + a2; def t = s * 2;"
            ),
            submissions=(
                ScenarioItem("do", "do (action { a1 := 21 })", "u1"),
                ScenarioItem("evolve", "def e_2 = t + 2;", "p2"),
                ScenarioItem("do", "do (action { a3 := 19 })", "u4"),
                ScenarioItem("evolve", "def e_1 = t + 1;", "p1"),
                ScenarioItem("do", "do (action { a5 := 48 })", "u0"),
                ScenarioItem("do", "do (action { a4 := 83 })", "u3"),
                ScenarioItem("do", "do (action { a0 := 34 })", "u2"),
            ),
            independent=True,
        )
        verdict = explore(scenario, Exhaustive())
        assert verdict.ok and verdict.schedules_complete, verdict.violations
        assert (verdict.states, verdict.configs, verdict.runs) == (800, 128, 16_320)
