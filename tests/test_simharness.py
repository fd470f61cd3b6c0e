"""Schedule exploration, the brute-force oracle, and replayable traces."""

from __future__ import annotations

import json
import random
from pathlib import Path

from meerkat.runtime import RandomSchedule, initial_config, run_until_quiescent, submit_evolution
from meerkat.simharness import (
    Exhaustive,
    Scenario,
    ScenarioItem,
    Seeded,
    build_config,
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

    def exprs(self):
        p = parse_program(LISTING)
        return {d.name: d.init for d in p.decls if d.kind.value == "def"}

    def test_listing_with_mutated_variable(self):
        got = oracle_recompute(self.listing_env(), self.exprs(), {"x": IntV(2)})
        assert got == {"inc1": IntV(3), "inc2": IntV(4)}

    def test_no_definitions(self):
        env = infer_program(TypeEnv(), parse_program("var a = 1;"))
        assert oracle_recompute(env, {}, {"a": IntV(9)}) == {}

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
            store2, _ = propagate(cfg.store, {target: IntV(rng.randrange(100))}, cfg.next_txn)
            want = oracle_recompute(
                cfg.env, store2.def_exprs(), {n: c.c for n, c in store2.vars.items()}
            )
            got = {n: c.c for n, c in store2.defs.items()}
            assert got == want


class TestScenarios:
    def confluence(self) -> Scenario:
        return Scenario(
            initial="var a = 0; var b = 0; def s = a + b;",
            submissions=(
                ScenarioItem("do", "do (action { a := 1 })", "u1"),
                ScenarioItem("do", "do (action { b := 2 })", "u2"),
            ),
            independent=True,
        )

    def test_confluent_scenario_passes_exhaustively(self):
        verdict = explore(self.confluence(), Exhaustive(depth_cap=6))
        assert verdict.ok, verdict.violations
        assert verdict.runs >= 3  # two serial orders plus the merged step
        assert verdict.schedules_complete

    def test_blocked_evolutions_always_die(self):
        scenario = Scenario(
            initial="var x = 1;",
            submissions=(
                ScenarioItem("evolve", "def a = b + 1;", "p1"),
                ScenarioItem("evolve", "def b = a + 1;", "p2"),
            ),
            independent=True,
        )
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
        # two actions write the same variable with different values: they
        # serialize, and the two orders disagree, so claiming independence
        # must produce a confluence violation with a usable trace
        scenario = Scenario(
            initial="var x = 0;",
            submissions=(
                ScenarioItem("do", "do (action { x := 1 })", "u1"),
                ScenarioItem("do", "do (action { x := 2 })", "u2"),
            ),
            independent=True,
        )
        verdict = explore(scenario, Exhaustive(depth_cap=6))
        assert not verdict.ok
        assert any("confluence" in v for v in verdict.violations)

    def test_seeded_mode_matches_exhaustive_verdict(self):
        verdict = explore(self.confluence(), Seeded(runs=10, seed=0))
        assert verdict.ok, verdict.violations
        assert verdict.runs == 10

    def test_mixed_independent_workload_converges_exhaustively(self):
        # an evolution and two actions, all independent: every interleaving
        # (including pair steps) must quiesce to the same observable store
        scenario = Scenario(
            initial="var a = 0; var b = 0; def s = a + b;",
            submissions=(
                ScenarioItem("evolve", "def t = s * 2;", "p1"),
                ScenarioItem("do", "do (action { a := 1 })", "u1"),
                ScenarioItem("do", "do (action { b := 2 })", "u2"),
            ),
            independent=True,
        )
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
        from meerkat.runtime import RandomSchedule, enabled_steps, apply_step

        cfg = build_config(scenario)
        schedule = RandomSchedule(5)
        while True:
            options = enabled_steps(cfg)
            if not options:
                break
            cfg, _ = apply_step(cfg, schedule.choose(cfg, options))
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
    from meerkat.runtime import FixedSchedule, enabled_steps, apply_step

    cfg = build_config(scenario)
    schedule = FixedSchedule(picks)
    while True:
        options = enabled_steps(cfg)
        if not options:
            return cfg
        try:
            step = schedule.choose(cfg, options)
        except IndexError:
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
        path.write_text(json.dumps(scenario.to_json()))
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
        assert "result=OK" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["ok"] is True

    def test_shipped_sample_scenarios_pass(self, capsys):
        paths = sorted(SAMPLES.glob("scenario_*.json"))
        assert paths
        for path in paths:
            assert main(["--scenario", str(path), "--exhaustive", "8"]) == 0, path

    def test_cli_flags_missing_file(self, capsys):
        assert main(["--scenario", "/nonexistent.json"]) == 1

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
