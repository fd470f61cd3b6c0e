"""Deterministic concurrency exploration for the runtime stepper.

A *scenario* is an initial program plus a batch of queued submissions.
`explore` drives the stepper through many schedules — seeded random
sampling or exhaustive enumeration of every choice point up to a depth
cap — and checks, at every step of every run:

  * progress: a configuration with pending work always has an enabled step;
  * preservation: the environment stays well-formed, the store covers it,
    and every stored value matches its declared type;
  * glitch freedom: each transaction recomputes every affected definition
    exactly once, after the affected definitions it reads;
  * oracle agreement at quiescence: the incrementally maintained store
    equals a from-scratch recomputation of every definition;
  * confluence for independent workloads: all schedules reach the same
    observable store.

Violations come back in a `Verdict` along with a replayable trace.  Its
counts are:

  * `states`: steps fired, each audited (exhaustive mode fires each
    config's steps once);
  * `runs`: complete schedules, each ending in a quiescent config;
  * `configs`: distinct configs the exhaustive walk visited (0 when seeded).

Exhaustive mode walks the DAG of distinct configs rather than the tree of
schedules.  `config_key` holds everything a later step reads, so two
schedules that reach equal keys continue identically: each config's steps
are fired and audited once, each distinct final store is compared with
the oracle once, and `runs` counts the schedules as paths through the DAG.

Scenario files are JSON::

    {
      "initial": "var x = 1; def inc1 = x + 1;",     // optional
      "submissions": [
        {"kind": "evolve", "code": "def inc2 = inc1 + 1;", "who": "p1"},
        {"kind": "do", "expr": "do (action { x := 2 })", "who": "u1"}
      ],
      "independent": true        // schedules must agree on the final store
    }

Command line::

    meerkat-sim --scenario s.json --exhaustive 8
    meerkat-sim --scenario s.json --runs 200 --seed 7 --trace-out t.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Mapping

from .runtime import (
    Accepted,
    Config,
    Executed,
    FixedSchedule,
    PickOutOfRange,
    RandomSchedule,
    StepOutcome,
    apply_step,
    check_config,
    enabled_steps,
    initial_config,
    run_steps,
    run_until_quiescent,
    submit_do,
    submit_evolution,
)
from .store import DefCell, Store, Value, VarCell, eval_expr, value_to_json
from .syntax import Expr, ParseError, parse_do, parse_program
from .typesys import TypeEnv, env_merge, topo_order


def oracle_recompute(
    env: TypeEnv, def_exprs: Mapping[str, Expr], var_values: Mapping[str, Value]
) -> dict[str, Value]:
    """Ground truth for the store: evaluate every definition from scratch.

    Definitions are computed in the bindings' dependency order against the
    given state-variable values, using none of the incremental machinery.
    """
    scratch = Store({n: VarCell(v) for n, v in var_values.items()})
    for name in topo_order(env, def_exprs):
        scratch.defs[name] = DefCell(eval_expr(scratch, {}, def_exprs[name]), def_exprs[name])
    return {n: c.c for n, c in scratch.defs.items()}


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioItem:
    kind: str  # "evolve" | "do"
    source: str
    who: str

    def to_json(self) -> dict:
        key = "code" if self.kind == "evolve" else "expr"
        return {"kind": self.kind, key: self.source, "who": self.who}


@dataclass(frozen=True)
class Scenario:
    initial: str | None = None
    submissions: tuple[ScenarioItem, ...] = ()
    independent: bool = False

    @staticmethod
    def from_json(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ValueError("a scenario must be a JSON object")
        items = []
        for entry in doc.get("submissions", ()):
            kind = entry["kind"]
            if kind not in ("evolve", "do"):
                raise ValueError(f"unknown submission kind {kind!r}")
            source = entry["code"] if kind == "evolve" else entry["expr"]
            items.append(ScenarioItem(kind, source, str(entry.get("who", "anon"))))
        return Scenario(doc.get("initial"), tuple(items), bool(doc.get("independent", False)))

    def to_json(self) -> dict:
        return {
            "initial": self.initial,
            "submissions": [s.to_json() for s in self.submissions],
            "independent": self.independent,
        }


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_json(json.load(fh))


@dataclass(frozen=True)
class Seeded:
    runs: int = 100
    seed: int = 0


@dataclass(frozen=True)
class Exhaustive:
    depth_cap: int = 8
    max_states: int = 250_000


@dataclass
class Verdict:
    ok: bool = True
    violations: list[str] = field(default_factory=list)
    runs: int = 0
    states: int = 0
    configs: int = 0
    schedules_complete: bool = True
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": self.violations,
            "runs": self.runs,
            "states": self.states,
            "configs": self.configs,
            "schedules_complete": self.schedules_complete,
            "counterexample": self.counterexample,
        }


# ---------------------------------------------------------------------------
# Per-step validation
# ---------------------------------------------------------------------------

def validate_wave(cfg_before: Config, outcome: StepOutcome) -> list[str]:
    """Glitch-freedom audit of one committed transaction.

    Checks that the engine's reported recomputation order names each
    definition once, after every recomputed definition its binding reads
    in the env the wave ran under.
    """
    if not isinstance(outcome, (Accepted, Executed)) or outcome.txn is None:
        return []
    recomputed = outcome.recomputed
    problems = []
    if len(set(recomputed)) != len(recomputed):
        problems.append(f"txn {outcome.txn}: a definition was recomputed more than once")
    seen: set[str] = set()
    affected = set(recomputed)
    env = env_merge(cfg_before.env, outcome.delta) if isinstance(outcome, Accepted) else cfg_before.env
    for name in recomputed:
        b = env.get(name)
        for dep, _ in (b.deps or ()) if b is not None else ():
            if dep in affected and dep not in seen:
                problems.append(
                    f"txn {outcome.txn}: '{name}' recomputed before its dependency '{dep}'"
                )
        seen.add(name)
    return problems


def check_oracle(cfg: Config) -> list[str]:
    """Compare every definition's stored value with the from-scratch oracle."""
    store = cfg.store
    expected = oracle_recompute(cfg.env, store.def_exprs(), {n: c.c for n, c in store.vars.items()})
    problems = []
    for name, want in expected.items():
        got = store.defs[name].c
        if got != want:
            problems.append(
                f"'{name}' is {json.dumps(value_to_json(got))} but recomputing from scratch gives "
                f"{json.dumps(value_to_json(want))}"
            )
    return problems


def observable(cfg: Config) -> tuple:
    """The schedule-comparable part of a configuration: every cell's value
    (and each definition's expression), but no transaction bookkeeping."""
    vars = tuple(sorted((n, c.c) for n, c in cfg.store.vars.items()))
    defs = tuple(sorted((n, c.c, c.e) for n, c in cfg.store.defs.items()))
    return vars, defs


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def build_config(scenario: Scenario) -> Config:
    cfg = initial_config()
    if scenario.initial:
        cfg = submit_evolution(cfg, parse_program(scenario.initial), "__init__")
        cfg, outcomes = run_until_quiescent(cfg)
        if not outcomes or not isinstance(outcomes[0], Accepted):
            raise ValueError(f"initial program was not accepted: {outcomes}")
    for item in scenario.submissions:
        if item.kind == "evolve":
            cfg = submit_evolution(cfg, parse_program(item.source), item.who)
        else:
            cfg = submit_do(cfg, parse_do(item.source), item.who)
    return cfg


def _audit_step(cfg_before: Config, cfg_after: Config, outs, verdict: Verdict):
    for o in outs:
        verdict.violations.extend(validate_wave(cfg_before, o))
    verdict.violations.extend(check_config(cfg_after))


def _finish_run(cfg: Config, verdict: Verdict, finals: set):
    verdict.violations.extend(check_oracle(cfg))
    finals.add(observable(cfg))


def config_key(cfg: Config) -> tuple:
    """Everything a later step reads from `cfg`, hashable and in insertion
    order: configs with equal keys enable the same steps, fire them to
    equal configs and pass or fail the same audits.  The env's bindings
    are the dependency graph; its derived `readers()` and well-formed
    mark, and the submissions' `plans`, are only caches and take no part."""
    store = cfg.store
    return (
        cfg.env.items(),
        tuple(store.vars.items()),
        tuple(store.defs.items()),
        store.txn,
        cfg.q_r,
        cfg.q_do,
    )


class _Node:
    """One distinct config of the exhaustive walk: its enabled steps and,
    once they are fired, the node each of them leads to."""

    __slots__ = ("cfg", "options", "children")

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.options: tuple | None = None
        self.children: tuple[_Node, ...] | None = None


_STOP = object()  # the step budget ran out


def _explore_dag(start: Config, mode: Exhaustive, verdict: Verdict, finals: set):
    """Depth-first walk over the distinct configs reachable from `start`.

    Each config is interned once by its key, so its steps are fired and
    audited once however many schedules reach it; later visits follow the
    stored child nodes.  The number of complete schedules below a node
    depends on the depth budget left, so it is memoised per (node, budget),
    which keeps `depth_cap` exact.  The first violating step found gives
    the counterexample: the picks that lead to it.
    """
    interned: dict[tuple, _Node] = {}

    def intern(cfg: Config) -> _Node:
        return interned.setdefault(config_key(cfg), _Node(cfg))

    runs_below: dict[tuple[_Node, int], int] = {}

    def settle(node: _Node, picks: tuple[int, ...]):
        """The schedules below `node` if known without descending; else fire
        its steps (the first time) and return None, or _STOP past the budget."""
        budget = mode.depth_cap - len(picks)
        known = runs_below.get((node, budget))
        if known is not None:
            return known
        cfg = node.cfg
        if node.options is None:
            node.options = enabled_steps(cfg)
            if not node.options:
                if cfg.q_r or cfg.q_do:
                    verdict.violations.append("progress violated: pending work but no enabled step")
                else:
                    _finish_run(cfg, verdict, finals)
                if verdict.violations and verdict.counterexample is None:
                    verdict.counterexample = {"kind": "picks", "picks": list(picks)}
        if not node.options:
            return 0 if cfg.q_r or cfg.q_do else 1
        if budget <= 0:
            verdict.schedules_complete = False
            return 0
        if node.children is None:
            if verdict.states >= mode.max_states:
                return _STOP
            children = []
            for k, step in enumerate(node.options):
                nxt, outs = apply_step(cfg, step)
                verdict.states += 1
                before = len(verdict.violations)
                _audit_step(cfg, nxt, outs, verdict)
                if len(verdict.violations) > before and verdict.counterexample is None:
                    verdict.counterexample = {"kind": "picks", "picks": list(picks + (k,))}
                children.append(intern(nxt))
            node.children = tuple(children)
        return None

    root = intern(start)
    # the descent: [node, picks reaching it, next child, schedules counted below it]
    frames: list[list] = []
    total = settle(root, ())
    stopped = total is _STOP
    if total is None:
        frames.append([root, (), 0, 0])
    while frames:
        frame = frames[-1]
        node, picks, k, below = frame
        if k == len(node.children):
            frames.pop()
            runs_below[(node, mode.depth_cap - len(picks))] = below
            if frames:
                frames[-1][3] += below
            else:
                total = below
            continue
        frame[2] = k + 1
        child, child_picks = node.children[k], picks + (k,)
        got = settle(child, child_picks)
        if got is None:
            frames.append([child, child_picks, 0, 0])
        elif got is _STOP:
            stopped = True
            break
        else:
            frame[3] += got
    if stopped:
        # the schedules completed so far
        verdict.schedules_complete = False
        total = sum(frame[3] for frame in frames)
    verdict.runs = total
    verdict.configs = len(interned)


def explore(scenario: Scenario, mode: Seeded | Exhaustive = Seeded()) -> Verdict:
    """Drive the scenario through many schedules and audit every step."""
    verdict = Verdict()
    finals: set[tuple] = set()
    start = build_config(scenario)
    if isinstance(mode, Seeded):
        for k in range(mode.runs):
            schedule = RandomSchedule(mode.seed + k)
            cfg = start
            for before, _, cfg, outs in run_steps(start, schedule):
                verdict.states += 1
                _audit_step(before, cfg, outs, verdict)
            if cfg.q_r or cfg.q_do:
                verdict.violations.append("progress violated: pending work but no enabled step")
            _finish_run(cfg, verdict, finals)
            verdict.runs += 1
            if verdict.violations and verdict.counterexample is None:
                verdict.counterexample = {"kind": "seeded", "seed": mode.seed + k, "picks": schedule.picks}
    else:
        _explore_dag(start, mode, verdict, finals)
    if scenario.independent and len(finals) > 1:
        verdict.violations.append(
            f"confluence violated: {len(finals)} distinct final stores across {verdict.runs} schedules"
        )
    verdict.ok = not verdict.violations
    return verdict


def replay(scenario: Scenario, trace: dict) -> Verdict:
    """Re-run a single recorded schedule; reproduces its violations exactly."""
    verdict = Verdict()
    cfg = build_config(scenario)
    try:
        for before, _, cfg, outs in run_steps(cfg, FixedSchedule(trace["picks"])):
            verdict.states += 1
            _audit_step(before, cfg, outs, verdict)
    except IndexError:
        pass  # the recorded schedule ended before quiescence
    except PickOutOfRange as err:
        verdict.violations.append(f"replay diverged: {err}")
    if not cfg.q_r and not cfg.q_do:
        verdict.violations.extend(check_oracle(cfg))
        verdict.runs += 1
    verdict.ok = not verdict.violations
    verdict.counterexample = trace if verdict.violations else None
    return verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meerkat-sim", description="explore stepper schedules for a scenario file"
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", type=int, metavar="DEPTH", help="enumerate all schedules to DEPTH")
    group.add_argument("--runs", type=int, default=100, help="number of seeded random runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-out", help="write the verdict (with any counterexample trace) as JSON")
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        build_config(scenario)  # an unparsable or refused program fails here, not inside explore
    except (OSError, ValueError, KeyError, TypeError, ParseError) as err:
        print(f"error: cannot load scenario: {err}", file=sys.stderr)
        return 1
    mode = Exhaustive(args.exhaustive) if args.exhaustive is not None else Seeded(args.runs, args.seed)
    verdict = explore(scenario, mode)
    print(
        f"runs={verdict.runs} states={verdict.states} configs={verdict.configs} "
        f"complete={'yes' if verdict.schedules_complete else 'no'} "
        f"result={'OK' if verdict.ok else 'VIOLATIONS'}"
    )
    for v in verdict.violations[:20]:
        print(f"  - {v}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(verdict.to_json(), fh, indent=2)
    return 0 if verdict.ok else 1


if __name__ == "__main__":
    sys.exit(main())
