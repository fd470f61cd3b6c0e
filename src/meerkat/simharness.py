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

  * `states`: steps fired, each with its waves audited (exhaustive mode
    fires each config's steps once);
  * `runs`: complete schedules, each ending in a quiescent config;
  * `configs`: distinct configs the exhaustive walk visited (0 when seeded).

Exhaustive mode walks the DAG of distinct configs rather than the tree of
schedules.  `config_key` holds everything the audits read, by name and
not in the order names were bound: bindings, values, each definition's
code and queues, but not the transaction numbering.  So two schedules
that reach equal keys continue identically, even when they accepted two
evolutions in opposite orders or in one `evolve_two`: each config is
audited once, when the first step reaches it, its steps are fired once,
each distinct final store is compared with the oracle once, and `runs`
counts the schedules as paths through the DAG.  Seeded mode and `replay`
audit every step.

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
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

from .runtime import (
    Committed,
    Config,
    FixedSchedule,
    PickOutOfRange,
    PicksRanOut,
    RandomSchedule,
    Schedule,
    Step,
    StepOutcome,
    apply_step,
    check_config,
    enabled_steps,
    initial_config,
    run_steps,
    submit_do,
    submit_evolution,
)
from .store import Store, Value, eval_expr, value_to_json
from .syntax import ParseError, parse_do, parse_program
from .typesys import TypeEnv, topo_order


def oracle_recompute(env: TypeEnv, var_values: Mapping[str, Value]) -> dict[str, Value]:
    """Ground truth for the store: evaluate every definition of `env` from
    scratch, by its code there.

    Definitions are computed in the bindings' dependency order against the
    given state-variable values, using none of the incremental machinery.
    """
    scratch = Store(var_values)
    for name in topo_order(env, [n for n, b in env.items() if not b.is_state]):
        scratch.defs[name] = eval_expr(scratch, {}, env.get(name).expr)
    return scratch.defs


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioItem:
    kind: str  # "evolve" | "do"
    source: str
    who: str


def _required(entry, index: int, key: str):
    try:
        return entry[key]
    except KeyError:
        raise ValueError(f"submission {index} has no {key!r}") from None


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
        for index, entry in enumerate(doc.get("submissions", ())):
            kind = _required(entry, index, "kind")
            if kind not in ("evolve", "do"):
                raise ValueError(f"unknown submission kind {kind!r}")
            source = _required(entry, index, "code" if kind == "evolve" else "expr")
            items.append(ScenarioItem(kind, source, str(entry.get("who", "anon"))))
        return Scenario(doc.get("initial"), tuple(items), bool(doc.get("independent", False)))


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
        return asdict(self)


# ---------------------------------------------------------------------------
# Per-step validation
# ---------------------------------------------------------------------------

def validate_wave(env: TypeEnv, outcome: StepOutcome) -> list[str]:
    """Glitch-freedom audit of one committed transaction.

    Checks that the engine's reported recomputation order names each
    definition once, after every recomputed definition its binding reads
    in `env`: the env of the config its step returned, which holds what
    an accepted evolution bound.  A message names no transaction: under a
    merged node of the exhaustive walk its number would depend on the
    path, and the counterexample's picks locate the step anyway.
    """
    if not isinstance(outcome, Committed) or outcome.txn is None:
        return []
    recomputed = outcome.recomputed
    problems = []
    if len(set(recomputed)) != len(recomputed):
        problems.append("a definition was recomputed more than once")
    seen: set[str] = set()
    affected = set(recomputed)
    for name in recomputed:
        b = env.get(name)
        for dep, _ in (b.deps or ()) if b is not None else ():
            if dep in affected and dep not in seen:
                problems.append(f"'{name}' recomputed before its dependency '{dep}'")
        seen.add(name)
    return problems


def check_oracle(cfg: Config) -> list[str]:
    """Compare every definition's stored value with the from-scratch oracle."""
    store = cfg.store
    problems = []
    for name, want in oracle_recompute(cfg.env, store.vars).items():
        got = store.defs.get(name, want)  # a missing value is check_config's domain mismatch
        if got != want:
            problems.append(
                f"'{name}' is {json.dumps(value_to_json(got))} but recomputing from scratch gives "
                f"{json.dumps(value_to_json(want))}"
            )
    return problems


def observable(cfg: Config) -> tuple:
    """The schedule-comparable part of a configuration: its `config_key`'s
    store part, every value and each definition's code, but no txn."""
    return config_key(cfg)[1:3]


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def build_config(scenario: Scenario) -> Config:
    cfg = initial_config(parse_program(scenario.initial) if scenario.initial else None)
    for item in scenario.submissions:
        if item.kind == "evolve":
            cfg = submit_evolution(cfg, parse_program(item.source), item.who)
        else:
            cfg = submit_do(cfg, parse_do(item.source), item.who)
    return cfg


def _audited_run(cfg: Config, schedule: Schedule, verdict: Verdict) -> Config:
    """Seeded mode's and `replay`'s one run loop: fire and audit the steps
    `schedule` picks from `cfg`, and return the config it stopped at.  A
    replay stops early when its picks run out, or with a violation when one
    names no enabled step; any other error reaches the caller."""
    try:
        for _, cfg, outs in run_steps(cfg, schedule):
            verdict.states += 1
            for o in outs:
                verdict.violations.extend(validate_wave(cfg.env, o))
            verdict.violations.extend(check_config(cfg))
    except PicksRanOut:
        pass  # the recorded schedule ended before quiescence
    except PickOutOfRange as err:
        verdict.violations.append(f"replay diverged: {err}")
    return cfg


def _finish_run(cfg: Config, verdict: Verdict, finals: set):
    verdict.violations.extend(check_oracle(cfg))
    finals.add(observable(cfg))


def _value(obj) -> object:
    """What `config_key` compares of an env (its bindings by name, which
    leaves the code out), a definition's code or a queued submission (the
    object itself)."""
    return tuple(sorted(obj.items())) if isinstance(obj, TypeEnv) else obj


def _classes() -> Callable[[object], int]:
    """Hash-consing for one walk: each env, definition's code or submission
    maps to a small int shared by every equal value.  An object's value is
    hashed once, when the walk first meets that object; the map holds the
    object, so its `id` is never reused while the walk runs."""
    by_id: dict[int, tuple[object, int]] = {}
    by_value: dict[object, int] = {}

    def canon(obj) -> int:
        hit = by_id.get(id(obj))
        if hit is None:
            hit = by_id[id(obj)] = (obj, by_value.setdefault(_value(obj), len(by_value)))
        return hit[1]

    return canon


def config_key(cfg: Config, canon: Callable[[object], object] = _value) -> tuple:
    """Everything the audits of `cfg` and of the steps below it read,
    hashable and blind to the order names were bound in and to the
    transaction numbering: configs with equal keys enable the same steps,
    fire them to configs with equal keys and pass or fail the same audits.
    The env's bindings and the store's values are keyed by name, since
    every reader of their order only lists the same facts in another order
    (`topo_order` breaks ties by name).  Binding equality leaves out the
    code, so each definition's value is keyed with its code from the env:
    definitions that differ only in code step differently.  `store.txn`
    takes no part: a later step reads it only to number its own outcomes,
    which no audit reads, so an `evolve_two` meets the config its two
    `evolve_one`s reach.  The env's bindings are the dependency graph; its
    derived `readers()`, well-formedness facts and wave orders, and the
    submissions' `plans`, are only caches and take no part.

    `canon` stands for the env, each definition's code and each queued
    submission in the key.  By default it is their value; the exhaustive
    walk passes a `_classes()`, so equal values still give equal keys but
    a key hashes only names, store values and small ints.  Items 1 and 2
    of the default key are the store `observable` compares."""
    env, store = cfg.env, cfg.store
    return (
        canon(env),
        tuple(sorted(store.vars.items())),
        tuple(sorted((n, v, canon(env.get(n).expr)) for n, v in store.defs.items())),
        tuple(map(canon, cfg.q_r)),
        tuple(map(canon, cfg.q_do)),
    )


class _Node:
    """One distinct config of the exhaustive walk: its enabled steps and,
    once they are fired, the node each of them leads to."""

    __slots__ = ("cfg", "options", "children")

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.options: Sequence[Step] | None = None
        self.children: tuple[_Node, ...] | None = None


_STOP = object()  # the step budget ran out


def _explore_dag(start: Config, mode: Exhaustive, verdict: Verdict, finals: set):
    """Depth-first walk over the distinct configs reachable from `start`.

    Each config is interned once by its key and audited then, by the first
    step that reaches it; its steps are fired once however many schedules
    reach it, and later visits follow the stored child nodes; below a node
    transactions are numbered as on the path that made it.  Keys go
    through one `_classes()` per walk, so the env, code and
    submissions a child shares with its parent are not hashed again.  A
    fired step's waves are audited on every edge, since a wave depends on
    the config it ran from.  The number of complete schedules below a node
    depends on the depth budget left, so it is memoised per (node, budget),
    which keeps `depth_cap` exact.  The first violating step found gives
    the counterexample: the picks that lead to it.
    """
    interned: dict[tuple, _Node] = {}
    canon = _classes()

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
                for o in outs:
                    verdict.violations.extend(validate_wave(nxt.env, o))
                key = config_key(nxt, canon)
                child = interned.get(key)
                if child is None:
                    child = interned[key] = _Node(nxt)
                    verdict.violations.extend(check_config(nxt))
                if len(verdict.violations) > before and verdict.counterexample is None:
                    verdict.counterexample = {"kind": "picks", "picks": list(picks + (k,))}
                children.append(child)
            node.children = tuple(children)
        return None

    root = interned[config_key(start, canon)] = _Node(start)
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
            cfg = _audited_run(start, schedule, verdict)
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
    """Re-run a single recorded schedule; reproduces its violations exactly.
    Picks that run out replay their prefix, checked by the oracle only if
    it quiesced; a fault in a step is raised, not taken for the end."""
    verdict = Verdict()
    cfg = _audited_run(build_config(scenario), FixedSchedule(trace["picks"]), verdict)
    if not cfg.q_r and not cfg.q_do:
        verdict.violations.extend(check_oracle(cfg))
        verdict.runs += 1
    verdict.ok = not verdict.violations
    verdict.counterexample = trace if verdict.violations else None
    return verdict


def _at_least_one(text: str) -> int:
    """An argument that counts runs or steps: checking nothing is no verdict."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meerkat-sim", description="explore stepper schedules for a scenario file"
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--exhaustive", type=_at_least_one, metavar="DEPTH", help="enumerate all schedules to DEPTH"
    )
    group.add_argument("--runs", type=_at_least_one, default=100, help="number of seeded random runs")
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
