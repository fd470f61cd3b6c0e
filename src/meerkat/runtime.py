"""The configuration stepper.

A `Config` bundles the typing environment, the store, and the two pending
queues: code evolutions submitted by programmers and `do` statements
submitted by users.  Step functions consume queue entries and return a new
config plus an outcome describing what happened; nothing here blocks, so a
scheduler (the network server, the REPL, or the exploration harness) owns
all sequencing decisions.  Nothing here shares mutable state either, with
one exception: each `Submission` caches its static plans (a `do`'s lock
plan, an evolution's delta alone or with partners).  They are pure
functions of the environment and the item, kept against the one `TypeEnv`
object they were computed from, so only an accepted evolution, which
builds a new environment, makes the next lookup plan afresh.

Evolution approval follows a lock discipline: two evolutions may commit in
one step only when they rebind disjoint names and neither reads a name the
other rebinds (a write lock excludes all other readers).  Two actions may
run concurrently only when their statically planned write sets are
disjoint and neither reads a variable the other writes.  Both queues step
through one `_many` function each, `step_evolve_many` and `step_do_many`,
which fire one pick or several together.  When no pending evolution can be
approved alone or in a pair, the evolution queue dies to empty and every
waiting submitter is notified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Protocol, Sequence

from .store import (
    ActionV,
    Change,
    EvalError,
    Store,
    ClosureV,
    BoolV,
    IntV,
    StringV,
    UnitV,
    Value,
    change_to_json,
    empty_store,
    eval_expr,
    init_cells,
    merge_defs,
    propagate,
)
from .syntax import DoStmt, Program
from .typesys import (
    Action,
    Base,
    CompatReport,
    DoPlan,
    Func,
    TypeCheckError,
    TypeEnv,
    check_do,
    compatible,
    env_merge,
    infer_program,
    topo_order,
    well_formed,
)


@dataclass(frozen=True)
class Submission:
    """One queued item together with who submitted it.

    `plans` caches what `_planned` computes for this item under the one
    environment held at `plans["env"]`: the entry `()` holds the `do`'s
    lock plan or the lone evolution's delta, and an entry keyed by later
    partners' ids holds the delta they form together.  It takes no part in
    equality or hashing, and it dies with the submission when that leaves
    the queue.
    """

    item: Program | DoStmt
    who: object = "anon"
    plans: dict = field(default_factory=dict, compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class Config:
    """The runtime configuration: environment, store, and pending queues."""

    env: TypeEnv = field(default_factory=TypeEnv)
    store: Store = field(default_factory=empty_store)
    q_r: tuple[Submission, ...] = ()
    q_do: tuple[Submission, ...] = ()

    @property
    def next_txn(self) -> int:
        """The id the next committed transaction gets."""
        return self.store.txn + 1


def _planned(env: TypeEnv, subs: Sequence[Submission], plan):
    """`plan()` for the submissions `subs` under `env`, computed once.

    The result is cached on the first submission, keyed by the partners
    that follow it and valid while `env` is the very object it was planned
    against: a `TypeEnv` is immutable, and only an accepted evolution makes
    a new one, so the first lookup under another env drops every entry.
    Partners are held in their entry and matched with `is`, so a reused
    `id` never matches.  A cached error keeps no traceback, and so no
    frames or stores.
    """
    first, partners = subs[0], tuple(subs[1:])
    cache = first.plans
    if cache.get("env") is not env:
        cache.clear()
        cache["env"] = env
    key = tuple(map(id, partners))
    hit = cache.get(key)
    if hit is not None and all(a is b for a, b in zip(hit[0], partners)):
        return hit[1]
    result = plan()
    if isinstance(result, Exception):
        result = result.with_traceback(None)
    cache[key] = (partners, result)
    return result


def _remove(queue: tuple[Submission, ...], subs: Sequence[Submission]) -> tuple[Submission, ...]:
    out = list(queue)
    for s in subs:
        out.remove(s)  # first occurrence; queues are multisets
    return tuple(out)


def initial_config() -> Config:
    return Config()


# ---------------------------------------------------------------------------
# Step outcomes
# ---------------------------------------------------------------------------

class StepOutcome:
    pass


@dataclass(frozen=True)
class Accepted(StepOutcome):
    """An evolution (or a pair of them) merged into the environment."""

    delta: TypeEnv
    changes: tuple[Change, ...]
    txn: int | None
    who: tuple = ()
    recomputed: tuple[str, ...] = ()


@dataclass(frozen=True)
class Rejected(StepOutcome):
    """A failed evolution.  `final` means the entry left the queue and the
    submitter must be notified; a non-final rejection reports why a pair
    cannot be approved concurrently while both entries stay queued."""

    report: object  # CompatReport | TypeCheckError | EvalError
    notified: tuple
    final: bool = True


@dataclass(frozen=True)
class Executed(StepOutcome):
    """An action (or merged pair) committed."""

    changes: tuple[Change, ...]
    txn: int | None
    who: tuple = ()
    recomputed: tuple[str, ...] = ()


@dataclass(frozen=True)
class ActionFailed(StepOutcome):
    error: object  # TypeCheckError | EvalError
    notified: tuple


@dataclass(frozen=True)
class QueueDied(StepOutcome):
    """The evolution queue died to empty; every waiting submitter is told."""

    notified: tuple


def outcome_to_json(o: StepOutcome) -> dict:
    if isinstance(o, Accepted):
        return {"outcome": "accepted", "txn": o.txn, "changes": [change_to_json(c) for c in o.changes]}
    if isinstance(o, Rejected):
        return {"outcome": "rejected", "final": o.final, "detail": o.report.to_json()}
    if isinstance(o, Executed):
        return {"outcome": "executed", "txn": o.txn, "changes": [change_to_json(c) for c in o.changes]}
    if isinstance(o, ActionFailed):
        return {"outcome": "failed", "detail": o.error.to_json()}
    if isinstance(o, QueueDied):
        return {"outcome": "queue_died", "count": len(o.notified)}
    raise TypeError(o)


# ---------------------------------------------------------------------------
# Queue submission
# ---------------------------------------------------------------------------

def submit_evolution(cfg: Config, r: Program, who: object = "anon") -> Config:
    """Enqueue a declaration sequence; nothing else changes."""
    return replace(cfg, q_r=cfg.q_r + (Submission(r, who),))


def submit_do(cfg: Config, d: DoStmt, who: object = "anon") -> Config:
    """Enqueue a user action; nothing else changes."""
    return replace(cfg, q_do=cfg.q_do + (Submission(d, who),))


# ---------------------------------------------------------------------------
# Evolution steps
# ---------------------------------------------------------------------------

def _evolution_delta(
    env: TypeEnv, programs: Sequence[Program]
) -> tuple[TypeEnv, TypeEnv] | TypeCheckError | CompatReport:
    """Plan evolutions that commit together under the lock discipline.

    Returns their combined delta with the env that `compatible` merged and
    accepted, which is the env to commit, or the report that refuses them: a
    write conflict when two programs rebind the same name, the type
    error, or the compatibility report of the combined delta.  Each
    program is typed with every other program's rebound names hidden (a
    write lock admits only its owner, for reading too); a single program
    is typed against `env` itself.
    """
    write_sets = [frozenset(d.name for d in r.decls) for r in programs]
    written: set[str] = set()
    for names in write_sets:
        if written & names:
            overlap = sorted(written & names)
            return TypeCheckError("WriteConflict", f"submissions rebind the same names {overlap}")
        written |= names
    hidden = [written - names for names in write_sets]
    try:
        deltas = [infer_program(env.without(h) if h else env, r) for h, r in zip(hidden, programs)]
    except TypeCheckError as err:
        return err
    combined = deltas[0]
    for delta in deltas[1:]:
        combined = env_merge(combined, delta)
    report = compatible(env, combined)
    return (combined, report.merged) if report.ok else report


def _evolution_plan(
    env: TypeEnv, subs: Sequence[Submission]
) -> tuple[TypeEnv, TypeEnv] | TypeCheckError | CompatReport:
    """`_evolution_delta` of the queued evolutions `subs`, once per env."""
    return _planned(env, subs, lambda: _evolution_delta(env, [s.item for s in subs]))


def step_evolve_many(cfg: Config, picks: Sequence[Submission]) -> tuple[Config, StepOutcome]:
    """Approve one or several evolutions in one step.

    The scheduler fires one ("evolve_one") or two ("evolve_two"), but the
    premises generalize: pairwise-disjoint rebind sets, each submission
    typed with every other submission's rebound names hidden, and the
    combined delta compatible with the environment.  On success the new
    bindings overwrite-merge into the environment and the store is updated
    under a single transaction; on any failure the store stays untouched.
    A failed premise finally rejects a single pick, which leaves the queue;
    with several picks every entry stays queued and the rejection is
    non-final.  A runtime fault finally rejects every pick.
    """
    remaining = cfg.q_r
    for p in picks:
        assert p in remaining, "picks must be distinct queued evolutions"
        remaining = _remove(remaining, (p,))
    programs = [p.item for p in picks]
    assert all(isinstance(r, Program) for r in programs)
    whos = tuple(p.who for p in picks)
    planned = _evolution_plan(cfg.env, picks)
    if not isinstance(planned, tuple):
        if len(picks) == 1:
            return replace(cfg, q_r=remaining), Rejected(planned, whos)
        return cfg, Rejected(planned, whos, final=False)
    delta, new_env = planned
    try:
        union_prog = Program(tuple(d for r in programs for d in r.decls))
        new_store, prop = init_cells(cfg.store, new_env, union_prog, cfg.next_txn)
    except EvalError as err:
        return replace(cfg, q_r=remaining), Rejected(err, whos)
    new_cfg = replace(cfg, env=new_env, store=new_store, q_r=remaining)
    return new_cfg, Accepted(delta, prop.changes, prop.txn, whos, prop.recomputed)


def step_queue_die(cfg: Config) -> tuple[Config, StepOutcome]:
    """Empty the evolution queue, notifying every pending submitter.

    The environment, store, and action queue are untouched.
    """
    if not cfg.q_r:
        raise ValueError("queue death needs a nonempty evolution queue")
    notified = tuple(s.who for s in cfg.q_r)
    return replace(cfg, q_r=()), QueueDied(notified)


# ---------------------------------------------------------------------------
# Action steps
# ---------------------------------------------------------------------------

def _run_action(store: Store, d: DoStmt) -> dict[str, Value]:
    """Evaluate the action expression and its writes against a snapshot.

    Each right-hand side sees the snapshot plus the earlier writes of the
    same action; definitions are read at their committed values.
    """
    av = eval_expr(store, {}, d.expr)
    assert isinstance(av, ActionV), "typechecked do must evaluate to an action"
    pending: dict[str, Value] = {}
    ctx = dict(av.env)
    for w in av.body.writes:
        pending[w.target] = eval_expr(store, ctx, w.rhs, var_overlay=pending)
    return pending


def _do_plan(env: TypeEnv, sub: Submission) -> DoPlan | TypeCheckError:
    """The lock plan of the queued `do` in `sub` under `env`, or the type
    error that refuses it.  It is typed once per env: the scheduler's pair
    checks and the step that fires it all read the same plan."""

    def plan() -> DoPlan | TypeCheckError:
        try:
            return check_do(env, sub.item)
        except TypeCheckError as err:
            return err

    return _planned(env, (sub,), plan)


def _locks_compatible(p1: DoPlan | TypeCheckError, p2: DoPlan | TypeCheckError) -> bool:
    """The lock rule for two actions, given their `_do_plan`s: both type,
    their write sets are disjoint and neither reads a variable the other
    writes.  Every check of a pair of actions comes here."""
    return (
        isinstance(p1, DoPlan)
        and isinstance(p2, DoPlan)
        and p1.writes.isdisjoint(p2.writes)
        and p1.read_vars.isdisjoint(p2.writes)
        and p2.read_vars.isdisjoint(p1.writes)
    )


def do_pair_viable(cfg: Config, s1: Submission, s2: Submission) -> bool:
    """Lock check for running two queued actions concurrently: the two
    `_do_plan` lookups under `cfg.env`, then `_locks_compatible`'s set
    logic.  A scheduling step does not call this per pair: `enabled_steps`
    reads each queued plan once and passes the plans to `_locks_compatible`."""
    return _locks_compatible(_do_plan(cfg.env, s1), _do_plan(cfg.env, s2))


def step_do_many(
    cfg: Config, picks: Sequence[Submission]
) -> tuple[Config, tuple[StepOutcome, ...]]:
    """Execute one or several lock-compatible actions in one step.

    The scheduler fires one ("do_one") or two ("do_two").  Picks that are
    not pairwise `do_pair_viable` get one non-final `LockConflict`
    rejection, and every pick stays queued.  Otherwise every pick leaves
    the queue.  Pick k is transaction `next_txn + k`: it is typed by
    `_do_plan`, evaluated against the pre-step store and propagated alone
    from that store, so a type error or runtime fault fails that pick
    alone and aborts all of its writes.  The survivors' disjoint variable
    writes and their definition updates then merge in pick order through
    `merge_defs`; a survivor whose writes fault a definition only in
    combination with the earlier survivors fails, and the earlier ones
    stand.  One `Executed` covers every survivor: it sits at the first
    survivor's place among the outcomes and carries the last survivor's
    transaction.
    """
    remaining = cfg.q_do
    for p in picks:
        assert p in remaining and isinstance(p.item, DoStmt), "picks must be distinct queued actions"
        remaining = _remove(remaining, (p,))
    if not all(do_pair_viable(cfg, p, q) for k, p in enumerate(picks) for q in picks[k + 1 :]):
        conflict = TypeCheckError("LockConflict", "actions overlap on reads or writes")
        return cfg, (Rejected(conflict, tuple(p.who for p in picks), final=False),)
    base = store = cfg.store
    outcomes: list = []
    runs = []  # (who, writes, wave) of each survivor
    for k, pick in enumerate(picks):
        planned = _do_plan(cfg.env, pick)
        if isinstance(planned, TypeCheckError):
            outcomes.append(ActionFailed(planned, (pick.who,)))
            continue
        try:
            pending = _run_action(base, pick.item)
            alone, prop = propagate(base, cfg.env, pending, cfg.next_txn + k)
            if runs:
                # the combined writes may fault a definition each pick computed fine
                merged_vars = {**store.vars, **{n: alone.vars[n] for n in pending}}
                defs = merge_defs(store.defs, alone.defs, merged_vars, cfg.env)
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
        # a definition may change only once several writes land, so diff
        # every written or recomputed name against the base
        names = {n for _, pending, _ in runs for n in pending} | set(recomputed)
        changes = tuple(
            Change(n, base.value_of(n), store.value_of(n))
            for n in sorted(names)
            if base.value_of(n) != store.value_of(n)
        )
    outcomes[place] = Executed(changes, store.txn, tuple(who for who, *_ in runs), recomputed)
    return replace(cfg, store=store, q_do=remaining), tuple(outcomes)


# ---------------------------------------------------------------------------
# Step enumeration and the quiescence driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    """A schedulable step, naming queue entries by index."""

    kind: str  # "evolve_one" | "evolve_two" | "do_one" | "do_two" | "queue_die"
    i: int = -1
    j: int = -1

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.i >= 0:
            out["i"] = self.i
        if self.j >= 0:
            out["j"] = self.j
        return out


def evolve_pair_viable(cfg: Config, s1: Submission, s2: Submission) -> bool:
    """Would these two evolutions be accepted together right now (statically)?"""
    return isinstance(_evolution_plan(cfg.env, (s1, s2)), tuple)


def enabled_steps(cfg: Config) -> tuple[Step, ...]:
    """Every step the scheduler may fire from this configuration.

    Evolutions appear only when they would be approved (alone or as a
    pair); actions are always steppable one at a time and additionally as
    lock-compatible pairs.  When evolutions are pending but none is
    approvable in any combination, the only evolution step is queue death.
    With two or more queued actions the step reads each one's plan once and
    checks every pair by `_locks_compatible`'s set logic over those plans;
    a lone action is not typed here at all.
    """
    steps: list[Step] = []
    singles = [
        i for i, s in enumerate(cfg.q_r) if isinstance(_evolution_plan(cfg.env, (s,)), tuple)
    ]
    steps.extend(Step("evolve_one", i) for i in singles)
    pair_found = False
    for i in range(len(cfg.q_r)):
        for j in range(i + 1, len(cfg.q_r)):
            if evolve_pair_viable(cfg, cfg.q_r[i], cfg.q_r[j]):
                steps.append(Step("evolve_two", i, j))
                pair_found = True
    if cfg.q_r and not singles and not pair_found:
        steps.append(Step("queue_die"))
    steps.extend(Step("do_one", i) for i in range(len(cfg.q_do)))
    if len(cfg.q_do) >= 2:
        plans = [_do_plan(cfg.env, s) for s in cfg.q_do]
        for i, p1 in enumerate(plans):
            steps.extend(
                Step("do_two", i, j) for j in range(i + 1, len(plans)) if _locks_compatible(p1, plans[j])
            )
    return tuple(steps)


def apply_step(cfg: Config, step: Step) -> tuple[Config, tuple[StepOutcome, ...]]:
    """Fire one step from `enabled_steps`."""
    if step.kind == "evolve_one":
        cfg2, out = step_evolve_many(cfg, (cfg.q_r[step.i],))
        return cfg2, (out,)
    if step.kind == "evolve_two":
        cfg2, out = step_evolve_many(cfg, (cfg.q_r[step.i], cfg.q_r[step.j]))
        return cfg2, (out,)
    if step.kind == "do_one":
        return step_do_many(cfg, (cfg.q_do[step.i],))
    if step.kind == "do_two":
        return step_do_many(cfg, (cfg.q_do[step.i], cfg.q_do[step.j]))
    if step.kind == "queue_die":
        cfg2, out = step_queue_die(cfg)
        return cfg2, (out,)
    raise ValueError(f"unknown step kind {step.kind!r}")


class ScheduleSource(Protocol):
    def choose(self, cfg: Config, options: Sequence[Step]) -> Step: ...


class RandomSchedule:
    """Seeded uniformly random scheduler; the default for live services."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.picks: list[int] = []

    def choose(self, cfg: Config, options: Sequence[Step]) -> Step:
        k = self.rng.randrange(len(options))
        self.picks.append(k)
        return options[k]


class FirstSchedule:
    """Always fires the first enabled step; a deterministic baseline."""

    def choose(self, cfg: Config, options: Sequence[Step]) -> Step:
        return options[0]


class PickOutOfRange(ValueError):
    """A replayed pick names no enabled step: the schedule was recorded
    against another configuration."""


class FixedSchedule:
    """Replays a recorded sequence of option indices.

    `choose` raises `IndexError` once the picks run out, and
    `PickOutOfRange` for a pick that no enabled step answers.
    """

    def __init__(self, picks: Sequence[int]):
        self.picks = list(picks)
        self.pos = 0

    def choose(self, cfg: Config, options: Sequence[Step]) -> Step:
        if self.pos >= len(self.picks):
            raise IndexError("replay schedule exhausted")
        k = self.picks[self.pos]
        self.pos += 1
        if not 0 <= k < len(options):
            raise PickOutOfRange(f"step {self.pos}: pick {k} is out of range for {len(options)} options")
        return options[k]


def run_steps(
    cfg: Config, schedule: ScheduleSource
) -> Iterator[tuple[Config, Step, Config, tuple[StepOutcome, ...]]]:
    """The one schedule loop: while any step is enabled, let `schedule`
    choose one, fire it and yield `(before, step, after, outcomes)`.

    Every scheduler iterates this generator, so each fired step is seen in
    one place.  It stops when no step is enabled, which leaves pending
    work only if progress fails; an exception from `schedule.choose` (a
    replayed schedule running out) propagates to the caller.
    """
    while options := enabled_steps(cfg):
        step = schedule.choose(cfg, options)
        after, outcomes = apply_step(cfg, step)
        yield cfg, step, after, outcomes
        cfg = after


def run_until_quiescent(
    cfg: Config, schedule: ScheduleSource | None = None
) -> tuple[Config, list[StepOutcome]]:
    """Fire schedule-chosen steps until both queues are empty.

    Terminates because every step removes at least one queue entry or is
    queue death, which empties the evolution queue outright.
    """
    outcomes: list[StepOutcome] = []
    for _, _, cfg, outs in run_steps(cfg, schedule or FirstSchedule()):
        outcomes.extend(outs)
    assert not cfg.q_r and not cfg.q_do
    return cfg, outcomes


# ---------------------------------------------------------------------------
# Configuration health checks (used by property suites)
# ---------------------------------------------------------------------------

def value_conforms(v: Value, ty) -> bool:
    if isinstance(ty, Base):
        return {
            "Int": IntV,
            "Bool": BoolV,
            "String": StringV,
            "Unit": UnitV,
        }[ty.name] is type(v)
    if isinstance(ty, Func):
        return isinstance(v, ClosureV)
    if isinstance(ty, Action):
        return isinstance(v, ActionV) and frozenset(w.target for w in v.body.writes) == ty.writes
    return False


def check_config(cfg: Config) -> list[str]:
    """All invariant violations of a configuration (empty list = healthy).

    Checks environment well-formedness, that the store covers exactly the
    environment's names with the right cell kinds, and that every stored
    value matches its declared type.
    """
    problems: list[str] = []
    report = well_formed(cfg.env)
    if not report.ok:
        problems.append(f"environment ill-formed: {report}")
    env_names = set(cfg.env.names())
    store_names = set(cfg.store.names())
    if env_names != store_names:
        problems.append(f"domain mismatch: env {sorted(env_names)} vs store {sorted(store_names)}")
    for name, binding in cfg.env.items():
        if binding.is_state:
            if name not in cfg.store.vars:
                problems.append(f"'{name}' should be a state-variable cell")
                continue
            if not value_conforms(cfg.store.vars[name].c, binding.ty):
                problems.append(f"'{name}' value does not match its type")
        else:
            cell = cfg.store.defs.get(name)
            if cell is None:
                problems.append(f"'{name}' should be a definition cell")
                continue
            if not value_conforms(cell.c, binding.ty):
                problems.append(f"'{name}' value does not match its type")
    return problems
