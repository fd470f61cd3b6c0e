"""The configuration stepper.

A `Config` bundles the typing environment, the store, and the two pending
queues: code evolutions submitted by programmers and `do` statements
submitted by users.  The env holds each definition's code and the store
its value: an evolution commits both, an action the store alone.  Step
functions consume queue entries and return a new config plus an outcome
describing what happened; nothing here blocks, so a scheduler (the
network server, the REPL, or the exploration harness) owns all sequencing
decisions.  Nothing here shares mutable state either, with one exception:
each `Submission` caches pure functions of its item and the config it
steps from.  A plan, a `do`'s lock plan or an evolution's (alone or with
partners), is kept with the bindings it read and outlives an evolution
that leaves them all as they were.  An evolution's plan is a verdict and
a typed delta: it builds the env it commits only when it commits.  A
`do`'s solo wave is kept against the store and env it ran from, for the
pairs fired there.

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
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import attrgetter

from .store import (
    ActionV,
    Change,
    EvalError,
    PropagationResult,
    Store,
    ClosureV,
    BoolV,
    IntV,
    StringV,
    UnitV,
    Value,
    change_to_json,
    diff,
    eval_expr,
    init_cells,
    merge_defs,
    propagate,
    wave_order,
)
from .syntax import DoStmt, Program, mentions
from .typesys import (
    Action,
    Base,
    CompatReport,
    DoPlan,
    Func,
    Lookups,
    TypeCheckError,
    TypeEnv,
    check_do,
    compatible,
    env_merge,
    infer_program,
    well_formed,
)


@dataclass(frozen=True)
class Submission:
    """One queued item together with who submitted it.

    `plans` caches what this item's steps derive.  Each plan is a `_Plan`
    (see `_Plan.stands`): at `()` the `do`'s lock plan (see `_do_plan`)
    or the lone evolution's plan, and under later partners' ids the plan
    they form together (see `_evolution_plan`).  At `"names"` it keeps an
    evolution's rebound and mentioned names, at `"wave"` the `do`'s latest
    `_solo_wave`, and at `"head"`, on the first queued evolution, the
    latest evolution head with the env and queue it was built from (see
    `_kept_head`).  It takes no part in equality or hashing, and it dies
    with the submission when that leaves the queue.
    """

    item: Program | DoStmt
    who: object = "anon"
    plans: dict = field(default_factory=dict, compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class Config:
    """The runtime configuration: environment, store, and pending queues."""

    env: TypeEnv = field(default_factory=TypeEnv)
    store: Store = field(default_factory=Store)
    q_r: tuple[Submission, ...] = ()
    q_do: tuple[Submission, ...] = ()

    @property
    def next_txn(self) -> int:
        """The id the next committed transaction gets."""
        return self.store.txn + 1


def _remove(queue: tuple[Submission, ...], subs: Sequence[Submission]) -> tuple[Submission, ...]:
    """`queue` without the queued objects `subs`, matched by identity (`==`
    compares whole syntax trees); one that is not queued raises `AssertionError`."""
    out = list(queue)
    for s in subs:
        for k, q in enumerate(out):
            if q is s:
                del out[k]
                break
        else:
            raise AssertionError("picks must be distinct queued submissions")
    return tuple(out)


def initial_config(program: Program | None = None) -> Config:
    """The empty config, or `program` installed in it.  The program is
    fired directly: a refused evolution is never offered as a step, and the
    queue death that ends it would not say why, so this raises a
    `ValueError` with the planner's reason."""
    if program is None:
        return Config()
    cfg = submit_evolution(Config(), program, "__init__")
    cfg, outcome = step_evolve_many(cfg, cfg.q_r)
    if not isinstance(outcome, Accepted):
        raise ValueError(f"initial program was not accepted: {outcome.report}")
    return cfg


# ---------------------------------------------------------------------------
# Step outcomes
# ---------------------------------------------------------------------------

class StepOutcome:
    pass


@dataclass(frozen=True)
class Committed(StepOutcome):
    """A committed transaction: its changes, number, submitters and wave order."""

    changes: tuple[Change, ...]
    txn: int | None
    who: tuple = ()
    recomputed: tuple[str, ...] = ()


class Accepted(Committed):
    """An evolution (or a pair) merged into the env of the config its step returns."""


@dataclass(frozen=True)
class Rejected(StepOutcome):
    """A failed evolution.  `final` means the entry left the queue and the
    submitter must be notified; a non-final rejection reports why a pair
    cannot be approved concurrently while both entries stay queued."""

    report: object  # CompatReport | TypeCheckError | EvalError
    notified: tuple
    final: bool = True


class Executed(Committed):
    """An action (or merged pair) committed."""


@dataclass(frozen=True)
class ActionFailed(StepOutcome):
    error: object  # TypeCheckError | EvalError
    notified: tuple


@dataclass(frozen=True)
class QueueDied(StepOutcome):
    """The evolution queue died to empty; every waiting submitter is told."""

    notified: tuple


def outcome_to_json(o: StepOutcome) -> dict:
    if isinstance(o, Committed):
        kind = "accepted" if isinstance(o, Accepted) else "executed"
        return {"outcome": kind, "txn": o.txn, "changes": [change_to_json(c) for c in o.changes]}
    if isinstance(o, Rejected):
        return {"outcome": "rejected", "final": o.final, "detail": o.report.to_json()}
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
    return Config(cfg.env, cfg.store, cfg.q_r + (Submission(r, who),), cfg.q_do)


def submit_do(cfg: Config, d: DoStmt, who: object = "anon") -> Config:
    """Enqueue a user action; nothing else changes."""
    return Config(cfg.env, cfg.store, cfg.q_r, cfg.q_do + (Submission(d, who),))


# ---------------------------------------------------------------------------
# Kept plans
# ---------------------------------------------------------------------------

class _Plan:
    """A plan kept on a submission, under the ids of the partners it was
    made with (which it holds, so no other object takes their ids): its
    `result`, the `env` it was derived or last found to stand under, and
    `reads`, what its derivation read (keyed as `CompatReport.reads` is),
    or None when that was the whole env."""

    __slots__ = ("env", "partners", "reads", "result")

    def __init__(self, env: TypeEnv, partners: tuple, reads: dict | None, result):
        if isinstance(result, Exception):
            result = result.with_traceback(None)  # so it keeps no frames or stores
        self.env, self.partners, self.reads, self.result = env, partners, reads, result

    def stands(self, env: TypeEnv) -> bool:
        """Whether the plan holds under `env`, another env than its own.

        One rule serves both queues: a plan stands under an env that
        leaves every binding and readers entry it read as it was, checked
        by identity first and then by equality.  An accepted evolution
        plan read its env by a delta-local check, which holds only on an
        env marked as accepted; it is re-based onto `env`, so that it
        builds the env it commits from `env`.
        """
        result = self.result
        if self.reads is None or isinstance(result, CompatReport) and not env._well_formed:
            return False
        for key, was in self.reads.items():
            now = env.readers().get(key[0]) if isinstance(key, tuple) else env.get(key)
            if now is not was and now != was:
                return False
        if isinstance(result, CompatReport):
            self.result = CompatReport(base=env, delta=result.delta, reads=result.reads)
        self.env = env
        return True


# ---------------------------------------------------------------------------
# Evolution steps
# ---------------------------------------------------------------------------

def _merge_evolutions(env: TypeEnv, programs: Sequence[Program]) -> CompatReport | TypeCheckError:
    """Plan evolutions that commit together under the lock discipline,
    afresh.

    Returns the compatibility report of their combined delta, whose
    `merged` is the env to commit when it is ok, or the type error that
    refuses them: a write conflict when two programs rebind the same name,
    or a program that does not type.  Each program is typed with every
    other program's rebound names hidden (a write lock admits only its
    owner, for reading too); a single program is typed against `env`
    itself.
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
    return compatible(env, combined)


def _footprint(sub: Submission) -> tuple[frozenset[str], frozenset[str]]:
    """The names the queued evolution in `sub` rebinds and the names it
    mentions, kept on `sub`."""
    names = sub.plans.get("names")
    if names is None:
        names = sub.plans["names"] = (frozenset(d.name for d in sub.item.decls), mentions(sub.item))
    return names


def _evolution_plan(env: TypeEnv, subs: Sequence[Submission]) -> CompatReport | TypeCheckError:
    """`_merge_evolutions` of the queued evolutions `subs` under `env`,
    planned once: the report whose `merged` env they would commit
    together, or the type error or report that refuses them.

    The plan is kept on the first submission, keyed by the partners that
    follow it (see `_Plan.stands`).  Besides what `compatible` read, it
    read each name the programs rebind or mention, which covers every
    lookup their typing makes.  A pair is typed from its singles when both type, their
    rebind sets are disjoint and neither mentions a name the other
    rebinds: hiding the other's names then changes no lookup, so the
    pair's delta is the singles' deltas merged and only `compatible` runs.
    Any other pair is planned afresh.
    """
    first, partners = subs[0], tuple(subs[1:])
    key = tuple(map(id, partners))
    hit = first.plans.get(key)
    if hit is not None and (hit.env is env or hit.stands(env)):
        return hit.result
    result = None
    if len(subs) == 2:
        (w1, m1), (w2, m2) = map(_footprint, subs)
        if w1.isdisjoint(w2) and w1.isdisjoint(m2) and w2.isdisjoint(m1):
            p1, p2 = _evolution_plan(env, subs[:1]), _evolution_plan(env, subs[1:])
            if isinstance(p1, CompatReport) and isinstance(p2, CompatReport):
                result = compatible(env, env_merge(p1.delta, p2.delta))
    if result is None:
        result = _merge_evolutions(env, [s.item for s in subs])
    reads = result.reads if isinstance(result, CompatReport) else {}
    if reads is not None:  # else `compatible` scanned the whole env
        reads = {n: env.get(n) for s in subs for names in _footprint(s) for n in names} | reads
    first.plans[key] = hit = _Plan(env, partners, reads, result)
    return hit.result


def _accepts(plan: CompatReport | TypeCheckError) -> bool:
    return isinstance(plan, CompatReport) and plan.ok


def step_evolve_many(cfg: Config, picks: Sequence[Submission]) -> tuple[Config, StepOutcome]:
    """Approve one or several evolutions in one step.

    The scheduler fires one ("evolve_one") or two ("evolve_two"), but the
    premises generalize: pairwise-disjoint rebind sets, each submission
    typed with every other submission's rebound names hidden, and the
    combined delta compatible with the environment.  The picks' plan is
    the one `enabled_steps` read (see `_evolution_plan`).  On success the
    new bindings overwrite-merge into the environment, which the plan
    builds on its first commit from `cfg.env` and shares with every later
    one, and the store is updated under a single transaction; on any
    failure the store stays untouched.
    A failed premise finally rejects a single pick, which leaves the queue;
    with several picks every entry stays queued and the rejection is
    non-final.  A runtime fault finally rejects every pick.  The picks are
    the queued objects themselves, matched by identity (see `_remove`).
    """
    remaining = _remove(cfg.q_r, picks)
    programs = [p.item for p in picks]
    assert all(isinstance(r, Program) for r in programs)
    whos = tuple(p.who for p in picks)
    planned = _evolution_plan(cfg.env, picks)
    if not _accepts(planned):
        if len(picks) == 1:
            return Config(cfg.env, cfg.store, remaining, cfg.q_do), Rejected(planned, whos)
        return cfg, Rejected(planned, whos, final=False)
    env = planned.merged
    try:
        union_prog = Program(tuple(d for r in programs for d in r.decls))
        new_store, prop = init_cells(cfg.store, env, union_prog, cfg.next_txn)
    except EvalError as err:
        return Config(cfg.env, cfg.store, remaining, cfg.q_do), Rejected(err, whos)
    new_cfg = Config(env, new_store, remaining, cfg.q_do)
    return new_cfg, Accepted(prop.changes, prop.txn, whos, prop.recomputed)


def step_queue_die(cfg: Config) -> tuple[Config, StepOutcome]:
    """Empty the evolution queue, notifying every pending submitter.

    The environment, store, and action queue are untouched.
    """
    if not cfg.q_r:
        raise ValueError("queue death needs a nonempty evolution queue")
    notified = tuple(s.who for s in cfg.q_r)
    return Config(cfg.env, cfg.store, (), cfg.q_do), QueueDied(notified)


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
    error that refuses it.  It is typed once: the scheduling step and the
    step that fires it read the same plan.  It read the binding of every
    name its typing looked up, bound or not (see `_Plan.stands`)."""
    hit = sub.plans.get(())
    if hit is None or hit.env is not env and not hit.stands(env):
        lookups = Lookups(env)
        try:
            plan: DoPlan | TypeCheckError = check_do(lookups, sub.item)
        except TypeCheckError as err:
            plan = err
        hit = sub.plans[()] = _Plan(env, (), lookups.reads, plan)
    return hit.result


def _solo_wave(
    env: TypeEnv, base: Store, sub: Submission
) -> tuple[dict[str, Value], Store, PropagationResult] | EvalError:
    """The queued `do` in `sub` run alone from `base` under `env`: its
    variable writes with the store and result of their wave, stamped
    transaction `base.txn + 1`, or the EvalError either raised.  The
    latest result is kept against the very `base` and `env` it ran from,
    so the steps fired from one config run each action once however many
    pairs it joins; a kept error has no traceback and is not raised."""
    hit = sub.plans.get("wave")
    if hit is not None and hit[0] is base and hit[1] is env:
        return hit[2]
    try:
        pending = _run_action(base, sub.item)
        result = (pending, *propagate(base, env, pending, base.txn + 1))
    except EvalError as err:
        result = err.with_traceback(None)
    sub.plans["wave"] = (base, env, result)
    return result


def do_pair_viable(cfg: Config, s1: Submission, s2: Submission) -> bool:
    """The lock rule for two queued actions, written once: both of their
    `_do_plan`s under `cfg.env` type, their write sets are disjoint and
    neither reads a variable the other writes.  `enabled_steps` applies it
    to a whole queue through an index of who writes what, checking no
    pair, and `step_do_many` confirms its picks here."""
    p1, p2 = _do_plan(cfg.env, s1), _do_plan(cfg.env, s2)
    return (
        isinstance(p1, DoPlan)
        and isinstance(p2, DoPlan)
        and p1.writes.isdisjoint(p2.writes)
        and p1.read_vars.isdisjoint(p2.writes)
        and p2.read_vars.isdisjoint(p1.writes)
    )


def step_do_many(
    cfg: Config, picks: Sequence[Submission]
) -> tuple[Config, tuple[StepOutcome, ...]]:
    """Execute one or several lock-compatible actions in one step.

    The scheduler fires one ("do_one") or two ("do_two").  Picks that are
    not pairwise `do_pair_viable` get one non-final `LockConflict`
    rejection, and every pick stays queued.  Otherwise every pick leaves
    the queue.  Pick k is transaction `next_txn + k`: it is typed by
    `_do_plan`, evaluated against the pre-step store and propagated alone
    from that store (`_solo_wave`, which a pair finds kept from its picks'
    `do_one` steps fired from the same config), so a type error or runtime
    fault fails that pick alone and aborts all of its writes.  The
    survivors' disjoint variable writes and their definition updates then
    merge in pick order through `merge_defs`, which recomputes only the
    definitions downstream of both the earlier survivors' writes and pick
    k's, once, in their `wave_order`; a survivor whose writes fault such a
    definition fails, and the earlier ones stand.  One `Executed` covers
    every survivor: it sits at the first survivor's place among the
    outcomes and carries the last survivor's transaction.  Its
    `recomputed` is the `wave_order` of all the survivors' writes; like
    every wave order, it is derived once per env and write set.  Its
    `changes` are built from the survivors' solo waves (see
    `_merged_changes`).  The picks are the queued objects themselves,
    matched by identity (see `_remove`).
    """
    remaining = _remove(cfg.q_do, picks)
    assert all(isinstance(p.item, DoStmt) for p in picks), "picks must be queued actions"
    if not all(do_pair_viable(cfg, p, q) for k, p in enumerate(picks) for q in picks[k + 1 :]):
        conflict = TypeCheckError("LockConflict", "actions overlap on reads or writes")
        return cfg, (Rejected(conflict, tuple(p.who for p in picks), final=False),)
    base = store = cfg.store
    outcomes: list = []
    whos: list = []  # each survivor's submitter
    waves: list[PropagationResult] = []  # each survivor's solo wave
    written: set[str] = set()  # every survivor's variable writes
    for k, pick in enumerate(picks):
        solo = _do_plan(cfg.env, pick)
        if isinstance(solo, DoPlan):
            solo = _solo_wave(cfg.env, base, pick)
        if isinstance(solo, Exception):
            outcomes.append(ActionFailed(solo, (pick.who,)))
            continue
        pending, alone, prop = solo
        txn = base.txn + 1 + k  # cfg.next_txn + k
        if whos:
            # the combined writes may fault a definition each pick computed fine
            merged_vars = {**store.vars, **{n: alone.vars[n] for n in pending}}
            try:
                defs = merge_defs(store.defs, alone.defs, merged_vars, cfg.env, written, pending.keys())
            except EvalError as err:
                outcomes.append(ActionFailed(err, (pick.who,)))
                continue
            store = Store(merged_vars, defs, txn)
        else:
            place = len(outcomes)
            outcomes.append(None)
            store = alone if alone.txn == txn else Store(alone.vars, alone.defs, txn)
        whos.append(pick.who)
        waves.append(prop)
        written |= pending.keys()
    if not whos:
        return Config(cfg.env, cfg.store, cfg.q_r, remaining), tuple(outcomes)
    changes, recomputed = waves[0].changes, waves[0].recomputed
    if len(waves) > 1:
        recomputed = wave_order(cfg.env, written)
        changes = _merged_changes(base, store, waves)
    outcomes[place] = Executed(changes, store.txn, tuple(whos), recomputed)
    return Config(cfg.env, store, cfg.q_r, remaining), tuple(outcomes)


def _merged_changes(base: Store, store: Store, waves: Sequence[PropagationResult]) -> tuple[Change, ...]:
    """The changes, by name, from `base` to `store`, into which the solo
    `waves` of several lock-compatible actions run from `base` merged.

    A variable is written by one wave, and `merge_defs` takes a definition
    downstream of one wave's writes only from that wave, so the change of
    every name one wave alone wrote or recomputed is that wave's own.  Only
    a definition downstream of two or more waves may take a value no wave
    gave it, so only those are diffed against `base`.
    """
    seen: set[str] = set()
    shared: set[str] = set()
    for wave in waves:
        shared.update(seen.intersection(wave.recomputed))
        seen.update(wave.recomputed)
    changes = [c for wave in waves for c in wave.changes if c.name not in shared]
    changes += diff({n: base.defs[n] for n in shared}, store)
    return tuple(sorted(changes, key=attrgetter("name")))


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
    return _accepts(_evolution_plan(cfg.env, (s1, s2)))


def _evolution_head(cfg: Config) -> Iterator[Step]:
    """`enabled_steps`' evolution steps, built one at a time: the approvable
    `evolve_one`s, then `evolve_two`s, else queue death if any is queued."""
    q_r = cfg.q_r
    pairs = combinations(range(len(q_r)), 2)
    steps = chain(
        (Step("evolve_one", i) for i, s in enumerate(q_r) if _accepts(_evolution_plan(cfg.env, (s,)))),
        (Step("evolve_two", i, j) for i, j in pairs if evolve_pair_viable(cfg, q_r[i], q_r[j])),
    )
    if first := next(steps, Step("queue_die") if q_r else None):
        yield first
        yield from steps


def _kept_head(cfg: Config) -> tuple[Step, ...]:
    """`_evolution_head(cfg)` in full.  It depends on `cfg.env` and
    `cfg.q_r` alone, so it is kept on the first queued evolution with the
    very env and queue it was built from: an action step returns both as
    they were, and the step after it reuses the head."""
    if not cfg.q_r:
        return ()
    plans = cfg.q_r[0].plans
    hit = plans.get("head")
    if hit is None or hit[0] is not cfg.env or hit[1] is not cfg.q_r:
        hit = plans["head"] = (cfg.env, cfg.q_r, tuple(_evolution_head(cfg)))
    return hit[2]


class _Options(Sequence):
    """The steps `enabled_steps` offers, each built only when it is read.

    In order: `head` (the evolution steps, or queue death), a `do_one` for
    each of the `n` queued actions, then a `do_two` for each lock-compatible
    pair `(i, j)`, `i < j`, by `i` and then `j`.  `clashes[i]` holds the
    later actions that action `i` may not pair with, or is None when it
    pairs with none; a row is sorted once, when it is first read, so a
    schedule that reads one step sorts one row.  `starts[i]` is the index
    of row `i`'s first pair.
    Element k and the length equal those of the full tuple, so a recorded
    pick names the same step.  The order is written once, in `__getitem__`,
    through which `Sequence` iterates.
    """

    __slots__ = ("head", "n", "clashes", "starts", "size")

    def __init__(self, head: tuple[Step, ...], n: int, clashes: list[set[int] | list[int] | None]):
        self.head, self.n, self.clashes = head, n, clashes
        self.starts: list[int] = []
        size = len(head) + n
        for i, row in enumerate(clashes):
            self.starts.append(size)
            size += 0 if row is None else n - 1 - i - len(row)
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> Step:
        if k < 0:
            k += self.size
        if not 0 <= k < self.size:
            raise IndexError("step index out of range")
        if k < len(self.head):
            return self.head[k]
        if k < len(self.head) + self.n:
            return Step("do_one", k - len(self.head))
        i = bisect_right(self.starts, k) - 1
        j = i + 1 + k - self.starts[i]
        row = self.clashes[i]
        if isinstance(row, set):
            row = self.clashes[i] = sorted(row)
        for c in row:  # skip the clashes up to the j-th partner
            if c > j:
                break
            j += 1
        return Step("do_two", i, j)


def enabled_steps(cfg: Config) -> Sequence[Step]:
    """Every step the scheduler may fire from this configuration, as a
    lazy sequence: `len`, indexing and iteration give the steps in a fixed
    order, and a `Step` is built only when one is read.

    Evolutions appear only when they would be approved (alone or as a
    pair); actions are always steppable one at a time and additionally as
    lock-compatible pairs.  When evolutions are pending but none is
    approvable in any combination, the only evolution step is queue death.
    Each evolution's plan, alone and with each partner, is kept while what
    it read stands (see `_evolution_plan`): after a commit a step re-plans
    only the plans whose reads the commit changed, so a drain of r
    independent evolutions types each once and checks each pair once.
    The evolution steps themselves depend only on the env and the
    evolution queue, which an action step leaves as they were, so the
    head is walked once per env and queue and kept (see `_kept_head`).
    With two or more queued actions the step reads each one's plan once,
    indexes the actions by the variables they write and looks each one's
    reads and writes up in that index; an action that does not type pairs
    with none.  So a step with q queued actions costs the evolution pairs
    plus the actions' footprints and their conflicts, not a check per pair
    of actions; a lone action is not typed here at all.
    """
    head = _kept_head(cfg)
    n = len(cfg.q_do)
    clashes: list[set[int] | None] = []
    if n >= 2:
        plans = [_do_plan(cfg.env, s) for s in cfg.q_do]
        untyped = [i for i, p in enumerate(plans) if not isinstance(p, DoPlan)]
        writers: dict[str, list[int]] = {}
        for i, p in enumerate(plans):
            if isinstance(p, DoPlan):
                clashes.append({j for j in untyped if j > i})
                for v in p.writes:
                    writers.setdefault(v, []).append(i)
            else:
                clashes.append(None)
        for i, p in enumerate(plans):
            if isinstance(p, DoPlan):
                for v in p.writes | p.read_vars:
                    for j in writers.get(v, ()):
                        if j != i:
                            clashes[min(i, j)].add(max(i, j))
    return _Options(head, n, clashes)


def apply_step(cfg: Config, step: Step) -> tuple[Config, tuple[StepOutcome, ...]]:
    """Fire one step from `enabled_steps`: queue death, or the picks that
    a `do_*` or `evolve_*` step names by queue index (`i`, and `j` too for
    a pair), fired together through that queue's `_many` function.  Any
    other kind raises `ValueError`."""
    if step.kind == "queue_die":
        cfg, out = step_queue_die(cfg)
        return cfg, (out,)
    do = step.kind in ("do_one", "do_two")
    if not do and step.kind not in ("evolve_one", "evolve_two"):
        raise ValueError(f"unknown step kind {step.kind!r}")
    queue = cfg.q_do if do else cfg.q_r
    picks = (queue[step.i],) if step.kind.endswith("_one") else (queue[step.i], queue[step.j])
    if do:
        return step_do_many(cfg, picks)
    cfg, out = step_evolve_many(cfg, picks)
    return cfg, (out,)


Schedule = Callable[[Config], Step | None]


def first_step(cfg: Config) -> Step | None:
    """The server's schedule: `enabled_steps(cfg)[0]`, or None when no step
    is enabled.  That is the first approvable evolution step or queue
    death, else `do_one` of the oldest action, found without typing an
    action or building a clash row."""
    return next(_evolution_head(cfg), Step("do_one", 0) if cfg.q_do else None)


class RandomSchedule:
    """Seeded uniformly random choice among `enabled_steps`; it keeps each
    pick's index in `picks`, a list that `FixedSchedule` replays."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.picks: list[int] = []

    def __call__(self, cfg: Config) -> Step | None:
        options = enabled_steps(cfg)
        if not options:
            return None
        self.picks.append(self.rng.randrange(len(options)))
        return options[self.picks[-1]]


class PickOutOfRange(ValueError):
    """A replayed pick names no enabled step: the schedule was recorded
    against another configuration."""


class PicksRanOut(IndexError):
    """A replayed schedule has no pick left while steps are still enabled."""


class FixedSchedule:
    """Replays a recorded sequence of option indices.

    A call raises `PicksRanOut`, an `IndexError`, once the picks run
    out, and `PickOutOfRange` for a pick that no enabled step answers.
    """

    def __init__(self, picks: Sequence[int]):
        self.picks = list(picks)
        self.pos = 0

    def __call__(self, cfg: Config) -> Step | None:
        options = enabled_steps(cfg)
        if not options:
            return None
        if self.pos >= len(self.picks):
            raise PicksRanOut("replay schedule exhausted")
        k = self.picks[self.pos]
        self.pos += 1
        if not 0 <= k < len(options):
            raise PickOutOfRange(f"step {self.pos}: pick {k} is out of range for {len(options)} options")
        return options[k]


def run_steps(cfg: Config, schedule: Schedule) -> Iterator[tuple[Step, Config, tuple[StepOutcome, ...]]]:
    """The one schedule loop: while `schedule(cfg)`, one of `enabled_steps(cfg)`
    or None exactly when none is enabled, names a step, fire it and yield
    `(step, after, outcomes)`.  Every scheduler iterates this generator, so
    each fired step is seen in one place.  Stopping leaves pending work only
    if progress fails; an exception from `schedule` (a replayed schedule
    running out) propagates to the caller.
    """
    while (step := schedule(cfg)) is not None:
        cfg, outcomes = apply_step(cfg, step)
        yield step, cfg, outcomes


def run_until_quiescent(cfg: Config, schedule: Schedule = first_step) -> tuple[Config, list[StepOutcome]]:
    """Fire schedule-chosen steps until both queues are empty.

    Terminates because every step removes at least one queue entry or is
    queue death, which empties the evolution queue outright.
    """
    outcomes: list[StepOutcome] = []
    for _, cfg, outs in run_steps(cfg, schedule):
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
        value = (cfg.store.vars if binding.is_state else cfg.store.defs).get(name)
        if value is None:
            kind = "state-variable" if binding.is_state else "definition"
            problems.append(f"'{name}' should be a {kind} cell")
        elif not value_conforms(value, binding.ty):
            problems.append(f"'{name}' value does not match its type")
    return problems
