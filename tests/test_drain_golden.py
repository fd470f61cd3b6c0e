"""A golden hash of seeded random drains.

Bursts of queued submissions, generated here, each drained from one ready
config under `RandomSchedule`.  The hash covers every outcome's kind,
submitters, failure reason, changes and recomputed definitions, and each
burst's final store and env.  A change meant to leave the steps a drain
fires, and what they commit, as they were must leave the hash as pinned.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from meerkat.runtime import (
    ActionFailed,
    Committed,
    QueueDied,
    RandomSchedule,
    Rejected,
    initial_config,
    run_until_quiescent,
    submit_do,
    submit_evolution,
)
from meerkat.store import change_to_json, store_to_json
from meerkat.syntax import parse_do, parse_program

PAIRS, POOL, BURSTS = 32, 8, 40
# the submissions of every burst, shuffled per burst: 24 in all
MIX = ("inc",) * 18 + ("div", "reads_pool", "evolve", "evolve", "retype", "kind_flip")


def drain_inputs(seed: int) -> tuple[str, list[list[tuple[str, str, str]]]]:
    """The ready program and `BURSTS` bursts of `(kind, source, who)`.

    Increments of 1-3 cells (so some pairs conflict), a division by a
    parity that is zero about half the time, an action reading `p_0` or
    `p_1`, evolutions rebinding a pool definition, one that turns `p_0` or
    `p_1` into a string (so the queued action reading it may stop typing)
    and one that turns a definition into a variable, which no step
    approves (so the queue dies)."""
    rng = random.Random(f"golden-drain/{seed}")
    decls = ["var z = 0;"]
    for k in range(PAIRS):
        decls.append(f"var v_{k} = {rng.randrange(8)}; def d_{k} = v_{k} * 2 + 1;")
    decls.append("def agg = " + " + ".join(f"d_{k}" for k in range(0, PAIRS, 4)) + ";")
    decls += [f"def p_{i} = d_{rng.randrange(PAIRS)} + v_{rng.randrange(PAIRS)};" for i in range(POOL)]
    bursts = []
    for n in range(BURSTS):
        kinds = list(MIX)
        rng.shuffle(kinds)
        burst = []
        for i, kind in enumerate(kinds):
            who = f"s{n}_{i}"
            if kind == "inc":
                ks = sorted(rng.sample(range(PAIRS), rng.randint(1, 3)))
                burst.append(("do", "do (action { " + "; ".join(f"v_{k} := v_{k} + 1" for k in ks) + " })", who))
            elif kind == "div":
                b, c = rng.sample(range(PAIRS), 2)
                d = f"(v_{b} - v_{c})"
                burst.append(("do", f"do (action {{ z := 1000 / ({d} - {d} / 2 * 2) }})", who))
            elif kind == "reads_pool":
                burst.append(("do", f"do (action {{ z := p_{rng.randrange(2)} + 1 }})", who))
            elif kind == "evolve":
                code = f"def p_{rng.randrange(POOL)} = d_{rng.randrange(PAIRS)} + v_{rng.randrange(PAIRS)};"
                burst.append(("evolve", code, who))
            elif kind == "retype":
                burst.append(("evolve", f'def p_{rng.randrange(2)} = "s";', who))
            else:
                burst.append(("evolve", f"var d_{rng.randrange(PAIRS)} = 0;", who))
        bursts.append(burst)
    return " ".join(decls), bursts


def reason(err) -> object:
    """A failure's machine-readable reason: its tag, or a refused
    compatibility check's violations."""
    return err.reason if hasattr(err, "reason") else [v.to_json() for v in err.violations]


def outcome_record(o) -> list:
    if isinstance(o, Committed):
        changes = [change_to_json(c) for c in o.changes]
        return [type(o).__name__, list(o.who), o.txn, changes, list(o.recomputed)]
    if isinstance(o, Rejected):
        return ["Rejected", list(o.notified), o.final, reason(o.report)]
    if isinstance(o, ActionFailed):
        return ["ActionFailed", list(o.notified), reason(o.error)]
    assert isinstance(o, QueueDied)
    return ["QueueDied", list(o.notified)]


def drain_digest(seed: int) -> str:
    """Drain burst n from the ready config under `RandomSchedule(seed + n)`
    for every burst, and hash the outcomes and final configs."""
    program, bursts = drain_inputs(seed)
    ready = initial_config(parse_program(program))
    records = []
    for n, burst in enumerate(bursts):
        cfg = ready
        for kind, source, who in burst:
            if kind == "evolve":
                cfg = submit_evolution(cfg, parse_program(source), who)
            else:
                cfg = submit_do(cfg, parse_do(source), who)
        cfg, outcomes = run_until_quiescent(cfg, RandomSchedule(seed + n))
        records.append([[outcome_record(o) for o in outcomes], store_to_json(cfg.store, cfg.env), cfg.env.to_json()])
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    ("seed", "digest"),
    [
        (1, "739998fbc52ae307ed1118ac8108302a4fc61f8d908b8590e3c55ca09fc71fcd"),
        (301, "2f25fa3e974c280406c7e6a6b3652d158225f2f4451e633e2abb527fcfb62551"),
    ],
)
def test_seeded_drains_hash_as_pinned(seed, digest):
    assert drain_digest(seed) == digest
