"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed and size: the same
arguments give byte-identical inputs (see `to_bytes`), so two commits
measured with one seed do exactly the same work.  The program under test
receives these inputs and nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

LIVE_PAIRS = 300
LIVE_AGG_STRIDE = 10
BURST_PAIRS = 64
BURST_POOL = 16
DIV_NUMERATOR = 1000


def line(doc: dict) -> bytes:
    """One protocol line, canonically encoded."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def to_bytes(inputs) -> bytes:
    """Canonical byte form of a generated input set (for identity checks)."""
    return json.dumps(asdict(inputs), sort_keys=True, default=_encode_bytes).encode("utf-8")


def _encode_bytes(obj):
    if isinstance(obj, bytes):
        return obj.decode("utf-8")
    raise TypeError(type(obj))


def _agg_source(pairs: int, stride: int) -> str:
    return "def agg = " + " + ".join(f"d_{k}" for k in range(0, pairs, stride)) + ";"


# ---------------------------------------------------------------------------
# live_mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiveOp:
    """One request of connection A and what the model needs to check it.

    `kind` is do / read / evolve_new / evolve_same / evolve_flip / dump;
    `k` is the pair index a do or overwrite touches, `name` the name a read
    or a new definition uses, and `a`, `b` the pair indices a new
    definition `e_j = d_a + v_b` reads.
    """

    kind: str
    req: str
    line: bytes
    k: int = -1
    name: str = ""
    a: int = -1
    b: int = -1


@dataclass(frozen=True)
class LiveInputs:
    init_values: tuple[int, ...]
    program: str
    ops_a: tuple[LiveOp, ...]
    b_reads: tuple[bytes, ...]  # B's read-backs, one per A `do`, if no push is lost

    @staticmethod
    def hello(role: str) -> bytes:
        return line({"type": "hello", "version": 1, "role": role})

    @staticmethod
    def subscribe_lines() -> tuple[bytes, ...]:
        return tuple(line({"type": "subscribe", "name": f"d_{k}"}) for k in range(LIVE_PAIRS))

    @staticmethod
    def sync_line(attempt: int) -> bytes:
        return line({"type": "read", "req": f"bsync{attempt}", "name": "agg"})

    @staticmethod
    def b_read_line(n: int, name: str) -> bytes:
        return line({"type": "read", "req": f"b{n}", "name": name})


# request kinds of every block of 100 A requests, shuffled per block, so
# every seed runs the same mix
LIVE_BLOCK = ("do",) * 70 + ("read",) * 15 + ("evolve_new",) * 7 + ("evolve_same",) * 7 + ("evolve_flip",)
# submission kinds of every burst, shuffled per burst
BURST_MIX = ("inc",) * 20 + ("div",) + ("evolve",) * 3


def live_mix_inputs(seed: int, n_ops: int) -> LiveInputs:
    """A wide program and connection A's fixed request list.

    Per block of 100 requests: 70 one-cell increments, 15 reads, 7 new
    definitions `def e_j = d_a + v_b`, 7 overwrites of a `d_k` with its own
    body, and 1 flip of a `d_k` to a `var`, which must die in the queue.
    The last request is a `dump`.
    """
    rng = random.Random(f"live_mix/{seed}")
    init_values = tuple(rng.randrange(100) for _ in range(LIVE_PAIRS))
    decls = []
    for k, v in enumerate(init_values):
        decls.append(f"var v_{k} = {v};")
        decls.append(f"def d_{k} = v_{k} * 2 + 1;")
    decls.append(_agg_source(LIVE_PAIRS, LIVE_AGG_STRIDE))
    program = "\n".join(decls) + "\n"

    names = [f"v_{k}" for k in range(LIVE_PAIRS)] + [f"d_{k}" for k in range(LIVE_PAIRS)] + ["agg"]
    ops: list[LiveOp] = []
    b_reads: list[bytes] = []
    n_new = 0
    kinds: list[str] = []
    for i in range(n_ops):
        if not kinds:
            kinds = list(LIVE_BLOCK)
            rng.shuffle(kinds)
        kind = kinds.pop()
        req = f"a{i}"
        if kind == "do":
            k = rng.randrange(LIVE_PAIRS)
            expr = f"do (action {{ v_{k} := v_{k} + 1 }})"
            ops.append(LiveOp("do", req, line({"type": "do", "req": req, "expr": expr}), k=k))
            b_reads.append(LiveInputs.b_read_line(len(b_reads), f"d_{k}"))
        elif kind == "read":
            name = rng.choice(names)
            ops.append(LiveOp("read", req, line({"type": "read", "req": req, "name": name}), name=name))
        elif kind == "evolve_flip":
            k = rng.randrange(LIVE_PAIRS)
            code = f"var d_{k} = 0;"
            ops.append(LiveOp("evolve_flip", req, line({"type": "evolve", "req": req, "code": code}), k=k))
        elif kind == "evolve_new":
            a, b = rng.randrange(LIVE_PAIRS), rng.randrange(LIVE_PAIRS)
            name = f"e_{n_new}"
            n_new += 1
            code = f"def {name} = d_{a} + v_{b};"
            ops.append(
                LiveOp("evolve_new", req, line({"type": "evolve", "req": req, "code": code}), name=name, a=a, b=b)
            )
            names.append(name)
        else:
            k = rng.randrange(LIVE_PAIRS)
            code = f"def d_{k} = v_{k} * 2 + 1;"
            ops.append(LiveOp("evolve_same", req, line({"type": "evolve", "req": req, "code": code}), k=k))
    req = f"a{n_ops}"
    ops.append(LiveOp("dump", req, line({"type": "dump", "req": req})))
    return LiveInputs(init_values, program, tuple(ops), tuple(b_reads))


# ---------------------------------------------------------------------------
# burst_drain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurstItem:
    """One submission: `kind` is inc / div / evolve; `source` is its text."""

    kind: str
    who: str
    source: str
    writes: tuple[int, ...] = ()  # inc: the pair indices incremented
    b: int = -1  # div: z := DIV_NUMERATOR / ((v_b - v_c) rem 2); evolve: p_slot = d_b + v_c
    c: int = -1
    slot: int = -1


@dataclass(frozen=True)
class BurstInputs:
    init_values: tuple[int, ...]
    pool_init: tuple[tuple[int, int], ...]  # p_i = d_a + v_b
    program: str
    bursts: tuple[tuple[BurstItem, ...], ...]


def burst_drain_inputs(seed: int, n_bursts: int) -> BurstInputs:
    """A small store and bursts of queued submissions.

    Per burst 20 increments of 1-3 random cells (so some pairs conflict),
    one action dividing by the parity of a difference of two cells, which
    is zero about half the time, and 3 evolutions rebinding a name of a
    fixed pool.
    """
    rng = random.Random(f"burst_drain/{seed}")
    init_values = tuple(rng.randrange(8) for _ in range(BURST_PAIRS))
    pool_init = tuple((rng.randrange(BURST_PAIRS), rng.randrange(BURST_PAIRS)) for _ in range(BURST_POOL))
    decls = ["var z = 0;"]
    for k, v in enumerate(init_values):
        decls.append(f"var v_{k} = {v};")
        decls.append(f"def d_{k} = v_{k} * 2 + 1;")
    decls.append(_agg_source(BURST_PAIRS, LIVE_AGG_STRIDE))
    for i, (a, b) in enumerate(pool_init):
        decls.append(f"def p_{i} = d_{a} + v_{b};")
    program = "\n".join(decls) + "\n"

    bursts = []
    for n in range(n_bursts):
        items = []
        kinds = list(BURST_MIX)
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds):
            who = f"s{n}_{i}"
            if kind == "inc":
                ks = tuple(sorted(rng.sample(range(BURST_PAIRS), rng.randint(1, 3))))
                body = "; ".join(f"v_{k} := v_{k} + 1" for k in ks)
                items.append(BurstItem("inc", who, f"do (action {{ {body} }})", writes=ks))
            elif kind == "div":
                b, c = rng.sample(range(BURST_PAIRS), 2)
                # divides by the parity of v_b - v_c (its remainder mod 2): zero
                # about half the time, at any point in the run
                d = f"(v_{b} - v_{c})"
                src = f"do (action {{ z := {DIV_NUMERATOR} / ({d} - {d} / 2 * 2) }})"
                items.append(BurstItem("div", who, src, b=b, c=c))
            else:
                slot = rng.randrange(BURST_POOL)
                b, c = rng.randrange(BURST_PAIRS), rng.randrange(BURST_PAIRS)
                items.append(BurstItem("evolve", who, f"def p_{slot} = d_{b} + v_{c};", b=b, c=c, slot=slot))
        bursts.append(tuple(items))
    return BurstInputs(init_values, pool_init, program, tuple(bursts))


# ---------------------------------------------------------------------------
# explore_verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExploreInputs:
    init_values: tuple[int, ...]
    writes: tuple[tuple[int, int], ...]  # (var index, written constant), one per action
    initial: str
    submissions: tuple[tuple[str, str, str], ...]  # (kind, source, who)


def explore_verdict_inputs(seed: int) -> ExploreInputs:
    """One fixed independent scenario: 6 vars, `s`, `t`, 5 one-var actions
    and 2 evolutions `def e_j = t + j`.  The seed picks the values, which
    vars the actions write and the queue order; the shape of the schedule
    tree, and so the explorer's work, does not depend on it."""
    rng = random.Random(f"explore_verdict/{seed}")
    init_values = tuple(rng.randrange(10) for _ in range(6))
    targets = rng.sample(range(6), 5)
    writes = tuple((t, rng.randrange(10, 100)) for t in targets)
    initial = " ".join(f"var a{i} = {v};" for i, v in enumerate(init_values))
    initial += " def s = a0 + a1 + a2; def t = s * 2;"
    subs = [("do", f"do (action {{ a{t} := {c} }})", f"u{n}") for n, (t, c) in enumerate(writes)]
    subs += [("evolve", f"def e_{j} = t + {j};", f"p{j}") for j in (1, 2)]
    rng.shuffle(subs)
    return ExploreInputs(init_values, writes, initial, tuple(subs))
