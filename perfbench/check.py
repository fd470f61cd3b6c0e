"""The benchmark's own model of each workload's correct output.

Nothing here calls meerkat: the expected values come from plain Python
arithmetic over the generated inputs, so a defect in meerkat's evaluator
or oracle cannot hide itself.  Each checker returns a `Checked`: the
mismatches (any mismatch makes the run incorrect) and the failures
(operations attempted but lost, which count against `failed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import (
    BURST_POOL,
    DIV_NUMERATOR,
    LIVE_AGG_STRIDE,
    LIVE_PAIRS,
    BurstInputs,
    ExploreInputs,
    LiveInputs,
)


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok and len(self.mismatches) < 1000:
            self.mismatches.append(what)


def _wrap64(n: int) -> int:
    return (n + 2**63) % 2**64 - 2**63


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# ---------------------------------------------------------------------------
# live_mix
# ---------------------------------------------------------------------------

@dataclass
class LiveRecord:
    """What the load generator saw.  `a` holds (op, sent_ns, received_ns,
    reply or None when the session was dropped first); `pushes` holds
    (name, old, new, received_ns); `b_reads` holds (req, name, pushed new
    value, sent_ns, received_ns, value or None when lost)."""

    a: list = field(default_factory=list)
    pushes: list = field(default_factory=list)
    b_reads: list = field(default_factory=list)
    unissued: int = 0


class _LiveModel:
    """Pair values, the `e_j` definitions, and what a lost request left
    uncertain: `lost[k]` dos on v_k that may or may not have run, and
    `e_j` definitions whose evolve was lost."""

    def __init__(self, init_values):
        self.v = list(init_values)
        self.lost = [0] * LIVE_PAIRS
        self.extra: dict[str, tuple[int, int]] = {}
        self.maybe: set[str] = set()
        self.txn = 1  # the initial program
        self.txn_slack = 0  # lost overwrites may or may not have committed

    def certain(self, name: str) -> bool:
        return not any(self.lost[k] for k in self.pairs_read(name)) and name not in self.maybe

    def pairs_read(self, name: str) -> set[int]:
        kind, _, idx = name.partition("_")
        if kind in ("v", "d"):
            return {int(idx)}
        if name == "agg":
            return set(range(0, LIVE_PAIRS, LIVE_AGG_STRIDE))
        a, b = self.extra[name]
        return {a, b}

    def value(self, name: str) -> int:
        kind, _, idx = name.partition("_")
        if kind == "v":
            return self.v[int(idx)]
        if kind == "d":
            return 2 * self.v[int(idx)] + 1
        if name == "agg":
            return sum(2 * self.v[k] + 1 for k in range(0, LIVE_PAIRS, LIVE_AGG_STRIDE))
        a, b = self.extra[name]
        return 2 * self.v[a] + 1 + self.v[b]

    def resolve(self, k: int, observed: int, out: Checked, what: str) -> None:
        """Pin v_k to an observed value the lost dos allow."""
        out.expect(self.v[k] <= observed <= self.v[k] + self.lost[k], f"{what}: v_{k}={observed} impossible")
        self.txn += observed - self.v[k]
        self.v[k] = observed
        self.lost[k] = 0

    def exists(self, name: str, present: bool, out: Checked, what: str) -> None:
        if name in self.maybe:
            self.maybe.discard(name)
            if present:
                self.txn += 1
            else:
                del self.extra[name]
        else:
            out.expect(present == (name in self.extra), f"{what}: '{name}' presence wrong")

    def delta(self, name: str, k: int) -> int:
        """How much one increment of v_k moves `name`."""
        kind, _, idx = name.partition("_")
        if kind == "v":
            return int(int(idx) == k)
        if kind == "d":
            return 2 * int(int(idx) == k)
        if name == "agg":
            return 2 * int(k % LIVE_AGG_STRIDE == 0)
        a, b = self.extra[name]
        return 2 * int(a == k) + int(b == k)


def check_live_mix(inputs: LiveInputs, rec: LiveRecord) -> tuple[Checked, list]:
    """Check every reply against the model; return the check and, for each
    executed `do`, its (pushed name, new value, sent_ns) for push timing."""
    out = Checked()
    m = _LiveModel(inputs.init_values)
    executed: list[tuple[str, int, int]] = []
    out.attempted += len(rec.a) + rec.unissued
    out.failed += rec.unissued
    dump = None
    for op, _sent, _received, reply in rec.a:
        what = f"{op.req} ({op.kind})"
        if reply is None:
            out.failed += 1
            if op.kind == "do":
                m.lost[op.k] += 1
            elif op.kind == "evolve_new":
                m.extra[op.name] = (op.a, op.b)
                m.maybe.add(op.name)
            elif op.kind == "evolve_same":
                m.txn_slack += 1
            continue
        kind = reply.get("type")
        if op.kind == "do":
            out.expect(kind == "executed", f"{what}: got {kind}")
            if kind != "executed":
                continue
            changes = {c["name"]: (c["old"], c["new"]) for c in reply["changes"]}
            vk = f"v_{op.k}"
            if vk not in changes:
                out.expect(False, f"{what}: no change for {vk}")
                continue
            m.resolve(op.k, changes[vk][0], out, what)
            for name in list(m.maybe):
                if m.delta(name, op.k):
                    m.exists(name, name in changes, out, what)
            expected = {n for n in ["agg", f"d_{op.k}", vk, *m.extra] if m.delta(n, op.k)}
            out.expect(set(changes) == expected, f"{what}: changed {sorted(changes)}, want {sorted(expected)}")
            for name in expected & set(changes):
                old, new = changes[name]
                if m.certain(name):
                    out.expect(old == m.value(name), f"{what}: {name} old {old} != {m.value(name)}")
                out.expect(new - old == m.delta(name, op.k), f"{what}: {name} moved {old}->{new}")
            m.v[op.k] += 1
            m.txn += 1
            dk = f"d_{op.k}"
            if dk in changes:
                executed.append((dk, changes[dk][1], _sent))
        elif op.kind == "read":
            if op.name.startswith("e_") and op.name not in m.extra:
                out.expect(False, f"{what}: reads '{op.name}', whose evolve was not accepted")
                continue
            if op.name in m.maybe:
                m.exists(op.name, kind == "value", out, what)
                continue
            out.expect(kind == "value", f"{what}: got {kind}")
            if kind == "value" and m.certain(op.name):
                out.expect(reply["value"] == m.value(op.name), f"{what}: {op.name}={reply['value']}, want {m.value(op.name)}")
            elif kind == "value" and op.name.startswith(("v_", "d_")):
                k = int(op.name[2:])
                v = reply["value"] if op.name[0] == "v" else (reply["value"] - 1) // 2
                m.resolve(k, v, out, what)
        elif op.kind in ("evolve_new", "evolve_same"):
            out.expect(kind == "accepted", f"{what}: got {kind} {reply.get('reason', '')}")
            if kind == "accepted":
                m.txn += 1
                if op.kind == "evolve_new":
                    m.extra[op.name] = (op.a, op.b)
        elif op.kind == "evolve_flip":
            out.expect(kind == "queue_died", f"{what}: got {kind}")
        elif op.kind == "dump":
            out.expect(kind == "value", f"{what}: got {kind}")
            dump = reply.get("value") if kind == "value" else None
    if dump is None:
        out.expect(False, "no final dump")
        return out, executed
    # the final dump pins down whatever lost requests left open
    vars_, defs = dump["vars"], dump["defs"]
    out.expect(set(vars_) == {f"v_{k}" for k in range(LIVE_PAIRS)}, "dump: wrong var names")
    for k in range(LIVE_PAIRS):
        if f"v_{k}" in vars_:
            m.resolve(k, vars_[f"v_{k}"], out, "dump")
    for name in list(m.maybe):
        m.exists(name, name in defs, out, "dump")
    want_defs = {f"d_{k}" for k in range(LIVE_PAIRS)} | {"agg"} | set(m.extra)
    out.expect(set(defs) == want_defs, f"dump: defs {len(defs)} != {len(want_defs)} expected")
    for name in want_defs & set(defs):
        out.expect(defs[name]["c"] == m.value(name), f"dump: {name}={defs[name]['c']}, want {m.value(name)}")
    out.expect(m.txn <= dump["txn"] <= m.txn + m.txn_slack, f"dump: txn {dump['txn']}, want {m.txn}+{m.txn_slack}")

    # B: every executed do pushes its d_k exactly once; read-backs see it or later
    final = {f"d_{k}": 2 * m.v[k] + 1 for k in range(LIVE_PAIRS)}
    first = {f"d_{k}": 2 * inputs.init_values[k] + 1 for k in range(LIVE_PAIRS)}
    seen = set()
    for name, old, new, _t in rec.pushes:
        ok = name in final and new - old == 2 and first[name] < new <= final[name] and new % 2 == 1
        out.expect(ok, f"push {name} {old}->{new} impossible")
        out.expect((name, new) not in seen, f"push {name}={new} twice")
        seen.add((name, new))
    out.attempted += len(executed)
    out.failed += sum(1 for name, new, _ in executed if (name, new) not in seen)
    out.attempted += len(rec.b_reads)
    for _req, name, pushed, _sent, _received, value in rec.b_reads:
        if value is None:
            out.failed += 1
        else:
            ok = name in final and value % 2 == 1 and pushed <= value <= final[name]
            out.expect(ok, f"read-back {name}={value} after push {pushed}")
    return out, executed


# ---------------------------------------------------------------------------
# burst_drain
# ---------------------------------------------------------------------------

def check_burst_drain(inputs: BurstInputs, outcome_log: list, finals: list) -> Checked:
    """Every burst runs from the same ready store.  `outcome_log` holds, per
    burst and in commit order, tuples (kind, whos, payload): kind is
    executed / failed / accepted / other, payload the failure reason.
    `finals` holds, per burst, the final store as a map from name to int.
    Replays each burst's commits on the model, which predicts each
    division's outcome, and checks that every submission resolved exactly
    once and that the final store equals the model's evaluation."""
    out = Checked()
    for burst, log, final_values in zip(inputs.bursts, outcome_log, finals):
        v = list(inputs.init_values)
        z = 0
        pool = list(inputs.pool_init)
        items = {it.who: it for it in burst}
        out.attempted += len(items)
        resolved: dict[str, int] = {}
        for kind, whos, reason in log:
            for who in whos:
                resolved[who] = resolved.get(who, 0) + 1
                it = items.get(who)
                if it is None:
                    out.expect(False, f"outcome for unknown submitter {who}")
                    continue
                if it.kind == "inc":
                    out.expect(kind == "executed", f"{who}: inc got {kind}")
                    for k in it.writes:
                        v[k] += 1
                elif it.kind == "div":
                    diff = v[it.b] - v[it.c]
                    diff -= _trunc_div(diff, 2) * 2
                    if diff == 0:
                        out.expect(kind == "failed" and reason == "DivByZero", f"{who}: div by 0 got {kind}")
                    else:
                        out.expect(kind == "executed", f"{who}: div got {kind}")
                        z = _trunc_div(DIV_NUMERATOR, diff)
                else:
                    out.expect(kind == "accepted", f"{who}: evolve got {kind}")
                    pool[it.slot] = (it.b, it.c)
        for who in items:
            n = resolved.get(who, 0)
            out.expect(n == 1, f"{who} resolved {n} times")
            if n == 0:
                out.failed += 1
        want = {"z": z}
        for k, x in enumerate(v):
            want[f"v_{k}"] = x
            want[f"d_{k}"] = _wrap64(2 * x + 1)
        want["agg"] = _wrap64(sum(want[f"d_{k}"] for k in range(0, len(v), LIVE_AGG_STRIDE)))
        for i in range(BURST_POOL):
            a, b = pool[i]
            want[f"p_{i}"] = _wrap64(want[f"d_{a}"] + want[f"v_{b}"])
        out.expect(set(final_values) == set(want), "final store has the wrong names")
        for name, x in want.items():
            out.expect(final_values.get(name) == x, f"final {name}={final_values.get(name)}, want {x}")
    out.expect(len(outcome_log) == len(finals) == len(inputs.bursts), "a burst was not drained")
    return out


# ---------------------------------------------------------------------------
# explore_verdict
# ---------------------------------------------------------------------------

def explore_expected(inputs: ExploreInputs) -> dict[str, int]:
    """Every schedule of the scenario must end in this store."""
    a = list(inputs.init_values)
    for i, c in inputs.writes:
        a[i] = c
    want = {f"a{i}": x for i, x in enumerate(a)}
    want["s"] = a[0] + a[1] + a[2]
    want["t"] = 2 * want["s"]
    for j in (1, 2):
        want[f"e_{j}"] = want["t"] + j
    return want
