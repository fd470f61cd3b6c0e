"""Spans and counts recorded around calls into each meerkat layer.

`Tracer.install` replaces a layer's public functions, in every meerkat
module that imported them, with wrappers that record one span per call:
its name, start, duration, self time (duration minus the time covered by
child spans, including the tracer's own work in them), the span that
called it, and the request id it serves.  Spans are kept in memory;
`per_layer` turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import statistics
import sys
import threading
from array import array
from time import perf_counter_ns

# span name -> (module, function names); the name is the metric prefix
LAYER_FUNCTIONS = {
    "syntax.parse": ("meerkat.syntax", ("parse_do", "parse_program")),
    "typesys.check_do": ("meerkat.typesys", ("check_do",)),
    "typesys.infer_program": ("meerkat.typesys", ("infer_program",)),
    "typesys.compatible": ("meerkat.typesys", ("compatible",)),
    "runtime.enabled_steps": ("meerkat.runtime", ("enabled_steps",)),
    "runtime.pair_check": ("meerkat.runtime", ("do_pair_viable", "evolve_pair_viable")),
    "runtime.apply_step": ("meerkat.runtime", ("apply_step",)),
    "store.propagate": ("meerkat.store", ("propagate",)),
    "store.init_cells": ("meerkat.store", ("init_cells",)),
    "store.merge_defs": ("meerkat.store", ("merge_defs",)),
    "simharness.explore": ("meerkat.simharness", ("explore",)),
    "simharness.audit": ("meerkat.simharness", ("validate_wave", "check_config")),
    "simharness.oracle": ("meerkat.simharness", ("check_oracle",)),
    "netserver.handle_message": ("meerkat.netserver", ("handle_message",)),
    "netserver.outcome_messages": ("meerkat.netserver", ("outcome_messages",)),
}

PER_LAYER_METRICS = (
    ("store.propagate.calls", "count", "lower"),
    ("store.propagate.self_ms", "ms", "lower"),
    ("store.propagate.us_p50", "us", "lower"),
    ("store.init_cells.calls", "count", "lower"),
    ("store.init_cells.self_ms", "ms", "lower"),
    ("store.merge_defs.calls", "count", "lower"),
    ("store.merge_defs.self_ms", "ms", "lower"),
    ("store.recomputed_per_txn", "count", "lower"),
    ("store.cells_rewritten_per_txn", "count", "lower"),
    ("store.useful_ratio", "ratio", "higher"),
    ("typesys.check_do.calls", "count", "lower"),
    ("typesys.check_do.self_ms", "ms", "lower"),
    ("typesys.check_do.per_step", "count", "lower"),
    ("typesys.infer_program.calls", "count", "lower"),
    ("typesys.infer_program.self_ms", "ms", "lower"),
    ("typesys.compatible.calls", "count", "lower"),
    ("typesys.compatible.self_ms", "ms", "lower"),
    ("syntax.parse.calls", "count", "lower"),
    ("syntax.parse.self_ms", "ms", "lower"),
    ("syntax.parse.us_p50", "us", "lower"),
    ("runtime.enabled_steps.calls", "count", "lower"),
    ("runtime.enabled_steps.self_ms", "ms", "lower"),
    ("runtime.enabled_steps.ms_p50", "ms", "lower"),
    ("runtime.queue_depth.mean", "count", "lower"),
    ("runtime.options.mean", "count", "lower"),
    ("runtime.pair_hit_ratio", "ratio", "higher"),
    ("runtime.apply_step.calls", "count", "lower"),
    ("runtime.apply_step.self_ms", "ms", "lower"),
    ("runtime.waves_per_do", "count", "lower"),
    ("netserver.inbox_wait_ms_p50", "ms", "lower"),
    ("netserver.engine_ms_p50", "ms", "lower"),
    ("netserver.outbox_wait_ms_p50", "ms", "lower"),
    ("netserver.do.inbox_wait_ms_p50", "ms", "lower"),
    ("netserver.do.engine_ms_p50", "ms", "lower"),
    ("netserver.do.outbox_wait_ms_p50", "ms", "lower"),
    ("netserver.read.inbox_wait_ms_p50", "ms", "lower"),
    ("netserver.read.engine_ms_p50", "ms", "lower"),
    ("netserver.read.outbox_wait_ms_p50", "ms", "lower"),
    ("netserver.engine_batch.mean", "count", "higher"),
    ("netserver.engine_busy_frac", "ratio", "lower"),
    ("netserver.sessions_dropped", "count", "lower"),
    ("simharness.states", "count", "lower"),
    ("simharness.runs", "count", "lower"),
    ("simharness.states_per_s", "1/s", "higher"),
    ("simharness.audit.self_ms", "ms", "lower"),
    ("simharness.oracle.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _who_req(who):
    """The request token inside a submitter tag: the server tags submissions
    with (session id, req); in-process workloads tag them with a string."""
    if isinstance(who, tuple) and len(who) == 2:
        return who[1]
    return who


def _step_rid(args):
    cfg, step = args[0], args[1]
    queue = cfg.q_do if step.kind.startswith("do") else cfg.q_r
    return _who_req(queue[step.i].who) if 0 <= step.i < len(queue) else None


def _outcome_rid(args):
    outcome = args[1]
    whos = getattr(outcome, "who", None) or getattr(outcome, "notified", ())
    return _who_req(whos[0]) if whos else None


def _message_rid(args):
    msg = args[2]
    return msg.get("req") if isinstance(msg, dict) else None


class Tracer:
    """In-memory span store plus the counts that need a call's arguments or
    result.  Columns are parallel arrays indexed by span position."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name = array("q")
        self.sp_start = array("q")
        self.sp_dur = array("q")
        self.sp_self = array("q")
        self.sp_parent = array("q")
        self.sp_rid: list = []
        # counts that need a call's arguments or result: key -> (starts, values)
        self.marks: dict[str, tuple[array, array]] = {}
        # per request token: when the engine started handling it and when
        # its terminal reply left the engine
        self.req_start: dict = {}
        self.req_reply: dict = {}
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._batch = 0

    # -- recording

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def mark(self, key: str, t0: int, value: int = 1) -> None:
        """Count `value` against `key` for the call that started at `t0`."""
        starts, values = self.marks.setdefault(key, (array("q"), array("q")))
        starts.append(t0)
        values.append(value)

    def wrap(self, name: str, fn, rid_of=None, after=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            t0 = perf_counter_ns()
            parent = stack[-1] if stack else None
            rid = rid_of(args) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = self.sp_rid[parent[0]]
            pos = len(self.sp_name)
            self.sp_name.append(name_id)
            self.sp_start.append(t0)
            self.sp_dur.append(0)
            self.sp_self.append(0)
            self.sp_parent.append(parent[0] if parent is not None else -1)
            self.sp_rid.append(rid)
            frame = [pos, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.sp_dur[pos] = t1 - t0
                self.sp_self[pos] = t1 - t0 - frame[1]
                if parent is not None:
                    parent[1] += t1 - t0
            if after is not None:
                after(args, result, t0, t1)
                if parent is not None:
                    parent[1] += perf_counter_ns() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation

    def install(self, server_class=None) -> None:
        """Wrap every function in LAYER_FUNCTIONS wherever meerkat bound it,
        and the server's quiescence driver when a server class is given."""
        hooks = {
            "runtime.enabled_steps": (None, self._after_enabled),
            "runtime.apply_step": (_step_rid, self._after_apply),
            "store.propagate": (None, self._after_wave),
            "store.init_cells": (None, self._after_wave),
            "simharness.explore": (None, self._after_explore),
            "netserver.handle_message": (_message_rid, self._after_message),
            "netserver.outcome_messages": (_outcome_rid, self._after_outcome),
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "meerkat" or n.startswith("meerkat.")]
        for name, (module_name, functions) in LAYER_FUNCTIONS.items():
            home = sys.modules.get(module_name)
            if home is None:
                continue
            rid_of, after = hooks.get(name, (None, None))
            for fn_name in functions:
                original = getattr(home, fn_name)
                traced = self.wrap(name, original, rid_of, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, traced)
        if server_class is not None:
            original = server_class._step_to_quiescence
            self._restore.append((server_class, "_step_to_quiescence", original))
            server_class._step_to_quiescence = self.wrap("netserver.step", original, after=self._after_engine_step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- hooks that need arguments or results

    def _after_enabled(self, args, result, t0, t1):
        cfg = args[0]
        self.mark("queue_depth", t0, len(cfg.q_r) + len(cfg.q_do))
        self.mark("options", t0, len(result))

    def _after_apply(self, args, result, t0, t1):
        kind = args[1].kind
        if kind in ("do_two", "evolve_two"):
            self.mark("pair_steps", t0)
        if kind in ("do_one", "do_two"):
            self.mark("dos_resolved", t0, 1 if kind == "do_one" else 2)

    def _after_wave(self, args, result, t0, t1):
        before, (after, prop) = args[0], result
        if prop.txn is None:
            return
        old = before.defs
        self.mark("txns", t0)
        self.mark("recomputed", t0, len(prop.recomputed))
        self.mark("rewritten", t0, sum(1 for n, cell in after.defs.items() if old.get(n) is not cell))

    def _after_explore(self, args, verdict, t0, t1):
        self.mark("states", t0, verdict.states)
        self.mark("runs", t0, verdict.runs)
        self.mark("explore_ns", t0, t1 - t0)

    def _after_message(self, args, replies, t0, t1):
        self._batch += 1
        req = _message_rid(args)
        if req is not None:
            self.req_start.setdefault(req, t0)
        for _sid, payload in replies:
            if "req" in payload:
                self.req_reply.setdefault(payload["req"], t1)

    def _after_outcome(self, args, messages, t0, t1):
        for _sid, payload in messages:
            if payload.get("type") != "changed" and "req" in payload:
                self.req_reply.setdefault(payload["req"], t1)

    def _after_engine_step(self, args, result, t0, t1):
        self.mark("engine_batches", t0)
        self.mark("engine_batch_msgs", t0, self._batch)
        self._batch = 0

    # -- export

    def export(self) -> dict:
        """Everything `per_layer` needs; the span columns stay arrays."""
        return {
            "names": self.names,
            "name": self.sp_name,
            "start": self.sp_start,
            "dur": self.sp_dur,
            "self": self.sp_self,
            "parent": self.sp_parent,
            "rid": self.sp_rid,
            "marks": {k: {"start": st, "value": v} for k, (st, v) in self.marks.items()},
            "req_start": self.req_start,
            "req_reply": self.req_reply,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: dict, client: dict | None = None) -> dict[str, float]:
    """Per-layer metrics from exported spans.

    `client` holds what only the load generator sees: per request token the
    send and receive times and the request kind, the measured window and
    the sessions it saw dropped; spans that start before the window (start-up, the initial
    program) are left out.  A layer a workload does not exercise reads 0.
    """
    names = spans["names"]
    since = client["window"][0] if client is not None else 0
    calls = {n: 0 for n in names}
    self_ns = {n: 0 for n in names}
    durs: dict[str, list[int]] = {n: [] for n in names}
    for i, st, d, s in zip(spans["name"], spans["start"], spans["dur"], spans["self"]):
        if st < since:
            continue
        n = names[i]
        calls[n] += 1
        self_ns[n] += s
        durs[n].append(d)
    counts = {
        key: sum(v for st, v in zip(mark["start"], mark["value"]) if st >= since)
        for key, mark in spans["marks"].items()
    }

    def c(key):
        return calls.get(key, 0)

    def ms(key):
        return self_ns.get(key, 0) / 1e6

    def p50(key, scale):
        values = durs.get(key)
        return statistics.median(values) / scale if values else 0.0

    m = {
        "store.propagate.calls": c("store.propagate"),
        "store.propagate.self_ms": ms("store.propagate"),
        "store.propagate.us_p50": p50("store.propagate", 1e3),
        "store.init_cells.calls": c("store.init_cells"),
        "store.init_cells.self_ms": ms("store.init_cells"),
        "store.merge_defs.calls": c("store.merge_defs"),
        "store.merge_defs.self_ms": ms("store.merge_defs"),
        "store.recomputed_per_txn": _ratio(counts.get("recomputed", 0), counts.get("txns", 0)),
        "store.cells_rewritten_per_txn": _ratio(counts.get("rewritten", 0), counts.get("txns", 0)),
        "store.useful_ratio": _ratio(counts.get("recomputed", 0), counts.get("rewritten", 0)),
        "typesys.check_do.calls": c("typesys.check_do"),
        "typesys.check_do.self_ms": ms("typesys.check_do"),
        "typesys.check_do.per_step": _ratio(c("typesys.check_do"), c("runtime.apply_step")),
        "typesys.infer_program.calls": c("typesys.infer_program"),
        "typesys.infer_program.self_ms": ms("typesys.infer_program"),
        "typesys.compatible.calls": c("typesys.compatible"),
        "typesys.compatible.self_ms": ms("typesys.compatible"),
        "syntax.parse.calls": c("syntax.parse"),
        "syntax.parse.self_ms": ms("syntax.parse"),
        "syntax.parse.us_p50": p50("syntax.parse", 1e3),
        "runtime.enabled_steps.calls": c("runtime.enabled_steps"),
        "runtime.enabled_steps.self_ms": ms("runtime.enabled_steps"),
        "runtime.enabled_steps.ms_p50": p50("runtime.enabled_steps", 1e6),
        "runtime.queue_depth.mean": _ratio(counts.get("queue_depth", 0), c("runtime.enabled_steps")),
        "runtime.options.mean": _ratio(counts.get("options", 0), c("runtime.enabled_steps")),
        "runtime.pair_hit_ratio": _ratio(counts.get("pair_steps", 0), c("runtime.pair_check")),
        "runtime.apply_step.calls": c("runtime.apply_step"),
        "runtime.apply_step.self_ms": ms("runtime.apply_step"),
        "runtime.waves_per_do": _ratio(c("store.propagate"), counts.get("dos_resolved", 0)),
        "netserver.engine_batch.mean": _ratio(counts.get("engine_batch_msgs", 0), counts.get("engine_batches", 0)),
        "netserver.engine_busy_frac": 0.0,
        "netserver.sessions_dropped": 0,
        "simharness.states": counts.get("states", 0),
        "simharness.runs": counts.get("runs", 0),
        "simharness.states_per_s": _ratio(counts.get("states", 0), counts.get("explore_ns", 0) / 1e9),
        "simharness.audit.self_ms": ms("simharness.audit"),
        "simharness.oracle.self_ms": ms("simharness.oracle"),
    }
    # each request's time split at the server: waiting to be handled, in the
    # engine until its terminal reply is built, and waiting to reach the client
    stages = {}
    for req, (sent, received, kind) in (client or {}).get("requests", {}).items():
        start, reply = spans["req_start"].get(req), spans["req_reply"].get(req)
        if start is not None and reply is not None:
            for group in ("netserver", f"netserver.{kind}"):
                for key, ns in (("inbox_wait", start - sent), ("engine", reply - start), ("outbox_wait", received - reply)):
                    stages.setdefault(f"{group}.{key}_ms_p50", []).append(ns)
    for group in ("netserver", "netserver.do", "netserver.read"):
        for key in ("inbox_wait", "engine", "outbox_wait"):
            values = stages.get(f"{group}.{key}_ms_p50")
            m[f"{group}.{key}_ms_p50"] = statistics.median(values) / 1e6 if values else 0.0
    if client is not None:
        lo, hi = client["window"]
        busy = 0
        for i, st, d, parent in zip(spans["name"], spans["start"], spans["dur"], spans["parent"]):
            if parent == -1 and names[i] in ("netserver.handle_message", "netserver.step") and lo <= st <= hi:
                busy += d
        m["netserver.engine_busy_frac"] = _ratio(busy, hi - lo)
        m["netserver.sessions_dropped"] = client["dropped"]
    return m
