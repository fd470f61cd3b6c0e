"""Wire-protocol tests: pure dispatch plus live loopback sessions."""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import meerkat.netserver
import meerkat.runtime
from meerkat.netserver import (
    MeerkatServer,
    ServerState,
    Session,
    handle_message,
)
from meerkat.runtime import initial_config, run_until_quiescent, submit_do, submit_evolution
from meerkat.syntax import parse_do, parse_program

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"


def make_state(source: str | None = None) -> ServerState:
    cfg = initial_config()
    if source:
        cfg = submit_evolution(cfg, parse_program(source), "setup")
        cfg, _ = run_until_quiescent(cfg)
    return ServerState(cfg=cfg)


def test_the_server_schedule_keeps_no_history():
    # a server's state lives as long as the process: no container it holds
    # may grow with the number of turns it has stepped
    state = make_state(LISTING)
    session = state.sessions[1] = Session(id=1)

    def turns(n: int):
        for k in range(n):
            message = {"type": "do", "req": k, "expr": "do (action { x := x + 1 })"}
            state.turn([(session, message)], lambda sid, payload: None)

    def held() -> dict[str, int]:
        fields = {**vars(state), **{f"cfg.{k}": v for k, v in vars(state.cfg).items()}}
        return {k: len(v) for k, v in fields.items() if isinstance(v, (list, dict, set, tuple))}

    turns(10)
    before = held()
    turns(1_000)
    assert held() == before
    assert state.cfg.store.vars["x"].v == 1 + 1_010


def test_a_sessions_pipelined_writes_commit_in_the_order_sent():
    # `x := 1; x := 2` sent in one batch ends at x = 2, with the replies in
    # request order, turn after turn
    state = make_state("var x = 0;")
    session = state.sessions[1] = Session(id=1)
    for turn in range(40):
        first, second = 2 * turn + 1, 2 * turn + 2
        batch = [(session, {"type": "do", "req": v, "expr": f"do (action {{ x := {v} }})"}) for v in (first, second)]
        sent = []
        state.turn(batch, lambda sid, payload: sent.append(payload))
        assert [(p["type"], p["req"]) for p in sent] == [("executed", first), ("executed", second)]
        assert state.cfg.store.vars["x"].v == second


def test_sessions_interleaved_submissions_commit_in_arrival_order():
    # two sessions alternate writes to eight cells; a third watches them
    # all, and the txn of each change follows the order the writes arrived
    state = make_state(" ".join(f"var v_{k} = 0;" for k in range(8)))
    writers = [state.sessions.setdefault(sid, Session(id=sid)) for sid in (1, 2)]
    watcher = state.sessions[3] = Session(id=3)
    batch = [(watcher, {"type": "subscribe", "name": f"v_{k}"}) for k in range(8)]
    batch += [(writers[k % 2], {"type": "do", "req": k, "expr": f"do (action {{ v_{k} := 1 }})"}) for k in range(8)]
    sent = []
    state.turn(batch, lambda sid, payload: sent.append((sid, payload)))
    txn = {p["name"]: p["txn"] for sid, p in sent if sid == 3 and p["type"] == "changed"}
    assert [txn[f"v_{k}"] for k in range(8)] == sorted(set(txn.values()))
    for w in writers:
        assert [p["req"] for sid, p in sent if sid == w.id] == list(range(w.id - 1, 8, 2))


class TestHandleMessage:
    def test_env_on_empty_server(self):
        state = make_state()
        session = Session(id=1)
        ((sid, reply),) = handle_message(state, session, {"type": "env", "req": 9})
        assert sid == 1
        assert reply["req"] == 9
        assert reply["value"] == {"bindings": {}}

    def test_do_of_non_action_is_rejected_after_stepping(self):
        state = make_state(LISTING)
        session = Session(id=1)
        assert handle_message(state, session, {"type": "do", "req": 1, "expr": "do 1"}) == []
        assert len(state.cfg.q_do) == 1  # enqueued; rejection arrives when stepped

    def test_read_unbound_name(self):
        state = make_state(LISTING)
        session = Session(id=1)
        ((_, reply),) = handle_message(state, session, {"type": "read", "req": 2, "name": "nope"})
        assert reply["type"] == "error"
        assert reply["reason"] == "unbound"

    def test_read_bound_name(self):
        state = make_state(LISTING)
        session = Session(id=1)
        ((_, reply),) = handle_message(state, session, {"type": "read", "req": 3, "name": "inc2"})
        assert reply == {"type": "value", "req": 3, "value": 3}

    def test_dump_shape(self):
        state = make_state(LISTING)
        ((_, reply),) = handle_message(state, Session(id=1), {"type": "dump", "req": 4})
        assert reply["value"]["vars"] == {"x": 1}
        assert reply["value"]["defs"]["inc1"]["expr"] == "x + 1"

    def test_subscribe_bookkeeping(self):
        state = make_state(LISTING)
        session = Session(id=7)
        assert handle_message(state, session, {"type": "subscribe", "name": "inc1"}) == []
        assert state.subscribers["inc1"] == {7}
        other = Session(id=8)
        handle_message(state, other, {"type": "subscribe", "name": "inc1"})
        handle_message(state, session, {"type": "unsubscribe", "name": "inc1"})
        assert state.subscribers["inc1"] == {8}
        # the last subscriber leaving removes the name's entry
        handle_message(state, other, {"type": "unsubscribe", "name": "inc1"})
        handle_message(state, other, {"type": "unsubscribe", "name": "never"})
        assert state.subscribers == {}

    def test_schema_violations_answer_with_errors(self):
        state = make_state()
        session = Session(id=1)
        ((_, reply),) = handle_message(state, session, {"type": "evolve", "req": 1})
        assert reply["type"] == "error" and reply["reason"] == "schema"
        ((_, reply),) = handle_message(state, session, {"nonsense": True})
        assert reply["type"] == "error"
        ((_, reply),) = handle_message(state, session, {"type": 7, "req": "q"})
        assert reply == {"type": "error", "reason": "schema", "req": "q"}

    def test_parse_errors_reject_without_state_change(self):
        state = make_state()
        before = state.cfg
        ((_, reply),) = handle_message(
            state, Session(id=1), {"type": "evolve", "req": 1, "code": "var = ;"}
        )
        assert reply["type"] == "rejected" and reply["reason"] == "parse"
        assert state.cfg is before

    def test_role_enforcement(self):
        state = make_state()
        user = Session(id=1, role="user")
        ((_, reply),) = handle_message(
            state, user, {"type": "evolve", "req": 1, "code": "var a = 1;"}
        )
        assert reply["type"] == "rejected" and reply["reason"] == "role"
        state.open_mode = True
        assert handle_message(state, user, {"type": "evolve", "req": 2, "code": "var a = 1;"}) == []


def test_a_turn_answers_a_read_after_its_sessions_own_submissions():
    # a read, env or dump waits for the submissions its own session sent
    # earlier in the batch; another session's read does not
    state = make_state(LISTING)
    me, other = Session(id=1), Session(id=2)
    state.sessions = {1: me, 2: other}
    sent = []
    state.turn(
        [
            (me, {"type": "do", "req": "do", "expr": "do (action { x := 5 })"}),
            (other, {"type": "read", "req": "other", "name": "x"}),
            (me, {"type": "read", "req": "read", "name": "inc1"}),
            (me, {"type": "dump", "req": "dump"}),
            (me, {"type": "evolve", "req": "evolve", "code": "def inc3 = inc2 + 1;"}),
            (me, {"type": "env", "req": "env"}),
        ],
        lambda sid, payload: sent.append((sid, payload)),
    )
    replies = {p["req"]: p for _, p in sent}
    assert [(sid, p["type"], p["req"]) for sid, p in sent] == [
        (2, "value", "other"),
        (1, "executed", "do"),
        (1, "value", "read"),
        (1, "value", "dump"),
        (1, "accepted", "evolve"),
        (1, "value", "env"),
    ]
    assert replies["other"]["value"] == 1
    assert replies["read"]["value"] == 6
    assert replies["dump"]["value"]["vars"] == {"x": 5}
    assert "inc3" in replies["env"]["value"]["bindings"]


# --- live loopback tests ---

class Client:
    def __init__(self, address, role="programmer"):
        self.sock = socket.create_connection(address, timeout=10)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.send({"type": "hello", "version": 1, "role": role})

    def send(self, payload: dict):
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))

    def send_raw(self, raw: bytes):
        self.sock.sendall(raw)

    def recv(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("closed")
        return json.loads(line)

    def recv_until(self, predicate, limit=50) -> dict:
        for _ in range(limit):
            msg = self.recv()
            if predicate(msg):
                return msg
        raise AssertionError("expected message never arrived")

    def request(self, payload: dict, req):
        self.send(dict(payload, req=req))
        return self.recv_until(lambda m: m.get("req") == req)

    def subscribe(self, *names):
        """Subscribe to `names` and wait until the subscriptions are in effect.

        `subscribe` has no reply, but the server handles a session's lines in
        the order they were sent, so once a later request on this session is
        answered the subscriptions are registered.  Without that round trip
        another session's commit can overtake them.
        """
        for name in names:
            self.send({"type": "subscribe", "name": name})
        self.request({"type": "env"}, req="subscribed")

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture
def server():
    srv = MeerkatServer(bind=("127.0.0.1", 0), initial=parse_program(LISTING))
    srv.start()
    yield srv
    srv.stop()


def test_main_rejects_bad_flags(capsys):
    from meerkat.netserver import main

    # past the last port, a digit int() refuses, more digits than int() takes
    for bind in ("nonsense", "127.0.0.1:99999", "127.0.0.1:\u00b2", "127.0.0.1:" + "9" * 5000):
        assert main(["--bind", bind]) == 1
    assert main(["--init", "/no/such/file.mk"]) == 1


def test_main_says_why_it_refuses_an_initial_program(tmp_path, capsys):
    from meerkat.netserver import main

    path = tmp_path / "bad.mk"
    path.write_text("def a = b;\n")
    assert main(["--bind", "127.0.0.1:0", "--init", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot load {path}: initial program was not accepted: UnboundName: 'b' is not bound at 1:9\n"
    )


def test_handshake_and_read(server):
    c = Client(server.address)
    assert c.recv() == {"type": "hello", "version": 1}
    reply = c.request({"type": "read", "name": "inc2"}, req=1)
    assert reply == {"type": "value", "req": 1, "value": 3}
    c.close()


def test_version_mismatch_is_refused(server):
    # a hello with the wrong version, and a first line that is not JSON at all
    for first_line in (b'{"type": "hello", "version": 99}\n', b"this is not json\n"):
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(first_line)
        reader = sock.makefile("r", encoding="utf-8")
        assert json.loads(reader.readline()) == {"type": "error", "reason": "version"}
        assert reader.readline() == ""  # connection closed
        reader.close()
        sock.close()


def test_evolve_then_read_and_events(server):
    watcher = Client(server.address)
    watcher.recv()
    watcher.subscribe("inc1", "inc2")

    prog = Client(server.address)
    prog.recv()
    assert prog.request({"type": "evolve", "code": "def setx2 = action { x := 2 };"}, req=1)[
        "type"
    ] == "accepted"
    reply = prog.request({"type": "do", "expr": "do setx2"}, req=2)
    assert reply["type"] == "executed"
    changed = {c["name"]: (c["old"], c["new"]) for c in reply["changes"]}
    assert changed["inc1"] == (2, 3) and changed["inc2"] == (3, 4)

    ev1 = watcher.recv_until(lambda m: m.get("type") == "changed" and m["name"] == "inc1")
    assert (ev1["old"], ev1["new"]) == (2, 3)
    ev2 = watcher.recv_until(lambda m: m.get("type") == "changed" and m["name"] == "inc2")
    assert (ev2["old"], ev2["new"]) == (3, 4)
    assert ev1["txn"] == ev2["txn"]
    watcher.close()
    prog.close()


def test_two_clients_evolve_disjoint_programs(server):
    watcher = Client(server.address)
    watcher.recv()
    watcher.subscribe("inc3", "dec1")

    c1 = Client(server.address)
    c1.recv()
    c2 = Client(server.address)
    c2.recv()
    replies = {}

    def evolve(client, code):
        replies[client] = client.request({"type": "evolve", "code": code}, req=1)

    t1 = threading.Thread(target=evolve, args=(c1, "def inc3 = inc2 + 1;"))
    t2 = threading.Thread(target=evolve, args=(c2, "def dec1 = x - 1;"))
    t1.start(), t2.start()
    t1.join(10), t2.join(10)
    assert [replies.get(c, {}).get("type") for c in (c1, c2)] == ["accepted", "accepted"]
    seen = set()
    for _ in range(2):
        ev = watcher.recv_until(lambda m: m.get("type") == "changed")
        seen.add(ev["name"])
    assert seen == {"inc3", "dec1"}
    for c in (watcher, c1, c2):
        c.close()


def test_rejected_evolution_reports_detail(server):
    c = Client(server.address)
    c.recv()
    reply = c.request({"type": "evolve", "code": "var y = x + 1;"}, req=1)
    # a lone unapprovable evolution dies in the queue or is rejected with
    # detail, depending on scheduling; both are terminal
    assert reply["type"] in ("rejected", "queue_died")
    c.close()


def test_do_rejection_and_failure_forms(server):
    c = Client(server.address)
    c.recv()
    r1 = c.request({"type": "do", "expr": "do 1"}, req=1)
    assert r1["type"] == "rejected" and r1["reason"] == "NotAnAction"
    r2 = c.request({"type": "do", "expr": "do (action { x := 1 / 0 })"}, req=2)
    assert r2["type"] == "failed" and r2["reason"] == "DivByZero"
    c.close()


def test_malformed_json_does_not_disturb_others(server):
    bad = Client(server.address)
    bad.recv()
    good = Client(server.address)
    good.recv()
    bad.send_raw(b"this is not json\n")
    assert bad.recv()["reason"] == "parse"
    # the other session still works
    assert good.request({"type": "read", "name": "x"}, req=1)["value"] == 1
    bad.close()
    good.close()


def test_user_role_cannot_evolve_but_can_act(server):
    u = Client(server.address, role="user")
    u.recv()
    r = u.request({"type": "evolve", "code": "var z = 1;"}, req=1)
    assert r["type"] == "rejected" and r["reason"] == "role"
    r2 = u.request({"type": "do", "expr": "do (action { x := 9 })"}, req=2)
    assert r2["type"] == "executed"
    u.close()


def test_open_mode_lets_users_evolve():
    srv = MeerkatServer(bind=("127.0.0.1", 0), open_mode=True)
    srv.start()
    try:
        u = Client(srv.address, role="user")
        u.recv()
        assert u.request({"type": "evolve", "code": "var z = 1;"}, req=1)["type"] == "accepted"
        u.close()
    finally:
        srv.stop()


def raise_once(monkeypatch):
    """Make the runtime's next step raise, as a bug inside it would."""
    real, armed = meerkat.runtime.apply_step, [True]

    def faulty(cfg, step):
        if armed:
            armed.clear()
            raise RuntimeError("a bug inside a step")
        return real(cfg, step)

    monkeypatch.setattr(meerkat.runtime, "apply_step", faulty)


def test_a_fault_inside_a_step_fails_its_submission_and_the_server_keeps_serving(server, monkeypatch):
    a, b = Client(server.address), Client(server.address)
    a.recv(), b.recv()
    raise_once(monkeypatch)
    reply = a.request({"type": "do", "expr": "do (action { x := 5 })"}, req=1)
    assert reply == {"type": "failed", "reason": "internal", "req": 1}
    assert b.request({"type": "read", "name": "inc2"}, req=2)["value"] == 3
    reply = a.request({"type": "do", "expr": "do (action { x := 7 })"}, req=3)
    assert reply["type"] == "executed"
    assert b.request({"type": "read", "name": "inc2"}, req=4)["value"] == 9
    a.close()
    b.close()


def test_a_fault_inside_a_step_answers_every_queued_submission_once(monkeypatch, capsys):
    srv = MeerkatServer(initial=parse_program(LISTING))
    committed = srv.state.cfg
    cfg = submit_evolution(committed, parse_program("def inc3 = inc2 + 1;"), (1, "e"))
    srv.state.cfg = submit_do(cfg, parse_do("do (action { x := 5 })"), (2, "d"))
    sent = []
    monkeypatch.setattr(srv, "_send", lambda sid, payload: sent.append((sid, payload)))
    raise_once(monkeypatch)
    srv._step_to_quiescence()
    assert sent == [
        (1, {"type": "rejected", "reason": "internal", "req": "e",
             "detail": {"reason": "internal", "message": "the server failed while stepping"}}),
        (2, {"type": "failed", "reason": "internal", "req": "d"}),
    ]
    assert srv.state.cfg == committed
    assert "RuntimeError: a bug inside a step" in capsys.readouterr().err


def test_a_fault_building_a_steps_replies_leaves_the_step_uncommitted(monkeypatch, capsys):
    srv = MeerkatServer(initial=parse_program(LISTING))
    committed = srv.state.cfg
    srv.state.cfg = submit_do(committed, parse_do("do (action { x := 5 })"), (2, "d"))
    sent = []
    monkeypatch.setattr(srv, "_send", lambda sid, payload: sent.append((sid, payload)))
    real, armed = meerkat.netserver.outcome_messages, [True]

    def faulty(state, outcome):
        if armed:
            armed.clear()
            raise RuntimeError("a bug building replies")
        return real(state, outcome)

    monkeypatch.setattr(meerkat.netserver, "outcome_messages", faulty)
    srv._step_to_quiescence()
    assert sent == [(2, {"type": "failed", "reason": "internal", "req": "d"})]
    assert srv.state.cfg == committed
    assert srv.state.cfg.store.value_of("x").v == 1
    assert "RuntimeError: a bug building replies" in capsys.readouterr().err

def test_trace_file_records_steps(tmp_path):
    trace = tmp_path / "trace.jsonl"
    srv = MeerkatServer(bind=("127.0.0.1", 0), initial=parse_program(LISTING), trace_path=str(trace))
    srv.start()
    try:
        c = Client(srv.address)
        c.recv()
        assert c.request({"type": "do", "expr": "do (action { x := 3 })"}, req=1)["type"] == "executed"
        c.close()
    finally:
        srv.stop()
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(
        r["kind"] == "do_one" and r["outcome"] == "executed" and r["txn"] == 2 for r in records
    )


def test_subscription_events_arrive_once_per_transaction_in_order(server):
    watcher = Client(server.address)
    watcher.recv()
    watcher.subscribe("inc1")
    actor = Client(server.address)
    actor.recv()
    for k in (5, 9, 13):
        actor.request({"type": "do", "expr": f"do (action {{ x := {k} }})"}, req=k)
    events = []
    for _ in range(3):
        events.append(watcher.recv_until(lambda m: m.get("type") == "changed"))
    assert [e["new"] for e in events] == [6, 10, 14]
    txns = [e["txn"] for e in events]
    assert txns == sorted(txns) and len(set(txns)) == 3
    watcher.close()
    actor.close()


def test_correlation_under_interleaving(server):
    c = Client(server.address)
    c.recv()
    for req in range(1, 11):
        c.send({"type": "do", "req": req, "expr": f"do (action {{ x := {req} }})"})
    seen = set()
    for _ in range(10):
        msg = c.recv_until(lambda m: m.get("type") in ("executed", "failed", "rejected"))
        seen.add(msg["req"])
        assert msg["type"] == "executed"
    assert seen == set(range(1, 11))
    c.close()


def test_a_session_reads_its_own_pipelined_write(server):
    c = Client(server.address)
    c.recv()
    lines = [
        {"type": "do", "req": 1, "expr": "do (action { x := 5 })"},
        {"type": "read", "req": 2, "name": "inc1"},
        {"type": "dump", "req": 3},
    ]
    c.send_raw(b"".join((json.dumps(m) + "\n").encode("utf-8") for m in lines))
    replies = [c.recv() for _ in lines]
    assert [(m["type"], m["req"]) for m in replies] == [("executed", 1), ("value", 2), ("value", 3)]
    assert replies[1]["value"] == 6
    assert replies[2]["value"]["vars"] == {"x": 5}
    c.close()


def test_idle_subscriber_keeps_its_session(server):
    watcher = Client(server.address)
    watcher.recv()
    watcher.subscribe("inc1")
    time.sleep(2.0)  # idle far past any read timeout the server might use
    actor = Client(server.address)
    actor.recv()
    assert actor.request({"type": "do", "expr": "do (action { x := 4 })"}, req=1)["type"] == "executed"
    ev = watcher.recv_until(lambda m: m.get("type") == "changed")
    assert (ev["name"], ev["old"], ev["new"]) == ("inc1", 2, 5)
    assert watcher.request({"type": "read", "name": "inc2"}, req=2)["value"] == 6
    watcher.close()
    actor.close()


def test_a_closed_sessions_subscriptions_leave_no_entry(server):
    names = [f"n{k}" for k in range(2000)]
    leaving = Client(server.address)
    leaving.recv()
    leaving.subscribe("inc1", *names)
    staying = Client(server.address)
    staying.recv()
    staying.subscribe("inc1", "inc2")
    assert all(n in server.state.subscribers for n in names)
    leaving.close()
    deadline = time.monotonic() + 10
    while any(n in server.state.subscribers for n in names) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(n in server.state.subscribers for n in names)
    assert len(server.state.subscribers.get("inc1", ())) == 1
    assert len(server.state.subscribers.get("inc2", ())) == 1
    reply = staying.request({"type": "do", "expr": "do (action { x := 4 })"}, req=1)
    assert reply["type"] == "executed"
    events = [staying.recv_until(lambda m: m.get("type") == "changed") for _ in range(2)]
    assert [(e["name"], e["new"]) for e in events] == [("inc1", 5), ("inc2", 6)]
    staying.close()


def test_stop_closes_idle_sessions():
    srv = MeerkatServer(bind=("127.0.0.1", 0))
    srv.start()
    silent = socket.create_connection(srv.address, timeout=10)  # never says hello
    idle = Client(srv.address)
    # connections are accepted in order, so this hello shows both were accepted
    assert idle.recv() == {"type": "hello", "version": 1}
    srv.stop()
    assert idle.reader.readline() == ""
    assert silent.recv(1) == b""
    idle.close()
    silent.close()


def test_overflowing_subscriber_reads_the_notice_before_eof(monkeypatch):
    monkeypatch.setattr(meerkat.netserver, "BUFFER_LIMIT", 1)
    srv = MeerkatServer(bind=("127.0.0.1", 0), initial=parse_program(LISTING))
    srv.start()
    try:
        watcher = Client(srv.address)
        assert watcher.recv() == {"type": "hello", "version": 1}
        watcher.subscribe("x", "inc1", "inc2")
        actor = Client(srv.address)
        actor.recv()
        # one transaction pushes three events into a one-message buffer
        assert actor.request({"type": "do", "expr": "do (action { x := 5 })"}, req=1)["type"] == "executed"
        notice = watcher.recv_until(lambda m: m.get("type") != "changed")
        assert notice == {"type": "error", "reason": "overflow"}
        assert watcher.reader.readline() == ""
        # the overflow dropped only the watcher
        assert actor.request({"type": "read", "name": "inc2"}, req=2)["value"] == 7
        watcher.close()
        actor.close()
    finally:
        srv.stop()


def test_deep_expressions_are_rejected_and_the_server_keeps_serving(server):
    chain = "+".join(["x"] * 3000)
    c = Client(server.address)
    c.recv()
    other = Client(server.address)
    other.recv()
    c.send({"type": "evolve", "req": 1, "code": f"def d = {chain};"})
    c.send({"type": "do", "req": 2, "expr": f"do (action {{ x := {chain} }})"})
    c.send({"type": "read", "req": 3, "name": "x"})
    # one reply each, in order: nothing else arrives before the read's value
    replies = [c.recv() for _ in range(3)]
    assert [(m["type"], m.get("reason"), m["req"]) for m in replies] == [
        ("rejected", "parse", 1),
        ("rejected", "parse", 2),
        ("value", None, 3),
    ]
    assert other.request({"type": "read", "name": "inc2"}, req=4)["value"] == 3
    c.close()
    other.close()


def test_a_long_integer_literal_is_rejected_and_the_server_keeps_serving(server):
    # 4,301 digits pass CPython's int-string conversion limit, far under
    # LINE_LIMIT; the lexer must refuse the literal before converting it
    c, other = Client(server.address), Client(server.address)
    c.recv(), other.recv()
    reply = c.request({"type": "do", "expr": f"do (action {{ x := {'9' * 4301} }})"}, req=1)
    assert (reply["type"], reply["reason"]) == ("rejected", "parse")
    assert reply["detail"]["message"].endswith("out of 64-bit range")
    assert other.request({"type": "read", "name": "inc2"}, req=2)["value"] == 3
    c.close()
    other.close()


def test_a_megabyte_literal_is_rejected_in_a_reply_under_a_kilobyte(server):
    # a line just under LINE_LIMIT; the error quotes a bounded prefix of
    # the literal, so the reply does not grow with the request
    c = Client(server.address)
    try:
        c.recv()
        for literal in ("9" * 1_000_000, "0" * 1_000_000 + "9223372036854775808"):
            c.send({"type": "do", "req": 1, "expr": f"do (action {{ x := {literal} }})"})
            line = c.reader.readline()
            reply = json.loads(line)
            assert (reply["type"], reply["reason"], reply["req"]) == ("rejected", "parse", 1)
            assert reply["detail"]["message"].endswith(f"... ({len(literal)} digits) out of 64-bit range")
            assert len(line.encode("utf-8")) < 1024
        assert c.request({"type": "read", "name": "inc2"}, req=2)["value"] == 3
    finally:
        c.close()


def test_a_fault_handling_one_request_answers_it_and_the_server_keeps_serving(server, monkeypatch, capsys):
    def faulty(source):
        raise RuntimeError("a bug handling a request")

    monkeypatch.setattr(meerkat.netserver, "parse_do", faulty)
    a, b = Client(server.address), Client(server.address)
    a.recv(), b.recv()
    a.send({"type": "do", "req": 1, "expr": "do (action { x := 5 })"})
    a.send({"type": "read", "req": 2, "name": "x"})
    assert [a.recv() for _ in range(2)] == [
        {"type": "error", "reason": "internal", "req": 1},
        {"type": "value", "req": 2, "value": 1},
    ]
    assert b.request({"type": "read", "name": "inc2"}, req=3)["value"] == 3
    reply = b.request({"type": "evolve", "code": "def inc3 = inc2 + 1;"}, req=4)
    assert reply["type"] == "accepted"
    a.close()
    b.close()
    assert "RuntimeError: a bug handling a request" in capsys.readouterr().err


def test_a_session_that_does_not_read_stalls_no_one():
    # each dump is about 70 kB, so 200 of them fill the socket buffers and
    # most of the replies must wait until the hog's socket is writable again
    program = " ".join(f"var a_rather_long_variable_name_{k:04} = 1000000;" for k in range(2000))
    srv = MeerkatServer(bind=("127.0.0.1", 0), initial=parse_program(program))
    srv.start()
    try:
        hog = socket.socket()
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
        hog.settimeout(10)
        hog.connect(srv.address)
        hog.sendall(b'{"type": "hello", "version": 1}\n')
        hog.sendall(b"".join(b'{"type": "dump", "req": %d}\n' % k for k in range(200)))
        time.sleep(0.2)
        other = Client(srv.address)
        assert other.recv() == {"type": "hello", "version": 1}
        # answered once the dumps are built; the server has written what fits
        # of them and parked the rest
        other.request({"type": "env"}, req="e")
        started = time.monotonic()
        reply = other.request({"type": "do", "expr": "do (action { a_rather_long_variable_name_0007 := 7 })"}, req="d")
        assert reply["type"] == "executed"
        assert other.request({"type": "read", "name": "a_rather_long_variable_name_0007"}, req="r")["value"] == 7
        assert time.monotonic() - started < 5
        other.close()
        reader = hog.makefile("rb")
        assert json.loads(reader.readline()) == {"type": "hello", "version": 1}
        seen = []
        for line in reader:
            msg = json.loads(line)  # a torn line would not parse
            if msg["type"] == "error":
                assert msg == {"type": "error", "reason": "overflow"}
                assert reader.readline() == b""
                break
            assert msg["type"] == "value" and len(msg["value"]["vars"]) == 2000
            seen.append(msg["req"])
            if len(seen) == 200:
                break
        assert seen == list(range(len(seen)))
        reader.close()
        hog.close()
    finally:
        srv.stop()


def test_a_long_line_costs_time_linear_in_its_length(server, monkeypatch):
    # a line limit above the line, so all of it is buffered and parsed
    monkeypatch.setattr(meerkat.netserver, "LINE_LIMIT", 64 << 20)
    c = Client(server.address)
    c.recv()
    chunk = b"x" * (1 << 20)
    started = time.monotonic()
    for _ in range(48):  # rescanning the whole line on every read takes tens of seconds
        c.send_raw(chunk)
    c.send_raw(b"\n")
    assert c.recv() == {"type": "error", "reason": "parse"}
    assert c.request({"type": "read", "name": "x"}, req=1)["value"] == 1
    assert time.monotonic() - started < 10
    c.close()


def _status_kb(pid: int, field: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise AssertionError(f"no {field} in /proc/{pid}/status")


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads the server's memory from /proc")
def test_an_overlong_line_closes_its_session_and_the_server_memory_stays_bounded():
    # the server runs in its own process, so its peak RSS is its own
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
        [sys.executable, "-m", "meerkat.netserver", "--bind", "127.0.0.1:0",
         "--init", str(REPO / "samples" / "listing1.mk")],
        stdout=subprocess.PIPE,
        env=env,
    ) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            line = proc.stdout.readline().decode() if ready else ""
            assert line.startswith("listening on ")
            address = ("127.0.0.1", int(line.rsplit(":", 1)[1]))
            other = Client(address)
            assert other.recv() == {"type": "hello", "version": 1}
            assert other.request({"type": "read", "name": "inc2"}, req="r")["value"] == 3
            peak_before = _status_kb(proc.pid, "VmHWM")
            streamer = Client(address)
            assert streamer.recv() == {"type": "hello", "version": 1}
            chunk, sent, cut = b"x" * (1 << 16), 0, False
            for k in range(640):  # 40 MiB without a newline
                try:
                    streamer.send_raw(chunk)
                except OSError:  # the server closed the stream
                    cut = True
                    break
                sent += len(chunk)
                if k % 8 == 0:  # meanwhile the other session is served
                    do = {"type": "do", "expr": f"do (action {{ x := {k} }})"}
                    assert other.request(do, req=f"d{k}")["type"] == "executed"
                    assert other.request({"type": "read", "name": "x"}, req=f"r{k}")["value"] == k
            assert cut and sent < 40 << 20
            assert streamer.recv() == {"type": "error", "reason": "line_too_long"}
            try:
                assert streamer.reader.readline() == ""
            except ConnectionResetError:
                pass  # the server closed with the rest of the stream unread
            x = other.request({"type": "read", "name": "x"}, req="x")["value"]
            assert other.request({"type": "read", "name": "inc2"}, req="r2")["value"] == x + 2
            # the 1 MiB line limit bounds what one session can make the server hold
            assert _status_kb(proc.pid, "VmHWM") - peak_before < 10 * 1024
            streamer.close()
            other.close()
        finally:
            proc.kill()
            proc.wait(timeout=5)


# --- hostile input at the protocol boundary ---

ANSWERED = ("evolve", "do", "read", "env", "dump")  # each gets one terminal reply

hostile_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=20),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=5), st.integers(), max_size=2),
    st.sampled_from(
        [
            "x",
            "inc2",
            "do (action { x := x + 1 })",
            "do (action { x := 1 / 0 })",
            "do " + "+".join(["x"] * 3000),
            "var fz = 1;",
            "def fz2 = x * 2;",
            "var x = true;",
            "def d = " + "+".join(["x"] * 3000) + ";",
            "def " + "(" * 5000,
        ]
    ),
)
request_fields = st.fixed_dictionaries(
    {"type": st.sampled_from(ANSWERED + ("subscribe", "unsubscribe", "hello", "stats"))},
    optional={"code": hostile_values, "expr": hostile_values, "name": hostile_values},
)
garbage_lines = st.one_of(
    st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
    st.sampled_from([b"\xff\xfe\x00", b"{", b"[" * 50_000, b'{"type": 7, "req": "q"}', b"null", b"  "]),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lines=st.lists(st.one_of(request_fields, garbage_lines), min_size=1, max_size=8),
    cuts=st.lists(st.integers(min_value=1, max_value=4000), max_size=4),
)
def test_hostile_lines_get_one_reply_each_and_stop_no_one(fuzz_server, lines, cuts):
    srv, control = fuzz_server
    c = Client(srv.address)
    assert c.recv() == {"type": "hello", "version": 1}
    expected = set()
    wire = []
    for k, line in enumerate(lines):
        if isinstance(line, dict):
            line = dict(line, req=f"q{k}")
            if line["type"] in ANSWERED:
                expected.add(line["req"])
            line = json.dumps(line).encode("utf-8")
        wire.append(line + b"\n")
    data = b"".join(wire)
    # the same bytes, split across several sends at arbitrary points
    start = 0
    for cut in sorted(cuts):
        c.send_raw(data[start:cut])
        start = max(start, cut)
        time.sleep(0.001)
    c.send_raw(data[start:])
    counts: dict = {}
    for end in ("end1", "end2"):
        # once every request is answered, one more round trip gives a second
        # reply to any of them time to show up
        c.send({"type": "env", "req": end})
        while end not in counts or not expected <= counts.keys():
            msg = c.recv()
            if "req" in msg:
                counts[msg["req"]] = counts.get(msg["req"], 0) + 1
    assert {req: counts[req] for req in expected} == {req: 1 for req in expected}
    c.close()
    assert control.request({"type": "read", "name": "inc2"}, req="control")["type"] == "value"


@pytest.fixture(scope="module")
def fuzz_server():
    srv = MeerkatServer(bind=("127.0.0.1", 0), initial=parse_program(LISTING))
    srv.start()
    control = Client(srv.address)
    assert control.recv() == {"type": "hello", "version": 1}
    yield srv, control
    control.close()
    srv.stop()


# --- the command line ---

REPO = Path(__file__).resolve().parents[1]


def test_cli_serves_on_its_main_thread_and_exits_on_sigint():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
        # perfbench/live.py passes --seed on every launch, so it must still parse
        [sys.executable, "-m", "meerkat.netserver", "--bind", "127.0.0.1:0",
         "--init", str(REPO / "samples" / "listing1.mk"), "--seed", "1"],
        stdout=subprocess.PIPE,
        env=env,
    ) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            line = proc.stdout.readline().decode() if ready else ""
            assert line.startswith("listening on ")
            c = Client(("127.0.0.1", int(line.rsplit(":", 1)[1])))
            assert c.recv() == {"type": "hello", "version": 1}
            assert c.request({"type": "read", "name": "inc2"}, req=1) == {"type": "value", "req": 1, "value": 3}
            tasks = Path(f"/proc/{proc.pid}/task")
            if tasks.is_dir():
                assert len(list(tasks.iterdir())) == 1  # no thread besides the main one
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=5) == 0
            assert c.reader.readline() == ""
            c.close()
        finally:
            if proc.poll() is None:
                proc.kill()


# --- the engine turn across sessions, without sockets ---

TURN_EVOLVES = [
    "var y = 2;", "def inc3 = inc2 + 1;", "def inc1 = x * 2;",  # accepted
    "def a = b;", "def t = x + true;", "def (;",  # ill-typed or unparsable
    "var x = true;", "def inc1 = x < 0;", "var y = true;",  # change a type
]
TURN_DOS = [
    "do (action { x := x + 1 })", "do (action { y := y + 1 })",  # y may be unbound or a Bool
    "do (action { x := 1 / 0 })",  # faults
    "do (action { x := true })", "do 1",  # ill-typed
]
TURN_NAMES = ["x", "inc1", "inc2", "y", "nosuch"]
turn_messages = st.one_of(
    st.sampled_from(TURN_EVOLVES).map(lambda code: {"type": "evolve", "code": code}),
    st.sampled_from(TURN_DOS).map(lambda expr: {"type": "do", "expr": expr}),
    st.sampled_from(TURN_NAMES).map(lambda name: {"type": "read", "name": name}),
    st.sampled_from([{"type": "env"}, {"type": "dump"}]),
    st.tuples(st.sampled_from(["subscribe", "unsubscribe"]), st.sampled_from(TURN_NAMES)).map(
        lambda t: {"type": t[0], "name": t[1]}
    ),
    st.sampled_from(  # answered with req
        [{"type": "do", "expr": 5}, {"type": "read"}, {"type": "bogus"}, {"type": 7}, {"name": "x"}]
    ),
    st.sampled_from([[1, 2], None, ValueError("not JSON")]),  # an error without req
)


def dump_and_read_all(state: ServerState) -> tuple[dict, dict]:
    """The store as one `dump` reports it, and as a `read` of each of its
    names reports it, both through turns of a probe session."""
    probe = state.sessions[0] = Session(id=0)
    out = []
    state.turn([(probe, {"type": "dump", "req": "dump"})], lambda sid, payload: out.append(payload))
    dump = out.pop()["value"]
    values = {**dump["vars"], **{name: cell["c"] for name, cell in dump["defs"].items()}}
    reads = [(probe, {"type": "read", "req": name, "name": name}) for name in values]
    state.turn(reads, lambda sid, payload: out.append(payload))
    del state.sessions[0]
    return values, {payload["req"]: payload["value"] for payload in out}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=2, max_value=3),
    turns=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(min_value=0, max_value=2)),  # a session to close first
            st.lists(st.tuples(st.integers(min_value=0, max_value=2), turn_messages), max_size=8),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_turns_answer_every_request_once_and_push_only_to_subscribers(n, turns):
    sessions = [Session(id=k + 1, role=("programmer", "user", "programmer")[k]) for k in range(n)]
    state = ServerState(cfg=initial_config(parse_program(LISTING)), sessions={s.id: s for s in sessions})
    subs: dict[str, set[int]] = {}  # the subscriptions the batches asked for
    last_txn: dict[int, int] = {}
    pushed = set()
    req = 0
    # each session starts subscribed to one name; a batch may change that
    turns = [(None, [(k, {"type": "subscribe", "name": TURN_NAMES[k]}) for k in range(n)] + turns[0][1])] + turns[1:]
    for close, entries in turns:
        if close is not None and close < n:  # as the socket layer unregisters a session
            state.sessions.pop(sessions[close].id, None)
            for name in list(state.subscribers):
                state.unsubscribe(name, sessions[close].id)
            for who in subs.values():
                who.discard(sessions[close].id)
        batch, expected, untagged, queued_dos = [], {}, Counter(), set()
        # a read, env or dump after its session's own submission steps
        # first: the req it answers, and the subscriptions in force then
        submitted, steps = set(), []
        for k, msg in entries:
            session = sessions[k % n]
            live = session.id in state.sessions
            if not isinstance(msg, dict):
                untagged[session.id] += live
            elif msg.get("type") == "subscribe" and live:
                subs.setdefault(msg["name"], set()).add(session.id)
            elif msg.get("type") == "unsubscribe" and live:
                subs.get(msg["name"], set()).discard(session.id)
            elif msg.get("type") not in ("subscribe", "unsubscribe"):
                req += 1
                msg = dict(msg, req=req)
                if live:
                    expected[req] = session.id
                    if msg.get("type") in ("evolve", "do"):
                        submitted.add(session.id)
                    if msg.get("type") == "do" and isinstance(msg.get("expr"), str):
                        queued_dos.add(req)
                    elif msg.get("type") in ("read", "env", "dump") and session.id in submitted:
                        steps.append((req, {name: set(who) for name, who in subs.items()}))
                        submitted.clear()
            batch.append((session, msg))
        sent = []

        def send(sid, payload):
            assert sid in state.sessions
            sent.append((sid, payload))

        state.turn(batch, send)
        assert not state.cfg.q_r and not state.cfg.q_do
        replies = [(sid, p) for sid, p in sent if p["type"] != "changed"]
        assert sorted((p["req"], sid) for sid, p in replies if "req" in p) == sorted(
            (r, sid) for r, sid in expected.items()
        )
        assert Counter(sid for sid, p in replies if "req" not in p) == +untagged
        assert all(p.get("reason") != "internal" for _, p in replies)
        assert state.subscribers == {name: who for name, who in subs.items() if who}
        for sid in state.sessions:  # a session's queued dos are answered in the order it sent them
            answered = [p["req"] for s, p in replies if s == sid and p.get("req") in queued_dos]
            assert answered == sorted(answered)
        steps.append((None, subs))  # the step that ends the turn
        k = 0
        for sid, p in sent:
            if k < len(steps) - 1 and p.get("req") == steps[k][0]:
                k += 1  # the events before this reply came from step k
            if p["type"] == "changed":
                assert sid in steps[k][1].get(p["name"], ())
                assert p["txn"] >= last_txn.get(sid, 0)
                assert (sid, p["name"], p["txn"]) not in pushed
                last_txn[sid] = p["txn"]
                pushed.add((sid, p["name"], p["txn"]))
        dumped, read = dump_and_read_all(state)
        assert read == dumped
