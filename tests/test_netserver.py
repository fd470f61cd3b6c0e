"""Wire-protocol tests: pure dispatch plus live loopback sessions."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from meerkat.netserver import (
    MeerkatServer,
    ServerConfig,
    ServerState,
    Session,
    handle_message,
)
from meerkat.runtime import initial_config, run_until_quiescent, submit_evolution
from meerkat.syntax import parse_program

LISTING = "var x = 1; def inc1 = x + 1; def inc2 = inc1 + 1;"


def make_state(source: str | None = None) -> ServerState:
    cfg = initial_config()
    if source:
        cfg = submit_evolution(cfg, parse_program(source), "setup")
        cfg, _ = run_until_quiescent(cfg)
    return ServerState(cfg=cfg)


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
        handle_message(state, session, {"type": "unsubscribe", "name": "inc1"})
        assert state.subscribers["inc1"] == set()

    def test_schema_violations_answer_with_errors(self):
        state = make_state()
        session = Session(id=1)
        ((_, reply),) = handle_message(state, session, {"type": "evolve", "req": 1})
        assert reply["type"] == "error" and reply["reason"] == "schema"
        ((_, reply),) = handle_message(state, session, {"nonsense": True})
        assert reply["type"] == "error"

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


# --- live loopback tests ---

class Client:
    def __init__(self, address, role="programmer", version=1):
        self.sock = socket.create_connection(address, timeout=10)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.send({"type": "hello", "version": version, "role": role})

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
        self.sock.close()


@pytest.fixture
def server():
    srv = MeerkatServer(ServerConfig(bind=("127.0.0.1", 0), initial=parse_program(LISTING)))
    srv.start()
    yield srv
    srv.stop()


def test_main_rejects_bad_flags(capsys):
    from meerkat.netserver import main

    assert main(["--bind", "nonsense"]) == 1
    assert main(["--init", "/no/such/file.mk"]) == 1


def test_handshake_and_read(server):
    c = Client(server.address)
    assert c.recv() == {"type": "hello", "version": 1}
    reply = c.request({"type": "read", "name": "inc2"}, req=1)
    assert reply == {"type": "value", "req": 1, "value": 3}
    c.close()


def test_version_mismatch_is_refused(server):
    c = Client(server.address, version=99)
    msg = c.recv()
    assert msg == {"type": "error", "reason": "version"}
    assert c.reader.readline() == ""  # connection closed
    c.close()


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
    srv = MeerkatServer(ServerConfig(bind=("127.0.0.1", 0), open_mode=True))
    srv.start()
    try:
        u = Client(srv.address, role="user")
        u.recv()
        assert u.request({"type": "evolve", "code": "var z = 1;"}, req=1)["type"] == "accepted"
        u.close()
    finally:
        srv.stop()


def test_trace_file_records_steps(tmp_path):
    trace = tmp_path / "trace.jsonl"
    srv = MeerkatServer(
        ServerConfig(
            bind=("127.0.0.1", 0), initial=parse_program(LISTING), trace_path=str(trace)
        )
    )
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


def test_stop_closes_idle_sessions():
    srv = MeerkatServer(ServerConfig(bind=("127.0.0.1", 0)))
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


def test_overflowing_subscriber_reads_the_notice_before_eof():
    srv = MeerkatServer(
        ServerConfig(bind=("127.0.0.1", 0), initial=parse_program(LISTING), buffer_limit=1)
    )
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
