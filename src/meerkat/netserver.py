"""Multi-client coordinator service.

Transport: TCP, UTF-8, one JSON object per LF-terminated line.  A client's
first line must be ``{"type": "hello", "version": 1}`` (an optional
``"role"`` of ``"programmer"`` or ``"user"`` defaults to programmer); the
server answers with the same hello or refuses the connection.

Requests (``req`` is a client-chosen correlation token echoed in the
terminal response):

    {"type": "evolve", "req": s, "code": "<declarations>"}
    {"type": "do", "req": s, "expr": "do <expr>"}
    {"type": "read", "req": s, "name": n}
    {"type": "subscribe", "name": n}      (no reply)
    {"type": "unsubscribe", "name": n}    (no reply)
    {"type": "env", "req": s}
    {"type": "dump", "req": s}

Responses and pushed events:

    {"type": "accepted", "req": s}
    {"type": "rejected", "req": s, "reason": str, "detail": {...}}
    {"type": "executed", "req": s, "changes": [{"name", "old", "new"}]}
    {"type": "failed", "req": s, "reason": str}
    {"type": "value", "req": s, "value": json}
    {"type": "changed", "name": n, "old": v, "new": v, "txn": t}
    {"type": "queue_died", "req": s}
    {"type": "error", "reason": str, ...}

All configuration changes funnel through one engine thread: submissions
are queued into the runtime config and a seeded random schedule drives the
stepper to quiescence after each message batch, so clients observe only
committed transactions, in commit order.

Every session's lines pass through one FIFO inbox, so a session's messages
are handled in the order it sent them.  ``subscribe`` has no reply; it is
in effect once a later request on the same session has been answered.

A session is closed only at EOF, on a refused hello (a version mismatch),
or when its outbound buffer overflows, never for being idle.  Slow
subscribers never block stepping: an overflowing session loses its
backlog, is sent ``{"type": "error", "reason": "overflow"}`` and is closed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import queue
import socket
import sys
import threading
from dataclasses import dataclass, field

from .runtime import (
    Accepted,
    ActionFailed,
    Config,
    Executed,
    QueueDied,
    RandomSchedule,
    Rejected,
    StepOutcome,
    apply_step,
    enabled_steps,
    initial_config,
    outcome_to_json,
    run_until_quiescent,
    submit_do,
    submit_evolution,
)
from .store import EvalError, change_to_json, snapshot_read, store_to_json, value_to_json
from .syntax import ParseError, Program, parse_do, parse_program
from .typesys import TypeCheckError

PROTOCOL_VERSION = 1
DEFAULT_BIND = ("127.0.0.1", 7788)


@dataclass
class ServerConfig:
    bind: tuple[str, int] = DEFAULT_BIND
    initial: Program | None = None
    open_mode: bool = False  # let user-role sessions evolve code
    trace_path: str | None = None
    seed: int = 0
    buffer_limit: int = 256  # queued outbound messages per session


@dataclass
class Session:
    id: int
    role: str = "programmer"
    subscriptions: set[str] = field(default_factory=set)
    outbox: queue.Queue = field(default_factory=lambda: queue.Queue())
    sock: socket.socket | None = None


@dataclass
class ServerState:
    """Everything the engine thread owns."""

    cfg: Config
    open_mode: bool = False
    sessions: dict[int, Session] = field(default_factory=dict)
    subscribers: dict[str, set[int]] = field(default_factory=dict)


def _rejection_payload(req, report) -> dict:
    if isinstance(report, TypeCheckError):
        return {"type": "rejected", "req": req, "reason": report.reason, "detail": report.to_json()}
    if isinstance(report, EvalError):
        return {"type": "rejected", "req": req, "reason": report.reason, "detail": report.to_json()}
    # a compatibility report
    detail = report.to_json() if hasattr(report, "to_json") else {"message": str(report)}
    reasons = detail.get("violations") or [{"kind": "incompatible"}]
    return {"type": "rejected", "req": req, "reason": reasons[0]["kind"], "detail": detail}


def handle_message(state: ServerState, session: Session, msg: dict) -> list[tuple[int, dict]]:
    """Dispatch one request; returns (session-id, payload) replies.

    Submissions only enqueue; the caller is responsible for stepping the
    runtime afterwards.  Never raises on bad input — schema problems
    produce error replies for the offending session alone.
    """
    if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
        return [(session.id, {"type": "error", "reason": "schema"})]
    kind = msg["type"]
    req = msg.get("req")
    sid = session.id
    if kind == "evolve":
        if not isinstance(msg.get("code"), str):
            return [(sid, {"type": "error", "reason": "schema", "req": req})]
        if session.role != "programmer" and not state.open_mode:
            return [(sid, {"type": "rejected", "req": req, "reason": "role",
                           "detail": {"message": "user sessions may not evolve code"}})]
        try:
            program = parse_program(msg["code"])
        except ParseError as err:
            return [(sid, {"type": "rejected", "req": req, "reason": "parse", "detail": err.to_json()})]
        state.cfg = submit_evolution(state.cfg, program, (sid, req))
        return []
    if kind == "do":
        if not isinstance(msg.get("expr"), str):
            return [(sid, {"type": "error", "reason": "schema", "req": req})]
        try:
            stmt = parse_do(msg["expr"])
        except ParseError as err:
            return [(sid, {"type": "rejected", "req": req, "reason": "parse", "detail": err.to_json()})]
        state.cfg = submit_do(state.cfg, stmt, (sid, req))
        return []
    if kind == "read":
        name = msg.get("name")
        if not isinstance(name, str):
            return [(sid, {"type": "error", "reason": "schema", "req": req})]
        if name not in state.cfg.store:
            return [(sid, {"type": "error", "reason": "unbound", "req": req, "name": name})]
        value = snapshot_read(state.cfg.store, [name])[name]
        return [(sid, {"type": "value", "req": req, "value": value_to_json(value)})]
    if kind == "subscribe":
        name = msg.get("name")
        if isinstance(name, str):
            session.subscriptions.add(name)
            state.subscribers.setdefault(name, set()).add(sid)
        return []
    if kind == "unsubscribe":
        name = msg.get("name")
        if isinstance(name, str):
            session.subscriptions.discard(name)
            state.subscribers.get(name, set()).discard(sid)
        return []
    if kind == "env":
        return [(sid, {"type": "value", "req": req, "value": {"bindings": state.cfg.env.to_json()}})]
    if kind == "dump":
        return [(sid, {"type": "value", "req": req, "value": store_to_json(state.cfg.store)})]
    return [(sid, {"type": "error", "reason": "unknown_type", "req": req})]


def outcome_messages(state: ServerState, outcome: StepOutcome) -> list[tuple[int, dict]]:
    """Terminal responses and subscription events for one step outcome."""
    out: list[tuple[int, dict]] = []

    def terminal(who, payload: dict):
        if isinstance(who, tuple) and len(who) == 2 and isinstance(who[0], int):
            sid, req = who
            out.append((sid, dict(payload, req=req)))

    if isinstance(outcome, Accepted):
        for who in outcome.who:
            terminal(who, {"type": "accepted"})
    elif isinstance(outcome, Rejected):
        if outcome.final:
            for who in outcome.notified:
                if isinstance(who, tuple) and len(who) == 2 and isinstance(who[0], int):
                    out.append((who[0], _rejection_payload(who[1], outcome.report)))
    elif isinstance(outcome, Executed):
        changes = [change_to_json(c) for c in outcome.changes]
        for who in outcome.who:
            terminal(who, {"type": "executed", "changes": changes})
    elif isinstance(outcome, ActionFailed):
        err = outcome.error
        if isinstance(err, TypeCheckError):
            payload = {"type": "rejected", "reason": err.reason, "detail": err.to_json()}
        else:
            payload = {"type": "failed", "reason": getattr(err, "reason", "runtime")}
        for who in outcome.notified:
            terminal(who, payload)
    elif isinstance(outcome, QueueDied):
        for who in outcome.notified:
            terminal(who, {"type": "queue_died"})
    # push committed changes to subscribers
    if isinstance(outcome, (Accepted, Executed)) and outcome.txn is not None:
        for c in outcome.changes:
            for sid in sorted(state.subscribers.get(c.name, ())):
                out.append((sid, {"type": "changed", **change_to_json(c), "txn": outcome.txn}))
    return out


class MeerkatServer:
    """Threaded TCP server around one runtime configuration."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        cfg = initial_config()
        if self.config.initial is not None:
            cfg = submit_evolution(cfg, self.config.initial, ("__init__", None))
            cfg, outcomes = run_until_quiescent(cfg, RandomSchedule(self.config.seed))
            if not any(isinstance(o, Accepted) for o in outcomes):
                raise ValueError(f"initial program rejected: {outcomes}")
        self.state = ServerState(cfg=cfg, open_mode=self.config.open_mode)
        self.schedule = RandomSchedule(self.config.seed)
        self.inbox: queue.Queue = queue.Queue()
        self.listener: socket.socket | None = None
        self.threads: list[threading.Thread] = []
        self.stop_event = threading.Event()
        self.trace_fh = None
        self._session_ids = itertools.count(1)
        self._conns: set[socket.socket] = set()  # accepted and not yet closed
        self._lock = threading.Lock()  # guards the sessions registry and _conns

    # -- lifecycle

    def start(self):
        self.listener = socket.create_server(self.config.bind)
        self.listener.settimeout(0.2)
        if self.config.trace_path:
            self.trace_fh = open(self.config.trace_path, "a", encoding="utf-8")
        for target in (self._accept_loop, self._engine_loop):
            t = threading.Thread(target=target, daemon=True)
            t.start()
            self.threads.append(t)

    @property
    def address(self) -> tuple[str, int]:
        return self.listener.getsockname()

    def stop(self):
        self.stop_event.set()
        for t in self.threads:
            t.join(timeout=2)
        with self._lock:
            conns = list(self._conns)
        # each woken reader thread then drops its own session
        for sock in conns:
            self._close_connection(sock)
        if self.listener:
            self.listener.close()
        if self.trace_fh:
            self.trace_fh.close()

    def wait(self):
        try:
            while not self.stop_event.wait(0.5):
                pass
        except KeyboardInterrupt:
            pass

    # -- socket handling

    def _accept_loop(self):
        while not self.stop_event.is_set():
            try:
                sock, _addr = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                self._conns.add(sock)
            t = threading.Thread(target=self._serve_connection, args=(sock,), daemon=True)
            t.start()

    def _serve_connection(self, sock: socket.socket):
        # Plain blocking reads: an idle session stays open.  (After one read
        # timeout a makefile reader refuses every further read.)  Stop and
        # overflow wake a blocked read through _close_connection.
        sock.settimeout(None)
        with sock.makefile("r", encoding="utf-8", errors="replace") as reader:
            hello = self._read_line(reader)
            if hello is None:
                self._close_connection(sock)
                return
            try:
                doc = json.loads(hello)
            except json.JSONDecodeError:
                doc = None
            if (
                not isinstance(doc, dict)
                or doc.get("type") != "hello"
                or doc.get("version") != PROTOCOL_VERSION
            ):
                try:
                    sock.sendall(
                        (json.dumps({"type": "error", "reason": "version"}) + "\n").encode("utf-8")
                    )
                except OSError:
                    pass
                self._close_connection(sock)
                return
            role = doc.get("role") if doc.get("role") in ("programmer", "user") else "programmer"
            session = Session(id=next(self._session_ids), role=role, sock=sock)
            with self._lock:
                self.state.sessions[session.id] = session
            session.outbox.put({"type": "hello", "version": PROTOCOL_VERSION})
            writer = threading.Thread(target=self._writer_loop, args=(session,), daemon=True)
            writer.start()
            while not self.stop_event.is_set():
                line = self._read_line(reader)
                if line is None:
                    break
                if not line.strip():
                    continue
                try:
                    msg = json.loads(line)
                except json.JSONDecodeError:
                    session.outbox.put({"type": "error", "reason": "parse"})
                    continue
                self.inbox.put((session.id, msg))
        self._drop_session(session)

    @staticmethod
    def _read_line(reader) -> str | None:
        """The next line, or None at EOF or once the socket is shut down."""
        try:
            line = reader.readline()
        except OSError:
            return None
        return line or None

    def _writer_loop(self, session: Session):
        # None in the outbox means: close the connection after what precedes it
        while not self.stop_event.is_set():
            try:
                payload = session.outbox.get(timeout=0.2)
            except queue.Empty:
                continue
            if payload is None:
                self._close_connection(session.sock)
                break
            try:
                session.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            except OSError:
                break

    def _unregister(self, session: Session):
        """After this the engine sends the session nothing more."""
        with self._lock:
            self.state.sessions.pop(session.id, None)
            for subs in self.state.subscribers.values():
                subs.discard(session.id)

    def _drop_session(self, session: Session):
        self._unregister(session)
        session.outbox.put(None)  # ends the writer
        self._close_connection(session.sock)

    def _close_connection(self, sock: socket.socket):
        """Shut the socket down, which wakes a reader blocked in recv and a
        writer blocked in sendall on it, then close it."""
        with self._lock:
            self._conns.discard(sock)
        with contextlib.suppress(OSError):
            sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            sock.close()

    def _send(self, sid: int, payload: dict):
        with self._lock:
            session = self.state.sessions.get(sid)
        if session is None:
            return
        if session.outbox.qsize() >= self.config.buffer_limit:
            # a subscriber that cannot keep up must not stall the stepper:
            # drop its backlog, and its writer sends the notice and closes
            self._unregister(session)
            with contextlib.suppress(queue.Empty):
                while True:
                    session.outbox.get_nowait()
            session.outbox.put({"type": "error", "reason": "overflow"})
            session.outbox.put(None)
            return
        session.outbox.put(payload)

    # -- the engine

    def _engine_loop(self):
        while not self.stop_event.is_set():
            try:
                sid, msg = self.inbox.get(timeout=0.2)
            except queue.Empty:
                continue
            batch = [(sid, msg)]
            while True:
                try:
                    batch.append(self.inbox.get_nowait())
                except queue.Empty:
                    break
            for sid, msg in batch:
                with self._lock:
                    session = self.state.sessions.get(sid)
                if session is None:
                    continue
                for target, payload in handle_message(self.state, session, msg):
                    self._send(target, payload)
            self._step_to_quiescence()

    def _step_to_quiescence(self):
        while True:
            options = enabled_steps(self.state.cfg)
            if not options:
                return
            step = self.schedule.choose(self.state.cfg, options)
            self.state.cfg, outcomes = apply_step(self.state.cfg, step)
            for outcome in outcomes:
                for sid, payload in outcome_messages(self.state, outcome):
                    self._send(sid, payload)
                if self.trace_fh:
                    record = dict(step.to_json(), **outcome_to_json(outcome))
                    self.trace_fh.write(json.dumps(record) + "\n")
                    self.trace_fh.flush()


def serve(config: ServerConfig) -> None:
    """Run a server until interrupted."""
    server = MeerkatServer(config)
    server.start()
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.wait()
    finally:
        server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="meerkat-server", description="Meerkat coordinator service")
    parser.add_argument("--bind", default="127.0.0.1:7788", metavar="HOST:PORT")
    parser.add_argument("--init", metavar="FILE.mk", help="program to evolve before accepting clients")
    parser.add_argument("--open", action="store_true", help="let user-role sessions evolve code")
    parser.add_argument("--trace", metavar="FILE", help="append step outcomes as JSON lines")
    parser.add_argument("--seed", type=int, default=0, help="schedule seed")
    args = parser.parse_args(argv)
    host, _, port_text = args.bind.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"error: --bind wants HOST:PORT, got {args.bind!r}", file=sys.stderr)
        return 1
    initial = None
    if args.init:
        try:
            with open(args.init, "r", encoding="utf-8") as fh:
                initial = parse_program(fh.read())
        except (OSError, ParseError) as err:
            print(f"error: cannot load {args.init}: {err}", file=sys.stderr)
            return 1
    config = ServerConfig(
        bind=(host, int(port_text)),
        initial=initial,
        open_mode=args.open,
        trace_path=args.trace,
        seed=args.seed,
    )
    try:
        serve(config)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
