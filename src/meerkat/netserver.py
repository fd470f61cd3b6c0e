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

One thread runs one ``selectors`` loop.  Each turn it accepts connections,
reads every ready session, handles the batch of lines in arrival order,
steps the runtime to quiescence with a seeded random schedule, and then
writes the replies with non-blocking sends; what a socket cannot take yet
waits until it is writable.  So clients observe only committed transactions,
in commit order.  Session sockets set ``TCP_NODELAY``: a small reply is not
held back behind an unacknowledged one.

A session's messages are handled in the order it sent them.  ``subscribe``
has no reply; it is in effect once a later request on the same session has
been answered.

A session is closed only at EOF, on a refused hello (a version mismatch),
when its outbound buffer overflows or when it sends an overlong line, never
for being idle.  Slow subscribers never block stepping: a session with
``BUFFER_LIMIT`` unsent messages keeps only the first (it may be partly
sent), is sent ``{"type": "error", "reason": "overflow"}`` and is closed.
A session whose unfinished line grows past ``LINE_LIMIT`` bytes is sent
``{"type": "error", "reason": "line_too_long"}`` the same way, so no client
can make the server buffer more than that.

A fault inside a step (a bug, not bad input) is written to stderr; every
submission still queued gets one ``failed`` or final ``rejected`` reply
with reason ``internal``, and the loop keeps serving the last committed
state.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import selectors
import socket
import sys
import threading
from collections import deque
from dataclasses import dataclass, field, replace

from .runtime import (
    Accepted,
    ActionFailed,
    Config,
    Executed,
    QueueDied,
    RandomSchedule,
    Rejected,
    StepOutcome,
    initial_config,
    outcome_to_json,
    run_steps,
    run_until_quiescent,
    submit_do,
    submit_evolution,
)
from .store import EvalError, change_to_json, store_to_json, value_to_json
from .syntax import ParseError, Program, parse_do, parse_program
from .typesys import CompatReport, TypeCheckError

PROTOCOL_VERSION = 1
DEFAULT_BIND = ("127.0.0.1", 7788)
LINE_LIMIT = 1 << 20  # bytes of one session's unfinished line
BUFFER_LIMIT = 256  # unsent outbound messages per session


@dataclass
class ServerConfig:
    bind: tuple[str, int] = DEFAULT_BIND
    initial: Program | None = None
    open_mode: bool = False  # let user-role sessions evolve code
    trace_path: str | None = None
    seed: int = 0


@dataclass(eq=False)
class Session:
    id: int | None  # None while the hello is awaited
    role: str = "programmer"
    sock: socket.socket | None = None
    inbuf: bytearray = field(default_factory=bytearray)  # bytes after the last newline
    outbox: deque[bytes] = field(default_factory=deque)  # unsent lines, the first maybe in part
    closing: bool = False  # drop its input; close once the outbox is sent


@dataclass
class ServerState:
    """Everything the engine owns."""

    cfg: Config
    open_mode: bool = False
    sessions: dict[int, Session] = field(default_factory=dict)
    subscribers: dict[str, set[int]] = field(default_factory=dict)  # no empty sets

    def unsubscribe(self, name: str, sid: int):
        subs = self.subscribers.get(name, set())
        subs.discard(sid)
        if not subs:
            self.subscribers.pop(name, None)


def _rejection_payload(report: TypeCheckError | EvalError | CompatReport) -> dict:
    detail = report.to_json()
    reason = getattr(report, "reason", None) or detail["violations"][0]["kind"]
    return {"type": "rejected", "reason": reason, "detail": detail}


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
    if kind in ("evolve", "do"):
        evolve = kind == "evolve"
        source = msg.get("code" if evolve else "expr")
        if not isinstance(source, str):
            return [(sid, {"type": "error", "reason": "schema", "req": req})]
        if evolve and session.role != "programmer" and not state.open_mode:
            return [(sid, {"type": "rejected", "req": req, "reason": "role",
                           "detail": {"message": "user sessions may not evolve code"}})]
        try:
            parsed = parse_program(source) if evolve else parse_do(source)
        except ParseError as err:
            return [(sid, {"type": "rejected", "req": req, "reason": "parse", "detail": err.to_json()})]
        submit = submit_evolution if evolve else submit_do
        state.cfg = submit(state.cfg, parsed, (sid, req))
        return []
    if kind == "read":
        name = msg.get("name")
        if not isinstance(name, str):
            return [(sid, {"type": "error", "reason": "schema", "req": req})]
        if name not in state.cfg.store:
            return [(sid, {"type": "error", "reason": "unbound", "req": req, "name": name})]
        value = value_to_json(state.cfg.store.value_of(name))
        return [(sid, {"type": "value", "req": req, "value": value})]
    if kind == "subscribe":
        name = msg.get("name")
        if isinstance(name, str):
            state.subscribers.setdefault(name, set()).add(sid)
        return []
    if kind == "unsubscribe":
        name = msg.get("name")
        if isinstance(name, str):
            state.unsubscribe(name, sid)
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
                terminal(who, _rejection_payload(outcome.report))
    elif isinstance(outcome, Executed):
        changes = [change_to_json(c) for c in outcome.changes]
        for who in outcome.who:
            terminal(who, {"type": "executed", "changes": changes})
    elif isinstance(outcome, ActionFailed):
        err = outcome.error
        if isinstance(err, TypeCheckError):
            payload = _rejection_payload(err)
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
    """TCP server around one runtime configuration, served by one loop."""

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
        self.listener: socket.socket | None = None
        self.selector = selectors.DefaultSelector()
        self.thread: threading.Thread | None = None
        self.trace_fh = None
        self._session_ids = itertools.count(1)
        self._wake_r = self._wake_w = None  # stop() writes to _wake_w
        self._unsent: dict[Session, None] = {}  # sessions to flush after the batch

    # -- lifecycle

    def listen(self):
        self.listener = socket.create_server(self.config.bind)
        self.listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self.selector.register(self.listener, selectors.EVENT_READ)
        self.selector.register(self._wake_r, selectors.EVENT_READ)
        if self.config.trace_path:
            self.trace_fh = open(self.config.trace_path, "a", encoding="utf-8")

    def start(self):
        """Listen, and run the loop on a background thread."""
        self.listen()
        self.thread = threading.Thread(target=self.run, daemon=True)
        self.thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.listener.getsockname()

    def stop(self):
        """End the loop, which closes every connection, and wait for it."""
        with contextlib.suppress(OSError):
            self._wake_w.send(b"\0")
        if self.thread is not None:
            self.thread.join()

    def run(self):
        """Serve until stop() or Ctrl-C, then close every socket."""
        try:
            while True:
                batch = []
                for key, events in self.selector.select():
                    if key.fileobj is self._wake_r:
                        return
                    if key.fileobj is self.listener:
                        self._accept()
                        continue
                    if events & selectors.EVENT_WRITE:
                        self._unsent[key.data] = None
                    if events & selectors.EVENT_READ:
                        batch += self._receive(key.data)
                for session, msg in batch:
                    if self.state.sessions.get(session.id) is not session:
                        continue  # dropped earlier in this batch
                    if isinstance(msg, Exception):
                        replies = [(session.id, {"type": "error", "reason": "parse"})]
                    else:
                        replies = handle_message(self.state, session, msg)
                    for sid, payload in replies:
                        self._send(sid, payload)
                if batch:
                    self._step_to_quiescence()
                for session in list(self._unsent):
                    self._flush(session)
        finally:
            for key in list(self.selector.get_map().values()):
                key.fileobj.close()
            self.selector.close()
            self._wake_w.close()
            if self.trace_fh:
                self.trace_fh.close()

    # -- sockets

    def _accept(self):
        try:
            sock, _addr = self.listener.accept()
        except OSError:  # taken already, or out of descriptors
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.selector.register(sock, selectors.EVENT_READ, Session(id=None, sock=sock))

    def _receive(self, session: Session) -> list[tuple[Session, object]]:
        """Read from a session; return its complete lines, parsed, except the
        hello, which is answered here."""
        try:
            data = session.sock.recv(65536)
        except BlockingIOError:
            return []
        except OSError:
            data = b""
        if not data:
            self._close(session)
            return []
        if session.closing:
            return []  # its input is dropped
        session.inbuf += data
        if b"\n" not in data:  # so a long line costs time linear in its length
            if len(session.inbuf) > LINE_LIMIT:
                session.inbuf = bytearray()
                self._drop(session, "line_too_long")
            return []
        *lines, session.inbuf = session.inbuf.split(b"\n")
        batch = []
        for raw in lines:
            if session.closing:
                break
            if session.id is not None and not raw.strip():
                continue
            try:
                msg = json.loads(raw.decode("utf-8", errors="replace"))
            except (ValueError, RecursionError) as err:
                msg = err  # not JSON: answered in turn with a parse error
            if session.id is None:
                self._hello(session, msg)
            else:
                batch.append((session, msg))
        return batch

    def _hello(self, session: Session, doc):
        hello = isinstance(doc, dict) and doc.get("type") == "hello"
        if not hello or doc.get("version") != PROTOCOL_VERSION:
            self._queue(session, {"type": "error", "reason": "version"})
            session.closing = True
            return
        if doc.get("role") in ("programmer", "user"):
            session.role = doc["role"]
        session.id = next(self._session_ids)
        self.state.sessions[session.id] = session
        self._queue(session, {"type": "hello", "version": PROTOCOL_VERSION})

    def _queue(self, session: Session, payload: dict):
        session.outbox.append((json.dumps(payload) + "\n").encode("utf-8"))
        self._unsent[session] = None

    def _send(self, sid: int, payload: dict):
        session = self.state.sessions.get(sid)
        if session is None:
            return
        if len(session.outbox) >= BUFFER_LIMIT:
            # a subscriber that cannot keep up must not stall the stepper
            self._drop(session, "overflow")
            return
        self._queue(session, payload)

    def _drop(self, session: Session, reason: str):
        """Close a session for `reason`: the engine sends it nothing more,
        its backlog is dropped but the first line, which may be partly sent,
        and it is closed once the error notice after that line is sent."""
        self._unregister(session)
        while len(session.outbox) > 1:
            session.outbox.pop()
        self._queue(session, {"type": "error", "reason": reason})
        session.closing = True

    def _flush(self, session: Session):
        """Send what the socket takes without blocking; the rest waits for
        EVENT_WRITE."""
        self._unsent.pop(session, None)
        outbox = session.outbox
        try:
            while outbox:
                n = session.sock.send(outbox[0])
                if n < len(outbox[0]):
                    outbox[0] = outbox[0][n:]
                    break
                outbox.popleft()
        except BlockingIOError:
            pass
        except OSError:
            self._close(session)
            return
        if session.closing and not outbox:
            self._close(session)
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if outbox else 0)
        if self.selector.get_key(session.sock).events != events:
            self.selector.modify(session.sock, events, session)

    def _unregister(self, session: Session):
        """After this the engine sends the session nothing more."""
        self.state.sessions.pop(session.id, None)
        for name in list(self.state.subscribers):
            self.state.unsubscribe(name, session.id)

    def _close(self, session: Session):
        self._unregister(session)
        self._unsent.pop(session, None)
        self.selector.unregister(session.sock)
        session.sock.close()

    # -- the engine

    def _step_to_quiescence(self):
        try:
            for _, step, cfg, outcomes in run_steps(self.state.cfg, self.schedule):
                self._commit(cfg, step.to_json(), outcomes)
        except Exception:
            # a fault in the engine, not in any input: report it as an
            # uncaught exception would be (its traceback on stderr), end
            # every submission still queued with one reply, and keep
            # serving the last committed env and store
            sys.excepthook(*sys.exc_info())
            cfg = self.state.cfg
            fault = EvalError("internal", "the server failed while stepping")
            outcomes = [Rejected(fault, tuple(s.who for s in cfg.q_r))] if cfg.q_r else []
            outcomes += [ActionFailed(fault, (s.who,)) for s in cfg.q_do]
            self._commit(replace(cfg, q_r=(), q_do=()), {"kind": "internal"}, outcomes)

    def _commit(self, cfg: Config, record: dict, outcomes):
        """Make `cfg` the served config, then send the replies and events of
        the step's outcomes and trace them.  The replies are built first: a
        fault there leaves the step uncommitted and its submitters queued,
        so the fault path still answers each of them."""
        replies = [m for outcome in outcomes for m in outcome_messages(self.state, outcome)]
        self.state.cfg = cfg
        for sid, payload in replies:
            self._send(sid, payload)
        if self.trace_fh:
            for outcome in outcomes:
                self.trace_fh.write(json.dumps(dict(record, **outcome_to_json(outcome))) + "\n")
            self.trace_fh.flush()


def serve(config: ServerConfig) -> None:
    """Run a server on this thread until interrupted."""
    server = MeerkatServer(config)
    server.listen()
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    with contextlib.suppress(KeyboardInterrupt):
        server.run()


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
