"""Interactive client for the Meerkat runtime.

One protocol client with two transports.  ``--connect host:port`` talks to a
live server.  ``--embedded`` runs the server's engine in-process for one
programmer session: each message it sends is one `netserver.ServerState.turn`,
the same turn the server runs on each batch, so a fault inside a step is
answered as the server answers it.  A command sends one request and prints its
reply, or for ``:watch`` and ``:unwatch`` one message that has no reply;
`describe` renders every reply and pushed event in both modes, so they print
the same lines.  The embedded mode is the zero-setup way to try the language
and the backbone of the deterministic golden tests.

Commands:

    :evolve <decls>        submit the rest of the line as an evolution
    :evolve <<EOF          submit the lines up to EOF as an evolution
    :load file.mk          submit a source file as an evolution
    do <expr>              submit an action
    :read name             print a cell's current value
    :watch name            print `! name: old -> new` when the cell changes
    :unwatch name
    :env                   print the typing environment
    :graph                 print dependency edges
    :dump file.json        write a store snapshot
    :quit

Exit codes: 0 clean, 1 usage error, 2 connection loss.  With ``--script``
the commands come from a file.  Only an embedded transcript is byte-stable:
a server pushes `! ...` change events on their own, after the reply that
ends a command, so one may print a command late.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import queue
import socket
import sys
import threading

from .netserver import PROTOCOL_VERSION, ServerState, Session, parse_address
from .runtime import initial_config


class ConnectionLost(Exception):
    pass


def _json_value_text(v) -> str:
    return json.dumps(v, sort_keys=True)


def _change_text(c: dict) -> str:
    """`name: old -> new` for one change of an ``executed`` reply or a
    ``changed`` event."""
    return f"{c['name']}: {_json_value_text(c.get('old'))} -> {_json_value_text(c.get('new'))}"


def _env_text(value: dict) -> str:
    bindings = value["bindings"]
    if not bindings:
        return "(empty environment)"
    return "\n".join(
        f"{b['kind']} {name} : {b['type']}"
        + (f" reads [{', '.join(b['deps'])}]" if b["deps"] else "")
        for name, b in bindings.items()
    )


def _graph_text(value: dict) -> str:
    edges = [
        f"{name} -> {dep}"
        for name, b in sorted(value["bindings"].items())
        for dep in b["deps"]
    ]
    return "\n".join(edges) or "(no edges)"


def describe(msg: dict, value_text=None) -> str:
    """The text printed for a reply or a pushed event; `value_text` renders
    the payload of a ``value`` reply."""
    kind = msg.get("type")
    if kind == "value" and value_text is not None:
        return value_text(msg.get("value"))
    if kind == "changed":
        return f"! {_change_text(msg)}"
    if kind == "accepted":
        return "accepted"
    if kind == "rejected":
        return f"rejected: {msg.get('reason')} {json.dumps(msg.get('detail', {}), sort_keys=True)}"
    if kind == "executed":
        shown = ", ".join(_change_text(c) for c in msg.get("changes", ()))
        return f"executed: {shown}" if shown else "executed: no changes"
    if kind == "failed":
        return f"failed: {msg.get('reason')}"
    if kind == "queue_died":
        return "queue died: evolution could not be approved"
    if kind == "error":
        if msg.get("reason") == "unbound":
            return f"error: '{msg.get('name')}' is not bound"
        return f"error: {msg.get('reason')}"
    return json.dumps(msg, sort_keys=True)


class Client:
    """Requests and their replies, whatever the transport.

    A transport supplies `send`, which delivers one payload, and feeds
    every message the other side produces to `_receive`: a ``changed``
    event goes to `events`, anything else is a reply.
    """

    def __init__(self, timeout: float = 10.0):
        self.timeout = timeout
        self.replies: queue.Queue = queue.Queue()  # None marks the end of the stream
        self.events: queue.SimpleQueue = queue.SimpleQueue()
        self._req = 0

    def send(self, payload: dict):
        raise NotImplementedError

    def _receive(self, msg: dict):
        (self.events if msg.get("type") == "changed" else self.replies).put(msg)

    def request(self, payload: dict) -> dict:
        self._req += 1
        payload = dict(payload, req=self._req)
        self.send(payload)
        while True:
            try:
                msg = self.replies.get(timeout=self.timeout)
            except queue.Empty:
                raise ConnectionLost("timed out waiting for the server")
            if msg is None:
                raise ConnectionLost("server closed the connection")
            if msg.get("req") == self._req:
                return msg
            # stale or unsolicited reply; keep waiting

    def close(self):
        pass


class EmbeddedBackend(Client):
    """The server's engine in-process, for one programmer session: each
    payload is one `ServerState.turn`."""

    def __init__(self):
        super().__init__()
        self.session = Session(id=1)
        self.state = ServerState(cfg=initial_config(), sessions={1: self.session})

    def send(self, payload: dict):
        self.state.turn([(self.session, payload)], lambda _sid, msg: self._receive(msg))


class RemoteBackend(Client):
    """Line-delimited JSON over a socket to a running server."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        super().__init__(timeout)
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as err:
            raise ConnectionLost(f"cannot connect to {host}:{port}: {err}")
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.send({"type": "hello", "version": PROTOCOL_VERSION})
        hello = self._read_direct()
        if hello.get("type") != "hello":
            raise ConnectionLost(f"handshake refused: {hello}")
        # From here the receiver blocks until the server speaks, however long
        # the session idles; `request` bounds each reply wait by itself.
        self.sock.settimeout(None)
        self.receiver = threading.Thread(target=self._receive_loop, daemon=True)
        self.receiver.start()

    def send(self, payload: dict):
        try:
            self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        except OSError as err:
            raise ConnectionLost(str(err))

    def _read_direct(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionLost("server closed the connection")
        return json.loads(line)

    def _receive_loop(self):
        while True:
            try:
                line = self.reader.readline()
            except OSError:
                line = ""
            if not line:
                self.replies.put(None)
                return
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                continue
            self._receive(msg)

    def close(self):
        # shutting down first wakes the receiver thread blocked in recv
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.sock.close()


class Repl:
    def __init__(self, backend, out=None, echo: bool = False):
        self.backend = backend
        self.out = out
        self.echo = echo  # script mode echoes commands for readable transcripts
        self._print_lock = threading.Lock()

    def emit(self, line: str):
        with self._print_lock:
            print(line, file=self.out or sys.stdout, flush=True)

    def flush_events(self):
        while not self.backend.events.empty():
            self.emit(describe(self.backend.events.get()))

    def run_line(self, line: str, read_more=None) -> bool:
        """Execute one command line; returns False when the session ends."""
        line = line.strip()
        if self.echo and line:
            self.emit(f"mk> {line}")
        if not line or line.startswith("//"):
            return True
        if line == ":quit":
            return False
        payload, value_text = None, None
        if line.split(maxsplit=1)[0] == ":evolve":
            rest = line[len(":evolve"):].strip()
            if rest.startswith("<<"):
                marker = rest[2:].strip() or "EOF"
                body_lines = []
                while True:
                    nxt = read_more() if read_more else None
                    if nxt is None or nxt.strip() == marker:
                        break
                    body_lines.append(nxt)
                rest = "\n".join(body_lines)
            payload = {"type": "evolve", "code": rest}
        elif line.startswith(":load "):
            path = line[len(":load "):].strip()
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = {"type": "evolve", "code": fh.read()}
            except OSError as err:
                self.emit(f"error: {err}")
                return True
        elif line.startswith("do ") or line == "do":
            payload = {"type": "do", "expr": line}
        elif line.startswith(":read "):
            name = line[len(":read "):].strip()
            payload = {"type": "read", "name": name}
            value_text = lambda value: f"{name} = {_json_value_text(value)}"  # noqa: E731
        elif line.startswith(":watch "):
            self.backend.send({"type": "subscribe", "name": line[len(":watch "):].strip()})
        elif line.startswith(":unwatch "):
            self.backend.send({"type": "unsubscribe", "name": line[len(":unwatch "):].strip()})
        elif line in (":env", ":graph"):
            payload = {"type": "env"}
            value_text = _env_text if line == ":env" else _graph_text
        elif line.startswith(":dump "):
            path = line[len(":dump "):].strip()
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    snapshot = self.backend.request({"type": "dump"}).get("value", {})
                    json.dump(snapshot, fh, indent=2, sort_keys=True)
                self.emit(f"wrote {path}")
            except OSError as err:
                self.emit(f"error: {err}")
        else:
            self.emit(f"error: unknown command {line.split()[0]!r}")
        if payload is not None:
            self.emit(describe(self.backend.request(payload), value_text))
        self.flush_events()
        return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="meerkat-repl", description="Meerkat interactive client")
    parser.add_argument("--connect", metavar="HOST:PORT", help="attach to a running server")
    parser.add_argument("--embedded", action="store_true", help="run an in-process stepper")
    parser.add_argument("--script", metavar="FILE", help="read commands from FILE")
    args = parser.parse_args(argv)
    if bool(args.connect) == bool(args.embedded):
        print("error: exactly one of --connect or --embedded is required", file=sys.stderr)
        return 1
    if args.connect:
        address = parse_address(args.connect)
        if address is None:
            print(f"error: --connect wants HOST:PORT, got {args.connect!r}", file=sys.stderr)
            return 1
        try:
            backend = RemoteBackend(*address)
        except ConnectionLost as err:
            print(f"connection lost: {err}", file=sys.stderr)
            return 2
    else:
        backend = EmbeddedBackend()

    script_fh = None
    if args.script:
        if args.script == "-":
            script_fh = sys.stdin
        else:
            try:
                script_fh = open(args.script, "r", encoding="utf-8")
            except OSError as err:
                print(f"error: {err}", file=sys.stderr)
                backend.close()
                return 1

    def read_line():
        if script_fh:
            line = script_fh.readline()
            return line.rstrip("\n") if line else None
        try:
            return input("mk> " if sys.stdin.isatty() else "")
        except EOFError:
            return None

    repl = Repl(backend, echo=bool(script_fh))
    code = 0
    try:
        while True:
            line = read_line()
            if line is None:
                break
            if not repl.run_line(line, read_more=read_line):
                break
            # pick up any events that arrived between commands
            repl.flush_events()
    except ConnectionLost as err:
        print(f"connection lost: {err}", file=sys.stderr)
        code = 2
    finally:
        backend.close()
        if script_fh and script_fh is not sys.stdin:
            script_fh.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
