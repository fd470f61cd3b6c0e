"""Interactive client for the Meerkat runtime.

One protocol client with two transports.  ``--connect host:port`` talks to
a live server.  ``--embedded`` runs the server's engine in-process for one
programmer session: each request is one `netserver.ServerState.turn`, the
same turn the server runs on each batch, under a seeded schedule, so a
fault inside a step is answered as the server answers it.  Both modes
render the same protocol messages with one renderer, so they print the
same lines.  The embedded mode is the zero-setup way to
try the language and the backbone of the deterministic golden tests.

Commands:

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
the commands come from a file.  Only an embedded transcript is byte-stable
for a fixed ``--seed``: a server pushes `! ...` change events on their own,
after the reply that ends a command, so one may print a command late.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import queue
import socket
import sys
import threading

from .netserver import PROTOCOL_VERSION, ServerState, Session
from .runtime import RandomSchedule, initial_config


class ConnectionLost(Exception):
    pass


def _json_value_text(v) -> str:
    return json.dumps(v, sort_keys=True)


class Client:
    """Requests and their rendering, whatever the transport.

    A transport supplies `send`, which delivers one payload, and feeds
    every message the other side produces to `_receive`: a ``changed``
    event is rendered into `events`, anything else is a reply.
    """

    def __init__(self, timeout: float = 10.0):
        self.timeout = timeout
        self.replies: queue.Queue = queue.Queue()  # None marks the end of the stream
        self.events: list[str] = []
        self._events_lock = threading.Lock()
        self._req = 0

    def send(self, payload: dict):
        raise NotImplementedError

    def _receive(self, msg: dict):
        if msg.get("type") == "changed":
            text = (
                f"! {msg['name']}: {_json_value_text(msg.get('old'))}"
                f" -> {_json_value_text(msg.get('new'))}"
            )
            with self._events_lock:
                self.events.append(text)
        else:
            self.replies.put(msg)

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

    def evolve(self, source: str) -> list[str]:
        msg = self.request({"type": "evolve", "code": source})
        return [self._describe(msg)]

    def do(self, source: str) -> list[str]:
        msg = self.request({"type": "do", "expr": source})
        return [self._describe(msg)]

    def read(self, name: str) -> list[str]:
        msg = self.request({"type": "read", "name": name})
        if msg.get("type") == "value":
            return [f"{name} = {_json_value_text(msg.get('value'))}"]
        return [self._describe(msg)]

    def env(self) -> list[str]:
        msg = self.request({"type": "env"})
        bindings = msg.get("value", {}).get("bindings", {})
        if not bindings:
            return ["(empty environment)"]
        return [
            f"{b['kind']} {name} : {b['type']}"
            + (f" reads [{', '.join(b['deps'])}]" if b["deps"] else "")
            for name, b in bindings.items()
        ]

    def graph(self) -> list[str]:
        msg = self.request({"type": "env"})
        bindings = msg.get("value", {}).get("bindings", {})
        edges = [
            f"{name} -> {dep}"
            for name, b in sorted(bindings.items())
            for dep in b.get("deps", ())
        ]
        return edges or ["(no edges)"]

    def dump(self) -> dict:
        msg = self.request({"type": "dump"})
        return msg.get("value", {})

    def watch(self, name: str):
        self.send({"type": "subscribe", "name": name})

    def unwatch(self, name: str):
        self.send({"type": "unsubscribe", "name": name})

    def drain_events(self) -> list[str]:
        with self._events_lock:
            out, self.events = self.events, []
        return out

    def close(self):
        pass

    @staticmethod
    def _describe(msg: dict) -> str:
        kind = msg.get("type")
        if kind == "accepted":
            return "accepted"
        if kind == "rejected":
            return f"rejected: {msg.get('reason')} {json.dumps(msg.get('detail', {}), sort_keys=True)}"
        if kind == "executed":
            shown = ", ".join(
                f"{c['name']}: {_json_value_text(c['old'])} -> {_json_value_text(c['new'])}"
                for c in msg.get("changes", ())
            )
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


class EmbeddedBackend(Client):
    """The server's engine in-process, for one programmer session: each
    payload is one `ServerState.turn` under a seeded schedule."""

    def __init__(self, seed: int = 0):
        super().__init__()
        self.session = Session(id=1)
        self.state = ServerState(cfg=initial_config(), schedule=RandomSchedule(seed), sessions={1: self.session})

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
        for line in self.backend.drain_events():
            self.emit(line)

    def run_line(self, line: str, read_more=None) -> bool:
        """Execute one command line; returns False when the session ends."""
        line = line.strip()
        if self.echo and line:
            self.emit(f"mk> {line}")
        if not line or line.startswith("//"):
            return True
        if line == ":quit":
            return False
        if line.startswith(":evolve"):
            rest = line[len(":evolve"):].strip()
            if rest.startswith("<<"):
                marker = rest[2:].strip() or "EOF"
                body_lines = []
                while True:
                    nxt = read_more() if read_more else None
                    if nxt is None or nxt.strip() == marker:
                        break
                    body_lines.append(nxt)
                source = "\n".join(body_lines)
            else:
                source = rest
            for msg in self.backend.evolve(source):
                self.emit(msg)
        elif line.startswith(":load "):
            path = line[len(":load "):].strip()
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
            except OSError as err:
                self.emit(f"error: {err}")
                return True
            for msg in self.backend.evolve(source):
                self.emit(msg)
        elif line.startswith("do ") or line == "do":
            for msg in self.backend.do(line):
                self.emit(msg)
        elif line.startswith(":read "):
            for msg in self.backend.read(line[len(":read "):].strip()):
                self.emit(msg)
        elif line.startswith(":watch "):
            self.backend.watch(line[len(":watch "):].strip())
        elif line.startswith(":unwatch "):
            self.backend.unwatch(line[len(":unwatch "):].strip())
        elif line == ":env":
            for msg in self.backend.env():
                self.emit(msg)
        elif line == ":graph":
            for msg in self.backend.graph():
                self.emit(msg)
        elif line.startswith(":dump "):
            path = line[len(":dump "):].strip()
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(self.backend.dump(), fh, indent=2, sort_keys=True)
                self.emit(f"wrote {path}")
            except OSError as err:
                self.emit(f"error: {err}")
        else:
            self.emit(f"error: unknown command {line.split()[0]!r}")
        self.flush_events()
        return True


def repl_main(args: argparse.Namespace) -> int:
    if bool(args.connect) == bool(args.embedded):
        print("error: exactly one of --connect or --embedded is required", file=sys.stderr)
        return 1
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"error: --connect wants HOST:PORT, got {args.connect!r}", file=sys.stderr)
            return 1
        try:
            backend = RemoteBackend(host, int(port_text))
        except ConnectionLost as err:
            print(f"connection lost: {err}", file=sys.stderr)
            return 2
    else:
        backend = EmbeddedBackend(seed=args.seed)

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="meerkat-repl", description="Meerkat interactive client")
    parser.add_argument("--connect", metavar="HOST:PORT", help="attach to a running server")
    parser.add_argument("--embedded", action="store_true", help="run an in-process stepper")
    parser.add_argument("--script", metavar="FILE", help="read commands from FILE")
    parser.add_argument("--seed", type=int, default=0, help="schedule seed for --embedded")
    args = parser.parse_args(argv)
    return repl_main(args)


if __name__ == "__main__":
    sys.exit(main())
