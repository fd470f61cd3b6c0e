"""live_mix: a meerkat server process and a two-connection load generator.

Connection A is a programmer running its fixed request list closed-loop,
one request in flight.  Connection B (its own thread) subscribes to every
`d_k` and reads back each name pushed to it.  The generator sets
TCP_NODELAY on its own sockets only.  The server drops any session idle
for 0.2 s; a dropped connection reconnects (B re-subscribes), and the
requests and pushes the drop lost count as failed.
"""

from __future__ import annotations

import json
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

from check import LiveRecord
from gen import LiveInputs

HERE = Path(__file__).resolve().parent
LAUNCH_TIMEOUT_S = 60
# a reply this late counts as a lost session, so a hung server cannot hang the run
REPLY_TIMEOUT_S = 30
DRAIN_TIMEOUT_S = 5
# after A's last reply every push is already on its way to B, so B is done
# once it has no read outstanding and has heard nothing for this long; it
# must stay well below the server's 0.2 s idle drop
QUIET_NS = 50_000_000


class ServerProcess:
    """One `meerkat-server` run under the benchmark's launcher."""

    def __init__(self, workdir: Path, init_path: Path, seed: int, trace: bool, tag: str):
        self.report_path = workdir / f"server-{tag}.json"
        self.stderr = open(workdir / f"server-{tag}.err", "wb")
        cmd = [sys.executable, str(HERE / "launch_server.py"), "--report", str(self.report_path)]
        if trace:
            cmd.append("--trace")
        cmd += ["--", "--bind", "127.0.0.1:0", "--init", str(init_path), "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr)
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], LAUNCH_TIMEOUT_S)
        text = self.proc.stdout.readline().decode() if ready else ""
        if not text.startswith("listening on "):
            self.stop()
            with open(self.stderr.name, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"server did not start: {text!r}\n{fh.read()[-2000:]}")
        return int(text.rsplit(":", 1)[1])

    def stop(self) -> dict:
        """Stop the server as Ctrl-C would; return its report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


class Conn:
    """A client connection: canonical request lines out, JSON lines in."""

    def __init__(self, port: int, hello: bytes):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.sent: list[bytes] = []
        if not self.send(hello):
            raise ConnectionError("hello not sent")
        reply = self.recv()
        if reply is None or reply.get("type") != "hello":
            raise ConnectionError(f"bad hello reply {reply!r}")

    def send(self, data: bytes) -> bool:
        self.sent.append(data)
        try:
            self.sock.sendall(data)
            return True
        except OSError:
            return False

    def recv(self) -> dict | None:
        """The next message, or None once the server has closed the session."""
        try:
            raw = self.reader.readline()
        except OSError:
            return None
        return json.loads(raw) if raw else None

    def shutdown(self) -> None:
        """Make a blocked `recv` in another thread return None."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        self.shutdown()
        self.reader.close()
        self.sock.close()


class Watcher(threading.Thread):
    """Connection B: subscribe to every d_k, read back each pushed name."""

    def __init__(self, port: int, inputs: LiveInputs, rec: LiveRecord):
        super().__init__(daemon=True)
        self.port, self.inputs, self.rec = port, inputs, rec
        self.ready = threading.Event()
        self.stopping = threading.Event()
        self.conns: list[Conn] = []
        self.pending: dict[str, tuple] = {}  # req -> (name, pushed value, sent_ns)
        self.dropped = 0
        self.last_msg_ns = perf_counter_ns()
        self.error: BaseException | None = None

    def connect(self, conn: Conn | None = None) -> None:
        conn = conn or Conn(self.port, self.inputs.hello("user"))
        self.conns.append(conn)
        for data in self.inputs.subscribe_lines():
            conn.send(data)
        conn.send(LiveInputs.sync_line(len(self.conns) - 1))

    def run(self) -> None:
        try:
            self._run()
        except Exception as err:  # reported by the main thread
            self.error = err
            self.ready.set()

    def _lose_pending(self) -> None:
        for req, (name, pushed, sent) in self.pending.items():
            self.rec.b_reads.append((req, name, pushed, sent, None, None))
        self.pending.clear()

    def _run(self) -> None:
        n = 0
        while True:
            msg = self.conns[-1].recv()
            if msg is None:
                if self.stopping.is_set():
                    return
                self.dropped += 1
                self._lose_pending()
                self.connect()
                continue
            now = self.last_msg_ns = perf_counter_ns()
            kind, req = msg.get("type"), msg.get("req", "")
            if kind == "changed":
                self.rec.pushes.append((msg["name"], msg["old"], msg["new"], now))
                self.pending[f"b{n}"] = (msg["name"], msg["new"], perf_counter_ns())
                self.conns[-1].send(LiveInputs.b_read_line(n, msg["name"]))
                n += 1
            elif kind == "value" and req.startswith("bsync"):
                self.ready.set()
            elif kind == "value" and req in self.pending:
                name, pushed, sent = self.pending.pop(req)
                self.rec.b_reads.append((req, name, pushed, sent, now, msg["value"]))
            else:
                raise RuntimeError(f"watcher got unexpected {msg!r}")

    def stop(self) -> None:
        self.stopping.set()
        self.conns[-1].shutdown()
        self.join(timeout=10)
        for conn in self.conns:
            conn.close()
        self._lose_pending()


def launch(workdir: Path, init_path: Path, seed: int, trace: bool, tag: str, inputs: LiveInputs):
    """Start a server and open both connections; return (server, A, B, the
    interval from launch to both hellos)."""
    t0 = perf_counter_ns()
    server = ServerProcess(workdir, init_path, seed, trace, tag)
    try:
        b = Conn(server.port, inputs.hello("user"))
        a = Conn(server.port, inputs.hello("programmer"))
    except (OSError, ConnectionError):
        server.stop()
        raise
    return server, a, b, (t0, perf_counter_ns())


def drive(server: ServerProcess, a: Conn, b_conn: Conn, inputs: LiveInputs, deadline_ns: int):
    """Run A's list against a launched server, with B watching.  Returns the
    record, A's and B's dropped-session counts, the measured window and
    every line sent (for the input-identity test)."""
    rec = LiveRecord()
    watcher = Watcher(server.port, inputs, rec)
    watcher.connect(b_conn)
    watcher.start()
    if not watcher.ready.wait(LAUNCH_TIMEOUT_S) or watcher.error is not None:
        raise RuntimeError(f"watcher did not subscribe: {watcher.error!r}")
    conns_a = [a]
    dropped_a = 0
    window_start = perf_counter_ns()
    for op in inputs.ops_a:
        if op.kind != "dump" and perf_counter_ns() > deadline_ns:
            rec.unissued += 1
            continue
        if a is None:
            a = Conn(server.port, inputs.hello("programmer"))
            conns_a.append(a)
        sent = perf_counter_ns()
        reply = None
        if a.send(op.line):
            while True:
                msg = a.recv()
                if msg is None or msg.get("req") == op.req:
                    reply = msg
                    break
        received = perf_counter_ns()
        rec.a.append((op, sent, received, reply))
        if reply is None:
            dropped_a += 1
            a.close()
            a = None
    window_end = perf_counter_ns()
    dos_done = sum(1 for op, _, _, reply in rec.a if op.kind == "do" and reply is not None)
    wait_until = perf_counter_ns() + DRAIN_TIMEOUT_S * 10**9
    while perf_counter_ns() < wait_until and watcher.is_alive():
        quiet = perf_counter_ns() - watcher.last_msg_ns > QUIET_NS
        if not watcher.pending and (len(rec.pushes) >= dos_done or quiet):
            break
        watcher.join(timeout=0.005)
    watcher.stop()
    if a is not None:
        a.close()
    if watcher.error is not None:
        raise RuntimeError(f"watcher failed: {watcher.error!r}")
    sent = {"a": [x for c in conns_a for x in c.sent], "b": [x for c in watcher.conns for x in c.sent]}
    return rec, dropped_a, watcher.dropped, (window_start, window_end), sent


def write_init(workdir: Path, inputs: LiveInputs) -> Path:
    path = workdir / "init.mk"
    path.write_text(inputs.program, encoding="utf-8")
    return path


def run_pass(workdir: Path, inputs: LiveInputs, seed: int, trace: bool, setups: int, deadline_ns: int, tag: str):
    """Launch `setups` times (all but the last only to time set-up), drive the
    workload on the last launch and stop the server.  Returns the drive
    results and, per launch, (set-up interval, server report); the last
    launch ran the workload."""
    init_path = write_init(workdir, inputs)
    launches = []
    for i in range(setups):
        server, a, b, interval = launch(workdir, init_path, seed, trace, f"{tag}{i}", inputs)
        if i < setups - 1:
            a.close()
            b.close()
            launches.append((interval, _checked_report(server.stop())))
    try:
        result = drive(server, a, b, inputs, deadline_ns)
    finally:
        report = server.stop()
    launches.append((interval, _checked_report(report)))
    return result, launches


def _checked_report(report: dict) -> dict:
    if report.get("rc") != 0 or "peak_rss_kb" not in report:
        raise RuntimeError(f"server exited badly: {report.get('rc')!r}")
    return report
