"""REPL client tests: scripted golden transcripts, flags, remote sessions."""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path

import pytest

import meerkat.runtime
from meerkat.netserver import MeerkatServer
from meerkat.replcli import EmbeddedBackend, RemoteBackend, Repl, main
from meerkat.syntax import parse_program

LISTING_PATH = "samples/listing1.mk"


def run_script(tmp_path, capsys, lines):
    script = tmp_path / "script.txt"
    script.write_text("\n".join(lines) + "\n")
    code = main(["--embedded", "--script", str(script)])
    return code, capsys.readouterr().out


def test_scripted_session_golden_transcript(tmp_path, capsys):
    code, out = run_script(
        tmp_path,
        capsys,
        [
            f":load {LISTING_PATH}",
            ":watch inc1",
            ":watch inc2",
            "do (action { x := 2 })",
            ":read inc2",
            ":quit",
        ],
    )
    assert code == 0
    assert out == (
        f"mk> :load {LISTING_PATH}\n"
        "accepted\n"
        "mk> :watch inc1\n"
        "mk> :watch inc2\n"
        "mk> do (action { x := 2 })\n"
        "executed: inc1: 2 -> 3, inc2: 3 -> 4, x: 1 -> 2\n"
        "! inc1: 2 -> 3\n"
        "! inc2: 3 -> 4\n"
        "mk> :read inc2\n"
        "inc2 = 4\n"
        "mk> :quit\n"
    )


def test_transcripts_are_byte_stable(tmp_path, capsys):
    lines = [
        f":load {LISTING_PATH}",
        ":env",
        ":graph",
        "do (action { x := 5 })",
        ":read inc1",
        ":quit",
    ]
    _, first = run_script(tmp_path, capsys, lines)
    _, second = run_script(tmp_path, capsys, lines)
    assert first == second


def test_heredoc_evolution_and_graph(tmp_path, capsys):
    code, out = run_script(
        tmp_path,
        capsys,
        [
            ":evolve <<EOF",
            "var x = 1;",
            "def inc1 = x + 1;",
            "EOF",
            ":graph",
            ":quit",
        ],
    )
    assert code == 0
    assert "accepted" in out
    assert "inc1 -> x" in out


def test_read_of_unknown_name_keeps_session_alive(tmp_path, capsys):
    code, out = run_script(tmp_path, capsys, [":read nosuch", ":read nosuch", ":quit"])
    assert code == 0
    assert out.count("error: 'nosuch' is not bound") == 2


def test_rejected_evolution_prints_reason(tmp_path, capsys):
    code, out = run_script(
        tmp_path, capsys, [":evolve def a = a + 1;", ":quit"]
    )
    assert code == 0
    assert "queue died" in out or "rejected" in out


def test_unknown_command(tmp_path, capsys):
    code, out = run_script(tmp_path, capsys, [":bogus now", ":quit"])
    assert code == 0
    assert "error: unknown command ':bogus'" in out


def test_dump_writes_snapshot(tmp_path, capsys):
    target = tmp_path / "snap.json"
    code, out = run_script(
        tmp_path, capsys, [f":load {LISTING_PATH}", f":dump {target}", ":quit"]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["vars"] == {"x": 1}
    assert doc["defs"]["inc2"]["c"] == 3


def test_tour_script_runs_clean(capsys):
    code = main(["--embedded", "--script", "samples/tour.txt"])
    out = capsys.readouterr().out
    assert code == 0
    with open("samples/tour.out", encoding="utf-8") as fh:
        assert out == fh.read()


def test_an_embedded_step_fault_is_answered_and_the_session_goes_on(monkeypatch, capsys):
    real, armed = meerkat.runtime.apply_step, [True]

    def faulty(cfg, step):  # the next step raises, as a bug inside it would
        if armed:
            armed.clear()
            raise RuntimeError("a bug inside a step")
        return real(cfg, step)

    monkeypatch.setattr(meerkat.runtime, "apply_step", faulty)
    repl = Repl(EmbeddedBackend())
    assert repl.run_line(":evolve var x = 1;")
    assert repl.run_line(":evolve var x = 1;")
    armed.append(True)
    assert repl.run_line("do (action { x := 2 })")
    assert repl.run_line("do (action { x := 2 })")
    assert repl.run_line(":read x")
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        'rejected: internal {"message": "the server failed while stepping", "reason": "internal"}',
        "accepted",
        "failed: internal",
        "executed: x: 1 -> 2",
        "x = 2",
    ]
    assert err.count("RuntimeError: a bug inside a step") == 2


def test_usage_error_exit_code():
    assert main([]) == 1
    assert main(["--connect", "nonsense"]) == 1
    # a port past 65535 is refused, not wrapped onto a listening one
    with socket.create_server(("127.0.0.1", 0)) as listener:
        _, port = listener.getsockname()
        assert main(["--connect", f"127.0.0.1:{port + 65536}"]) == 1


def test_connection_refused_exit_code():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    _, port = probe.getsockname()
    probe.close()  # nothing listens here anymore
    assert main(["--connect", f"127.0.0.1:{port}"]) == 2


@pytest.fixture
def server():
    srv = MeerkatServer(bind=("127.0.0.1", 0), initial=parse_program(Path(LISTING_PATH).read_text()))
    srv.start()
    yield srv
    srv.stop()


def test_connected_scripted_session(tmp_path, capsys, server):
    host, port = server.address
    script = tmp_path / "script.txt"
    script.write_text(
        "\n".join(
            [
                ":watch inc1",
                "do (action { x := 2 })",
                ":read inc2",
                ":quit",
            ]
        )
        + "\n"
    )
    code = main(["--connect", f"{host}:{port}", "--script", str(script)])
    out = capsys.readouterr().out
    assert code == 0
    assert "executed: inc1: 2 -> 3, inc2: 3 -> 4, x: 1 -> 2" in out
    assert "! inc1: 2 -> 3" in out
    assert "inc2 = 4" in out


def test_remote_backend_survives_idling_past_its_timeout(server):
    host, port = server.address
    backend = RemoteBackend(host, port, timeout=1.0)
    try:
        time.sleep(1.5)
        assert backend.request({"type": "read", "name": "inc2"})["value"] == 3
    finally:
        backend.close()


# Every error path a session can take.  Each command that pushes a watched
# event is followed by a request, so a connected run has received the event
# before the script ends.
ERROR_PATH_SCRIPT = [
    ":read nosuch",
    f":load {LISTING_PATH}",
    ":watch y",
    ":watch f",
    "do (action { x := true })",
    "do (action { x := 1 / (x - x) })",
    "do (action { x :=",
    ":evolve def a = a + 1;",
    ":evolve var z = 1 / 0;",
    ":evolve var y = 7;",
    ":read y",
    ":evolve def f = fn n => n + x;",
    ":read f",
    "do (action { x := 3 })",
    ":quit",
]


@pytest.mark.parametrize("script", ["samples/tour.txt", ERROR_PATH_SCRIPT], ids=["tour", "errors"])
def test_embedded_and_connected_print_the_same_lines(tmp_path, capsys, script):
    if isinstance(script, list):
        path = tmp_path / "script.txt"
        path.write_text("\n".join(script) + "\n")
        script = str(path)
    assert main(["--embedded", "--script", script]) == 0
    embedded = capsys.readouterr().out.splitlines()
    srv = MeerkatServer(bind=("127.0.0.1", 0))
    srv.start()
    try:
        host, port = srv.address
        assert main(["--connect", f"{host}:{port}", "--script", script]) == 0
    finally:
        srv.stop()
    connected = capsys.readouterr().out.splitlines()

    # a pushed event may print a command late over a connection, so the
    # events are compared as a sequence of their own
    def split(lines):
        return [x for x in lines if not x.startswith("! ")], [x for x in lines if x.startswith("! ")]

    assert split(connected) == split(embedded)
    assert split(embedded)[1], "the script watches no change"


@pytest.mark.parametrize("mode", ["embedded", "connected"])
def test_evolve_is_matched_as_a_whole_command_word(tmp_path, capsys, mode):
    # `:evolvevar` is not `:evolve var`: it is refused, and nothing is bound
    script = tmp_path / "script.txt"
    script.write_text(
        "\n".join(
            [
                ":evolvevar z = 1;",
                ":read z",
                ":evolve var z = 1;",
                ":evolve <<EOF",
                "def w = z + 1;",
                "EOF",
                ":read w",
                ":quit",
            ]
        )
        + "\n"
    )
    if mode == "embedded":
        assert main(["--embedded", "--script", str(script)]) == 0
    else:
        srv = MeerkatServer(bind=("127.0.0.1", 0))
        srv.start()
        try:
            host, port = srv.address
            assert main(["--connect", f"{host}:{port}", "--script", str(script)]) == 0
        finally:
            srv.stop()
    replies = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("mk> ")]
    assert replies == [
        "error: unknown command ':evolvevar'",
        "error: 'z' is not bound",
        "accepted",
        "accepted",
        "w = 2",
    ]
