"""Self-tests of the benchmark: seeded inputs are byte-identical, the
program receives only generated inputs, and the output checks catch a
wrong answer.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import inproc  # noqa: E402
import live  # noqa: E402
from check import check_live_mix  # noqa: E402


def test_same_seed_gives_identical_inputs():
    makers = [
        lambda s: gen.live_mix_inputs(s, 300),
        lambda s: gen.burst_drain_inputs(s, 20),
        gen.explore_verdict_inputs,
    ]
    for make in makers:
        assert gen.to_bytes(make(7)) == gen.to_bytes(make(7))
        assert gen.to_bytes(make(7)) != gen.to_bytes(make(8))


def test_explore_scenario_shape_is_seed_independent():
    for seed in range(5):
        inputs = gen.explore_verdict_inputs(seed)
        kinds = sorted(kind for kind, _, _ in inputs.submissions)
        assert kinds == ["do"] * 5 + ["evolve"] * 2
        assert len({i for i, _ in inputs.writes}) == 5


def _live_run(inputs):
    tmp = HERE.parent / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="test-", dir=tmp))
    try:
        deadline = perf_counter_ns() + 60 * 10**9
        result, launches = live.run_pass(workdir, inputs, 0, False, 1, deadline, "t")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp.rmdir()
        except OSError:  # another run is using it
            pass
    return result, launches[-1][1]


def test_live_mix_sends_only_generated_lines_and_checks_out():
    inputs = gen.live_mix_inputs(3, 40)
    (rec, _drop_a, drop_b, _window, sent), report = _live_run(inputs)
    checked, executed = check_live_mix(inputs, rec)
    assert checked.mismatches == []
    assert report["peak_rss_kb"] > 0

    hello_a = inputs.hello("programmer")
    assert [x for x in sent["a"] if x != hello_a] == [op.line for op in inputs.ops_a]
    preamble = {inputs.hello("user"), *inputs.subscribe_lines()}
    reads = [x for x in sent["b"] if x not in preamble and b'"bsync' not in x]
    if drop_b == 0:
        assert reads == list(inputs.b_reads)
    else:
        assert set(reads) <= set(inputs.b_reads)

    # a wrong read value is caught
    i = next(i for i, r in enumerate(rec.a) if r[0].kind == "read")
    op, sent_ns, received, reply = rec.a[i]
    bad = dataclasses.replace(rec, a=list(rec.a))
    bad.a[i] = (op, sent_ns, received, dict(reply, value=reply["value"] + 1))
    assert check_live_mix(inputs, bad)[0].mismatches

    # a do whose reply was lost (but which ran) counts as failed, not wrong
    j = next(j for j, r in enumerate(rec.a) if r[0].kind == "do")
    lost = dataclasses.replace(rec, a=list(rec.a))
    lost.a[j] = rec.a[j][:3] + (None,)
    checked_lost, _ = check_live_mix(inputs, lost)
    assert checked_lost.mismatches == []
    assert checked_lost.failed == checked.failed + 1


def test_burst_drain_receives_only_generated_sources_and_checks_out(monkeypatch):
    inputs = gen.burst_drain_inputs(5, 3)
    cfg = inproc.ready_config(inputs.program)
    seen = []
    for name in ("parse_do", "parse_program"):
        original = getattr(inproc.syn, name)
        monkeypatch.setattr(inproc.syn, name, lambda src, f=original: (seen.append(src), f(src))[1])
    checked, intervals = inproc.burst_pass(inputs, 5, cfg)
    assert checked.mismatches == [] and checked.failed == 0
    assert len(intervals) == 3
    assert seen == [it.source for burst in inputs.bursts for it in burst]


def test_burst_check_catches_a_wrong_final_value_and_a_lost_outcome():
    from check import check_burst_drain

    inputs = gen.burst_drain_inputs(5, 1)
    ready = inproc.ready_config(inputs.program)
    _, entries, final = inproc.drain_burst(ready, inputs.bursts[0], 5)
    assert check_burst_drain(inputs, [entries], [final]).mismatches == []
    assert check_burst_drain(inputs, [entries], [{}]).mismatches
    assert check_burst_drain(inputs, [[]], [final]).mismatches

    wrong = dict(final, agg=final["agg"] + 1)
    assert any("agg" in m for m in check_burst_drain(inputs, [entries], [wrong]).mismatches)

    # one submission loses its outcome: incorrect, and counted as failed
    kind, whos, reason = entries[-1]
    dropped = entries[:-1] + ([(kind, whos[1:], reason)] if len(whos) > 1 else [])
    checked = check_burst_drain(inputs, [dropped], [final])
    assert any("resolved 0 times" in m for m in checked.mismatches)
    assert checked.failed == 1
