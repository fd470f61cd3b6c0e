"""Meerkat's benchmark: one workload per run, checked against the
benchmark's own model, every metric printed by name and unit.

    python3 perfbench/run.py --workload live_mix --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's `src/meerkat`.  With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of a
traced pass, plus the tracing overhead against an untraced pass of the
same work.  The exit code is 0 when every output checked out, 1 when a
check failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

import live
from check import check_live_mix
from gen import burst_drain_inputs, explore_verdict_inputs, live_mix_inputs
from speed import Speed, SpeedProbe
from tracer import PER_LAYER_METRICS, Tracer, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Work per measured second, from the seed's times on the reference
# machine (2 vCPUs, Python 3.11): the amount of work is fixed by
# --seconds, never by elapsed time, so a faster commit finishes sooner
# instead of doing more transactions.
LIVE_OPS_PER_S = 100
BURSTS_PER_S = 8
SECONDS_PER_VERDICT = 8
# in-process set-ups repeat until both counts are reached
SETUP_REPS = 15
SETUP_MIN_S = 0.5
LIVE_SETUP_REPS = 5
# a live pass stops issuing requests after this long, so a run always ends
LIVE_PASS_LIMIT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def pct(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Result:
    def __init__(self, checked, metrics: dict, lines: list[str]):
        self.checked, self.metrics, self.lines = checked, metrics, lines


def _e2e(setup_s, ops_s, p50_ms, tail_ms, rss_mb) -> dict:
    values = (setup_s, ops_s, p50_ms, tail_ms, rss_mb)
    return {name: {"value": v, "unit": unit} for (name, unit), v in zip(END_TO_END, values)}


def _per_layer(values: dict, overhead_pct: float) -> dict:
    values = dict(values, **{"trace.overhead_pct": overhead_pct})
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER_METRICS}


def _merge_checks(first, second):
    first.attempted += second.attempted
    first.failed += second.failed
    first.mismatches += second.mismatches
    return first


def _spread_line(label: str, values: list[float], tail: float = 0.99) -> str:
    if not values:
        return f"{label}: no samples"
    return f"{label}: n={len(values)} p50={statistics.median(values):.3f} p{round(tail * 100)}={pct(values, tail):.3f} ms"


def _probed(work):
    """Run `work()` with the speed probe sampling; return its result and the
    Speed that scales its intervals."""
    probe = SpeedProbe()
    probe.start()
    try:
        result = work()
    finally:
        probe.stop()
    return result, Speed(probe.samples())


def _scaled_ms(speed: Speed, intervals) -> list[float]:
    return [speed.scaled_ns(lo, hi) / 1e6 for lo, hi in intervals]


def _raw_ms(intervals) -> list[float]:
    return [(hi - lo) / 1e6 for lo, hi in intervals]


def _unscaled_lines(e2e) -> list[str]:
    """The timed end-to-end metrics again, computed from unscaled times by
    `e2e(ms)`, where `ms` maps intervals to milliseconds."""
    return [f"unscaled {name} = {m['value']} {m['unit']}" for name, m in e2e(_raw_ms).items() if m["unit"] != "MB"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def live_mix(seed: int, seconds: int, trace: bool, workdir: Path) -> Result:
    inputs = live_mix_inputs(seed, LIVE_OPS_PER_S * seconds)

    def one_pass(traced: bool, setups: int, tag: str):
        deadline = perf_counter_ns() + LIVE_PASS_LIMIT_S * 10**9 // (2 if trace else 1)
        (rec, drop_a, drop_b, window, _sent), launches = live.run_pass(
            workdir, inputs, seed, traced, setups, deadline, tag
        )
        checked, executed = check_live_mix(inputs, rec)
        return rec, (drop_a, drop_b), window, checked, executed, launches

    def intervals(rec, executed):
        """Per request kind, the (sent, received) pairs of answered requests."""
        by_kind = {"do": [], "read": [], "evolve": []}
        for op, sent, received, reply in rec.a:
            if reply is not None and op.kind != "dump":
                by_kind["evolve" if op.kind.startswith("evolve") else op.kind].append((sent, received))
        by_kind["read"] += [(r[3], r[4]) for r in rec.b_reads if r[5] is not None]
        sent_at = {(name, new): sent for name, new, sent in executed}
        by_kind["push"] = [(sent_at[(n, new)], t) for n, _old, new, t in rec.pushes if (n, new) in sent_at]
        return by_kind

    rec, dropped, window, checked, executed, launches = one_pass(False, 1 if trace else LIVE_SETUP_REPS, "run")
    speed = Speed(launches[-1][1]["speed"])
    spans = intervals(rec, executed)
    lat = {kind: _scaled_ms(speed, pairs) for kind, pairs in spans.items()}
    replies = sum(1 for r in rec.a if r[3] is not None) + sum(1 for r in rec.b_reads if r[5] is not None)
    lines = [
        _spread_line("do -> executed", lat["do"], 0.9),
        _spread_line("read -> value", lat["read"]),
        _spread_line("evolve -> terminal", lat["evolve"], 0.9),
        _spread_line("do -> changed push", lat["push"]),
        f"sessions dropped: A {dropped[0]}, B {dropped[1]}; lost requests, pushes and read-backs: {checked.failed} of {checked.attempted}",
    ]
    if not trace:

        def e2e(ms, setup_ms):
            do_ms = ms(spans["do"])
            return _e2e(
                statistics.median(setup_ms) / 1e3,
                replies / (ms([window])[0] / 1e3),
                statistics.median(do_ms),
                pct(do_ms, 0.9),
                launches[-1][1]["peak_rss_kb"] / 1024,
            )

        # each launch is scaled by the probe of its own server process
        setup_ms = [_scaled_ms(Speed(report["speed"]), [interval])[0] for interval, report in launches]
        metrics = e2e(lambda intervals: _scaled_ms(speed, intervals), setup_ms)
        lines += _unscaled_lines(lambda ms: e2e(ms, ms([interval for interval, _ in launches])))
        return Result(checked, metrics, lines)
    # traced pass: same inputs, a fresh server with the wrappers installed
    rec_t, dropped_t, window_t, checked_t, executed_t, launches_t = one_pass(True, 1, "traced")
    report_t = launches_t[-1][1]
    traced_do = _scaled_ms(Speed(report_t["speed"]), intervals(rec_t, executed_t)["do"])
    overhead = 100 * (statistics.median(traced_do) / statistics.median(lat["do"]) - 1)
    requests = {op.req: (sent, received, op.kind) for op, sent, received, reply in rec_t.a if reply is not None}
    requests.update({r[0]: (r[3], r[4], "read") for r in rec_t.b_reads if r[5] is not None})
    client = {"requests": requests, "window": window_t, "dropped": sum(dropped_t)}
    metrics = _per_layer(per_layer(report_t["spans"], client), overhead)
    return Result(_merge_checks(checked, checked_t), metrics, lines)


def burst_drain(seed: int, seconds: int, trace: bool, workdir: Path) -> Result:
    import inproc  # imports meerkat, so only once src/ is on the path

    inputs = burst_drain_inputs(seed, max(1, round(BURSTS_PER_S * seconds)))

    def work():
        cfg, setups = inproc.timed_setups(lambda: inproc.ready_config(inputs.program), SETUP_REPS, SETUP_MIN_S)
        return (cfg, setups) + inproc.burst_pass(inputs, seed, cfg)

    (cfg, setups, checked, bursts), speed = _probed(work)
    burst_ms = _scaled_ms(speed, bursts)
    lines = [_spread_line("burst drain", burst_ms, 0.9)]
    if not trace:
        resolved = checked.attempted - checked.failed

        def e2e(ms):
            drain_ms = ms(bursts)
            return _e2e(
                statistics.median(ms(setups)) / 1e3,
                resolved / (sum(drain_ms) / 1e3),
                statistics.median(drain_ms),
                pct(drain_ms, 0.9),
                own_peak_rss_mb(),
            )

        metrics = e2e(lambda intervals: _scaled_ms(speed, intervals))
        return Result(checked, metrics, lines + _unscaled_lines(e2e))
    tracer = Tracer()
    tracer.install()
    try:
        (checked_t, bursts_t), speed_t = _probed(lambda: inproc.burst_pass(inputs, seed, cfg))
    finally:
        tracer.uninstall()
    overhead = 100 * (sum(_scaled_ms(speed_t, bursts_t)) / sum(burst_ms) - 1)
    metrics = _per_layer(per_layer(tracer.export()), overhead)
    return Result(_merge_checks(checked, checked_t), metrics, lines)


def explore_verdict(seed: int, seconds: int, trace: bool, workdir: Path) -> Result:
    import inproc  # imports meerkat, so only once src/ is on the path

    inputs = explore_verdict_inputs(seed)
    # a traced run times one verdict each way: the explorer's per-layer
    # counts are per verdict, and two passes of several would run too long
    verdicts = 1 if trace else max(1, round(seconds / SECONDS_PER_VERDICT))

    def work():
        _, setups = inproc.timed_setups(lambda: inproc.explore_setup(inputs), SETUP_REPS, SETUP_MIN_S)
        return (setups,) + inproc.explore_pass(inputs, verdicts)

    (setups, checked, runs, states), speed = _probed(work)
    verdict_ms = _scaled_ms(speed, runs)
    lines = [
        f"verdicts: {verdicts}, {states} states each, "
        + ", ".join(f"{t:.1f} ms" for t in verdict_ms)
        + " (unscaled "
        + ", ".join(f"{t:.1f} ms" for t in _raw_ms(runs))
        + ")"
    ]
    if not trace:

        def e2e(ms):
            run_ms = ms(runs)
            # the scenario's submissions, not the explored states: a
            # reduction that explores fewer states must read as faster
            return _e2e(
                statistics.median(ms(setups)) / 1e3,
                len(inputs.submissions) / (statistics.median(run_ms) / 1e3),
                statistics.median(run_ms),
                max(run_ms),
                own_peak_rss_mb(),
            )

        metrics = e2e(lambda intervals: _scaled_ms(speed, intervals))
        return Result(checked, metrics, lines + _unscaled_lines(e2e))
    tracer = Tracer()
    tracer.install()
    try:
        (checked_t, runs_t, _), speed_t = _probed(lambda: inproc.explore_pass(inputs, verdicts))
    finally:
        tracer.uninstall()
    overhead = 100 * (sum(_scaled_ms(speed_t, runs_t)) / sum(verdict_ms) - 1)
    metrics = _per_layer(per_layer(tracer.export()), overhead)
    return Result(_merge_checks(checked, checked_t), metrics, lines)


WORKLOADS = {"live_mix": live_mix, "burst_drain": burst_drain, "explore_verdict": explore_verdict}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "meerkat" / "__init__.py").is_file():
        print(f"perfbench: no meerkat sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    tmp = ROOT / ".bench_tmp"
    workdir = tmp / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:  # the run itself broke: report it, print no result
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp.rmdir()
        except OSError:
            pass
    checked = result.checked
    for line in result.lines:
        print(f"# {args.workload}: {line}")
    for what in checked.mismatches[:20]:
        print(f"# MISMATCH {what}")
    correct = not checked.mismatches
    print(f"# failed_frac: {checked.failed / max(1, checked.attempted)} ({checked.failed} of {checked.attempted})")
    for name, m in result.metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": checked.attempted, "failed": checked.failed, "metrics": result.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
