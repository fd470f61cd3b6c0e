"""The two in-process workloads, driven through meerkat's library API.

Meerkat functions are looked up on their modules at call time, so a
`Tracer` installed between passes sees every call.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

import meerkat.runtime as rt
import meerkat.simharness as sim
import meerkat.syntax as syn
from check import Checked, check_burst_drain, explore_expected
from gen import BurstInputs, ExploreInputs


def ready_config(program: str):
    """Meerkat's config after evolving `program` into an empty system."""
    cfg = rt.submit_evolution(rt.initial_config(), syn.parse_program(program), "init")
    cfg, outcomes = rt.run_until_quiescent(cfg)
    if not any(isinstance(o, rt.Accepted) for o in outcomes):
        raise RuntimeError(f"initial program rejected: {outcomes}")
    return cfg


def timed_setups(build, reps: int, min_s: float) -> tuple[object, list[tuple[int, int]]]:
    """Build at least `reps` times and for at least `min_s` seconds; return
    the last result and each build's interval."""
    spans = []
    end = perf_counter_ns() + int(min_s * 1e9)
    while len(spans) < reps or perf_counter_ns() < end:
        t0 = perf_counter_ns()
        result = build()
        spans.append((t0, perf_counter_ns()))
    return result, spans


def _outcome_entry(o):
    """(kind, submitter tags, failure reason) of a terminal outcome, or None."""
    if isinstance(o, rt.Executed):
        return "executed", o.who, None
    if isinstance(o, rt.Accepted):
        return "accepted", o.who, None
    if isinstance(o, rt.ActionFailed):
        return "failed", o.notified, getattr(o.error, "reason", None)
    if isinstance(o, rt.Rejected):
        return ("rejected", o.notified, None) if o.final else None
    if isinstance(o, rt.QueueDied):
        return "queue_died", o.notified, None
    raise TypeError(o)


def _int_values(store) -> dict:
    return {n: getattr(v, "v", v) for n, v in store.values().items()}


def drain_burst(ready, burst, seed: int):
    """Queue one burst on the `ready` config and drain it under
    `RandomSchedule(seed)`; return the burst's interval, its terminal
    outcomes in commit order and its final store.

    The interval covers parsing the submissions, queueing them and
    `run_until_quiescent`.
    """
    cfg = ready
    t0 = perf_counter_ns()
    for it in burst:
        if it.kind == "evolve":
            cfg = rt.submit_evolution(cfg, syn.parse_program(it.source), it.who)
        else:
            cfg = rt.submit_do(cfg, syn.parse_do(it.source), it.who)
    cfg, outcomes = rt.run_until_quiescent(cfg, rt.RandomSchedule(seed))
    interval = (t0, perf_counter_ns())
    return interval, [e for e in map(_outcome_entry, outcomes) if e is not None], _int_values(cfg.store)


def burst_pass(inputs: BurstInputs, seed: int, ready) -> tuple[Checked, list[tuple[int, int]]]:
    """Drain burst n from the `ready` config under `RandomSchedule(seed + n)`,
    for every burst; return the check and each burst's interval.

    Starting every burst from the same store keeps a burst's cost the same
    over the run, so burst times measure scheduling rather than the store's
    growing history (which `live_mix` measures).
    """
    intervals, log, finals = [], [], []
    for n, burst in enumerate(inputs.bursts):
        interval, entries, final = drain_burst(ready, burst, seed + n)
        intervals.append(interval)
        log.append(entries)
        finals.append(final)
        # A failed step's exception keeps its frames, and so whole stores,
        # in reference cycles that only a full collection frees.  Collect
        # after each burst, outside its interval, so that peak memory does
        # not depend on when the collector runs.
        gc.collect()
    return check_burst_drain(inputs, log, finals), intervals


def _scenario(inputs: ExploreInputs):
    items = tuple(sim.ScenarioItem(kind, source, who) for kind, source, who in inputs.submissions)
    return sim.Scenario(inputs.initial, items, independent=True)


def explore_setup(inputs: ExploreInputs):
    return sim.build_config(_scenario(inputs))


def explore_pass(inputs: ExploreInputs, verdicts: int) -> tuple[Checked, list[tuple[int, int]], int]:
    """Run the exhaustive explorer `verdicts` times; return the check, each
    verdict's interval and the states explored per verdict."""
    out = Checked()
    scenario = _scenario(inputs)
    times, states = [], 0
    for _ in range(verdicts):
        t0 = perf_counter_ns()
        verdict = sim.explore(scenario, sim.Exhaustive())
        times.append((t0, perf_counter_ns()))
        states = verdict.states
        out.attempted += 1
        if not (verdict.ok and verdict.schedules_complete):
            out.failed += 1
            out.expect(False, f"verdict ok={verdict.ok} complete={verdict.schedules_complete}: {verdict.violations[:3]}")
    # one schedule, checked against the benchmark's own arithmetic
    cfg, _ = rt.run_until_quiescent(sim.build_config(scenario))
    got, want = _int_values(cfg.store), explore_expected(inputs)
    out.expect(got == want, f"final store {got}, want {want}")
    return out, times, states
