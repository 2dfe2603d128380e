"""Run one benchmark workload in this fresh interpreter and report what it measured.

Started by run.py with the checkout's src as PYTHONPATH.  Sets up (imports,
lexicon, inputs, warm-up), prints READY right before the first timed op,
runs whole rounds of ops for about --seconds, checks every op against its
known answer, and prints one JSON line.  --setup-only stops after READY.

The host this runs on changes speed by up to 1.8x in phases that last
from seconds to minutes.  A short fixed pure-Python kernel (host_probe)
is therefore timed between ops, and every op time is scaled by
(PROBE_REF_S / mean of the two probes around it) ** HOST_EXPONENT: times
read as they would on a host where the probe takes PROBE_REF_S.  Ops slow
down less than the probe does; HOST_EXPONENT is the slope of log op time
on log probe time over repeated identical ops (0.70 on long_trace, 0.74
on corpus).  The raw figures are reported next to the scaled ones.

With --trace 1 each round runs twice, untraced and traced in alternating
order, so the run can report its own tracing overhead; spans are kept in
memory and written to .bench_work/spans/ when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
PROBE_LOOPS = 5000
PROBE_REF_S = 1.5e-3
HOST_EXPONENT = 0.7


def host_probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now, with the collector off."""
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    state, acc, slots = (0.0, 1.0, 0.0), 0.0, {}
    for i in range(PROBE_LOOPS):
        state = (state[0] + 0.5, state[1] * 0.5 + 1.0, math.sqrt(i))
        slots[i & 63] = [state, acc]
        acc += state[0] * state[2]
    took = perf_counter() - start
    if collecting:
        gc.enable()
    return took


def host_scale(probe_s: float) -> float:
    """Factor that brings a time measured while the probe took probe_s to the reference host."""
    return (PROBE_REF_S / probe_s) ** HOST_EXPONENT


class Recorder:
    """Spans of one run: (op, name, parent, start, end, attrs), parent being a root name."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.op = 0
        self.parent = "op"
        self.scale: dict[int, float] = {}   # op -> host-speed factor for its spans

    def seconds(self, span: tuple) -> float:
        """The span's duration at the reference host speed."""
        return (span[4] - span[3]) * self.scale.get(span[0], 1.0)

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op, name, self.parent, start, perf_counter(), {}))

    def note(self, **attrs) -> None:
        """Attach what a call returned (ticks, states, ...) to the span just closed."""
        if self.enabled:
            self.spans[-1][5].update(attrs)

    def root(self, name: str, start: float, end: float) -> None:
        if self.enabled:
            self.spans.append((self.op, name, None, start, end, {}))

    def write(self, path: Path) -> None:
        index = {(op, name): i for i, (op, name, parent, *_) in enumerate(self.spans) if parent is None}
        with path.open("w", encoding="utf-8") as fh:
            for i, (op, name, parent, start, end, attrs) in enumerate(self.spans):
                record = {"span": i, "op": op, "name": name,
                          "parent": None if parent is None else index[(op, parent)],
                          "start": start, "end": end, **attrs}
                fh.write(json.dumps(record) + "\n")


class Tally:
    """Op times and outcomes of one kind of round (traced or untraced) in a run."""

    def __init__(self) -> None:
        self.op_s: list[float] = []      # scaled to the reference host speed
        self.raw_s: list[float] = []
        self.ticks = 0
        self.traces = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, raw: float, scale: float, checked) -> None:
        self.attempted += 1
        self.failed += checked.failed
        self.problems += checked.problems
        self.raw_s.append(raw)
        self.op_s.append(raw * scale)
        self.ticks += checked.ticks
        self.traces += checked.traces


def run_round(wl, inputs, rec: Recorder, tally: Tally, traced: bool) -> float:
    rec.enabled = traced
    round_start = perf_counter()
    done = []
    before = host_probe()
    for inp in inputs:
        rec.op += 1
        rec.parent = "op"
        t0 = perf_counter()
        result = wl.op(inp, rec)
        t1 = perf_counter()
        after = host_probe()
        rec.root("op", t0, t1)
        rec.parent = "check"
        c0 = perf_counter()
        checked = wl.check(inp, result, rec)
        rec.root("check", c0, perf_counter())
        done.append((rec.op, t1 - t0, host_scale((before + after) / 2), checked))
        before = after
    for op, raw, scale, checked in done:
        rec.scale[op] = scale
        tally.add(raw, scale, checked)
    return perf_counter() - round_start


def measure(wl, seconds: float, trace: bool, rec: Recorder) -> tuple[Tally, Tally]:
    """Whole rounds while the next one is expected to end within the time given."""
    untraced, traced = Tally(), Tally()
    start = perf_counter()
    k = 0
    while True:
        inputs = wl.round()
        if trace:
            # the same inputs untraced and traced, alternating which goes first
            first, second = (False, True) if k % 2 == 0 else (True, False)
            took = run_round(wl, inputs, rec, traced if first else untraced, first)
            took += run_round(wl, inputs, rec, traced if second else untraced, second)
        else:
            took = run_round(wl, inputs, rec, untraced, False)
        k += 1
        if perf_counter() - start + took > seconds:
            return untraced, traced


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def op_metrics(tally: Tally, op_s: list[float]) -> dict[str, tuple[float, str]]:
    busy = sum(op_s)
    return {
        "ops_per_s": (len(op_s) / busy, "1/s"),
        "op_ms_p50": (statistics.median(op_s) * 1e3, "ms"),
        "op_ms_p90": (p90(op_s) * 1e3, "ms"),
        "ticks_per_s": (tally.ticks / busy, "1/s"),
        "traces_per_s": (tally.traces / busy, "1/s"),
    }


def end_to_end(wl, tally: Tally) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference host speed, and the same figures raw."""
    if wl.name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = op_metrics(tally, tally.op_s)
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    raw = op_metrics(tally, tally.raw_s)
    raw["host_slowdown"] = (statistics.median(r / s for r, s in zip(tally.raw_s, tally.op_s)), "ratio")
    return metrics, raw


def per_layer(wl, rec: Recorder, untraced: Tally, traced: Tally) -> dict[str, tuple[float, str]]:
    """Layer metrics from the traced rounds; 0 for a layer this workload does not call."""
    spans = rec.spans

    def pick(name, **match):
        return [s for s in spans if s[1] == name and all(s[5].get(k) == v for k, v in match.items())]

    def busy(name, **match):
        return sum(rec.seconds(s) for s in pick(name, **match))

    def attr(name, key, **match):
        return sum(s[5].get(key, 0) for s in pick(name, **match))

    def per(total_s, count, scale=1e6):
        return total_s / count * scale if count else 0.0

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    executed = [s for s in pick("programs.execute") if not s[5].get("refused")]
    exec_ticks = sum(s[5]["ticks"] for s in executed)
    ops = traced.attempted
    out = {
        "parser.ms_per_op": (busy("parser.parse_text") / ops * 1e3, "ms"),
        "scene.ms_per_op": ((busy("scene.build_scene") + busy("scene.probe_scene")) / ops * 1e3, "ms"),
        "programs.compile.ms_per_op": (busy("programs.compile_event") / ops * 1e3, "ms"),
        "programs.execute.ms_per_op": (busy("programs.execute") / ops * 1e3, "ms"),
        "programs.execute.us_per_tick": (per(sum(rec.seconds(s) for s in executed), exec_ticks), "us"),
    }
    points = {}
    for d in (12.5, 25.0, 50.0, 100.0):
        key = "programs.execute.us_per_tick.d" + f"{d:g}".replace(".", "_")
        points[d] = median_or_zero(
            [rec.seconds(s) / s[5]["ticks"] * 1e6 for s in executed if s[5].get("distance") == d]
        )
        out[key] = (points[d], "us")
    growth = points[100.0] / points[12.5] if points[12.5] else 0.0
    out["programs.execute.tick_cost_growth"] = (growth, "ratio")
    refusals = [rec.seconds(s) for s in pick("programs.execute", refused=True)]
    out["programs.execute.refusal_ms"] = (median_or_zero(refusals) * 1e3, "ms")
    out["kinematics.tick.us_per_tick"] = (
        per(busy("kinematics.tick"), attr("kinematics.tick", "ticks")), "us")
    out["programs.enumerate.ms_per_op"] = (busy("programs.enumerate_traces") / ops * 1e3, "ms")
    for n in (8, 9, 10, 11, 12):
        durations = [rec.seconds(s) for s in pick("programs.enumerate_traces", n=n)]
        out[f"programs.enumerate.s.n{n}"] = (median_or_zero(durations), "s")
    out["programs.trace_key.us"] = (per(busy("programs.Trace.key"), attr("programs.Trace.key", "count")), "us")
    enum12 = busy("programs.enumerate_traces", n=12)
    share = busy("programs.Trace.key", n=12) / enum12 * 100 if enum12 else 0.0
    out["programs.trace_key.share_pct"] = (share, "%")
    for layer in ("write", "read"):
        for fmt in ("jsonl", "csv"):
            name = f"tracefile.{layer}_trace"
            out[f"tracefile.{layer}.us_per_state.{fmt}"] = (
                per(busy(name, fmt=fmt), attr(name, "states", fmt=fmt)), "us")
    out["verify.us_per_state"] = (per(busy("verify.verify_trace"), attr("verify.verify_trace", "states")), "us")
    checked_s = busy("tracefile.read_trace") + busy("verify.verify_trace", phase="read")
    read_states = attr("verify.verify_trace", "states", phase="read")
    out["states_checked_per_s"] = (read_states / checked_s if checked_s else 0.0, "1/s")
    out["cli.import_ms"] = (wl.import_ms() if wl.name == "cli" else 0.0, "ms")
    for command in ("simulate", "check", "enumerate"):
        durations = [rec.seconds(s) for s in pick(f"cli.{command}")]
        out[f"cli.{command}.ms_p50"] = (median_or_zero(durations) * 1e3, "ms")
    out["failed_ratio"] = ((untraced.failed + traced.failed) / (untraced.attempted + traced.attempted), "ratio")
    op_total = busy("op")
    in_layers = sum(rec.seconds(s) for s in spans if s[2] == "op")
    out["trace.accounted_pct"] = (in_layers / op_total * 100, "%")
    out["trace.overhead_pct"] = ((op_total / sum(untraced.op_s) - 1) * 100, "%")
    return out


def main(argv: list[str]) -> int:
    start_probe = host_probe()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import mosim  # the checkout's copy, never an installed one
    if not Path(mosim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mosim imported from {mosim.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-{args.seed}-{'setup' if args.setup_only else 'run'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.warm_up()
        # run.py scales the set-up time by the host speed seen here
        print(f"READY {(start_probe + host_probe()) / 2!r}", flush=True)
        if args.setup_only:
            return 0
        rec = Recorder()
        untraced, traced = measure(wl, args.seconds, bool(args.trace), rec)
        gate = wl.gate() if hasattr(wl, "gate") else []
        if args.trace:
            metrics, raw = per_layer(wl, rec, untraced, traced), {}
            (WORK / "spans").mkdir(exist_ok=True)
            rec.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, raw = end_to_end(wl, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = untraced.problems + traced.problems + gate
    for problem in dict.fromkeys(problems):
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
