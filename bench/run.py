#!/usr/bin/env python3
"""The mosim benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, seed 0, 25 s each

Run from anywhere inside a checkout; the checkout's src is measured,
never an installed mosim.  Each workload runs in its own fresh
interpreter (bench/harness.py).  Set-up is timed from process start to
the first timed op, in that process and in four more that only set up;
setup_s is the median of the five.  Every metric is printed as
"name value unit", and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.
Exits 1 when an output is wrong, and 2 without a result when the checks
cannot run.  bench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import host_scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("corpus", "long_trace", "enumerate", "cli")
SETUPS = 5
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """This environment with the checkout's src as the only import path for mosim."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOSIM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Failed(Exception):
    """The workload could not run to a result."""


def spawn(args: list[str], env: dict[str, str], deadline: float) -> tuple[tuple[float, float], subprocess.Popen]:
    """Start a harness process; return the seconds until it printed READY, and the process.

    The seconds come scaled to the reference host speed by the probe the
    harness took while it set up, as it scales op times, and raw.
    """
    cmd = [sys.executable, str(BENCH_DIR / "harness.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 1.0))
    word, _, probe = proc.stdout.readline().partition(" ") if ready else ("", "", "")
    took = time.perf_counter() - start
    if word != "READY":
        finish(proc, deadline)
        raise Failed(f"harness did not get ready: {' '.join(args)}")
    return (took * host_scale(float(probe)), took), proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the process until the deadline, killing its group past that; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failed("harness ran past the deadline") from None
    if proc.returncode != 0:
        raise Failed(f"harness exited {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUPS - 1):
        took, proc = spawn([*base, "--setup-only"], env, deadline)
        finish(proc, deadline)
        setups.append(took)
    took, proc = spawn([*base, "--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    setups.append(took)
    out = finish(proc, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setup = statistics.median(s for s, _ in setups)
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
        result["raw"]["setup_s"] = {"value": statistics.median(r for _, r in setups), "unit": "s"}
    return result


def report(name: str, result: dict) -> None:
    """Print every metric as "name value unit"; raw figures are marked raw."""
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']:.6g}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    for metric, entry in result.pop("raw").items():
        print(f"raw.{metric} {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "mosim" / "__init__.py", BENCH_DIR / "digests.json")
               if not p.is_file()]
    if missing:
        print(f"cannot check outputs: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except Failed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        report(name, results[name])
    correct = all(r["correct"] for r in results.values())
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
