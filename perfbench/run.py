"""Benchmark of threebraid's certified decisions, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep, deep, symmetry, partials, or all (each in turn).  A run
measures whole passes over the workload's input set, each pass in a
fresh worker interpreter (worker.py) and in its own order drawn from the
seed, as many as fit in S seconds and at least one.  Every answer is
checked against the oracles in workloads.py outside the timed windows,
and every pass must give the same answers as the first.  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--trace 0 reports the end-to-end metrics.  Their request and set-up
times are scaled to a fixed host speed, sampled while the pass runs
(hostspeed.py); the unscaled figures are printed above the JSON line.
Passes are counted in scaled seconds too.  --trace 1 runs one plain and
one traced pass in the same order, neither sampling the host, requires
identical answers, and reports the per-layer metrics of the traced pass,
unscaled, plus the tracing overhead.  Exit code 0 means every answer was
correct; 1 means an oracle rejected an answer; 2 means the benchmark
could not run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import ceil
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 9          # set-up time is the median of this many fresh starts
DEADLINE_S = 170    # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload, order, mode, deadline):
    """Run one worker; return its JSON document plus its set-up time,
    unscaled and scaled to the reference host speed."""
    start = time.monotonic()
    if start >= deadline:
        raise BenchError("out of time before the run completed")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, order, mode],
            cwd=ROOT, capture_output=True, text=True, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["raw_setup_s"] = doc["ready"] - start
    doc["setup_s"] = (doc["raw_setup_s"] * hostspeed.REFERENCE_S
                      / doc["setup_probe_s"])
    doc["order"] = order
    return doc


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def _answer_set(p):
    return Counter(json.dumps(a, sort_keys=True) for a in p["answers"])


def verify(workload, passes):
    """Oracle failures of the first pass, once per pass, plus the requests
    whose answers differ from the first pass's."""
    import workloads

    first = passes[0]
    items = workloads.inputs(workload, first["order"])
    failed, msgs = workloads.check(workload, items, first["answers"])
    failed *= len(passes)
    for p in passes[1:]:
        differ = sum((_answer_set(p) - _answer_set(first)).values())
        if differ:
            failed += differ * workloads.requests_per_answer(workload)
            msgs.append(f"{differ} answer(s) differ between passes")
    return failed, msgs


def _latency_metrics(passes, key, per_answer):
    """Throughput and latency percentiles over the passes' request times.

    On partials one timed batch delivers per_answer requests at once.
    """
    times = [t for p in passes for t in p[key]]
    latencies = sorted(t for t in times for _ in range(per_answer))
    return {
        "throughput_ops_s": (len(latencies) / sum(times), "ops/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
    }


def measure(workload, seed, seconds, trace):
    """Run one workload; return (attempted, failed, messages, metrics)."""
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    if trace:
        passes = [spawn(workload, f"{seed}:0", "plain", deadline),
                  spawn(workload, f"{seed}:0", "trace", deadline)]
    else:
        passes = [spawn(workload, f"{seed}:0", "pass", deadline)]
        while True:
            took = [sum(p["scaled_s"]) for p in passes]
            if sum(took) + statistics.mean(took) > seconds:
                break
            passes.append(spawn(workload, f"{seed}:{len(passes)}", "pass",
                                deadline))
    per_answer = workloads.requests_per_answer(workload)
    attempted = sum(len(p["answers"]) for p in passes) * per_answer
    failed, msgs = verify(workload, passes)

    if trace:
        plain, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (
            1 - sum(plain["busy_s"]) / sum(traced["busy_s"]), "ratio")
    else:
        setups = list(passes)
        while len(setups) < SETUPS:
            setups.append(spawn(workload, f"{seed}:0", "setup", deadline))
        metrics = _latency_metrics(passes, "scaled_s", per_answer)
        metrics["setup_s"] = (
            statistics.median(p["setup_s"] for p in setups), "s")
        metrics["peak_rss_mb"] = (max(p["rss_kb"] for p in passes) / 1024, "MB")
        raw = _latency_metrics(passes, "busy_s", per_answer)
        raw["setup_s"] = (statistics.median(p["raw_setup_s"] for p in setups),
                          "s")
        probe = statistics.median(p["probe_s"] for p in passes)
        print(f"{workload}: {len(passes)} pass(es), {attempted} requests, "
              f"{len(setups)} set-ups; host probe {1000 * probe:.3f} ms "
              f"(reference {1000 * hostspeed.REFERENCE_S:g} ms); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items()))
    return attempted, failed, msgs, {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "threebraid" / "__init__.py").is_file():
        print(f"no threebraid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(name not in workloads.NAMES for name in names):
        parser.error(f"--workload must be one of {workloads.NAMES} or all")
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            n, bad, msgs, found = measure(name, args.seed, args.seconds,
                                          bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        attempted += n
        failed += bad
        for msg in msgs:
            print(f"ORACLE {name}: {msg}", file=sys.stderr)
        print(f"{name}: failed {bad} of {n} (failed_frac {bad / n:.6g})")
        for metric, m in found.items():
            print(f"  {metric:48} {m['value']:>14.6g} {m['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
