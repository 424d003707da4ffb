"""The hypermat benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (reasons in BENCHMARK.json): verify-even-top, verify-odd3,
verify-small-sweep, cli-batch. Each is a closed loop with one client: an op
starts only after the previous one returned. Every op's output is checked
against ``perfbench/references.json`` (regenerate with record.py).

``--trace 0`` runs the workload in fresh single-threaded processes pinned
to one CPU: four that only set up and one that sets up and then runs the
timed loop for T seconds, ending on an op-group boundary. It prints the
end-to-end metrics. Their times are scaled for host speed by a calibration
kernel measured next to each op (see speed.py); the raw wall values are
printed beside them. ``--trace 1`` runs each op of a fixed list once
untraced and once under the span recorder and prints the per-layer
metrics in raw wall time; the spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits 2 without a result when the
checkout has no hypermat sources, and 1 when a worker fails or a traced
term count disagrees with the engine's own.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from workloads import HERE, ROOT, SRC

SETUP_REPS = 5
RUN_BUDGET_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "checks_per_s": "1/s",
                    "latency_p50_s": "s", "latency_tail_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".terms", ".retries")):
        return "count"
    if name.endswith((".share", ".factor_density")):
        return "ratio"
    if name.endswith(".terms_per_s"):
        return "1/s"
    if name.endswith(".result_bits_max"):
        return "bits"
    return "s"


def tail_latency(latencies):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest value, which is percentile 100*(n-10)/n of n samples.
    Returns (value, percentile), or None for fewer than 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100 * (n - 10) / n


class WorkerError(Exception):
    pass


def _worker(args, mode: str, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the run budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment() -> str:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return (f"python={platform.python_version()} numpy={numpy} "
            f"commit={commit} nproc={len(os.sched_getaffinity(0))}")


def _end_to_end(args, deadline):
    setups = [_worker(args, "setup", deadline) for _ in range(SETUP_REPS - 1)]
    result = _worker(args, "timed", deadline)
    setups.append(result)
    latencies, busy = result["latencies"], result["busy_s"]
    n = len(latencies)
    tail, percentile = tail_latency(latencies)
    values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
              "ops_per_s": n / busy,
              "checks_per_s": result["rows"] / busy,
              "latency_p50_s": statistics.median(latencies),
              "latency_tail_s": tail,
              "peak_rss_mb": result["peak_rss_mb"]}
    raw_tail, _ = tail_latency(result["raw_latencies"])
    raw = {"setup_s": statistics.median(s["raw_setup_s"] for s in setups),
           "ops_per_s": n / result["raw_busy_s"],
           "checks_per_s": result["rows"] / result["raw_busy_s"],
           "latency_p50_s": statistics.median(result["raw_latencies"]),
           "latency_tail_s": raw_tail}
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "latency_p50_s": f"of {n} ops",
             "latency_tail_s": f"p{percentile:.2f} of {n} ops"}
    print(f"{n} ops in {result['elapsed_s']:.2f} s; times scaled for host "
          "speed, raw wall values in brackets")
    for name, value in values.items():
        bracket = f"[{raw[name]!r}]" if name in raw else ""
        print(f"{name:<16} {value!r} {END_TO_END_UNITS[name]} {bracket} "
              f"{notes.get(name, '')}")
    failed = len(result["failures"])
    print(f"{'failed_ops_ratio':<16} {failed / n!r} ratio  {failed} of {n} ops")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return result, n, metrics


def _per_layer(args, deadline):
    result = _worker(args, "traced", deadline)
    if result["term_mismatches"]:
        raise WorkerError("term counts disagree with the engine:\n"
                          + "\n".join(result["term_mismatches"]))
    metrics = {name: {"value": value, "unit": per_layer_unit(name)}
               for name, value in result["metrics"].items()}
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']!r} {metric['unit']}")
    print(f"untraced {result['untraced_wall_s']!r} s, traced "
          f"{result['traced_wall_s']!r} s; spans in {result['spans_file']}")
    return result, result["attempted"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypermat benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GROUPS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "hypermat" / "__init__.py").is_file():
        print(f"error: no hypermat sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the workers and their children, so the speed
    # calibration and the ops run where the same neighbours interfere
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_BUDGET_S
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; {_environment()}")
    try:
        result, attempted, metrics = (_per_layer if args.trace else _end_to_end)(
            args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = result["warmup_failures"] + result["failures"]
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(result["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
