"""One benchmark workload in a fresh single-threaded process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds T
           --mode setup|timed|traced --t0 MONOTONIC

``--t0`` is ``time.monotonic()`` read by the parent just before it started
this process; set-up time runs from there to the first timed op and covers
interpreter start, the import, generating the inputs and one warm-up op.
Reported times are scaled for host speed (see speed.py).
``setup`` mode stops there; ``timed`` runs the closed loop for ``--seconds``;
``traced`` runs each op of a fixed list once untraced and once under the
span recorder. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads
from workloads import OUT, SRC

MIN_OPS = 11  # the tail latency needs ten samples beyond it
PROBE_REPS = 3
CALIBRATE_EVERY_S = 0.1
SETUP_SAMPLES = 3


def _attempt(op, docs_dir, references, failures, **trace):
    """Run one op; return its latency and counted check rows. A failure is
    appended to ``failures`` and the loop goes on."""
    start = time.perf_counter()
    try:
        outcome = workloads.run_op(op, docs_dir, **trace)
    except Exception as exc:  # an op that raises counts as failed
        failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, 0
    latency = time.perf_counter() - start
    problem = workloads.check_outcome(references, op, outcome)
    if problem:
        failures.append(problem)
    return latency, outcome.rows


def _peak_rss_mb() -> float:
    # the worker and its largest child (cli-batch runs one child at a time)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _timed(args, groups, docs_dir, references) -> dict:
    """The closed loop. Each op's latency and its step (op plus output
    check) are scaled by the calibration samples taken just before and
    just after it."""
    latencies, steps, rows, failures = [], [], 0, []
    kernel = [speed.kernel_s()]
    sample_before = []
    last_sample = start = time.perf_counter()
    deadline = start + args.seconds
    for group in groups:
        for op in group:
            if time.perf_counter() - last_sample >= CALIBRATE_EVERY_S:
                kernel.append(speed.kernel_s())
                last_sample = time.perf_counter()
            step_start = time.perf_counter()
            latency, counted = _attempt(op, docs_dir, references, failures)
            steps.append(time.perf_counter() - step_start)
            latencies.append(latency)
            sample_before.append(len(kernel) - 1)
            rows += counted
        if time.perf_counter() >= deadline and len(latencies) >= MIN_OPS:
            break
    elapsed = time.perf_counter() - start
    kernel.append(speed.kernel_s())
    factors = [speed.factor(kernel[i:i + 2]) for i in sample_before]
    return {"latencies": [x * f for x, f in zip(latencies, factors)],
            "busy_s": sum(x * f for x, f in zip(steps, factors)),
            "raw_latencies": latencies, "raw_busy_s": sum(steps),
            "elapsed_s": elapsed, "rows": rows, "failures": failures,
            "peak_rss_mb": _peak_rss_mb()}


def _median_s(action) -> float:
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _probes(docs_dir, seed) -> dict:
    """Time of a bare ``import hypermat`` process, and of loading one set
    of cli-batch documents in this process."""
    from hypermat import documents

    cmd = [sys.executable, "-c", "import hypermat"]
    folder = docs_dir / f"set{seed % workloads.CLI_SETS}"
    paths = sorted(p for p in folder.iterdir() if p.name != "malformed.json")
    return {
        "cli.import_s": _median_s(lambda: subprocess.run(
            cmd, env=workloads.child_env(), check=True, timeout=60,
            capture_output=True)),
        "documents.load_s": _median_s(
            lambda: [documents.load_tensor(path) for path in paths]),
    }


def _traced(args, groups, docs_dir, references) -> dict:
    ops = list(itertools.islice(itertools.chain.from_iterable(groups),
                                workloads.TRACED_OPS[args.workload]))
    in_process = args.workload != "cli-batch"
    failures = []
    probes = _probes(docs_dir, args.seed)

    # Each op runs untraced and then traced, so drift in the machine's
    # speed affects both sides of the overhead alike.
    recorder = spans.Recorder()
    untraced_wall = traced_wall = 0.0
    for index, op in enumerate(ops):
        untraced_wall += _attempt(op, docs_dir, references, failures)[0]
        trace = {} if in_process else {
            "trace_file": docs_dir / f"spans-{index}.json", "trace_op": index}
        if in_process:
            recorder.install()
        try:
            with recorder.op_span(index) as root:
                _attempt(op, docs_dir, references, failures, **trace)
        finally:
            recorder.uninstall()
        traced_wall += recorder.spans[root][2] - recorder.spans[root][1]
        if trace:
            if trace["trace_file"].is_file():
                recorder.merge(json.loads(trace["trace_file"].read_text()), root)
            else:
                failures.append(f"{op.key}: traced child wrote no spans")

    metrics = spans.layer_metrics(recorder.spans, recorder.counters, traced_wall)
    metrics.update(probes)
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "ops": [op.key for op in ops], **recorder.dump()}))
    return {"metrics": metrics, "attempted": 2 * len(ops), "failures": failures,
            "term_mismatches": recorder.counters["term_mismatches"],
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "spans_file": str(spans_file)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GROUPS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--t0", required=True, type=float)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    docs_dir = OUT / f"docs-{os.getpid()}"
    try:
        if args.workload == "cli-batch" or args.mode == "traced":
            workloads.write_documents(docs_dir)
        if args.workload != "cli-batch":
            import hypermat.suites

            if not hypermat.suites.__file__.startswith(str(SRC)):
                raise SystemExit(f"hypermat imported from outside {SRC}")
        references = workloads.load_references()
        groups = workloads.group_sequence(args.workload, args.seed)
        warmup_failures = []
        # the warm-up op is the pool's first, so set-up is the same work
        # in every run
        _attempt(workloads.GROUPS[args.workload][0][0], docs_dir, references,
                 warmup_failures)
        setup_s = time.monotonic() - args.t0
        kernel = [speed.kernel_s() for _ in range(SETUP_SAMPLES)]
        result = {"setup_s": setup_s * speed.factor(kernel), "raw_setup_s": setup_s,
                  "warmup_failures": warmup_failures}
        if args.mode == "timed":
            result.update(_timed(args, groups, docs_dir, references))
        elif args.mode == "traced":
            result.update(_traced(args, groups, docs_dir, references))
    finally:
        shutil.rmtree(docs_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
