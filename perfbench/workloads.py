"""Benchmark workloads: op pools, their seeded order, running one op, and
checking its output against the recorded reference hashes.

An op is one closed-loop request. For the verify workloads it is one
``suites.run_suite(name, d, seed, samples=1)`` call; for cli-batch it is one
``hypermat`` child process. Each workload has a fixed pool of op groups,
and the run seed only picks the order in which the groups are visited, so
every op a run can make has a reference in ``references.json``. A timed
run ends on a group boundary, so every run has the same mix of op kinds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

CLI_TIMEOUT_S = 60
COUNTED_STATUSES = ("pass", "reported")


class Op(NamedTuple):
    key: str
    kind: str  # "verify" or "cli"
    args: tuple


class Outcome(NamedTuple):
    exit: int
    output: bytes
    rows: int  # identity-check rows with status pass or reported


# Seeds whose single odd d=2 sample is a cubic with zero discriminant:
# verify_proportionality rejects such a call by design (there is no ratio
# to compare), so the pool leaves those ops out.
DEGENERATE_ODD_D2 = frozenset({31, 46})


def _verify_op(suite, dim, seed):
    return Op(f"verify {suite} d={dim} seed={seed}", "verify", (suite, dim, seed))


def _small_sweep_group(seed):
    # rank2 d=3 costs about five d=2 ops, so it runs on every other seed:
    # the sweep stays dominated by calls over two permutations, and the
    # median latency falls inside one op kind rather than between two
    specs = [("rank2", 2), ("rank4", 2), ("odd", 2)] + [("rank2", 3)] * (seed % 2)
    return [_verify_op(suite, dim, seed) for suite, dim in specs
            if not ((suite, dim) == ("odd", 2) and seed in DEGENERATE_ODD_D2)]


CLI_SETS = 8


def _cli_group(k: int):
    p = f"set{k}/"
    commands = [
        ["det", p + "r2d5.json"],
        ["inverse", p + "r2d5.json"],
        ["invariants", p + "r2d5.json", "--metric", p + "g2d5.json"],
        ["det", p + "r4d3.json"],
        ["inverse", p + "r4d3.json"],
        ["invariants", p + "r4d3.json", "--metric", p + "g4d3.json"],
        ["det", p + "r4d4.json", "--pretty"],
        ["lift", p + "c3d2.json"],
        ["inverse", p + "c3d2.json"],
        ["det", p + "c3d3.json"],
        ["lift", p + "c3d3.json"],
        ["inverse", p + "singular.json"],
        ["det", p + "malformed.json"],
        ["verify", "--suite", "rank4", "--dim", "2", "--seed", str(k + 1), "--samples", "1"],
        ["verify", "--suite", "rank2", "--dim", "3", "--seed", str(k + 1), "--samples", "1"],
    ]
    return [Op("cli " + " ".join(argv), "cli", tuple(argv)) for argv in commands]


# Why each workload exists is recorded in BENCHMARK.json.
GROUPS = {
    "verify-even-top": [[_verify_op("rank2", 4, seed), _verify_op("rank4", 3, seed)]
                        for seed in range(1, 49)],
    "verify-odd3": [[_verify_op("odd", 3, seed)] for seed in range(1, 49)],
    "verify-small-sweep": [_small_sweep_group(seed) for seed in range(1, 129)],
    "cli-batch": [_cli_group(k) for k in range(CLI_SETS)],
}

# ops in the traced run (and in the untraced pass it is compared with)
TRACED_OPS = {"verify-even-top": 16, "verify-odd3": 6,
              "verify-small-sweep": 240, "cli-batch": 15}


def group_sequence(workload: str, seed: int):
    """Endless stream of op groups: the workload's pool in a seed-shuffled
    order, repeated."""
    groups = list(GROUPS[workload])
    random.Random(seed).shuffle(groups)
    return itertools.cycle(groups)


# -- documents for cli-batch ------------------------------------------

def _random_doc(rng: random.Random, rank: int, dim: int) -> dict:
    entries = []
    for key in itertools.combinations_with_replacement(range(dim), rank):
        num = rng.randint(-7, 7)
        if not num:
            continue
        den = rng.randint(1, 4)
        index = list(key)
        rng.shuffle(index)  # documents may list indices in any order
        entries.append({"index": index,
                        "value": str(num) if den == 1 else f"{num}/{den}"})
    return {"rank": rank, "dim": dim, "entries": entries}


def documents(k: int) -> dict:
    """The documents of CLI set k, by file name. Every command on them
    enumerates at most about 1e5 terms."""
    rng = random.Random(7919 * (k + 1))
    docs = {name: _random_doc(rng, rank, dim) for name, rank, dim in (
        ("r2d5.json", 2, 5), ("g2d5.json", 2, 5), ("r4d3.json", 4, 3),
        ("g4d3.json", 4, 3), ("r4d4.json", 4, 4), ("c3d2.json", 3, 2),
        ("c3d3.json", 3, 3))}
    # every signed term needs index 1 in more slots than these entries hold
    docs["singular.json"] = {"rank": 4, "dim": 2, "entries": [
        {"index": [0, 0, 0, 0], "value": str(k + 2)},
        {"index": [0, 0, 1, 0], "value": "1/2"}]}
    # two orderings of one canonical index
    docs["malformed.json"] = {"rank": 4, "dim": 2, "entries": [
        {"index": [0, 0, 1, 1], "value": "1"},
        {"index": [1, 0, 1, 0], "value": "2"}]}
    return docs


def write_documents(docs_dir: Path):
    for k in range(CLI_SETS):
        target = docs_dir / f"set{k}"
        target.mkdir(parents=True, exist_ok=True)
        for name, doc in documents(k).items():
            (target / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")


# -- running ops ------------------------------------------------------

def child_env() -> dict:
    """Environment of every child: the checkout's sources, one thread."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_verify(args) -> Outcome:
    from hypermat import suites

    suite, dim, seed = args
    report = suites.run_suite(suite, dim, seed, 1)
    rows = sum(c.status in COUNTED_STATUSES for c in report.checks)
    return Outcome(0 if report.all_pass else 1,
                   json.dumps(report.to_dict()).encode(), rows)


def run_cli(argv, docs_dir: Path, trace_file: Path | None = None,
            trace_op: int | None = None) -> Outcome:
    if trace_file is None:
        cmd = [sys.executable, "-m", "hypermat.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file),
               str(trace_op), *argv]
    proc = subprocess.run(cmd, cwd=docs_dir, env=child_env(),
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    rows = 0
    if argv[0] == "verify":
        try:
            checks = json.loads(proc.stdout)["checks"]
            rows = sum(c["status"] in COUNTED_STATUSES for c in checks)
        except (ValueError, KeyError, TypeError):
            rows = 0
    return Outcome(proc.returncode, proc.stdout, rows)


def run_op(op: Op, docs_dir: Path | None = None, **trace) -> Outcome:
    if op.kind == "verify":
        return run_verify(op.args)
    return run_cli(op.args, docs_dir, **trace)


# -- reference outputs ------------------------------------------------

def reference_of(outcome: Outcome) -> dict:
    return {"exit": outcome.exit,
            "sha256": hashlib.sha256(outcome.output).hexdigest()}


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def check_outcome(references: dict, op: Op, outcome: Outcome) -> str | None:
    """None when the op's exit code and output hash match its reference,
    otherwise a message naming the op that differed."""
    ref = references.get(op.key)
    if ref is None:
        return f"{op.key}: no reference recorded"
    got = reference_of(outcome)
    if got["exit"] != ref["exit"]:
        return f"{op.key}: exit code {got['exit']}, reference {ref['exit']}"
    if got["sha256"] != ref["sha256"]:
        return (f"{op.key}: output sha256 {got['sha256'][:16]} differs from "
                f"reference {ref['sha256'][:16]}")
    return None
