"""Tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    trace = [
        ["op", 0.0, 10.0, -1, 0],
        ["a.f", 1.0, 7.0, 0, 0],
        ["b.g", 2.0, 3.0, 1, 0],
        ["b.h", 2.5, 4.0, 1, 0],  # overlaps its sibling: covered once
        ["c.k", 6.5, 9.0, 1, 0],  # reaches past its parent: clipped
        ["c.k", 8.0, 9.0, 0, 0],
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 3.5, 1.0, 1.5, 2.5, 1.0])


def test_layer_metrics_sum_self_time_per_layer():
    trace = [["op", 0.0, 10.0, -1, 0], ["engine.epsilon_product", 1.0, 5.0, 0, 0],
             ["tensor.sym_outer", 2.0, 3.0, 1, 0], ["tensor.contract_full", 6.0, 8.0, 0, 0]]
    counters = {"terms": 36, "factor_entries": 3, "factor_keys": 4,
                "result_bits_max": 7, "term_mismatches": []}
    metrics = spans.layer_metrics(trace, counters, wall=10.0)
    assert metrics["engine.calls"] == 1 and metrics["tensor.calls"] == 2
    assert metrics["engine.self_s"] == pytest.approx(3.0)
    assert metrics["tensor.self_s"] == pytest.approx(3.0)
    assert metrics["tensor.share"] == pytest.approx(0.3)
    assert metrics["engine.epsilon_product.self_s"] == pytest.approx(3.0)
    assert metrics["engine.terms_per_s"] == pytest.approx(12.0)
    assert metrics["engine.factor_density"] == pytest.approx(0.75)


@pytest.mark.parametrize("rank,dim", [(2, 2), (2, 5), (3, 3), (4, 3), (6, 3)])
def test_term_formulas(rank, dim):
    assert spans.full_sum_terms(rank, dim) == math.factorial(dim) ** rank
    for split in range(dim + 1):
        expected = (math.factorial(dim) // (math.factorial(split) * math.factorial(dim - split))
                    * math.factorial(dim) ** (rank - 1))
        assert spans.coset_terms(rank, dim, split) == expected
        assert expected == math.comb(dim, split) * spans.full_sum_terms(rank - 1, dim)


@pytest.mark.parametrize("rank,dim,split", [(2, 3, 1), (4, 2, 1), (4, 3, 2), (2, 4, 4)])
def test_coset_formula_matches_the_engine_count(rank, dim, split):
    from hypermat import engine, random_symmetric

    a = random_symmetric(rank, dim, seed=5)
    g = random_symmetric(rank, dim, seed=6)
    _, count = engine.coset_restricted_product_counted(
        [a] * split + [g] * (dim - split), split)
    assert count == spans.coset_terms(rank, dim, split)


def test_tail_latency_is_the_eleventh_largest_sample():
    assert run.tail_latency(list(range(10))) is None
    assert run.tail_latency(list(range(11))) == (0, pytest.approx(100 / 11))
    assert run.tail_latency([5.0] * 5 + list(range(15))) == (5.0, 50.0)
    value, percentile = run.tail_latency(list(range(100, 0, -1)))
    assert (value, percentile) == (90, 90.0)
    assert sum(x > value for x in range(1, 101)) == 10


def test_reference_check_rejects_a_perturbed_output():
    op = workloads.Op("verify rank2 d=2 seed=1", "verify", ("rank2", 2, 1))
    outcome = workloads.Outcome(0, b'{"suite": "rank2 d=2", "all_pass": true}', 3)
    references = {op.key: workloads.reference_of(outcome)}
    assert workloads.check_outcome(references, op, outcome) is None
    perturbed = outcome._replace(output=outcome.output.replace(b"2", b"3"))
    message = workloads.check_outcome(references, op, perturbed)
    assert message.startswith(op.key) and "differs from reference" in message
    wrong_exit = outcome._replace(exit=1)
    assert "exit code 1, reference 0" in workloads.check_outcome(references, op, wrong_exit)
    other = op._replace(key="verify rank2 d=2 seed=999")
    assert "no reference" in workloads.check_outcome(references, other, outcome)


def test_recorded_references_cover_every_pool_op():
    references = workloads.load_references()
    keys = {op.key for groups in workloads.GROUPS.values()
            for group in groups for op in group}
    assert keys == set(references)


def test_group_sequence_is_a_seeded_order_of_the_pool():
    def keys(seed):
        groups = workloads.group_sequence("verify-even-top", seed)
        return [[op.key for op in group] for _, group in zip(range(60), groups)]

    first = keys(4)
    assert first == keys(4) and first != keys(5)
    assert first[48:] == first[:12]  # the pool of 48 groups repeats
    assert sorted(first[:48]) == sorted([op.key for op in group]
                                        for group in workloads.GROUPS["verify-even-top"])


FAKE_PACKAGE = {
    "__init__.py": "from .low import leaf\n",
    "low.py": """
        def leaf(x):
            return x + 1

        def twice(x):
            return leaf(leaf(x))

        class Box:
            def __init__(self, v):
                self.v = v

            def __add__(self, other):
                return Box(leaf(self.v) + other.v - 1)

            @classmethod
            def make(cls, v):
                return cls(v)
        """,
    "high.py": """
        from . import low
        from .low import twice

        def run(x):
            return REGISTRY["twice"](x) + low.leaf(x)

        def via_import(x):
            return twice(x)

        REGISTRY = {"twice": twice}
        """,
}


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    root = tmp_path / "fakepkg"
    root.mkdir()
    for name, body in FAKE_PACKAGE.items():
        (root / name).write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield __import__("fakepkg.high").high
    for name in ("fakepkg", "fakepkg.low", "fakepkg.high"):
        sys.modules.pop(name, None)


def test_recorder_nests_spans_at_every_binding(fake_package):
    import fakepkg.low as low

    original_twice = low.twice
    recorder = spans.Recorder()
    recorder.install("fakepkg", layers=("low", "high"))
    try:
        with recorder.op_span(0):
            assert fake_package.run(1) == 5
        with recorder.op_span(1):
            assert fake_package.via_import(1) == 3
            assert (low.Box.make(1) + low.Box(2)).v == 3
    finally:
        recorder.uninstall()
    names = [(s[0], recorder.spans[s[3]][0] if s[3] >= 0 else None, s[4])
             for s in recorder.spans]
    assert names == [
        ("op", None, 0),
        ("high.run", "op", 0),
        ("low.twice", "high.run", 0),   # looked up through a registry dict
        ("low.leaf", "low.twice", 0),   # module global of the same module
        ("low.leaf", "low.twice", 0),
        ("low.leaf", "high.run", 0),    # module attribute
        ("op", None, 1),
        ("high.via_import", "op", 1),
        ("low.twice", "high.via_import", 1),  # bound by from-import
        ("low.leaf", "low.twice", 1),
        ("low.leaf", "low.twice", 1),
        ("low.Box.make", "op", 1),            # classmethod
        ("low.Box.__add__", "op", 1),         # operator method
        ("low.leaf", "low.Box.__add__", 1),
    ]
    for span in recorder.spans:
        if span[3] >= 0:
            parent = recorder.spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]
    assert low.twice is original_twice
    assert fake_package.REGISTRY["twice"] is original_twice
    assert fake_package.twice is original_twice


def test_recorder_on_hypermat_counts_and_restores():
    from hypermat import engine, suites

    original = engine.coset_restricted_product_counted
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.op_span(0):
            suites.run_suite("rank4", 2, 1, 1)
    finally:
        recorder.uninstall()
    assert engine.coset_restricted_product_counted is original
    assert recorder.counters["term_mismatches"] == []
    assert recorder.counters["terms"] > 0
    metrics = spans.layer_metrics(recorder.spans, recorder.counters, wall=1.0)
    assert metrics["suites.calls"] >= 2 and metrics["engine.calls"] > 0


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GROUPS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = spans.layer_metrics(
        [], {"terms": 0, "factor_entries": 0, "factor_keys": 0,
             "result_bits_max": 0}, wall=1.0)
    expected = list(layer_names) + ["cli.import_s", "documents.load_s", "tracing_overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == expected
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.per_layer_unit(metric["name"])
