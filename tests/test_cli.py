"""Command-line interface: file handling, outputs, exit codes, and
determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypermat import cli, engine, oddrank, suites, tensor
from hypermat.documents import tensor_from_document, tensor_to_document
from hypermat.invariants import identity_residual
from hypermat.tensor import SymTensor, from_matrix

SAMPLE_A_DOC = {"rank": 4, "dim": 2, "entries": [
    {"index": [0, 0, 0, 0], "value": "1"},
    {"index": [1, 1, 1, 1], "value": "1"},
    {"index": [0, 0, 1, 1], "value": "1"}]}

HAND_MATRIX_DOC = {"rank": 2, "dim": 2, "entries": [
    {"index": [0, 0], "value": "2"},
    {"index": [0, 1], "value": "1"},
    {"index": [1, 1], "value": "3"}]}

UNIT_DOC = {"rank": 2, "dim": 2, "entries": [
    {"index": [0, 0], "value": "1"},
    {"index": [1, 1], "value": "1"}]}

DIAG_METRIC_DOC = {"rank": 4, "dim": 2, "entries": [
    {"index": [0, 0, 0, 0], "value": "1"},
    {"index": [1, 1, 1, 1], "value": "1"}]}

# the two factors of each signed term hold index 1 in four slots between
# them, and no entry here holds it
SINGULAR_RANK4_DOC = {"rank": 4, "dim": 2, "entries": [
    {"index": [0, 0, 0, 0], "value": "1"}]}

SINGULAR_MATRIX_DOC = {"rank": 2, "dim": 2, "entries": [
    {"index": [0, 0], "value": "1"}, {"index": [0, 1], "value": "1"},
    {"index": [1, 1], "value": "1"}]}

CORNERS_DOC = {"rank": 3, "dim": 2, "entries": [
    {"index": [0, 0, 0], "value": "1"},
    {"index": [1, 1, 1], "value": "1"}]}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc,
                    encoding="utf-8")
    return str(path)


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocuments:
    def test_round_trip(self):
        tensor = tensor_from_document(SAMPLE_A_DOC)
        assert tensor_from_document(tensor_to_document(tensor)) == tensor

    def test_indices_canonicalize_on_load(self):
        doc = {"rank": 2, "dim": 2, "entries": [
            {"index": [1, 0], "value": "5"}]}
        tensor = tensor_from_document(doc)
        assert tensor.component((0, 1)) == 5

    def test_duplicate_canonical_index_rejected(self):
        doc = {"rank": 2, "dim": 2, "entries": [
            {"index": [0, 1], "value": "1"},
            {"index": [1, 0], "value": "2"}]}
        with pytest.raises(ValueError, match="duplicate"):
            tensor_from_document(doc)

    def test_output_is_sorted_and_sparse(self):
        tensor = SymTensor.from_entries(2, 2, {(1, 1): 3, (0, 0): 1})
        doc = tensor_to_document(tensor)
        assert doc["entries"] == [
            {"index": [0, 0], "value": "1"}, {"index": [1, 1], "value": "3"}]

    def test_integer_values_accepted(self):
        doc = {"rank": 2, "dim": 2, "entries": [{"index": [0, 0], "value": 4}]}
        assert tensor_from_document(doc).component((0, 0)) == 4

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="lacks"):
            tensor_from_document({"rank": 2, "dim": 2})

    def test_index_out_of_range(self):
        doc = {"rank": 2, "dim": 2, "entries": [{"index": [0, 2], "value": "1"}]}
        with pytest.raises(ValueError, match="out of range"):
            tensor_from_document(doc)

    def test_wrong_index_length(self):
        doc = {"rank": 2, "dim": 2, "entries": [{"index": [0], "value": "1"}]}
        with pytest.raises(ValueError):
            tensor_from_document(doc)

    def test_non_rational_value(self):
        doc = {"rank": 2, "dim": 2, "entries": [{"index": [0, 0], "value": "abc"}]}
        with pytest.raises(ValueError):
            tensor_from_document(doc)

    def test_boolean_value_rejected(self):
        doc = {"rank": 2, "dim": 2, "entries": [{"index": [0, 0], "value": True}]}
        with pytest.raises(TypeError):
            tensor_from_document(doc)

    @pytest.mark.parametrize("doc", [
        {"rank": True, "dim": 2, "entries": [{"index": [True], "value": "1"}]},
        {"rank": 2, "dim": True, "entries": []},
        {"rank": 2, "dim": 2, "entries": [{"index": [0, True], "value": "1"}]},
    ])
    def test_booleans_rejected_as_integers(self, doc, tmp_path, capsys):
        with pytest.raises(ValueError):
            tensor_from_document(doc)
        path = write_doc(tmp_path, "bool.json", doc)
        code, out, err = run(capsys, "det", path)
        assert code == 2
        assert out == ""
        assert err


class TestDet:
    def test_fourth_rank_fixture(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        code, out, _ = run(capsys, "det", path)
        assert code == 0
        assert out.strip() == "4"

    def test_unit_matrix(self, tmp_path, capsys):
        path = write_doc(tmp_path, "i.json", UNIT_DOC)
        code, out, _ = run(capsys, "det", path)
        assert code == 0
        assert out.strip() == "1"

    def test_odd_rank_reports_both_values(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", CORNERS_DOC)
        code, out, _ = run(capsys, "det", path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon: 0 (identically zero for odd rank)"
        assert lines[1] == "cayley: 1"

    def test_pretty_odd_rank_prints_the_labelled_lines(self, tmp_path, capsys):
        # both odd-rank values are labelled already, so --pretty prints
        # exactly what the plain command prints
        path = write_doc(tmp_path, "s.json", CORNERS_DOC)
        code, plain, _ = run(capsys, "det", path)
        pretty_code, pretty, err = run(capsys, "det", "--pretty", path)
        assert code == pretty_code == 0
        assert err == ""
        assert pretty == plain == (
            "epsilon: 0 (identically zero for odd rank)\ncayley: 1\n")

    def test_malformed_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", "{not json")
        code, out, err = run(capsys, "det", path)
        assert code == 2
        assert out == ""
        assert err

    @pytest.mark.parametrize("value", ["1/0", "0/0", "1e10000000", "nan", "0.5"])
    def test_malformed_value_exits_2(self, value, tmp_path, capsys):
        doc = {"rank": 2, "dim": 2, "entries": [{"index": [0, 0], "value": value}]}
        path = write_doc(tmp_path, "value.json", doc)
        code, out, err = run(capsys, "det", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, out, _ = run(capsys, "det", "/nonexistent/tensor.json")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("doc", [
        {"rank": 12, "dim": 10, "entries": [{"index": [0] * 12, "value": "1"}]},
        {"rank": 2, "dim": 100000, "entries": []},
        {"rank": 65, "dim": 1, "entries": []},
        # the rank is tested first, so 10 ** (10 ** 18) is never formed
        {"rank": 10 ** 18, "dim": 10, "entries": []},
    ])
    def test_oversized_document_exits_2_at_once(self, doc, tmp_path, capsys,
                                                 monkeypatch):
        def enumerate_indices(*args):
            raise AssertionError("indices enumerated for an oversized document")

        monkeypatch.setattr(tensor, "_keys", enumerate_indices)
        monkeypatch.setattr(tensor, "_orbits", enumerate_indices)
        path = write_doc(tmp_path, "big.json", doc)
        started = time.perf_counter()
        code, out, err = run(capsys, "det", path)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "size bound" in err

    @pytest.mark.parametrize("command", ["det", "invariants", "inverse"])
    def test_a_rank2_d20_document_is_over_the_work_budget(self, command, tmp_path,
                                                          capsys, monkeypatch):
        # it loads at once, and its sum is refused before any plan is built:
        # both plans read the key codes first after their estimate
        def build(*args):
            raise AssertionError("a plan was built for a refused request")

        monkeypatch.setattr(engine, "_key_codes", build)
        path = write_doc(tmp_path, "d20.json", {"rank": 2, "dim": 20, "entries": [
            {"index": [i, i], "value": str(i + 1)} for i in range(20)]})
        extra = ["--metric", path] if command == "invariants" else []
        code, out, err = run(capsys, command, path, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "over the work budget" in err

    @pytest.mark.parametrize("command", ["det", "invariants", "inverse"])
    def test_a_rank2_d1000_estimate_past_the_float_range_exits_2(
            self, command, tmp_path, capsys):
        # the document bound admits it, and its estimate of about 5e605
        # steps is past what a float holds
        path = write_doc(tmp_path, "d1000.json", {"rank": 2, "dim": 1000, "entries": [
            {"index": [i, i], "value": str(i + 1)} for i in range(1000)]})
        extra = ["--metric", path] if command == "invariants" else []
        code, out, err = run(capsys, command, path, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "over the work budget" in err


class TestInvariants:
    def test_hand_matrix(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", HAND_MATRIX_DOC)
        g = write_doc(tmp_path, "g.json", UNIT_DOC)
        code, out, _ = run(capsys, "invariants", a, "--metric", g)
        assert code == 0
        assert json.loads(out) == ["1", "5", "5"]

    def test_self_metric_binomials(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        code, out, _ = run(capsys, "invariants", a, "--metric", a)
        assert code == 0
        assert json.loads(out) == ["1", "2", "1"]

    def test_fourth_rank_diagonal_metric(self, tmp_path, capsys):
        # det(G) = 1, det(A) = 4, and only the two corner terms survive in
        # the order-1 sum
        a = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        g = write_doc(tmp_path, "g.json", DIAG_METRIC_DOC)
        code, out, _ = run(capsys, "invariants", a, "--metric", g)
        assert code == 0
        assert json.loads(out) == ["1", "2", "4"]

    def test_singular_metric(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", HAND_MATRIX_DOC)
        g = write_doc(tmp_path, "g.json", SINGULAR_MATRIX_DOC)
        code, out, err = run(capsys, "invariants", a, "--metric", g)
        assert code == 3
        assert out == ""
        assert "determinant" in err

    def test_singular_fourth_rank_metric(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        g = write_doc(tmp_path, "g.json", SINGULAR_RANK4_DOC)
        code, out, err = run(capsys, "invariants", a, "--metric", g)
        assert code == 3
        assert out == ""
        assert "determinant" in err

    def test_rank_mismatch(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        g = write_doc(tmp_path, "g.json", UNIT_DOC)
        code, out, _ = run(capsys, "invariants", a, "--metric", g)
        assert code == 2

    def test_odd_rank_needs_lift(self, tmp_path, capsys):
        s = write_doc(tmp_path, "s.json", CORNERS_DOC)
        code, _, err = run(capsys, "invariants", s, "--metric", s)
        assert code == 2
        assert "lift" in err

    def test_pretty_table(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", HAND_MATRIX_DOC)
        g = write_doc(tmp_path, "g.json", UNIT_DOC)
        code, out, _ = run(capsys, "invariants", a, "--metric", g, "--pretty")
        assert code == 0
        assert out.splitlines() == ["c_0 = 1", "c_1 = 5", "c_2 = 5"]

    def test_the_metric_determinant_is_enumerated_once(
            self, tmp_path, capsys, monkeypatch):
        # one row product for det(G), which is also order 0's numerator,
        # one for det(A), order 3's, and one packed pass over the pair for
        # orders 1 and 2; repeats are served from the command's
        # shared-sums block
        docs = [tensor_to_document(suites.random_invertible(4, 3, seed))
                for seed in (3, 4)]
        assert docs[0] != docs[1]
        a, g = (write_doc(tmp_path, f"{name}.json", doc)
                for name, doc in zip("ag", docs))
        enumerated = []

        def counted(name):
            function = getattr(engine, name)

            def enumeration(*args, **kwargs):
                enumerated.append(name)
                return function(*args, **kwargs)
            return enumeration

        for name in ("_enumerate", "_packed"):
            monkeypatch.setattr(engine, name, counted(name))
        code, out, _ = run(capsys, "invariants", a, "--metric", g)
        assert code == 0 and len(json.loads(out)) == 4
        assert sorted(enumerated) == ["_enumerate", "_enumerate", "_packed"]


class TestInverse:
    def test_fourth_rank_fixture(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        code, out, _ = run(capsys, "inverse", path)
        assert code == 0
        doc = json.loads(out)
        assert {"index": [0, 0, 0, 0], "value": "1/4"} in doc["entries"]

    def test_unit_matrix(self, tmp_path, capsys):
        path = write_doc(tmp_path, "i.json", UNIT_DOC)
        code, out, _ = run(capsys, "inverse", path)
        assert json.loads(out) == UNIT_DOC

    def test_round_trip_contraction(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        _, out, _ = run(capsys, "inverse", path)
        inverse = tensor_from_document(json.loads(out))
        original = tensor_from_document(SAMPLE_A_DOC)
        assert identity_residual(inverse, original) == 0

    def test_a_rank2_d8_inverse_is_within_the_work_budget(self, tmp_path, capsys):
        # the held copies merge by 7!, so the sign-level estimate is 8! * 8
        doc = {"rank": 2, "dim": 8, "entries": [
            {"index": [i, i], "value": str(i + 2)} for i in range(8)] + [
            {"index": [i, i + 1], "value": "1"} for i in range(7)]}
        path = write_doc(tmp_path, "d8.json", doc)
        code, out, err = run(capsys, "inverse", path)
        assert (code, err) == (0, "")
        inverse = tensor_from_document(json.loads(out))
        assert identity_residual(inverse, tensor_from_document(doc)) == 0

    @pytest.mark.parametrize("doc", [SINGULAR_MATRIX_DOC, SINGULAR_RANK4_DOC],
                             ids=["rank2", "rank4"])
    def test_singular_even_rank(self, doc, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", doc)
        code, out, err = run(capsys, "inverse", path)
        assert code == 3
        assert out == ""
        assert "determinant" in err

    def test_degenerate_cubic(self, tmp_path, capsys):
        doc = {"rank": 3, "dim": 2, "entries": [
            {"index": [0, 0, 0], "value": "1"}, {"index": [0, 0, 1], "value": "1"},
            {"index": [0, 1, 1], "value": "1"}, {"index": [1, 1, 1], "value": "1"}]}
        path = write_doc(tmp_path, "s.json", doc)
        code, out, _ = run(capsys, "inverse", path)
        assert code == 3
        assert out == ""

    def test_unsupported_odd_shape(self, tmp_path, capsys):
        doc = {"rank": 3, "dim": 3, "entries": [
            {"index": [0, 1, 2], "value": "1"}]}
        path = write_doc(tmp_path, "s.json", doc)
        code, _, err = run(capsys, "inverse", path)
        assert code == 2
        assert "rank 3" in err


class TestVerify:
    def test_rank4_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rank4",
                           "--dim", "2", "--seed", "1", "--samples", "2")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert all(c["status"] != "fail" for c in report["checks"])

    def test_odd_passes_and_records_ratio(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "odd",
                           "--dim", "2", "--seed", "1", "--samples", "10")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["notes"]["ratio"] == "9/10"

    def test_rank2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rank2",
                           "--dim", "2", "--seed", "3", "--samples", "2")
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_dimension_guard(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "rank2",
                             "--dim", "5", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "(d!)^r" in err

    def test_dimension_below_the_supported_ones(self, capsys):
        # no budget is exceeded below the smallest dimension, so the
        # message names the supported dimensions only
        code, out, err = run(capsys, "verify", "--suite", "rank2",
                             "--dim", "1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "(2, 3, 4), not 1" in err
        assert "budget" not in err

    def test_sample_guard(self, capsys):
        # rejected before any sample runs, so this returns at once
        code, out, err = run(capsys, "verify", "--suite", "rank4", "--dim", "3",
                             "--seed", "1", "--samples", "1000000")
        assert code == 2
        assert out == ""
        assert "samples" in err

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "rank3",
                         "--dim", "2", "--seed", "1")
        assert code == 2

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "odd",
                          "--dim", "2", "--seed", "9", "--samples", "3")
        _, second, _ = run(capsys, "verify", "--suite", "odd",
                           "--dim", "2", "--seed", "9", "--samples", "3")
        assert first == second

    def test_pretty_rendering(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "odd", "--dim", "2",
                           "--seed", "1", "--samples", "2", "--pretty")
        assert code == 0
        assert "all checks passed" in out
        assert "pass" in out

    def test_candidate_rows_are_reported_not_failed(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "odd",
                           "--dim", "3", "--seed", "2", "--samples", "1")
        assert code == 0
        report = json.loads(out)
        statuses = {c["identity"]: c["status"] for c in report["checks"]}
        assert statuses["candidate_inverse_contraction"] == "reported"


class TestLift:
    def test_mixed_fixture(self, tmp_path, capsys):
        doc = {"rank": 3, "dim": 2, "entries": [
            {"index": [0, 0, 0], "value": "1"},
            {"index": [0, 1, 1], "value": "1"}]}
        path = write_doc(tmp_path, "s.json", doc)
        code, out, _ = run(capsys, "lift", path)
        assert code == 0
        result = json.loads(out)
        assert {"index": [0, 0, 0, 0, 1, 1], "value": "2/5"} in result["tensor"]["entries"]

    def test_corner_fixture(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", CORNERS_DOC)
        code, out, _ = run(capsys, "lift", path)
        result = json.loads(out)
        assert result["cubic_discriminant"] == "1"
        assert result["det"] == "9/10"
        assert result["ratio"] == "9/10"

    def test_zero_tensor(self, tmp_path, capsys):
        doc = {"rank": 3, "dim": 2, "entries": []}
        path = write_doc(tmp_path, "s.json", doc)
        code, out, _ = run(capsys, "lift", path)
        result = json.loads(out)
        assert result["tensor"]["entries"] == []
        assert result["det"] == "0"

    def test_wrong_rank(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", SAMPLE_A_DOC)
        code, out, _ = run(capsys, "lift", path)
        assert code == 2
        assert out == ""

    def test_a_d16_cubic_is_refused_before_it_is_squared(self, tmp_path, capsys,
                                                          monkeypatch):
        # the rank-6 square of a d=16 cubic holds C(21, 6) keys; its
        # determinant's budget refuses the shape first
        def square(*args):
            raise AssertionError("the lift of a refused shape was built")

        monkeypatch.setattr(oddrank, "sym_outer", square)
        path = write_doc(tmp_path, "s.json", {"rank": 3, "dim": 16, "entries": [
            {"index": [i, i, i], "value": str(i + 1)} for i in range(16)]})
        code, out, err = run(capsys, "lift", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "over the work budget" in err

    def test_lifted_tensor_feeds_back_into_det(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", CORNERS_DOC)
        _, out, _ = run(capsys, "lift", path)
        lifted_doc = json.loads(out)["tensor"]
        lifted_path = write_doc(tmp_path, "lifted.json", lifted_doc)
        code, out, _ = run(capsys, "det", lifted_path)
        assert code == 0
        assert out.strip() == "9/10"


def test_unit_matrix_helper_matches_fixture():
    assert tensor_from_document(UNIT_DOC) == from_matrix([[1, 0], [0, 1]])


def test_cli_import_leaves_numpy_unloaded():
    # the package uses the standard library alone; a stray numpy import
    # would cost every process its load
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c",
         "import hypermat.cli, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are named tuples and a plain class, so no process pays
    # for dataclasses and the inspect, ast and dis modules it imports;
    # -S keeps site-packages' own imports out of the count
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import hypermat.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def test_package_runs_with_numpy_blocked():
    # a None entry in sys.modules makes every numpy import fail
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from fractions import Fraction\n"
            "from hypermat import epsilon_inverse, from_matrix\n"
            "q = epsilon_inverse(from_matrix([[2, 1], [1, 3]]))\n"
            "assert q.component((0, 1)) == Fraction(-1, 5)\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
