"""Seeded suite helpers."""

import hashlib
import json

import pytest

from hypermat import SymTensor, engine, suites
from hypermat.report import FAIL


def test_random_invertible_gives_up_after_the_attempt_cap(monkeypatch):
    draws = []

    def singular(rank, dim, seed, bound):
        draws.append(seed)
        return SymTensor.zero(rank, dim)

    monkeypatch.setattr(suites, "random_symmetric", singular)
    with pytest.raises(ValueError, match="rank 4, dim 3 .* seed 17"):
        suites.random_invertible(4, 3, 17)
    assert len(draws) == suites.MAX_ATTEMPTS
    assert len(set(draws)) == suites.MAX_ATTEMPTS


@pytest.mark.parametrize("samples", [0, suites.MAX_SAMPLES + 1, 10 ** 6])
def test_run_suite_rejects_samples_outside_the_budget(monkeypatch, samples):
    ran = []
    monkeypatch.setitem(suites.SUITES, "rank4", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=f"between 1 and {suites.MAX_SAMPLES}"):
        suites.run_suite("rank4", 3, 1, samples)
    assert ran == []


def test_run_suite_accepts_the_sample_cap(monkeypatch):
    ran = []
    monkeypatch.setitem(suites.SUITES, "rank4", lambda *args: ran.append(args))
    suites.run_suite("rank4", 3, 1, suites.MAX_SAMPLES)
    assert ran == [(3, 1, suites.MAX_SAMPLES)]


@pytest.mark.parametrize("suite,dim,rows", [
    ("rank2", 2, {"determinant_ratio"}), ("rank2", 3, {"determinant_ratio"}),
    ("rank2", 4, {"determinant_ratio"}),
    ("rank4", 2, {"determinant_ratio", "cayley_det_match"}),
    ("rank4", 3, {"determinant_ratio", "cayley_det_match"})])
def test_a_wrong_row_product_fails_the_determinant_rows(monkeypatch, suite, dim, rows):
    # every row product, so every determinant and c_d, off by one: the rows
    # that compare the row plan with the full plan must fail
    enumerate_sum = engine._enumerate

    def mutated(factors, row=False):
        value = enumerate_sum(factors, row)
        return value + 1 if row else value

    monkeypatch.setattr(engine, "_enumerate", mutated)
    report = suites.run_suite(suite, dim, 5, 1)
    assert rows <= {c.identity for c in report.checks if c.status == FAIL}


@pytest.mark.parametrize("suite,dim", [("rank2", 4), ("rank4", 3)])
def test_a_wrong_row_plan_fails_the_characteristic_polynomial(monkeypatch, suite, dim):
    # one transition of the row plan negated: the c_s read the row plan
    # through the pair's packed pass, so det(a - t*g) must not
    plan = engine._position_plan

    def mutated(rank, dim, row):
        steps, widths = plan(rank, dim, row)
        if not row:
            return steps, widths
        sources, offsets, coefficients, starts, ends = steps[0]
        negated = (-coefficients[0], *coefficients[1:])
        return ((sources, offsets, negated, starts, ends), *steps[1:]), widths

    monkeypatch.setattr(engine, "_position_plan", mutated)
    report = suites.run_suite(suite, dim, 5, 1)
    rows = [c.status for c in report.checks if c.identity == "char_poly_evaluation"]
    assert rows and all(status == FAIL for status in rows)


@pytest.mark.parametrize("suite,dim", [("rank2", 4), ("rank4", 3)])
def test_a_wrong_backward_pass_fails_the_inverse(monkeypatch, suite, dim):
    # one coefficient of the last step negated in the reverse walk alone:
    # the forward values and every sum stay right, and the inverse of a,
    # a digit of the pair's gradients, must not contract to delta
    derivative = engine._position_derivative

    def mutated(steps, factor, values):
        sources, offsets, coefficients, starts, ends = steps[-1]
        negated = (-coefficients[0], *coefficients[1:])
        return derivative((*steps[:-1], (sources, offsets, negated, starts, ends)),
                          factor, values)

    monkeypatch.setattr(engine, "_position_derivative", mutated)
    report = suites.run_suite(suite, dim, 5, 1)
    assert "inverse_contraction" in {c.identity for c in report.checks
                                     if c.status == FAIL}


def test_suite_reports_are_pinned():
    # sha256 of every report over all SUITE_DIMS pairs and seeds 1-8, two
    # samples each, so a sample that follows another in one run is covered
    digest = hashlib.sha256()
    for name, dims in suites.SUITE_DIMS.items():
        for dim in dims:
            for seed in range(1, 9):
                report = suites.run_suite(name, dim, seed, 2)
                digest.update(json.dumps(report.to_dict()).encode())
    assert digest.hexdigest() == (
        "49e9e9cbcf317248254d94e40b897c5e57f020f856728e765f1084af01a2d1c4")
