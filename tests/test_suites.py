"""Seeded suite helpers."""

import pytest

from hypermat import SymTensor, suites


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
