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
