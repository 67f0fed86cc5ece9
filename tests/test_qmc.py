"""The numpy Halton sequence against scipy.stats.qmc's."""

import numpy as np
import pytest
from scipy.stats import qmc as scipy_qmc

from biharm4 import qmc


@pytest.mark.parametrize("n", [1, 7, 200, 800])
def test_unscrambled_halton_equals_scipy_bit_for_bit(n):
    ours = qmc.Halton(d=4, scramble=False)
    theirs = scipy_qmc.Halton(d=4, scramble=False)
    for _ in range(64):
        got, want = ours.random(4 * n), theirs.random(4 * n)
        assert got.shape == want.shape == (4 * n, 4)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 6])
def test_other_dimensions_equal_scipy(d):
    got = qmc.Halton(d=d, scramble=False).random(500)
    assert got.tobytes() == scipy_qmc.Halton(d=d, scramble=False).random(500).tobytes()


def test_seeded_sampler_is_scipys_scrambled_halton():
    ours = qmc.Halton(d=4, scramble=True, seed=7)
    theirs = scipy_qmc.Halton(d=4, scramble=True, seed=7)
    for n in (3, 50, 200):
        assert ours.random(n).tobytes() == theirs.random(n).tobytes()


def test_draws_are_copies_of_a_read_only_table():
    first = qmc.Halton(d=4, scramble=False).random(10)
    first[:] = -1.0
    again = qmc.Halton(d=4, scramble=False).random(10)
    assert np.all((again >= 0.0) & (again < 1.0))
    assert not qmc._TABLE.flags.writeable


def test_random_is_an_assignable_instance_attribute():
    sampler = qmc.Halton(d=4, scramble=False)
    draw = sampler.random
    sampler.random = lambda n=1: draw(n)
    assert sampler.random(4).shape == (4, 4)


def test_halton_needs_a_positive_dimension():
    with pytest.raises(ValueError):
        qmc.Halton(d=0, scramble=False)
