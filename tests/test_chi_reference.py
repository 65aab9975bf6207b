"""chi and multi_chi against the bench's plain sums.

The library computes both through tables._partial_euler; bench/oracles.py
sums every entry afresh and imports nothing from bsfan.  They must agree
at every cell of chi_window and of multi_chi_box, on seeded random signed
tables graded by Z, and by Z^m for m = 1, 2, 3 under random positive
weights.
"""

import pytest

from bsfan import GradedOrder, MultiBettiTable, chi, multi_chi
from helpers import (chi_window, multi_chi_box, oracles, plain,
                     random_fraction, random_table, rng)


def random_multi_table(r, m):
    """Up to five signed entries in columns -2..3, grades in {-1, 0, 1}^m."""
    return MultiBettiTable(m, {
        (r.randint(-2, 3), tuple(r.randint(-1, 1) for _ in range(m))):
            random_fraction(r)
        for _ in range(r.randint(0, 5))})


def test_chi_equals_the_plain_sum():
    r = rng(1101)
    nonzero = 0
    for _ in range(200):
        table = random_table(r, max_entries=8, nonneg=False)
        entries = plain(table)
        cols, degs = chi_window(table)
        for i in cols:
            for j in degs:
                value = chi(table, i, j)
                assert value == oracles.chi(entries, i, j), (table, i, j)
                nonzero += value != 0
    assert nonzero > 1000


@pytest.mark.parametrize("m", [1, 2, 3])
def test_multi_chi_equals_the_plain_sum(m):
    r = rng(1110 + m)
    nonzero = 0
    for _ in range(120 // m):
        table = random_multi_table(r, m)
        weights = tuple(r.randint(1, 4) for _ in range(m))
        order, entries = GradedOrder(weights), plain(table)
        cols, box = multi_chi_box(table)
        for i in cols:
            for alpha in box:
                value = multi_chi(table, i, alpha, order)
                assert value == oracles.multi_chi(entries, i, alpha, weights), \
                    (table, weights, i, alpha)
                nonzero += value != 0
    assert nonzero > 300
