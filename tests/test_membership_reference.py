"""membership_a against the cell-by-cell reference.

membership_a gets its chi cells from one sweep over each column's
breakpoints, run from the right: it jumps over column gaps where chi is
zero and stops at the first column where the constraint is below 1;
reference_membership_a in helpers.py calls the bench's plain chi sum
afresh at each window cell.  Both must return equal verdicts: the same
violations, in the same order, with the same exact values.  The inputs
are small random signed tables under four constraints, one of them with
its gate drawn per table (so the gate falls inside column gaps), among
them tables spread over 80 columns whose gaps have zero and nonzero
tails, and pairings of pure-diagram chains with supernatural classes and
sums of torsion blocks of 60-120 entries, in and out of the cone.
"""

from bsfan import (EMPTY, INF, CodimensionSequence, SupernaturalSheaf,
                   linear_combine, membership_a, pair)
from helpers import (F, T, chain_combination, oracles, plain, random_chain,
                     random_roots, random_table, reference_membership_a, rng)

ALL_ONE = CodimensionSequence.constant(1, 0)
# forbidden below -2, free homology at -2..0, torsion required above
STAIRCASE = CodimensionSequence(0, EMPTY, -2, (0, 0, 0), 1)
# forbidden below 0, torsion required from 0 on; no column admits free
# homology, so the Euler characteristic is checked too
FORBIDDEN_LEFT = CodimensionSequence(0, EMPTY, 0, (), INF)


def same_verdict(table, c):
    got = membership_a(table, c)
    want = reference_membership_a(table, c)
    assert got == want
    return got


def chi_negatives(verdict):
    return sum(v.kind == "chi_negative" for v in verdict.violations)


def paired_chain(r):
    """A chain table of codimension k paired with a supernatural class of
    k - 1 roots: in the one-variable cone by positivity."""
    k = r.randint(2, 4)
    chain = random_chain(r, k, r.randint(60, 110))
    table = chain_combination(
        chain, [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain])
    sheaf = SupernaturalSheaf(random_roots(r, k - 1),
                              F(r.randint(1, 5), r.randint(1, 5)), k)
    return pair(table, sheaf)


def torsion_blocks(r):
    """Positive sum of torsion blocks and, left of s0 where the constraint
    admits free homology, free blocks."""
    s0 = r.choice([None, r.randint(-2, 2)])
    c = ALL_ONE if s0 is None else CodimensionSequence(0, 0, s0, (), 1)
    size, terms = r.randint(60, 120), []
    while len(linear_combine(terms)) < size:
        p, a = r.randint(-4, 4), r.randint(-8, 8)
        coeff = F(r.randint(1, 9), r.randint(1, 9))
        if s0 is not None and p < s0 and r.random() < 0.3:
            terms.append((coeff, T({(p, a): 1})))
        else:
            terms.append((coeff, T({(p, a): 1, (p + 1, a + r.randint(1, 5)): 1})))
    return linear_combine(terms), c


def spoil(r, table):
    """Raise one entry far enough to push chi values below zero, or put a
    lone negative entry next to the support."""
    key = r.choice(table.support())
    if r.random() < 0.8:
        bump = T({key: F(r.randint(20, 400), r.randint(1, 3))})
    else:
        bump = T({(key[0] + 1, key[1] + 1): F(-r.randint(1, 9), r.randint(1, 9))})
    return linear_combine([(1, table), (1, bump)])


def with_torsion_partners(table):
    """table plus its copy one column and one degree up.  Column sums
    telescope, so chi is zero over every gap of two or more empty
    columns."""
    partners = T({(i + 1, j + 1): v for (i, j), v in table.items()})
    return linear_combine([(1, table), (1, partners)])


def gap_tails(table):
    """chi over each gap of two or more empty columns, where it is the
    alternating sum of the column sums above the gap's first column."""
    cols, entries = table.columns(), plain(table)
    return [oracles.chi(entries, low + 1, 0)
            for low, high in zip(cols, cols[1:]) if high - low > 2]


class TestSmallTables:
    def test_random_signed_tables_under_three_constraints(self):
        r = rng(901)
        seen = {"pass": 0, "fail": 0, "several_chi": 0}
        gaps = {"zero_tail": 0, "nonzero_tail": 0}
        tables = [random_table(r, max_entries=12, nonneg=r.random() < 0.4)
                  for _ in range(600)]
        for _ in range(40):
            wide = random_table(r, max_entries=12, nonneg=r.random() < 0.4,
                                cols=(-40, 40))
            tables += [wide, with_torsion_partners(wide)]
        for table in tables:
            # free homology up to s0, torsion required from s0 on
            gate = CodimensionSequence(0, 0, r.randint(-45, 45), (), 1)
            for c in (ALL_ONE, STAIRCASE, FORBIDDEN_LEFT, gate):
                verdict = same_verdict(table, c)
                seen["pass" if verdict.ok else "fail"] += 1
                seen["several_chi"] += chi_negatives(verdict) > 1
            tails = gap_tails(table)
            gaps["zero_tail"] += 0 in tails
            gaps["nonzero_tail"] += any(tails)
        assert min(seen.values()) > 100
        assert min(gaps.values()) > 20

    def test_empty_table(self):
        for c in (ALL_ONE, STAIRCASE, FORBIDDEN_LEFT):
            assert same_verdict(T({}), c).ok


class TestLargeTables:
    def test_pairings_in_and_out_of_the_cone(self):
        r = rng(902)
        spoiled_failures = 0
        for _ in range(10):
            paired = paired_chain(r)
            assert 60 <= len(paired) <= 120
            assert same_verdict(paired, ALL_ONE).ok
            verdict = same_verdict(spoil(r, paired), ALL_ONE)
            spoiled_failures += chi_negatives(verdict) > 1
        assert spoiled_failures >= 7

    def test_torsion_block_sums_in_and_out_of_the_cone(self):
        r = rng(903)
        spoiled_failures = 0
        for _ in range(12):
            table, c = torsion_blocks(r)
            assert 60 <= len(table) <= 120
            assert same_verdict(table, c).ok
            verdict = same_verdict(spoil(r, table), c)
            spoiled_failures += not verdict.ok
        assert spoiled_failures >= 8
