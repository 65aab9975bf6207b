"""Greedy decompositions at scale against the rescanning references.

decompose_s and decompose_a work on one mutable table and touch only each
piece's keys; reference_decompose_s and reference_decompose_a in helpers.py
rebuild and rescan the whole table after every step.  On seeded tables of
hundreds of entries both must return the same pieces, or fail with the same
NotInCone (message, partial pieces, blocking strand and entry), and the
pieces must rebuild the table exactly.
"""

import sys

from bsfan import (EMPTY, INF, BettiTable, CodimensionSequence, NotInCone,
                   decompose_a, decompose_s, linear_combine, pure_diagram)
from helpers import (F, T, apiece_table, bump, long_chain_table, positions,
                     reference_decompose_a, reference_decompose_s, rng, total)

ALL_ONE = CodimensionSequence.constant(1, 0)


def outcome(fn, *args):
    """(result, None) for a finished run, (None, NotInCone) for a stuck one."""
    try:
        return fn(*args), None
    except NotInCone as exc:
        return None, exc


def certificate(exc):
    return (str(exc), exc.partial_pieces, exc.blocking_strand,
            exc.blocking_entry)


def matches_reference(fn, reference, *args):
    got, got_exc = outcome(fn, *args)
    want, want_exc = outcome(reference, *args)
    assert got == want
    assert (got_exc is None) == (want_exc is None)
    if got_exc is not None:
        assert certificate(got_exc) == certificate(want_exc)
    return got, got_exc


def left_over(table, pieces):
    return linear_combine(
        [(1, table)] + [(-c, pure_diagram(d)) for c, d in pieces])


class TestDecomposeS:
    def test_long_chains_in_cone(self):
        r = rng(701)
        sizes = []
        for case in range(8):
            n = 8 if case < 2 else r.randint(1, 8)
            k = r.randint(1, n + 1)
            chain, coeffs, table = long_chain_table(r, k)
            c = CodimensionSequence.constant(k, n)
            dec, exc = matches_reference(decompose_s, reference_decompose_s,
                                         table, c, n)
            assert exc is None
            assert dec.pieces == list(zip(coeffs, chain))
            assert total(dec) == table and not dec.remainder
            sizes.append(len(table))
        assert min(sizes) >= 100

    def test_long_chains_bumped_out_of_cone(self):
        r = rng(702)
        partial_seen = 0
        for case in range(8):
            n = 8 if case < 2 else r.randint(1, 8)
            k = r.randint(1, n + 1)
            chain, _, table = long_chain_table(r, k)
            table = bump(r, chain, table)
            assert len(table) >= 100
            c = CodimensionSequence.constant(k, n)
            _, exc = matches_reference(decompose_s, reference_decompose_s,
                                       table, c, n)
            assert exc is not None and exc.blocking_entry is None
            rest = left_over(table, exc.partial_pieces)
            assert rest.is_nonnegative()
            strand = exc.blocking_strand
            assert all(rest[(i, strand.degrees[i - strand.start])] > 0
                       for i in positions(strand))
            partial_seen += bool(exc.partial_pieces)
        assert partial_seen >= 6

    def test_other_constraints(self):
        # staircases and one-sided constraints trim the strands differently
        # and stop some runs; finished runs must still rebuild the table
        r = rng(703)
        finished = stuck = 0
        for _ in range(10):
            n = r.randint(1, 8)
            k = r.randint(1, n + 1)
            chain, _, table = long_chain_table(r, k)
            if r.random() < 0.5:
                table = bump(r, chain, table)
            w = r.randint(-4, 2)
            c = r.choice([
                CodimensionSequence(n, 0, w, (), n + 1),
                CodimensionSequence(n, EMPTY, w, (k,), INF),
                CodimensionSequence(n, EMPTY, w, (EMPTY, k), INF),
                CodimensionSequence(n, 0, w, (k,), k),
            ])
            dec, exc = matches_reference(decompose_s, reference_decompose_s,
                                         table, c, n)
            if exc is None:
                assert total(dec) == table
                finished += 1
            else:
                assert left_over(table, exc.partial_pieces).is_nonnegative()
                stuck += 1
        assert finished and stuck

    def test_steps_build_one_diagram_and_no_candidates(self, monkeypatch):
        # a step builds its piece's pure diagram and no other table:
        # pure_diagram calls and tables grow by one per step
        r = rng(704)
        seen, steps = [], []
        for length in (10, 200):
            n = r.randint(1, 8)
            k = r.randint(1, n + 1)
            chain, _, table = long_chain_table(r, k, length)
            counts = dict.fromkeys(("tables", "pure_diagram"), 0)
            with monkeypatch.context() as m:
                count_calls(m, counts, pure_diagram)
                count_tables(m, counts)
                dec = decompose_s(table, CodimensionSequence.constant(k, n), n)
            seen.append(counts)
            steps.append(len(dec.pieces))
        assert steps == [10, 200]
        assert [c["pure_diagram"] for c in seen] == steps
        assert seen[1]["tables"] - seen[0]["tables"] == 190


def count_calls(monkeypatch, counts, fn):
    """Count the calls of fn under every name a bsfan module binds it to."""
    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bsfan" or name.startswith("bsfan."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def count_tables(monkeypatch, counts):
    """Count the tables built, by the checked and the trusted constructor."""
    init, trusted = BettiTable.__init__, BettiTable._trusted.__func__

    def counted_init(self, *args, **kwargs):
        counts["tables"] += 1
        init(self, *args, **kwargs)

    def counted_trusted(cls, *args):
        counts["tables"] += 1
        return trusted(cls, *args)

    monkeypatch.setattr(BettiTable, "__init__", counted_init)
    monkeypatch.setattr(BettiTable, "_trusted", classmethod(counted_trusted))


def block_sum(r, entries, s0=None):
    """Positive sum of torsion blocks and, left of s0, some free blocks."""
    table = BettiTable()
    while len(table) < entries:
        p, a = r.randint(-5, 5), r.randint(-9, 9)
        if s0 is not None and p < s0 and r.random() < 0.3:
            block = T({(p, a): 1})
        else:
            block = T({(p, a): 1, (p + 1, a + r.randint(1, 5)): 1})
        table = linear_combine(
            [(1, table), (F(r.randint(1, 9), r.randint(1, 9)), block)])
    return table


def rebuilds(table, pieces):
    return linear_combine([(c, apiece_table(p)) for c, p in pieces]) == table


class TestDecomposeA:
    def test_block_sums_without_free_region(self):
        r = rng(711)
        for _ in range(6):
            table = block_sum(r, 100)
            pieces, exc = matches_reference(decompose_a, reference_decompose_a,
                                            table, ALL_ONE)
            assert exc is None and rebuilds(table, pieces)

    def test_block_sums_with_free_region(self):
        r = rng(712)
        for _ in range(6):
            s0 = r.randint(-2, 2)
            table = block_sum(r, 100, s0)
            c = CodimensionSequence(0, 0, s0, (), 1)
            pieces, exc = matches_reference(decompose_a, reference_decompose_a,
                                            table, c)
            assert exc is None and rebuilds(table, pieces)
            assert any(p.kind == "free" for _, p in pieces)

    def test_spoiled_block_sums(self):
        # a stray generator in a torsion column, an entry in a forbidden
        # column, or a negative entry: each run stops with the same witness
        r = rng(713)
        stuck = 0
        for case in range(12):
            s0 = r.randint(-2, 2)
            table = block_sum(r, 100, s0)
            c = CodimensionSequence(0, EMPTY, s0 - 6, (0,) * 6, 1)
            top = table.columns()[-1]
            stray = {0: (top + 1, r.randint(-9, 9)),
                     1: (s0 - 7, r.randint(-9, 9)),
                     2: r.choice(table.support())}[case % 3]
            amount = F(r.randint(1, 5))
            if case % 3 == 2:
                amount = -table[stray] - amount
            spoiled = linear_combine([(1, table), (amount, T({stray: 1}))])
            pieces, exc = matches_reference(decompose_a, reference_decompose_a,
                                            spoiled, c)
            if exc is None:
                assert rebuilds(spoiled, pieces)
                continue
            stuck += 1
            if case % 3 == 2:
                assert exc.partial_pieces == []
            partial = linear_combine(
                [(1, spoiled)] + [(-co, apiece_table(p))
                                  for co, p in exc.partial_pieces])
            assert partial[exc.blocking_entry] != 0
        assert stuck >= 8
