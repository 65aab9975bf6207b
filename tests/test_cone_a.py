from fractions import Fraction

import pytest

from bsfan import (APiece, BettiTable, CodimensionSequence, NotInCone,
                   ValidationError, chi, decompose_a, euler, linear_combine,
                   membership_a)
from helpers import (F, T, apiece_degree_sequence, apiece_table, chi_window,
                     reference_membership_a, rng)

ALL_ONE = CodimensionSequence.constant(1, 0)


def torsion_table(position, gen, socle):
    return T({(position, gen): 1, (position + 1, socle): 1})


def random_torsion_combo(r, max_pieces=5, allow_zero=True):
    terms = []
    for _ in range(r.randint(1, max_pieces)):
        coeff = r.randint(0 if allow_zero else 1, 4)
        position = r.randint(-3, 3)
        gen = r.randint(-4, 4)
        terms.append((coeff, torsion_table(position, gen, gen + r.randint(1, 5))))
    return linear_combine(terms)


class TestChi:
    def test_koszul_output_values(self):
        table = T({(0, 0): 1, (1, 3): 1})
        assert chi(table, 0, 0) == 1
        assert chi(table, 0, 2) == 0

    def test_two_term_complexes_are_zero_one_valued(self):
        r = rng(501)
        for _ in range(200):
            position, gen = r.randint(-3, 3), r.randint(-4, 4)
            table = torsion_table(position, gen, gen + r.randint(1, 5))
            cols, degs = chi_window(table)
            for i in cols:
                for j in degs:
                    assert chi(table, i, j) in (0, 1)

    def test_empty(self):
        assert chi(BettiTable(), 0, 0) == 0

    def test_nonnegative_on_torsion_combinations(self):
        r = rng(502)
        for _ in range(300):
            table = random_torsion_combo(r)
            cols, degs = chi_window(table)
            for i in cols:
                for j in degs:
                    assert chi(table, i, j) >= 0

    def test_window_widening_is_consistent(self):
        # chi values outside the window repeat values inside: with every
        # margin doubled (3, 0, 2, 1 -> 6, 2, 4, 2) each value stays
        # nonnegative and agrees with the default window where they overlap
        r = rng(503)
        tables = [random_torsion_combo(r) for _ in range(25)]
        for table in tables:
            cols, degs = chi_window(table)
            base = {(i, j): chi(table, i, j) for i in cols for j in degs}
            if not table:
                continue  # an empty table has an empty window at any width
            support_cols = [i for i, _ in table.support()]
            support_degs = [j for _, j in table.support()]
            wide_cols = range(min(support_cols) - 6, max(support_cols) + 3)
            wide_degs = range(min(support_degs) - 4, max(support_degs) + 3)
            assert set(wide_cols) >= set(cols) and set(wide_degs) >= set(degs)
            for i in wide_cols:
                for j in wide_degs:
                    value = chi(table, i, j)
                    assert value >= 0
                    if (i, j) in base:
                        assert value == base[(i, j)]


class TestEuler:
    def test_values(self):
        assert euler(T({(0, 0): 1, (1, 3): 1})) == 0
        assert euler(T({(0, 0): 1})) == 1
        assert euler(BettiTable()) == 0

    def test_negative_columns_stay_exact(self):
        value = euler(T({(-1, 0): F(1, 3), (-2, 1): F(2, 7), (-3, 4): 1}))
        assert type(value) is Fraction and value == -F(1, 3) + F(2, 7) - 1
        assert type(euler(T({(-1, 0): 1, (-2, 1): 1}))) is Fraction

    def test_positivity_pairing_with_negative_columns(self):
        # a pure diagram paired with a supernatural class lies in the
        # one-variable cone; this pairing sits in columns -1..1 with
        # sevenths, where a floating-point Euler sum misses zero
        from bsfan import (DegreeSequence, SupernaturalSheaf, pair,
                           pure_diagram)
        sheaf = SupernaturalSheaf((-8,), F(3, 7), 3)
        paired = pair(pure_diagram(DegreeSequence(-1, (-2, 0, 3))), sheaf)
        assert paired == T({(-1, -2): F(90, 7), (0, 0): F(120, 7),
                            (1, 3): F(30, 7)})
        assert euler(paired) == 0
        assert membership_a(paired, ALL_ONE).ok


class TestMembership:
    def test_torsion_pair_passes(self):
        assert membership_a(T({(0, 0): 1, (1, 2): 1}), ALL_ONE).ok

    def test_unbalanced_fails_euler(self):
        verdict = membership_a(T({(0, 0): 1, (1, 2): 2}), ALL_ONE)
        assert not verdict.ok
        euler_violations = [v for v in verdict.violations
                            if v.kind == "euler_nonzero"]
        assert euler_violations and euler_violations[0].value == -1

    def test_free_module_allowed_at_rank_zero(self):
        c = CodimensionSequence(0, 0, 1, (), 1)
        assert membership_a(T({(0, 5): 1}), c).ok

    def test_forbidden_column(self):
        c = CodimensionSequence(0, "empty", 0, (), 1)
        verdict = membership_a(T({(-1, 0): 1, (0, 0): 1, (1, 1): 1}), c)
        assert any(v.kind == "support_empty" and (v.i, v.j) == (-1, 0)
                   for v in verdict.violations)

    def test_negative_entry(self):
        verdict = membership_a(BettiTable({(0, 0): F(-1)}), ALL_ONE)
        assert any(v.kind == "negative_entry" for v in verdict.violations)

    def test_requires_one_variable_shape(self):
        with pytest.raises(ValidationError):
            membership_a(BettiTable(), CodimensionSequence.constant(1, 2))

    def test_work_is_bounded_by_the_table_not_its_gaps(self):
        # two torsion blocks K columns apart, the second one D degrees up:
        # in the cone, with a window of about K columns by K + 2D degrees;
        # at most two rank lookups per entry, failing at the first one past
        # that rather than walking the window
        lookups = []

        class Counting(CodimensionSequence):
            __slots__ = ()

            def rank(self, i):
                lookups.append(i)
                assert len(lookups) <= 8, "a rank lookup per gap column"
                return super().rank(i)

        K, D = 10**6, 10**9
        for entries in ({(0, 0): 1, (1, 1): 1, (K, K): 1, (K + 1, K + 1): 1},
                        {(0, 0): 1, (1, D): 1, (K, K + D): 1,
                         (K + 1, K + 2 * D): 1}):
            lookups.clear()
            assert membership_a(T(entries), Counting.constant(1, 0)).ok

    def test_gap_table_matches_the_reference_cell_for_cell(self):
        # the doubled generator leaves a nonzero tail over the column gap,
        # so every other gap column is negative at every degree
        K, D = 50, 10**3
        table = T({(0, 0): 1, (1, D): 1, (K, K + D): 2, (K + 1, K + 2 * D): 1})
        verdict = membership_a(table, ALL_ONE)
        assert verdict == reference_membership_a(table, ALL_ONE)
        gap_columns = {v.i for v in verdict.violations
                       if v.kind == "chi_negative" and 1 < v.i < K - 1}
        assert len(gap_columns) == (K - 3) // 2


class TestDecompose:
    def test_two_socles(self):
        pieces = decompose_a(T({(0, 0): 2, (1, 1): 1, (1, 3): 1}), ALL_ONE)
        assert pieces == [
            (F(1), APiece("torsion", 0, 0, 1)),
            (F(1), APiece("torsion", 0, 0, 3)),
        ]

    def test_empty(self):
        assert decompose_a(BettiTable(), ALL_ONE) == []

    def test_single_free_piece(self):
        c = CodimensionSequence(0, 0, 1, (), 1)
        assert decompose_a(T({(0, 5): 1}), c) == [(F(1), APiece("free", 0, 5))]

    def test_reconstruction_and_chain(self):
        from helpers import Comparison, compare_degree_sequences
        r = rng(504)
        for _ in range(200):
            table = random_torsion_combo(r)
            pieces = decompose_a(table, ALL_ONE)
            assert linear_combine(
                [(c, apiece_table(p)) for c, p in pieces]) == table
            seqs = [apiece_degree_sequence(p) for _, p in pieces]
            for a, b in zip(seqs, seqs[1:]):
                assert compare_degree_sequences(a, b) == Comparison.LESS

    def test_membership_iff_decomposition(self):
        r = rng(505)
        failures_seen = 0
        for _ in range(200):
            table = random_torsion_combo(r)
            if r.random() < 0.5:
                # spoil it with a stray generator above the strands
                top = max(i for i, _ in table.support()) if table else 0
                table = linear_combine(
                    [(1, table), (1, T({(top + 2, r.randint(-4, 4)): 1}))])
            ok = membership_a(table, ALL_ONE).ok
            try:
                decompose_a(table, ALL_ONE)
                decomposed = True
            except NotInCone:
                decomposed = False
            assert ok == decomposed
            failures_seen += not ok
        assert failures_seen > 20

    def test_blocking_entry_reported(self):
        with pytest.raises(NotInCone) as err:
            decompose_a(T({(1, 0): 1}), ALL_ONE)
        assert err.value.blocking_entry == (1, 0)

    def test_invariant_under_rescaling(self):
        r = rng(506)
        for _ in range(100):
            table = random_torsion_combo(r, allow_zero=False)
            lam = F(r.randint(1, 7), r.randint(1, 7))
            scaled = decompose_a(linear_combine([(lam, table)]), ALL_ONE)
            plain = decompose_a(table, ALL_ONE)
            assert [(c * lam, p) for c, p in plain] == scaled

    def test_torsion_piece_validation(self):
        with pytest.raises(ValidationError):
            APiece("torsion", 0, 3, 3)
        with pytest.raises(ValidationError):
            APiece("weird", 0, 0)

    def test_staircase_with_free_region(self):
        # forbidden below -2, free homology at -2..0, torsion required above
        c = CodimensionSequence(0, "empty", -2, (0, 0, 0), 1)
        r = rng(507)
        failures_seen = 0
        for _ in range(200):
            terms = []
            for _ in range(r.randint(0, 3)):
                terms.append((r.randint(1, 3),
                              T({(r.randint(-2, 0), r.randint(-4, 4)): 1})))
            for _ in range(r.randint(0, 3)):
                position, gen = r.randint(-2, 4), r.randint(-4, 4)
                terms.append((r.randint(1, 3),
                              torsion_table(position, gen, gen + r.randint(1, 4))))
            table = linear_combine(terms)
            verdict = membership_a(table, c)
            try:
                pieces = decompose_a(table, c)
                assert linear_combine(
                    [(co, apiece_table(p)) for co, p in pieces]) == table
                decomposed = True
            except NotInCone:
                decomposed = False
            assert verdict.ok == decomposed
            assert verdict.ok  # generators were all drawn from the cone
            if r.random() < 0.5:
                spoiled = linear_combine(
                    [(1, table), (1, T({(-3, r.randint(-4, 4)): 1}))])
                spoiled_ok = membership_a(spoiled, c).ok
                try:
                    decompose_a(spoiled, c)
                    spoiled_dec = True
                except NotInCone:
                    spoiled_dec = False
                assert spoiled_ok == spoiled_dec
                failures_seen += not spoiled_ok
        assert failures_seen > 20

    def test_greedy_pairs_lowest_generator_into_the_chain(self):
        # a free generator below the torsion generator gets absorbed into the
        # torsion block; the leftover higher generator stays free, which is
        # the only splitting whose degree sequences form a chain
        c = CodimensionSequence(0, 0, 1, (), 1)
        table = T({(0, 2): 1, (0, 3): 1, (1, 4): 1})
        pieces = decompose_a(table, c)
        assert pieces == [(F(1), APiece("torsion", 0, 2, 4)),
                          (F(1), APiece("free", 0, 3))]
