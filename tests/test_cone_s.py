from functools import partial

import pytest

from bsfan import (EMPTY, INF, BettiTable, CodimensionSequence,
                   Decomposition, DegreeSequence, MonadViolation,
                   MultiBettiTable, NotInCone, ValidationError, decompose_a,
                   decompose_s, dual, euler, infinite_prefix, linear_combine,
                   monad_split, pure_diagram)
from helpers import (F, MONAD_TABLE, MONOMIAL_RES_TABLE, T, TENSOR_TABLE,
                     TRUNCATION_TABLE, TWO_STRAND_TABLE, Comparison,
                     chain_combination, compare_degree_sequences,
                     koszul_table, one_sided_chain, oracles, plain,
                     positions, random_chain, random_table,
                     reference_infinite_prefix, rng, solve_chain_coefficients,
                     total)

STAIRCASE = CodimensionSequence(2, EMPTY, 0, (2, 2), INF)


def piece_tables(dec):
    return [linear_combine([(c, pure_diagram(d))]) for c, d in dec.pieces]


def random_coeffs(r, chain):
    return [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain]


def perturbed(r, table, cols):
    """table with one entry scaled, or one entry added in a column of cols
    next to a degree the table has."""
    entries = dict(table.items())
    key = r.choice(sorted(entries))
    if r.random() < 0.5:
        entries[key] *= F(r.randint(1, 9), r.randint(1, 9))
    else:
        spot = (r.randint(*cols), key[1] + r.randint(-1, 1))
        entries[spot] = entries.get(spot, 0) + F(r.randint(1, 9), r.randint(1, 9))
    return T(entries)


class TestGreedyGoldens:
    def test_five_piece_decomposition(self):
        dec = decompose_s(TENSOR_TABLE, STAIRCASE, 2)
        assert [d for _, d in dec.pieces] == [
            DegreeSequence(1, (2, 3, 4, 6)),
            DegreeSequence(1, (2, 3, 5, 6)),
            DegreeSequence(1, (2, 3, 5)),
            DegreeSequence(1, (2, 4, 5)),
            DegreeSequence(0, (0, 2, 4)),
        ]
        assert piece_tables(dec) == [
            T({(1, 2): F(1, 2), (2, 3): F(4, 3), (3, 4): 1, (4, 6): F(1, 6)}),
            T({(1, 2): F(5, 6), (2, 3): F(5, 3), (3, 5): F(5, 3), (4, 6): F(5, 6)}),
            T({(1, 2): F(2, 3), (2, 3): 1, (3, 5): F(1, 3)}),
            T({(1, 2): 1, (2, 4): 3, (3, 5): 2}),
            T({(0, 0): 1, (1, 2): 2, (2, 4): 1}),
        ]
        assert not dec.remainder
        assert total(dec) == TENSOR_TABLE

    def test_resolution_constraint_decomposition(self):
        c = CodimensionSequence(2, EMPTY, 0, (2,), INF)
        dec = decompose_s(MONOMIAL_RES_TABLE, c, 2)
        assert dec.pieces == [
            (F(1, 3), DegreeSequence(0, (0, 2, 3, 4))),
            (F(2, 3), DegreeSequence(0, (0, 2, 3))),
        ]

    def test_hyperplane_stable_decomposition(self):
        dec = decompose_s(MONOMIAL_RES_TABLE, CodimensionSequence.constant(2, 2), 2)
        assert dec.pieces == [
            (F(1), DegreeSequence(1, (2, 3, 4))),
            (F(1), DegreeSequence(0, (0, 2, 3))),
        ]
        assert piece_tables(dec) == [
            T({(1, 2): 1, (2, 3): 2, (3, 4): 1}),
            T({(0, 0): 1, (1, 2): 3, (2, 3): 2}),
        ]

    def test_all_modules_constraint_matches_resolution_one(self):
        # relaxing the constraint to "any codimension at the start" gives the
        # same answer as the dedicated resolution staircase here
        relaxed = CodimensionSequence(2, EMPTY, 0, (0,), INF)
        strict = CodimensionSequence(2, EMPTY, 0, (2,), INF)
        assert (decompose_s(MONOMIAL_RES_TABLE, relaxed, 2).pieces
                == decompose_s(MONOMIAL_RES_TABLE, strict, 2).pieces)

    def test_four_piece_decomposition(self):
        dec = decompose_s(TWO_STRAND_TABLE, CodimensionSequence.constant(2, 2), 2)
        assert piece_tables(dec) == [
            T({(1, 3): F(16, 5), (2, 4): 4, (3, 8): F(4, 5)}),
            T({(1, 3): F(3, 10), (2, 5): F(1, 2), (3, 8): F(1, 5)}),
            T({(0, 0): F(1, 5), (1, 3): F(1, 2), (2, 5): F(3, 10)}),
            T({(0, 0): F(4, 5), (1, 4): 4, (2, 5): F(16, 5)}),
        ]

    def test_pure_diagram_two_term_split(self):
        # a full-length pure diagram is the unit-coefficient sum of the two
        # shorter pure diagrams sharing its inner degrees, and the codim-2
        # staircase decomposition recovers exactly that splitting
        top = pure_diagram(DegreeSequence(0, (0, 2, 3, 5)))
        left = pure_diagram(DegreeSequence(0, (0, 2, 3)))
        right = pure_diagram(DegreeSequence(1, (2, 3, 5)))
        assert linear_combine([(1, left), (1, right)]) == top
        dec = decompose_s(top, STAIRCASE, 2)
        assert dec.pieces == [(F(1), DegreeSequence(1, (2, 3, 5))),
                              (F(1), DegreeSequence(0, (0, 2, 3)))]


class TestMembership:
    def test_two_strand_contrast(self):
        with pytest.raises(NotInCone):
            decompose_s(TWO_STRAND_TABLE,
                        CodimensionSequence.constant(3, 2), 2)
        dec = decompose_s(TWO_STRAND_TABLE,
                          CodimensionSequence.constant(2, 2), 2)
        assert total(dec) == TWO_STRAND_TABLE

    def test_failure_carries_witness(self):
        with pytest.raises(NotInCone) as err:
            decompose_s(TWO_STRAND_TABLE,
                        CodimensionSequence.constant(3, 2), 2)
        witness = err.value
        assert witness.blocking_strand == DegreeSequence(2, (4, 8))
        assert witness.partial_pieces

    def test_pure_diagram_is_extremal(self):
        r = rng(601)
        for _ in range(50):
            n = r.randint(1, 4)
            k = r.randint(0, n + 1)
            chain = random_chain(r, k, 1)
            d = chain[0]
            dec = decompose_s(pure_diagram(d),
                              CodimensionSequence.constant(k, n), n)
            assert dec.pieces == [(F(1), d)]

    def test_rejects_negative_input(self):
        from bsfan import ValidationError
        with pytest.raises(ValidationError):
            decompose_s(BettiTable({(0, 0): F(-1)}),
                        CodimensionSequence.constant(1, 1), 1)


class TestGreedyProperties:
    def test_reconstruction_chain_and_step_bound(self):
        r = rng(602)
        for _ in range(150):
            n = r.randint(1, 3)
            k = r.randint(1, n + 1)
            chain = random_chain(r, k, r.randint(1, 4))
            coeffs = [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain]
            table = chain_combination(chain, coeffs)
            dec = decompose_s(table, CodimensionSequence.constant(k, n), n)
            assert total(dec) == table and not dec.remainder
            assert len(dec.pieces) <= len(table)
            seqs = [d for _, d in dec.pieces]
            for a, b in zip(seqs, seqs[1:]):
                assert compare_degree_sequences(a, b) == Comparison.LESS

    def test_recovers_generating_chain_and_matches_oracle(self):
        r = rng(603)
        for _ in range(100):
            n = r.randint(1, 3)
            k = r.randint(1, n + 1)
            chain = random_chain(r, k, r.randint(1, 4))
            coeffs = [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain]
            table = chain_combination(chain, coeffs)
            dec = decompose_s(table, CodimensionSequence.constant(k, n), n)
            assert [d for _, d in dec.pieces] == chain
            assert [c for c, _ in dec.pieces] == coeffs
            assert solve_chain_coefficients(table, chain) == coeffs

    def test_homogeneous_under_scaling(self):
        r = rng(604)
        for _ in range(80):
            n = r.randint(1, 3)
            k = r.randint(1, n + 1)
            chain = random_chain(r, k, r.randint(1, 3))
            coeffs = [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain]
            table = chain_combination(chain, coeffs)
            lam = F(r.randint(1, 9), r.randint(1, 9))
            c = CodimensionSequence.constant(k, n)
            scaled = decompose_s(linear_combine([(lam, table)]), c, n)
            plain = decompose_s(table, c, n)
            assert scaled.pieces == [(lam * co, d) for co, d in plain.pieces]


class TestMonad:
    def test_ideal_sheaf_monad(self):
        split = monad_split(MONAD_TABLE, 4)
        assert split.table_f1 == T({(0, 3): 11, (1, 4): 10})
        assert dual(split.table_f2) == T({(-2, 1): 2, (-1, 2): 11, (0, 3): 9})
        assert split.e_column == T({(0, 3): 1})
        assert split.lambda1 == 1 and split.lambda2 == 1
        assert split.front_pieces == [(F(10), DegreeSequence(0, (3, 4)))]
        assert split.back_pieces == [
            (F(2), DegreeSequence(0, (-3, -2, -1))),
            (F(7), DegreeSequence(0, (-3, -2))),
        ]
        recon = linear_combine([
            (split.lambda1, split.table_f1),
            (1, dual(linear_combine([(split.lambda2, split.table_f2)]))),
        ])
        assert recon == MONAD_TABLE

    def test_structure_sheaf_monad(self):
        split = monad_split(T({(0, 0): 1}), 2)
        assert split.lambda1 == 1 and split.table_f1 == T({(0, 0): 1})
        assert split.lambda2 == 0 and not split.table_f2
        assert split.e_column == T({(0, 0): 1})

    def test_doubling_scales_everything(self):
        doubled = monad_split(linear_combine([(2, MONAD_TABLE)]), 4)
        single = monad_split(MONAD_TABLE, 4)
        assert doubled.table_f1 == linear_combine([(2, single.table_f1)])
        assert doubled.table_f2 == linear_combine([(2, single.table_f2)])
        assert doubled.e_column == linear_combine([(2, single.e_column)])

    def test_central_sum_is_euler(self):
        for table in (MONAD_TABLE, koszul_table(2), koszul_table(3)):
            split = monad_split(table, 4)
            total = sum((v for _, v in split.e_column.items()), F(0))
            assert total == euler(table)

    def test_violation_outside_monad_cone(self):
        # shrinking the central term of the monad table leaves a negative
        # alternating sum, so the central column cannot stay nonnegative
        squeezed = T({(-2, 1): 2, (-1, 2): 11, (0, 3): 18, (1, 4): 10})
        with pytest.raises(MonadViolation):
            monad_split(squeezed, 4)

    def test_rejects_signed_input(self):
        from bsfan import ValidationError
        with pytest.raises(ValidationError, match="nonnegative"):
            monad_split(BettiTable({(0, 0): -1}), 2)

    def test_trim_walk_stops_at_the_table(self):
        # a lone entry at (n, 0) under the monad constraint is outside the
        # cone; no strand starts left of column n, so the trim search
        # stops there rather than walking n + 2 positions leftward
        n, lookups = 10**7, []

        class Counting(CodimensionSequence):
            __slots__ = ()

            def rank(self, i):
                lookups.append(i)
                assert len(lookups) <= 4, "a rank lookup per position"
                return super().rank(i)

        table = T({(n, 0): 1})
        message = f"strand (0)@{n} admits no compatible trim"
        with pytest.raises(NotInCone) as err:
            decompose_s(table, Counting(n, 0, 1, (), n + 1), n)
        assert str(err.value) == message
        with pytest.raises(NotInCone) as err:
            monad_split(table, n)
        assert str(err.value) == message

    def test_central_part_lies_in_column_zero(self):
        # a positive-codimension piece of the monad run starts in a column
        # >= 0, and what the run leaves lies in columns <= 0 (the dual run
        # mirrors this), so table - D' - dual(D'') is zero off column 0 and
        # only its negativity is left to check
        r = rng(1802)
        split = 0
        for _ in range(500):
            n = r.randint(1, 3)
            c = CodimensionSequence(n, 0, 1, (), n + 1)
            front, back = (one_sided_chain(r, n, 0, r.randint(n + 1, n + 3),
                                           r.randint(1, n + 3))
                           for _ in range(2))
            central = T({(0, r.randint(-3, 3)): F(r.randint(1, 9))
                         for _ in range(r.randint(0, 2))})
            table = linear_combine([
                (1, chain_combination(front, random_coeffs(r, front))),
                (1, dual(chain_combination(back, random_coeffs(r, back)))),
                (1, central)])
            if r.random() < 0.5:
                table = perturbed(r, table, (-2, 2))
            try:
                parts = [linear_combine([
                    (co, pure_diagram(d)) for co, d in pieces if d.codim > 0])
                    for pieces in (decompose_s(table, c, n).pieces,
                                   decompose_s(dual(table), c, n).pieces)]
            except NotInCone:
                with pytest.raises(NotInCone):
                    monad_split(table, n)
                continue
            e_column = linear_combine(
                [(1, table), (-1, parts[0]), (-1, dual(parts[1]))])
            assert e_column.columns() in ([], [0])
            if e_column.is_nonnegative():
                split += 1
                assert monad_split(table, n).e_column == e_column
            else:
                with pytest.raises(MonadViolation, match="negative"):
                    monad_split(table, n)
        assert split >= 250


def prefix_outcome(prefix, table, e, n):
    """The pieces and remainder of a prefix run, or its failure certificate."""
    try:
        dec = prefix(table, e, n)
    except NotInCone as exc:
        return str(exc), exc.partial_pieces, exc.blocking_strand
    return dec.pieces, dec.remainder


def truncation(r):
    """(table, e, n): a positive chain combination that decomposes, dualized,
    under the run at e: full-codimension pieces above the boundary -e."""
    n = r.randint(1, 3)
    e = r.randint(n + 2, n + 6)
    chain = one_sided_chain(r, n, -e, r.randint(n + 1 - e, 0),
                            r.randint(1, n + 4))
    return dual(chain_combination(chain, random_coeffs(r, chain))), e, n


class TestInfinitePrefix:
    def test_quotient_ring_truncation(self):
        dec = infinite_prefix(TRUNCATION_TABLE, 4, 1)
        assert piece_tables(dec) == [
            T({(0, 0): 1, (1, 2): 3, (2, 3): 2}),
            T({(1, 2): 3, (2, 3): 6, (3, 4): 3}),
            T({(2, 3): 8, (3, 4): 16, (4, 5): 8}),
        ]
        assert dec.remainder == T({(3, 4): 19, (4, 5): 84})
        assert total(dec) == TRUNCATION_TABLE

    def test_chain_decreases(self):
        dec = infinite_prefix(TRUNCATION_TABLE, 4, 1)
        seqs = [d for _, d in dec.pieces]
        for a, b in zip(seqs, seqs[1:]):
            assert compare_degree_sequences(a, b) == Comparison.GREATER

    def test_finite_input_is_fully_decomposed(self):
        dec = infinite_prefix(koszul_table(1), 3, 1)
        assert dec.pieces == [(F(1), DegreeSequence(0, (0, 1, 2)))]
        assert not dec.remainder

    def test_shorter_truncation_gives_prefix(self):
        long_run = infinite_prefix(TRUNCATION_TABLE, 4, 1)
        short_run = infinite_prefix(
            T({(i, j): v for (i, j), v in TRUNCATION_TABLE.items() if i <= 3}),
            3, 1)
        assert short_run.pieces == long_run.pieces[:len(short_run.pieces)]

    def test_one_run_matches_the_run_confirmed_at_e_minus_1(self):
        r = rng(1801)
        for _ in range(1000):
            table, e, n = truncation(r)
            outcome = prefix_outcome(infinite_prefix, table, e, n)
            assert outcome == prefix_outcome(
                reference_infinite_prefix, table, e, n)
            pieces, remainder = outcome  # a truncation passes the run at e
            assert total(Decomposition(pieces, remainder)) == table

    def test_one_run_matches_the_confirmed_run_on_noisy_tables(self):
        r = rng(1803)
        passed = 0
        for _ in range(1000):
            table, e, n = truncation(r)
            table = perturbed(r, table, (-2, e))
            outcome = prefix_outcome(infinite_prefix, table, e, n)
            assert outcome == prefix_outcome(
                reference_infinite_prefix, table, e, n)
            passed += len(outcome) == 2
        assert 50 <= passed <= 950

    def test_validates_truncation_bounds(self):
        from bsfan import ValidationError
        with pytest.raises(ValidationError):
            infinite_prefix(TRUNCATION_TABLE, 2, 1)
        with pytest.raises(ValidationError):
            infinite_prefix(TRUNCATION_TABLE, 3, 1)

    def test_rejects_signed_input(self):
        from bsfan import ValidationError
        with pytest.raises(ValidationError, match="nonnegative"):
            infinite_prefix(BettiTable({(0, 0): -1}), 3, 1)


def stuck(run):
    """The NotInCone that run() raises, or None when it succeeds."""
    try:
        run()
    except NotInCone as exc:
        return exc
    return None


def certificate_problems(table, exc):
    """What a failure certificate names that the input does not have: the
    blocking strand's keys off the input's support, and the entries where
    the partial pieces' pure diagrams sum to more than the input."""
    entries, strand = plain(table), exc.blocking_strand
    left = oracles.combine([(1, entries)] + [
        (-c, oracles.pure_vector(*d)) for c, d in exc.partial_pieces])
    return ([key for key in zip(positions(strand), strand.degrees)
             if key not in entries],
            [key for key, v in left.items() if v < 0])


def stuck_run(r, kind):
    """(table, call) for one seeded run of kind on a small random table or,
    for monad and infinite half the time, on a perturbed one-sided chain,
    whose run gets stuck after some pieces."""
    if kind == "infinite":
        table, e, n = truncation(r)
        table = (perturbed(r, table, (-2, e)) if r.random() < 0.5
                 else random_table(r, max_entries=6, cols=(-3, e)))
        return table, partial(infinite_prefix, table, e, n)
    n = r.randint(1, 3)
    if kind == "decompose":
        c = CodimensionSequence.constant(r.randint(0, n + 1), n)
        table = random_table(r, max_entries=6)
        return table, partial(decompose_s, table, c, n)
    if r.random() < 0.5:
        chain = one_sided_chain(r, n, 0, r.randint(n + 1, n + 3),
                                r.randint(1, n + 4))
        table = dual(perturbed(
            r, chain_combination(chain, random_coeffs(r, chain)), (-2, 4)))
    else:
        table = random_table(r, max_entries=6)
    return table, partial(monad_split, table, n)


class TestCertificates:
    """Every NotInCone of decompose_s, monad_split and infinite_prefix can
    be checked against the input, also when the run on the dual got
    stuck."""

    def test_stuck_dual_runs_name_the_input(self):
        for table, call in [
                (T({(-3, 6): 2}), partial(monad_split, n=1)),
                (T({(-1, 2): 1, (0, 3): 2}),
                 partial(infinite_prefix, e=3, n=1))]:
            exc = stuck(partial(call, table))
            assert exc is not None
            assert certificate_problems(table, exc) == ([], [])

    def test_random_failures_name_the_input(self):
        r = rng(1901)
        seen = {"decompose": 0, "monad": 0, "infinite": 0, "partial": 0}
        for _ in range(600):
            kind = r.choice(["decompose", "monad", "infinite"])
            table, call = stuck_run(r, kind)
            try:
                exc = stuck(call)
            except MonadViolation:
                continue
            if exc is not None:
                assert certificate_problems(table, exc) == ([], []), \
                    (kind, table)
                seen[kind] += 1
                seen["partial"] += bool(exc.partial_pieces)
        assert min(seen.values()) >= 100


ONE_FREE = CodimensionSequence.constant(1, 0)
RANK_ONE = MultiBettiTable(1, {(0, (0,)): 1})


@pytest.mark.parametrize("run", [
    partial(decompose_s, RANK_ONE, ONE_FREE, 0),
    partial(decompose_a, RANK_ONE, ONE_FREE),
    partial(monad_split, RANK_ONE, 1),
    partial(infinite_prefix, RANK_ONE, 3, 1),
], ids=["decompose_s", "decompose_a", "monad_split", "infinite_prefix"])
def test_greedy_refuses_a_multigraded_table(run):
    """The greedy reads integer degrees; a Z^m table, even of rank 1, is
    refused by decompose_s, which every greedy entry point runs."""
    with pytest.raises(ValidationError, match="single-graded"):
        run()
