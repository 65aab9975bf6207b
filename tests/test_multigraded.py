from fractions import Fraction

import pytest

from bsfan import (BettiTable, GradedOrder, MultiBettiTable, ParseError,
                   ProductSpace, TwistSheaf, ValidationError, chi, dual,
                   linear_combine, multi_chi, multi_pair, pair, shift,
                   table_from_obj, table_to_obj)
from helpers import (F, multi_chi_box, random_table, reference_kunneth_gamma,
                     rng)

W11 = GradedOrder((1, 1))
W1 = GradedOrder((1,))


def M(m, entries):
    return MultiBettiTable(m, entries)


def bigraded_koszul():
    """All exterior powers on two pairs of bidegree (1,0) / (0,1) variables."""
    return M(2, {
        (0, (0, 0)): 1,
        (1, (1, 0)): 2, (1, (0, 1)): 2,
        (2, (2, 0)): 1, (2, (1, 1)): 4, (2, (0, 2)): 1,
        (3, (2, 1)): 2, (3, (1, 2)): 2,
        (4, (2, 2)): 1,
    })


class TestOrder:
    def test_weight_dominance(self):
        assert W11.key((1, 1)) > W11.key((1, 0))

    def test_lex_tiebreak(self):
        assert W11.key((1, 0)) > W11.key((0, 1))

    def test_equal(self):
        assert W11.key((2, 3)) == W11.key((2, 3))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            GradedOrder((1, 0))
        with pytest.raises(ValidationError):
            GradedOrder(())

    def test_rank_mismatch_rejected(self):
        for alpha in [(1, 0, 0), (0, 0, 0)]:
            with pytest.raises(ValidationError):
                W11.key(alpha)

    def test_total_and_refines_dominance(self):
        r = rng(701)
        order = GradedOrder((2, 1, 3))
        grades = [tuple(r.randint(-4, 4) for _ in range(3)) for _ in range(80)]
        for a in grades:
            for b in grades:
                ka, kb = order.key(a), order.key(b)
                assert (ka == kb) == (a == b)
                if all(x >= y for x, y in zip(a, b)) and a != b:
                    assert ka > kb


class TestMultiChi:
    def test_two_term_values(self):
        table = M(2, {(0, (0, 0)): 1, (1, (1, 1)): 1})
        assert multi_chi(table, 0, (1, 0), W11) == 1
        assert multi_chi(table, 0, (1, 1), W11) == 0

    def test_lone_deep_column(self):
        table = M(2, {(3, (0, 0)): 1})
        for alpha in [(0, 0), (2, -1), (-3, 3)]:
            assert multi_chi(table, 0, alpha, W11) == -1

    def test_shift_normalized_tail(self):
        # tail signs alternate with the distance from the anchored column
        table = M(2, {(3, (0, 0)): 1})
        assert multi_chi(table, 2, (0, 0), W11) == -1
        assert multi_chi(table, 1, (0, 0), W11) == 1
        assert multi_chi(table, -1, (0, 0), W11) == 1
        assert multi_chi(table, -2, (0, 0), W11) == -1

    def test_specializes_to_single_graded_on_torsion_family(self):
        from bsfan import BettiTable
        r = rng(702)
        for _ in range(200):
            position, gen = r.randint(-3, 3), r.randint(-4, 4)
            socle = gen + r.randint(1, 5)
            single = BettiTable({(position, gen): 1, (position + 1, socle): 1})
            multi = M(1, {(position, (gen,)): 1, (position + 1, (socle,)): 1})
            for i in range(position - 3, position + 3):
                for a in range(gen - 2, socle + 3):
                    strict = multi_chi(multi, i, (a,), W1)
                    assert strict == chi(single, i, a - 1)
                    assert (strict > 0) == (chi(single, i, a - 1) > 0)


    def test_specializes_to_single_graded_on_random_tables(self):
        r = rng(705)
        for _ in range(150):
            single = random_table(r, nonneg=False)
            multi = M(1, {(i, (j,)): v for (i, j), v in single.items()})
            for i in range(-4, 5):
                for a in range(-7, 9):
                    assert multi_chi(multi, i, (a,), W1) == chi(single, i, a - 1)

    def test_ranks_must_agree(self):
        table = M(2, {(5, (0, 0)): 1})
        with pytest.raises(ValidationError):
            multi_chi(table, 0, (0, 0, 0), GradedOrder((1, 1, 1)))
        with pytest.raises(ValidationError):
            multi_chi(table, 0, (0, 0), GradedOrder((1, 1, 1)))
        with pytest.raises(ValidationError):
            multi_chi(M(2, {}), 0, (0,), W1)


class TestKunneth:
    def test_section_count(self):
        space = ProductSpace((1, 1), (((1, 1), 1),))
        assert space.gamma(0, (0, 0)) == 4

    def test_top_cohomology(self):
        space = ProductSpace((1, 1), (((0, 0), 1),))
        assert space.gamma(2, (-2, -2)) == 1

    def test_acyclic_twist(self):
        space = ProductSpace((1, 1), (((0, 0), 1),))
        for q in range(3):
            for b in range(-4, 5):
                assert space.gamma(q, (-1, b)) == 0

    def test_multiplicity_and_sums(self):
        space = ProductSpace((1, 1), (((1, 1), 2), ((0, 0), 1)))
        assert space.gamma(0, (0, 0)) == 2 * 4 + 1

    def test_matches_split_enumeration(self):
        # twists and grades in -8..8 put every factor in its vanishing band
        # -n..-1 as well as in degree 0 and degree n
        r = rng(707)
        for _ in range(150):
            rank = r.randint(1, 3)
            dims = tuple(r.randint(1, 4) for _ in range(rank))
            space = ProductSpace(dims, tuple(
                (tuple(r.randint(-8, 8) for _ in dims), r.randint(1, 3))
                for _ in range(r.randint(1, 3))))
            for _ in range(8):
                alpha = tuple(r.randint(-8, 8) for _ in dims)
                for q in range(space.dimension + 2):
                    got = space.gamma(q, alpha)
                    want = reference_kunneth_gamma(space, q, alpha)
                    assert got == want, (space, q, alpha)
                    assert type(got) in (int, Fraction), (space, q, alpha)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ProductSpace((0,), (((0,), 1),))
        with pytest.raises(ValidationError):
            ProductSpace((1, 1), (((0,), 1),))
        with pytest.raises(ValidationError):
            ProductSpace((1,), (((0,), 0),))
        with pytest.raises(ValidationError, match="rank 3, expected 2"):
            ProductSpace((1, 1), (((0, 0), 1),)).column((0, 0, 0))


class TestMultiPair:
    def test_koszul_with_structure_sheaf(self):
        result = multi_pair(bigraded_koszul(),
                            ProductSpace((1, 1), (((0, 0), 1),)), 2)
        assert result == M(2, {(0, (0, 0)): 1, (1, (2, 0)): 1,
                               (1, (0, 2)): 1, (2, (2, 2)): 1})

    def test_single_entry(self):
        space = ProductSpace((1, 1), (((0, 0), 1),))
        result = multi_pair(M(2, {(3, (2, 2)): 1}), space, 2)
        assert result == M(2, {(1, (2, 2)): 1})

    def test_empty(self):
        space = ProductSpace((1, 1), (((0, 0), 1),))
        assert multi_pair(M(2, {}), space, 2) == M(2, {})

    def test_bilinear_and_shift_equivariant(self):
        r = rng(703)
        space = ProductSpace((1, 1), (((1, -1), 1), ((0, 0), 1)))
        for _ in range(100):
            entries1, entries2 = {}, {}
            for target in (entries1, entries2):
                for _ in range(r.randint(1, 6)):
                    key = (r.randint(-2, 3),
                           (r.randint(-3, 3), r.randint(-3, 3)))
                    target[key] = F(r.randint(1, 5), r.randint(1, 3))
            t1, t2 = M(2, entries1), M(2, entries2)
            a, b = F(r.randint(0, 4)), F(r.randint(0, 4))
            combined = M(2, {
                key: a * t1[key] + b * t2[key]
                for key in set(t1.support()) | set(t2.support())
            })
            paired = multi_pair(combined, space, 2)
            p1, p2 = multi_pair(t1, space, 2), multi_pair(t2, space, 2)
            expected = M(2, {
                key: a * p1[key] + b * p2[key]
                for key in set(p1.support()) | set(p2.support())
            })
            assert paired == expected
            k = r.randint(-2, 2)
            shifted = M(2, {(i + k, alpha): v
                            for (i, alpha), v in t1.items()})
            assert multi_pair(shifted, space, 2) == M(
                2, {(i + k, alpha): v for (i, alpha), v in p1.items()})


    def test_specializes_to_single_graded_pair(self):
        # the single-graded pairing is the m = 1 case, entry for entry
        r = rng(706)
        for _ in range(120):
            single = random_table(r, max_entries=10)
            multi = M(1, {(i, (j,)): v for (i, j), v in single.items()})
            n, a = r.randint(1, 4), r.randint(-4, 4)
            paired = multi_pair(multi, ProductSpace((n,), (((a,), 1),)), n)
            expected = pair(single, TwistSheaf(n, a))
            assert len(paired) == len(expected)
            for (i, j), value in expected.items():
                assert paired[(i, (j,))] == value

    def test_qmax_past_the_dimension_changes_nothing(self):
        # the cap is clamped to the space: no work per q above its dimension
        space = ProductSpace((1, 2), (((1, -2), 2), ((-3, 0), 1)))
        table = M(2, {(0, (0, 0)): 1, (1, (1, 2)): F(3, 2), (2, (2, 4)): 2})
        assert multi_pair(table, space, 10 ** 12) == multi_pair(table, space)

    def test_rank_and_qmax_checked(self):
        space = ProductSpace((1,), (((0,), 1),))
        with pytest.raises(ValidationError):
            multi_pair(M(2, {}), space, 1)
        with pytest.raises(ValidationError):
            multi_pair(M(1, {(0, (0,)): 1}), space, -1)


class TestPositivity:
    def test_koszul_pairings_have_nonnegative_chi(self):
        r = rng(704)
        koszul = bigraded_koszul()
        bundles = [(0, 0)] + [(r.randint(-4, 4), r.randint(-4, 4))
                              for _ in range(10)]
        for twist in bundles:
            space = ProductSpace((1, 1), ((twist, 1),))
            paired = multi_pair(koszul, space, 2)
            cols, box = multi_chi_box(paired)
            for i in cols:
                for alpha in box:
                    assert multi_chi(paired, i, alpha, W11) >= 0, (twist, i, alpha)


def test_dual_shift_and_linear_combine_keep_the_grading():
    table = M(2, {(0, (0, 1)): 1, (1, (2, 1)): F(3, 2)})
    assert dual(table) == M(2, {(0, (0, -1)): 1, (-1, (-2, -1)): F(3, 2)})
    assert shift(table, 2) == M(2, {(2, (0, 1)): 1, (3, (2, 1)): F(3, 2)})
    assert linear_combine([(2, table), (-1, table)]) == table
    assert linear_combine([(1, table), (-1, table)]) == M(2, {})
    assert linear_combine([]) == BettiTable()


class TestJson:
    def test_round_trip(self):
        table = bigraded_koszul()
        assert table_from_obj(table_to_obj(table), MultiBettiTable) == table

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            table_from_obj({
                "m": 1,
                "entries": [{"i": 0, "alpha": [0], "value": "1"},
                            {"i": 0, "alpha": [0], "value": "2"}]},
                MultiBettiTable)

    def test_product_space(self):
        space = ProductSpace.from_obj({
            "kind": "product", "dims": [1, 1],
            "summands": [{"twist": [1, 1], "mult": 2}]})
        assert space.gamma(0, (0, 0)) == 8
        with pytest.raises(ParseError):
            ProductSpace.from_obj({"kind": "other"})

    def test_rank_mismatch(self):
        with pytest.raises(ValidationError):
            MultiBettiTable(2, {(0, (1,)): 1})

    def test_entries_must_be_a_list_and_m_an_integer(self):
        for obj in ({"m": 1, "entries": 5}, {"m": True, "entries": []},
                    {"entries": []}, {"m": 1, "entries": [
                        {"i": 0, "alpha": [True], "value": "1"}]}):
            with pytest.raises(ParseError):
                table_from_obj(obj, MultiBettiTable)

    def test_equality_separates_types_and_ranks(self):
        assert BettiTable() != MultiBettiTable(2)
        assert MultiBettiTable(1) != MultiBettiTable(2)
        assert BettiTable({(0, 0): 1}) != M(1, {(0, (0,)): 1})
        assert M(2, {(0, (1, 0)): 2}) == M(2, {(0, (1, 0)): F(2)})
