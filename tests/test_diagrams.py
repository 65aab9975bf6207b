import itertools
import math
from fractions import Fraction

import pytest

from bsfan import (DegreeSequence, EvaluatorRangeError, SupernaturalSheaf,
                   TwistSheaf, ValidationError, WindowEvaluator,
                   evaluator_from_obj, pure_diagram)
from helpers import (F, T, gamma, positions, random_degree_sequence,
                     random_roots, reference_pure_diagram, reference_twist,
                     rng)


class TestPureDiagram:
    def test_length_three_run(self):
        assert pure_diagram(DegreeSequence(0, (0, 2, 3, 5))) == T(
            {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1})

    def test_length_two_runs(self):
        assert pure_diagram(DegreeSequence(0, (0, 2, 3))) == T(
            {(0, 0): 1, (1, 2): 3, (2, 3): 2})
        assert pure_diagram(DegreeSequence(0, (2, 3, 5))) == T(
            {(0, 2): 2, (1, 3): 3, (2, 5): 1})

    def test_single_free_module(self):
        assert pure_diagram(DegreeSequence(4, (5,))) == T({(4, 5): 1})

    def test_entries_positive_integers_with_gcd_one(self):
        r = rng(301)
        for _ in range(200):
            d = random_degree_sequence(r)
            values = [v for _, v in pure_diagram(d).items()]
            assert all(v.denominator == 1 and v > 0 for v in values)
            assert math.gcd(*(v.numerator for v in values)) == 1

    @staticmethod
    def matches_reference(d):
        table = pure_diagram(d)
        assert table == reference_pure_diagram(d)
        values = [v for _, v in table.items()]
        assert all(type(v) is Fraction and v.denominator == 1
                   for v in values)
        assert math.gcd(*(v.numerator for v in values)) == 1

    def test_matches_fraction_reference_on_small_runs(self):
        for length in range(1, 7):
            for degrees in itertools.combinations(range(-6, 7), length):
                for start in range(-2, 3):
                    self.matches_reference(DegreeSequence(start, degrees))

    def test_matches_fraction_reference_on_wide_runs(self):
        r = rng(303)
        for _ in range(200):
            degrees = [r.randint(-20, 20)]
            for _ in range(r.randint(0, 11)):
                degrees.append(degrees[-1] + r.randint(1, 50))
            self.matches_reference(DegreeSequence(r.randint(-5, 5), degrees))

    def test_alternating_power_sums_vanish(self):
        # the defining linear conditions: sum_i (-1)^i beta_i * d_i^m = 0
        # for m = 0 .. codim - 1
        r = rng(302)
        for _ in range(200):
            d = random_degree_sequence(r)
            table = pure_diagram(d)
            for m in range(d.codim):
                total = sum(
                    (-1) ** pos * table[(pos, deg)] * deg ** m
                    for pos, deg in zip(positions(d), d.degrees))
                assert total == 0


class TestSupernatural:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SupernaturalSheaf((1, 1), F(1), 2)
        with pytest.raises(ValidationError):
            SupernaturalSheaf((3, 2, 1), F(1), 2)
        with pytest.raises(ValidationError):
            SupernaturalSheaf((1,), F(0), 2)

    def test_two_root_bundle_values(self):
        ev = SupernaturalSheaf((1, -3), F(2), 2)
        assert gamma(ev, 1, 0) == 3
        assert gamma(ev, 1, -1) == 4
        assert gamma(ev, 0, 2) == 5
        assert gamma(ev, 0, 3) == 12

    def test_wide_bundle_values(self):
        ev = SupernaturalSheaf((0, -8), F(8), 2)
        assert gamma(ev, 1, -3) == 60
        assert gamma(ev, 1, -4) == 64

    def test_roots_annihilate(self):
        ev = SupernaturalSheaf((1, -3), F(7, 3), 2)
        for q in range(3):
            assert gamma(ev, q, 1) == 0
            assert gamma(ev, q, -3) == 0

    def test_at_most_one_nonzero_index_per_twist(self):
        r = rng(303)
        for _ in range(200):
            n = r.randint(1, 4)
            s = r.randint(0, n)
            ev = SupernaturalSheaf(random_roots(r, s), F(r.randint(1, 5)), n)
            for j in range(-10, 11):
                hits = [q for q in range(n + 1) if gamma(ev, q, j)]
                assert len(hits) <= 1


class TestTwist:
    def test_plane_values(self):
        ev = TwistSheaf(2, 0)
        assert gamma(ev, 0, 1) == 3
        assert gamma(ev, 2, -3) == 1
        assert all(gamma(ev, q, -1) == 0 for q in range(3))

    def test_matches_supernatural_on_window(self):
        r = rng(304)
        for _ in range(50):
            n = r.randint(1, 4)
            a = r.randint(-4, 4)
            ev = TwistSheaf(n, a)
            same = reference_twist(n, a)
            for q in range(n + 1):
                for j in range(-8, 9):
                    assert gamma(ev, q, j) == gamma(same, q, j)

    def test_section_counts_are_binomials(self):
        ev = TwistSheaf(3, 2)
        for j in range(-2, 5):
            assert gamma(ev, 0, j) == math.comb(3 + j + 2, 3)

    def test_rejects_zero_dimensional_ambient(self):
        with pytest.raises(ValidationError):
            TwistSheaf(0, 1)


class TestWindowEvaluator:
    def test_inside_and_outside(self):
        ev = WindowEvaluator(1, -2, 2, {(0, 0): F(1), (1, -2): F(3)})
        assert gamma(ev, 0, 0) == 1
        assert gamma(ev, 1, 0) == 0
        for j in (3, -5):
            with pytest.raises(EvaluatorRangeError, match=rf"twists \[{j}\]"):
                ev.column(j)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            WindowEvaluator(1, 0, 1, {(0, 0): F(-1)})

    def test_index_outside_dimension_rejected(self):
        with pytest.raises(ValidationError):
            WindowEvaluator(1, 0, 1, {(2, 0): F(1)})
        with pytest.raises(ValidationError):
            WindowEvaluator(1, 0, 1, {(-1, 0): F(1)})
        assert gamma(WindowEvaluator(1, 0, 1, {(1, 0): F(1)}), 1, 0) == 1


class TestEvaluatorJson:
    def test_supernatural(self):
        ev = evaluator_from_obj({"kind": "supernatural", "roots": [1, -3],
                                 "rank_scale": "2", "n": 2})
        assert isinstance(ev, SupernaturalSheaf)
        assert gamma(ev, 0, 3) == 12

    def test_twist(self):
        ev = evaluator_from_obj({"kind": "twist", "n": 2, "a": 0})
        assert gamma(ev, 0, 1) == 3

    def test_window(self):
        ev = evaluator_from_obj({
            "kind": "window", "dim": 1, "jmin": -1, "jmax": 1,
            "entries": [{"q": 0, "j": 1, "value": "2"}]})
        assert gamma(ev, 0, 1) == 2

    def test_unknown_kind(self):
        from bsfan import ParseError
        with pytest.raises(ParseError):
            evaluator_from_obj({"kind": "mystery"})
