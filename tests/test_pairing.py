from math import inf

import pytest

from bsfan import (BettiTable, DegreeSequence, EvaluatorRangeError,
                   ProductSpace, SupernaturalEvaluator, SupernaturalSheaf,
                   WindowEvaluator, chi, es_functional, linear_combine, pair,
                   pair_check, pure_diagram, pure_pair_support, shift,
                   twist_evaluator)
from bsfan.multigraded import _Capped
from helpers import (F, T, TWO_STRAND_TABLE, FormalEvaluator, koszul_table,
                     random_degree_sequence, random_roots, random_table, rng)


def supernatural(roots, scale, n):
    return SupernaturalEvaluator(SupernaturalSheaf(roots, F(scale), n))


class TestPairGoldens:
    def test_koszul_with_structure_sheaf(self):
        result = pair(koszul_table(2), twist_evaluator(2, 0))
        assert result == T({(0, 0): 1, (1, 3): 1})

    def test_two_strand_table_with_wide_bundle(self):
        result = pair(TWO_STRAND_TABLE, supernatural((0, -8), 8, 2))
        assert result == T({(0, 3): 240, (0, 4): 256, (1, 4): 256, (1, 5): 240})

    def test_one_term_tables(self):
        ev = supernatural((1, -3), 2, 2)
        r = rng(401)
        for _ in range(100):
            v, u = r.randint(-3, 3), r.randint(-5, 5)
            result = pair(T({(v, u): 1}), ev)
            if -u in (1, -3):
                assert result == BettiTable()
                continue
            # the roots padded with f_0 = +inf and f_3 = -inf
            padded = (inf, 1, -3, -inf)
            p = next(p for p in range(3) if padded[p] >= -u > padded[p + 1])
            gamma = ev.gamma(p, -u)
            assert result == T({(v - p, u): gamma})

    def test_empty_table(self):
        assert pair(BettiTable(), supernatural((0, -8), 8, 2)) == BettiTable()


class TestPairAlgebra:
    def test_bilinear_in_table(self):
        r = rng(402)
        for _ in range(200):
            n = r.randint(1, 3)
            ev = supernatural(random_roots(r, r.randint(0, n)),
                              F(r.randint(1, 5)), n)
            b1, b2 = random_table(r), random_table(r)
            a, b = F(r.randint(0, 5), r.randint(1, 4)), F(r.randint(0, 5), r.randint(1, 4))
            assert pair(linear_combine([(a, b1), (b, b2)]), ev) == linear_combine(
                [(a, pair(b1, ev)), (b, pair(b2, ev))])

    def test_bilinear_in_evaluator(self):
        r = rng(403)
        for _ in range(100):
            n = r.randint(1, 3)
            e1 = supernatural(random_roots(r, r.randint(0, n)), F(r.randint(1, 5)), n)
            e2 = supernatural(random_roots(r, r.randint(0, n)), F(r.randint(1, 5)), n)
            a, b = F(r.randint(-4, 4)), F(r.randint(-4, 4))
            table = random_table(r)
            combined = FormalEvaluator([(a, e1), (b, e2)])
            assert pair(table, combined) == linear_combine(
                [(a, pair(table, e1)), (b, pair(table, e2))])

    def test_shift_equivariance(self):
        r = rng(404)
        for _ in range(200):
            n = r.randint(1, 3)
            ev = supernatural(random_roots(r, r.randint(0, n)),
                              F(r.randint(1, 5)), n)
            table = random_table(r)
            k = r.randint(-3, 3)
            assert pair(shift(table, k), ev) == shift(pair(table, ev), k)


class TestSupportPredicate:
    def test_direct_example(self):
        assert pure_pair_support(
            DegreeSequence(0, (0, 2)), (-1, -4), 0, 2)

    def test_degree_not_in_run(self):
        d = DegreeSequence(0, (0, 2))
        assert not pure_pair_support(d, (-1, -4), 0, 3)

    def test_root_kills_support(self):
        d = DegreeSequence(0, (0, 2))
        for i in range(-3, 4):
            assert not pure_pair_support(d, (-2, -5), i, 2)

    def test_matches_actual_pairing(self):
        r = rng(405)
        for _ in range(200):
            n = r.randint(1, 4)
            d = random_degree_sequence(r, max_codim=n + 1)
            roots = random_roots(r, r.randint(0, n))
            ev = supernatural(roots, r.randint(1, 4), n)
            paired = pair(pure_diagram(d), ev)
            cols = range(d.start - n - 1, d.end + 2)
            degs = set(d.degrees) | {d.degrees[0] - 1, d.degrees[-1] + 1}
            for i in cols:
                for j in degs:
                    assert bool(paired[(i, j)]) == pure_pair_support(d, roots, i, j)


class TestWindowErrors:
    def test_pair_lists_missing_queries(self):
        ev = WindowEvaluator(1, -1, 1, {(0, 0): F(1)})
        table = T({(0, 0): 1, (1, 3): 2})
        with pytest.raises(EvaluatorRangeError) as err:
            pair(table, ev)
        assert (0, -3) in err.value.missing
        assert (1, -3) in err.value.missing

    def test_pair_inside_window_succeeds(self):
        ev = WindowEvaluator(1, -1, 1, {(0, 0): F(2), (1, -1): F(3)})
        assert pair(T({(0, 0): 1, (2, 1): 1}), ev) == T({(0, 0): 2, (1, 1): 3})


class TestDimensionCap:
    """pair queries q = 0..dimension only: every evaluator is zero above."""

    def test_gamma_vanishes_above_dimension(self):
        window = WindowEvaluator(2, -3, 3, {(0, 1): F(2), (2, -3): F(5),
                                            (1, 0): F(1, 3)})
        short = supernatural((2, -1), 3, 5)   # s = 2 roots, n = 5
        space = ProductSpace((1, 2), (((1, -2), 2), ((-3, 0), 1)))
        assert space.gamma(3, (-2, -4))   # something for the cap to drop
        grades = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
        for kind, ev, js in [
                ("supernatural", short, range(-8, 9)),
                ("twist", twist_evaluator(3, -2), range(-8, 9)),
                ("window", window, range(-3, 4)),
                ("formal", FormalEvaluator([(F(2), window), (F(-1), short)]),
                 range(-3, 4)),
                ("product", space, grades),
                ("capped", _Capped(space, 1), grades)]:
            for q in range(ev.dimension + 1, ev.dimension + 4):
                for j in js:
                    assert ev.gamma(q, j) == 0, (kind, q, j)

    def test_short_supernatural_pairs_like_the_sum_to_n(self):
        r = rng(811)
        for _ in range(60):
            n = r.randint(2, 5)
            s = r.randint(1, n - 1)
            ev = supernatural(random_roots(r, s), r.randint(1, 4), n)
            assert ev.dimension == s < n
            table = random_table(r, nonneg=False)
            acc = {}
            for (p, j), value in table.items():
                for q in range(n + 1):
                    key = (p - q, j)
                    acc[key] = acc.get(key, F(0)) + value * ev.gamma(q, -j)
            assert pair(table, ev) == T(acc)

    def test_formal_range_error_lists_q_up_to_its_dimension(self):
        window = WindowEvaluator(1, -1, 1, {(0, 0): F(1)})
        ev = FormalEvaluator([(F(1), window), (F(1), supernatural((0,), 1, 4))])
        with pytest.raises(EvaluatorRangeError) as err:
            pair(T({(0, 3): 1}), ev)
        assert err.value.missing == [(0, -3), (1, -3)]


class TestSeparatingFunctional:
    def test_weight_three(self):
        assert es_functional(T({(1, 0): 1}), (1, -3), F(2), 2, 1, 0) == 3

    def test_weight_minus_four(self):
        assert es_functional(T({(2, 1): 1}), (1, -3), F(2), 2, 1, 0) == -4

    def test_root_annihilates(self):
        assert es_functional(T({(0, 3): 1}), (1, -3), F(2), 2, 1, 0) == 0

    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            es_functional(T({(0, 0): 1}), (1, -3), F(2), 2, 3, 0)

    def test_top_tau_drops_upper_bound(self):
        # tau = s: the anchor is max(kappa, -f_s - 1) with no cap
        value = es_functional(T({(0, -9): 1}), (1, -3), F(2), 2, 2, 5)
        paired = pair(T({(0, -9): 1}), supernatural((1, -3), 2, 2))
        assert value == chi(paired, 0, 5)


class TestPairCheck:
    def test_two_strand_table_fails(self):
        verdicts = pair_check(TWO_STRAND_TABLE,
                              [supernatural((0, -8), 8, 2)], 2)
        assert len(verdicts) == 1 and not verdicts[0].ok
        kinds = {v.kind for v in verdicts[0].violations}
        assert "chi_negative" in kinds
        witness = [v for v in verdicts[0].violations if v.kind == "chi_negative"]
        assert any(v.value < 0 for v in witness)

    def test_pure_resolution_passes(self):
        d = DegreeSequence(0, (0, 2, 3, 5))
        verdicts = pair_check(pure_diagram(d), [twist_evaluator(2, 0)], 2)
        assert [v.ok for v in verdicts] == [True]

    def test_empty_table_passes_everything(self):
        verdicts = pair_check(BettiTable(), [twist_evaluator(2, 0),
                                             supernatural((1, -3), 2, 2)], 2)
        assert [v.ok for v in verdicts] == [True, True]

    def test_order_matches_input(self):
        evs = [supernatural((0, -8), 8, 2), twist_evaluator(2, 0)]
        verdicts = pair_check(pure_diagram(
            DegreeSequence(0, (0, 1, 2))), evs, 2)
        assert len(verdicts) == 2

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_check(BettiTable(), [supernatural((1,), 1, 3)], 2)


def test_paired_chi_nonnegativity_sample():
    # full-size sweep lives in the acceptance suite
    from bsfan import chi_window
    r = rng(406)
    for _ in range(40):
        n = r.randint(1, 4)
        k = r.randint(1, n + 1)
        d = random_degree_sequence(r, codim=k)
        ev = supernatural(random_roots(r, k - 1), r.randint(1, 3), n)
        paired = pair(pure_diagram(d), ev)
        cols, degs = chi_window(paired)
        for i in cols:
            for j in degs:
                assert chi(paired, i, j) >= 0
