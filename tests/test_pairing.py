import json
from fractions import Fraction
from math import inf

import pytest

from bsfan import (BettiTable, BsfanError, CodimensionSequence,
                   DegreeSequence, EvaluatorRangeError, MultiBettiTable,
                   ProductSpace, SupernaturalSheaf, TwistSheaf,
                   WindowEvaluator, chi, decompose_s, es_functional,
                   linear_combine, pair, pair_check, pure_diagram, shift)
from bsfan.cli import main
from bsfan.multigraded import _Capped
from helpers import (F, T, TWO_STRAND_TABLE, FormalEvaluator,
                     chain_combination, chi_window, gamma, koszul_table,
                     pure_pair_support, random_chain, random_degree_sequence,
                     random_constraint, random_fraction, random_roots,
                     random_table, reference_compatible, reference_gamma,
                     reference_pair, rng)


def supernatural(roots, scale, n):
    return SupernaturalSheaf(roots, F(scale), n)


class TestPairGoldens:
    def test_koszul_with_structure_sheaf(self):
        result = pair(koszul_table(2), TwistSheaf(2, 0))
        assert result == T({(0, 0): 1, (1, 3): 1})

    def test_twist_on_a_huge_ambient_space(self):
        # Bott's closed form: no n-root tuple, so n = 2 * 10^8 pairs at once
        ev = TwistSheaf(200_000_000, 0)
        assert pair(T({(0, 0): 1, (1, 2): 3}), ev) == T({(0, 0): 1})
        column = ev.column(0)
        assert column == ((0, 1),) and type(column[0][1]) is Fraction

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
            assert result == T({(v - p, u): gamma(ev, p, -u)})

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
        assert err.value.twists == [-3]
        assert err.value.dimension == 1
        assert "twists [-3], q = 0..1" in str(err.value)

    def test_every_missing_twist_in_one_error(self):
        # pair asks each distinct grade's column once and raises one error
        # for all the twists a column refused; the reference finds the
        # same twists by its own range check
        window = WindowEvaluator(2, -1, 1, {(0, 0): F(1)})
        table = T({(0, 0): 1, (1, 3): 2, (2, 3): 1, (0, -4): 5, (3, 1): 1})
        summed = FormalEvaluator([(F(1), window), (F(2), TwistSheaf(2, 0))])
        for ev in (window, summed):
            for fn in (pair, reference_pair):
                with pytest.raises(EvaluatorRangeError) as err:
                    fn(table, ev)
                assert (err.value.twists, err.value.dimension) == ([-3, 4], 2)
        counting = Counting(window)
        with pytest.raises(EvaluatorRangeError):
            pair(table, counting)
        assert sorted(counting.asked) == [-3, -1, 0, 4]

    def test_range_error_is_bounded_by_the_twists(self):
        with pytest.raises(EvaluatorRangeError) as err:
            pair(T({(0, 5): 1}), WindowEvaluator(10 ** 9, 0, 1, {}))
        assert err.value.twists == [-5]
        assert err.value.dimension == 10 ** 9

    def test_cli_range_error_is_one_line(self, capsys):
        sheaf = {"kind": "window", "dim": 10 ** 9, "jmin": 0, "jmax": 1,
                 "entries": []}
        table = {"entries": [{"i": 0, "j": 5, "value": "1"}]}
        assert main(["pair", "--table", json.dumps(table),
                     "--sheaf", json.dumps(sheaf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

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
        assert gamma(space, 3, (-2, -4))   # something for the cap to drop
        grades = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
        for kind, ev, js in [
                ("supernatural", short, range(-8, 9)),
                ("twist", TwistSheaf(3, -2), range(-8, 9)),
                ("window", window, range(-3, 4)),
                ("formal", FormalEvaluator([(F(2), window), (F(-1), short)]),
                 range(-3, 4)),
                ("product", space, grades),
                ("capped", _Capped(space, 1), grades)]:
            for q in range(ev.dimension + 1, ev.dimension + 4):
                for j in js:
                    assert gamma(ev, q, j) == 0, (kind, q, j)

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
                    acc[key] = acc.get(key, F(0)) + value * gamma(ev, q, -j)
            assert pair(table, ev) == T(acc)

    def test_formal_range_error_lists_q_up_to_its_dimension(self):
        window = WindowEvaluator(1, -1, 1, {(0, 0): F(1)})
        ev = FormalEvaluator([(F(1), window), (F(1), supernatural((0,), 1, 4))])
        with pytest.raises(EvaluatorRangeError) as err:
            pair(T({(0, 3): 1}), ev)
        assert (err.value.twists, err.value.dimension) == ([-3], 1)


class Counting:
    """An evaluator that records every twist whose column is asked for."""

    def __init__(self, inner):
        self.inner, self.dimension, self.asked = inner, inner.dimension, []

    def column(self, j):
        self.asked.append(j)
        return self.inner.column(j)


def random_window(r, dim, jmin=-6, jmax=6):
    return WindowEvaluator(dim, jmin, jmax, {
        (r.randint(0, dim), r.randint(jmin, jmax)):
            random_fraction(r, nonneg=True) for _ in range(r.randint(0, 12))})


def random_space(r, m):
    return ProductSpace([r.randint(1, 3) for _ in range(m)], [
        ([r.randint(-3, 3) for _ in range(m)], r.randint(1, 3))
        for _ in range(r.randint(1, 3))])


def random_multi_table(r, m):
    entries = {}
    for _ in range(r.randint(0, 10)):
        entries[(r.randint(-2, 4),
                 tuple(r.randint(-4, 4) for _ in range(m)))] = \
            random_fraction(r)
    return MultiBettiTable(m, entries)


def random_case(r, kind):
    """(evaluator, signed table) of one evaluator kind."""
    n = r.randint(1, 4)
    if kind in ("product", "capped"):
        m = r.randint(1, 3)
        space = random_space(r, m)
        ev = (space if kind == "product"
              else _Capped(space, r.randint(0, space.dimension)))
        return ev, random_multi_table(r, m)
    table = random_table(r, 10, nonneg=False, degs=(-6, 6))
    if kind == "supernatural":
        return supernatural(random_roots(r, r.randint(0, n)),
                            F(r.randint(1, 5), r.randint(1, 3)), n), table
    if kind == "twist":
        return TwistSheaf(n, r.randint(-4, 4)), table
    if kind == "window":
        return random_window(r, n), table
    sheaf = supernatural(random_roots(r, r.randint(0, n)), r.randint(1, 3), n)
    return FormalEvaluator([(random_fraction(r), random_window(r, n)),
                            (random_fraction(r), sheaf),
                            (random_fraction(r), sheaf)]), table


def cancelling_table(r, ev, table):
    """Two entries at one grade whose terms cancel at one key, or None when
    no grade of the table has two nonzero cohomology indices."""
    for _, grade in table.support():
        neg = table.negate(grade)
        hits = [(q, reference_gamma(ev, q, neg))
                for q in range(ev.dimension + 1)]
        hits = [(q, g) for q, g in hits if g]
        if len(hits) >= 2:
            (q1, g1), (q2, g2) = hits[:2]
            p, a = r.randint(-2, 2), F(r.randint(1, 9), r.randint(1, 9))
            return (p - q1, grade), table.like(
                {(p, grade): a, (p + q2 - q1, grade): -a * g1 / g2})
    return None


KINDS = ("supernatural", "twist", "window", "formal", "product", "capped")


class TestColumnContract:
    """pair reads one column per distinct grade and agrees with the scan of
    every q = 0..dimension."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference_pair(self, kind):
        r = rng(1000 + KINDS.index(kind))
        cancelled = 0
        for _ in range(80):
            ev, table = random_case(r, kind)
            result = pair(table, ev)
            assert result == reference_pair(table, ev), kind
            assert all(type(v) is Fraction for _, v in result.items())
            found = cancelling_table(r, ev, table)
            if found:
                key, two = found
                assert pair(two, ev) == reference_pair(two, ev), kind
                assert key not in pair(two, ev).support()
                cancelled += 1
        if kind not in ("supernatural", "twist"):
            assert cancelled, kind

    def test_opposite_terms_pair_to_zero(self):
        r = rng(1010)
        for _ in range(40):
            ev, table = random_case(r, "supernatural")
            opposite = FormalEvaluator([(F(3, 2), ev), (F(-3, 2), ev)])
            assert pair(table, opposite) == BettiTable()
            assert reference_pair(table, opposite) == BettiTable()

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_column_per_distinct_grade(self, kind):
        r = rng(1020 + KINDS.index(kind))
        for _ in range(30):
            ev, table = random_case(r, kind)
            counting = Counting(ev)
            assert pair(table, counting) == pair(table, ev)
            assert sorted(counting.asked) == sorted(
                {table.negate(g) for _, g in table.support()})


class TestBoundedWork:
    """pair's work depends on the table, not on the declared dimension."""

    def test_window_of_dimension_a_billion(self):
        top = 10 ** 9
        ev = WindowEvaluator(top, -2, 2, {(0, 0): F(2), (top, -1): F(3),
                                          (5, -1): F(1, 2)})
        table = T({(0, 0): 1, (4, 1): F(1, 3)})
        assert pair(table, ev) == T({(0, 0): 2, (4 - top, 1): 1,
                                     (-1, 1): F(1, 6)})

    @pytest.mark.parametrize("qmax", [None, "0"])
    def test_multi_pair_on_a_billion_dimensional_space(self, capsys, qmax):
        top = 10 ** 9
        table = {"m": 1, "entries": [
            {"i": 0, "alpha": [-2], "value": "1"},
            {"i": 3, "alpha": [top + 1], "value": "2"}]}
        space = {"kind": "product", "dims": [top],
                 "summands": [{"twist": [0]}]}
        argv = ["multi-pair", "--table", json.dumps(table),
                "--space", json.dumps(space)]
        assert main(argv + (["--qmax", qmax] if qmax else [])) == 0
        # O(2) has C(top + 2, 2) sections; O(-top - 1) has one top class
        entries = [{"i": 0, "alpha": [-2],
                    "value": str((top + 2) * (top + 1) // 2)}]
        if qmax is None:
            entries.insert(0, {"i": 3 - top, "alpha": [top + 1],
                               "value": "2"})
        assert json.loads(capsys.readouterr().out) == {"m": 1,
                                                       "entries": entries}


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
        verdicts = pair_check(pure_diagram(d), [TwistSheaf(2, 0)], 2)
        assert [v.ok for v in verdicts] == [True]

    def test_empty_table_passes_everything(self):
        verdicts = pair_check(BettiTable(), [TwistSheaf(2, 0),
                                             supernatural((1, -3), 2, 2)], 2)
        assert [v.ok for v in verdicts] == [True, True]

    def test_order_matches_input(self):
        evs = [supernatural((0, -8), 8, 2), TwistSheaf(2, 0)]
        verdicts = pair_check(pure_diagram(
            DegreeSequence(0, (0, 1, 2))), evs, 2)
        assert len(verdicts) == 2

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_check(BettiTable(), [supernatural((1,), 1, 3)], 2)
        with pytest.raises(ValueError, match="ambient 3 does not match"):
            pair_check(BettiTable(), [TwistSheaf(3, 0)], 2)
        window = WindowEvaluator(1, 0, 0, {})
        assert [v.ok for v in pair_check(BettiTable(), [window], 2)] == [True]


@pytest.mark.parametrize("call, message", [
    (lambda: es_functional(T({(0, 0): 1}), (1, -3), F(2), 2, 3, 0),
     r"tau must be in 1\.\.2, got 3"),
    (lambda: pair_check(BettiTable(), [supernatural((1,), 1, 3)], 2),
     "evaluator ambient 3 does not match n = 2"),
    (lambda: pair_check(BettiTable(), [TwistSheaf(3, 0)], 2),
     "evaluator ambient 3 does not match n = 2"),
], ids=["tau", "supernatural_ambient", "twist_ambient"])
def test_bad_arguments_raise_the_package_error(call, message):
    with pytest.raises(BsfanError, match=message):
        call()


def test_paired_chi_nonnegativity_sample():
    # full-size sweep lives in the acceptance suite
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


def test_pairing_positivity_needs_fewer_roots_than_the_codimension():
    # A nonnegative combination of a chain of codimension-k pure diagrams
    # paired with a supernatural class of s roots lies in the generically
    # exact cone when s < k: pair_check passes.  With s >= k the hypothesis
    # fails, and so, on nearly every draw, does pair_check: the negative
    # control that shows the check can fail here at all.
    r = rng(77)
    below, at_or_above = [], []
    for _ in range(1000):
        n = r.randint(1, 4)
        k = r.randint(1, n + 1)
        chain = random_chain(r, k, r.randint(1, 4))
        table = chain_combination(
            chain, [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain])
        s = r.randint(0, n)
        ev = supernatural(random_roots(r, s), r.randint(1, 3), n)
        verdict, = pair_check(table, [ev], n)
        (below if s < k else at_or_above).append(verdict.ok)
    assert len(below) == 656 and all(below)
    assert len(at_or_above) == 344 and at_or_above.count(False) == 341


def compatible_diagrams(r, c):
    """1-3 degree sequences compatible with c, drawn independently, so
    rarely a chain; fewer, or none, when 30 draws find fewer."""
    want, found = r.randint(1, 3), []
    for _ in range(30):
        d = random_degree_sequence(r, codim=r.randint(0, c.n + 1))
        if reference_compatible(d, c):
            found.append(d)
            if len(found) == want:
                break
    return found


@pytest.mark.parametrize("kind, seed, counts", [
    ("constant", 78, {"none": 2, "below": 679, "above": 319,
                      "above_fails": 317}),
    ("windowed", 79, {"none": 34, "below": 331, "above": 635,
                      "above_fails": 485}),
], ids=["constant", "windowed"])
def test_pairing_positivity_for_unchained_sums(kind, seed, counts):
    # Every nonnegative combination of pure diagrams compatible with c lies
    # in c's cone, chained or not, so decompose_s accepts it.  Each piece
    # starts at or right of the table's leftmost column p0, so its
    # codimension is at least c(p0): paired with a supernatural class of
    # s < c(p0) roots, the table passes pair_check.  With s >= c(p0) the
    # hypothesis fails, and so, on most draws, does pair_check.
    r = rng(seed)
    seen = dict.fromkeys(counts, 0)
    for _ in range(1000):
        n = r.randint(1, 3)
        c = (CodimensionSequence.constant(r.randint(1, n + 1), n)
             if kind == "constant" else random_constraint(r, n))
        pieces = compatible_diagrams(r, c)
        if not pieces:
            seen["none"] += 1
            continue
        table = linear_combine([(F(r.randint(1, 9), r.randint(1, 9)),
                                 pure_diagram(d)) for d in pieces])
        decompose_s(table, c, n)  # raises NotInCone if it rejects
        s = r.randint(0, n)
        ev = supernatural(random_roots(r, s), r.randint(1, 3), n)
        verdict, = pair_check(table, [ev], n)
        if s < c.rank(table.columns()[0]):
            assert verdict.ok, (c, pieces, ev)
            seen["below"] += 1
        else:
            seen["above"] += 1
            seen["above_fails"] += not verdict.ok
    assert seen == counts
