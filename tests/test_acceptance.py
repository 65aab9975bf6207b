"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact; the timed criteria measure the relevant calls
after a warmup pass.
"""

import json
import time
from contextlib import contextmanager

from bsfan import (BettiTable, CodimensionSequence, DegreeSequence,
                   GradedOrder, MultiBettiTable, ProductSpace,
                   SupernaturalSheaf, TwistSheaf, chi, decompose_s, dual,
                   linear_combine, multi_chi, multi_pair, pair, pure_diagram,
                   shift)
from bsfan.cli import main as cli_main
from helpers import (F, MONAD_TABLE, T, TENSOR_TABLE, TRUNCATION_TABLE,
                     TWO_STRAND_TABLE, chain_combination, chi_window,
                     koszul_table, multi_chi_box, parse_table, random_chain,
                     random_degree_sequence, random_roots, random_table, rng,
                     serialize_table, solve_chain_coefficients, total)

MONOMIAL_RES = T({(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1})


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def best_time(fn, repeats=3):
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_pure_diagrams():
    with criterion(1, "pure diagram integer vectors, < 1 ms each"):
        cases = [
            ((0, 2, 3, 5), {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}),
            ((0, 2, 3), {(0, 0): 1, (1, 2): 3, (2, 3): 2}),
            ((2, 3, 5), {(0, 2): 2, (1, 3): 3, (2, 5): 1}),
        ]
        for degrees, expected in cases:
            d = DegreeSequence(0, degrees)
            assert pure_diagram(d) == T(expected)
            assert best_time(lambda d=d: pure_diagram(d)) < 0.001


def test_criterion_02_pairing_goldens():
    with criterion(2, "pairing goldens, < 10 ms"):
        wide = SupernaturalSheaf((0, -8), F(8), 2)
        assert pair(TWO_STRAND_TABLE, wide) == T(
            {(0, 3): 240, (0, 4): 256, (1, 4): 256, (1, 5): 240})
        structure = TwistSheaf(2, 0)
        assert pair(koszul_table(2), structure) == T({(0, 0): 1, (1, 3): 1})
        assert best_time(lambda: pair(TWO_STRAND_TABLE, wide)) < 0.010
        assert best_time(lambda: pair(koszul_table(2), structure)) < 0.010


def test_criterion_03_weight_matrix():
    with criterion(3, "separating-functional weight matrix, exact"):
        evaluator = SupernaturalSheaf((1, -3), F(2), 2)

        def weight(v, u):
            return chi(pair(T({(v, u): 1}), evaluator), 0, 0)

        assert [weight(1, 0), weight(2, 1), weight(3, 2)] == [3, -4, 3]
        assert [weight(0, -2), weight(1, -1), weight(2, 0),
                weight(3, 1)] == [5, 0, -3, 4]
        assert [weight(0, -3), weight(1, -2), weight(2, -1),
                weight(3, 0)] == [12, -5, 0, 3]
        assert [weight(0, 0), weight(1, 1), weight(2, 2),
                weight(3, 3)] == [0, 0, 0, 0]


def test_criterion_04_greedy_golden_decompositions():
    with criterion(4, "greedy decomposition goldens, < 100 ms each"):
        staircase = CodimensionSequence(2, "empty", 0, (2, 2), "inf")
        dec = decompose_s(TENSOR_TABLE, staircase, 2)
        expected_pieces = [
            T({(1, 2): F(1, 2), (2, 3): F(4, 3), (3, 4): 1, (4, 6): F(1, 6)}),
            T({(1, 2): F(5, 6), (2, 3): F(5, 3), (3, 5): F(5, 3), (4, 6): F(5, 6)}),
            T({(1, 2): F(2, 3), (2, 3): 1, (3, 5): F(1, 3)}),
            T({(1, 2): 1, (2, 4): 3, (3, 5): 2}),
            T({(0, 0): 1, (1, 2): 2, (2, 4): 1}),
        ]
        assert [linear_combine([(c, pure_diagram(d))])
                for c, d in dec.pieces] == expected_pieces
        assert [d for _, d in dec.pieces] == [
            DegreeSequence(1, (2, 3, 4, 6)), DegreeSequence(1, (2, 3, 5, 6)),
            DegreeSequence(1, (2, 3, 5)), DegreeSequence(1, (2, 4, 5)),
            DegreeSequence(0, (0, 2, 4))]

        resolution = CodimensionSequence(2, "empty", 0, (2,), "inf")
        dec_res = decompose_s(MONOMIAL_RES, resolution, 2)
        assert dec_res.pieces == [(F(1, 3), DegreeSequence(0, (0, 2, 3, 4))),
                                  (F(2, 3), DegreeSequence(0, (0, 2, 3)))]

        const2 = CodimensionSequence.constant(2, 2)
        dec_stable = decompose_s(MONOMIAL_RES, const2, 2)
        assert [linear_combine([(c, pure_diagram(d))])
                for c, d in dec_stable.pieces] == [
            T({(1, 2): 1, (2, 3): 2, (3, 4): 1}),
            T({(0, 0): 1, (1, 2): 3, (2, 3): 2})]

        dec_four = decompose_s(TWO_STRAND_TABLE, const2, 2)
        assert [linear_combine([(c, pure_diagram(d))])
                for c, d in dec_four.pieces] == [
            T({(1, 3): F(16, 5), (2, 4): 4, (3, 8): F(4, 5)}),
            T({(1, 3): F(3, 10), (2, 5): F(1, 2), (3, 8): F(1, 5)}),
            T({(0, 0): F(1, 5), (1, 3): F(1, 2), (2, 5): F(3, 10)}),
            T({(0, 0): F(4, 5), (1, 4): 4, (2, 5): F(16, 5)})]

        for table, c in [(TENSOR_TABLE, staircase), (MONOMIAL_RES, resolution),
                         (MONOMIAL_RES, const2), (TWO_STRAND_TABLE, const2)]:
            assert best_time(lambda t=table, cc=c: decompose_s(t, cc, 2)) < 0.100


def test_criterion_05_membership_contrast_exit_codes(capsys):
    with criterion(5, "membership contrast via CLI exit codes 1 / 0"):
        table = serialize_table(TWO_STRAND_TABLE)
        const3 = json.dumps({"n": 2, "left": 3, "window_start": 0,
                             "window": [], "right": 3})
        const2 = json.dumps({"n": 2, "left": 2, "window_start": 0,
                             "window": [], "right": 2})
        code_fail = cli_main(["check", "--table", table,
                              "--codim", const3, "--n", "2"])
        out_fail = capsys.readouterr().out
        code_pass = cli_main(["check", "--table", table,
                              "--codim", const2, "--n", "2"])
        out_pass = capsys.readouterr().out
        assert code_fail == 1 and json.loads(out_fail)["status"] == "fail"
        assert code_pass == 0 and json.loads(out_pass)["status"] == "pass"


def test_criterion_06_monad_split():
    with criterion(6, "monad split golden, refinements, central sum 1"):
        from bsfan import monad_split

        split = monad_split(MONAD_TABLE, 4)
        assert split.table_f1 == T({(0, 3): 11, (1, 4): 10})
        assert dual(split.table_f2) == T({(-2, 1): 2, (-1, 2): 11, (0, 3): 9})
        recon = linear_combine([
            (split.lambda1, split.table_f1),
            (1, dual(linear_combine([(split.lambda2, split.table_f2)])))])
        assert recon == MONAD_TABLE
        front_tables = [linear_combine([(c, pure_diagram(d))])
                        for c, d in split.front_pieces]
        assert front_tables == [T({(0, 3): 10, (1, 4): 10})]
        assert split.e_column == T({(0, 3): 1})
        back_tables = [dual(linear_combine([(c, pure_diagram(d))]))
                       for c, d in split.back_pieces]
        assert back_tables == [
            T({(-2, 1): 2, (-1, 2): 4, (0, 3): 2}),
            T({(-1, 2): 7, (0, 3): 7})]
        assert sum((v for _, v in split.e_column.items()), F(0)) == 1


def test_criterion_07_infinite_prefix():
    with criterion(7, "stable infinite-resolution prefix, confirmed at e-1"):
        from bsfan import infinite_prefix

        dec = infinite_prefix(TRUNCATION_TABLE, 4, 1)
        assert [linear_combine([(c, pure_diagram(d))])
                for c, d in dec.pieces] == [
            T({(0, 0): 1, (1, 2): 3, (2, 3): 2}),
            T({(1, 2): 3, (2, 3): 6, (3, 4): 3}),
            T({(2, 3): 8, (3, 4): 16, (4, 5): 8})]
        shorter = infinite_prefix(
            T({(i, j): v for (i, j), v in TRUNCATION_TABLE.items() if i <= 3}),
            3, 1)
        assert shorter.pieces == dec.pieces[:len(shorter.pieces)]
        assert total(dec) == TRUNCATION_TABLE


def test_criterion_08_chi_positivity_suite():
    with criterion(8, "chi positivity: 1000 torsion combos + 200 pairings, < 30 s"):
        start = time.perf_counter()
        r = rng(801)
        for _ in range(1000):
            terms = []
            for _ in range(r.randint(1, 5)):
                position, gen = r.randint(-3, 3), r.randint(-4, 4)
                socle = gen + r.randint(1, 5)
                terms.append((r.randint(0, 4),
                              T({(position, gen): 1, (position + 1, socle): 1})))
            table = linear_combine(terms)
            cols, degs = chi_window(table)
            for i in cols:
                for j in degs:
                    assert chi(table, i, j) >= 0
        for _ in range(200):
            n = r.randint(1, 4)
            k = r.randint(1, n + 1)
            d = random_degree_sequence(r, codim=k)
            sheaf = SupernaturalSheaf(random_roots(r, k - 1),
                                      F(r.randint(1, 4)), n)
            paired = pair(pure_diagram(d), sheaf)
            cols, degs = chi_window(paired)
            for i in cols:
                for j in degs:
                    assert chi(paired, i, j) >= 0
        assert time.perf_counter() - start < 30


def test_criterion_09_oracle_equivalence():
    with criterion(9, "greedy equals linear-solve oracle on 200 random tables"):
        r = rng(901)
        for _ in range(200):
            n = r.randint(1, 3)
            k = r.randint(1, n + 1)
            chain = random_chain(r, k, r.randint(1, 4))
            coeffs = [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain]
            table = chain_combination(chain, coeffs)
            dec = decompose_s(table, CodimensionSequence.constant(k, n), n)
            assert [d for _, d in dec.pieces] == chain
            greedy = [c for c, _ in dec.pieces]
            assert greedy == coeffs
            assert solve_chain_coefficients(table, [d for _, d in dec.pieces]) == greedy


def test_criterion_10_multigraded():
    with criterion(10, "bigraded Koszul pairing golden + chi positivity, < 5 s"):
        start = time.perf_counter()
        koszul = MultiBettiTable(2, {
            (0, (0, 0)): 1,
            (1, (1, 0)): 2, (1, (0, 1)): 2,
            (2, (2, 0)): 1, (2, (1, 1)): 4, (2, (0, 2)): 1,
            (3, (2, 1)): 2, (3, (1, 2)): 2,
            (4, (2, 2)): 1})
        order = GradedOrder((1, 1))
        structure = ProductSpace((1, 1), (((0, 0), 1),))
        paired = multi_pair(koszul, structure, 2)
        assert paired == MultiBettiTable(2, {
            (0, (0, 0)): 1, (1, (2, 0)): 1, (1, (0, 2)): 1, (2, (2, 2)): 1})

        r = rng(1001)
        twists = [(0, 0)] + [(r.randint(-4, 4), r.randint(-4, 4))
                             for _ in range(20)]
        for twist in twists:
            space = ProductSpace((1, 1), ((twist, 1),))
            result = multi_pair(koszul, space, 2)
            cols, box = multi_chi_box(result)
            for i in cols:
                for alpha in box:
                    assert multi_chi(result, i, alpha, order) >= 0, (twist, i, alpha)
        assert time.perf_counter() - start < 5


def test_criterion_11_round_trips_and_algebra():
    with criterion(11, "round-trip, involution, additivity, bilinearity x500"):
        r = rng(1101)
        for _ in range(500):
            table = random_table(r)
            assert parse_table(serialize_table(table)) == table
        for _ in range(500):
            table = random_table(r, nonneg=False)
            assert dual(dual(table)) == table
        for _ in range(500):
            table = random_table(r, nonneg=False)
            a, b = r.randint(-4, 4), r.randint(-4, 4)
            assert shift(shift(table, a), b) == shift(table, a + b)
        for _ in range(500):
            n = r.randint(1, 3)
            evaluator = SupernaturalSheaf(
                random_roots(r, r.randint(0, n)), F(r.randint(1, 5)), n)
            t1, t2 = random_table(r, max_entries=5), random_table(r, max_entries=5)
            a = F(r.randint(0, 5), r.randint(1, 4))
            b = F(r.randint(0, 5), r.randint(1, 4))
            assert pair(linear_combine([(a, t1), (b, t2)]), evaluator) == \
                linear_combine([(a, pair(t1, evaluator)),
                                (b, pair(t2, evaluator))])
