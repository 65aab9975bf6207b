"""Shared test data and independent oracles.

The plain sums are the bench's (bench/oracles.py imports nothing from
bsfan): reference_membership_a, reference_pure_diagram,
compare_degree_sequences and reference_gamma's supernatural values read
them on plain(table), a dict {(i, grade): Fraction}, and on a
CodimensionSequence's _asdict().  The twist and product references stay
here: they take a supernatural class's Hilbert polynomial, not Bott's
binomials as the library and the bench's kunneth do; and the greedy,
pairing and reader references have no bench counterpart of their shape.

The golden tables here are small worked examples: a length-3 complex over
two variables, a tensor product of two monomial resolutions, a monomial
quotient resolution, a two-strand table whose homology cannot have finite
length, a four-term monad for an ideal sheaf, and the truncation of an
infinite resolution over a union of two planes.

reference_decompose_s and reference_decompose_a are the plain greedy
decompositions that rebuild and rescan the whole table after every step;
the library's incremental versions must agree with them exactly.
_reference_trim tries every trim of a strand, longest last, against
reference_compatible, which checks every position of the run; the
library's trim search walks integer ranks and must pick the same trim.
reference_infinite_prefix decomposes the dualized truncation at e and at
e - 1 and keeps the prefix on which the two runs agree; the library's
infinite_prefix, which runs once at e, must give the same pieces, and a
stuck run's certificate in the input's orientation.
reference_membership_a calls the bench's chi afresh at every cell of the
chi window; the library's one-sweep membership_a must give the same
verdict.
reference_kunneth_gamma walks every split of q over the factors of a
product space; the library's closed form must give the same value.
reference_pair asks reference_gamma, the closed form of each evaluator
kind, at every q = 0..dimension of every entry, after _reference_missing
has walked the windows of the evaluator for the twists they lack; the
library's pair, which reads one evaluator column per distinct grade and
collects the twists whose column raised, must give the same table or
name the same twists.
pure_pair_support says where a pure diagram paired with a supernatural
class is nonzero, from the degrees and the roots alone; the library's
pair must be nonzero exactly there.
reference_table_from_obj is the three-pass table reader: the shape check
of _reference_read with one call per entry, then _reference_read_entries
(duplicates and rationals), then the rank and sign checks on the nonzero
entries; the library's table_from_obj, which reads shapes by _read and
keys and rationals by _read_entries, the reader of windows too, must
return the same table or raise the same error, except that it also checks
the rank m and the grades of zero entries.

total rebuilds the table a Decomposition stands for, apiece_table is
the table of a one-variable block, and apiece_degree_sequence reads a
block as a degree sequence; positions and trimmed read a degree
sequence's run, and gamma(ev, q, j) reads one value off an evaluator's
column;
compare_degree_sequences is the termwise partial order on degree
sequences that the greedy chains must follow, named by Comparison;
FormalEvaluator is a signed combination of evaluators for the bilinearity
and range tests, its column the sum of its terms' columns;
box is the box product of two tables, the Künneth oracle of multi_pair;
multi_chi_box is the heuristic column range and grade box of a multigraded
chi scan; parse_table and serialize_table read and write a table as the
command line does, and is_failure_certificate says whether its stdout is
the one line of a failure certificate; long_chain_table and bump build
the seeded long chains, in the cone and bumped out of it, of the greedy
and byte tests;
random_constraint draws a nonconstant codimension sequence with empty
and inf among its values;
one_sided_chain builds the chains a monad run or a dualized truncation
decomposes into.
"""

import enum
import itertools
import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

from bsfan import (EMPTY, INF, APiece, AVerdict, BettiTable,
                   CodimensionSequence, Decomposition, DegreeSequence,
                   EvaluatorRangeError, MultiBettiTable, NotInCone,
                   ParseError, Piece, ProductSpace, SupernaturalSheaf,
                   TwistSheaf, ValidationError, Violation, WindowEvaluator,
                   decompose_s, dual, linear_combine, pure_diagram,
                   table_from_obj, table_to_obj)
from bsfan.cli import _load_obj
from bsfan.multigraded import _Capped
from bsfan.tables import parse_rational

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "bench")]

import oracles  # noqa: E402


def T(entries):
    return BettiTable(entries)


def plain(table):
    """A table as the bench oracles read it: {(i, grade): Fraction}."""
    return dict(table.items())


def F(*args):
    return Fraction(*args)


INTRO_TABLE = T({(0, 0): 1, (1, 1): 2, (2, 3): 2, (3, 4): 1})

TENSOR_TABLE = T({(0, 0): 1, (1, 2): 5, (2, 3): 4, (3, 4): 1,
                  (2, 4): 4, (3, 5): 4, (4, 6): 1})

MONOMIAL_RES_TABLE = T({(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1})

TWO_STRAND_TABLE = T({(0, 0): 1, (1, 3): 4, (1, 4): 4,
                      (2, 4): 4, (2, 5): 4, (3, 8): 1})

MONAD_TABLE = T({(-2, 1): 2, (-1, 2): 11, (0, 3): 20, (1, 4): 10})

TRUNCATION_TABLE = T({(0, 0): 1, (1, 2): 6, (2, 3): 16, (3, 4): 38, (4, 5): 92})


def rng(seed):
    return random.Random(seed)


def koszul_table(n):
    """Betti table of the full exterior-power complex on n + 1 variables."""
    return BettiTable({(i, i): comb(n + 1, i) for i in range(n + 2)})


def random_fraction(r, lo=-9, hi=9, max_den=9, nonneg=False):
    return Fraction(r.randint(0 if nonneg else lo, hi), r.randint(1, max_den))


def random_table(r, max_entries=8, nonneg=True, cols=(-3, 4), degs=(-6, 7)):
    entries = {}
    for _ in range(r.randint(0, max_entries)):
        value = random_fraction(r, nonneg=nonneg)
        if value:
            entries[(r.randint(*cols), r.randint(*degs))] = value
    return BettiTable(entries)


def random_degree_sequence(r, codim=None, max_codim=3, starts=(-3, 3),
                           deg_lo=-6, deg_hi=8):
    ell = codim if codim is not None else r.randint(0, max_codim)
    degrees = sorted(r.sample(range(deg_lo, deg_hi + 1), ell + 1))
    return DegreeSequence(r.randint(*starts), tuple(degrees))


def random_roots(r, s, lo=-8, hi=8):
    return tuple(sorted(r.sample(range(lo, hi + 1), s), reverse=True))


def random_constraint(r, n=0):
    """Codimension sequence over n, nondecreasing over empty < 0 < ... <
    n+1 < inf, with different fills on the two sides and a window of up to
    four positions starting at -2..1."""
    while True:
        run = sorted(r.choices(range(-1, n + 3), k=r.randint(2, 6)))
        if run[0] != run[-1]:
            break
    values = [EMPTY if v < 0 else INF if v > n + 1 else v for v in run]
    return CodimensionSequence(n, values[0], r.randint(-2, 1),
                               tuple(values[1:-1]), values[-1])


def random_chain(r, k, length, starts=(-2, 2), deg_lo=-5, deg_hi=6):
    """Strictly increasing chain of codimension-k degree sequences.

    Two upward moves preserve codimension: raising a single entry by one
    (where strict increase allows), and shifting the window left (drop the
    top entry, prepend a strictly smaller bottom one).
    """
    chain = [random_degree_sequence(r, codim=k, starts=starts,
                                    deg_lo=deg_lo, deg_hi=deg_hi)]
    while len(chain) < length:
        d = chain[-1]
        degrees = list(d.degrees)
        moves = [("raise", idx) for idx in range(len(degrees))
                 if idx + 1 == len(degrees) or degrees[idx] + 1 < degrees[idx + 1]]
        moves.append(("shift", None))
        kind, idx = r.choice(moves)
        if kind == "raise":
            degrees[idx] += 1
            chain.append(DegreeSequence(d.start, tuple(degrees)))
        else:
            low = degrees[0] - r.randint(1, 3)
            chain.append(DegreeSequence(d.start - 1, (low,) + tuple(degrees[:-1])))
    return chain


def one_sided_chain(r, n, boundary, end, length):
    """Strictly increasing chain of degree sequences compatible with
    CodimensionSequence(n, 0, boundary + 1, (), n + 1), the constraint of a
    monad run (boundary 0) and of a dualized truncation at e (boundary -e).

    The first is a full-codimension run ending at column end.  Raising an
    entry keeps the run; shifting the window left keeps the codimension
    while the start stays above the boundary; at the boundary, dropping the
    top entry lowers the codimension, which is allowed there.
    """
    chain = [DegreeSequence(end - n - 1,
                            tuple(sorted(r.sample(range(-8, 7), n + 2))))]
    while len(chain) < length:
        d = chain[-1]
        degrees = list(d.degrees)
        moves = [idx for idx in range(len(degrees))
                 if idx + 1 == len(degrees) or degrees[idx] + 1 < degrees[idx + 1]]
        idx = r.choice(moves + [None])
        if idx is not None:
            degrees[idx] += 1
            chain.append(DegreeSequence(d.start, tuple(degrees)))
        elif d.start > boundary:
            low = degrees[0] - r.randint(1, 3)
            chain.append(DegreeSequence(d.start - 1, (low,) + tuple(degrees[:-1])))
        elif len(degrees) > 1:
            chain.append(DegreeSequence(d.start, tuple(degrees[:-1])))
    return chain


def chain_combination(chain, coeffs):
    return linear_combine(
        [(c, pure_diagram(d)) for c, d in zip(coeffs, chain)])


def total(dec):
    """The table a Decomposition stands for: sum of coeff * pure_diagram(d)
    over its pieces, plus its remainder."""
    return linear_combine([(c, pure_diagram(d)) for c, d in dec.pieces]
                          + [(1, dec.remainder)])


def apiece_table(p):
    """The table of a one-variable block: 1 at the generator, and 1 at the
    socle relation one column up for a torsion block."""
    if p.kind == "free":
        return BettiTable({(p.position, p.gen_degree): 1})
    return BettiTable({(p.position, p.gen_degree): 1,
                       (p.position + 1, p.socle_degree): 1})


def apiece_degree_sequence(p):
    """The one-variable block p as a degree sequence: its generator degree,
    then its socle degree for a torsion block."""
    if p.kind == "free":
        return DegreeSequence(p.position, (p.gen_degree,))
    return DegreeSequence(p.position, (p.gen_degree, p.socle_degree))


def long_chain_table(r, k, length=None):
    """(chain, coeffs, table) for a seeded codimension-k chain of length
    pieces (120-260 by default) with coefficients p/q, 1 <= p, q <= 9."""
    if length is None:
        length = r.randint(120, 260)
    chain = random_chain(r, k, length)
    coeffs = [F(r.randint(1, 9), r.randint(1, 9)) for _ in chain]
    return chain, coeffs, chain_combination(chain, coeffs)


def bump(r, chain, table):
    """Raise an entry of the middle piece's diagram.  Pure diagrams of
    positive codimension have alternating entry sum 0, so the result is out
    of every cone of positive-codimension pieces."""
    keys = pure_diagram(chain[len(chain) // 2]).support()
    key = r.choice(keys)
    return linear_combine([(1, table),
                           (1, T({key: F(r.randint(1, 5), r.randint(1, 5))}))])


def solve_chain_coefficients(table, chain):
    """Exact linear-algebra oracle for the decomposition coefficients.

    Solves sum_i x_i * pure_diagram(chain[i]) == table by Gaussian
    elimination over the rationals, working right to left through the
    piece columns; raises if the system is underdetermined or inconsistent.
    Deliberately shares nothing with the greedy subtraction path.
    """
    diagrams = [pure_diagram(d) for d in chain]
    keys = set(table.support())
    for diagram in diagrams:
        keys.update(diagram.support())
    keys = sorted(keys)
    m = len(chain)
    rows = [[diagram[k] for diagram in diagrams] + [table[k]] for k in keys]
    pivots = []
    row_idx = 0
    for col in reversed(range(m)):
        pivot = next((r for r in range(row_idx, len(rows)) if rows[r][col]), None)
        if pivot is None:
            raise ValueError(f"no pivot for piece {col}: underdetermined")
        rows[row_idx], rows[pivot] = rows[pivot], rows[row_idx]
        inv = 1 / rows[row_idx][col]
        rows[row_idx] = [v * inv for v in rows[row_idx]]
        for r in range(len(rows)):
            if r != row_idx and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b
                           for a, b in zip(rows[r], rows[row_idx])]
        pivots.append((row_idx, col))
        row_idx += 1
    for r in range(row_idx, len(rows)):
        if rows[r][m] != 0:
            raise ValueError("inconsistent system")
    solution = [None] * m
    for row, col in pivots:
        solution[col] = rows[row][m]
    return solution


def _column_degrees(table, i):
    return sorted(j for (ii, j) in table.support() if ii == i)


def _reference_top_strand(table):
    m = table.columns()[-1]
    degrees = [_column_degrees(table, m)[0]]
    i = m - 1
    while True:
        here = _column_degrees(table, i)
        if not here or here[0] >= degrees[0]:
            break
        degrees.insert(0, here[0])
        i -= 1
    return DegreeSequence(i + 1, tuple(degrees))


def positions(d):
    """The homological positions of a degree sequence's run."""
    return range(d.start, d.end + 1)


def trimmed(d, k):
    """The subrun of a degree sequence from position k, within the run."""
    return DegreeSequence(k, d.degrees[k - d.start:])


def reference_compatible(d, c):
    """The compatibility rule read position by position: codim <= n + 1,
    c_start <= codim <= c_{start+1}, and no empty value anywhere in the
    run."""
    ell = d.codim
    if ell > c.n + 1:
        return False
    if not c.rank(d.start) <= ell <= c.rank(d.start + 1):
        return False
    return all(c.value(i) != EMPTY for i in positions(d))


def _reference_trim(strand, c):
    for k in range(strand.end, strand.start - 1, -1):
        candidate = trimmed(strand, k)
        if reference_compatible(candidate, c):
            return candidate
    return None


def reference_pure_diagram(d):
    """Pure diagram by the bench's gap-product vector."""
    return BettiTable(oracles.pure_vector(d.start, d.degrees))


def reference_decompose_s(table, c, n):
    """Greedy chain decomposition that rebuilds the table after each step."""
    if c.n != n:
        raise ValidationError(
            f"codimension sequence is declared for n = {c.n}, not n = {n}")
    if not table.is_nonnegative():
        raise ValidationError(
            f"decomposition needs a nonnegative table; negative at "
            f"{table.negative_entries()[0]}")
    pieces = []
    current = table
    for _ in range(len(table) + 1):
        if not current:
            return Decomposition(pieces, BettiTable())
        strand = _reference_top_strand(current)
        d = _reference_trim(strand, c)
        if d is None:
            raise NotInCone(
                f"strand {strand} admits no compatible trim", pieces,
                blocking_strand=strand)
        diagram = pure_diagram(d)
        coeff = min(current[key] / diagram[key] for key in diagram.support())
        if coeff <= 0:
            raise NotInCone(
                f"nothing subtractable along {d}", pieces, blocking_strand=d)
        pieces.append((coeff, d))
        current = linear_combine([(1, current), (-coeff, diagram)])
        if not current.is_nonnegative():
            entry = current.negative_entries()[0]
            raise NotInCone(
                f"subtraction along {d} drove ({entry[0]}, {entry[1]}) "
                "negative", pieces, blocking_strand=d, blocking_entry=entry)
    raise AssertionError("decomposition exceeded its step budget")


def _reference_prefix_run(table, e, n):
    """The leading full-codimension pieces of the dualized truncation at e,
    decomposed free at positions <= -e and at full codimension above.  A
    stuck run's strand and partial pieces are dualized back."""
    c = CodimensionSequence(n, 0, -e + 1, (), n + 1)
    try:
        pieces = decompose_s(dual(table), c, n).pieces
    except NotInCone as exc:
        strand = exc.blocking_strand.dual()
        raise NotInCone(
            f"strand {strand} admits no compatible trim",
            [Piece(coeff, d.dual()) for coeff, d in exc.partial_pieces],
            blocking_strand=strand) from None
    return list(itertools.takewhile(lambda p: p[1].codim == n + 1, pieces))


def reference_infinite_prefix(table, e, n):
    """Stable prefix confirmed against the truncation at e - 1: the run at
    e is cut where the shorter run stops agreeing with it piecewise."""
    kept = _reference_prefix_run(table, e, n)
    shorter = _reference_prefix_run(
        BettiTable({(i, j): v for (i, j), v in table.items() if i <= e - 1}),
        e - 1, n)
    agree = 0
    for one, other in zip(kept, shorter):
        if one != other:
            break
        agree += 1
    if agree < len(shorter):
        kept = kept[:agree]
    stable = [Piece(coeff, d.dual()) for coeff, d in kept]
    remainder = linear_combine(
        [(1, table)] + [(-c, pure_diagram(d)) for c, d in stable])
    return Decomposition(stable, remainder)


def reference_decompose_a(table, c):
    """Greedy block split that rebuilds and rechecks the table each step.
    A torsion block at column k needs c(k) in {0, 1}: the compatibility
    rule of a codimension-1 piece at n = 0."""
    if c.n != 0:
        raise ValidationError(
            f"membership over the one-variable ring needs n = 0, got n = {c.n}")
    pieces = []
    current = table
    for _ in range(len(table) + 1):
        if not current:
            return pieces
        if not current.is_nonnegative():
            entry = current.negative_entries()[0]
            raise NotInCone(f"negative entry at {entry}", pieces,
                            blocking_entry=entry)
        s = current.columns()[-1]
        t = _column_degrees(current, s)[0]
        if c.value(s) == EMPTY:
            raise NotInCone(f"entry at ({s}, {t}) in a forbidden column",
                            pieces, blocking_entry=(s, t))
        if c.value(s) == 0:
            piece = APiece("free", s, t)
            coeff = current[(s, t)]
        else:
            left = _column_degrees(current, s - 1)
            if not left or left[0] >= t:
                raise NotInCone(
                    f"no generator below degree {t} to pair with ({s}, {t})",
                    pieces, blocking_entry=(s, t))
            if c.value(s - 1) not in (0, 1):
                raise NotInCone(
                    f"no torsion block ends at ({s}, {t}): column {s - 1} "
                    f"has codimension {c.value(s - 1)}",
                    pieces, blocking_entry=(s, t))
            r = left[0]
            piece = APiece("torsion", s - 1, r, t)
            coeff = min(current[(s - 1, r)], current[(s, t)])
        pieces.append((coeff, piece))
        current = linear_combine([(1, current), (-coeff, apiece_table(piece))])
    raise AssertionError("decomposition exceeded its step budget")


def chi_window(table):
    """Ranges (columns, degrees) that capture every distinct chi value:
    columns above the support only ever see empty partial sums, columns
    more than two below only the alternating full column sums (two
    parities), and the degree cutoffs saturate one step outside the degree
    support, so values outside repeat values inside."""
    if not table:
        return range(0), range(0)
    cols = [i for i, _ in table.support()]
    degs = [j for _, j in table.support()]
    return (range(min(cols) - 3, max(cols) + 1),
            range(min(degs) - 2, max(degs) + 2))


def reference_membership_a(table, c):
    """Half-space test by the bench's plain sums: chi afresh at every window
    cell, and the constraint read as the bench's codim dict.  An entry in
    column i where c(i - 1) = inf is a support_inf violation: no block can
    cover it."""
    if c.n != 0:
        raise ValidationError(
            f"membership over the one-variable ring needs n = 0, got n = {c.n}")
    entries, codim = plain(table), c._asdict()
    violations = []
    for (i, j), value in entries.items():
        if oracles.codim_value(codim, i) == "empty":
            violations.append(Violation("support_empty", i, j, value))
        elif oracles.codim_value(codim, i - 1) == "inf":
            violations.append(Violation("support_inf", i, j, value))
    violations += [Violation("negative_entry", i, j, value)
                   for (i, j), value in entries.items() if value < 0]
    cols, degs = chi_window(table)
    for i in cols:
        if oracles.rank(oracles.codim_value(codim, i)) < 1:
            continue
        for j in degs:
            value = oracles.chi(entries, i, j)
            if value < 0:
                violations.append(Violation("chi_negative", i, j, value))
    if 0 not in (codim["left"], codim["right"], *codim["window"]):
        total = oracles.euler(entries)
        if total != 0:
            violations.append(Violation("euler_nonzero", value=total))
    return AVerdict(not violations, violations)


def reference_twist(n, a):
    """O(a) on P^n as the supernatural class of roots -a-1, ..., -a-n and
    unit scale: its cohomology by the Hilbert polynomial, not by Bott's
    binomials, so the twist and product evaluators have an independent
    oracle."""
    return SupernaturalSheaf(tuple(-a - 1 - k for k in range(n)),
                             Fraction(1), n)


def reference_kunneth_gamma(space, q, alpha):
    """Kunneth sum over every split of q into factor indices, each factor
    read off the roots-based class of the twisted structure sheaf."""
    factors = [reference_twist(n, 0) for n in space.factor_dims]
    total = Fraction(0)
    for twist, mult in space.summands:
        for split in itertools.product(
                *(range(n + 1) for n in space.factor_dims)):
            if sum(split) != q:
                continue
            prod = Fraction(mult)
            for qt, at, ct, ev in zip(split, alpha, twist, factors):
                prod *= gamma(ev, qt, at + ct)
            total += prod
    return total


def gamma(ev, q, j):
    """gamma(q, j) of an evaluator, read off its column j."""
    return dict(ev.column(j)).get(q, Fraction(0))


def reference_gamma(ev, q, j):
    """gamma(q, j) of an evaluator from its closed form: for a supernatural
    class, rank_scale / s! * |prod (j - f_k)| at the one q with
    f_q > j > f_{q+1} and zero at a root; the roots-based class for a
    twist; the split enumeration above for a product space; the stored
    value of a window; the definitions of the signed sum and the cap."""
    if isinstance(ev, SupernaturalSheaf):
        return oracles.supernatural(ev.roots, ev.rank_scale, q, j)
    if isinstance(ev, TwistSheaf):
        return reference_gamma(reference_twist(ev.n, ev.a), q, j)
    if isinstance(ev, WindowEvaluator):
        return dict(ev.columns.get(j, ())).get(q, Fraction(0))
    if isinstance(ev, FormalEvaluator):
        return sum((c * reference_gamma(term, q, j) for c, term in ev.terms),
                   Fraction(0))
    if isinstance(ev, ProductSpace):
        return reference_kunneth_gamma(ev, q, j)
    if isinstance(ev, _Capped):
        if q > ev.dimension:
            return Fraction(0)
        return reference_gamma(ev.space, q, j)
    raise TypeError(f"no closed form for {ev!r}")


def _reference_missing(ev, js):
    """The twists of js outside the declared range of a window, or of a
    window inside a signed sum or under a cap; the other kinds answer every
    twist."""
    if isinstance(ev, WindowEvaluator):
        return {j for j in js if j < ev.jmin or j > ev.jmax}
    if isinstance(ev, FormalEvaluator):
        return set().union(*(_reference_missing(term, js)
                             for _, term in ev.terms))
    if isinstance(ev, _Capped):
        return _reference_missing(ev.space, js)
    return set()


def reference_pair(table, ev):
    """The pairing by a scan of every q = 0..dimension at every entry,
    after a range check of every twist the table needs."""
    qs = range(ev.dimension + 1)
    missing = _reference_missing(
        ev, {table.negate(g) for _, g in table.support()})
    if missing:
        raise EvaluatorRangeError(missing, ev.dimension)
    acc = {}
    for (p, grade), value in table.items():
        for q in qs:
            gamma = reference_gamma(ev, q, table.negate(grade))
            if gamma:
                key = (p - q, grade)
                acc[key] = acc.get(key, Fraction(0)) + value * gamma
    return table.like({key: v for key, v in acc.items() if v})


def pure_pair_support(d, roots, i, j):
    """Whether the pure diagram of d pairs with the supernatural class of
    the given roots to a nonzero entry at (i, j).

    True exactly when some run position l0 has degree j and the twist -j
    lands strictly between roots number m = l0 - i and m + 1, where no
    root bounds -j from above when m = 0 or from below when m = s.
    """
    if j not in d.degrees:
        return False
    m = d.start + d.degrees.index(j) - i
    if not 0 <= m <= len(roots):
        return False
    return ((m == 0 or roots[m - 1] > -j)
            and (m == len(roots) or -j > roots[m]))


def _reference_read(value, shape, where):
    """Decoded JSON checked against shape, one call per list item that is
    not an integer."""
    if shape is int:
        if type(value) is int:
            return value
        kind = "a JSON integer"
    elif shape is None:
        return value
    elif type(shape) is list:
        if type(value) is list:
            item = shape[0]
            if item is int:  # no call per integer: one grade per table entry
                for v in value:
                    if type(v) is not int:
                        break
                else:
                    return tuple(value)
            return tuple([_reference_read(v, item, f"{where}[{k}]")
                          for k, v in enumerate(value)])
        kind = "a JSON list"
    elif type(value) is dict:
        read = {}
        for key, field in shape.items():
            if key in value:
                v = value[key]
                if type(field) is tuple:
                    field = field[0]
                read[key] = (v if field is None or field is int and type(v) is int
                             else _reference_read(v, field, f"{where}.{key}"))
            elif type(field) is tuple:
                read[key] = field[1]
            else:
                raise ParseError(f"{where} has no {key!r} field")
        return read
    else:
        kind = "a JSON object"
    raise ParseError(f"{where} must be {kind}, got {value!r}")


def _reference_read_entries(entries, where):
    """{(a, b): Fraction} from read entries {a, b, value}, keys unique."""
    data = {}
    for entry in entries:
        a, b, text = entry.values()
        key = (a, b)
        if key in data:
            raise ParseError(f"{where}: duplicate entry for {key}")
        data[key] = parse_rational(text, f"entry {key}")
    return data


def reference_table_from_obj(obj, cls=BettiTable):
    shape = dict.fromkeys(cls.HEADER, int)
    shape["entries"] = [{"i": int, cls.GRADE: cls.GRADE_SHAPE, "value": None}]
    *head, entries = _reference_read(obj, shape, "table").values()
    table = cls._trusted({}, *head)
    checked = table._entries
    for (i, grade), q in _reference_read_entries(entries, "table").items():
        if q:
            key = (i, table.normalize_grade(grade))
            if q < 0:
                raise ValidationError(f"negative entry {q} at {key}")
            checked[key] = q
    return table


def parse_table(text):
    return table_from_obj(_load_obj(text))


def serialize_table(table):
    return json.dumps(table_to_obj(table), separators=(",", ":"))


def is_failure_certificate(out):
    """Whether out is exactly one JSON line of a failure: an object with
    "status": "fail", or with a "verdicts" list that holds one."""
    if out.count("\n") != 1 or not out.endswith("\n"):
        return False
    try:
        obj = json.loads(out)
    except ValueError:
        return False
    if type(obj) is not dict:
        return False
    return any(type(v) is dict and v.get("status") == "fail"
               for v in [obj, *obj.get("verdicts", ())])


class Comparison(enum.Enum):
    """The bench's compare values as names."""
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCOMPARABLE = None


def compare_degree_sequences(d1, d2):
    """Termwise comparison over all positions, with infinite padding: the
    bench's compare, which reads a DegreeSequence as its (start, degrees)."""
    return Comparison(oracles.compare(d1, d2))


class FormalEvaluator:
    """Finite signed combination of evaluators; values may be negative."""

    def __init__(self, terms):
        self.terms = [(Fraction(c), ev) for c, ev in terms]
        self.dimension = max((ev.dimension for _, ev in self.terms), default=0)

    def column(self, j):
        col = {}
        for c, ev in self.terms:
            for q, value in ev.column(j):
                col[q] = col.get(q, 0) + c * value
        return [(q, value) for q, value in col.items() if value]


def box(f, g):
    """The box product f ⊠ g of two tables graded by Z or Z^m, as a
    MultiBettiTable: the entries at (p1, a1) and (p2, a2) multiply into
    (p1 + p2, a1 + a2), columns added and grades concatenated (an integer
    degree is a grade of rank 1)."""
    def graded(table):
        return [(p, a if type(a) is tuple else (a,), v)
                for (p, a), v in table.items()]

    acc = {}
    for p1, a1, v1 in graded(f):
        for p2, a2, v2 in graded(g):
            key = (p1 + p2, a1 + a2)
            acc[key] = acc.get(key, Fraction(0)) + v1 * v2
    return MultiBettiTable(getattr(f, "m", 1) + getattr(g, "m", 1), acc)


def multi_chi_box(table):
    """Column range and grade box of a heuristic multi_chi scan.

    Grades are scanned over the support box padded by one generator step per
    coordinate; columns from three below the support (both parities of the
    tail sums) up to the top.  For m = 1 this captures every distinct chi
    value.  For m >= 2 it can miss some: a grade whose order key falls
    between two support keys may lie far outside the box.  The table
    {(1, (1, 0)): -1, (2, (0, 1)): -1} under weights (2, 3) has multi_chi
    >= 0 at column 1 on the whole box, but -1 at alpha = (-6, 5).
    """
    if not table:
        return range(0), []
    cols = table.columns()
    coords = list(zip(*(alpha for _, alpha in table.support())))
    box = [range(min(c) - 1, max(c) + 2) for c in coords]
    return (range(cols[0] - 3, cols[-1] + 1),
            [tuple(alpha) for alpha in itertools.product(*box)])
