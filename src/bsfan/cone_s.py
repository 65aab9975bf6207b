"""Greedy chain decomposition of Betti tables and its applications.

The decomposition walks the table from the upper right corner to the lower
left.  Each step reads off the top strand (the minimal degree of the
rightmost column, extended leftward while the next column still has a
strictly smaller degree), trims the strand from the left down to the
minimal subrun the codimension constraint allows, and subtracts the largest
multiple of the corresponding pure diagram that keeps every entry
nonnegative.  The diagram's keys are positive entries and the multiple is
the smallest ratio over them, so each step clears an entry, drives none
negative, and touches only those at most n + 2 keys of one WorkingTable:
an N-entry table costs O(N * n) table updates.  The trim start depends on
the constraint and the rightmost column alone, so it is searched again (at
most n + 3 rank lookups, none left of the input's first column, where no
strand starts) only when that column changes; the strand walk reads just
the trim's columns; and one call, WorkingTable.subtract_largest, finds the
multiple and subtracts it on Python integers.  A step builds one
DegreeSequence, the piece, its pure diagram (one table of at most n + 2
integral Fractions from O(n^2) gap products) and one Fraction, the
multiple; no candidate trim.  When a strand admits no compatible trim, the
input is outside the cone and the stuck strand, walked in full, is the
certificate.

Monad splitting runs the decomposition once on the table (free constraint
in nonpositive positions, full codimension above) and once on its dual, and
reassembles the central column; prefixes of infinite resolutions come from
decomposing a dualized truncation once and keeping its full-codimension
leading pieces.  A run on a dual that gets stuck is reported dualized
back, so every certificate names entries of the input.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import takewhile

from .diagrams import pure_diagram
from .errors import MonadViolation, NotInCone, ValidationError
from .sequences import CodimensionSequence, DegreeSequence, Piece, _trim_start
from .tables import BettiTable, WorkingTable, _int, dual, linear_combine


class Decomposition(namedtuple("Decomposition", "pieces remainder")):
    """Ordered Pieces (coeff, degree sequence) plus what is left over.

    The pieces always satisfy: sum of coeff * pure_diagram(d) + remainder
    equals the decomposed table exactly.  decompose_s leaves an empty
    remainder and a chain increasing along the list; infinite_prefix keeps
    only a stable prefix, so its remainder holds the unresolved tail and its
    chain decreases (the infinite chain has a maximal element, no minimal
    one).
    """

    __slots__ = ()

    def __new__(cls, pieces, remainder=None):
        return super().__new__(
            cls, pieces, BettiTable() if remainder is None else remainder)


def _stuck(strand, pieces):
    """The certificate of a run stuck at strand after pieces."""
    return NotInCone(f"strand {strand} admits no compatible trim", pieces,
                     blocking_strand=strand)


def decompose_s(table, c, n):
    """Greedy chain decomposition of a nonnegative table under constraint c.

    Returns a Decomposition with empty remainder whose degree sequences
    strictly increase along the list; raises NotInCone (with the partial
    chain and the stuck strand) when the table is outside the cone.
    """
    n = _int(n)
    if c.n != n:
        raise ValidationError(
            f"codimension sequence is declared for n = {c.n}, not n = {n}")
    if not table.is_nonnegative():
        raise ValidationError(
            f"decomposition needs a nonnegative table; negative at "
            f"{table.negative_entries()[0]}")
    pieces = []
    work = WorkingTable(table)
    end, floor = None, min(table.columns(), default=0)
    for _ in range(len(table) + 1):
        last = work.last_column()
        if last is None:
            return Decomposition(pieces)
        # k depends on c and the rightmost column alone; the strand, strictly
        # increasing, is walked down to k or, if it stops short, in full
        if last != end:
            end, k = last, _trim_start(c, last, floor)
        piece = DegreeSequence._make(work.top_strand(k))
        if piece.start != k:
            raise _stuck(piece, pieces)
        pieces.append(Piece(work.subtract_largest(pure_diagram(piece)), piece))
    raise AssertionError("decomposition exceeded its step budget")


def _decompose_dual(table, c, n):
    """decompose_s on dual(table), its failure certificate turned back to
    the input's orientation, so that it names the input's entries."""
    try:
        return decompose_s(dual(table), c, n)
    except NotInCone as exc:
        raise _stuck(exc.blocking_strand.dual(),
                     [Piece(coeff, d.dual())
                      for coeff, d in exc.partial_pieces]) from None


class MonadSplit(namedtuple("MonadSplit", "lambda1 table_f1 lambda2 table_f2 "
                            "e_column front_pieces back_pieces")):
    """Split of a free monad table into a resolution part, the dual of a
    corank-zero resolution part, and the central free column.

    lambda1 * table_f1 + dual(lambda2 * table_f2) reconstructs the input;
    e_column is supported in column 0 with entry sum equal to the
    alternating sum of the input (the rank of the monad's homology sheaf).
    front_pieces and back_pieces are the positive-codimension pieces the two
    decomposition runs produced (the back ones in the dualized orientation).
    """

    __slots__ = ()


def _prefix(pieces, codim_ok):
    """The leading pieces whose codimension satisfies codim_ok."""
    return list(takewhile(lambda piece: codim_ok(piece[1].codim), pieces))


def monad_split(table, n):
    """Split a free monad table as resolution + dual resolution + free part.

    Decomposes the table and its dual against the monad constraint, sums the
    positive-codimension prefix of each run (D' and D''), and forms
    E = table - D' - dual(D'').  A negative entry of E means the input is
    outside the monad cone, and that is the one check E needs.  A piece of
    a run has positive codimension exactly when it ends in a column >= 1,
    and it then starts in a column >= 0; the rightmost column only moves
    left.  So D' lies in columns >= 0 and table - D' in columns <= 0, the
    dual run mirrors this, and E is zero off column 0.
    """
    n = _int(n)
    # Free homology allowed in nonpositive positions, full codimension above.
    constraint = CodimensionSequence(n, 0, 1, (), n + 1)
    front = _prefix(decompose_s(table, constraint, n).pieces,
                    lambda codim: codim > 0)
    back = _prefix(_decompose_dual(table, constraint, n).pieces,
                   lambda codim: codim > 0)
    d_front = linear_combine([(c, pure_diagram(d)) for c, d in front])
    d_back = linear_combine([(c, pure_diagram(d)) for c, d in back])
    e_column = linear_combine(
        [(1, table), (-1, d_front), (-1, dual(d_back))])
    bad = e_column.negative_entries()
    if bad:
        raise MonadViolation(
            f"central column would be negative at {bad[0]}", e_column)
    table_f1 = linear_combine([(1, d_front), (1, e_column)])
    return MonadSplit(
        lambda1=Fraction(1 if table_f1 else 0),
        table_f1=table_f1,
        lambda2=Fraction(1 if d_back else 0),
        table_f2=d_back,
        e_column=e_column,
        front_pieces=front,
        back_pieces=back,
    )


def infinite_prefix(table, e, n):
    """Stable prefix of the chain decomposition of an infinite resolution.

    The input is the truncation of the resolution to columns 0..e.  Its dual
    is decomposed once against the one-sided constraint (free at positions
    <= -e, full codimension above), and the leading run of full-codimension
    pieces is returned in original orientation, maximal piece first; the
    remainder carries whatever the prefix does not reconstruct.  The
    trailing lower-codimension pieces only exist because the truncation cut
    the table off, and the cut's deficit is absorbed by them.

    A run on the truncation at e - 1 takes the same steps until its own
    prefix ends, so it cannot cut this one: a full-codimension step ending
    at column p >= n + 2 - e (dual orientation) starts at p - n - 1 >= 1 - e
    and reads only columns where the two truncations agree, and the first
    step ending further left has codimension below n + 1 in the shorter run.
    """
    e, n = _int(e), _int(n)
    if e <= n + 1:
        raise ValidationError(f"truncation column e = {e} must exceed n + 1 = {n + 1}")
    if not table.is_nonnegative():
        raise ValidationError("prefix decomposition needs a nonnegative table")
    high = [i for i in table.columns() if i > e]
    if high:
        raise ValidationError(
            f"table has support in column {high[0]} past the truncation at {e}")
    constraint = CodimensionSequence(n, 0, -e + 1, (), n + 1)
    kept = _prefix(_decompose_dual(table, constraint, n).pieces,
                   lambda codim: codim == n + 1)
    stable = [Piece(coeff, d.dual()) for coeff, d in kept]
    remainder = linear_combine(
        [(1, table)] + [(-c, pure_diagram(d)) for c, d in stable])
    return Decomposition(stable, remainder)
