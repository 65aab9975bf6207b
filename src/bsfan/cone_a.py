"""The one-variable side: partial Euler characteristics and decomposition.

Over the one-variable graded ring every table in the cone of generically
exact complexes splits into two-term torsion blocks {(p, a): 1, (p+1, b): 1}
and, where the constraint allows rank, single free blocks {(p, a): 1}.  The
functionals chi_{i,j} cut the cone out: chi weights column i up to degree j,
column i+1 up to degree j+1 with opposite sign, and every further column by
its full alternating column sum (the loop is tables._partial_euler, shared
with multi_chi).  The blocks are the pure diagrams at n = 0.
"""

from collections import namedtuple

from .errors import NotInCone, ValidationError
from .sequences import EMPTY, INF, Piece
from .tables import ZERO, _int, _partial_euler


def chi(table, i, j):
    """Partial Euler characteristic anchored at column i, degree j: column
    i up to degree j, column i+1 up to degree j+1."""
    return _partial_euler(table, _int(i), _int(j) + 1, int)


def euler(table):
    """Alternating sum of all entries."""
    return sum((-v if i % 2 else v for (i, _), v in table.items()), ZERO)


class APiece(namedtuple("APiece", "kind position gen_degree socle_degree")):
    """Free block at (position, degree a) or torsion block generated in
    degree a with socle relation in degree b > a."""

    __slots__ = ()

    def __new__(cls, kind, position, gen_degree, socle_degree=None):
        if kind not in ("free", "torsion"):
            raise ValidationError(f"unknown piece kind {kind!r}")
        position, gen_degree = _int(position), _int(gen_degree)
        if kind == "torsion":
            socle_degree = _int(socle_degree)
            if socle_degree <= gen_degree:
                raise ValidationError(
                    f"torsion piece needs socle degree > {gen_degree}, "
                    f"got {socle_degree}")
        return super().__new__(cls, kind, position, gen_degree, socle_degree)


class Violation(namedtuple("Violation", "kind i j value",
                           defaults=(None, None, None))):
    __slots__ = ()


class AVerdict(namedtuple("AVerdict", "ok violations")):
    __slots__ = ()

    def __new__(cls, ok, violations=None):
        return super().__new__(
            cls, ok, [] if violations is None else violations)


def _check_shape(c):
    if c.n != 0:
        raise ValidationError(
            f"membership over the one-variable ring needs n = 0, got n = {c.n}"
        )


def _chi_negatives(table, c):
    """chi_negative violations in (i, j) order, over columns min - 3 to max
    and degrees min - 2 to max + 1 of the support, where chi takes every
    value it has, and where c(i) >= 1.  Swept from the right: chi(i, .)
    starts at tail(i + 2), the alternating sum of the column sums from
    column i + 2 up, and steps only where j reaches an entry (i, d), at
    j = d, or an entry (i + 1, d), at j = d - 1.  So a column is one walk
    over its sorted steps; a column without steps is constant, and where
    that is zero, chi is zero down to the previous column with steps.
    Ranks never decrease, so the sweep stops at the first c(i) < 1.  Only
    negative runs become cells: O(N log N + output)."""
    if not table:
        return []
    steps, sums = {}, {}
    for (i, d), value in table.items():
        steps.setdefault(i, []).append((d, value))
        steps.setdefault(i - 1, []).append((d - 1, -value))
        sums[i] = sums.get(i, ZERO) + value
    cols, degs = sorted(steps, reverse=True), [d for _, d in table.support()]
    low, high = min(degs) - 2, max(degs) + 1
    below = dict(zip(cols, cols[1:] + [cols[-1] - 3]))  # then past the window
    i, tail, columns = cols[0], ZERO, []  # tail(i + 2)
    while i >= cols[-1] - 2 and c.rank(i) >= 1:
        if i not in steps and not tail:
            i = below[i + 1]  # no entry in between: tail(i + 2) stays zero
            continue
        start, value, cells = low, tail, []
        for j, step in sorted(steps.get(i, ())) + [(high + 1, ZERO)]:
            if value < 0:
                cells.extend(Violation("chi_negative", i, k, value)
                             for k in range(start, j))
            start, value = j, value + step
        columns.append(cells)
        tail = sums.get(i + 1, ZERO) - tail
        i -= 1
    return [cell for cells in reversed(columns) for cell in cells]


def membership_a(table, c):
    """Half-space test for the cone constrained by c.

    Collects every violated condition: entries in forbidden columns,
    entries in a column i that no block can cover because c(i - 1) = inf,
    negative entries, a negative chi where the constraint is at least 1
    (one breakpoint sweep per column, not a chi call per cell), and a
    nonzero total Euler characteristic when no column admits free homology.
    """
    _check_shape(c)
    violations = []
    for (i, j), value in table.items():
        if c.value(i) == EMPTY:
            violations.append(Violation("support_empty", i, j, value))
        elif c.value(i - 1) == INF:
            violations.append(Violation("support_inf", i, j, value))
    for (i, j) in table.negative_entries():
        violations.append(Violation("negative_entry", i, j, table[(i, j)]))
    violations.extend(_chi_negatives(table, c))
    if not c.occurs(0):
        total = euler(table)
        if total != 0:
            violations.append(Violation("euler_nonzero", value=total))
    return AVerdict(not violations, violations)


def decompose_a(table, c):
    """Greedy split into free and torsion blocks with positive coefficients:
    decompose_s at n = 0, whose pure diagrams (a)@p and (a, b)@p are the
    blocks.  A stuck strand is reported by its top entry."""
    from .cone_s import decompose_s

    _check_shape(c)
    if not table.is_nonnegative():
        entry = table.negative_entries()[0]
        raise NotInCone(f"negative entry at {entry}", [], blocking_entry=entry)
    try:
        return _blocks(decompose_s(table, c, 0).pieces)
    except NotInCone as exc:
        strand = exc.blocking_strand
        s, t = strand.end, strand.degrees[-1]
        if c.value(s) == EMPTY:
            message = f"entry at ({s}, {t}) in a forbidden column"
        elif not strand.codim:
            message = f"no generator below degree {t} to pair with ({s}, {t})"
        else:
            message = (f"no torsion block ends at ({s}, {t}): column {s - 1} "
                       f"has codimension {c.value(s - 1)}")
        raise NotInCone(message, _blocks(exc.partial_pieces),
                        blocking_entry=(s, t)) from None


def _blocks(pieces):
    """Pieces of degree sequences (a)@p and (a, b)@p as blocks."""
    return [Piece(coeff, APiece("torsion" if d.codim else "free", d.start,
                                *d.degrees))
            for coeff, d in pieces]
