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
from fractions import Fraction

from .errors import NotInCone, ValidationError
from .sequences import EMPTY, INF, Piece
from .tables import ZERO, _partial_euler


def chi(table, i, j):
    """Partial Euler characteristic anchored at column i, degree j: column
    i up to degree j, column i+1 up to degree j+1."""
    return _partial_euler(table, i, j + 1, int)


def euler(table):
    """Alternating sum of all entries."""
    return sum((-v if i % 2 else v for (i, _), v in table.items()), Fraction(0))


# The checked window: columns above the support only ever see empty partial
# sums, columns more than two below only the alternating full column sums
# (two parities), and the degree cutoffs saturate one step outside the
# degree support, so values outside repeat values inside.
LEFT_I, RIGHT_I, LEFT_J, RIGHT_J = 3, 0, 2, 1


def chi_window(table):
    """Ranges (columns, degrees) that capture every distinct chi value."""
    if not table:
        return range(0), range(0)
    cols = [i for i, _ in table.support()]
    degs = [j for _, j in table.support()]
    return (
        range(min(cols) - LEFT_I, max(cols) + RIGHT_I + 1),
        range(min(degs) - LEFT_J, max(degs) + RIGHT_J + 1),
    )


class APiece(namedtuple("APiece", "kind position gen_degree socle_degree")):
    """Free block at (position, degree a) or torsion block generated in
    degree a with socle relation in degree b > a."""

    __slots__ = ()

    def __new__(cls, kind, position, gen_degree, socle_degree=None):
        if kind not in ("free", "torsion"):
            raise ValidationError(f"unknown piece kind {kind!r}")
        if kind == "torsion" and socle_degree <= gen_degree:
            raise ValidationError(
                f"torsion piece needs socle degree > {gen_degree}, "
                f"got {socle_degree}"
            )
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
    """chi_negative violations over the window, in (i, j) order.

    One sweep per checked column instead of one chi call per cell: column
    sums and alternating tail sums come from a single pass, and two
    pointers walk column i up to degree j and column i+1 up to degree j+1.
    """
    cols, degs = chi_window(table)
    columns = {}
    for (i, j), value in table.items():  # sorted, so degrees ascend
        columns.setdefault(i, []).append((j, value))
    # tail[i]: alternating sum of the column sums from column i up; the
    # window ends at the top column, so everything above it is zero
    tail, running = {}, Fraction(0)
    for i in reversed(cols):
        running = sum((v for _, v in columns.get(i, ())), -running)
        tail[i] = running
    violations = []
    for i in cols:
        if c.rank(i) < 1:
            continue
        low, high = columns.get(i, []), columns.get(i + 1, [])
        a = b = 0
        value = tail.get(i + 2, ZERO)
        for j in degs:
            # chi changes only where a pointer passes an entry
            while a < len(low) and low[a][0] <= j:
                value += low[a][1]
                a += 1
            while b < len(high) and high[b][0] <= j + 1:
                value -= high[b][1]
                b += 1
            if value < 0:
                violations.append(Violation("chi_negative", i, j, value))
    return violations


def membership_a(table, c):
    """Half-space test for the cone constrained by c.

    Collects every violated condition: entries in forbidden columns,
    entries in a column i that no block can cover because c(i - 1) = inf,
    negative entries, a negative chi over the stabilized window where the
    constraint is at least 1, and a nonzero total Euler characteristic when
    no column admits free homology.  The window cells and their order are
    those of chi_window, but the values come from one sweep per column, so
    the cost is O(N + window) rather than a full chi rescan per cell.
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
