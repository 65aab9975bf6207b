"""Multigraded tables, total orders, chi functionals, and the pairing on
products of projective spaces: the single-graded table, chi loop
(tables._partial_euler) and pairing loop (pairing.pair, imported by
multi_pair when it is called) over the grading group Z^m.

Gradings live in Z^m in coordinates where the effective cone is the
standard orthant.  A GradedOrder (positive weights, lexicographic
tiebreak) totally orders the grading group while refining orthant
dominance; the multigraded chi functionals anchor at a column and a grade
exactly like the single-graded ones, with strict comparison in the anchored
column and non-strict one column up.
"""

from collections import namedtuple

from .diagrams import _bott
from .errors import ParseError, ValidationError
from .tables import BettiTable, _int, _int_tuple, _partial_euler, _read


class GradedOrder(namedtuple("GradedOrder", "weights")):
    """Total order on Z^m: weighted sum first, lexicographic on ties."""

    __slots__ = ()

    def __new__(cls, weights):
        weights = _int_tuple(weights)
        if not weights:
            raise ValidationError("order needs at least one weight")
        bad = [w for w in weights if w <= 0]
        if bad:
            raise ValidationError(
                f"weights must be positive to refine the effective-cone "
                f"order; got {bad[0]}")
        return super().__new__(cls, weights)

    def key(self, alpha):
        if len(alpha) != len(self.weights):
            raise ValidationError(
                f"grade {tuple(alpha)} has rank {len(alpha)}, "
                f"order expects {len(self.weights)}")
        return (sum(w * a for w, a in zip(self.weights, alpha)), tuple(alpha))


class MultiBettiTable(BettiTable):
    """Finite map (column i, grade alpha in Z^m) -> Fraction: the Z^m case
    of BettiTable, whose storage, validation and JSON format it shares."""

    __slots__ = ("m",)
    HEADER = ("m",)
    GRADE = "alpha"
    GRADE_SHAPE = [int]

    def __init__(self, m, entries=None):
        self.m = _int(m)
        if self.m < 1:
            raise ValidationError(f"table.m must be >= 1, got {self.m}")
        super().__init__(entries)

    def normalize_grade(self, alpha):
        alpha = _int_tuple(alpha)
        if len(alpha) != self.m:
            raise ValidationError(
                f"grade {alpha} has rank {len(alpha)}, expected {self.m}")
        return alpha

    @staticmethod
    def negate(alpha):
        return tuple(-a for a in alpha)


def multi_chi(table, i, alpha, order):
    """Partial Euler characteristic at column i anchored at grade alpha:
    chi's loop under the order's key, so column i counts grades strictly
    below alpha and column i+1 grades at most alpha.  The ranks of alpha,
    the order and the table must agree."""
    alpha = table.normalize_grade(alpha)
    return _partial_euler(table, _int(i), order.key(alpha), order.key)


class _Capped:
    """A product space with its cohomology above index qmax >= 0 dropped."""

    def __init__(self, space, qmax):
        qmax = _int(qmax)
        if qmax < 0:
            raise ValidationError(f"qmax must be >= 0, got {qmax}")
        self.space, self.dimension = space, min(qmax, space.dimension)

    def column(self, alpha):
        return [(q, v) for q, v in self.space.column(alpha)
                if q <= self.dimension]


def multi_pair(table, space, qmax=None):
    """pair over Z^m, the cohomology index capped at qmax when given:
    result[i, alpha] = sum over p - q = i, 0 <= q <= qmax of
    table[p, alpha] * gamma(q, -alpha)."""
    if table.m != space.rank:
        raise ValidationError(
            f"table has rank {table.m}, the space has rank {space.rank}")
    from .pairing import pair

    return pair(table, space if qmax is None else _Capped(space, qmax))


class ProductSpace(namedtuple("ProductSpace", "factor_dims summands")):
    """Sum of line bundles on a product of projective spaces.

    factor_dims lists the factor dimensions (n_1, ..., n_r); each summand is
    a twist vector with a positive multiplicity.
    """

    __slots__ = ()

    def __new__(cls, factor_dims, summands):
        dims = _int_tuple(factor_dims)
        if not dims or any(n < 1 for n in dims):
            raise ValidationError(f"factor dimensions must be >= 1: {dims}")
        checked = []
        for twist, mult in summands:
            twist = _int_tuple(twist)
            if len(twist) != len(dims):
                raise ValidationError(
                    f"twist {twist} has rank {len(twist)}, expected {len(dims)}")
            count = _int(mult)
            if count < 1:
                raise ValidationError(f"multiplicity must be >= 1: {mult}")
            checked.append((twist, count))
        return super().__new__(cls, dims, tuple(checked))

    @property
    def rank(self):
        return len(self.factor_dims)

    @property
    def dimension(self):
        return sum(self.factor_dims)

    def column(self, alpha):
        """Bott's formula per factor (_bott: O(a) on P^n has one nonzero
        cohomology group).  By Kunneth a summand adds the product of its
        factors' values in the sum of their degrees: one pass,
        O(summands x m)."""
        alpha = tuple(alpha)
        if len(alpha) != self.rank:
            raise ValidationError(
                f"grade {alpha} has rank {len(alpha)}, expected {self.rank}")
        col = {}
        for twist, mult in self.summands:
            degree, value = 0, mult
            for n, at, ct in zip(self.factor_dims, alpha, twist):
                q, factor = _bott(n, at + ct)
                degree += q
                value *= factor
            if value:
                col[degree] = col.get(degree, 0) + value
        return col.items()

    @classmethod
    def from_obj(cls, obj):
        kind, dims, summands = _read(obj, {
            "kind": None, "dims": [int],
            "summands": [{"twist": [int], "mult": (int, 1)}]},
            "product space").values()
        if kind != "product":
            raise ParseError(f'expected {{"kind": "product", ...}}: {obj!r}')
        return cls(dims, [(s["twist"], s["mult"]) for s in summands])
