"""Extremal-ray data: pure diagrams and exact cohomology evaluators.

Pure diagrams are the Betti tables with one degree per column; their entries
are pinned, up to scale, by the vanishing of alternating power sums, which
forces entry i proportional to prod_{k != i} 1/|d_k - d_i|.  Supernatural
sheaves give the cohomology tables on the dual side: at most one
cohomology index is nonzero per twist, located by the root sequence, with
magnitude given by the Hilbert polynomial |prod (j - f_k)| * r / s!; the
twisted structure sheaves follow Bott's formula, _bott.  The evaluators
keep the protocol the pairing module states: column(j) and dimension.
"""

import math
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .errors import EvaluatorRangeError, ParseError, ValidationError
from .tables import (BettiTable, _int, _int_tuple, _rational, _read,
                     _read_entries)


def pure_diagram(d):
    """Smallest positive integer table supported at (position, degree) of d.

    Entry i is proportional to 1/p_i, p_i = prod_{k != i} |d_k - d_i|, so
    with L = lcm(p) it is the integer L // p_i.  These quotients already
    have gcd 1 (their gcd is L / lcm(p)), so no division follows.  Each
    gap d_k - d_i, k > i, is positive and enters both p_i and p_k.
    """
    degrees = d.degrees
    prods = [1] * len(degrees)
    for i, di in enumerate(degrees):
        for k in range(i + 1, len(degrees)):
            gap = degrees[k] - di
            prods[i] *= gap
            prods[k] *= gap
    scale = math.lcm(*prods)
    return BettiTable._trusted({key: Fraction(scale // prod) for key, prod
                                in zip(enumerate(degrees, d.start), prods)})


def _bott(n, a):
    """Bott's formula: O(a) on P^n has one nonzero cohomology group,
    C(n + a, n) in degree 0 when a >= 0, otherwise C(-a - 1, n) in degree n
    (zero for -n <= a <= -1).  Returns (degree, value)."""
    return (0, math.comb(n + a, n)) if a >= 0 else (n, math.comb(-a - 1, n))


class SupernaturalSheaf(namedtuple("SupernaturalSheaf", "roots rank_scale n")):
    """Sheaf class with strictly decreasing integer roots f_1 > ... > f_s.

    The number of roots is the dimension s; rank_scale rescales the whole
    cohomology table.  Sheaves with s < n are extensions by zero from a
    linear subspace, so no extra geometric data is needed.
    """

    __slots__ = ()

    def __new__(cls, roots, rank_scale, n):
        roots, scale, n = (_int_tuple(roots),
                           _rational(rank_scale, "rank scale"), _int(n))
        for a, b in zip(roots, roots[1:]):
            if a <= b:
                raise ValidationError(f"roots must strictly decrease: {a} !> {b}")
        if len(roots) > n:
            raise ValidationError(
                f"{len(roots)} roots need ambient dimension >= {len(roots)}, got {n}"
            )
        if scale <= 0:
            raise ValidationError(f"rank scale must be positive, got {scale}")
        return super().__new__(cls, roots, scale, n)

    @property
    def dimension(self):
        return len(self.roots)

    def column(self, j):
        roots = self.roots
        if j in roots:
            return ()
        prod = 1
        for f in roots:
            prod *= j - f
        q0 = sum(1 for f in roots if f > j)
        return ((q0, self.rank_scale * abs(prod)
                 / math.factorial(len(roots))),)


class TwistSheaf(namedtuple("TwistSheaf", "n a")):
    """The twisted structure sheaf O(a) on projective n-space: column j
    is _bott(n, j + a) as a Fraction, in O(1) whatever n."""

    __slots__ = ()

    def __new__(cls, n, a):
        n, a = _int(n), _int(a)
        if n < 1:
            raise ValidationError(f"ambient dimension must be >= 1, got {n}")
        return super().__new__(cls, n, a)

    @property
    def dimension(self):
        return self.n

    def column(self, j):
        q, value = _bott(self.n, j + self.a)
        return ((q, Fraction(value)),) if value else ()


class WindowEvaluator(namedtuple("WindowEvaluator",
                                 "dimension jmin jmax columns")):
    """Finite explicit cohomology window over a declared twist range.

    Queries outside [jmin, jmax] raise instead of silently returning zero;
    inside the range an absent (q, j) is an honest zero.  The values are
    grouped by twist once: columns maps each twist with a nonzero value to
    its (q, value) pairs in q order, read-only, so a column is one lookup
    and equal windows compare equal (a window is not hashable).
    """

    __slots__ = ()

    def __new__(cls, dimension, jmin, jmax, values):
        dimension, jmin, jmax = _int(dimension), _int(jmin), _int(jmax)
        if dimension < 0:
            raise ValidationError(
                f"ambient dimension must be >= 0, got {dimension}")
        if jmin > jmax:
            raise ValidationError(f"empty declared range [{jmin}, {jmax}]")
        columns = {}
        for (q, j), value in values.items():
            q, j, v = _int(q), _int(j), _rational(value)
            if v < 0:
                raise ValidationError(f"negative cohomology value at ({q}, {j})")
            if not jmin <= j <= jmax:
                raise ValidationError(
                    f"entry at twist {j} outside declared range [{jmin}, {jmax}]"
                )
            if not 0 <= q <= dimension:
                raise ValidationError(
                    f"entry at index q = {q} outside 0..{dimension}")
            if v:
                columns.setdefault(j, []).append((q, v))
        return super().__new__(cls, dimension, jmin, jmax, MappingProxyType(
            {j: tuple(sorted(pairs)) for j, pairs in columns.items()}))

    def column(self, j):
        if not self.jmin <= j <= self.jmax:
            raise EvaluatorRangeError([j], self.dimension)
        return self.columns.get(j, ())


def evaluator_from_obj(obj):
    """Evaluator from its decoded JSON description."""
    kind = _read(obj, {"kind": None}, "evaluator")["kind"]
    if kind == "supernatural":
        return SupernaturalSheaf(*_read(obj, {
            "roots": [int], "rank_scale": None, "n": int},
            "evaluator").values())
    if kind == "twist":
        return TwistSheaf(*_read(obj, {"n": int, "a": int}, "evaluator").values())
    if kind == "window":
        *head, entries = _read(obj, {
            "dim": int, "jmin": int, "jmax": int,
            "entries": [{"q": int, "j": int, "value": None}]},
            "evaluator").values()
        return WindowEvaluator(*head, _read_entries(entries, "window"))
    raise ParseError(f"unknown evaluator kind {kind!r}")
