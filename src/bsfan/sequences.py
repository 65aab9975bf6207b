"""Degree sequences, codimension sequences, and their compatibility.

A degree sequence is a strictly increasing run of integers sitting at
consecutive homological positions, implicitly padded with -inf on the left
and +inf on the right.  A codimension sequence is a nondecreasing doubly
infinite sequence over {empty} | {0..n+1} | {inf} (ordered empty < 0 < ...
< n+1 < inf) with a finite explicit window; it constrains how large the
homology of a complex must be in each homological position.
"""

from collections import namedtuple

from .errors import ValidationError
from .tables import _int, _read

EMPTY = "empty"
INF = "inf"


def value_rank(value, n):
    """Exact integer key realizing the order empty < 0 < 1 < ... < n+1 < inf
    for a codimension value over n: empty is -1 and inf is n + 2."""
    if value == EMPTY:
        return -1
    if value == INF:
        return n + 2
    return value


class DegreeSequence(namedtuple("DegreeSequence", "start degrees")):
    """Finite strictly increasing run d_start < ... < d_{start+codim}."""

    __slots__ = ()

    def __new__(cls, start, degrees):
        degrees = tuple(map(_int, degrees))
        if not degrees:
            raise ValidationError("degree sequence needs at least one finite entry")
        for a, b in zip(degrees, degrees[1:]):
            if a >= b:
                raise ValidationError(f"degrees must strictly increase: {a} !< {b}")
        return super().__new__(cls, _int(start), degrees)

    @property
    def codim(self):
        return len(self.degrees) - 1

    @property
    def end(self):
        return self.start + self.codim

    def dual(self):
        """Positions and degrees negated; matches dualizing the pure diagram."""
        return DegreeSequence(-self.end, tuple(-d for d in reversed(self.degrees)))

    def __str__(self):
        return f"({','.join(map(str, self.degrees))})@{self.start}"


# One term of a decomposition: a coefficient times the pure diagram of a
# degree sequence, or times a block (an APiece) of the one-variable split,
# which is the pure diagram of (a)@p or (a, b)@p under another name.  The
# field names are the JSON keys of a serialized piece.
Piece = namedtuple("Piece", "coeff degree_sequence")


def _check_value(value, n, where):
    if value in (EMPTY, INF):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: bad codimension value {value!r}")
    if not 0 <= value <= n + 1:
        raise ValidationError(
            f"{where}: value {value} outside 0..{n + 1} and not inf"
        )
    return value


class CodimensionSequence(namedtuple(
        "CodimensionSequence", "n left window_start window right")):
    """Nondecreasing doubly infinite sequence with a finite window.

    Positions below window_start take the left fill, positions past the
    window take the right fill.
    """

    __slots__ = ()

    def __new__(cls, n, left, window_start, window, right):
        if type(n) is not int or type(window_start) is not int:
            # rejects true from library callers (from_obj's reader, in JSON)
            raise TypeError(f"n and window_start must be integers, got "
                            f"{n!r} and {window_start!r}")
        if n < 0:
            raise ValidationError(f"ambient dimension must be >= 0, got {n}")
        left = _check_value(left, n, "left fill")
        right = _check_value(right, n, "right fill")
        run = [(f"position {window_start + idx}", v)
               for idx, v in enumerate(window)]
        window = tuple(_check_value(v, n, where) for where, v in run)
        run = [("left fill", left)] + run + [("right fill", right)]
        for (wa, a), (wb, b) in zip(run, run[1:]):
            if value_rank(a, n) > value_rank(b, n):
                raise ValidationError(
                    f"codimension sequence decreases from {wa} ({a}) to {wb} ({b})"
                )
        return super().__new__(cls, n, left, window_start, window, right)

    def value(self, i):
        if i < self.window_start:
            return self.left
        if i >= self.window_start + len(self.window):
            return self.right
        return self.window[i - self.window_start]

    def rank(self, i):
        return value_rank(self.value(i), self.n)

    def occurs(self, value):
        """Whether some position of the full infinite sequence has this value."""
        return value == self.left or value == self.right or value in self.window

    @classmethod
    def constant(cls, k, n):
        return cls(n, k, 0, (), k)

    @classmethod
    def from_obj(cls, obj):
        return cls(*_read(obj, {
            "n": int, "left": None, "window_start": (int, 0),
            "window": ([None], ()), "right": None},
            "codimension sequence").values())


def _trim_start(c, end, floor):
    """Start of the minimal compatible run ending at position end under the
    constraint c: the largest k >= floor whose run k..end is compatible
    (more -inf entries make a smaller degree sequence), or None.

    A run of codimension end - k whose first position has rank here, and
    the next position rank above, is compatible when here <= end - k <=
    above, end - k <= n + 1 (a pure resolution can realize it) and no
    position of the run is empty; a constraint never decreases, so that is
    here >= 0.  So k walks leftward from end while end - k <= n + 1 and
    k >= floor, one rank lookup per position, and stops at the first empty
    position, which every longer run contains.  A strand on start..end,
    with floor <= start, has a compatible trim exactly when k >= start."""
    rank = c.rank
    above = rank(end + 1)
    for k in range(end, max(end - c.n - 2, floor - 1), -1):
        here = rank(k)
        if here < 0:
            return None
        if here <= end - k <= above:
            return k
        above = here
    return None
