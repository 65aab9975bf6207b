"""Exact sparse Betti tables over the rationals.

A table is a finite map (i, j) -> Fraction where i is the homological index
and j the absolute internal degree.  Only nonzero entries are stored.  All
arithmetic is exact; there is no floating point anywhere in this package.

Rendering uses the classical display convention: the cell in column i and
display row r shows the entry of degree j = i + r, zeros print as "-", and
the origin cell may be decorated with a degree-zero marker "°".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ValidationError

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")
ZERO = Fraction(0)  # the shared value of every absent entry


def parse_rational(text, where="value"):
    """Parse "p" or "p/q" (q positive) into a Fraction; reject anything else."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError(f"{where}: not a rational of the form p or p/q: {text!r}")
    return Fraction(text.strip())


class BettiTable:
    """Immutable sparse table; an absent key means a zero entry.

    Keys are (column i, grade) with integer degrees j as grades; the Z^m
    case MultiBettiTable overrides only the grade hooks, the HEADER (its
    rank m, also a JSON key), the JSON grade field GRADE and its shape
    GRADE_SHAPE.

    Intermediate arithmetic (monad splitting subtracts tables) may produce
    signed "raw" tables, so negative entries are allowed by default; pass
    require_nonnegative=True for validated input tables.
    """

    __slots__ = ("_entries",)
    HEADER = ()
    GRADE = "j"
    GRADE_SHAPE = int

    def __init__(self, entries=None, *, require_nonnegative=False):
        cleaned = {}
        for (i, grade), value in (entries or {}).items():
            q = value if isinstance(value, Fraction) else Fraction(value)
            if not q:
                continue
            key = (int(i), self.normalize_grade(grade))
            if require_nonnegative and q < 0:
                raise ValidationError(f"negative entry {q} at {key}")
            cleaned[key] = q
        self._entries = cleaned

    def normalize_grade(self, j):
        return int(j)

    @staticmethod
    def negate(j):
        return -j

    def _head(self):
        return tuple(getattr(self, key) for key in self.HEADER)

    def like(self, entries):
        """Table with the same grading (and rank) holding other entries."""
        return type(self)(*self._head(), entries)

    def __getitem__(self, key):
        return self._entries.get(key, ZERO)

    def __iter__(self):
        return iter(sorted(self._entries))

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def __eq__(self, other):
        return (type(other) is type(self) and self._head() == other._head()
                and self._entries == other._entries)

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        head = "".join(f"{k}={v}, " for k, v in zip(self.HEADER, self._head()))
        body = ", ".join(f"({i},{g}): {v}" for (i, g), v in self.items())
        return f"{type(self).__name__}({head}{{{body}}})"

    def items(self):
        """Entries as ((i, grade), value) pairs in (i, grade) order."""
        return [(key, self._entries[key]) for key in sorted(self._entries)]

    def support(self):
        """Sorted list of (i, grade) keys with nonzero entries."""
        return sorted(self._entries)

    def columns(self):
        """Sorted homological indices that carry at least one entry."""
        return sorted({i for i, _ in self._entries})

    def restrict_columns(self, hi):
        """Table with only the columns up to hi kept."""
        return self.like({
            (i, g): v for (i, g), v in self._entries.items() if i <= hi})

    def is_nonnegative(self):
        return all(v > 0 for v in self._entries.values())

    def negative_entries(self):
        return sorted(key for key, v in self._entries.items() if v < 0)


class WorkingTable:
    """Mutable copy of a table for the greedy decompositions.

    Keeps each column's degrees in descending order, so a column's lowest
    degree is its last.  largest_multiple() and subtract() read and touch
    only the keys of the given table and do their arithmetic on numerators
    and denominators, building one normalised Fraction per result.
    """

    __slots__ = ("_entries", "_degrees")

    def __init__(self, table):
        self._entries = dict(table._entries)
        self._degrees = {}
        for i, j in sorted(self._entries, reverse=True):
            self._degrees.setdefault(i, []).append(j)

    def __bool__(self):
        return bool(self._entries)

    def __getitem__(self, key):
        return self._entries.get(key, ZERO)

    def last_column(self):
        """Rightmost column that still carries an entry."""
        return max(self._degrees)

    def lowest(self, i):
        """Lowest degree with an entry in column i, or None."""
        degrees = self._degrees.get(i)
        return degrees[-1] if degrees else None

    def top_strand(self):
        """(start, degrees) of the top strand: the lowest degree of the
        rightmost column, extended leftward while the next column's lowest
        degree is strictly smaller."""
        i = self.last_column()
        degrees = [self.lowest(i)]
        while (low := self.lowest(i - 1)) is not None and low < degrees[-1]:
            degrees.append(low)
            i -= 1
        return i, tuple(reversed(degrees))

    def largest_multiple(self, table):
        """Largest c with c * table <= self on every key of table: the
        minimum over those keys of self[key] / table[key].

        The table's values must be positive (pure diagrams and one-variable
        blocks are) and it must have an entry.  Candidates are compared by
        cross-multiplying numerators and denominators; only the minimum
        becomes a Fraction.
        """
        entries = self._entries
        num = den = None
        for key, value in table._entries.items():
            work = entries.get(key, ZERO)
            n = work.numerator * value.denominator
            d = work.denominator * value.numerator
            if num is None or n * den < num * d:
                num, den = n, d
        return Fraction(num, den)

    def subtract(self, coeff, table):
        """Subtract coeff * table over the keys of table, which must be
        present, dropping the entries that reach zero.

        Each entry a/b becomes (a*q*vd - p*vn*b) / (b*q*vd) for coeff p/q
        and value vn/vd, normalised once.
        """
        entries = self._entries
        p, q = coeff.numerator, coeff.denominator
        for key, value in table._entries.items():
            work = entries[key]
            a, b = work.numerator, work.denominator
            vn, vd = value.numerator, value.denominator
            top = a * q * vd - p * vn * b
            if top:
                entries[key] = Fraction(top, b * q * vd)
                continue
            del entries[key]
            i, j = key
            degrees = self._degrees[i]
            if degrees[-1] == j:
                degrees.pop()
            else:
                degrees.remove(j)
            if not degrees:
                del self._degrees[i]


def linear_combine(terms):
    """Entrywise sum of coeff * table over (coeff, table) pairs; zeros pruned.

    The result may be signed; callers that need a valid table revalidate.
    """
    acc = {}
    for coeff, table in terms:
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if c == 0:
            continue
        for key, value in table.items():
            acc[key] = acc.get(key, ZERO) + c * value
    return BettiTable(acc)


def dual(table):
    """Move the entry at (i, j) to (-i, -j)."""
    return BettiTable({(-i, -j): v for (i, j), v in table.items()})


def shift(table, k):
    """Move the entry at (i, j) to (i + k, j); degrees are unchanged."""
    return BettiTable({(i + k, j): v for (i, j), v in table.items()})


def _read(value, shape, where):
    """Decoded JSON checked against shape: int (a JSON integer, not true),
    None (any value), [s] (a list of s, read as a tuple) or {key: s} (an
    object, read as a dict in shape order; a key of shape (s, default) may
    be absent).  A mismatch is one ParseError that names the field."""
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
            return tuple([_read(v, item, f"{where}[{k}]")
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
                             else _read(v, field, f"{where}.{key}"))
            elif type(field) is tuple:
                read[key] = field[1]
            else:
                raise ParseError(f"{where} has no {key!r} field")
        return read
    else:
        kind = "a JSON object"
    raise ParseError(f"{where} must be {kind}, got {value!r}")


def _read_entries(entries, where):
    """{(a, b): Fraction} from read entries {a, b, value}, keys unique."""
    data = {}
    for entry in entries:
        a, b, text = entry.values()
        key = (a, b)
        if key in data:
            raise ParseError(f"{where}: duplicate entry for {key}")
        data[key] = parse_rational(text, f"entry {key}")
    return data


def table_from_obj(obj, cls=BettiTable):
    """Validated table of class cls from decoded JSON: integer HEADER
    fields and an "entries" list of {i, <cls.GRADE>, value} objects."""
    shape = dict.fromkeys(cls.HEADER, int)
    shape["entries"] = [{"i": int, cls.GRADE: cls.GRADE_SHAPE, "value": None}]
    *head, entries = _read(obj, shape, "table").values()
    return cls(*head, _read_entries(entries, "table"), require_nonnegative=True)


def table_to_obj(table):
    """Canonical JSON object: the HEADER fields, then the entries ordered
    lexicographically by (i, grade)."""
    obj = dict(zip(table.HEADER, table._head()))
    obj["entries"] = [
        {"i": i, table.GRADE: list(g) if isinstance(g, tuple) else g,
         "value": str(v)}
        for (i, g), v in table.items()
    ]
    return obj


def pretty_render(table, mark_origin=False):
    """Text grid in the display convention.

    Columns are homological indices ascending, display row r holds the
    degree i + r entries, zeros render as "-".  With mark_origin the
    column-0 cell of display row 0 gets a "°" suffix (or of the top row
    when row 0 is outside the grid, which matches how one-row tables of
    complexes centered elsewhere are usually decorated).
    """
    if not table:
        return "(empty table)"
    cols = table.columns()
    col_range = list(range(cols[0], cols[-1] + 1))
    rows = sorted({j - i for i, j in table.support()})
    row_range = list(range(rows[0], rows[-1] + 1))

    mark = None
    if mark_origin and 0 in col_range:
        mark = (0 if 0 in row_range else row_range[0], 0)

    def cell(r, c):
        value = table[(c, c + r)]
        text = str(value) if value else "-"
        if mark == (r, c):
            text += "°"
        return text

    grid = {(r, c): cell(r, c) for r in row_range for c in col_range}
    widths = {
        c: max(len(str(c)), max(len(grid[(r, c)]) for r in row_range))
        for c in col_range
    }
    label_width = max(len(f"{r}:") for r in row_range)
    lines = [
        " " * label_width
        + "  "
        + "  ".join(str(c).rjust(widths[c]) for c in col_range)
    ]
    for r in row_range:
        lines.append(
            f"{r}:".rjust(label_width)
            + "  "
            + "  ".join(grid[(r, c)].rjust(widths[c]) for c in col_range)
        )
    return "\n".join(lines)
