"""Exact sparse Betti tables over the rationals.

A table is a finite map (i, j) -> Fraction where i is the homological index
and j the absolute internal degree.  Only nonzero entries are stored.  All
arithmetic is exact; there is no floating point anywhere in this package.

Rendering uses the classical display convention: the cell in column i and
display row r shows the entry of degree j = i + r, zeros print as "-", and
the origin cell may be decorated with a degree-zero marker "°".

The partial Euler characteristic loop, _partial_euler, lives here: it is
cone_a.chi over Z and multigraded.multi_chi over Z^m, so a multi-chi
process loads neither the one-variable side nor the pairing.

Every number a library value stores is read here, before any check, by one
rule per kind: _int, _int_tuple (a sequence of integers) or _rational; a
refusal is a ValidationError, or for a rational parse_rational's ParseError.
A public function reads each integer argument by _int at its entry.
"""

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import ParseError, ValidationError

_INTEGER = r"-?\d+"  # the integer grammar, also of the CLI's comma lists
_RATIONAL_RE = re.compile(rf"^({_INTEGER})(?:/([1-9]\d*))?$")
ZERO = Fraction(0)  # the shared value of every absent entry


def parse_rational(text, where="value"):
    """Parse "p" or "p/q" (q positive) into a Fraction; reject anything else.
    The Fraction is built from the matched integers: one parse per string."""
    match = isinstance(text, str) and _RATIONAL_RE.match(text.strip())
    if not match:
        raise ParseError(f"{where}: not a rational of the form p or p/q: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _int(value):
    """value as int() reads it ("3" and 3.0 are 3); a bool, or what int()
    cannot read (None, "x", inf) or would change (1.5), is refused."""
    if type(value) is int:
        return value
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if type(value) is not bool and (n == value or isinstance(value, str)):
            return n
    raise ValidationError(f"not an integer: {value}")


def _int_tuple(values):
    """values, any iterable but a string, as a tuple of ints read by _int."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ValidationError(f"not a sequence of integers: {values!r}")
    return tuple(map(_int, values))


def _rational(value, where="value"):
    """A Fraction, an int but a bool, or a "p/q" string, as a Fraction."""
    if isinstance(value, (Fraction, int)) and type(value) is not bool:
        return value if isinstance(value, Fraction) else Fraction(value)
    return parse_rational(value, where)


class BettiTable:
    """Immutable sparse table; an absent key means a zero entry.

    Keys are (column i, grade) with integer degrees j as grades; the Z^m
    case MultiBettiTable overrides only the grade hooks, the HEADER (its
    rank m, also a JSON key), the JSON grade field GRADE and its shape
    GRADE_SHAPE.

    Intermediate arithmetic (monad splitting subtracts tables) may produce
    signed "raw" tables, so negative entries are allowed; table_from_obj
    rejects them in input tables.
    """

    __slots__ = ("_entries",)
    HEADER = ()
    GRADE = "j"
    GRADE_SHAPE = int

    def __init__(self, entries=None):
        cleaned = {}
        for (i, grade), value in (entries or {}).items():
            if q := _rational(value):
                cleaned[(_int(i), self.normalize_grade(grade))] = q
        self._entries = cleaned

    @classmethod
    def _trusted(cls, entries, *head):
        """Table of this class with the HEADER fields head over entries
        that are already checked: integer columns, normalised grades and
        nonzero Fractions.  The dict is kept, not copied or checked."""
        table = cls.__new__(cls)
        for key, value in zip(cls.HEADER, head):
            setattr(table, key, value)
        table._entries = entries
        return table

    def normalize_grade(self, j):
        return _int(j)

    @staticmethod
    def negate(j):
        return -j

    def _head(self):
        return tuple(getattr(self, key) for key in self.HEADER)

    def like(self, entries):
        """Table with the same grading (and rank) over entries that are
        already checked, as for _trusted."""
        return self._trusted(entries, *self._head())

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
        """Entries as ((i, grade), value) pairs in (i, grade) order (the
        keys are unique, so no value is compared)."""
        return sorted(self._entries.items())

    def support(self):
        """Sorted list of (i, grade) keys with nonzero entries."""
        return sorted(self._entries)

    def columns(self):
        """Sorted homological indices that carry at least one entry."""
        return sorted({i for i, _ in self._entries})

    def is_nonnegative(self):
        return all(v.numerator > 0 for v in self._entries.values())

    def negative_entries(self):
        return sorted(key for key, v in self._entries.items()
                      if v.numerator < 0)


class WorkingTable:
    """Mutable copy of a table for the greedy chain decomposition.

    Holds each entry as a normalised (numerator, denominator) pair of ints
    and keeps each column's degrees in descending order, so a column's
    lowest degree is its last.  A greedy step makes one call,
    subtract_largest(diagram), which reads and touches only the pure
    diagram's keys and computes on integers, building no Fraction but the
    multiple.  Columns only ever empty, so the columns are kept in
    ascending order and the emptied ones at the end are popped: the
    rightmost column is the last, found with no scan of all columns.
    """

    __slots__ = ("_entries", "_degrees", "_columns")

    def __init__(self, table):
        self._entries = {key: (v.numerator, v.denominator)
                         for key, v in table._entries.items()}
        self._degrees = {}
        for i, j in sorted(self._entries, reverse=True):
            self._degrees.setdefault(i, []).append(j)
        self._columns = sorted(self._degrees)

    def last_column(self):
        """Rightmost column that still carries an entry, or None."""
        return self._columns[-1] if self._columns else None

    def top_strand(self, first=None):
        """(start, degrees) of the top strand: the lowest degree of the
        rightmost column, extended leftward while the next column's lowest
        degree is strictly smaller, and not past column first if given."""
        columns = self._degrees
        i = self._columns[-1]
        j = columns[i][-1]
        degrees = [j]
        while i != first and (column := columns.get(i - 1)) and column[-1] < j:
            j = column[-1]
            degrees.append(j)
            i -= 1
        return i, tuple(reversed(degrees))

    def subtract_largest(self, diagram):
        """Subtract the largest multiple c of diagram that keeps every entry
        nonnegative, drop the entries that reach zero and return c.

        diagram is a nonempty table of positive integral Fractions, such as
        a pure diagram; each key must be present here and the lowest of its
        column, as every greedy step's keys are.  An entry a/b gives the
        candidate a / (b * value), c = p/q is their least (compared by
        cross-multiplying), and a/b becomes (a*q - p*value*b) / (b*q),
        reduced by its gcd."""
        entries, degrees = self._entries, self._degrees
        terms = [(key, *entries[key], value.numerator)
                 for key, value in diagram._entries.items()]
        p, q = 1, 0  # infinity: every candidate is smaller
        for _, a, b, value in terms:
            b *= value
            if a * q < p * b:
                p, q = a, b
        coeff = Fraction(p, q)
        p, q = coeff.numerator, coeff.denominator
        for key, a, b, value in terms:
            top = a * q - p * value * b
            if top:
                b *= q
                g = gcd(top, b)
                entries[key] = (top // g, b // g)
                continue
            del entries[key]
            column = degrees[key[0]]
            column.pop()
            if not column:
                del degrees[key[0]]
                columns = self._columns
                while columns and columns[-1] not in degrees:
                    columns.pop()
        return coeff


def linear_combine(terms):
    """Entrywise sum of coeff * table over (coeff, table) pairs; zeros pruned.

    The result may be signed; callers that need a valid table revalidate.
    It is graded like the tables, which share one grading; an empty sum is
    a BettiTable.
    """
    acc = {}
    table = BettiTable()
    for coeff, table in terms:
        if c := _rational(coeff, "coefficient"):
            for key, value in table._entries.items():
                acc[key] = acc.get(key, ZERO) + c * value
    return table.like({key: v for key, v in acc.items() if v})


def dual(table):
    """Move the entry at (i, j) to (-i, -j)."""
    negate = table.negate
    return table.like(
        {(-i, negate(j)): v for (i, j), v in table._entries.items()})


def shift(table, k):
    """Move the entry at (i, j) to (i + k, j); degrees are unchanged."""
    k = _int(k)
    return table.like({(i + k, j): v for (i, j), v in table._entries.items()})


def _partial_euler(table, i, anchor, key):
    """Column i counts the grades whose key is below the anchor, column i+1
    those whose key is at most the anchor, with opposite sign, and every
    further column adds its full alternating column sum (sign +1 at i+2,
    so the value is invariant under homological shift of table and i)."""
    total = Fraction(0)
    for (col, grade), value in table.items():
        if col == i:
            if key(grade) < anchor:
                total += value
        elif col == i + 1:
            if key(grade) <= anchor:
                total -= value
        elif col >= i + 2:
            total += value if (col - i) % 2 == 0 else -value
    return total


def _read(value, shape, where):
    """Decoded JSON checked against shape: int (a JSON integer, not true),
    [s] (a list of s, read as a tuple) or {key: s} (an object, read as a
    dict in shape order; a key of shape (s, default) may be absent).  A
    list item or field of shape None is any value.  A mismatch is one
    ParseError that names the field.  A JSON integer read as int, and any
    value read as None, is taken without a call of its own, by the caller:
    so a call with shape int is reached only to refuse a value."""
    if shape is int:
        kind = "a JSON integer"
    elif type(shape) is list:
        if type(value) is list:
            item = shape[0]
            return tuple([v if item is None or item is int and type(v) is int
                          else _read(v, item, f"{where}[{k}]")
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
    fields (the rank m of Z^m, at least 1) and an "entries" list of
    {i, <cls.GRADE>, value} objects.

    Faults are reported shapes first (_read), then keys and rationals
    (_read_entries), then ranks and signs, each kind in entry order: a
    grade of the wrong rank (zero entries included) or a negative value.
    """
    shape = dict.fromkeys(cls.HEADER, int)
    shape["entries"] = [{"i": int, cls.GRADE: cls.GRADE_SHAPE, "value": None}]
    *head, entries = _read(obj, shape, "table").values()
    table = cls(*head)  # the class checks its HEADER fields
    rank = head[0] if head else None
    checked = {}
    for key, value in _read_entries(entries, "table").items():
        if rank is not None and len(key[1]) != rank:
            raise ValidationError(
                f"grade {key[1]} has rank {len(key[1])}, expected {rank}")
        if value.numerator > 0:
            checked[key] = value
        elif value:
            raise ValidationError(f"negative entry {value} at {key}")
    table._entries = checked
    return table


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


class _TooLarge(ValidationError):
    """An output too large to write, its message formatted when read: the
    counts may pass the int-to-str limit that holds while input is read."""

    def __str__(self):
        what, *counts = self.args
        return what.format(*counts) + " is too large to write"


def _check_writable(count, what, *counts):
    """Refuse to write more cells than a str or a list can hold; what names
    the output, a str.format template of the counts."""
    if count > sys.maxsize:
        raise _TooLarge(what, *counts)


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
    rows = sorted({j - i for i, j in table.support()})
    height, width = rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1
    _check_writable(height * width, "pretty grid of {} rows by {} columns",
                    height, width)
    col_range = range(cols[0], cols[-1] + 1)
    row_range = range(rows[0], rows[-1] + 1)

    mark = None
    if mark_origin and 0 in col_range:
        mark = (0 if 0 in row_range else row_range[0], 0)

    def cell(r, c):
        value = table[(c, c + r)]
        text = str(value) if value else "-"
        if mark == (r, c):
            text += "°"
        return text

    # row labels, then each table column, each right-justified to its widest
    columns = [[""] + [f"{r}:" for r in row_range]]
    columns += [[str(c)] + [cell(r, c) for r in row_range] for c in col_range]
    widths = [max(map(len, col)) for col in columns]
    return "\n".join("  ".join(map(str.rjust, line, widths))
                     for line in zip(*columns))
