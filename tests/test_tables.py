import builtins
import json
import math
import re
from fractions import Fraction

import pytest

from bsfan import (BettiTable, MultiBettiTable, ParseError, ValidationError,
                   dual, linear_combine, pretty_render, shift, table_from_obj,
                   tables)
from bsfan.tables import WorkingTable, _read, _read_entries
from helpers import (F, INTRO_TABLE, MONAD_TABLE, T, parse_table,
                     random_table, reference_table_from_obj, rng,
                     serialize_table)


class TestParse:
    def test_singleton(self):
        assert parse_table('{"entries":[{"i":0,"j":0,"value":"1"}]}') == T({(0, 0): 1})

    def test_empty(self):
        assert parse_table('{"entries":[]}') == BettiTable()

    def test_fraction_round_trip(self):
        text = '{"entries":[{"i":1,"j":2,"value":"4/3"}]}'
        table = parse_table(text)
        assert table[(1, 2)] == F(4, 3)
        assert serialize_table(table) == text

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_table('{"entries":[')

    def test_bad_rational(self):
        with pytest.raises(ParseError, match=r"\(0, 0\)"):
            parse_table('{"entries":[{"i":0,"j":0,"value":"1.5"}]}')
        with pytest.raises(ParseError):
            parse_table('{"entries":[{"i":0,"j":0,"value":"4/0"}]}')
        with pytest.raises(ParseError):
            parse_table('{"entries":[{"i":0,"j":0,"value":7}]}')

    def test_duplicate_key(self):
        text = ('{"entries":[{"i":1,"j":2,"value":"1"},'
                '{"i":1,"j":2,"value":"2"}]}')
        with pytest.raises(ParseError, match=r"\(1, 2\)"):
            parse_table(text)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            parse_table('{"entries":[{"i":0,"j":0,"value":"-1"}]}')

    def test_non_integer_index(self):
        with pytest.raises(ParseError):
            parse_table('{"entries":[{"i":"a","j":0,"value":"1"}]}')

    def test_boolean_index_rejected(self):
        with pytest.raises(ParseError):
            parse_table('{"entries":[{"i":true,"j":0,"value":"1"}]}')
        with pytest.raises(ParseError):
            parse_table('{"entries":[{"i":0,"j":false,"value":"1"}]}')

    def test_zero_values_pruned(self):
        assert parse_table('{"entries":[{"i":0,"j":0,"value":"0"}]}') == BettiTable()


class TestRead:
    DEGREES = {"start": int, "degrees": [int]}  # a degree sequence's shape

    def test_absent_optional_keys_take_their_defaults(self):
        shape = {"n": int, "window_start": (int, 0), "window": ([None], ())}
        assert _read({"n": 2}, shape, "c") == {
            "n": 2, "window_start": 0, "window": ()}
        assert _read({"window": ["inf"], "n": 1, "extra": []}, shape, "c") \
            == {"n": 1, "window_start": 0, "window": ("inf",)}
        # a present optional key is checked like any other
        with pytest.raises(ParseError, match=r"c\.window_start "):
            _read({"n": 2, "window_start": True}, shape, "c")

    def test_lists_read_as_tuples(self):
        shape = [{"twist": [int], "mult": (int, 1)}]
        assert _read([{"twist": [1, -1]}, {"twist": [], "mult": 3}], shape,
                     "s") == ({"twist": (1, -1), "mult": 1},
                              {"twist": (), "mult": 3})
        assert _read([[0], "x", None], [None], "s") == ([0], "x", None)

    def test_message_names_the_field(self):
        shape = {"entries": [{"i": int, "alpha": [int], "value": None}]}
        for obj, where in [
                ({"entries": [{"i": 0, "alpha": [0], "value": "1"},
                              {"i": 0, "alpha": [0, True], "value": "1"}]},
                 r"^table\.entries\[1\]\.alpha\[1\] must be a JSON integer"),
                ({"entries": {}}, r"^table\.entries must be a JSON list"),
                ({"entries": [[]]},
                 r"^table\.entries\[0\] must be a JSON object"),
                ({"entries": [{"i": 0, "value": "1"}]},
                 r"^table\.entries\[0\] has no 'alpha' field"),
                ("", r"^table must be a JSON object")]:
            with pytest.raises(ParseError, match=where):
                _read(obj, shape, "table")

    def test_degree_sequence_fields_are_json_integers(self):
        assert _read({"start": -1, "degrees": [0, 2, 5]}, self.DEGREES,
                     "d") == {"start": -1, "degrees": (0, 2, 5)}
        for obj in ({"start": True, "degrees": [0, 2, 5]},
                    {"start": 0, "degrees": [0, 2.7, 5]},
                    {"start": 1.0, "degrees": [0]},
                    {"start": "1", "degrees": [0]},
                    {"start": 0, "degrees": [0, "2"]},
                    {"start": 0, "degrees": [False, 1]},
                    {"start": 0, "degrees": 3},
                    [0, [1, 2]]):
            with pytest.raises(ParseError):
                _read(obj, self.DEGREES, "d")

    def test_entries_become_unique_fraction_keys(self):
        entries = ({"q": 0, "j": 1, "value": "2/4"},
                   {"q": 1, "j": 1, "value": "-3"})
        assert _read_entries(entries, "w") == {(0, 1): F(1, 2), (1, 1): -3}
        with pytest.raises(ParseError, match=r"\(0, 1\)"):
            _read_entries(entries + ({"q": 0, "j": 1, "value": "1"},), "w")
        with pytest.raises(ParseError, match=r"entry \(0, 1\)"):
            _read_entries(({"q": 0, "j": 1, "value": 1},), "w")


class TestOnePassReader:
    """table_from_obj against the three-pass reference reader."""

    VALUES = ["1", "7", "2/4", "9/3", " 5 ", "0", "-0", "0/7", "12/5"]
    BAD_VALUES = ["1/0", "1.5", "abc", "", "1/-2", "+1", 1, None, True, [1]]
    NEGATIVE = ["-1", "-2/4", "-3/7"]

    def random_obj(self, r, m):
        """A valid table object over Z^m, or over Z when m is None."""
        grade = "j" if m is None else "alpha"
        entries, keys = [], set()
        for _ in range(r.randint(0, 12)):
            i = r.randint(-3, 4)
            g = (r.randint(-6, 7) if m is None
                 else [r.randint(-3, 5) for _ in range(m)])
            key = (i, g if m is None else tuple(g))
            if key not in keys:
                keys.add(key)
                entries.append({"i": i, grade: g,
                                "value": r.choice(self.VALUES)})
        return ({"entries": entries} if m is None
                else {"m": m, "entries": entries})

    def break_entry(self, r, obj, k, m):
        """One fault in entry k that both readers see the same way."""
        grade = "j" if m is None else "alpha"
        entry = obj["entries"][k]
        fault = r.choice(["index", "grade", "missing", "value", "negative",
                          "duplicate", "not-an-object", "rank", "extra"])
        if fault == "index":
            entry["i"] = r.choice(["1", True, 1.5, None, [1]])
        elif fault == "grade":
            entry[grade] = (r.choice(["0", True, 1.0, [0]]) if m is None
                            else r.choice([0, "x", [True] * m, ["0"] * m,
                                           [1.0] * m, {}]))
        elif fault == "missing":
            del entry[r.choice(["i", grade, "value"])]
        elif fault == "value":
            entry["value"] = r.choice(self.BAD_VALUES)
        elif fault == "negative":
            entry["value"] = r.choice(self.NEGATIVE)
        elif fault == "duplicate":
            other = obj["entries"][r.randrange(len(obj["entries"]))]
            if (other is not entry and type(other) is dict
                    and "i" in other and grade in other):
                entry["i"], entry[grade] = other["i"], other[grade]
        elif fault == "not-an-object":
            obj["entries"][k] = r.choice([5, [], "x", None])
        elif fault == "rank" and m is not None:
            # a nonzero entry: the grade of a zero entry is read only here
            entry[grade] = [0] * r.choice([n for n in range(5) if n != m])
            entry["value"] = r.choice(["1", "2/3", "-1"])
        else:  # also "rank" over Z: a field no reader reads
            entry["extra"] = [1, {}]

    def break_table(self, r, obj, m):
        fault = r.choice(["entries", "no-entries", "rank-type", "no-rank",
                          "not-an-object"])
        if fault == "entries":
            obj["entries"] = r.choice([{}, "", 5, None])
        elif fault == "no-entries":
            del obj["entries"]
        elif fault == "rank-type" and m is not None:
            obj["m"] = r.choice([True, "2", 2.0, None])
        elif fault == "no-rank" and m is not None:
            del obj["m"]
        elif fault == "not-an-object":
            return r.choice([[], "", 3, None])
        return obj

    @staticmethod
    def outcome(reader, obj, cls):
        try:
            table = reader(obj, cls)
        except Exception as exc:  # the type and message must match
            return type(exc), str(exc)
        assert all(type(v) is Fraction and v > 0
                   for v in table._entries.values())
        return table

    def test_matches_the_reference_reader(self):
        r = rng(2026)
        kinds = {"valid": 0, "raised": 0}
        for _ in range(3000):
            m = r.choice([None, 1, 2, 3])
            cls = BettiTable if m is None else MultiBettiTable
            obj = self.random_obj(r, m)
            n = len(obj["entries"])
            faults = r.choice([0, 1, 2, 2])
            if faults and r.random() < 0.15:
                obj = self.break_table(r, obj, m)
            elif faults and n:
                # two faults fall in different entries
                for k in r.sample(range(n), min(faults, n)):
                    self.break_entry(r, obj, k, m)
            text = json.dumps(obj)
            want = self.outcome(reference_table_from_obj, json.loads(text),
                                cls)
            got = self.outcome(table_from_obj, json.loads(text), cls)
            assert got == want, text
            kinds["raised" if type(want) is tuple else "valid"] += 1
        # both kinds of outcome are well represented
        assert min(kinds.values()) > 800, kinds

    def test_rank_and_zero_entry_grades_are_checked(self):
        # the two inputs the three-pass reader let through or misworded
        r = rng(2027)
        for _ in range(300):
            m = r.randint(1, 3)
            obj = self.random_obj(r, m)
            wrong = r.choice([n for n in range(5) if n != m])
            obj["entries"].insert(
                r.randint(0, len(obj["entries"])),
                {"i": 9, "alpha": [0] * wrong, "value": r.choice(
                    ["0", "-0", "0/4"])})
            assert type(reference_table_from_obj(
                json.loads(json.dumps(obj)), MultiBettiTable)) \
                is MultiBettiTable
            message = f"grade {(0,) * wrong} has rank {wrong}, expected {m}"
            with pytest.raises(ValidationError,
                               match=f"^{re.escape(message)}$"):
                table_from_obj(obj, MultiBettiTable)
            obj["m"] = r.randint(-3, 0)
            with pytest.raises(ValidationError,
                               match=rf"^table\.m must be >= 1, got {obj['m']}$"):
                table_from_obj(obj, MultiBettiTable)


def test_round_trip_random():
    r = rng(101)
    for _ in range(500):
        table = random_table(r)
        assert parse_table(serialize_table(table)) == table
        text = serialize_table(table)
        assert serialize_table(parse_table(text)) == text


def test_iteration_hash_and_repr():
    # iteration walks the sorted support; equal tables built in another
    # order hash equal, in both gradings; repr shows the header and the
    # entries in (i, grade) order
    t = T({(1, 2): F(4, 3), (0, 0): 1})
    assert list(t) == t.support() == [(0, 0), (1, 2)]
    assert hash(t) == hash(T({(0, 0): 1, (1, 2): F(4, 3)}))
    m = MultiBettiTable(2, {(1, (0, 3)): 5, (0, (1, 2)): 1})
    assert list(m) == m.support() == [(0, (1, 2)), (1, (0, 3))]
    assert hash(m) == hash(MultiBettiTable(2, {(0, (1, 2)): 1,
                                               (1, (0, 3)): 5}))
    assert repr(t) == "BettiTable({(0,0): 1, (1,2): 4/3})"
    assert (repr(MultiBettiTable(2, {(0, (1, 2)): 1}))
            == "MultiBettiTable(m=2, {(0,(1, 2)): 1})")


def test_all_values_in_lowest_terms():
    r = rng(102)
    for _ in range(200):
        combined = linear_combine(
            [(random_fraction, random_table(r, nonneg=False))
             for random_fraction in (F(2, 6), F(-3, 9), F(5))])
        for _, value in combined.items():
            assert math.gcd(value.numerator, value.denominator) == 1
            assert value.denominator > 0


def test_dual_is_involution():
    r = rng(103)
    for _ in range(500):
        table = random_table(r, nonneg=False)
        assert dual(dual(table)) == table
    assert dual(BettiTable()) == BettiTable()
    assert dual(T({(0, 0): 1, (1, 3): 1})) == T({(0, 0): 1, (-1, -3): 1})


def test_shift_composes_additively():
    r = rng(104)
    for _ in range(500):
        table = random_table(r, nonneg=False)
        a, b = r.randint(-4, 4), r.randint(-4, 4)
        assert shift(shift(table, a), b) == shift(table, a + b)
        assert shift(table, 0) == table
    assert shift(T({(0, 0): 1}), 3) == T({(3, 0): 1})


def test_linear_combine_intro_example():
    m_shifted = T({(1, 1): 1, (2, 3): 3, (3, 4): 2})
    n_table = T({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    assert linear_combine([(F(1, 2), m_shifted), (F(1, 2), n_table)]) == INTRO_TABLE


def test_linear_combine_cancels_and_scales():
    r = rng(105)
    table = random_table(r)
    assert linear_combine([(1, table), (-1, table)]) == BettiTable()
    assert linear_combine([(2, T({(0, 0): 1}))]) == T({(0, 0): 2})


def test_linear_combine_entrywise_algebra():
    r = rng(106)
    for _ in range(100):
        a, b, c = (random_table(r, nonneg=False) for _ in range(3))
        x, y = random_fraction_pair(r)
        left = linear_combine([(x, a), (y, b)])
        right = linear_combine([(y, b), (x, a)])
        assert left == right
        assert (linear_combine([(1, linear_combine([(x, a), (y, b)])), (1, c)])
                == linear_combine([(x, a), (y, b), (1, c)]))


def test_working_table_tracks_column_minima():
    work = WorkingTable(T({(0, 0): 1, (1, 2): 3, (1, 5): 2, (2, 4): 1}))
    assert work.last_column() == 2
    assert work.top_strand() == (0, (0, 2, 4))
    assert work.top_strand(1) == (1, (2, 4))
    work.subtract(F(1), (((1, 2), 3), ((2, 4), F(1))))
    fresh = WorkingTable(T({(0, 0): 1, (1, 5): 2}))
    assert work.top_strand() == fresh.top_strand() == (0, (0, 5))
    assert work.top_strand(1) == fresh.top_strand(1) == (1, (5,))
    assert work.last_column() == 1
    work.subtract(F(1, 2), (((1, 5), 4),))
    assert work.last_column() == 0
    assert work.top_strand() == (0, (0,))
    work.subtract(F(1), (((0, 0), 1),))
    assert work.last_column() is None


def random_piece(r, expected):
    """Positive integer values on a sample of the column minima, the only
    keys a greedy step subtracts at."""
    lowest = {}
    for i, j in sorted(expected, reverse=True):
        lowest[i] = j
    keys = r.sample(sorted(lowest.items()), r.randint(1, min(len(lowest), 6)))
    return [(key, r.randint(1, 40)) for key in keys]


def test_working_table_arithmetic_matches_fraction_operators():
    r = rng(311)
    for _ in range(300):
        entries = {(r.randint(-3, 4), r.randint(-6, 8)):
                   F(r.randint(1, 60), r.randint(1, 12))
                   for _ in range(r.randint(1, 30))}
        work, expected = WorkingTable(T(entries)), dict(entries)
        while expected:
            piece = random_piece(r, expected)
            coeff = work.largest_multiple(piece)
            assert coeff == min(expected[k] / v for k, v in piece)
            if r.random() < 0.3:   # a smaller multiple clears nothing
                coeff = coeff * F(r.randint(1, 4), 5)
            work.subtract(coeff, piece)
            for key, value in piece:
                left = expected.pop(key) - coeff * value
                if left:
                    expected[key] = left
            assert work._entries == {
                key: (v.numerator, v.denominator)
                for key, v in expected.items()}
            assert all(type(a) is int and type(b) is int
                       for a, b in work._entries.values())
            fresh = WorkingTable(T(expected))
            if expected:
                assert work.last_column() == fresh.last_column()
                assert work.top_strand() == fresh.top_strand()
                for first in range(-4, work.last_column() + 1):
                    assert work.top_strand(first) == fresh.top_strand(first)
        assert work.last_column() is None


def random_fraction_pair(r):
    return (F(r.randint(-5, 5), r.randint(1, 5)),
            F(r.randint(-5, 5), r.randint(1, 5)))


class TestRender:
    def test_intro_grid(self):
        lines = pretty_render(INTRO_TABLE, mark_origin=True).splitlines()
        assert lines[0].split() == ["0", "1", "2", "3"]
        assert lines[1].split() == ["0:", "1°", "2", "-", "-"]
        assert lines[2].split() == ["1:", "-", "-", "2", "1"]

    def test_empty_notice(self):
        assert pretty_render(BettiTable()) == "(empty table)"

    def test_negative_columns_and_off_origin_mark(self):
        lines = pretty_render(MONAD_TABLE, mark_origin=True).splitlines()
        assert lines[0].split() == ["-2", "-1", "0", "1"]
        assert lines[1].split() == ["3:", "2", "11", "20°", "10"]

    def test_mark_off_by_default(self):
        assert "°" not in pretty_render(INTRO_TABLE)

    def test_fractional_cells(self):
        lines = pretty_render(T({(1, 2): F(1, 2), (2, 3): F(4, 3)})).splitlines()
        assert lines[1].split() == ["1:", "1/2", "4/3"]

    def test_each_string_is_measured_once(self, monkeypatch):
        # a tall grid of 3 columns: its width is measured once per string,
        # not once per string for every string of its column
        calls = []
        monkeypatch.setattr(tables, "len", lambda s: calls.append(s) or
                            builtins.len(s), raising=False)
        height = 2000
        lines = pretty_render(T({(0, 0): 1, (1, height): 1})).splitlines()
        assert len(calls) <= 3 * (height + 1)
        assert lines[0] == "       0  1"
        assert lines[1] == "   0:  1  -"
        assert lines[-1] == f"{height - 1}:  -  1"
        assert len(lines) == height + 1
