import itertools

import pytest

from bsfan import (EMPTY, INF, CodimensionSequence, DegreeSequence,
                   ParseError, ValidationError)
from bsfan.cli import _json
from bsfan.sequences import _trim_start, value_rank
from bsfan.tables import _read
from helpers import (Comparison, _reference_trim, compare_degree_sequences,
                     positions, random_degree_sequence, reference_compatible,
                     rng, trimmed)

LESS, EQUAL = Comparison.LESS, Comparison.EQUAL
GREATER, INCOMPARABLE = Comparison.GREATER, Comparison.INCOMPARABLE
DEGREES = {"start": int, "degrees": [int]}  # a degree sequence's JSON shape


class TestDegreeSequence:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValidationError):
            DegreeSequence(0, (1, 1))
        with pytest.raises(ValidationError):
            DegreeSequence(0, (2, 1))
        with pytest.raises(ValidationError):
            DegreeSequence(0, ())

    def test_padding(self):
        d = DegreeSequence(1, (2, 3, 4, 6))
        assert d.codim == 3 and d.end == 4
        assert d.degrees[2 - d.start] == 3

    def test_json_round_trip(self):
        d = DegreeSequence(-2, (0, 5))
        assert DegreeSequence(*_read(_json(d), DEGREES, "d").values()) == d
        with pytest.raises(ParseError):
            _read({"degrees": [1]}, DEGREES, "d")

    def test_dual(self):
        d = DegreeSequence(1, (2, 3, 5))
        assert d.dual() == DegreeSequence(-3, (-5, -3, -2))
        assert d.dual().dual() == d


class TestCompare:
    def test_marked_position_shift_is_less(self):
        # the run 0,1,3 placed one slot further left is termwise smaller
        d1 = DegreeSequence(-1, (0, 1, 3))
        d2 = DegreeSequence(-2, (0, 1, 3))
        assert compare_degree_sequences(d1, d2) == LESS
        assert compare_degree_sequences(d2, d1) == GREATER

    def test_equal(self):
        d = DegreeSequence(0, (0, 5))
        assert compare_degree_sequences(d, d) == EQUAL

    def test_incomparable(self):
        assert compare_degree_sequences(
            DegreeSequence(0, (0, 5)), DegreeSequence(0, (1, 2))) == INCOMPARABLE

    def test_partial_order_properties(self):
        r = rng(201)
        seqs = [random_degree_sequence(r) for _ in range(60)]
        for d in seqs:
            assert compare_degree_sequences(d, d) == EQUAL
        for a in seqs:
            for b in seqs:
                ab = compare_degree_sequences(a, b)
                ba = compare_degree_sequences(b, a)
                flip = {LESS: GREATER, GREATER: LESS,
                        EQUAL: EQUAL, INCOMPARABLE: INCOMPARABLE}
                assert ba == flip[ab]
                if ab == EQUAL:
                    assert a == b
        for a in seqs[:20]:
            for b in seqs[:20]:
                if compare_degree_sequences(a, b) != LESS:
                    continue
                for c in seqs[:20]:
                    if compare_degree_sequences(b, c) in (LESS, EQUAL):
                        assert compare_degree_sequences(a, c) == LESS


class TestCodimSequence:
    def test_valid_staircase(self):
        c = CodimensionSequence(2, EMPTY, 0, (2, 2), INF)
        assert c.value(-1) == EMPTY
        assert c.value(0) == 2 and c.value(1) == 2
        assert c.value(2) == INF

    def test_decreasing_rejected_with_positions(self):
        with pytest.raises(ValidationError, match="position 0.*position 1"):
            CodimensionSequence(2, EMPTY, 0, (1, 0), INF)
        with pytest.raises(ValidationError, match="left fill"):
            CodimensionSequence(2, 2, 0, (1,), INF)

    def test_value_above_n_plus_one_rejected(self):
        with pytest.raises(ValidationError):
            CodimensionSequence(2, 0, 0, (4,), INF)
        # n + 1 itself and inf are fine
        CodimensionSequence(2, 0, 0, (3,), INF)

    def test_validate_from_raw(self):
        c = CodimensionSequence.from_obj(
            {"n": 2, "left": "empty", "window_start": 0,
             "window": [2, 2], "right": "inf"})
        assert c == CodimensionSequence(2, EMPTY, 0, (2, 2), INF)
        with pytest.raises(ParseError):
            CodimensionSequence.from_obj({"n": 2})
        with pytest.raises(ParseError,
                           match="codimension sequence must be a JSON object"):
            CodimensionSequence.from_obj("nope")

    def test_malformed_raw_fields_are_parse_errors(self):
        with pytest.raises(ParseError):
            CodimensionSequence.from_obj(
                {"n": 2, "left": 0, "window": 5, "right": 0})
        with pytest.raises(ParseError):
            CodimensionSequence.from_obj({"n": "two", "left": 0, "right": 0})
        with pytest.raises(ValidationError, match="decreases"):
            CodimensionSequence.from_obj({"n": 2, "left": 2, "right": 1})

    def test_occurs(self):
        c = CodimensionSequence(2, EMPTY, 0, (0, 2), INF)
        assert c.occurs(0) and c.occurs(2) and c.occurs(EMPTY) and c.occurs(INF)
        assert not c.occurs(1)


class TestCompatibility:
    # constraint: forbidden below 0, codimension >= 2 at 0 and 1, free above
    c = CodimensionSequence(2, EMPTY, 0, (2, 2), INF)

    def test_full_strand_compatible(self):
        assert reference_compatible(DegreeSequence(1, (2, 3, 4, 6)), self.c)

    def test_short_strand_incompatible(self):
        assert not reference_compatible(DegreeSequence(1, (2, 4)), self.c)

    def test_homological_shift_compatible(self):
        assert reference_compatible(DegreeSequence(0, (0, 2, 4)), self.c)

    def test_codim_cap(self):
        # codimension 4 > n + 1 = 3 can never be realized
        assert not reference_compatible(DegreeSequence(0, (0, 2, 3, 4, 6)), self.c)

    def test_forbidden_support(self):
        assert not reference_compatible(DegreeSequence(-1, (0, 2, 3)), self.c)

    def test_constant_constraint_matches_codimension(self):
        r = rng(202)
        for _ in range(300):
            n = r.randint(1, 4)
            k = r.randint(0, n + 1)
            d = random_degree_sequence(r, max_codim=n + 1)
            c = CodimensionSequence.constant(k, n)
            assert reference_compatible(d, c) == (d.codim == k)

    def test_feasible_trims_form_interval(self):
        r = rng(203)
        for _ in range(300):
            n = r.randint(1, 4)
            strand = random_degree_sequence(r, max_codim=n + 2)
            values = sorted(
                (r.choice([EMPTY, 0, 1, min(2, n + 1), n + 1, INF])
                 for _ in range(3)),
                key=lambda v: value_rank(v, n))
            c = CodimensionSequence(n, values[0], r.randint(-2, 2),
                                    (values[1],), values[2])
            feasible = [k for k in positions(strand)
                        if reference_compatible(trimmed(strand, k), c)]
            if feasible:
                assert feasible == list(range(feasible[0], feasible[-1] + 1))

    def test_trim_search_matches_reference_exhaustively(self):
        # every strand of length 1-6 at starts -2..2 against every
        # constraint with n <= 3 whose fills and window (length <= 3, at
        # 0) are drawn from empty < 0 < ... < n+1 < inf: the nondecreasing
        # draws.  The strands start left of, inside and right of the window.
        strands = [DegreeSequence(start, range(length))
                   for start in range(-2, 3) for length in range(1, 7)]
        for n in range(4):
            alphabet = [EMPTY, *range(n + 2), INF]
            draws = itertools.chain.from_iterable(
                itertools.combinations_with_replacement(alphabet, size)
                for size in range(2, 6))
            for left, *window, right in draws:
                c = CodimensionSequence(n, left, 0, window, right)
                for strand in strands:
                    k = _trim_start(c, strand.end, strand.start)
                    far = _trim_start(c, strand.end, strand.start - 10)
                    want = _reference_trim(strand, c)
                    if k is None:
                        assert want is None
                        assert far is None or far < strand.start
                    else:
                        assert want == trimmed(strand, k) and far == k
