"""Value semantics of the record classes: equality, hashing, immutability,
repr, validation messages, the one rule per number kind (integer, integer
sequence, rational) by which every stored number is read, and the keyword
constructions the code uses.

The records are collections.namedtuple subclasses, so an instance also
compares equal to the plain tuple of its fields.
"""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from bsfan.cone_a import APiece, AVerdict, Violation
from bsfan.cone_s import Decomposition, MonadSplit
from bsfan.diagrams import SupernaturalSheaf, TwistSheaf, WindowEvaluator
from bsfan.errors import ParseError, ValidationError
from bsfan.multigraded import (GradedOrder, MultiBettiTable, ProductSpace,
                               multi_pair)
from bsfan.sequences import CodimensionSequence, DegreeSequence
from bsfan.tables import BettiTable, linear_combine, shift

T = BettiTable({(0, 0): 1})
U = BettiTable({(1, 2): 3})
D = DegreeSequence(0, (0, 2))
M = MultiBettiTable(1, {(0, (0,)): 1})
P1 = ProductSpace((1,), (((0,), 1),))


def monad(lambda1=Fraction(1)):
    return MonadSplit(lambda1=lambda1, table_f1=T, lambda2=Fraction(0),
                      table_f2=BettiTable(), e_column=T, front_pieces=[],
                      back_pieces=[])


# name: (build, the same fields, a different field)
RECORDS = {
    "DegreeSequence": (lambda: DegreeSequence(0, (0, 2)),
                       lambda: DegreeSequence("0", ["0", "2"]),
                       lambda: DegreeSequence(1, (0, 2))),
    "CodimensionSequence": (
        lambda: CodimensionSequence(2, 0, 0, (1, 2), "inf"),
        lambda: CodimensionSequence(2, 0, 0, [1, 2], "inf"),
        lambda: CodimensionSequence(2, 0, 0, (1, 3), "inf")),
    "APiece": (lambda: APiece("torsion", 0, 1, 3),
               lambda: APiece(kind="torsion", position=0, gen_degree=1,
                              socle_degree=3),
               lambda: APiece("torsion", 0, 1, 4)),
    "SupernaturalSheaf": (lambda: SupernaturalSheaf((1, -3), 2, 2),
                          lambda: SupernaturalSheaf(["1", "-3"],
                                                    Fraction(2), 2.0),
                          lambda: SupernaturalSheaf((1, -3), 3, 2)),
    "GradedOrder": (lambda: GradedOrder((1, 2)),
                    lambda: GradedOrder(["1", "2"]),
                    lambda: GradedOrder((2, 1))),
    "ProductSpace": (lambda: ProductSpace((1, 2), (((0, 1), 1),)),
                     lambda: ProductSpace(["1", "2"], [(["0", "1"], "1")]),
                     lambda: ProductSpace((1, 2), (((0, 1), 2),))),
    "Violation": (lambda: Violation("chi_negative", 0, 1, Fraction(-1)),
                  lambda: Violation("chi_negative", i=0, j=1,
                                    value=Fraction(-1)),
                  lambda: Violation("chi_negative", 0, 2, Fraction(-1))),
    "AVerdict": (lambda: AVerdict(False, [Violation("euler_nonzero",
                                                    value=Fraction(2))]),
                 lambda: AVerdict(ok=False, violations=[Violation(
                     "euler_nonzero", None, None, Fraction(2))]),
                 lambda: AVerdict(True)),
    "Decomposition": (lambda: Decomposition([(Fraction(1), D)], T),
                      lambda: Decomposition(pieces=[(1, D)], remainder=T),
                      lambda: Decomposition([(Fraction(1), D)], U)),
    "MonadSplit": (monad, monad, lambda: monad(Fraction(0))),
    "WindowEvaluator": (
        lambda: WindowEvaluator(1, 0, 2, {(0, 1): Fraction(2), (1, 1): 3}),
        lambda: WindowEvaluator(1.0, 0, 2, {(1, 1): Fraction(3), (0, 1): 2,
                                            (0, 2): 0}),
        lambda: WindowEvaluator(1, 0, 3, {(0, 1): Fraction(2), (1, 1): 3})),
}
FROZEN = ["DegreeSequence", "CodimensionSequence", "APiece",
          "SupernaturalSheaf", "GradedOrder", "ProductSpace"]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_equal_records(name):
    build, same, other = RECORDS[name]
    assert build() == same() and not build() != same()
    assert build() != other()
    assert type(build()).__name__ == name


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_fields(name):
    build, same, _ = RECORDS[name]
    assert hash(build()) == hash(same()) == hash(tuple(build()))
    assert len({build(), same()}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_window_is_read_only_and_unhashable():
    window = RECORDS["WindowEvaluator"][0]()
    assert window.columns == {1: ((0, 2), (1, 3))}
    with pytest.raises(TypeError):
        hash(window)
    with pytest.raises(TypeError):
        window.columns[0] = ()
    assert 0 not in window.columns


@pytest.mark.parametrize("build", [
    lambda: DegreeSequence(0, (0, 1.5)),
    lambda: DegreeSequence(0.5, (0, 1)),
    lambda: SupernaturalSheaf((1.5,), 1, 1),
    lambda: SupernaturalSheaf((0,), 1, 1.5),
    lambda: TwistSheaf(1.5, 0),
    lambda: TwistSheaf(1, Fraction(1, 2)),
    lambda: WindowEvaluator(1.5, 0, 1, {}),
    lambda: WindowEvaluator(1, 0, 1.5, {}),
    lambda: WindowEvaluator(1, 0, 1, {(0.5, 0): 1}),
    lambda: WindowEvaluator(1, 0, 1, {(0, 0.5): 0}),
    lambda: GradedOrder((1.5, 2)),
    lambda: ProductSpace((1.5,), ()),
    lambda: ProductSpace((1,), (((1.5,), 1),)),
    lambda: ProductSpace((1,), (((0,), 1.5),)),
    lambda: BettiTable({(1.5, 0): 1}),
    lambda: BettiTable({(0, 1.5): 1}),
    lambda: MultiBettiTable(1.5),
    lambda: MultiBettiTable(1, {(0, (1.5,)): 1}),
])
def test_non_integers_are_refused_not_truncated(build):
    with pytest.raises(ValidationError,
                       match=r"^not an integer: (1\.5|0\.5|1/2)$"):
        build()


# Every integer a value stores, as a function of the value given for it;
# 3 is a valid value in each place.
INTEGER_FIELDS = {
    "DegreeSequence.start": lambda x: DegreeSequence(x, (0, 1)),
    "DegreeSequence.degrees": lambda x: DegreeSequence(0, (0, x)),
    "CodimensionSequence.n": lambda x: CodimensionSequence(x, 0, 0, (), 0),
    "CodimensionSequence.window_start":
        lambda x: CodimensionSequence(1, 0, x, (1,), 1),
    "APiece.position": lambda x: APiece("free", x, 0),
    "APiece.gen_degree": lambda x: APiece("torsion", 0, x, 4),
    "APiece.socle_degree": lambda x: APiece("torsion", 0, 0, x),
    "SupernaturalSheaf.roots": lambda x: SupernaturalSheaf((x, 0), 1, 2),
    "SupernaturalSheaf.n": lambda x: SupernaturalSheaf((0,), 1, x),
    "TwistSheaf.n": lambda x: TwistSheaf(x, 0),
    "TwistSheaf.a": lambda x: TwistSheaf(1, x),
    "WindowEvaluator.dimension": lambda x: WindowEvaluator(x, 0, 5, {}),
    "WindowEvaluator.jmin": lambda x: WindowEvaluator(1, x, 5, {}),
    "WindowEvaluator.jmax": lambda x: WindowEvaluator(1, 0, x, {}),
    "WindowEvaluator.q": lambda x: WindowEvaluator(3, 0, 5, {(x, 0): 1}),
    "WindowEvaluator.j": lambda x: WindowEvaluator(3, 0, 5, {(0, x): 1}),
    "GradedOrder.weights": lambda x: GradedOrder((1, x)),
    "ProductSpace.factor_dims": lambda x: ProductSpace((x,), ()),
    "ProductSpace.twist": lambda x: ProductSpace((1,), (((x,), 1),)),
    "ProductSpace.mult": lambda x: ProductSpace((1,), (((0,), x),)),
    "BettiTable.i": lambda x: BettiTable({(x, 0): 1}),
    "BettiTable.j": lambda x: BettiTable({(0, x): 1}),
    "MultiBettiTable.m": lambda x: MultiBettiTable(x),
    "MultiBettiTable.i": lambda x: MultiBettiTable(1, {(x, (0,)): 1}),
    "MultiBettiTable.alpha": lambda x: MultiBettiTable(1, {(0, (x,)): 1}),
    "shift.k": lambda x: shift(T, x),
    "multi_pair.qmax": lambda x: multi_pair(M, P1, x),
}


def stored(value):
    """What value stores, in a repr that shows the type of each integer."""
    if isinstance(value, BettiTable):
        return repr((getattr(value, "m", None), value.items()))
    return repr(value)


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_one_integer_rule(field):
    # what int() reads is read; a bool, what int() would change, or what it
    # cannot read is refused before any check compares it (a qmax of None
    # is no cap, so it is not given there)
    build = INTEGER_FIELDS[field]
    for given in ("3", 3.0):
        assert stored(build(given)) == stored(build(3)), given
    refused = [1.5, True, "x", "1.5", float("inf"), float("nan")]
    for given in refused + [None] * (field != "multi_pair.qmax"):
        with pytest.raises(ValidationError,
                           match=f"^not an integer: {re.escape(str(given))}$"):
            build(given)


# Every integer sequence a value stores, as a function of the sequence given
# for it, and a valid sequence there.
SEQUENCE_FIELDS = {
    "DegreeSequence.degrees": (lambda x: DegreeSequence(0, x), (1, 2)),
    "SupernaturalSheaf.roots": (lambda x: SupernaturalSheaf(x, 1, 2), (2, 1)),
    "GradedOrder.weights": (lambda x: GradedOrder(x), (1, 2)),
    "MultiBettiTable.alpha": (MultiBettiTable(2).normalize_grade, (1, 2)),
    "ProductSpace.factor_dims": (lambda x: ProductSpace(x, ()), (1, 2)),
    "ProductSpace.twist": (lambda x: ProductSpace((1, 1), ((x, 1),)), (1, 2)),
}


@pytest.mark.parametrize("field", sorted(SEQUENCE_FIELDS))
def test_one_sequence_rule(field):
    # any iterable but a string is read item by item by the integer rule;
    # a string ("12" is not (1, 2)) or a non-iterable is refused
    build, (first, *rest) = SEQUENCE_FIELDS[field]
    valid = stored(build((first, *rest)))
    assert stored(build([str(first), *rest])) == valid
    assert stored(build(iter([first, *rest]))) == valid
    for given in ("12", 5):
        with pytest.raises(ValidationError, match="^not a sequence of "
                           f"integers: {re.escape(repr(given))}$"):
            build(given)


# Every rational a value stores, as a function of the value given for it.
RATIONAL_FIELDS = {
    "BettiTable.value": lambda x: BettiTable({(0, 0): x}),
    "MultiBettiTable.value": lambda x: MultiBettiTable(1, {(0, (0,)): x}),
    "linear_combine.coeff": lambda x: linear_combine([(x, T)]),
    "SupernaturalSheaf.rank_scale": lambda x: SupernaturalSheaf((0,), x, 1),
    "WindowEvaluator.value": lambda x: WindowEvaluator(1, 0, 1, {(0, 0): x}),
}


@pytest.mark.parametrize("field", sorted(RATIONAL_FIELDS))
def test_one_rational_rule(field):
    # a Fraction, an int or a "p" or "p/q" string is read; any other value
    # is refused as parse_rational refuses it, on every supported Python,
    # whatever Fraction() itself would read there
    build = RATIONAL_FIELDS[field]
    for given in ("3", Fraction(3)):
        assert stored(build(given)) == stored(build(3)), given
    assert stored(build("3/4")) == stored(build(Fraction(3, 4)))
    for given in (0.5, True, Decimal("0.5"), "1.5", "1e3", "+3", "1/0",
                  None):
        with pytest.raises(ParseError, match="not a rational of the form p "
                           f"or p/q: {re.escape(repr(given))}$"):
            build(given)


def test_repr_names_the_fields():
    assert repr(D) == "DegreeSequence(start=0, degrees=(0, 2))"
    assert repr(GradedOrder((1, 2))) == "GradedOrder(weights=(1, 2))"
    assert repr(Violation("euler_nonzero", value=Fraction(2))) == (
        "Violation(kind='euler_nonzero', i=None, j=None, "
        "value=Fraction(2, 1))")
    assert str(D) == "(0,2)@0"


def test_records_equal_their_field_tuples():
    assert D == (0, (0, 2))
    assert GradedOrder((1, 2)) == ((1, 2),)


def test_defaults():
    assert APiece("free", 0, 1).socle_degree is None
    assert Violation("euler_nonzero").i is None
    assert AVerdict(True).violations == []


def test_default_remainders_are_not_shared():
    first, second = Decomposition([]), Decomposition([])
    assert first.remainder == BettiTable() == second.remainder
    assert first.remainder is not second.remainder
    first_verdict, second_verdict = AVerdict(True), AVerdict(True)
    assert first_verdict.violations is not second_verdict.violations


@pytest.mark.parametrize("build, error, message", [
    (lambda: DegreeSequence(0, ()), ValidationError,
     "degree sequence needs at least one finite entry"),
    (lambda: DegreeSequence(0, (1, 1)), ValidationError,
     "degrees must strictly increase: 1 !< 1"),
    (lambda: CodimensionSequence(1, 3, 0, (), 3), ValidationError,
     "left fill: value 3 outside 0..2 and not inf"),
    (lambda: CodimensionSequence(1, 0, 0, ("x",), 1), ValidationError,
     "position 0: bad codimension value 'x'"),
    (lambda: CodimensionSequence(1, 2, 0, (1,), 2), ValidationError,
     "codimension sequence decreases from left fill (2) to position 0 (1)"),
    (lambda: CodimensionSequence(True, 0, 0, (), 0), ValidationError,
     "not an integer: True"),
    (lambda: CodimensionSequence(-1, 0, 0, (), 0), ValidationError,
     "ambient dimension must be >= 0, got -1"),
    (lambda: APiece("block", 0, 0), ValidationError,
     "unknown piece kind 'block'"),
    (lambda: APiece("torsion", 0, 2, 2), ValidationError,
     "torsion piece needs socle degree > 2, got 2"),
    (lambda: APiece("torsion", 0, "10", "9"), ValidationError,
     "torsion piece needs socle degree > 10, got 9"),
    (lambda: shift(T, 0.5), ValidationError, "not an integer: 0.5"),
    (lambda: multi_pair(M, P1, 1.5), ValidationError,
     "not an integer: 1.5"),
    (lambda: SupernaturalSheaf((0, 1), 1, 2), ValidationError,
     "roots must strictly decrease: 0 !> 1"),
    (lambda: SupernaturalSheaf((1, 0), 1, 1), ValidationError,
     "2 roots need ambient dimension >= 2, got 1"),
    (lambda: SupernaturalSheaf((0,), 0, 1), ValidationError,
     "rank scale must be positive, got 0"),
    (lambda: WindowEvaluator(-3, -5, 5, {}), ValidationError,
     "ambient dimension must be >= 0, got -3"),
    (lambda: GradedOrder(()), ValidationError,
     "order needs at least one weight"),
    (lambda: GradedOrder((1, 0)), ValidationError,
     "weights must be positive to refine the effective-cone order; got 0"),
    (lambda: ProductSpace((0,), ()), ValidationError,
     "factor dimensions must be >= 1: (0,)"),
    (lambda: ProductSpace((1,), (((0, 0), 1),)), ValidationError,
     "twist (0, 0) has rank 2, expected 1"),
    (lambda: ProductSpace((1,), (((0,), 0),)), ValidationError,
     "multiplicity must be >= 1: 0"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
