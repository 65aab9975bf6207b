"""Value semantics of the record classes: equality, hashing, immutability,
repr, validation messages and the keyword constructions the code uses.

The records are collections.namedtuple subclasses, so an instance also
compares equal to the plain tuple of its fields.
"""

from fractions import Fraction

import pytest

from bsfan.cone_a import APiece, AVerdict, Violation
from bsfan.cone_s import Decomposition, MonadSplit
from bsfan.diagrams import SupernaturalSheaf, TwistSheaf, WindowEvaluator
from bsfan.errors import ValidationError
from bsfan.multigraded import GradedOrder, MultiBettiTable, ProductSpace
from bsfan.sequences import CodimensionSequence, DegreeSequence
from bsfan.tables import BettiTable

T = BettiTable({(0, 0): 1})
U = BettiTable({(1, 2): 3})
D = DegreeSequence(0, (0, 2))


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
    (lambda: CodimensionSequence(True, 0, 0, (), 0), TypeError,
     "n and window_start must be integers, got True and 0"),
    (lambda: CodimensionSequence(-1, 0, 0, (), 0), ValidationError,
     "ambient dimension must be >= 0, got -1"),
    (lambda: APiece("block", 0, 0), ValidationError,
     "unknown piece kind 'block'"),
    (lambda: APiece("torsion", 0, 2, 2), ValidationError,
     "torsion piece needs socle degree > 2, got 2"),
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
