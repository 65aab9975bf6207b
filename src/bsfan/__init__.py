"""Exact rational computations with Betti tables and cohomology tables:
pure diagrams, the table-level pairing, separating functionals, cone
membership with certificates, greedy chain decompositions, monad splitting,
infinite-resolution prefixes, and multigraded analogues.

The package exports what the command line, its certificates and the
README use; test oracles and fixtures live with the tests.  The public
names resolve on first use (PEP 562): `import bsfan` loads no layer
module, and `bsfan.chi` loads cone_a and what it imports.
"""

_EXPORTS = {
    "cone_a": "APiece AVerdict Violation chi chi_window decompose_a euler "
              "membership_a",
    "cone_s": "Decomposition MonadSplit decompose_s infinite_prefix "
              "monad_split",
    "diagrams": "CohomologyEvaluator SupernaturalSheaf TwistSheaf "
                "WindowEvaluator evaluator_from_obj pure_diagram",
    "errors": "BsfanError EvaluatorRangeError MonadViolation NotInCone "
              "ParseError ValidationError",
    "multigraded": "GradedOrder MultiBettiTable ProductSpace multi_chi "
                   "multi_pair",
    "pairing": "es_functional pair pair_check pure_pair_support",
    "sequences": "EMPTY INF CodimensionSequence DegreeSequence Piece",
    "tables": "BettiTable dual linear_combine pretty_render shift "
              "table_from_obj table_to_obj",
}
# name -> home module; each layer module is also exported under its name
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in [module, *names.split()]}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = getattr(__import__(f"{__name__}.{home}"), home)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
