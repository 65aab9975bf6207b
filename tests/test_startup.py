"""What a bsfan process imports, and the lazy package namespace.

Each subcommand runs on a tiny valid input under `python -X importtime`,
whose stderr names every module imported by its dotted name (the CLI and
the package load layers that way).  A subcommand loads exactly the layer
modules its call reaches and never `dataclasses` or `inspect`, a
well-formed run never loads argparse (help and usage errors do), and
`import bsfan` loads no layer module.  Two lints read the sources: no
import goes unread, and every public name has a caller in src/.  Nothing
here asserts a time.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsfan
from test_cli_bytes import USAGE_ARGV

SRC = str(Path(__file__).resolve().parents[1] / "src")

TABLE = '{"entries":[{"i":0,"j":0,"value":"1"}]}'
EMPTY = '{"entries":[]}'
ALL_ONE = '{"n":0,"left":1,"right":1}'
FREE = '{"n":1,"left":0,"right":0}'
MULTI = '{"m":1,"entries":[{"i":0,"alpha":[0],"value":"1"}]}'
SPACE = '{"kind":"product","dims":[1],"summands":[{"twist":[0]}]}'
TWIST = '{"kind":"twist","n":1,"a":0}'

TABLES = {"errors", "tables"}
ONE_VARIABLE = TABLES | {"sequences", "cone_a"}
DIAGRAMS = TABLES | {"sequences", "diagrams"}
CHAINS = DIAGRAMS | {"cone_s"}
# decompose-a is the chain decomposition at n = 0
BLOCKS = ONE_VARIABLE | {"diagrams", "cone_s"}
PAIRING = DIAGRAMS | {"cone_a", "pairing"}
# pair, multi-chi and multi-pair reach neither the one-variable side nor
# the sequences: the chi loop lives in tables
PAIR = TABLES | {"diagrams", "pairing"}
MULTI_CHI = TABLES | {"diagrams", "multigraded"}
MULTI_PAIR = MULTI_CHI | {"pairing"}

FOOTPRINT = {
    "--help": (["--help"], {"errors"}),
    "pure": (["pure", "--degrees", "0,1"], DIAGRAMS),
    "supernatural": (["supernatural", "--roots", "0", "--n", "1",
                      "--jmin", "0", "--jmax", "1"], TABLES | {"diagrams"}),
    "pair": (["pair", "--table", TABLE, "--sheaf", TWIST], PAIR),
    "chi": (["chi", "--table", TABLE, "--i", "0", "--j", "0"], ONE_VARIABLE),
    "euler": (["euler", "--table", TABLE], ONE_VARIABLE),
    "check-a": (["check-a", "--table", EMPTY, "--codim", ALL_ONE],
                ONE_VARIABLE),
    "decompose-a": (["decompose-a", "--table", EMPTY, "--codim", ALL_ONE],
                    BLOCKS),
    "decompose": (["decompose", "--table", TABLE, "--codim", FREE,
                   "--n", "1"], CHAINS),
    "check": (["check", "--table", TABLE, "--codim", FREE, "--n", "1"],
              CHAINS),
    "monad": (["monad", "--table", TABLE, "--n", "1"], CHAINS),
    "infinite": (["infinite", "--table", EMPTY, "--e", "3", "--n", "1"],
                 CHAINS),
    "es": (["es", "--table", TABLE, "--roots", "0", "--n", "1",
            "--tau", "1", "--kappa", "0"], PAIRING),
    "pair-check": (["pair-check", "--table", EMPTY,
                    "--sheaves", f"[{TWIST}]", "--n", "1"], PAIRING),
    "dual": (["dual", "--table", TABLE], TABLES),
    "shift": (["shift", "--table", TABLE, "--k", "1"], TABLES),
    "render": (["render", "--table", TABLE], TABLES),
    "multi-chi": (["multi-chi", "--table", MULTI, "--i", "0",
                   "--alpha", "0", "--weights", "1"], MULTI_CHI),
    "multi-pair": (["multi-pair", "--table", MULTI, "--space", SPACE],
                   MULTI_PAIR),
}


def imported(*args):
    """Exit code and the names of the modules a python process imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


# what only help and usage errors load: argparse, the gettext it imports
# and the locale gettext imports for argparse's first translated string;
# and __future__, which no module needs
UNNEEDED = {"argparse", "gettext", "locale", "__future__"}


def layers(names):
    return {name[len("bsfan."):] for name in names
            if name.startswith("bsfan.")}


def test_every_subcommand_has_a_footprint_case():
    from bsfan.cli import COMMANDS
    assert set(FOOTPRINT) == set(COMMANDS) | {"--help"}


@pytest.mark.parametrize("name", sorted(FOOTPRINT))
def test_subcommand_imports_only_its_layers(name):
    argv, expected = FOOTPRINT[name]
    code, names = imported("-m", "bsfan.cli", *argv)
    assert code == 0
    assert "dataclasses" not in names and "inspect" not in names
    assert layers(names) == expected
    if name == "--help":
        assert "argparse" in names
    else:
        assert not names & UNNEEDED


# Runs that end in a failure certificate (exit 1) load no more than the
# layers their call reaches: writing the certificate imports nothing.
SQUEEZED = ('{"entries":[{"i":-2,"j":1,"value":"2"},{"i":-1,"j":2,"value":'
            '"11"},{"i":0,"j":3,"value":"18"},{"i":1,"j":4,"value":"10"}]}')
FAILURES = {
    "decompose-a": (["decompose-a", "--table", TABLE, "--codim", ALL_ONE],
                    BLOCKS),
    "check": (["check", "--table", TABLE, "--codim",
               '{"n":1,"left":2,"right":2}', "--n", "1"], CHAINS),
    "monad": (["monad", "--table", SQUEEZED, "--n", "4"], CHAINS),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_certificate_imports_only_its_layers(name):
    argv, expected = FAILURES[name]
    code, names = imported("-m", "bsfan.cli", *argv)
    assert code == 1
    assert layers(names) == expected
    assert not names & UNNEEDED


@pytest.mark.parametrize("name", sorted(USAGE_ARGV))
def test_usage_error_loads_argparse(name):
    code, names = imported("-m", "bsfan.cli", *USAGE_ARGV[name])
    assert code == 2
    assert "argparse" in names


def test_import_bsfan_loads_no_layer():
    code, names = imported("-c", "import bsfan")
    assert code == 0 and "bsfan" in names
    assert layers(names) == set()
    assert "dataclasses" not in names and "inspect" not in names


# the package's public names: every layer module and the names of it that
# the command line, its certificates or the README use
ALL = [
    "APiece", "AVerdict", "BettiTable", "BsfanError", "CodimensionSequence",
    "CohomologyEvaluator", "Decomposition", "DegreeSequence", "EMPTY",
    "EvaluatorRangeError", "GradedOrder", "INF", "MonadSplit",
    "MonadViolation", "MultiBettiTable", "NotInCone", "ParseError", "Piece",
    "ProductSpace", "SupernaturalSheaf", "TwistSheaf",
    "ValidationError", "Violation", "WindowEvaluator", "chi", "chi_window",
    "cone_a", "cone_s", "decompose_a", "decompose_s", "diagrams", "dual",
    "errors", "es_functional", "euler", "evaluator_from_obj",
    "infinite_prefix", "linear_combine", "membership_a",
    "monad_split", "multi_chi", "multi_pair", "multigraded", "pair",
    "pair_check", "pairing", "pretty_render", "pure_diagram",
    "pure_pair_support", "sequences", "shift", "table_from_obj",
    "table_to_obj", "tables",
]
LAYERS = ["cone_a", "cone_s", "diagrams", "errors", "multigraded",
          "pairing", "sequences", "tables"]


class TestLazyNamespace:
    def test_all_is_unchanged(self):
        assert bsfan.__all__ == ALL

    def test_names_resolve_to_their_home_objects(self):
        for name in ALL:
            value = getattr(bsfan, name)
            if name in LAYERS:
                assert value is importlib.import_module(f"bsfan.{name}")
                continue
            # the string constants EMPTY and INF live in sequences
            home = getattr(value, "__module__", "bsfan.sequences")
            assert getattr(importlib.import_module(home), name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from bsfan import *", namespace)
        assert set(ALL) <= set(namespace)

    def test_dir_lists_the_names(self):
        assert set(ALL) <= set(dir(bsfan))
        assert "__version__" in dir(bsfan)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bsfan.no_such_name
        assert not hasattr(bsfan, "build_parser")

    def test_cli_submodule_imports(self):
        from bsfan import cli
        assert callable(cli.main) and cli.__name__ == "bsfan.cli"


def test_no_module_holds_a_float():
    # exact arithmetic only: not even an infinite sentinel is a float
    for name in LAYERS + ["cli"]:
        module = importlib.import_module(f"bsfan.{name}")
        floats = [attr for attr, value in vars(module).items()
                  if isinstance(value, float)]
        assert floats == [], name


def unread_imports(source):
    """Names an import in source binds that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unread_imports_are_found():
    assert unread_imports("import os, sys as s\nfrom a.b import c\n"
                          "from __future__ import annotations\n"
                          "print(os.sep)") == ["annotations", "c", "s"]


def test_no_module_binds_an_unread_import():
    for path in sorted(Path(SRC, "bsfan").glob("*.py")):
        assert unread_imports(path.read_text(encoding="utf-8")) == [], \
            path.name


# public API that src/ does not use yet, with the reason it stays
UNCALLED = {"pure_pair_support": "ROADMAP item 5 may generate candidate "
                                 "roots with it"}


def uncalled(trees):
    """The names of bsfan.__all__, module names aside, that the sources
    read neither as a name nor as an attribute, and the public methods and
    properties of the classes they define that they never read as an
    attribute.  A definition (def, class, assignment) reads nothing, and
    _EXPORTS names the public API in strings, so neither counts as a use."""
    names, attributes, methods = set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
            elif isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    exports = {name for name in bsfan.__all__ if name not in LAYERS}
    return (exports - names - attributes) | (methods - attributes)


def test_uncalled_methods_are_found():
    found = uncalled([ast.parse(
        "class A:\n    def f(self): pass\n"
        "    @property\n    def g(self): return self.f()\n"
        "    def _h(self): pass\n"
        "g = 1\nprint(g)\n")])
    assert "g" in found and "f" not in found and "_h" not in found


def test_every_public_name_has_a_caller_in_src():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(SRC, "bsfan").glob("*.py"))]
    assert uncalled(trees) == set(UNCALLED)
