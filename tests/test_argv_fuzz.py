"""Seeded fuzz of the command line itself, in process.

Each case starts from a valid argv of one subcommand, every option given,
some as --name value and some as --name=value, and applies one mutation:
drop, repeat or swap tokens, join a flag and its value with "=" or split
them, truncate the argv, or replace one value with "--", "-", "=", the
empty string, "-1", a huge integer, a non-ASCII string, or the path of
a missing file, a directory, a file of malformed JSON or a file that is
not UTF-8.  Every mutation is tried on every subcommand; the seed picks the
tokens.  Whatever the argv, main returns or exits with 0, 1 or 2 and no
other exception escapes; exit 1 writes one JSON line of a failure
certificate (an object with "status": "fail", or with a "verdicts" list
that holds one) and nothing to stderr, and exit 2 writes nothing to stdout
and a diagnostic to stderr.  The same contract holds both ways on every
subcommand's valid argv, in each output format it takes, on a failing
argv of each subcommand that can fail, and on a bare subcommand: exit 1
exactly when stdout is a failure certificate.  An argv byte that is not
UTF-8 reaches Python as a lone surrogate, which only a process's own
stderr can write (with backslashes), so those runs are spawned.

A huge integer may replace a value that sizes the output itself (the
supernatural window's --jmin, --jmax and --n): an output of more cells
than a list can hold is refused, not written.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bsfan.cli import COMMANDS, main
from helpers import (MONAD_TABLE, TENSOR_TABLE, TWO_STRAND_TABLE, T,
                     is_failure_certificate, serialize_table)

TABLE = serialize_table(TENSOR_TABLE)
MULTI = json.dumps({"m": 2, "entries": [
    {"i": 0, "alpha": [0, 0], "value": "1"},
    {"i": 1, "alpha": [1, 0], "value": "2"},
    {"i": 1, "alpha": [0, 1], "value": "2"},
    {"i": 2, "alpha": [1, 1], "value": "1"}]})
SPACE = json.dumps({"kind": "product", "dims": [1, 1],
                    "summands": [{"twist": [1, -1], "mult": 2}]})
TWIST = json.dumps({"kind": "twist", "n": 2, "a": 0})
SUPERNATURAL = json.dumps({"kind": "supernatural", "roots": [-1, -3],
                           "rank_scale": "2", "n": 2})
STAIRCASE = json.dumps({"n": 2, "left": "empty", "window_start": 0,
                        "window": [2, 2], "right": "inf"})
ONE_VARIABLE = json.dumps({"n": 0, "left": 0, "window_start": 1,
                           "right": 1})
BLOCKS = serialize_table(T({(0, 0): 1, (1, 2): 1, (0, 3): 1}))
TRUNCATION = json.dumps({"entries": [
    {"i": 0, "j": 0, "value": "1"}, {"i": 1, "j": 2, "value": "6"},
    {"i": 2, "j": 3, "value": "8"}, {"i": 3, "j": 4, "value": "3"}]})

VALID = {
    "pure": ["pure", "--start=-1", "--degrees", "0,2,3", "--format",
             "pretty", "--mark-origin"],
    "supernatural": ["supernatural", "--roots=-1,-3", "--rank-scale", "2",
                     "--n", "2", "--jmin", "-4", "--jmax", "1",
                     "--format=pretty"],
    "pair": ["pair", "--table", TABLE, "--sheaf=" + SUPERNATURAL, "--n",
             "2", "--format", "json", "--mark-origin"],
    "chi": ["chi", "--table", TABLE, "--i=1", "--j", "2", "--format",
            "pretty"],
    "euler": ["euler", "--table=" + TABLE, "--format", "json"],
    "check-a": ["check-a", "--table", BLOCKS, "--codim=" + ONE_VARIABLE],
    "decompose-a": ["decompose-a", "--table=" + BLOCKS, "--codim",
                    ONE_VARIABLE],
    "decompose": ["decompose", "--table", TABLE, "--codim=" + STAIRCASE,
                  "--n", "2", "--format", "pretty", "--mark-origin"],
    "check": ["check", "--table", TABLE, "--codim", STAIRCASE, "--n=2"],
    "monad": ["monad", "--table", serialize_table(MONAD_TABLE), "--n=4"],
    "infinite": ["infinite", "--table", TRUNCATION, "--e", "4", "--n=1",
                 "--format=pretty", "--mark-origin"],
    "es": ["es", "--table", TABLE, "--roots=-1,-3", "--rank-scale", "2",
           "--n", "2", "--tau", "1", "--kappa=2"],
    "pair-check": ["pair-check", "--table", TABLE,
                   "--sheaves=" + json.dumps([json.loads(TWIST)]),
                   "--n", "2"],
    "dual": ["dual", "--table=" + TABLE, "--format", "pretty",
             "--mark-origin"],
    "shift": ["shift", "--table", TABLE, "--k=-2", "--format", "json"],
    "render": ["render", "--mark-origin", "--table=" + TABLE],
    "multi-chi": ["multi-chi", "--table", MULTI, "--i", "1",
                  "--alpha=1,1", "--weights", "1,2", "--format", "json"],
    "multi-pair": ["multi-pair", "--table=" + MULTI, "--space", SPACE,
                   "--qmax", "1"],
}

CONST3 = json.dumps({"n": 2, "left": 3, "window_start": 0, "right": 3})
ALL_ONE = json.dumps({"n": 0, "left": 1, "window_start": 0, "right": 1})
SQUEEZED = serialize_table(T({(-2, 1): 2, (-1, 2): 11, (0, 3): 18,
                              (1, 4): 10}))
STUCK_TRUNCATION = serialize_table(T({(0, 0): 1, (4, 1): 1}))
# an argv of each subcommand that can exit 1, which does
FAILING = {
    "check-a": ["check-a", "--table", serialize_table(T({(0, 0): 1,
                                                         (1, 2): 2})),
                "--codim", ALL_ONE],
    "decompose-a": ["decompose-a", "--table", serialize_table(T({(1, 0): 1})),
                    "--codim", ALL_ONE],
    "decompose": ["decompose", "--table", serialize_table(TWO_STRAND_TABLE),
                  "--codim", CONST3, "--n", "2"],
    "check": ["check", "--table", serialize_table(TWO_STRAND_TABLE),
              "--codim", CONST3, "--n", "2"],
    "monad": ["monad", "--table", SQUEEZED, "--n", "4"],
    "infinite": ["infinite", "--table", STUCK_TRUNCATION, "--e", "4",
                 "--n", "1"],
    "pair-check": ["pair-check", "--table", serialize_table(TWO_STRAND_TABLE),
                   "--sheaves", json.dumps([
                       {"kind": "twist", "n": 2, "a": 0},
                       {"kind": "supernatural", "roots": [0, -8],
                        "rank_scale": "8", "n": 2}]), "--n", "2"],
}

HUGE = str(10 ** 30)
# a replaced value: a constant, or the path of a file kind (see paths)
REPLACE = ["--", "-", "=", "", "-1", HUGE, "é∞ü", "missing", "directory",
           "malformed", "latin-1"]
MUTATIONS = ["drop", "repeat", "swap", "join or split", "truncate",
             *(("replace", value) for value in REPLACE)]
DRAWS = 3


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "malformed.json").write_text('{"entries": [', encoding="utf-8")
    (root / "latin-1.json").write_bytes(b'{"entries": ["\xe9"]}')
    return {"missing": str(root / "missing.json"), "directory": str(root),
            "malformed": str(root / "malformed.json"),
            "latin-1": str(root / "latin-1.json")}


def values(argv):
    """(index, flag, prefix) of each option value in argv: prefix is
    "--name=" for a joined value and "" for a separate one."""
    found = []
    for at, token in enumerate(argv):
        flag, equals, _ = token.partition("=")
        if not token.startswith("--") or flag == "--mark-origin":
            continue
        if equals:
            found.append((at, flag, flag + "="))
        elif at + 1 < len(argv):
            found.append((at + 1, flag, ""))
    return found


def mutate(r, argv, mutation, paths):
    argv = list(argv)
    if mutation == "drop":
        del argv[r.randrange(len(argv))]
    elif mutation == "repeat":
        at = r.randrange(len(argv))
        argv.insert(at, argv[at])
    elif mutation == "swap":
        a, b = r.sample(range(len(argv)), 2)
        argv[a], argv[b] = argv[b], argv[a]
    elif mutation == "join or split":
        at, _, prefix = r.choice(values(argv))
        if prefix:
            argv[at:at + 1] = argv[at].split("=", 1)
        else:
            argv[at - 1:at + 1] = [f"{argv[at - 1]}={argv[at]}"]
    elif mutation == "truncate":
        argv = argv[:r.randrange(len(argv))]
    else:
        value = mutation[1]
        at, _, prefix = r.choice(values(argv))
        argv[at] = prefix + paths.get(value, value)
    return argv


def assert_contract(argv, code, out, err):
    """Exit 0, 1 or 2; exit 1 exactly when stdout is a failure
    certificate, with nothing on stderr; exit 2 with nothing on stdout and
    a diagnostic on stderr."""
    assert code in (0, 1, 2), (argv, code)
    assert (code == 1) == is_failure_certificate(out), (argv, code, out)
    if code in (0, 1):
        assert err == "", argv
    else:
        assert out == "" and err != "", argv


def in_formats(argv):
    """argv as given, and without its --format under each output format
    the subcommand takes."""
    bare, tokens = [], iter(argv)
    for token in tokens:
        if token == "--format":
            next(tokens)
        elif not token.startswith("--format="):
            bare.append(token)
    return [argv] + [bare + [f"--format={fmt}"] for fmt in ("json", "pretty")
                     if "format" in COMMANDS[argv[0]].flags]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_exit_code_follows_the_output(capsys, name):
    runs = [(argv, 0) for argv in in_formats(VALID[name])] + [([name], 2)]
    if name in FAILING:
        runs += [(argv, 1) for argv in in_formats(FAILING[name])]
    for argv, expected in runs:
        try:
            code = main(argv)
        except SystemExit as done:
            code = done.code
        out, err = capsys.readouterr()
        assert code == expected, (argv, code, out, err)
        assert_contract(argv, code, out, err)


def test_every_subcommand_has_a_valid_argv(capsys):
    assert set(VALID) == set(COMMANDS)
    for name, argv in VALID.items():
        assert main(argv) == 0, name
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", sorted(VALID))
def test_one_mutation_keeps_the_contract(capsys, paths, name):
    r = random.Random(f"argv-fuzz {name}")
    for mutation in MUTATIONS:
        for _ in range(DRAWS):
            argv = mutate(r, VALID[name], mutation, paths)
            try:
                code = main(argv)
            except SystemExit as done:
                code = done.code
            out, err = capsys.readouterr()
            assert_contract(argv, code, out, err)


@pytest.mark.parametrize("argv", [
    [b"euler", b"--table", b"\xe9"], [b"pure", b"--degrees", b"0,\xe9"],
    [b"pure", b"--degrees", b"0", b"--format", b"\xe9"]])
def test_undecodable_argv_byte_exits_two(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "bsfan.cli", *argv],
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"\\udce9" in proc.stderr and b"Traceback" not in proc.stderr
