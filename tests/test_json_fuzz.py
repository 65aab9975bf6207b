"""Seeded fuzz of every JSON input that the command line reads.

Each case takes a valid evaluator, table, multigraded table or
codimension sequence, changes one field (an object where another type
belongs, JSON true, a float, a string, a missing key, an unknown kind, an
empty or nested list, one element too many, or 10**30 in an integer field)
and runs the subcommands that read it, in process: pair --sheaf,
pair-check --sheaves and multi-pair --space for evaluators, chi and
decompose for tables, multi-chi and multi-pair for multigraded tables,
check-a and decompose for codimension sequences.  Every (field, change)
pair is tried; the seed picks the replacement values.  Whatever the input,
the exit code is 0, 1 or 2; 0 and 1 write one JSON line to stdout and
nothing to stderr, and 2 writes exactly one stderr line and no traceback.
A field whose valid value is a list or an object, given another JSON type,
always exits 2, and so does every object that writes one of its keys twice.

The comma-list options (--degrees of pure, --roots of supernatural and es,
--alpha and --weights of multi-chi) get the same contract: each part of a
list is an optional minus sign and digits, blanks around it allowed, and
a part changed to anything else ("1_0", "+3", "1.5", an empty part, ...)
exits 2 with one line; a part changed to another integer keeps the
contract whatever the subcommand answers.
"""

import copy
import json
import random

import pytest

from bsfan.cli import main

TABLE = json.dumps({"entries": [
    {"i": 0, "j": 0, "value": "1"}, {"i": 1, "j": 2, "value": "3"},
    {"i": 2, "j": 3, "value": "2"}]})
MULTI_TABLE = json.dumps({"m": 2, "entries": [
    {"i": 0, "alpha": [0, 0], "value": "1"},
    {"i": 1, "alpha": [1, 0], "value": "2"},
    {"i": 1, "alpha": [0, 1], "value": "2"},
    {"i": 2, "alpha": [1, 1], "value": "1"}]})
CODIM = json.dumps({"n": 0, "left": "empty", "window_start": 0,
                    "window": [0, 1], "right": 1})
SPACE = json.dumps({"kind": "product", "dims": [1, 1],
                    "summands": [{"twist": [1, -1]}]})

VALID = {
    "supernatural": {"kind": "supernatural", "roots": [1, -3],
                     "rank_scale": "2", "n": 2},
    "twist": {"kind": "twist", "n": 2, "a": 0},
    "window": {"kind": "window", "dim": 1, "jmin": -3, "jmax": 0,
               "entries": [{"q": 0, "j": 0, "value": "1"},
                           {"q": 1, "j": -2, "value": "3/2"}]},
    "product": {"kind": "product", "dims": [1, 2],
                "summands": [{"twist": [1, -1], "mult": 2},
                             {"twist": [0, 0]}]},
    "table": json.loads(TABLE),
    "multi-table": json.loads(MULTI_TABLE),
    "codim": json.loads(CODIM),
}


def _ints(value):
    return isinstance(value, list) and all(type(v) is int for v in value)


MISSING = object()   # the change that deletes the field
# change: (old value, rng) -> new value, or None where it does not apply
CHANGES = {
    "wrong-type": lambda old, r: (list(old) if isinstance(old, dict)
                                  else {"value": old}),
    "true": lambda old, r: True,
    "float": lambda old, r: r.choice([0.5, -2.0, 1e300]),
    "string": lambda old, r: r.choice(["", "x", "2", "1/0", "-1"]),
    "missing": lambda old, r: MISSING,
    "empty-list": lambda old, r: [],
    "nested-list": lambda old, r: [[old]],
    "extra-element": lambda old, r: (old + [r.randint(-4, 4)]
                                     if _ints(old) else None),
    "huge": lambda old, r: 10 ** 30 if type(old) is int else None,
    "huge-negative": lambda old, r: -10 ** 30 if type(old) is int else None,
}


def paths(value, prefix=()):
    """Every field of a decoded JSON value, as a path of keys and indices."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, prefix + (index,))


def mutants(seed):
    """(name, input kind, mutated input, whether a list or an object was
    given another JSON type) for every field and change."""
    r = random.Random(seed)
    for kind, valid in VALID.items():
        if "kind" in valid:
            yield (f"{kind}:kind:unknown-kind", kind,
                   dict(valid, kind="no-such-kind"), False)
        for path in paths(valid):
            for name, change in CHANGES.items():
                holder = {"value": copy.deepcopy(valid)}
                parent, key = holder, "value"
                for step in path:
                    parent, key = parent[key], step
                old = parent[key]
                new = change(old, r)
                if new is None or (new is MISSING and not path):
                    continue
                if new is MISSING:
                    del parent[key]
                else:
                    parent[key] = new
                retyped = (isinstance(old, (list, dict)) and new is not MISSING
                           and type(new) is not type(old))
                where = ".".join(map(str, path)) or "value"
                yield f"{kind}:{where}:{name}", kind, holder["value"], retyped


def repeated_key_text(valid, path):
    """JSON text of valid in which the object at path writes its first key
    twice, or None when the field at path is not a nonempty object."""
    holder = {"value": copy.deepcopy(valid)}
    parent, key = holder, "value"
    for step in path:
        parent, key = parent[key], step
    obj = parent[key]
    if not isinstance(obj, dict) or not obj:
        return None
    first = next(iter(obj))
    parent[key] = marker = "repeated-key-marker"
    repeated = ("{" + json.dumps({first: obj[first]})[1:-1] + ","
                + json.dumps(obj)[1:])
    return json.dumps(holder["value"]).replace(json.dumps(marker), repeated)


def argvs(kind, text):
    if kind == "table":
        return [["chi", "--table", text, "--i", "0", "--j", "1"],
                ["decompose", "--table", text, "--codim", CODIM, "--n", "0"]]
    if kind == "multi-table":
        return [["multi-chi", "--table", text, "--i", "0", "--alpha", "1,0",
                 "--weights", "1,2"],
                ["multi-pair", "--table", text, "--space", SPACE]]
    if kind == "codim":
        return [["check-a", "--table", TABLE, "--codim", text],
                ["decompose", "--table", TABLE, "--codim", text, "--n", "0"]]
    if kind == "product":
        return [["multi-pair", "--table", MULTI_TABLE, "--space", text]]
    return [["pair", "--table", TABLE, "--sheaf", text],
            ["pair-check", "--table", TABLE, "--sheaves", f"[{text}]",
             "--n", "2"]]


def test_valid_inputs_run(capsys):
    for kind, valid in VALID.items():
        for argv in argvs(kind, json.dumps(valid)):
            assert main(argv) in (0, 1), argv
            assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", [1, 2])
def test_every_one_field_change_keeps_the_contract(capsys, seed):
    codes = {}
    for name, kind, value, retyped in mutants(seed):
        for argv in argvs(kind, json.dumps(value)):
            code = main(argv)
            out, err = capsys.readouterr()
            codes[code] = codes.get(code, 0) + 1
            assert code in (0, 1, 2), (name, argv[0], code)
            assert code == 2 or not retyped, (name, argv[0], code)
            if code == 2:
                assert out == "" and err.startswith("error: "), name
                assert err.count("\n") == 1, (name, err)
                assert "Traceback" not in err, name
            else:
                assert err == "" and out.count("\n") == 1, (name, err)
                json.loads(out)
    # the changes reach both sides of the contract
    assert codes.get(2, 0) > 100 and codes.get(0, 0) > 10, codes


def test_every_repeated_key_exits_two(capsys):
    repeats = 0
    for kind, valid in VALID.items():
        for path in paths(valid):
            text = repeated_key_text(valid, path)
            if text is None:
                continue
            for argv in argvs(kind, text):
                assert main(argv) == 2, (kind, path, argv[0])
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: repeated key ")
                assert err.count("\n") == 1, err
                repeats += 1
    assert repeats > 20


# comma-list options: (argv before, option, valid value, argv after)
LISTS = [
    (["pure"], "--degrees", "0,2,3", []),
    (["supernatural"], "--roots", "1,-3",
     ["--n", "2", "--jmin", "-2", "--jmax", "2"]),
    (["es", "--table", TABLE], "--roots", "1,-3",
     ["--n", "2", "--tau", "1", "--kappa", "0"]),
    (["multi-chi", "--table", MULTI_TABLE, "--i", "0"], "--alpha", "1,0",
     ["--weights", "1,2"]),
    (["multi-chi", "--table", MULTI_TABLE, "--i", "0", "--alpha", "1,0"],
     "--weights", "1,2", []),
]
# part changes outside the integer grammar, each a function of the old
# part and the rng
BAD_PARTS = {
    "underscore": lambda old, r: f"{r.randint(1, 9)}_{r.randint(0, 9)}",
    "plus": lambda old, r: f"+{r.randint(0, 9)}",
    "float": lambda old, r: r.choice(["1.5", "-2.0", "1e3", ".5"]),
    "empty": lambda old, r: "",
    "letters": lambda old, r: r.choice(["x", "0x1", "inf", "nan"]),
    "fraction": lambda old, r: r.choice(["3/1", "1/2"]),
    "double-minus": lambda old, r: f"--{r.randint(0, 9)}",
    "inner-blank": lambda old, r: f"{r.randint(1, 9)} {r.randint(0, 9)}",
}
# part changes inside it
GOOD_PARTS = {
    "blanks": lambda old, r: f" {old} ",
    "leading-zero": lambda old, r: f"0{old.lstrip('-')}",
    "small": lambda old, r: str(r.randint(-9, 9)),
    "huge": lambda old, r: str(r.choice([10 ** 30, -10 ** 30])),
}


def list_mutants(seed):
    """(name, argv, whether the list leaves the integer grammar) for every
    option, part and change."""
    r = random.Random(seed)
    for head, option, valid, tail in LISTS:
        parts = valid.split(",")
        for index in range(len(parts)):
            for changes, bad in ((BAD_PARTS, True), (GOOD_PARTS, False)):
                for name, change in changes.items():
                    new = list(parts)
                    new[index] = change(parts[index], r)
                    value = ",".join(new)
                    yield (f"{head[0]}{option}[{index}]:{name}",
                           head + [f"{option}={value}"] + tail, bad)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_comma_list_change_keeps_the_contract(capsys, seed):
    codes = {}
    for name, argv, bad in list_mutants(seed):
        code = main(argv)
        out, err = capsys.readouterr()
        codes[code] = codes.get(code, 0) + 1
        assert code in (0, 1, 2), (name, code)
        assert code == 2 or not bad, (name, out)
        if code == 2:
            assert out == "" and err.startswith("error: "), name
            assert err.count("\n") == 1, (name, err)
            if bad:
                assert err.startswith("error: expected comma-separated "
                                      "integers: "), (name, err)
        else:
            assert err == "" and out.count("\n") == 1, (name, err)
            json.loads(out)
    assert codes.get(2, 0) > 50 and codes.get(0, 0) > 10, codes
