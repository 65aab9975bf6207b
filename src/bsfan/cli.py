"""Command-line front end, one row of COMMANDS per subcommand.

Every subcommand reads JSON (inline or from files), runs one library
operation, and writes either canonical JSON or a pretty rendering.  A row
holds the help line, the output flags, the options, the call (load the
arguments, run the library function) and the renderer of its result, if
it has one.  main writes the rendered text under --format pretty (always,
for a row without --format); every other result and certificate goes to
the one writer, _emit_json, as one line built by _json from the value's
structure, so the library's records carry no serializers.  main reads a
well-formed command line straight from the row's options (_parse) and
loads argparse only for help and usage errors, building options only for
the subcommands argv names; json loads at the first read or write, and
the call reaches each layer as bsfan.<layer>, which the package imports
on first use, so a process pays for its own subcommand and nothing else.
run is the process entry (the bsfan script and python -m bsfan.cli);
main(argv) is the in-process call and has no process-wide side effect.
Exit codes: 0 for success / in-cone, 1 when _emit_json wrote a failure
certificate, 2 for malformed input or usage errors (diagnostics go to
stderr).
"""

import gc
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

import bsfan
from .errors import (BsfanError, MonadViolation, NotInCone, ParseError,
                     ValidationError)


def _unique_keys(pairs):
    """A decoded JSON object as a dict; a key given twice is an error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(f"repeated key {key!r} in a JSON object")
    return obj


def _load_obj(arg):
    import json
    text = arg.strip()
    inline = text.startswith("{") or text.startswith("[")
    if not inline:
        try:
            with open(arg, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {arg}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        where = "inline JSON" if inline else f"JSON in {arg}"
        raise ParseError(f"malformed {where}: {exc}") from exc


def _ints(text):
    """Comma-separated integers, each in parse_rational's grammar."""
    parts = text.split(",")
    if not all(re.fullmatch(bsfan.tables._INTEGER, part.strip())
               for part in parts):
        raise ParseError(f"expected comma-separated integers: {text!r}")
    return tuple(map(int, parts))


def _table(args):
    return bsfan.tables.table_from_obj(_load_obj(args.table))


def _multi_table(args):
    return bsfan.tables.table_from_obj(
        _load_obj(args.table), bsfan.multigraded.MultiBettiTable)


def _codim(args):
    return bsfan.sequences.CodimensionSequence.from_obj(
        _load_obj(args.codim))


def _rank_scale(args):
    return bsfan.tables.parse_rational(args.rank_scale, "rank scale")


def _sheaf(args):
    evaluator = bsfan.diagrams.evaluator_from_obj(_load_obj(args.sheaf))
    if args.n is not None and getattr(evaluator, "n", args.n) != args.n:
        raise ParseError(
            f"evaluator ambient {evaluator.n} does not match --n {args.n}")
    return evaluator


def _sheaves(args):
    sheaves = bsfan.tables._read(_load_obj(args.sheaves), [None], "--sheaves")
    return [bsfan.diagrams.evaluator_from_obj(obj) for obj in sheaves]


def _multi_chi(args):
    table = _multi_table(args)
    order = bsfan.multigraded.GradedOrder(_ints(args.weights))
    return {"value": bsfan.multigraded.multi_chi(
        table, args.i, _ints(args.alpha), order)}


def _json(value):
    """JSON of a result or certificate, by its structure.  A record (a
    namedtuple) is the object of its fields, a dict keeps its keys, and an
    error is {"status": "fail", "message"} then its attributes; all three
    leave out values that are None.  A list or tuple is a list, a table is
    table_to_obj, an int or str is itself, anything else (a Fraction) its
    string."""
    kind = type(value)
    if kind is int or kind is str:
        return value
    if kind is list or kind is tuple:
        return [v if type(v) is int else _json(v) for v in value]
    if kind is dict:
        pairs = value.items()
    elif isinstance(value, tuple):  # a namedtuple
        pairs = zip(kind._fields, value)
    elif isinstance(value, BsfanError):
        pairs = [("status", "fail"), ("message", str(value)),
                 *vars(value).items()]
    elif hasattr(kind, "HEADER"):
        return bsfan.tables.table_to_obj(value)
    else:
        return str(value)
    return {key: v if type(v) is int else _json(v)
            for key, v in pairs if v is not None}


def _emit_json(value):
    """Write the canonical JSON line of value and return the exit code: 1
    when the object written is a failure certificate, an object with
    "status": "fail" or with a "verdicts" list that holds one, else 0."""
    import json
    obj = _json(value)
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    verdicts = [obj, *obj.get("verdicts", ())] if type(obj) is dict else ()
    return int(any(v.get("status") == "fail" for v in verdicts))


def _verdict(verdict):
    """A one-variable verdict: its status, and on failure its violations."""
    if verdict.ok:
        return {"status": "pass"}
    return {"status": "fail", "violations": verdict.violations}


def _window(args):
    """The supernatural class's cohomology at q = 0..n and j = jmin..jmax,
    read one column per twist: its nonzero cells in (q, j) order.  The
    time taken follows the number of twists (and of the pretty grid's
    cells), so more of them than a list can hold are refused."""
    sheaf = bsfan.diagrams.SupernaturalSheaf(_ints(args.roots),
                                             _rank_scale(args), args.n)
    check = bsfan.tables._check_writable
    twists = args.jmax - args.jmin + 1
    if twists < 1:  # as a window with this range is refused
        raise ValidationError(f"empty declared range [{args.jmin}, {args.jmax}]")
    check(twists, "window of {} twists", twists)
    if args.format == "pretty":
        check((args.n + 1) * twists, "pretty grid of {} rows by {} columns",
              args.n + 1, twists)
    cells = sorted((q, j, v) for j in range(args.jmin, args.jmax + 1)
                   for q, v in sheaf.column(j))
    return {"entries": [{"q": q, "j": j, "value": v} for q, j, v in cells]}


def _pretty_window(window, args):
    """The window's grid: q = n down to 0 by j = jmin..jmax, "-" for 0."""
    js = range(args.jmin, args.jmax + 1)
    grid = {(e["q"], e["j"]): str(e["value"]) for e in window["entries"]}
    lines = [" ".join(["j:".rjust(5)] + [str(j).rjust(6) for j in js])]
    lines += [" ".join([f"q={q}".rjust(5)]
                       + [grid.get((q, j), "-").rjust(6) for j in js])
              for q in range(args.n, -1, -1)]
    return "\n".join(lines)


def _pretty_table(table, args):
    return bsfan.tables.pretty_render(table, mark_origin=args.mark_origin)


def _pretty_value(result, args):
    return str(result["value"])


def _pretty_decomposition(dec, args):
    lines = []
    for idx, (coeff, d) in enumerate(dec.pieces, 1):
        lines.append(f"piece {idx}: coeff {coeff} along {d}")
        lines.append(_pretty_table(bsfan.tables.linear_combine(
            [(coeff, bsfan.diagrams.pure_diagram(d))]), args))
    if dec.remainder:
        lines += ["remainder:", _pretty_table(dec.remainder, args)]
    elif not dec.pieces:
        lines.append("(empty decomposition)")
    return "\n".join(lines)


# A subcommand: its help line; flags, the output options it reads;
# options, "--name" for a required string, with ":int" for an integer and
# "=default" for an optional one (an empty default is None); call, from
# the parsed namespace to the result; and pretty, the renderer of that
# result, (result, args) -> text, used under --format pretty and by a row
# without --format, or None for a row that writes JSON only.
Command = namedtuple("Command", "help flags options call pretty")
TABLE_OUT = ("format", "mark-origin")
VALUE_OUT = ("format",)

COMMANDS = {
    "pure": Command(
        "pure diagram of a degree sequence", TABLE_OUT,
        "--start:int=0 --degrees",
        lambda a: bsfan.diagrams.pure_diagram(
            bsfan.sequences.DegreeSequence(a.start, _ints(a.degrees))),
        _pretty_table),
    "supernatural": Command(
        "cohomology window of a supernatural class", VALUE_OUT,
        "--roots --rank-scale=1 --n:int --jmin:int --jmax:int",
        _window, _pretty_window),
    "pair": Command(
        "pair a table with a cohomology evaluator", TABLE_OUT,
        "--table --sheaf --n:int=",
        lambda a: bsfan.pairing.pair(_table(a), _sheaf(a)), _pretty_table),
    "chi": Command(
        "partial Euler characteristic chi_{i,j}", VALUE_OUT,
        "--table --i:int --j:int",
        lambda a: {"value": bsfan.cone_a.chi(_table(a), a.i, a.j)},
        _pretty_value),
    "euler": Command(
        "total Euler characteristic", VALUE_OUT, "--table",
        lambda a: {"value": bsfan.cone_a.euler(_table(a))}, _pretty_value),
    "check-a": Command(
        "cone membership over the one-variable ring", (), "--table --codim",
        lambda a: _verdict(bsfan.cone_a.membership_a(_table(a), _codim(a))),
        None),
    "decompose-a": Command(
        "block decomposition over the one-variable ring", (),
        "--table --codim",
        lambda a: {"pieces": [{"coeff": c, "piece": p} for c, p in
                              bsfan.cone_a.decompose_a(_table(a), _codim(a))]},
        None),
    "decompose": Command(
        "greedy chain decomposition", TABLE_OUT, "--table --codim --n:int",
        lambda a: bsfan.cone_s.decompose_s(_table(a), _codim(a), a.n),
        _pretty_decomposition),
    "check": Command(
        "cone membership with certificate", (), "--table --codim --n:int",
        lambda a: {"status": "pass", "decomposition":
                   bsfan.cone_s.decompose_s(_table(a), _codim(a), a.n)},
        None),
    "monad": Command(
        "split a free monad table", (), "--table --n:int",
        lambda a: bsfan.cone_s.monad_split(_table(a), a.n), None),
    "infinite": Command(
        "stable prefix decomposition of a truncated resolution", TABLE_OUT,
        "--table --e:int --n:int",
        lambda a: bsfan.cone_s.infinite_prefix(_table(a), a.e, a.n),
        _pretty_decomposition),
    "es": Command(
        "separating functional value", VALUE_OUT,
        "--table --roots --rank-scale=1 --n:int --tau:int --kappa:int",
        lambda a: {"value": bsfan.pairing.es_functional(
            _table(a), _ints(a.roots), _rank_scale(a), a.n, a.tau, a.kappa)},
        _pretty_value),
    "pair-check": Command(
        "pair against evaluators and check the target cone", (),
        "--table --sheaves --n:int",
        lambda a: {"verdicts": [_verdict(v) for v in bsfan.pairing.pair_check(
            _table(a), _sheaves(a), a.n)]},
        None),
    "dual": Command(
        "move (i, j) entries to (-i, -j)", TABLE_OUT, "--table",
        lambda a: bsfan.tables.dual(_table(a)), _pretty_table),
    "shift": Command(
        "homological shift by k", TABLE_OUT, "--table --k:int",
        lambda a: bsfan.tables.shift(_table(a), a.k), _pretty_table),
    "render": Command(
        "pretty-print a table", ("mark-origin",), "--table", _table,
        _pretty_table),
    "multi-chi": Command(
        "multigraded partial Euler characteristic", VALUE_OUT,
        "--table --i:int --alpha --weights", _multi_chi, _pretty_value),
    "multi-pair": Command(
        "pair a multigraded table with line bundles on a product of "
        "projective spaces", (), "--table --space --qmax:int=",
        lambda a: bsfan.multigraded.multi_pair(
            _multi_table(a), bsfan.multigraded.ProductSpace.from_obj(
                _load_obj(a.space)), a.qmax),
        None),
}

# argparse's own negative-number pattern, widened to comma lists such as
# -1,-2, so that they are read as option values and not as options.
NEGATIVE_VALUE = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")


def _options(command):
    """Each option of a row's option string: its flag, its dest, whether
    its value is an integer, whether it is required, and its default."""
    for option in command.options.split():
        flag, optional, default = option.partition("=")
        flag, _, kind = flag.partition(":")
        yield (flag, flag[2:].replace("-", "_"), kind == "int", not optional,
               default or None)


def _parse(argv):
    """The namespace build_parser().parse_args(argv) returns, read
    without argparse; None unless argv is a subcommand followed by each of
    its options at most once, as --name value or --name=value (a flag
    alone), with every value valid and every required option present.  A
    separate value must not look like an option: it starts with no "-"
    or is a NEGATIVE_VALUE."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if flag in given:
            return None
        if flag == "--mark-origin":
            if equals:
                return None
            value = True
        elif not equals:
            value = next(tokens, "-")  # a missing value fails as "-" does
            if value.startswith("-") and not NEGATIVE_VALUE.match(value):
                return None
        elif value == "--":  # argparse drops it, leaving no value
            return None
        given[flag] = value
    args = {"command": argv[0]}
    if "format" in command.flags:
        args["format"] = given.pop("--format", "json")
        if args["format"] not in ("json", "pretty"):
            return None
    if "mark-origin" in command.flags:
        args["mark_origin"] = given.pop("--mark-origin", False)
    for flag, dest, is_int, required, default in _options(command):
        if required and flag not in given:
            return None
        value = given.pop(flag, default)
        if is_int and value is not None:
            try:
                value = int(value)
            except ValueError:
                return None
        args[dest] = value
    return None if given else SimpleNamespace(**args)


def build_parser(argv=None):
    """The parser that prints help and usage errors.  It names every
    subcommand with its help line, and gives options only to those that
    argv names (all of them when argv is None): argparse picks a
    subcommand by its exact name, so no other one can parse argv."""
    import argparse

    class Store(argparse.Action):
        """argparse's store, except that --name=-- is a missing value:
        argparse drops the "--" and would store an empty list."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                parser.error(
                    f"argument {option_string}: expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="bsfan",
        description="Exact computations with Betti tables: pure diagrams, "
                    "cohomology pairings, cone membership and chain "
                    "decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(COMMANDS if argv is None else argv)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help,
                                   add_help=name in named)
        if name not in named:
            continue
        subparser._negative_number_matcher = NEGATIVE_VALUE
        if "format" in command.flags:
            subparser.add_argument("--format", choices=("json", "pretty"),
                                   default="json", action=Store)
        if "mark-origin" in command.flags:
            subparser.add_argument(
                "--mark-origin", action="store_true",
                help="decorate the origin cell in pretty output")
        for flag, _, is_int, required, default in _options(command):
            subparser.add_argument(flag, type=int if is_int else None,
                                   required=required, default=default,
                                   action=Store)
    return parser


def main(argv=None):
    """Run one subcommand and return its exit code.  A well-formed argv is
    read by _parse; any other (help, a usage error, an abbreviated or
    repeated option) goes to argparse, which prints help and usage errors
    and exits.  The input is read under the interpreter's int digit limit;
    the answer or certificate is written with none, then the limit
    returns."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser(argv).parse_args(argv)
    command = COMMANDS[args.command]
    limit = sys.get_int_max_str_digits()
    try:
        try:
            value = command.call(args)
            pretty = getattr(args, "format", "pretty") == "pretty"
        except (NotInCone, MonadViolation) as exc:  # its failure certificate
            value, pretty = exc, False
        finally:
            sys.set_int_max_str_digits(0)
        if not (pretty and command.pretty):
            return _emit_json(value)
        sys.stdout.write(command.pretty(value, args) + "\n")
        return 0
    except (BsfanError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:  # each output is built before it is written
        sys.stderr.write("error: out of memory\n")
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def run():
    """The process entry: freeze every object made so far (the interpreter,
    site and this module) into the permanent generation, which no
    collection walks, not even the one at shutdown, then exit with main's
    code.  The operating system frees the frozen heap; streams are still
    flushed and atexit still runs."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
