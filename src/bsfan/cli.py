"""Command-line front end, one row of COMMANDS per subcommand.

Every subcommand reads JSON (inline or from files), runs one library
operation, and writes either canonical JSON or a pretty rendering.  One
writer, _json, builds every JSON result and certificate from the value's
structure, so the library's records carry no serializers.  A row holds
the help line, the output flags, the options, the call (load the
arguments, run the library function) and the emitter (write the result,
return the exit code).  main reads a well-formed command line straight
from the row's options (_parse) and loads argparse only for help and
usage errors, building options only for the subcommands argv names; json
loads at the first read or write, and the call imports only the layer
modules it reaches, so a process pays for its own subcommand and nothing
else.  run is the process entry (the bsfan script and python -m
bsfan.cli); main(argv) is the in-process call and has no process-wide
side effect.  Exit codes: 0 for success / in-cone, 1 for a non-membership
verdict (the machine-readable certificate goes to stdout), 2 for
malformed input or usage errors (diagnostics go to stderr).
"""

import gc
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from .errors import BsfanError, MonadViolation, NotInCone, ParseError


def _layer(name):
    """The layer module name, imported on first use (by __import__ of the
    dotted name, which -X importtime lists, as import_module is not)."""
    return getattr(__import__(f"{__package__}.{name}"), name)


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
    if not all(re.fullmatch(_layer("tables")._INTEGER, part.strip())
               for part in parts):
        raise ParseError(f"expected comma-separated integers: {text!r}")
    return tuple(map(int, parts))


def _table(args):
    return _layer("tables").table_from_obj(_load_obj(args.table))


def _multi_table(args):
    return _layer("tables").table_from_obj(
        _load_obj(args.table), _layer("multigraded").MultiBettiTable)


def _codim(args):
    return _layer("sequences").CodimensionSequence.from_obj(
        _load_obj(args.codim))


def _rank_scale(args):
    return _layer("tables").parse_rational(args.rank_scale, "rank scale")


def _sheaf(args):
    evaluator = _layer("diagrams").evaluator_from_obj(_load_obj(args.sheaf))
    if args.n is not None and getattr(evaluator, "n", args.n) != args.n:
        raise ParseError(
            f"evaluator ambient {evaluator.n} does not match --n {args.n}")
    return evaluator


def _sheaves(args):
    sheaves = _layer("tables")._read(_load_obj(args.sheaves), [None], "--sheaves")
    return [_layer("diagrams").evaluator_from_obj(obj) for obj in sheaves]


def _multi_chi(args):
    multigraded = _layer("multigraded")
    table = _multi_table(args)
    order = multigraded.GradedOrder(_ints(args.weights))
    return multigraded.multi_chi(table, args.i, _ints(args.alpha), order)


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
        return _layer("tables").table_to_obj(value)
    else:
        return str(value)
    return {key: v if type(v) is int else _json(v)
            for key, v in pairs if v is not None}


def _emit(value):
    import json
    sys.stdout.write(json.dumps(_json(value), separators=(",", ":")) + "\n")


def _emit_json(obj, args):
    _emit(obj)
    return 0


def _emit_value(value, args):
    if args.format == "pretty":
        sys.stdout.write(f"{value}\n")
        return 0
    return _emit_json({"value": str(value)}, args)


def _emit_pretty(table, args):
    sys.stdout.write(_layer("tables").pretty_render(
        table, mark_origin=args.mark_origin) + "\n")
    return 0


def _emit_table(table, args):
    if args.format == "pretty":
        return _emit_pretty(table, args)
    return _emit_json(table, args)


def _verdict(verdict):
    """A one-variable verdict: its status, and on failure its violations."""
    if verdict.ok:
        return {"status": "pass"}
    return {"status": "fail", "violations": verdict.violations}


def _emit_verdict(verdict, args):
    _emit(_verdict(verdict))
    return 0 if verdict.ok else 1


def _emit_verdicts(verdicts, args):
    _emit({"verdicts": [_verdict(v) for v in verdicts]})
    return 0 if all(v.ok for v in verdicts) else 1


def _emit_blocks(pieces, args):
    return _emit_json({"pieces": [{"coeff": c, "piece": p}
                                  for c, p in pieces]}, args)


def _emit_decomposition(dec, args):
    if args.format != "pretty":
        return _emit_json(dec, args)
    tables, diagrams = _layer("tables"), _layer("diagrams")
    lines = []
    for idx, (coeff, d) in enumerate(dec.pieces, 1):
        lines.append(f"piece {idx}: coeff {coeff} along {d}")
        piece = tables.linear_combine([(coeff, diagrams.pure_diagram(d))])
        lines.append(tables.pretty_render(piece, mark_origin=args.mark_origin))
    if dec.remainder:
        lines.append("remainder:")
        lines.append(tables.pretty_render(dec.remainder,
                                          mark_origin=args.mark_origin))
    elif not dec.pieces:
        lines.append("(empty decomposition)")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _emit_window(sheaf, args):
    """The class's cohomology at q = 0..n and j = jmin..jmax, read one
    column per twist: JSON lists the nonzero cells, pretty fills a grid.
    The time taken follows the number of twists (and of grid cells), so
    more of them than a list can hold are refused."""
    check = _layer("tables")._check_writable
    twists = args.jmax - args.jmin + 1
    check(twists, f"window of {twists} twists")
    if args.format == "pretty":
        check((args.n + 1) * twists,
              f"pretty grid of {args.n + 1} rows by {twists} columns")
    js = range(args.jmin, args.jmax + 1)
    cells = sorted((q, j, v) for j in js for q, v in sheaf.column(j))
    if args.format != "pretty":
        return _emit_json({"entries": [{"q": q, "j": j, "value": str(v)}
                                       for q, j, v in cells]}, args)
    grid = {(q, j): str(v) for q, j, v in cells}
    lines = [" ".join(["j:".rjust(5)] + [str(j).rjust(6) for j in js])]
    lines += [" ".join([f"q={q}".rjust(5)]
                       + [grid.get((q, j), "-").rjust(6) for j in js])
              for q in range(args.n, -1, -1)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# A subcommand: its help line; flags, the output options its emitter
# reads; options, "--name" for a required string, with ":int" for an
# integer and "=default" for an optional one (an empty default is None);
# call, from the parsed namespace to the library's result; and emit, which
# writes the result and returns the exit code.
Command = namedtuple("Command", "help flags options call emit")
TABLE_OUT = ("format", "mark-origin")
VALUE_OUT = ("format",)

COMMANDS = {
    "pure": Command(
        "pure diagram of a degree sequence", TABLE_OUT,
        "--start:int=0 --degrees",
        lambda a: _layer("diagrams").pure_diagram(
            _layer("sequences").DegreeSequence(a.start, _ints(a.degrees))),
        _emit_table),
    "supernatural": Command(
        "cohomology window of a supernatural class", VALUE_OUT,
        "--roots --rank-scale=1 --n:int --jmin:int --jmax:int",
        lambda a: _layer("diagrams").SupernaturalSheaf(
            _ints(a.roots), _rank_scale(a), a.n),
        _emit_window),
    "pair": Command(
        "pair a table with a cohomology evaluator", TABLE_OUT,
        "--table --sheaf --n:int=",
        lambda a: _layer("pairing").pair(_table(a), _sheaf(a)), _emit_table),
    "chi": Command(
        "partial Euler characteristic chi_{i,j}", VALUE_OUT,
        "--table --i:int --j:int",
        lambda a: _layer("cone_a").chi(_table(a), a.i, a.j), _emit_value),
    "euler": Command(
        "total Euler characteristic", VALUE_OUT, "--table",
        lambda a: _layer("cone_a").euler(_table(a)), _emit_value),
    "check-a": Command(
        "cone membership over the one-variable ring", (), "--table --codim",
        lambda a: _layer("cone_a").membership_a(_table(a), _codim(a)),
        _emit_verdict),
    "decompose-a": Command(
        "block decomposition over the one-variable ring", (),
        "--table --codim",
        lambda a: _layer("cone_a").decompose_a(_table(a), _codim(a)),
        _emit_blocks),
    "decompose": Command(
        "greedy chain decomposition", TABLE_OUT, "--table --codim --n:int",
        lambda a: _layer("cone_s").decompose_s(_table(a), _codim(a), a.n),
        _emit_decomposition),
    "check": Command(
        "cone membership with certificate", (), "--table --codim --n:int",
        lambda a: {"status": "pass", "decomposition":
                   _layer("cone_s").decompose_s(_table(a), _codim(a), a.n)},
        _emit_json),
    "monad": Command(
        "split a free monad table", (), "--table --n:int",
        lambda a: _layer("cone_s").monad_split(_table(a), a.n), _emit_json),
    "infinite": Command(
        "stable prefix decomposition of a truncated resolution", TABLE_OUT,
        "--table --e:int --n:int",
        lambda a: _layer("cone_s").infinite_prefix(_table(a), a.e, a.n),
        _emit_decomposition),
    "es": Command(
        "separating functional value", VALUE_OUT,
        "--table --roots --rank-scale=1 --n:int --tau:int --kappa:int",
        lambda a: _layer("pairing").es_functional(
            _table(a), _ints(a.roots), _rank_scale(a), a.n, a.tau, a.kappa),
        _emit_value),
    "pair-check": Command(
        "pair against evaluators and check the target cone", (),
        "--table --sheaves --n:int",
        lambda a: _layer("pairing").pair_check(_table(a), _sheaves(a), a.n),
        _emit_verdicts),
    "dual": Command(
        "move (i, j) entries to (-i, -j)", TABLE_OUT, "--table",
        lambda a: _layer("tables").dual(_table(a)), _emit_table),
    "shift": Command(
        "homological shift by k", TABLE_OUT, "--table --k:int",
        lambda a: _layer("tables").shift(_table(a), a.k), _emit_table),
    "render": Command(
        "pretty-print a table", ("mark-origin",), "--table", _table,
        _emit_pretty),
    "multi-chi": Command(
        "multigraded partial Euler characteristic", VALUE_OUT,
        "--table --i:int --alpha --weights", _multi_chi, _emit_value),
    "multi-pair": Command(
        "pair a multigraded table with line bundles on a product of "
        "projective spaces", (), "--table --space --qmax:int=",
        lambda a: _layer("multigraded").multi_pair(
            _multi_table(a), _layer("multigraded").ProductSpace.from_obj(
                _load_obj(a.space)), a.qmax),
        _emit_json),
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
    the answer or certificate is written with none, then the limit returns."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser(argv).parse_args(argv)
    command = COMMANDS[args.command]
    limit = sys.get_int_max_str_digits()
    try:
        try:
            value = command.call(args)
        finally:
            sys.set_int_max_str_digits(0)
        return command.emit(value, args)
    except (NotInCone, MonadViolation) as exc:  # its failure certificate
        _emit(exc)
        return 1
    except (BsfanError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:  # each emitter builds its output before writing it
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
