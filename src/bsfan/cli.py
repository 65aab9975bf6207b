"""Command-line front end.

Every subcommand reads JSON (inline or from files), runs one library
operation, and writes either canonical JSON or a pretty rendering.  Exit
codes: 0 for success / in-cone, 1 for a non-membership verdict (the
machine-readable certificate goes to stdout), 2 for malformed input or
usage errors (diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import cone_a, cone_s, multigraded, pairing, tables
from .diagrams import (SupernaturalEvaluator, SupernaturalSheaf,
                       evaluator_from_obj, pure_diagram, supernatural_gamma)
from .errors import BsfanError, MonadViolation, NotInCone, ParseError
from .multigraded import GradedOrder, MultiBettiTable, ProductSpace
from .sequences import DegreeSequence, validate_codim_sequence
from .tables import parse_rational


def _load_obj(arg):
    text = arg.strip()
    if text.startswith("{") or text.startswith("["):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed inline JSON: {exc}") from exc
    try:
        with open(arg, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {arg}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {arg}: {exc}") from exc


def _load_table(arg, cls=tables.BettiTable):
    return tables.table_from_obj(_load_obj(arg), cls)


def _load_codim(arg):
    return validate_codim_sequence(_load_obj(arg))


def _ints(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers: {text!r}") from exc


# argparse's own negative-number pattern, widened to comma lists such as
# -1,-2, so that they are read as option values and not as options.
NEGATIVE_VALUE = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")


def _emit(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _emit_value(value, fmt):
    if fmt == "pretty":
        sys.stdout.write(f"{value}\n")
    else:
        _emit({"value": str(value)})


def _emit_table(table, args):
    if args.format == "pretty":
        sys.stdout.write(
            tables.pretty_render(table, mark_origin=args.mark_origin) + "\n")
    else:
        _emit(tables.table_to_obj(table))


def _emit_decomposition(dec, args):
    if args.format == "pretty":
        lines = []
        for idx, (coeff, d) in enumerate(dec.pieces, 1):
            lines.append(f"piece {idx}: coeff {coeff} along {d}")
            piece = tables.linear_combine([(coeff, pure_diagram(d))])
            lines.append(tables.pretty_render(piece, mark_origin=args.mark_origin))
        if dec.remainder:
            lines.append("remainder:")
            lines.append(tables.pretty_render(dec.remainder,
                                              mark_origin=args.mark_origin))
        elif not dec.pieces:
            lines.append("(empty decomposition)")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(dec.to_obj())


def _cmd_pure(args):
    d = DegreeSequence(args.start, _ints(args.degrees))
    _emit_table(pure_diagram(d), args)
    return 0


def _cmd_supernatural(args):
    sheaf = SupernaturalSheaf(_ints(args.roots),
                              parse_rational(args.rank_scale, "rank scale"),
                              args.n)
    entries = []
    for q in range(args.n + 1):
        for j in range(args.jmin, args.jmax + 1):
            value = supernatural_gamma(sheaf, q, j)
            if value:
                entries.append((q, j, value))
    if args.format == "pretty":
        lines = [
            " ".join([f"q={q}".rjust(5)]
                     + [str(supernatural_gamma(sheaf, q, j) or "-").rjust(6)
                        for j in range(args.jmin, args.jmax + 1)])
            for q in range(args.n, -1, -1)
        ]
        header = " ".join(["j:".rjust(5)]
                          + [str(j).rjust(6)
                             for j in range(args.jmin, args.jmax + 1)])
        sys.stdout.write("\n".join([header] + lines) + "\n")
    else:
        _emit({"entries": [{"q": q, "j": j, "value": str(v)}
                           for q, j, v in entries]})
    return 0


def _cmd_pair(args):
    table = _load_table(args.table)
    evaluator = evaluator_from_obj(_load_obj(args.sheaf))
    if args.n is not None and isinstance(evaluator, SupernaturalEvaluator):
        if evaluator.sheaf.n != args.n:
            raise ParseError(
                f"evaluator ambient {evaluator.sheaf.n} does not match "
                f"--n {args.n}")
    _emit_table(pairing.pair(table, evaluator), args)
    return 0


def _cmd_chi(args):
    _emit_value(cone_a.chi(_load_table(args.table), args.i, args.j), args.format)
    return 0


def _cmd_euler(args):
    _emit_value(cone_a.euler(_load_table(args.table)), args.format)
    return 0


def _cmd_check_a(args):
    verdict = cone_a.membership_a(_load_table(args.table), _load_codim(args.codim))
    _emit(verdict.to_obj())
    return 0 if verdict.ok else 1


def _cmd_decompose_a(args):
    pieces = cone_a.decompose_a(_load_table(args.table),
                                _load_codim(args.codim))
    _emit({"pieces": [{"coeff": str(c), "piece": p.to_obj()}
                      for c, p in pieces]})
    return 0


def _cmd_decompose(args):
    dec = cone_s.decompose_s(_load_table(args.table), _load_codim(args.codim),
                             args.n)
    _emit_decomposition(dec, args)
    return 0


def _cmd_check(args):
    verdict = cone_s.membership_s(_load_table(args.table),
                                  _load_codim(args.codim), args.n)
    _emit(verdict.to_obj())
    return 0 if verdict.ok else 1


def _cmd_monad(args):
    try:
        split = cone_s.monad_split(_load_table(args.table), args.n)
    except MonadViolation as exc:
        obj = {"status": "fail", "message": str(exc)}
        if exc.e_table is not None:
            obj["e_column"] = tables.table_to_obj(exc.e_table)
        _emit(obj)
        return 1
    _emit(split.to_obj())
    return 0


def _cmd_infinite(args):
    dec = cone_s.infinite_prefix(_load_table(args.table), args.e, args.n)
    _emit_decomposition(dec, args)
    return 0


def _cmd_es(args):
    value = pairing.es_functional(
        _load_table(args.table), _ints(args.roots),
        parse_rational(args.rank_scale, "rank scale"), args.n,
        args.tau, args.kappa)
    _emit_value(value, args.format)
    return 0


def _cmd_pair_check(args):
    table = _load_table(args.table)
    sheaves = _load_obj(args.sheaves)
    if not isinstance(sheaves, list):
        raise ParseError("--sheaves must be a JSON list of evaluators")
    evaluators = [evaluator_from_obj(obj) for obj in sheaves]
    verdicts = pairing.pair_check(table, evaluators, args.n)
    _emit({"verdicts": [v.to_obj() for v in verdicts]})
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_dual(args):
    _emit_table(tables.dual(_load_table(args.table)), args)
    return 0


def _cmd_shift(args):
    _emit_table(tables.shift(_load_table(args.table), args.k), args)
    return 0


def _cmd_render(args):
    table = _load_table(args.table)
    sys.stdout.write(
        tables.pretty_render(table, mark_origin=args.mark_origin) + "\n")
    return 0


def _cmd_multi_chi(args):
    table = _load_table(args.table, MultiBettiTable)
    order = GradedOrder(_ints(args.weights))
    value = multigraded.multi_chi(table, args.i, _ints(args.alpha), order)
    _emit_value(value, args.format)
    return 0


def _cmd_multi_pair(args):
    table = _load_table(args.table, MultiBettiTable)
    space = ProductSpace.from_obj(_load_obj(args.space))
    _emit(tables.table_to_obj(multigraded.multi_pair(table, space, args.qmax)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bsfan",
        description="Exact computations with Betti tables: pure diagrams, "
                    "cohomology pairings, cone membership and chain "
                    "decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *flags, **kwargs):
        """A subcommand; flags names the output options it reads."""
        p = sub.add_parser(name, **kwargs)
        p._negative_number_matcher = NEGATIVE_VALUE
        p.set_defaults(func=func)
        if "format" in flags:
            p.add_argument("--format", choices=("json", "pretty"),
                           default="json")
        if "mark-origin" in flags:
            p.add_argument("--mark-origin", action="store_true",
                           help="decorate the origin cell in pretty output")
        return p

    table_out = ("format", "mark-origin")

    p = add("pure", _cmd_pure, *table_out,
            help="pure diagram of a degree sequence")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--degrees", required=True)

    p = add("supernatural", _cmd_supernatural, "format",
            help="cohomology window of a supernatural class")
    p.add_argument("--roots", required=True)
    p.add_argument("--rank-scale", default="1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jmin", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)

    p = add("pair", _cmd_pair, *table_out,
            help="pair a table with a cohomology evaluator")
    p.add_argument("--table", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--n", type=int)

    p = add("chi", _cmd_chi, "format",
            help="partial Euler characteristic chi_{i,j}")
    p.add_argument("--table", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = add("euler", _cmd_euler, "format", help="total Euler characteristic")
    p.add_argument("--table", required=True)

    p = add("check-a", _cmd_check_a,
            help="cone membership over the one-variable ring")
    p.add_argument("--table", required=True)
    p.add_argument("--codim", required=True)

    p = add("decompose-a", _cmd_decompose_a,
            help="block decomposition over the one-variable ring")
    p.add_argument("--table", required=True)
    p.add_argument("--codim", required=True)

    p = add("decompose", _cmd_decompose, *table_out,
            help="greedy chain decomposition")
    p.add_argument("--table", required=True)
    p.add_argument("--codim", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("check", _cmd_check, help="cone membership with certificate")
    p.add_argument("--table", required=True)
    p.add_argument("--codim", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("monad", _cmd_monad, help="split a free monad table")
    p.add_argument("--table", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("infinite", _cmd_infinite, *table_out,
            help="stable prefix decomposition of a truncated resolution")
    p.add_argument("--table", required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("es", _cmd_es, "format", help="separating functional value")
    p.add_argument("--table", required=True)
    p.add_argument("--roots", required=True)
    p.add_argument("--rank-scale", default="1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)

    p = add("pair-check", _cmd_pair_check,
            help="pair against evaluators and check the target cone")
    p.add_argument("--table", required=True)
    p.add_argument("--sheaves", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("dual", _cmd_dual, *table_out,
            help="move (i, j) entries to (-i, -j)")
    p.add_argument("--table", required=True)

    p = add("shift", _cmd_shift, *table_out, help="homological shift by k")
    p.add_argument("--table", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("render", _cmd_render, "mark-origin",
            help="pretty-print a table")
    p.add_argument("--table", required=True)

    p = add("multi-chi", _cmd_multi_chi, "format",
            help="multigraded partial Euler characteristic")
    p.add_argument("--table", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--weights", required=True)

    p = add("multi-pair", _cmd_multi_pair,
            help="pair a multigraded table with line bundles on a product "
                 "of projective spaces")
    p.add_argument("--table", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--qmax", type=int)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotInCone as exc:  # a stuck decomposition: its certificate
        _emit(cone_s.not_in_cone_to_obj(exc))
        return 1
    except (BsfanError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
