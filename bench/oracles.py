"""Answer oracles for the bsfan benchmark.

Nothing here imports bsfan.  Every expected answer is either known by
construction (the generating chain and coefficients, an in-cone or
out-of-cone verdict) or recomputed by direct exact sums written for this
file: pure-diagram vectors from the gap-product formula, supernatural
cohomology from the root polynomial, line-bundle cohomology on products of
projective spaces from binomial coefficients, and the chi functionals as
plain sums.  Tables are dicts mapping (column, degree) or (column, grade)
to Fraction.

check_job() returns the list of problems found in one job's exit code and
output, each a (reason, detail) pair; an empty list means the job passed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

RATIONAL_RE = re.compile(r"-?\d+(/[1-9]\d*)?\Z")

# Known defect: cone_a.euler computes (-1) ** i, a float for i < 0, so the
# total Euler characteristic of a table with negative columns comes out as a
# float ("0.0", "3.2e-12").  Jobs that fail only through it are counted
# under this reason, so that the fix shows as a falling fail count.
EULER_FLOAT = "euler_float"
REASONS = ("crash", "exit_code", "verdict", "output", "not_rational",
           EULER_FLOAT)
KNOWN_DEFECTS = (EULER_FLOAT,)

RATIONAL_KEYS = ("value", "coeff", "lambda1", "lambda2")


class OracleError(Exception):
    """An output does not have the shape the oracle expects."""


def rational(text):
    """Fraction for an exact "p" or "p/q" string, else None."""
    if isinstance(text, str) and RATIONAL_RE.match(text):
        return Fraction(text)
    return None


def _sign(k):
    return -1 if k % 2 else 1


# ----------------------------------------------------------------- math

def pure_vector(start, degrees):
    """Smallest positive integer vector on (start + k, degrees[k]) whose
    entry k is proportional to 1 / prod_{l != k} |d_l - d_k|."""
    gaps = [math.prod(abs(dl - dk) for l, dl in enumerate(degrees) if l != k)
            for k, dk in enumerate(degrees)]
    common = math.lcm(*gaps)
    ints = [common // g for g in gaps]
    g = math.gcd(*ints)
    return {(start + k, d): Fraction(v // g)
            for k, (d, v) in enumerate(zip(degrees, ints))}


def combine(terms):
    """Sum of coeff * table over (coeff, table); zero entries dropped."""
    out = {}
    for coeff, table in terms:
        for key, value in table.items():
            out[key] = out.get(key, 0) + coeff * value
    return {key: Fraction(v) for key, v in out.items() if v}


def dual(table):
    return {(-i, -j): v for (i, j), v in table.items()}


def supernatural(roots, scale, q, j):
    """h^q of the supernatural class with roots f_1 > ... > f_s at twist j:
    the Hilbert polynomial scale/s! * prod (j - f) in absolute value, in the
    single index q = #{f > j}; zero at a root."""
    if j in roots or q != sum(1 for f in roots if f > j):
        return Fraction(0)
    return Fraction(scale) * abs(math.prod(j - f for f in roots)) \
        / math.factorial(len(roots))


def pair(table, roots, scale, n):
    """result[p - q, j] = sum of table[p, j] * h^q(-j), 0 <= q <= n."""
    out = {}
    for (p, j), v in table.items():
        for q in range(n + 1):
            g = supernatural(roots, scale, q, -j)
            if g:
                out[(p - q, j)] = out.get((p - q, j), 0) + v * g
    return {key: v for key, v in out.items() if v}


def chi(table, i, j):
    """Partial Euler characteristic: column i up to degree j, minus column
    i+1 up to degree j+1, plus the alternating full sums of columns > i+1."""
    total = Fraction(0)
    for (c, d), v in table.items():
        if (c == i and d <= j) or c >= i + 2:
            total += _sign(c - i) * v
        elif c == i + 1 and d <= j + 1:
            total -= v
    return total


def euler(table):
    return sum((_sign(i) * v for (i, _), v in table.items()), Fraction(0))


# The one-variable constraint with value 1 everywhere: only torsion.
ONE = {"n": 0, "left": 1, "window_start": 0, "window": [], "right": 1}


def codim_value(codim, i):
    ws, window = codim.get("window_start", 0), codim.get("window", [])
    if i < ws:
        return codim["left"]
    if i >= ws + len(window):
        return codim["right"]
    return window[i - ws]


def rank(value):
    """Numeric position in the order empty < 0 < 1 < ... < inf."""
    return {"empty": -1, "inf": math.inf}.get(value, value)


def chi_minima(table, codim):
    """Exact (i, j, chi) at the minimum of chi(i, .) for every column i the
    constraint checks (rank >= 1).  chi(i, .) is a step function that only
    drops at j = d - 1 for degrees d of column i+1, and columns more than
    two below the support only see the two alternating tail sums."""
    if not table:
        return []
    colsum = {}
    for (c, _), v in table.items():
        colsum[c] = colsum.get(c, 0) + v
    cols = [c for c, _ in table]
    lowest = min(d for _, d in table) - 2
    out = []
    for i in range(min(cols) - 3, max(cols) + 1):
        if rank(codim_value(codim, i)) < 1:
            continue
        value = sum((_sign(c - i) * s for c, s in colsum.items()
                     if c >= i + 2), Fraction(0))
        events = sorted([(d, v) for (c, d), v in table.items() if c == i]
                        + [(d - 1, -v) for (c, d), v in table.items()
                           if c == i + 1])
        best = (value, lowest)
        for k, (j, step) in enumerate(events):
            value += step
            if k + 1 == len(events) or events[k + 1][0] != j:
                best = min(best, (value, j))
        out.append((i, best[1], best[0]))
    return out


def in_cone_a(table, codim):
    """Exact one-variable membership: no negative entry, no entry in an
    empty column, every checked chi minimum >= 0, and Euler characteristic 0
    when no column admits free homology."""
    if any(v < 0 for v in table.values()):
        return False
    if any(codim_value(codim, i) == "empty" for i, _ in table):
        return False
    if any(m < 0 for _, _, m in chi_minima(table, codim)):
        return False
    occurs0 = 0 in (codim["left"], codim["right"], *codim.get("window", []))
    return occurs0 or euler(table) == 0


def line_bundle(n, d, q):
    """h^q(P^n, O(d)) by Bott's formula."""
    if q == 0:
        return math.comb(n + d, n) if d >= 0 else 0
    if q == n:
        return math.comb(-d - 1, n) if d <= -n - 1 else 0
    return 0


def kunneth(dims, summands, q, alpha):
    """h^q of a sum of line bundles on P^{n_1} x ... x P^{n_r}: only the
    splits of q into 0 or n_t per factor carry cohomology."""
    total = 0
    for twist, mult in summands:
        for corners in range(1 << len(dims)):
            split = [n if corners >> t & 1 else 0 for t, n in enumerate(dims)]
            if sum(split) != q:
                continue
            total += mult * math.prod(
                line_bundle(n, a + c, qt)
                for n, a, c, qt in zip(dims, alpha, twist, split))
    return total


def multi_pair(table, dims, summands, qmax):
    out = {}
    for (p, alpha), v in table.items():
        neg = tuple(-a for a in alpha)
        for q in range(qmax + 1):
            g = kunneth(dims, summands, q, neg)
            if g:
                out[(p - q, alpha)] = out.get((p - q, alpha), 0) + v * g
    return {key: Fraction(v) for key, v in out.items() if v}


def multi_chi(table, i, alpha, weights):
    """Column i counts grades strictly below alpha, column i+1 grades up to
    alpha with opposite sign, in the order (weighted sum, then lex)."""
    def key(grade):
        return (sum(w * a for w, a in zip(weights, grade)), tuple(grade))
    anchor = key(alpha)
    total = Fraction(0)
    for (c, grade), v in table.items():
        if c == i:
            if key(grade) < anchor:
                total += v
        elif c == i + 1:
            if key(grade) <= anchor:
                total -= v
        elif c >= i + 2:
            total += _sign(c - i) * v
    return total


def compare(a, b):
    """Termwise comparison of (start, degrees) runs padded by -inf / +inf:
    -1, 0 or 1 when a <= b, a == b or a >= b termwise, None otherwise."""
    def at(seq, i):
        start, degs = seq
        if i < start:
            return -math.inf
        if i >= start + len(degs):
            return math.inf
        return degs[i - start]
    lo = min(a[0], b[0])
    hi = max(a[0] + len(a[1]), b[0] + len(b[1]))
    le = all(at(a, i) <= at(b, i) for i in range(lo, hi))
    ge = all(at(a, i) >= at(b, i) for i in range(lo, hi))
    if le and ge:
        return 0
    if le:
        return -1
    return 1 if ge else None


# --------------------------------------------------------- JSON shapes

def table_obj(table):
    return {"entries": [{"i": i, "j": j, "value": str(v)}
                        for (i, j), v in sorted(table.items())]}


def multi_table_obj(m, table):
    return {"m": m, "entries": [{"i": i, "alpha": list(a), "value": str(v)}
                                for (i, a), v in sorted(table.items())]}


def _need(cond, what):
    if not cond:
        raise OracleError(what)


def _value(obj, key="value"):
    _need(isinstance(obj, dict) and key in obj, f"missing {key!r}")
    v = rational(obj[key])
    _need(v is not None, f"{key} {obj[key]!r} is not an exact rational")
    return v


def read_table(obj):
    _need(isinstance(obj, dict) and isinstance(obj.get("entries"), list),
          "table without an entries list")
    out = {}
    for e in obj["entries"]:
        _need(isinstance(e, dict) and isinstance(e.get("i"), int)
              and isinstance(e.get("j"), int), f"bad table entry {e!r}")
        _need((e["i"], e["j"]) not in out, f"duplicate entry {e!r}")
        out[(e["i"], e["j"])] = _value(e)
    return out


def read_multi_table(obj):
    _need(isinstance(obj, dict) and isinstance(obj.get("entries"), list),
          "multigraded table without an entries list")
    out = {}
    for e in obj["entries"]:
        _need(isinstance(e, dict) and isinstance(e.get("i"), int)
              and isinstance(e.get("alpha"), list), f"bad entry {e!r}")
        out[(e["i"], tuple(e["alpha"]))] = _value(e)
    return out


def read_pieces(items, key="degree_sequence"):
    """[(coeff, (start, degrees))] from serialized chain pieces."""
    _need(isinstance(items, list), "pieces is not a list")
    out = []
    for p in items:
        seq = p.get(key) if isinstance(p, dict) else None
        _need(isinstance(seq, dict) and isinstance(seq.get("start"), int)
              and isinstance(seq.get("degrees"), list)
              and seq["degrees"], f"bad piece {p!r}")
        out.append((_value(p, "coeff"), (seq["start"], tuple(seq["degrees"]))))
    return out


def _chain_sum(pieces):
    return combine([(c, pure_vector(s, d)) for c, (s, d) in pieces])


def _monotone(pieces, direction):
    return all(compare(a, b) == direction
               for (_, a), (_, b) in zip(pieces, pieces[1:]))


def _check_partial(pieces, table):
    """A stuck greedy run's pieces: positive coefficients whose sum stays
    below the input entrywise."""
    _need(all(c > 0 for c, _ in pieces), "nonpositive partial coefficient")
    left = combine([(1, table), (-1, _chain_sum(pieces))])
    _need(all(v > 0 for v in left.values()),
          "partial pieces exceed the input")


# ---------------------------------------------------------- per command

def _chain_output(job, out, code):
    exp = job.expect
    if code == 1:
        _need(out.get("status") == "fail", "exit 1 without status fail")
        pieces = read_pieces(out.get("partial_pieces"))
        _need(all(len(d) == exp["k"] + 1 for _, (_, d) in pieces),
              "partial piece of the wrong codimension")
        _need(_monotone(pieces, -1), "partial chain does not increase")
        _check_partial(pieces, exp["table"])
        return
    dec = out["decomposition"] if job.kind == "check" else out
    _need(job.kind != "check" or out.get("status") == "pass",
          "exit 0 without status pass")
    pieces = read_pieces(dec.get("pieces"))
    _need(pieces == list(zip(exp["coeffs"], exp["chain"])),
          "pieces differ from the generating chain and coefficients")
    _need(_monotone(pieces, -1), "chain does not strictly increase")
    remainder = read_table(dec.get("remainder"))
    _need(not remainder, "nonempty remainder")
    _need(_chain_sum(pieces) == exp["table"], "pieces do not re-sum")


def _monad_output(job, out, code):
    table = job.expect["table"]
    lam1, lam2 = _value(out, "lambda1"), _value(out, "lambda2")
    f1, f2 = read_table(out.get("table_f1")), read_table(out.get("table_f2"))
    e_col = read_table(out.get("e_column"))
    front = read_pieces(out.get("front_pieces"))
    back = read_pieces(out.get("back_pieces"))
    _need(combine([(lam1, f1), (lam2, dual(f2))]) == table,
          "lambda1 * F1 + dual(lambda2 * F2) does not rebuild the input")
    _need(all(i == 0 and v > 0 for (i, _), v in e_col.items()),
          "central part is not a nonnegative column 0")
    _need(sum(e_col.values(), Fraction(0)) == euler(table),
          "central column sum is not the alternating sum of the input")
    _need(combine([(1, _chain_sum(front)), (1, e_col)]) == f1,
          "front pieces plus central column differ from F1")
    _need(_chain_sum(back) == f2, "back pieces differ from F2")
    _need(all(c > 0 and len(d) > 1 for c, (_, d) in front + back),
          "monad piece with nonpositive coefficient or codimension 0")


def _infinite_output(job, out, code):
    exp = job.expect
    pieces = read_pieces(out.get("pieces"))
    remainder = read_table(out.get("remainder"))
    _need(pieces, "empty stable prefix")
    _need(all(c > 0 and len(d) == exp["n"] + 2 for c, (_, d) in pieces),
          "prefix piece with nonpositive coefficient or wrong codimension")
    _need(_monotone(pieces, 1), "prefix chain does not strictly decrease")
    _need(combine([(1, _chain_sum(pieces)), (1, remainder)]) == exp["table"],
          "pieces plus remainder do not rebuild the input")


def _violation_problems(verdict, table, codim, in_cone):
    """Problems in one one-variable membership verdict."""
    status = verdict.get("status") if isinstance(verdict, dict) else None
    _need(status in ("pass", "fail"), f"bad verdict {verdict!r}")
    if status == "pass":
        return [] if in_cone else [("verdict", "out-of-cone table passed")]
    violations = verdict.get("violations")
    _need(isinstance(violations, list) and violations,
          "failing verdict without violations")
    problems, chi_seen = [], False
    for v in violations:
        _need(isinstance(v, dict), f"bad violation {v!r}")
        kind, value = v.get("kind"), rational(v.get("value"))
        if kind == "euler_nonzero":
            if value is None:
                problems.append((EULER_FLOAT,
                                 f"euler_nonzero value {v.get('value')!r}"))
            elif value != euler(table) or value == 0:
                problems.append(("output", f"wrong euler violation {v!r}"))
            continue
        _need(value is not None and isinstance(v.get("i"), int)
              and isinstance(v.get("j"), int), f"bad violation {v!r}")
        i, j = v["i"], v["j"]
        if kind == "chi_negative":
            chi_seen = True
            ok = value == chi(table, i, j) < 0 and \
                rank(codim_value(codim, i)) >= 1
        elif kind == "negative_entry":
            ok = value == table.get((i, j), 0) < 0
        elif kind == "support_empty":
            ok = codim_value(codim, i) == "empty" and value == table.get((i, j))
        else:
            ok = False
        if not ok:
            problems.append(("output", f"violation does not hold: {v!r}"))
    if in_cone and not problems:
        problems.append(("verdict", "in-cone table failed"))
    elif not in_cone and not chi_seen:
        problems.append(("verdict", "no chi_negative for a table built "
                                    "with a negative chi"))
    return problems


def _exit_agrees(code, verdicts):
    _need((code == 0) == all(isinstance(v, dict) and v.get("status") == "pass"
                             for v in verdicts),
          "exit code disagrees with the verdicts")


def _pair_check_output(job, out, code):
    exp = job.expect
    verdicts = out.get("verdicts")
    _need(isinstance(verdicts, list) and len(verdicts) == len(exp["paired"]),
          "wrong number of verdicts")
    _exit_agrees(code, verdicts)
    problems = []
    for verdict, paired, ok in zip(verdicts, exp["paired"], exp["in_cone"]):
        problems += _violation_problems(verdict, paired, ONE, ok)
    return problems


def _check_a_output(job, out, code):
    exp = job.expect
    _exit_agrees(code, [out])
    return _violation_problems(out, exp["table"], exp["codim"],
                               exp["in_cone"][0])


def _block(piece):
    _need(isinstance(piece, dict) and piece.get("kind") in ("free", "torsion")
          and isinstance(piece.get("position"), int)
          and isinstance(piece.get("gen_degree"), int), f"bad block {piece!r}")
    p, a = piece["position"], piece["gen_degree"]
    if piece["kind"] == "free":
        return {(p, a): Fraction(1)}
    b = piece.get("socle_degree")
    _need(isinstance(b, int) and b > a, f"bad torsion block {piece!r}")
    return {(p, a): Fraction(1), (p + 1, b): Fraction(1)}


def _decompose_a_output(job, out, code):
    exp = job.expect
    table, codim = exp["table"], exp["codim"]
    if code == 1:
        _need(out.get("status") == "fail", "exit 1 without status fail")
        items = out.get("partial_pieces")
        key = "degree_sequence"
    else:
        items, key = out.get("pieces"), "piece"
    _need(isinstance(items, list), "pieces is not a list")
    terms = []
    for item in items:
        _need(isinstance(item, dict), f"bad piece {item!r}")
        coeff, block = _value(item, "coeff"), item.get(key)
        terms.append((coeff, _block(block)))
        _need(coeff > 0, "nonpositive block coefficient")
        _need(block["kind"] == "torsion"
              or codim_value(codim, block["position"]) == 0,
              "free block where the constraint forbids it")
    total = combine(terms)
    if code == 1:
        left = combine([(1, table), (-1, total)])
        _need(all(v > 0 for v in left.values()),
              "partial blocks exceed the input")
    else:
        _need(total == table, "blocks do not re-sum to the input")


def _value_output(job, out, code):
    _need(_value(out) == job.expect["value"], "wrong value")


def _multi_pair_output(job, out, code):
    _need(out.get("m") == job.expect["m"], "wrong grading rank")
    _need(read_multi_table(out) == job.expect["table"], "wrong pairing")


CHECKERS = {
    "decompose": _chain_output, "check": _chain_output,
    "monad": _monad_output, "infinite": _infinite_output,
    "pair-check": _pair_check_output, "check-a": _check_a_output,
    "decompose-a": _decompose_a_output,
    "es": _value_output, "chi": _value_output, "euler": _value_output,
    "multi-chi": _value_output, "multi-pair": _multi_pair_output,
}


def _inexact(obj, found, violation=None):
    """Append (enclosing violation kind, detail) for every rational-valued
    string in obj that is not an exact rational."""
    if isinstance(obj, list):
        for item in obj:
            _inexact(item, found, violation)
    elif isinstance(obj, dict):
        violation = obj.get("kind", violation)
        for key, value in obj.items():
            if key in RATIONAL_KEYS and isinstance(value, str) \
                    and rational(value) is None:
                found.append((violation, f"{key} {value!r}"))
            else:
                _inexact(value, found, violation)


def check_job(job, code, stdout, stderr):
    """Problems with one job's result; [] when it matches the oracle."""
    if code not in (0, 1, 2) or "Traceback" in stderr:
        return [("crash", f"exit {code}: {stderr.strip()[-200:]}")]
    # Membership checks attribute an unexpected exit 1 from their verdicts,
    # so that one failing through the Euler float counts as that defect.
    if code != job.expect["code"] and not (code == 1 and job.kind in
                                           ("pair-check", "check-a")):
        return [("exit_code" if 2 in (code, job.expect["code"]) else "verdict",
                 f"exit {code}, expected {job.expect['code']}: "
                 f"{stderr.strip()[-200:]}")]
    try:
        lines = stdout.splitlines()
        if len(lines) != 1:
            raise OracleError(f"{len(lines)} output lines, expected 1")
        out = json.loads(lines[0])
    except (ValueError, OracleError) as exc:
        return [("output", f"unreadable output: {exc}")]
    found = []
    _inexact(out, found)
    problems = [(EULER_FLOAT if job.kind == "euler" else "not_rational", d)
                for violation, d in found if violation != "euler_nonzero"]
    if problems:
        return problems
    try:
        return CHECKERS[job.kind](job, out, code) or []
    except OracleError as exc:
        return [("output", str(exc))]
    except (AttributeError, KeyError, TypeError) as exc:
        return [("output", f"unexpected output shape: {exc!r}")]


def reason(problems):
    """The reason a failed job is counted under: the known defect only when
    it explains every problem."""
    kinds = [r for r, _ in problems]
    other = [r for r in kinds if r not in KNOWN_DEFECTS]
    return other[0] if other else kinds[0]
