"""Seeded job generators for the benchmark workloads.

A workload is an endless sequence of rounds.  Round r of workload w under
seed s draws from random.Random(f"{w}:{s}:{r}"), so the same seed gives the
same jobs, and every round holds the same list of (command, size) strata
with a fixed share of out-of-cone inputs: any whole number of rounds has the
workload's stated size mix.  Each job carries what the oracles need to check
its answer (see oracles.py); nothing here imports bsfan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles as O


@dataclass
class Job:
    kind: str            # bsfan subcommand
    table: dict          # JSON object passed with --table
    args: list           # further arguments after the table
    entries: int         # input table entries, the job's size
    expect: dict = field(repr=False)   # exit code and exact answers
    label: str           # stratum, for reports

    def argv(self, table_path):
        return [self.kind, "--table", table_path, *self.args]


def _frac(rng, hi=9):
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def _json_arg(obj):
    return json.dumps(obj, separators=(",", ":"))


def _codim(n, k):
    return {"n": n, "left": k, "window_start": 0, "window": [], "right": k}


# ------------------------------------------------------- chains of diagrams

def chain(rng, k, entries):
    """Strictly increasing chain of codimension-k degree sequences whose pure
    diagrams cover at least `entries` distinct keys.  Two moves go up: raise
    one degree by one (where strict increase allows), or shift the run one
    position left (prepend a smaller degree, drop the top one).  Every third
    move is a shift, which keeps the column span, and with it the cost of
    the chi window scan, close to fixed for a given size."""
    start = rng.randint(-2, 2)
    degrees = sorted(rng.sample(range(-5, 7), k + 1))
    seqs = [(start, tuple(degrees))]
    keys = {(start + m, d) for m, d in enumerate(degrees)}
    while len(keys) < entries:
        if len(seqs) % 3 == 0:
            start -= 1
            degrees = [degrees[0] - rng.randint(1, 3)] + degrees[:-1]
        else:
            free = [m for m in range(k + 1)
                    if m == k or degrees[m] + 1 < degrees[m + 1]]
            degrees[rng.choice(free)] += 1
        seqs.append((start, tuple(degrees)))
        keys.update((start + m, d) for m, d in enumerate(degrees))
    return seqs


def chain_table(rng, k, entries):
    seqs = chain(rng, k, entries)
    coeffs = [_frac(rng) for _ in seqs]
    table = O.combine([(c, O.pure_vector(s, d))
                       for c, (s, d) in zip(coeffs, seqs)])
    return seqs, coeffs, table


def _bump(rng, seqs, table):
    """Add a positive amount to an entry last used by the middle piece of
    the chain.  Every pure diagram of positive codimension has alternating
    entry sum 0, so the result is out of the cone by construction; the
    greedy run gets stuck a little past the middle of the chain."""
    last = {}
    for idx, (start, degrees) in enumerate(seqs):
        for m, d in enumerate(degrees):
            last[(start + m, d)] = idx
    gap = min(abs(last[key] - len(seqs) // 2) for key in table)
    key = rng.choice([key for key in sorted(table)
                      if abs(last[key] - len(seqs) // 2) == gap])
    out = dict(table)
    out[key] += _frac(rng, 5)
    return out


def decompose_job(rng, kind, entries, in_cone, n, k):
    seqs, coeffs, table = chain_table(rng, k, entries)
    if not in_cone:
        table = _bump(rng, seqs, table)
    return Job(kind, O.table_obj(table),
               ["--codim", _json_arg(_codim(n, k)), "--n", str(n)],
               len(table),
               {"code": 0 if in_cone else 1, "table": table, "chain": seqs,
                "coeffs": coeffs, "k": k},
               f"{kind}-{entries}{'' if in_cone else '-out'}")


# Goldens: a four-term monad for an ideal sheaf on P^4 and the truncation at
# column 4 of an infinite resolution over a union of two planes (n = 1).
MONAD_TABLE = {(-2, 1): 2, (-1, 2): 11, (0, 3): 20, (1, 4): 10}
TRUNCATION_TABLE = {(0, 0): 1, (1, 2): 6, (2, 3): 16, (3, 4): 38, (4, 5): 92}


def _scaled(rng, table):
    """Positive rational multiple with every degree shifted by one amount;
    splits and prefixes commute with both."""
    c, t = _frac(rng), rng.randint(-6, 6)
    return {(i, j + t): c * v for (i, j), v in table.items()}


def monad_job(rng):
    table = _scaled(rng, MONAD_TABLE)
    return Job("monad", O.table_obj(table), ["--n", "4"], len(table),
               {"code": 0, "table": table}, "monad")


def infinite_job(rng):
    table = _scaled(rng, TRUNCATION_TABLE)
    return Job("infinite", O.table_obj(table), ["--e", "4", "--n", "1"],
               len(table), {"code": 0, "table": table, "n": 1}, "infinite")


# --------------------------------------------------------- one variable

def _roots(rng, table, s):
    """s distinct roots spread evenly over the negated degree range, each
    moved by up to one step when the spacing leaves room."""
    lo, hi = -max(j for _, j in table), -min(j for _, j in table)
    jitter = 1 if hi - lo >= 3 * (s + 1) else 0
    roots = sorted({lo + (hi - lo) * (m + 1) // (s + 1)
                    + rng.randint(-jitter, jitter) for m in range(s)},
                   reverse=True)
    if len(roots) != s:
        raise RuntimeError(f"degree range {lo}..{hi} too narrow for {s} roots")
    return tuple(roots)


def _negative_chi(rng, table, codim, preimage=None):
    """Raise one entry (c, d) so that chi(c - 1, d - 1), which subtracts it,
    drops below zero; preimage maps a key of the table to the key and
    factor it gains when a table it was paired from is raised."""
    keys = [key for key in sorted(table)
            if O.rank(O.codim_value(codim, key[0] - 1)) >= 1
            and (preimage is None or key in preimage)]
    c, d = rng.choice(keys)
    need = O.chi(table, c - 1, d - 1) + _frac(rng, 4)
    out = dict(table)
    out[(c, d)] += need
    if preimage is None:
        return out, None
    src, factor = preimage[(c, d)]
    return out, (src, need / factor)


def paired_job(rng, kind, entries, in_cone, n, k):
    """A chain table of codimension k paired with a supernatural class of
    k - 1 roots: in the one-variable cone by the Eisenbud-Schreyer
    positivity theorem.  Out-of-cone variants raise one entry of the input
    (or, for pair-check, of the chain table) past a chi value."""
    seqs, coeffs, table = chain_table(rng, k, entries)
    roots, scale = _roots(rng, table, k - 1), _frac(rng, 4)
    paired = O.pair(table, roots, scale, n)
    sheaf = {"kind": "supernatural", "roots": list(roots),
             "rank_scale": str(scale), "n": n}
    if kind == "es":
        tau = rng.randint(1, len(roots))
        kappa = rng.randint(min(j for _, j in table), max(j for _, j in table))
        nu = max(kappa, -roots[tau - 1] - 1)
        if tau < len(roots):
            nu = min(nu, -roots[tau] - 1)
        return Job("es", O.table_obj(table),
                   ["--roots=" + ",".join(map(str, roots)),
                    "--rank-scale", str(scale), "--n", str(n),
                    "--tau", str(tau), "--kappa", str(kappa)],
                   len(table), {"code": 0, "value": O.chi(paired, 0, nu)}, "es")
    if kind == "pair-check":
        if not O.in_cone_a(paired, O.ONE):
            raise RuntimeError("positivity: a pairing left the cone")
        if not in_cone:
            preimage = {}
            for (p, j), v in table.items():
                for q in range(n + 1):
                    g = O.supernatural(roots, scale, q, -j)
                    if g:
                        preimage[(p - q, j)] = ((p, j), g)
            paired, (src, amount) = _negative_chi(rng, paired, O.ONE, preimage)
            table = dict(table)
            table[src] += amount
        return Job("pair-check", O.table_obj(table),
                   ["--sheaves", _json_arg([sheaf]), "--n", str(n)],
                   len(table),
                   {"code": 0 if in_cone else 1, "paired": [paired],
                    "in_cone": [in_cone]},
                   f"pair-check-{entries}{'' if in_cone else '-out'}")
    return table_a_job(rng, kind, paired, O.ONE, in_cone, f"{kind}-paired")


def blocks_table(rng, entries):
    """Positive sum of torsion blocks {(p, a), (p+1, b)}, b > a, and, when
    the constraint admits free homology left of s0, free blocks there."""
    s0 = rng.choice([None, rng.randint(-2, 2)])
    codim = O.ONE if s0 is None else {"n": 0, "left": 0, "window_start": s0,
                                      "window": [], "right": 1}
    terms = []
    while len(O.combine(terms)) < entries:
        p, a = rng.randint(-4, 4), rng.randint(-8, 8)
        if s0 is not None and p < s0 and rng.random() < 0.3:
            terms.append((_frac(rng), {(p, a): 1}))
        else:
            terms.append((_frac(rng),
                          {(p, a): 1, (p + 1, a + rng.randint(1, 5)): 1}))
    return O.combine(terms), codim


def blocks_job(rng, kind, entries, in_cone):
    table, codim = blocks_table(rng, entries)
    return table_a_job(rng, kind, table, codim, in_cone, f"{kind}-{entries}")


def table_a_job(rng, kind, table, codim, in_cone, label):
    """check-a, decompose-a, chi or euler on a one-variable cone table."""
    if not O.in_cone_a(table, codim):
        raise RuntimeError(f"{label}: generator built an out-of-cone table")
    if not in_cone:
        table, _ = _negative_chi(rng, table, codim)
        label += "-out"
    entries = len(table)
    obj = O.table_obj(table)
    if kind == "chi":
        cols, degs = [i for i, _ in table], [j for _, j in table]
        i = rng.randint(min(cols) - 3, max(cols) + 1)
        j = rng.randint(min(degs) - 2, max(degs) + 2)
        return Job("chi", obj, ["--i", str(i), "--j", str(j)], entries,
                   {"code": 0, "value": O.chi(table, i, j)}, label)
    if kind == "euler":
        return Job("euler", obj, [], entries,
                   {"code": 0, "value": O.euler(table)}, label)
    return Job(kind, obj, ["--codim", _json_arg(codim)], entries,
               {"code": 0 if in_cone else 1, "table": table, "codim": codim,
                "in_cone": [in_cone]}, label)


# ------------------------------------------------------------ multigraded

def multi_table(rng, m, entries):
    """Nonnegative table over Z^m: columns 0..4, grades climbing with the
    column so the support looks like a resolution's."""
    table = {}
    while len(table) < entries:
        i = rng.randint(0, 4)
        alpha = tuple(rng.randint(i - 2, 2 * i + 3) for _ in range(m))
        table[(i, alpha)] = _frac(rng)
    return table


def multi_pair_job(rng, entries, dims, count):
    """Pairing with `count` twisted line bundles on the product of
    projective spaces of dimensions dims."""
    m = len(dims)
    table = multi_table(rng, m, entries)
    summands = [(tuple(rng.randint(-3, 3) for _ in range(m)),
                 rng.randint(1, 3)) for _ in range(count)]
    space = {"kind": "product", "dims": dims,
             "summands": [{"twist": list(t), "mult": mult}
                          for t, mult in summands]}
    return Job("multi-pair", O.multi_table_obj(m, table),
               ["--space", _json_arg(space)], len(table),
               {"code": 0, "m": m,
                "table": O.multi_pair(table, dims, summands, sum(dims))},
               f"multi-pair-m{m}-{entries}")


def multi_chi_job(rng, m, entries, inside):
    table = multi_table(rng, m, entries)
    weights = [rng.randint(1, 3) for _ in range(m)]
    if inside:
        i, alpha = rng.choice(sorted(table))
        i += rng.randint(-1, 0)
    else:
        i = rng.randint(-3, 6)
        alpha = tuple(rng.choice([-4, 12]) + rng.randint(-1, 1)
                      for _ in range(m))
    return Job("multi-chi", O.multi_table_obj(m, table),
               ["--i", str(i), "--alpha=" + ",".join(map(str, alpha)),
                "--weights=" + ",".join(map(str, weights))], len(table),
               {"code": 0,
                "value": O.multi_chi(table, i, alpha, weights)},
               f"multi-chi-{'in' if inside else 'out'}")


# --------------------------------------------------------------- rounds

# Each round runs every stratum once.  The sizes and the ambient and
# codimension pairs (n, k) are fixed per stratum, so a seed changes only the
# chains, coefficients, roots and perturbed entries, never the cost mix.
# The mix puts job_s.p50 and job_s.p90 inside a group of like jobs rather
# than on the edge between two groups, where a small change in any one job
# would move them: in every workload the heaviest group is about a fifth of
# a round, so p90 falls in its middle, and the lightest groups together are
# a little over half, so p50 falls among them.

CHAIN_STRATA = [
    # kind, entries, in cone, n, k
    ("decompose", 50, True, 2, 1), ("check", 50, True, 2, 1),
    ("decompose", 150, True, 4, 2), ("check", 150, True, 4, 2),
    ("decompose", 150, True, 4, 2), ("check", 150, True, 4, 2),
    ("decompose", 150, False, 8, 9), ("check", 150, False, 8, 9),
    ("decompose", 400, True, 6, 3), ("check", 400, True, 6, 3),
    ("decompose", 400, True, 7, 5), ("check", 400, True, 7, 5),
    ("decompose", 600, False, 3, 2), ("check", 600, False, 3, 2),
]
GOLDEN_PAIRS = 10   # monad and infinite jobs per round, of each

PAIRED_STRATA = [
    ("pair-check", 20, True, 2, 2), ("pair-check", 20, True, 2, 2),
    ("pair-check", 60, True, 3, 3), ("pair-check", 80, False, 3, 2),
    ("pair-check", 90, True, 4, 4), ("pair-check", 90, True, 4, 4),
    ("pair-check", 90, True, 4, 4), ("pair-check", 90, True, 4, 4),
    ("pair-check", 90, True, 4, 4),
    ("check-a", 60, True, 3, 3), ("check-a", 60, False, 5, 4),
    ("es", 80, True, 4, 3), ("es", 60, True, 3, 2), ("chi", 80, True, 5, 2),
    ("euler", 80, True, 3, 3),
]

BLOCK_STRATA = [
    ("check-a", 40, True), ("check-a", 40, True), ("check-a", 60, True),
    ("check-a", 120, True), ("check-a", 80, False),
    ("decompose-a", 40, True), ("decompose-a", 40, True),
    ("decompose-a", 60, True), ("decompose-a", 120, True),
    ("decompose-a", 80, False),
    ("chi", 80, True), ("chi", 40, True), ("euler", 80, True),
]

MULTI_PAIR_STRATA = [
    # entries, factor dimensions, twisted summands
    (100, (1, 2), 2), (200, (2, 2), 3), (150, (1, 1, 2), 3),
    (300, (1, 2, 1), 3), (300, (1, 2, 1), 3), (300, (1, 2, 1), 3),
]

MULTI_CHI_STRATA = [
    # grading rank, entries, anchor inside the support
    (2, 150, True), (3, 200, True), (2, 250, True), (3, 300, True),
    (2, 200, True), (3, 250, True),
    (2, 150, False), (3, 200, False), (3, 300, False), (2, 300, False),
    (3, 150, False),
]


def _chain_decompose(rng):
    jobs = [decompose_job(rng, *stratum) for stratum in CHAIN_STRATA]
    for _ in range(GOLDEN_PAIRS):
        jobs += [monad_job(rng), infinite_job(rng)]
    return jobs


def _one_variable(rng):
    return ([paired_job(rng, *stratum) for stratum in PAIRED_STRATA]
            + [blocks_job(rng, *stratum) for stratum in BLOCK_STRATA])


def _multigraded(rng):
    return ([multi_pair_job(rng, *stratum) for stratum in MULTI_PAIR_STRATA]
            + [multi_chi_job(rng, *stratum) for stratum in MULTI_CHI_STRATA])


WORKLOADS = {
    "chain-decompose": _chain_decompose,
    "one-variable": _one_variable,
    "multigraded": _multigraded,
}


def round_jobs(workload, seed, r):
    """The jobs of round r, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
