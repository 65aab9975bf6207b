"""The table-level pairing and the functionals built on top of it.

The pairing convolves a Betti table with a cohomology table:

    result[i, j] = sum over p - q = i, 0 <= q <= n of  B[p, j] * gamma(q, -j)

Evaluators answer one twist at a time: column(-j) lists the nonzero
(q, gamma(q, -j)), so pair asks once per distinct grade of the table and
walks only those q, whatever the declared dimension n.  A column is the
whole evaluator protocol: a twist outside a window's range is found by
asking for its column.

Everything downstream (separating functionals, cone checks through the
one-variable side) is a composition of this formula with the chi
functionals.
"""

from .diagrams import SupernaturalSheaf
from .errors import EvaluatorRangeError, ValidationError
from .tables import ZERO, _int


def pair(table, evaluator):
    """Betti table of the paired complex, graded like the input (Z or Z^m).

    The work is one evaluator column per distinct grade plus one term per
    (entry, nonzero q).  Every column is asked for before a range error is
    raised, so a single error names every missing twist instead of failing
    one at a time.
    """
    negated = {g: table.negate(g) for _, g in table.support()}
    columns, missing = {}, []
    for g, neg in negated.items():
        try:
            columns[g] = evaluator.column(neg)
        except EvaluatorRangeError:
            missing.append(neg)
    if missing:
        raise EvaluatorRangeError(missing, evaluator.dimension)
    acc = {}
    for (p, grade), value in table.items():
        for q, gamma in columns[grade]:
            key = (p - q, grade)
            acc[key] = acc.get(key, ZERO) + value * gamma
    return table.like({key: v for key, v in acc.items() if v})


def es_functional(table, roots, rank_scale, n, tau, kappa):
    """Separating functional: chi_{0, nu} of the pairing against the
    supernatural class of the given roots.

    The anchor degree is nu = min(max(kappa, -f_tau - 1), -f_{tau+1} - 1);
    for tau = s the second bound is +inf and drops out.
    """
    from .cone_a import chi

    sheaf = SupernaturalSheaf(roots, rank_scale, n)
    s, tau, kappa = sheaf.dimension, _int(tau), _int(kappa)
    if not 1 <= tau <= s:
        raise ValidationError(f"tau must be in 1..{s}, got {tau}")
    nu = max(kappa, -sheaf.roots[tau - 1] - 1)
    if tau < s:
        nu = min(nu, -sheaf.roots[tau] - 1)
    return chi(pair(table, sheaf), 0, nu)


def pair_check(table, evaluators, n):
    """Pair against each evaluator and test membership in the generically
    exact cone on the one-variable side (constant constraint 1).

    Verdicts come back in input order; a failure carries the violated
    functional and its negative value.  A sheaf with an ambient n must
    live on P^n.
    """
    from .cone_a import membership_a
    from .sequences import CodimensionSequence

    n = _int(n)
    for ev in evaluators:
        if getattr(ev, "n", n) != n:
            raise ValidationError(
                f"evaluator ambient {ev.n} does not match n = {n}")
    all_one = CodimensionSequence.constant(1, 0)
    return [membership_a(pair(table, ev), all_one) for ev in evaluators]
