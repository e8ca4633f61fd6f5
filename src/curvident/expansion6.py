"""Term-group expansion of the rank-6 Einstein identity in dimension 6.

Substituting the Weyl part W = R - (rho wedge g)/4 + tau (g wedge g)/40
into the r=2 antisymmetrization identity and collecting produces 34 term
groups; each group has a raw left side (in R and rho) and a simplified
right side obtained with the Einstein condition rho = (tau/6) g.  The
group equalities hold exactly iff the input is Einstein, and the sum of
the 34 simplified groups equals 8 times the assembled rank-6 identity
form.  Both facts are exercised by the test suite and the "appendix34"
identity id.

The groups follow the four sign tables of ``identities``: items 1-6 are
the metric triples, items 7-24 the two halves of each norm row, items
25-33 the F rows and item 34 the A rows plus a rho/metric tail over the
F rows.  All nine quadratic-times-metric groups share one rank-4 kernel,
all eighteen norm-type groups one rank-2 kernel, and the six pure-metric
groups one scalar kernel; each side of a group is its row shape applied
to its own kernel (k4 against k4r, say).  ``lincomb`` merges terms that
differ in one operand into one einsum on the difference of the kernels
(``tensor._merge_like_terms``), so ``group_residuals`` contracts a row
only when its two kernels differ, and on Einstein input they never do.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Scalar
from .tensor import lincomb
from .curvature import CurvatureTensor, _kn_terms, _t_terms
from .identities import (
    _a_rows,
    _check_dim,
    _einstein6_terms,
    _f_terms,
    _g3_terms,
    _scaled,
    _tt_terms,
    einstein6_residual,
)


def _group_terms(R: CurvatureTensor) -> list:
    """The 34 groups as (raw lhs terms, simplified rhs terms) lists of
    ``lincomb`` terms, free indices ordered (i,h,j,k,l,m), each side of
    group 34 without the A rows 8 x ``_a_rows(R.tensor)`` that both
    carry."""
    t, g, ricci, tau, tt = R.tensor, R.g, R.ricci, R.tau, R.t_check

    k0 = R.r_norm_sq - Scalar(4) * R.ricci_norm_sq + tau * tau
    k0r = R.r_norm_sq + tau * tau * Fraction(1, 3)

    k2 = lincomb([
        (-4, tt),
        (8, "xa,ya->xy", ricci, ricci),
        (8, "xaby,ab->xy", t, ricci),
        (tau * -4, ricci),
    ])
    k2r = lincomb([(-4, tt), (tau * tau * Fraction(-2, 9), g)])

    quad = _scaled(8, _t_terms(R.t_quad)) + [(4, R.s_quad)]
    k4 = lincomb(quad + _kn_terms(-4, ricci, ricci) + [
        (-8, "aprs,aq->pqrs", t, ricci),
        (8, "aspq,ar->pqrs", t, ricci),
        (-8, "arpq,as->pqrs", t, ricci),
        (8, "aqrs,ap->pqrs", t, ricci),
        (tau * -4, t),
    ])
    k4r = lincomb(quad + _kn_terms(tau * tau * Fraction(-1, 9), g, g) + [(tau * Fraction(4, 3), t)])

    groups = [(_scaled(k0, [x]), _scaled(k0r, [x])) for x in _g3_terms(g)]
    groups += [([x], [y]) for x, y in zip(_tt_terms(k2, g), _tt_terms(k2r, g))]
    groups += [([x], [y]) for x, y in zip(_f_terms(k4, g), _f_terms(k4r, g))]
    groups.append((_scaled(8, _f_terms(t, ricci)), _scaled(tau * Fraction(4, 3), _f_terms(t, g))))
    return groups


def term_groups(R: CurvatureTensor) -> list:
    """All 34 (group number, raw lhs, simplified rhs) rank-6 tensors,
    free indices ordered (i,h,j,k,l,m)."""
    _check_dim(R, 6, "the term-group expansion")
    groups = _group_terms(R)
    rr = _scaled(8, _a_rows(R.tensor))
    lhs, rhs = groups[-1]
    groups[-1] = rr + lhs, rr + rhs
    return [(k, lincomb(lhs), lincomb(rhs)) for k, (lhs, rhs) in enumerate(groups, start=1)]


def group_residuals(R: CurvatureTensor) -> list:
    """The 34 group residuals lhs - rhs, then the sum check's residual: the
    sum of the 34 simplified groups minus 8 x the assembled rank-6 identity
    form.  Each is one ``lincomb``; no group side is built.

    The A rows are left out: group 34 carries 8 x them on both sides, and
    the simplified groups and 8 x the form carry them with opposite signs,
    so they cancel in every residual and are never contracted.  The rest
    is built from R's cached pieces, so ``lincomb`` merges the terms that
    share operands before any is evaluated: a group's two sides differ in
    one kernel (k0 - k0r, k2 - k2r, k4 - k4r or 8 rho - (4/3) tau g),
    which is exactly zero on Einstein input, so no rank-6 einsum runs
    there.  In the sum check, the nine F rows' kernels
    are one rank-4 tensor up to sign, and ``lincomb`` builds it once."""
    _check_dim(R, 6, "the term-group expansion")
    groups = _group_terms(R)
    out = [lincomb(lhs + _scaled(-1, rhs)) for lhs, rhs in groups]
    rhs_all = [x for _, rhs in groups for x in rhs]
    out.append(lincomb(rhs_all + _scaled(-8, _einstein6_terms(R))))
    return out


def group_sum_check(R: CurvatureTensor):
    """(sum of the 34 simplified groups, 8 x the assembled rank-6 identity
    form); the two must be componentwise identical."""
    total = lincomb([(1, rhs) for _, _, rhs in term_groups(R)])
    return total, einstein6_residual(R).residual.scale(8)
