"""Term-group expansion of the rank-6 Einstein identity in dimension 6.

Substituting the Weyl part W = R - (rho wedge g)/4 + tau (g wedge g)/20
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
groups one scalar kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Scalar
from .tensor import ShapeError, ein
from .curvature import CurvatureTensor, _pieces
from .identities import (
    _F_ROWS,
    _G3_ROWS,
    _TT_ROWS,
    _a_block,
    _f_block,
    _f_term,
    _g3_term,
    _signed,
    _sum,
    _t_part,
    einstein6_residual,
    tsa,
)


def _kernels(R: CurvatureTensor):
    t, g, ricci, tau, tt, rn2 = _pieces(R)
    dec = tsa(R)
    rho2 = ein("ij,ij->", ricci, ricci).to_scalar()

    k0 = rn2 - Scalar(4) * rho2 + tau * tau
    k0r = rn2 + tau * tau * Fraction(1, 3)

    k2 = (
        tt.scale(-4)
        + ein("xa,ya->xy", ricci, ricci).scale(8)
        + ein("xaby,ab->xy", t, ricci).scale(8)
        + ricci.scale(tau * Fraction(-4, 1))
    )
    k2r = tt.scale(-4) + g.scale(tau * tau * Fraction(-2, 9))

    quad = _t_part(dec).scale(8) + dec.s.scale(4)
    k4 = (
        quad
        + ein("aprs,aq->pqrs", t, ricci).scale(-8)
        + ein("aspq,ar->pqrs", t, ricci).scale(8)
        + ein("arpq,as->pqrs", t, ricci).scale(-8)
        + ein("aqrs,ap->pqrs", t, ricci).scale(8)
        + ein("pr,qs->pqrs", ricci, ricci).scale(8)
        + ein("ps,qr->pqrs", ricci, ricci).scale(-8)
        + t.scale(tau * Fraction(-4, 1))
    )
    k4r = (
        quad
        + t.scale(tau * Fraction(4, 3))
        + (ein("pr,qs->pqrs", g, g) - ein("ps,qr->pqrs", g, g)).scale(
            tau * tau * Fraction(2, 9)
        )
    )
    return t, g, ricci, tau, dec, k0, k0r, k2, k2r, k4, k4r


def term_groups(R: CurvatureTensor) -> list:
    """All 34 (group number, raw lhs, simplified rhs) rank-6 tensors,
    free indices ordered (i,h,j,k,l,m)."""
    if R.dim != 6:
        raise ShapeError("the term-group expansion needs dim 6")
    t, g, ricci, tau, dec, k0, k0r, k2, k2r, k4, k4r = _kernels(R)
    groups = []

    for row in _G3_ROWS:
        base = _g3_term(g, row)
        groups.append((base.scale(k0), base.scale(k0r)))

    for sign, xy, a, b, c, d in _TT_ROWS:
        for half_sign, p, q in ((sign, a, b), (-sign, c, d)):
            lhs = ein(f"{xy},{p},{q}->ihjklm", k2, g, g)
            rhs = ein(f"{xy},{p},{q}->ihjklm", k2r, g, g)
            groups.append((_signed(half_sign, lhs), _signed(half_sign, rhs)))

    for row in _F_ROWS:
        groups.append((_f_term(k4, g, row), _f_term(k4r, g, row)))

    rr_sum = _a_block(dec.a)
    lhs34 = (rr_sum + _f_block(t, ricci)).scale(8)
    rhs34 = rr_sum.scale(8) + _f_block(t, g).scale(tau * Fraction(4, 3))
    groups.append((lhs34, rhs34))

    return [(i + 1, lhs, rhs) for i, (lhs, rhs) in enumerate(groups)]


def group_sum_check(R: CurvatureTensor, groups=None, residual_form=None):
    """(sum of the 34 simplified groups, 8 x the assembled rank-6 identity
    form); the two must be componentwise identical.  Precomputed term
    groups / residual may be passed to avoid recomputation."""
    if groups is None:
        groups = term_groups(R)
    total = _sum([rhs for _, _, rhs in groups])
    if residual_form is None:
        residual_form = einstein6_residual(R).residual
    return total, residual_form.scale(8)
