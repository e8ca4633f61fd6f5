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
from .tensor import ein, lincomb
from .curvature import CurvatureTensor
from .identities import (
    TSADecomposition,
    _a_terms,
    _einstein6_terms,
    _f_terms,
    _g3_terms,
    _pieces_in,
    _scaled,
    _t_terms,
    _tt_terms,
    einstein6_residual,
    tsa,
)


def _group_terms(pieces: tuple, dec: TSADecomposition) -> list:
    """The 34 groups as (raw lhs terms, simplified rhs terms) lists of
    ``lincomb`` terms, free indices ordered (i,h,j,k,l,m), from R's
    ``_pieces`` and ``tsa``."""
    t, g, ricci, tau, tt, rn2 = pieces
    rho2 = ein("ij,ij->", ricci, ricci).to_scalar()

    k0 = rn2 - Scalar(4) * rho2 + tau * tau
    k0r = rn2 + tau * tau * Fraction(1, 3)

    k2 = lincomb([
        (-4, tt),
        (8, "xa,ya->xy", ricci, ricci),
        (8, "xaby,ab->xy", t, ricci),
        (tau * -4, ricci),
    ])
    k2r = lincomb([(-4, tt), (tau * tau * Fraction(-2, 9), g)])

    quad = _scaled(8, _t_terms(dec)) + [(4, dec.s)]
    k4 = lincomb(quad + [
        (-8, "aprs,aq->pqrs", t, ricci),
        (8, "aspq,ar->pqrs", t, ricci),
        (-8, "arpq,as->pqrs", t, ricci),
        (8, "aqrs,ap->pqrs", t, ricci),
        (8, "pr,qs->pqrs", ricci, ricci),
        (-8, "ps,qr->pqrs", ricci, ricci),
        (tau * -4, t),
    ])
    c = tau * tau * Fraction(2, 9)
    k4r = lincomb(quad + [
        (tau * Fraction(4, 3), t),
        (c, "pr,qs->pqrs", g, g),
        (-c, "ps,qr->pqrs", g, g),
    ])

    groups = [(_scaled(k0, [x]), _scaled(k0r, [x])) for x in _g3_terms(g)]
    groups += [([x], [y]) for x, y in zip(_tt_terms(k2, g), _tt_terms(k2r, g))]
    groups += [([x], [y]) for x, y in zip(_f_terms(k4, g), _f_terms(k4r, g))]
    rr = _scaled(8, _a_terms(dec.a))
    groups.append((
        rr + _scaled(8, _f_terms(t, ricci)),
        rr + _scaled(tau * Fraction(4, 3), _f_terms(t, g)),
    ))
    return groups


def term_groups(R: CurvatureTensor) -> list:
    """All 34 (group number, raw lhs, simplified rhs) rank-6 tensors,
    free indices ordered (i,h,j,k,l,m)."""
    groups = _group_terms(_pieces_in(R, 6, "the term-group expansion"), tsa(R))
    return [(k, lincomb(lhs), lincomb(rhs)) for k, (lhs, rhs) in enumerate(groups, start=1)]


def group_residuals(R: CurvatureTensor) -> list:
    """The 34 group residuals lhs - rhs, then the sum check's residual: the
    sum of the 34 simplified groups minus 8 x the assembled rank-6 identity
    form.  Each is one ``lincomb``; no group side is built.  The groups and
    the form are built from one set of pieces, so the terms they share are
    the same operands, and ``lincomb`` cancels them before any is
    evaluated: group 34's A rows in its own residual, and in the sum check
    the A rows and the metric triples, which the groups and 8 x the form
    carry with opposite coefficients."""
    pieces, dec = _pieces_in(R, 6, "the term-group expansion"), tsa(R)
    groups = _group_terms(pieces, dec)
    out = [lincomb(lhs + _scaled(-1, rhs)) for lhs, rhs in groups]
    rhs_all = [x for _, rhs in groups for x in rhs]
    out.append(lincomb(rhs_all + _scaled(-8, _einstein6_terms(pieces, dec))))
    return out


def group_sum_check(R: CurvatureTensor, groups=None, residual_form=None):
    """(sum of the 34 simplified groups, 8 x the assembled rank-6 identity
    form); the two must be componentwise identical.  Precomputed term
    groups / residual may be passed to avoid recomputation."""
    if groups is None:
        groups = term_groups(R)
    if residual_form is None:
        residual_form = einstein6_residual(R).residual
    return lincomb([(1, rhs) for _, _, rhs in groups]), residual_form.scale(8)
