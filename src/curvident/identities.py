"""Evaluators for the curvature identities.

Every evaluator assembles an exact residual tensor (left side minus right
side of the identity, or the identity's full form when its right side is
zero) and reports whether it vanishes identically.  Residuals are full
tensors, not booleans: a failing identity reports where and by how much.
Evaluators accept inputs that do not satisfy their hypothesis (the
hypothesis is recorded in the report), so negative controls are
first-class.

Identity ids used across the CLI and reports; the dimensions each id
applies to and the hypothesis its inputs need are stated once, in
``report._IDENTITIES``:

====================  =======================================================
id                    residual
====================  =======================================================
patterson             order-(m+1) delta contracted with r copies of R (rank
                      2+2(m-2r) free, or rank 2 traced)
weyl-patterson        the same for the Weyl part W
weyl-expansion        explicit term-by-term form of the W-identity at r=2,
                      dims 5 and 6 (must equal the delta-engine result)
lemma5                rank-4 identity
thmA-a                rank-2 trace identity
pa5                   rank-4 identity
thmA-b                rank-2 trace identity
lemma6                rank-6 identity
thmB-a                rank-2 trace identity
eq42                  rank-6 identity
thmB-b                rank-2 trace identity
appendix34            34 term-group equalities plus the sum check against 8x
                      the lemma6 form
====================  =======================================================
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .scalar import Scalar
from .tensor import Tensor, ShapeError, _is_zero_part, ein, lincomb
from .delta import DeltaBinding, generalized_delta_contract
# TSADecomposition and tsa live with R's other pieces and are re-exported here
from .curvature import CurvatureTensor, TSADecomposition, _kn_terms, _t_terms, tsa, weyl


class IdentityArgumentError(ValueError):
    """An identity id, curvature-factor count, mode or trial count outside
    its documented range: an input error, never an identity failure."""


class ResidualReport(NamedTuple):
    identity: str
    hypothesis: str  # universal | einstein | super_einstein
    residual: Tensor
    is_zero: bool

    @property
    def witness(self) -> Optional[tuple]:
        """((1-based indices), Scalar) of a nonzero unbatched residual, found
        on each read, so only a report that is shown pays for it; else None.
        A batched residual's witnesses come from its split trials
        (``report.run_trials``)."""
        if self.is_zero or self.residual.batch:
            return None
        return _witness(self.residual)

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "hypothesis": self.hypothesis,
            "is_zero": self.is_zero,
        }
        witness = self.witness
        if witness is not None:
            idx, val = witness
            out["witness"] = {"idx": list(idx), "val": val.format()}
        return out


def _witness(residual: Tensor):
    """The first entry (in index order) of largest absolute value of a
    non-zero residual, 1-based, with its value."""
    if _is_zero_part(residual._irr):
        # rational: |value| orders as |numerator| (one shared denominator),
        # so the first entry of largest |value| in C order is the first
        # maximum or the first minimum, whichever is larger in size, and the
        # earlier of the two on a tie; exact on int64 and on Python ints,
        # and it makes no copy of the residual
        rat = residual._rat
        hi, lo = int(np.argmax(rat)), int(np.argmin(rat))
        top, bottom = int(rat.flat[hi]), -int(rat.flat[lo])
        flat = hi if top > bottom else lo if bottom > top else min(hi, lo)
        idx = tuple(int(i) for i in np.unravel_index(flat, rat.shape))
        return (tuple(i + 1 for i in idx), residual.item(idx))
    best_idx, best_val = None, None
    for idx in residual.nonzero_indices():
        v = residual.item(idx)
        if best_val is None or abs(v) > abs(best_val):
            best_idx, best_val = idx, v
    if best_idx is None:
        return None
    return (tuple(i + 1 for i in best_idx), best_val)


def make_report(identity: str, hypothesis: str, residual: Tensor) -> ResidualReport:
    """The report of a residual; a batched residual is zero when every trial
    is."""
    return ResidualReport(identity, hypothesis, residual, residual.is_zero())


# ---------------------------------------------------------------------------
# the universal antisymmetrization identity (Patterson identity): an
# order-(m+1) generalized delta contracted with r copies of the curvature
# tensor vanishes, because m+1 indices cannot be distinct in dimension m.
# ---------------------------------------------------------------------------


def _patterson_binding(m: int, r: int, mode: str) -> DeltaBinding:
    n = m + 1
    lower = {}
    upper = {}
    for k in range(r):
        lower[2 * k + 1] = (k, 0)
        lower[2 * k + 2] = (k, 1)
        upper[2 * k + 1] = (k, 2)
        upper[2 * k + 2] = (k, 3)
    leftover = list(range(2 * r + 1, m + 1))
    if mode == "traced":
        return DeltaBinding.make(
            n, lower, upper, traced=leftover, out=[("U", 0), ("L", 0)]
        )
    if mode == "free":
        out = [("U", 0), ("L", 0)]
        for s in leftover:
            out.extend((("U", s), ("L", s)))
        return DeltaBinding.make(n, lower, upper, out=out)
    raise IdentityArgumentError(f"mode must be 'free' or 'traced', got {mode!r}")


def max_r(m: int) -> int:
    return m // 2


def _delta_residual(name: str, R: CurvatureTensor, r: int, mode: str, part):
    """The order-(m+1) delta contracted with r copies of ``part(R)``."""
    m = R.dim
    if not 1 <= r <= max_r(m):
        raise IdentityArgumentError(f"r={r} out of range 1..{max_r(m)} for dim {m}")
    t = part(R)
    binding = _patterson_binding(m, r, mode)
    residual = generalized_delta_contract(m + 1, m, [t] * r, binding)
    return make_report(f"{name}[r={r},{mode}]", "universal", residual)


def patterson_residual(
    R: CurvatureTensor, r: int, mode: str = "free"
) -> ResidualReport:
    """Delta-engine evaluation of the universal identity; the remaining
    m-2r index pairs stay free by default (matching the rank of the
    explicit dim-5/6 forms) or are traced pairwise with mode='traced'."""
    return _delta_residual("patterson", R, r, mode, lambda R: R.tensor)


def weyl_patterson_residual(
    R: CurvatureTensor, r: int, mode: str = "free"
) -> ResidualReport:
    """The universal identity for the Weyl part W of R."""
    return _delta_residual("weyl-patterson", R, r, mode, lambda R: weyl(R).tensor)


def _check_dim(R: CurvatureTensor, dim: int, what: str):
    """ShapeError unless R has dimension ``dim``."""
    if R.dim != dim:
        raise ShapeError(f"{what} needs dim {dim}")


# ---------------------------------------------------------------------------
# dimension 5
# ---------------------------------------------------------------------------


# Each helper below returns the terms of one piece of an identity as
# ``lincomb`` terms (coefficient, subscripts, operands...), so an evaluator
# assembles its whole residual as one lincomb.


def _scaled(c, terms) -> list:
    """The terms with every coefficient multiplied by ``c``."""
    return [(c * k, *rest) for k, *rest in terms]


def _quad4(t_quad: Tensor) -> list:
    """R_iabl R_kabj - R_iabk R_labj, two transposes of T."""
    return [(1, "ilkj->ijkl", t_quad), (-1, "iklj->ijkl", t_quad)]


def einstein5_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-4 Einstein identity in dimension 5 (id "lemma5"):

    (||R||^2 + tau^2/5)(g_ik g_jl - g_il g_jk)
      - 4(tt_ik g_jl + tt_jl g_ik - tt_il g_jk - tt_jk g_il)
      + 8(R_iabl R_kabj - R_iabk R_labj) + 4 R_abij R_abkl
      + (12/5) tau R_ijkl  = 0.
    """
    _check_dim(R, 5, "lemma5")
    g, tau = R.g, R.tau
    res = lincomb(
        _kn_terms((R.r_norm_sq + tau * tau * Fraction(1, 5)) * Fraction(-1, 2), g, g)
        + _kn_terms(4, R.t_check, g)
        + _scaled(8, _quad4(R.t_quad))
        + [(4, R.s_quad), (tau * Fraction(12, 5), R.tensor)]
    )
    return make_report("lemma5", "einstein", res)


def einstein5_trace_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-2 Einstein trace identity in dimension 5 (id "thmA-a"):

    2 tau tt + 4 r_check + 4 r_hat2 - 8 r_ring2
      = (tau/5 ||R||^2 + tau^3/25) g.
    """
    _check_dim(R, 5, "thmA-a")
    tau = R.tau
    res = lincomb([
        (tau * 2, R.t_check),
        (4, R.r_check),
        (4, R.r_hat2),
        (-8, R.r_ring2),
        (-(tau * R.r_norm_sq * Fraction(1, 5) + tau * tau * tau * Fraction(1, 25)), R.g),
    ])
    return make_report("thmA-a", "einstein", res)


def super5_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-4 super-Einstein identity in dimension 5 (id "pa5"):

    R_ijab R_abkl + 2 R_iabl R_kabj - 2 R_iabk R_labj + (3/5) tau R_ijkl
      = (3/20 ||R||^2 - 1/20 tau^2)(g_ik g_jl - g_il g_jk).
    """
    _check_dim(R, 5, "pa5")
    c = R.r_norm_sq * Fraction(3, 40) - R.tau * R.tau * Fraction(1, 40)
    res = lincomb(_super5_lhs(R) + _kn_terms(c, R.g, R.g))
    return make_report("pa5", "super_einstein", res)


def _super5_lhs(R: CurvatureTensor) -> list:
    """The four left-side terms of the rank-4 super-Einstein identity."""
    return [(1, R.s_quad)] + _scaled(2, _quad4(R.t_quad)) + [(R.tau * Fraction(3, 5), R.tensor)]


def super5_blocks(R: CurvatureTensor, idx=(0, 1, 2, 3)) -> list:
    """The four left-side blocks of the rank-4 super-Einstein identity at
    one index tuple (0-based); at (1,2,3,4) in the two-parameter normal
    form these equal 2(2a-5b)b, 2(2a-5b)b, 2(2a+b)b, -6(2a-3b)b."""
    _check_dim(R, 5, "super5_blocks")
    return [lincomb([term]).item(*idx) for term in _super5_lhs(R)]


def super5_trace_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-2 super-Einstein trace identity in dimension 5 (id "thmA-b"):

    4 r_ring2 - 2 r_hat2 = (9/50 tau ||R||^2 - tau^3/50) g.
    """
    _check_dim(R, 5, "thmA-b")
    tau = R.tau
    res = lincomb([
        (4, R.r_ring2),
        (-2, R.r_hat2),
        (tau * tau * tau * Fraction(1, 50) - tau * R.r_norm_sq * Fraction(9, 50), R.g),
    ])
    return make_report("thmA-b", "super_einstein", res)


# ---------------------------------------------------------------------------
# dimension 6
# ---------------------------------------------------------------------------


# The four sign tables of the rank-6 identities.  Every explicit dim-6
# form is assembled from them, through the one terms function per table
# below: lemma6, eq42, the transvection rows, the 34 term groups and the
# W-identity blocks.

# first block: signed metric triples g_a g_b g_c
_G3_ROWS = (
    (1, "ij", "hk", "lm"),
    (-1, "ij", "hm", "lk"),
    (-1, "ik", "hj", "lm"),
    (1, "ik", "hm", "lj"),
    (1, "im", "hj", "lk"),
    (-1, "im", "hk", "lj"),
)


def _g3_terms(g: Tensor) -> list:
    return [(sign, f"{a},{b},{c}->ihjklm", g, g, g) for sign, a, b, c in _G3_ROWS]


# second block: rows of sign * X_xy (g_a g_b - g_c g_d) for the norm
# contraction X = tt; the rank-6 identity carries them with factor -1/2
_TT_ROWS = (
    (1, "ij", "hk", "lm", "hm", "lk"),
    (-1, "ik", "hj", "lm", "hm", "lj"),
    (1, "im", "hj", "lk", "hk", "lj"),
    (-1, "hj", "ik", "lm", "im", "lk"),
    (1, "hk", "ij", "lm", "im", "lj"),
    (-1, "hm", "ij", "lk", "ik", "lj"),
    # the third family carries these signs; the opposite choice printed
    # in the W-identity display contradicts both the delta-engine result
    # and the rank-6 Einstein identity
    (1, "lj", "ik", "hm", "im", "hk"),
    (-1, "lk", "ij", "hm", "im", "hj"),
    (1, "lm", "ij", "hk", "ik", "hj"),
)


def _tt_terms(x: Tensor, g: Tensor) -> list:
    """The two halves of every row, in row order: terms 2k and 2k+1 are
    row k."""
    return [
        (half_sign, f"{xy},{p},{q}->ihjklm", x, g, g)
        for sign, xy, a, b, c, d in _TT_ROWS
        for half_sign, p, q in ((sign, a, b), (-sign, c, d))
    ]


# third block: rows of sign * X_pqrs Y_xy, with Y = g and X = F,
# F_pqrs = -T_prsq + T_psrq + (1/2) S_pqrs + (tau/3) R_pqrs
_F_ROWS = (
    (1, "ihjk", "lm"),
    (-1, "iljk", "hm"),
    (-1, "ihjm", "lk"),
    (1, "iljm", "hk"),
    (1, "ihkm", "lj"),
    (-1, "ilkm", "hj"),
    (-1, "hljm", "ik"),
    (1, "hljk", "im"),
    (1, "hlkm", "ij"),
)


def _f_terms(x4: Tensor, y2: Tensor) -> list:
    return [(sign, f"{pqrs},{xy}->ihjklm", x4, y2) for sign, pqrs, xy in _F_ROWS]


# A block: signed axis labels of A_pqrstu
_A_ROWS = (
    (1, "hjkmil"),
    (-1, "ljkmih"),
    (-1, "ijkmhl"),
    (1, "ijmkhl"),
    (-1, "hjmkil"),
    (1, "ljmkih"),
    (-1, "ikmjhl"),
    (1, "hkmjil"),
    (-1, "lkmjih"),
)


def _a_terms(a6: Tensor) -> list:
    return [(sign, f"{labels}->ihjklm", a6) for sign, labels in _A_ROWS]


def _einstein6_block_terms(R: CurvatureTensor) -> tuple:
    """The terms of the first three blocks of the rank-6 Einstein identity:
    the metric triples, the norm rows and the F rows.  The fourth, the A
    rows, is ``_a_terms(R.a_quad)``."""
    g, tau = R.g, R.tau
    return (
        _scaled((R.r_norm_sq + tau * tau * Fraction(1, 3)) * Fraction(1, 8), _g3_terms(g)),
        _scaled(Fraction(-1, 2), _tt_terms(R.t_check, g)),
        _f_terms(R.f, g),
    )


def _einstein6_terms(R: CurvatureTensor) -> list:
    """The terms of the rank-6 Einstein identity form but its A rows; with
    ``_a_terms(R.a_quad)``, their lincomb is the lemma6 residual."""
    return [term for block in _einstein6_block_terms(R) for term in block]


def einstein6_blocks(R: CurvatureTensor):
    """The four blocks of the rank-6 Einstein identity, plus the
    individual second/third/A-block terms for the transvection tables."""
    _check_dim(R, 6, "lemma6")
    g3, tt, f = _einstein6_block_terms(R)
    tt_rows = [lincomb(tt[k : k + 2]) for k in range(0, len(tt), 2)]
    a = [lincomb([x]) for x in _a_terms(R.a_quad)]
    return lincomb(g3), tt_rows, [lincomb([x]) for x in f], a


def _einstein6_form(R: CurvatureTensor) -> Tensor:
    """The rank-6 Einstein identity form, its four blocks streamed into one
    lincomb: the lemma6 residual.  It is the one reader of R's A tensor,
    and it is memoized in R's instance dict, as R's cached pieces are, in
    A's place: eq42 reads it again, and on Einstein input it is a zero
    part, while A is a dense rank-6 array."""
    form = vars(R).get("einstein6_form")
    if form is None:
        form = vars(R)["einstein6_form"] = lincomb(_einstein6_terms(R) + _a_terms(R.a_quad))
    return form


def einstein6_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-6 Einstein identity in dimension 6 (id "lemma6"); free indices
    ordered (i,h,j,k,l,m)."""
    _check_dim(R, 6, "lemma6")
    return make_report("lemma6", "einstein", _einstein6_form(R))


def super6_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-6 super-Einstein identity in dimension 6 (id "eq42"): the lemma6
    form with its g-block flipped to -(1/8)(||R||^2 - tau^2/3) and its
    tt-block dropped.  It is evaluated as the lemma6 form plus the two
    blocks where the forms differ, -(||R||^2/4) g3 + (1/2) tt(t_check, g),
    so it adds no F or A row, and R's A tensor is read once for both
    ids."""
    _check_dim(R, 6, "eq42")
    g = R.g
    res = lincomb(
        [(1, _einstein6_form(R))]
        + _scaled(R.r_norm_sq * Fraction(-1, 4), _g3_terms(g))
        + _scaled(Fraction(1, 2), _tt_terms(R.t_check, g))
    )
    return make_report("eq42", "super_einstein", res)


def einstein6_trace_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-2 Einstein trace identity in dimension 6 (id "thmB-a"):

    4 tau tt + 12 r_check + 12 r_hat2 - 24 r_ring2
      = (tau ||R||^2 - 4 r_ring0 + 2 r_hat0) g.
    """
    _check_dim(R, 6, "thmB-a")
    tau = R.tau
    res = lincomb([
        (tau * 4, R.t_check),
        (12, R.r_check),
        (12, R.r_hat2),
        (-24, R.r_ring2),
        (-(tau * R.r_norm_sq - Scalar(4) * R.r_ring0 + Scalar(2) * R.r_hat0), R.g),
    ])
    return make_report("thmB-a", "einstein", res)


def einstein6_trace_residual_alt(R: CurvatureTensor) -> ResidualReport:
    """The independently stated arrangement of the same trace identity,
    (-tau||R||^2 + 4 r_ring0 - 2 r_hat0) g + 12 r_check + 12 r_hat2
    - 24 r_ring2 + 4 tau tt = 0; must be componentwise identical to
    the thmB-a residual."""
    _check_dim(R, 6, "thm22")
    tau = R.tau
    res = lincomb([
        (-(tau * R.r_norm_sq) + Scalar(4) * R.r_ring0 - Scalar(2) * R.r_hat0, R.g),
        (12, R.r_check),
        (12, R.r_hat2),
        (-24, R.r_ring2),
        (tau * 4, R.t_check),
    ])
    return make_report("thm22", "einstein", res)


def super6_trace_residual(R: CurvatureTensor) -> ResidualReport:
    """Rank-2 super-Einstein trace identity in dimension 6 (id "thmB-b"):

    2 r_ring2 - r_hat2 = (1/6)(2 r_ring0 - r_hat0) g.
    """
    _check_dim(R, 6, "thmB-b")
    res = lincomb([
        (2, R.r_ring2),
        (-1, R.r_hat2),
        ((R.r_hat0 - Scalar(2) * R.r_ring0) * Fraction(1, 6), R.g),
    ])
    return make_report("thmB-b", "super_einstein", res)


def gauss_bonnet_integrand_6(R: CurvatureTensor) -> Scalar:
    """The dimension-6 Euler-characteristic integrand bracket:

    tau^3 - 12 tau ||rho||^2 + 3 tau ||R||^2 + 16 rho_ab rho_ac rho_bc
      - 24 rho_ab rho_cd R_acbd - 24 rho_uv R_abcu R_abcv
      + 8 R_abcd R_aucv R_bvdu - 2 R_abcd R_abuv R_cduv

    (the integral of this over a compact oriented 6-manifold is
    384 pi^3 chi).  On a batch, one bracket per trial in a batched rank-0
    Tensor.
    """
    _check_dim(R, 6, "the Euler integrand bracket")
    t, ricci, tau = R.tensor, R.ricci, R.tau
    cubic = lincomb([
        (16, "ab,ac,bc->", ricci, ricci, ricci),
        (-24, "ab,cd,acbd->", ricci, ricci, t),
        (-24, "uv,uv->", ricci, R.t_check),  # rho_uv R_abcu R_abcv
        (8, "abcd,aucv,bvdu->", t, t, t),
    ]).to_scalar()
    tau_terms = tau * (tau * tau - R.ricci_norm_sq * Scalar(12) + R.r_norm_sq * Scalar(3))
    return tau_terms + cubic - Scalar(2) * R.r_hat0


# ---------------------------------------------------------------------------
# explicit term-by-term forms of the W-identity at r=2 (dims 5 and 6);
# independent of the delta engine, cross-checked against it
# ---------------------------------------------------------------------------


def _weyl_identity_block_terms(W: CurvatureTensor) -> list:
    """The terms of each explicit block of the r=2 W-identity."""
    if W.dim not in (5, 6):
        raise ShapeError("explicit W-identity blocks exist for dims 5 and 6 only")
    g, tw, w2 = W.g, W.t_check, W.r_norm_sq
    if W.dim == 5:
        inner = _kn_terms(-1, tw, g) + _scaled(-2, _quad4(W.t_quad)) + [(-1, W.s_quad)]
        return [_kn_terms(w2 * Fraction(-1, 2), g, g), _scaled(-4, inner)]
    return [
        _scaled(w2, _g3_terms(g)),
        _scaled(-4, _tt_terms(tw, g)),
        _scaled(8, _f_terms(lincomb(_t_terms(W.t_quad)), g)),
        _scaled(4, _f_terms(W.s_quad, g)),
        _scaled(8, _a_terms(W.a_quad)),
    ]


def weyl_identity_blocks(W: CurvatureTensor) -> list:
    """The explicit blocks of the r=2 identity for a trace-free curvature
    tensor, as rank-4 ('ijkl', dim 5) or rank-6 ('ihjklm', dim 6) tensors.
    Their sum must equal the delta-engine residual (identically zero)."""
    return [lincomb(block) for block in _weyl_identity_block_terms(W)]


def weyl_expansion_residual(R: CurvatureTensor) -> ResidualReport:
    blocks = _weyl_identity_block_terms(weyl(R))
    total = lincomb([term for block in blocks for term in block])
    return make_report("weyl-expansion[r=2]", "universal", total)


# ---------------------------------------------------------------------------
# transvection machinery (derivation cross-checks)
# ---------------------------------------------------------------------------


def transvect_rank4(res4: Tensor, R: CurvatureTensor) -> Tensor:
    """Contract a rank-4 ('ijkl') form with R_pjkl -> rank 2 ('ip')."""
    return ein("ijkl,pjkl->ip", res4, R.tensor)


def transvect_rank6(res6: Tensor, R: CurvatureTensor) -> Tensor:
    """Contract a rank-6 ('ihjklm') form with R_ihjk -> rank 2 ('lm')."""
    return ein("ihjklm,ihjk->lm", res6, R.tensor)


def trace_subidentities_5(R: CurvatureTensor) -> list:
    """Per-term transvections of the rank-4 Einstein identity in dim 5
    with R_pjkl.  Returns (name, lhs, rhs); each equality holds exactly
    under the Einstein hypothesis, and the summed right sides equal twice
    the thmA-a combination (so the trace identity is literally the
    transvection of the rank-4 one)."""
    _check_dim(R, 5, "trace_subidentities_5")
    t, g, tau, tt = R.tensor, R.g, R.tau, R.t_check
    c1 = R.r_norm_sq + tau * tau * Fraction(1, 5)
    blocks = [
        ("g-block", _kn_terms(c1 * Fraction(-1, 2), g, g), [(-c1 * tau * Fraction(2, 5), g)]),
        ("tt-block", _kn_terms(4, tt, g), [(tau * Fraction(8, 5), tt), (8, R.r_check)]),
        ("quad-block", _scaled(8, _quad4(R.t_quad)), [(-16, R.r_ring2), (4, R.r_hat2)]),
        ("pair-block", [(4, R.s_quad)], [(4, R.r_hat2)]),
        ("tau-block", [(tau * Fraction(12, 5), t)], [(tau * Fraction(12, 5), tt)]),
    ]
    return [
        (name, transvect_rank4(lincomb(lhs), R), lincomb(rhs)) for name, lhs, rhs in blocks
    ]


def trace_subidentities_6(R: CurvatureTensor) -> list:
    """The displayed transvection sub-identities of the rank-6 Einstein
    identity: nine second-block rows, nine third-block rows, and the
    A-block row.  Returns (name, lhs, rhs) tensors; lhs == rhs holds
    exactly under the Einstein hypothesis."""
    b1, tt_terms, f_terms, a_terms = einstein6_blocks(R)
    g, tau, tt, rn2 = R.g, R.tau, R.t_check, R.r_norm_sq
    r_check, r_hat2, r_ring2 = R.r_check, R.r_hat2, R.r_ring2

    out = []
    rhs_a = lincomb([(tau * rn2 * Fraction(1, 12), g), (Fraction(-1, 2), r_check)])
    rhs_b = tt.scale(-tau * Fraction(1, 6))
    rhs_c = tt.scale(tau)
    tt_rhs = [rhs_a, rhs_a, rhs_b, rhs_a, rhs_a, rhs_b, rhs_b, rhs_b, rhs_c]
    for k, (term, rhs) in enumerate(zip(tt_terms, tt_rhs), start=1):
        out.append((f"tt-block[{k}]", transvect_rank6(term, R), rhs))

    rhs_1 = g.scale(
        -(Scalar(2) * R.r_ring0) + R.r_hat0 + tau * rn2 * Fraction(1, 3)
    )
    rhs_2 = lincomb([(2, r_ring2), (-1, r_hat2), (-tau * Fraction(1, 3), tt)])
    rhs_3 = lincomb([(tau * tau * tau * Fraction(1, 72), g), (-tau * Fraction(1, 4), tt)])
    f_rhs = [rhs_1, rhs_2, rhs_2, rhs_3, rhs_2, rhs_3, rhs_3, rhs_2, rhs_3]
    for k, (term, rhs) in enumerate(zip(f_terms, f_rhs), start=1):
        out.append((f"ts-block[{k}]", transvect_rank6(term, R), rhs))

    a_total = lincomb([(1, a) for a in a_terms])
    rhs_aa = lincomb([(-4, r_check), (-2, r_hat2), (4, r_ring2)])
    out.append(("a-block", transvect_rank6(a_total, R), rhs_aa))
    return out
