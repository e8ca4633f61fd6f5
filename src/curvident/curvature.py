"""Algebraic curvature tensors and their invariants.

Conventions (orthonormal frame, metric = identity):

* Ricci contraction  rho_ij = sum_a R_iaaj, scalar curvature tau = tr rho.
* Constant sectional curvature k means R_ijkl = k (g_il g_jk - g_ik g_jl),
  so R_1221 = k and tau = m (m-1) k > 0 for k > 0.
* The cubic rank-2 contractions and their scalars::

      t_check_ij = R_iabc R_jabc            (norm-square contraction)
      r_check_ij = R_iuvj R_abcu R_abcv
      r_hat2_ij  = R_ibcd R_jbuv R_cduv     r_hat0  = R_abcd R_abuv R_cduv
      r_ring2_ij = R_ibcd R_jucv R_budv     r_ring0 = R_abcd R_aucv R_budv

Einstein means rho = (tau/m) g exactly; super-Einstein additionally
t_check = (||R||^2/m) g exactly.  (For a single algebraic tensor the
constancy of ||R||^2 over a manifold is vacuous and not checked.)

The quadratic pieces are T_pqrs = R_pabq R_rabs, S_pqrs = R_abpq R_abrs,
A_pqrstu = R_apqr R_astu and F_pqrs = -T_prsq + T_psrq + S_pqrs/2 +
(tau/3) R_pqrs.  With t_check and ||R||^2 they are the only R.R
contractions outside the delta engine; the identities' other quadratic
terms are transposes of them.  The Kulkarni-Nomizu product, stated once
in ``_kn_terms``, is (h wedge k)_ijkl = h_il k_jk + h_jk k_il - h_ik k_jl -
h_jl k_ik, so (k/2) g wedge g has constant curvature k.

Every identity is a polynomial in R built from a few derived pieces, and
each is a cached property of the immutable ``CurvatureTensor``, computed
once on first use: ``g``, ``ricci``, ``tau``, ``t_check``, ``r_norm_sq``,
``ricci_norm_sq``, the five cubic contractions above, ``einstein``,
``super_einstein``, ``t_quad``, ``s_quad`` (T, S; ``tsa`` groups them with
A), ``f`` (F) and ``weyl`` (validated once).  ``a_quad`` (A) is the one
piece that is not cached: it is a dense rank-6 array, built on each read,
and only ``tsa`` and the test-only ``identities.einstein6_blocks`` read
it.  The identities' A rows contract R with itself instead, one slice of
their leading index at a time (``identities._a_rows``), so no evaluator
builds A.  The pieces are
shared, not only cheap: ``lincomb`` merges terms with the same subscripts
and the same operand objects before evaluating any, so terms built from
one R's pieces in different evaluators cancel unevaluated, and terms that
share all operand objects but one contract once, on the sum of that one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import NamedTuple, Optional

from .scalar import Scalar
from .tensor import Tensor, ShapeError, ein, lincomb


class CurvatureValidationError(ValueError):
    """A rank-4 tensor violates a curvature symmetry.

    ``identity`` names the violated symmetry, ``indices`` the first
    offending component (1-based, as printed).
    """

    def __init__(self, identity: str, indices):
        self.identity = identity
        self.indices = tuple(int(i) + 1 for i in indices)
        super().__init__(f"{identity} violated at component {self.indices}")


class TSADecomposition(NamedTuple):
    """T, S and A (module docstring), the quadratic blocks of the rank-6
    identity."""

    t: Tensor
    s: Tensor
    a: Tensor


# the five cubic contractions of the module docstring
_R_CHECK = "iuvj,abcu,abcv->ij"
_R_HAT2 = "ibcd,jbuv,cduv->ij"
_R_RING2 = "ibcd,jucv,budv->ij"
_R_HAT0 = "abcd,abuv,cduv->"
_R_RING0 = "abcd,aucv,budv->"


class CurvatureTensor:
    """A validated algebraic curvature tensor.

    Wraps the rank-4 component Tensor; construction goes through
    :func:`validate_curvature`.  The derived pieces (module docstring) are
    written into the instance dict by ``cached_property``, and lemma6's
    form by ``identities``, past the immutability guard; ``==`` and
    ``hash`` read only ``tensor``.
    """

    def __init__(self, tensor: Tensor, _validated: bool = False):
        if not _validated:
            tensor = _check_symmetries(tensor)
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    @property
    def dim(self) -> int:
        return self.tensor.dim

    def item(self, *idx) -> Scalar:
        return self.tensor.item(*idx)

    def scale(self, value) -> "CurvatureTensor":
        return CurvatureTensor(self.tensor.scale(value), _validated=True)

    def __eq__(self, other):
        if isinstance(other, CurvatureTensor):
            return self.tensor == other.tensor
        return NotImplemented

    def __hash__(self):
        return hash(self.tensor)

    def __repr__(self):
        return f"CurvatureTensor(dim={self.dim})"

    # -- derived pieces, each computed once ----------------------------------

    @cached_property
    def g(self) -> Tensor:
        return Tensor.identity(self.dim)

    @cached_property
    def ricci(self) -> Tensor:
        return ein("iaaj->ij", self.tensor)

    @cached_property
    def tau(self) -> Scalar:
        return ein("ii->", self.ricci).to_scalar()

    @cached_property
    def t_check(self) -> Tensor:
        return ein("iabc,jabc->ij", self.tensor, self.tensor)

    @cached_property
    def r_norm_sq(self) -> Scalar:
        return ein("ijkl,ijkl->", self.tensor, self.tensor).to_scalar()

    @cached_property
    def ricci_norm_sq(self) -> Scalar:
        return ein("ij,ij->", self.ricci, self.ricci).to_scalar()

    def _cubic(self, subscripts: str) -> Tensor:
        return ein(subscripts, self.tensor, self.tensor, self.tensor)

    @cached_property
    def r_check(self) -> Tensor:
        return self._cubic(_R_CHECK)

    @cached_property
    def r_hat2(self) -> Tensor:
        return self._cubic(_R_HAT2)

    @cached_property
    def r_ring2(self) -> Tensor:
        return self._cubic(_R_RING2)

    @cached_property
    def r_hat0(self) -> Scalar:
        return self._cubic(_R_HAT0).to_scalar()

    @cached_property
    def r_ring0(self) -> Scalar:
        return self._cubic(_R_RING0).to_scalar()

    @cached_property
    def einstein(self) -> bool:
        return self.ricci.scale(self.dim) == self.g.scale(self.tau)

    @cached_property
    def super_einstein(self) -> bool:
        return self.einstein and self.t_check.scale(self.dim) == self.g.scale(self.r_norm_sq)

    @cached_property
    def t_quad(self) -> Tensor:
        return ein("pabq,rabs->pqrs", self.tensor, self.tensor)

    @cached_property
    def s_quad(self) -> Tensor:
        return ein("abpq,abrs->pqrs", self.tensor, self.tensor)

    @property
    def a_quad(self) -> Tensor:
        """A, built afresh on each read (module docstring)."""
        return ein("apqr,astu->pqrstu", self.tensor, self.tensor)

    @cached_property
    def tsa(self) -> TSADecomposition:
        return TSADecomposition(self.t_quad, self.s_quad, self.a_quad)

    @cached_property
    def f(self) -> Tensor:
        return lincomb(
            _t_terms(self.t_quad)
            + [(Fraction(1, 2), self.s_quad), (self.tau * Fraction(1, 3), self.tensor)]
        )

    @cached_property
    def weyl(self) -> "CurvatureTensor":
        return CurvatureTensor(lincomb(_weyl_terms(self)))


# each symmetry with the axis labels of the signed transposes of R_ijkl
# whose sum vanishes exactly when it holds
_SYMMETRIES = (
    ("antisymmetry in first index pair", ((1, "ijkl"), (1, "jikl"))),
    ("antisymmetry in second index pair", ((1, "ijkl"), (1, "ijlk"))),
    ("pair-interchange symmetry", ((1, "ijkl"), (-1, "klij"))),
    ("first Bianchi identity", ((1, "ijkl"), (1, "kijl"), (1, "jkil"))),
)


def _check_symmetries(t: Tensor) -> Tensor:
    if t.rank != 4:
        raise ShapeError(f"curvature tensor must have rank 4, got {t.rank}")
    for name, rows in _SYMMETRIES:
        diff = lincomb([(c, f"{s}->ijkl", t) for c, s in rows])
        if not diff.is_zero():
            # the first offending component, of the first such trial of a batch
            raise CurvatureValidationError(name, diff.nonzero_indices()[0][-4:])
    return t


def validate_curvature(t: Tensor) -> CurvatureTensor:
    """Check the two antisymmetries, pair symmetry and first Bianchi;
    return the validated tensor or raise naming the first violation."""
    return CurvatureTensor(t)


class InvariantReport(NamedTuple):
    tau: Scalar
    ricci: Tensor
    ricci_norm_sq: Scalar
    r_norm_sq: Scalar
    t_check: Tensor
    r_check: Tensor
    r_hat2: Tensor
    r_ring2: Tensor
    r_hat0: Scalar
    r_ring0: Scalar
    einstein: bool
    super_einstein: bool

    def to_json(self) -> dict:
        """Every field in field order: a matrix as rows of scalar text."""

        def value(v):
            if isinstance(v, Tensor):
                return [[v.item(i, j).format() for j in range(v.dim)] for i in range(v.dim)]
            return v if isinstance(v, bool) else v.format()

        return {name: value(v) for name, v in zip(self._fields, self)}


def invariants(R: CurvatureTensor) -> InvariantReport:
    """All scalar and rank-2 invariants of one curvature tensor."""
    return InvariantReport(*(getattr(R, name) for name in InvariantReport._fields))


def triple_products(R: CurvatureTensor):
    """The three cubic contraction patterns

        P1_ij = R_ibcd R_jbuv R_cudv
        P2_ij = R_ibcd R_jubv R_cudv
        P3_ij = R_ibcd R_jucv R_bvdu

    by direct contraction.  For every valid curvature tensor they relate
    to the invariants as P1 = r_hat2/2, P2 = r_hat2/4,
    P3 = r_ring2 - r_hat2/4 (property-tested, not assumed).
    """
    t = R.tensor
    p1 = ein("ibcd,jbuv,cudv->ij", t, t, t)
    p2 = ein("ibcd,jubv,cudv->ij", t, t, t)
    p3 = ein("ibcd,jucv,bvdu->ij", t, t, t)
    return p1, p2, p3


def tsa(R: CurvatureTensor) -> TSADecomposition:
    return R.tsa


def weyl(R: CurvatureTensor) -> CurvatureTensor:
    """Totally trace-free part of the curvature tensor.

    W = R - (rho wedge g)/(m-2) + tau (g wedge g)/(2(m-1)(m-2)); the
    coefficients specialize to 1/3 and tau/24 in dimension 5 and to 1/4
    and tau/40 in dimension 6.  The result has identically zero Ricci
    contraction and vanishes for constant-curvature input.
    """
    return R.weyl


def _weyl_terms(R: CurvatureTensor) -> list:
    """The terms of W, as ``lincomb`` terms."""
    m = R.dim
    if m < 3:
        raise ShapeError("weyl part needs dim >= 3")
    return (
        [(1, R.tensor)]
        + _kn_terms(Fraction(-1, m - 2), R.ricci, R.g)
        + _kn_terms(R.tau * Fraction(1, 2 * (m - 1) * (m - 2)), R.g, R.g)
    )


def _kn_terms(c, h: Tensor, k: Tensor) -> list:
    """c (h wedge k) (module docstring) as ``lincomb`` terms; for k = h its
    rows pair up into 2c (h_il h_jk - h_ik h_jl)."""
    if h is k:
        return [(2 * c, "il,jk->ijkl", h, h), (-2 * c, "ik,jl->ijkl", h, h)]
    rows = ((c, "il,jk"), (c, "jk,il"), (-c, "ik,jl"), (-c, "jl,ik"))
    return [(x, f"{ab}->ijkl", h, k) for x, ab in rows]


def _t_terms(t: Tensor) -> list:
    """-T_prsq + T_psrq, the T part of F, from T."""
    return [(-1, "prsq->pqrs", t), (1, "psrq->pqrs", t)]


class TwoSteinReport(NamedTuple):
    is_two_stein: bool
    mu1: Optional[Scalar]
    mu2: Optional[Scalar]

    def to_json(self) -> dict:
        return {
            "is_two_stein": self.is_two_stein,
            "mu1": self.mu1.format() if self.mu1 is not None else None,
            "mu2": self.mu2.format() if self.mu2 is not None else None,
        }


def jacobi_square_coefficients(R: CurvatureTensor) -> Tensor:
    """Degree-4 coefficient tensor of tr(R_X^2) in X:

        tr(R_X^2) = sum_{a,b} R(e_a,X,X,e_b) R(e_b,X,X,e_a)
                  = D_pqrs X^p X^q X^r X^s,  D_pqrs = R_apqb R_brsa.

    D_pqrs = T_pqsr for every algebraic curvature tensor (pair interchange
    and the two antisymmetries of both factors), so D is a transpose of T.
    """
    return ein("pqsr->pqrs", R.t_quad)


def jacobi_square_trace(R: CurvatureTensor, x: Tensor) -> Scalar:
    """tr(R_X^2) for a concrete tangent vector x (rank-1 tensor)."""
    if x.rank != 1 or x.dim != R.dim:
        raise ShapeError("x must be a rank-1 tensor of matching dim")
    d = jacobi_square_coefficients(R)
    return ein("pqrs,p,q,r,s->", d, x, x, x, x).to_scalar()


def two_stein_check(R: CurvatureTensor) -> TwoSteinReport:
    """Check tr R_X = mu1 ||X||^2 and tr(R_X^2) = mu2 ||X||^4 for all X.

    Both are polynomial identities in X, checked exactly after full
    symmetrization of the coefficient tensors.  The first reduces to the
    Einstein condition (the Jacobi trace is rho(X,X)); the second compares
    Sym(D) with mu2 Sym(g x g), mu2 read off at X = e_1.
    """
    mu1 = R.tau / Scalar(R.dim) if R.einstein else None
    d = jacobi_square_coefficients(R)
    sym_d = lincomb(
        [(Fraction(1, 24), f"{''.join(p)}->pqrs", d) for p in permutations("pqrs")]
    )
    mu2_candidate = sym_d.item(0, 0, 0, 0)
    # mu2 Sym(g x g)
    c = mu2_candidate * Fraction(1, 3)
    quartic_ok = sym_d == lincomb(
        [(c, s, R.g, R.g) for s in ("pq,rs->pqrs", "pr,qs->pqrs", "ps,qr->pqrs")]
    )
    mu2 = mu2_candidate if quartic_ok else None
    return TwoSteinReport(
        is_two_stein=bool(R.einstein and quartic_ok), mu1=mu1, mu2=mu2
    )
