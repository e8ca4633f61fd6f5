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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional

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


class CurvatureTensor:
    """A validated algebraic curvature tensor.

    Wraps the rank-4 component Tensor; construction goes through
    :func:`validate_curvature`.
    """

    __slots__ = ("tensor",)

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
            raise CurvatureValidationError(name, diff.nonzero_indices()[0])
    return t


def validate_curvature(t: Tensor) -> CurvatureTensor:
    """Check the two antisymmetries, pair symmetry and first Bianchi;
    return the validated tensor or raise naming the first violation."""
    return CurvatureTensor(t)


@dataclass(frozen=True)
class InvariantReport:
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
        def matrix(t: Tensor):
            d = t.dim
            return [[t.item(i, j).format() for j in range(d)] for i in range(d)]

        return {
            "tau": self.tau.format(),
            "ricci": matrix(self.ricci),
            "ricci_norm_sq": self.ricci_norm_sq.format(),
            "r_norm_sq": self.r_norm_sq.format(),
            "t_check": matrix(self.t_check),
            "r_check": matrix(self.r_check),
            "r_hat2": matrix(self.r_hat2),
            "r_ring2": matrix(self.r_ring2),
            "r_hat0": self.r_hat0.format(),
            "r_ring0": self.r_ring0.format(),
            "einstein": self.einstein,
            "super_einstein": self.super_einstein,
        }


# the five cubic contractions of the module docstring
_R_CHECK = "iuvj,abcu,abcv->ij"
_R_HAT2 = "ibcd,jbuv,cduv->ij"
_R_RING2 = "ibcd,jucv,budv->ij"
_R_HAT0 = "abcd,abuv,cduv->"
_R_RING0 = "abcd,aucv,budv->"


def _pieces(R: CurvatureTensor):
    """(R, g, rho, tau, t_check, ||R||^2), the quadratic-and-lower pieces
    every identity is assembled from."""
    t = R.tensor
    g = Tensor.identity(t.dim)
    ricci = ein("iaaj->ij", t)
    tau = ein("ii->", ricci).to_scalar()
    tt = ein("iabc,jabc->ij", t, t)
    rn2 = ein("ijkl,ijkl->", t, t).to_scalar()
    return t, g, ricci, tau, tt, rn2


def _cubic_pieces(R: CurvatureTensor):
    """(r_check, r_hat2, r_ring2, r_hat0, r_ring0)."""
    t = R.tensor
    r_check, r_hat2, r_ring2 = (ein(s, t, t, t) for s in (_R_CHECK, _R_HAT2, _R_RING2))
    r_hat0, r_ring0 = (ein(s, t, t, t).to_scalar() for s in (_R_HAT0, _R_RING0))
    return r_check, r_hat2, r_ring2, r_hat0, r_ring0


def invariants(R: CurvatureTensor) -> InvariantReport:
    """All scalar and rank-2 invariants of one curvature tensor."""
    t, g, ricci, tau, t_check, r_norm_sq = _pieces(R)
    m = t.dim
    ricci_norm_sq = ein("ij,ij->", ricci, ricci).to_scalar()
    r_check, r_hat2, r_ring2, r_hat0, r_ring0 = _cubic_pieces(R)
    einstein = ricci.scale(m) == g.scale(tau)
    super_einstein = einstein and t_check.scale(m) == g.scale(r_norm_sq)
    return InvariantReport(
        tau=tau,
        ricci=ricci,
        ricci_norm_sq=ricci_norm_sq,
        r_norm_sq=r_norm_sq,
        t_check=t_check,
        r_check=r_check,
        r_hat2=r_hat2,
        r_ring2=r_ring2,
        r_hat0=r_hat0,
        r_ring0=r_ring0,
        einstein=einstein,
        super_einstein=super_einstein,
    )


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


def weyl(R: CurvatureTensor) -> CurvatureTensor:
    """Totally trace-free part of the curvature tensor.

    W = R - (rho wedge g)/(m-2) + tau (g wedge g)/((m-1)(m-2)); the
    coefficients specialize to 1/3 and tau/12 in dimension 5 and to 1/4
    and tau/20 in dimension 6.  The result has identically zero Ricci
    contraction and vanishes for constant-curvature input.
    """
    return CurvatureTensor(lincomb(_weyl_terms(R)))


def _weyl_terms(R: CurvatureTensor) -> list:
    """The terms of W, as ``lincomb`` terms."""
    t = R.tensor
    m = t.dim
    if m < 3:
        raise ShapeError("weyl part needs dim >= 3")
    g = Tensor.identity(m)
    ricci = ein("iaaj->ij", t)
    tau = ein("ii->", ricci).to_scalar()
    c = Fraction(-1, m - 2)
    cg = tau * Fraction(1, (m - 1) * (m - 2))
    return [
        (1, t),
        (c, "ps,qr->pqrs", ricci, g),
        (c, "qr,ps->pqrs", ricci, g),
        (-c, "pr,qs->pqrs", ricci, g),
        (-c, "qs,pr->pqrs", ricci, g),
        (cg, "ps,qr->pqrs", g, g),
        (-cg, "pr,qs->pqrs", g, g),
    ]


@dataclass(frozen=True)
class TwoSteinReport:
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
    """
    t = R.tensor
    return ein("apqb,brsa->pqrs", t, t)


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
    t = R.tensor
    m = t.dim
    g = Tensor.identity(m)
    ricci = ein("iaaj->ij", t)
    tau = ein("ii->", ricci).to_scalar()
    einstein = ricci.scale(m) == g.scale(tau)
    mu1 = tau / Scalar(m) if einstein else None

    d = jacobi_square_coefficients(R)
    sym_d = lincomb(
        [(Fraction(1, 24), f"{''.join(p)}->pqrs", d) for p in permutations("pqrs")]
    )
    mu2_candidate = sym_d.item(0, 0, 0, 0)
    # mu2 Sym(g x g)
    c = mu2_candidate * Fraction(1, 3)
    quartic_ok = sym_d == lincomb(
        [(c, s, g, g) for s in ("pq,rs->pqrs", "pr,qs->pqrs", "ps,qr->pqrs")]
    )
    mu2 = mu2_candidate if quartic_ok else None
    return TwoSteinReport(
        is_two_stein=bool(einstein and quartic_ok), mu1=mu1, mu2=mu2
    )
