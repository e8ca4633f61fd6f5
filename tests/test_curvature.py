"""Curvature validation, the invariant reports for the catalog spaces,
Weyl projection, and the 2-stein polynomial check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curvident.scalar import Scalar
from curvident.tensor import Tensor, ein
from curvident.curvature import (
    CurvatureValidationError,
    invariants,
    jacobi_square_coefficients,
    jacobi_square_trace,
    triple_products,
    two_stein_check,
    validate_curvature,
    weyl,
)
from curvident.models import (
    constant_curvature,
    example_5d,
    example_6d,
    flat,
    nikolayevsky,
    random_curvature,
    sl3_so3,
)


def _diag(t, values):
    d = t.dim
    for i in range(d):
        for j in range(d):
            want = Scalar(values[i]) if i == j else Scalar(0)
            assert t.item(i, j) == want


# -- validation ---------------------------------------------------------------


def test_constant_curvature_validates():
    for k in (1, -2, Fraction(3, 7)):
        validate_curvature(constant_curvature(4, k).tensor)


def test_antisymmetry_violation_reports_indices():
    comps = {(0, 1, 0, 1): Scalar(1), (1, 0, 0, 1): Scalar(1)}
    t = Tensor.from_components(3, 4, comps)
    with pytest.raises(CurvatureValidationError) as err:
        validate_curvature(t)
    assert "antisymmetry" in str(err.value)
    assert err.value.indices  # 1-based offending component


def test_bianchi_violation_detected():
    # antisymmetries and pair symmetry hold, first Bianchi fails
    comps = {}
    for (i, j, k, l), v in {(0, 1, 2, 3): 1}.items():
        for (a, b, c, d), s in (
            ((i, j, k, l), 1), ((j, i, k, l), -1), ((i, j, l, k), -1),
            ((j, i, l, k), 1), ((k, l, i, j), 1), ((l, k, i, j), -1),
            ((k, l, j, i), -1), ((l, k, j, i), 1),
        ):
            comps[(a, b, c, d)] = Scalar(s * v)
    t = Tensor.from_components(4, 4, comps)
    with pytest.raises(CurvatureValidationError) as err:
        validate_curvature(t)
    assert "Bianchi" in str(err.value)


def test_rank_checked():
    with pytest.raises(Exception):
        validate_curvature(Tensor.identity(4))


# -- invariants against the worked examples ----------------------------------


def test_example_5d_tables():
    for k in (1, 2):
        inv = invariants(example_5d(k))
        assert inv.tau == Scalar(10 * k)
        assert inv.r_norm_sq == Scalar(28 * k * k)
        k3 = k ** 3
        _diag(inv.t_check, [4 * k * k] * 3 + [8 * k * k] * 2)
        _diag(inv.r_check, [8 * k3] * 3 + [16 * k3] * 2)
        _diag(inv.r_hat2, [-8 * k3] * 3 + [-32 * k3] * 2)
        _diag(inv.r_ring2, [-2 * k3] * 3 + [0, 0])
        assert inv.einstein and not inv.super_einstein


def test_sl3_so3_tables():
    inv = invariants(sl3_so3())
    _diag(inv.ricci, [-3] * 5)
    assert inv.tau == Scalar(-15)
    assert inv.r_norm_sq == Scalar(75)
    _diag(inv.r_hat2, [75] * 5)
    _diag(inv.r_ring2, [Fraction(15, 4)] * 5)
    assert inv.super_einstein


def test_example_6d_tables():
    inv = invariants(example_6d(1))
    assert inv.tau == Scalar(12)
    assert inv.r_norm_sq == Scalar(24)
    assert inv.r_ring0 == Scalar(-12)
    assert inv.r_hat0 == Scalar(-48)
    _diag(inv.r_check, [8] * 6)
    _diag(inv.r_hat2, [-8] * 6)
    _diag(inv.r_ring2, [-2] * 6)
    _diag(inv.t_check, [4] * 6)
    assert inv.einstein and inv.super_einstein


def test_invariant_symmetries_and_trace_identity():
    for seed in (3, 14, 159):
        for dim in (4, 5, 6):
            inv = invariants(random_curvature(dim, seed, 3))
            for t in (inv.ricci, inv.t_check, inv.r_check, inv.r_hat2, inv.r_ring2):
                assert t == t.transpose((1, 0))
            # tr(t_check) = ||R||^2 and tr(ricci) = tau
            assert ein("ii->", inv.t_check).to_scalar() == inv.r_norm_sq
            assert ein("ii->", inv.ricci).to_scalar() == inv.tau


# -- triple products ----------------------------------------------------------


def test_triple_products_flat_space():
    p1, p2, p3 = triple_products(flat(5))
    assert p1.is_zero() and p2.is_zero() and p3.is_zero()


def test_triple_products_constant_curvature_oracle():
    """Frozen from the independent componentwise sum over all 5**7 index
    assignments (recomputed here for one diagonal entry)."""
    p1, p2, p3 = triple_products(constant_curvature(5, 1))
    _diag(p1, [-8] * 5)
    _diag(p2, [-4] * 5)
    _diag(p3, [-8] * 5)

    def rc(i, j, k, l):
        return (i == l) * (j == k) - (i == k) * (j == l)

    from itertools import product as iproduct

    s1 = sum(
        rc(0, b, c, d) * rc(0, b, u, v) * rc(c, u, d, v)
        for b, c, d, u, v in iproduct(range(5), repeat=5)
    )
    assert s1 == -8


@settings(deadline=None, max_examples=6)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from([4, 5, 6]))
def test_triple_product_relations_hold_universally(seed, dim):
    """P1 = r_hat2/2, P2 = r_hat2/4, P3 = r_ring2 - r_hat2/4 for arbitrary
    valid curvature tensors; both sides computed independently."""
    R = random_curvature(dim, seed, 3)
    inv = invariants(R)
    p1, p2, p3 = triple_products(R)
    assert p1 == inv.r_hat2.scale(Fraction(1, 2))
    assert p2 == inv.r_hat2.scale(Fraction(1, 4))
    assert p3 == inv.r_ring2 - inv.r_hat2.scale(Fraction(1, 4))


# -- Weyl part ----------------------------------------------------------------


def test_weyl_constant_curvature_vanishes():
    for dim in (3, 4, 5, 6):
        for k in (1, -3, Fraction(2, 5)):
            assert weyl(constant_curvature(dim, k)).tensor.is_zero()


def test_weyl_of_catalog_examples_nonzero_and_trace_free():
    for R in (example_5d(1), example_6d(1)):
        w = weyl(R)
        assert not w.tensor.is_zero()
        assert ein("iaaj->ij", w.tensor).is_zero()


@settings(deadline=None, max_examples=6)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from([4, 5, 6]))
def test_weyl_trace_free_and_idempotent(seed, dim):
    R = random_curvature(dim, seed, 3)
    w = weyl(R)
    assert ein("iaaj->ij", w.tensor).is_zero()
    assert weyl(w).tensor == w.tensor


def test_weyl_needs_dim_three():
    with pytest.raises(Exception):
        weyl(flat(2))


# -- 2-stein check ------------------------------------------------------------


def test_constant_curvature_is_two_stein():
    for dim in (4, 5, 6):
        rep = two_stein_check(constant_curvature(dim, 1))
        assert rep.is_two_stein
        assert rep.mu1 == Scalar(dim - 1)


def test_sl3_so3_is_two_stein():
    rep = two_stein_check(sl3_so3())
    assert rep.is_two_stein
    assert rep.mu1 == Scalar(-3)
    assert rep.mu2 == Scalar(Fraction(9, 2))


def test_nikolayevsky_samples_two_stein():
    # recorded per sampled parameter pair, no universal claim
    for a, b in ((1, 1), (2, 1), (0, 1), (1, 0)):
        rep = two_stein_check(nikolayevsky(a, b))
        assert rep.is_two_stein


def test_example_6d_two_stein_obstruction():
    """tr(R_X^2) = 2k^2(||X1||^4 + ||X2||^4) cannot be mu2 ||X||^4: the
    axis fit fails at the cross-block diagonal vector."""
    R = example_6d(1)
    rep = two_stein_check(R)
    assert not rep.is_two_stein and rep.mu2 is None
    e1 = Tensor.from_components(6, 1, {(0,): Scalar(1)})
    diag = Tensor.from_components(6, 1, {(0,): Scalar(1), (3,): Scalar(1)})
    at_axis = jacobi_square_trace(R, e1)          # 2 k^2
    at_diag = jacobi_square_trace(R, diag)        # 2 k^2 (1 + 1) = 4 k^2
    assert at_axis == Scalar(2)
    assert at_diag == Scalar(4)
    # mu2 fitted at axis vectors predicts 2 * ||X||^4 = 8, not 4
    assert at_diag != at_axis * Scalar(4)


def test_example_5d_not_two_stein():
    assert not two_stein_check(example_5d(1)).is_two_stein


def test_cached_pieces_keep_the_tensor_immutable_and_comparable():
    """The derived pieces are cached on first use; R stays immutable, and
    == and hash read only the components, not which pieces are cached."""
    R, same = example_5d(1), example_5d(1)
    tau = R.tau
    assert R.tau is tau and R.weyl is R.weyl and R.tsa is R.tsa
    with pytest.raises(AttributeError):
        R.tau = 0
    with pytest.raises(AttributeError):
        R.tensor = same.tensor
    assert R.tau is tau
    assert R == same and hash(R) == hash(same)
    assert "tau" in vars(R) and "tau" not in vars(same)


@pytest.mark.parametrize(
    "make", [lambda: random_curvature(5, 3), lambda: random_curvature(6, 4), sl3_so3],
    ids=["random-dim5", "random-dim6", "sl3_so3"],
)
def test_jacobi_square_coefficients_are_a_transpose_of_t(make):
    """D_pqrs = R_apqb R_brsa, read off as the transpose T_pqsr of R's T."""
    R = make()
    direct = ein("apqb,brsa->pqrs", R.tensor, R.tensor)
    assert not direct.is_zero()
    assert jacobi_square_coefficients(R) == direct
