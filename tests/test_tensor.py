"""Dense exact tensors: contraction, products, equality, wire format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import curvident.tensor as tensor_mod
from curvident.scalar import Scalar
from curvident.tensor import (
    ContractionSpec,
    ContractionSpecError,
    ShapeError,
    Tensor,
    contract,
    ein,
    tensor_product,
    tensors_equal,
)
from curvident.models import example_6d, random_curvature, sl3_so3


def test_trace_both_pairs_of_g_squared():
    g = Tensor.identity(5)
    spec = ContractionSpec(pairs=[((0, 0), (1, 0)), ((0, 1), (1, 1))], free=[])
    out = contract([g, g], spec)
    assert out.rank == 0 and out.to_scalar() == Scalar(5)


def test_full_contraction_gives_r_norm_sq():
    # ||R||^2 = 24 k^2 for the two-block example at k=1
    t = example_6d(1).tensor
    spec = ContractionSpec(
        pairs=[((0, i), (1, i)) for i in range(4)], free=[]
    )
    assert contract([t, t], spec).to_scalar() == Scalar(24)


def test_single_operand_trace_is_ricci():
    # rho_ij = sum_a R_iaaj = -3 g on the symmetric-space example
    t = sl3_so3().tensor
    spec = ContractionSpec(pairs=[((0, 1), (0, 2))], free=[(0, 0), (0, 3)])
    rho = contract([t], spec)
    assert rho == Tensor.identity(5).scale(-3)


def test_contract_spec_validation():
    g = Tensor.identity(3)
    with pytest.raises(ContractionSpecError):
        contract([g], ContractionSpec(pairs=[], free=[(0, 0)]))  # slot 1 unassigned
    with pytest.raises(ContractionSpecError):
        contract(
            [g],
            ContractionSpec(pairs=[((0, 0), (0, 0))], free=[(0, 1)]),
        )


def test_tensor_product_of_metrics():
    g = Tensor.identity(2)
    gg = tensor_product(g, g)
    assert gg.rank == 4
    assert gg.item(0, 0, 1, 1) == Scalar(1)
    assert gg.item(0, 1, 1, 1) == Scalar(0)


def test_tensor_product_annihilation_and_scaling():
    g = Tensor.identity(3)
    z = Tensor.zeros(3, 2)
    assert tensor_product(g, z).is_zero()
    two = Tensor.from_scalar(3, 2)
    assert tensor_product(two, g) == g.scale(2)


def test_equality_and_is_zero():
    g = Tensor.identity(3)
    assert Tensor.zeros(3, 2).is_zero()
    assert tensors_equal(g, g)
    assert not tensors_equal(g, g.scale(2))
    with pytest.raises(ShapeError):
        tensors_equal(g, Tensor.identity(4))
    with pytest.raises(ShapeError):
        tensors_equal(g, Tensor.zeros(3, 3))


def test_rank_and_dim_limits():
    with pytest.raises(ShapeError):
        Tensor.zeros(7, 2)
    with pytest.raises(ShapeError):
        Tensor.zeros(1, 2)
    with pytest.raises(ShapeError):
        Tensor.zeros(3, 9)


def test_exactness_with_big_numbers():
    big = 10 ** 24
    t = Tensor.from_components(2, 1, {(0,): Scalar(big), (1,): Scalar(1, 1)})
    out = ein("i,i->", t, t)
    assert out.to_scalar() == Scalar(big) * Scalar(big) + Scalar(1, 1) * Scalar(1, 1)


def test_exactness_when_pairwise_steps_reduce_to_scalars():
    # each operand traces to 3 * 2**40 on its own; the product needs 84 bits
    a = Tensor.from_components(3, 2, {(i, i): Scalar(2 ** 40) for i in range(3)})
    assert ein("aa,bb->", a, a).to_scalar() == Scalar(9 * 2 ** 80)


def test_scalar_result_on_object_arrays_reduces_with_denominator():
    # trace(a) = 2**62 on Python ints; the 0-d result shares the factor 3
    a = Tensor.from_components(3, 2, {(i, i): Scalar(Fraction(2 ** 62, 3)) for i in range(3)})
    assert ein("aa,bb->", a, a).to_scalar() == Scalar(2 ** 124)


def test_more_than_six_operands_rejected():
    R = random_curvature(3, 1, 2).tensor
    with pytest.raises(ContractionSpecError, match="at most 6 operands"):
        ein("abcd," * 6 + "abcd->", *[R] * 7)


@pytest.mark.parametrize("sqrt3,evaluations", [(False, 1), (True, 3)])
def test_rational_operands_are_contracted_once(monkeypatch, sqrt3, evaluations):
    """No operand with a sqrt(3) part: one einsum at t = 0; otherwise one
    per interpolation point.  The value is exact either way."""
    a = Tensor.from_components(2, 2, {(0, 0): Scalar(2), (0, 1): Scalar(3, sqrt3)})
    b = Tensor.from_components(2, 2, {(1, 0): Scalar(Fraction(1, 2)), (1, 1): Scalar(5)})
    calls = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops)
    )
    out = ein("ab,bc->ac", a, b)
    assert len(calls) == evaluations
    assert out.item(0, 0) == Scalar(3, sqrt3) * Scalar(Fraction(1, 2))
    assert out.item(0, 1) == Scalar(3, sqrt3) * Scalar(5)
    assert out.item(1, 0) == Scalar(0)


def test_denominator_canonicalization():
    a = Tensor.from_components(2, 1, {(0,): Scalar(Fraction(2, 4))})
    b = Tensor.from_components(2, 1, {(0,): Scalar(Fraction(1, 2))})
    assert a == b
    assert a.item(0) == Scalar(Fraction(1, 2))


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 2 ** 63 - 1),
    st.integers(0, 2 ** 63 - 1),
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
)
def test_contraction_multilinearity(seed_a, seed_b, lam):
    """contract(a + lam*b) == contract(a) + lam*contract(b) in one slot."""
    dim = 4
    a = random_curvature(dim, seed_a, 2).tensor
    b = random_curvature(dim, seed_b, 2).tensor
    c = random_curvature(dim, seed_a ^ seed_b, 2).tensor
    lam_s = Scalar(lam)
    lhs = ein("iabc,jabc->ij", a + b.scale(lam_s), c)
    rhs = ein("iabc,jabc->ij", a, c) + ein("iabc,jabc->ij", b, c).scale(lam_s)
    assert lhs == rhs


def test_json_entries_roundtrip():
    t = sl3_so3().tensor
    entries = t.to_entries()
    back = Tensor.from_entries(5, 4, entries)
    assert back == t
    # scalar text with sqrt(3) survives the format
    assert any("sqrt(3)" in e["val"] for e in entries)
    data = t.to_json()
    assert data["dim"] == 5 and data["rank"] == 4
    assert Tensor.from_json(data) == t


def test_json_duplicate_idx_is_error():
    entries = [
        {"idx": [1, 2, 2, 1], "val": "1"},
        {"idx": [1, 2, 2, 1], "val": "2"},
    ]
    with pytest.raises(ShapeError):
        Tensor.from_entries(5, 4, entries)


def test_transpose_relabels_axes():
    t = random_curvature(3, 11, 2).tensor
    assert t.transpose((1, 0, 2, 3)) == -t
    assert t.transpose((2, 3, 0, 1)) == t
