"""Dense exact tensors: contraction, products, equality, wire format."""

import itertools
from fractions import Fraction

import numpy as np
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


@pytest.mark.parametrize("sqrt3,evaluations", [(False, 1), (True, 2)])
def test_rational_operands_are_contracted_once(monkeypatch, sqrt3, evaluations):
    """No operand with a sqrt(3) part: one einsum; otherwise one per choice
    of a non-zero part of each operand (here a's two parts, b's rational
    part).  The value is exact either way."""
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


def _record_einsum_dtypes(monkeypatch) -> list:
    """Patch ``tensor._einsum_exact`` to record its operands' dtypes per call."""
    dtypes = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod,
        "_einsum_exact",
        lambda s, ops: dtypes.append({op.dtype for op in ops}) or real(s, ops),
    )
    return dtypes


@pytest.mark.parametrize("m,dtype", [(2 ** 30 - 1, np.int64), (2 ** 30, object)])
def test_ein_int64_bound_edge(monkeypatch, m, dtype):
    """The bound dim * _max(a) * _max(b) = 2 * 2**31 * m sits just below
    2**62 (int64 operands) or exactly at it (Python ints); the (0, 0) entry
    reaches the bound itself.  Exact either way."""
    a = Tensor(2, np.array([[2 ** 31, -(2 ** 31)], [2 ** 31 - 5, 7]]), np.zeros((2, 2), int))
    b = Tensor(2, np.array([[m, m], [-m, m - 3]]), np.zeros((2, 2), int))
    dtypes = _record_einsum_dtypes(monkeypatch)
    out = ein("ab,bc->ac", a, b)
    assert dtypes == [{np.dtype(dtype)}]
    assert out.item(0, 0) == Scalar(4 * m * 2 ** 30)
    for i, k in itertools.product(range(2), repeat=2):
        assert out.item(i, k) == a.item(i, 0) * b.item(0, k) + a.item(i, 1) * b.item(1, k)


def test_ein_sqrt3_bound_counts_the_folded_threes(monkeypatch):
    """Entries m + m*sqrt(3) with dim * m**2 in (2**61, 2**62): each result
    entry is dim * m**2 * (4 + 2*sqrt(3)), whose rational part exceeds
    2**63, so the bound must count a factor 3 per sqrt(3)-valued operand
    (9 * dim * m**2 >= 2**62) to leave int64."""
    m = 2 ** 30 + 2 ** 28
    assert 2 ** 61 < 2 * m * m < 2 ** 62 and 8 * m * m > 2 ** 63
    A = Tensor(2, np.full((2, 2), m), np.full((2, 2), m))
    dtypes = _record_einsum_dtypes(monkeypatch)
    out = ein("ab,bc->ac", A, A)
    assert dtypes and all(d == {np.dtype(object)} for d in dtypes)
    entry = Scalar(m, m)
    for i, k in itertools.product(range(2), repeat=2):
        assert out.item(i, k) == entry * entry + entry * entry == Scalar(8 * m * m, 4 * m * m)


def test_sqrt3_only_operand_contributes_one_part(monkeypatch):
    """A tensor scaled by sqrt(3) stores its rational part as a zero part, so
    it enters each product with its sqrt(3) part alone: one einsum per
    contraction, on the sqrt(3) side for one such operand and folded by 3
    to the rational side for two."""
    R = random_curvature(3, 5, 2).tensor
    S = R.scale(Scalar(0, 1))
    norm = ein("abcd,abcd->", R, R)
    calls = _record_einsum_dtypes(monkeypatch)
    assert ein("abcd,abcd->", S, R) == norm.scale(Scalar(0, 1))
    assert ein("abcd,abcd->", S, S) == norm.scale(3)
    assert len(calls) == 2


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
