"""Generalized Kronecker delta: engine vs the per-component determinant
oracle, and the dimension-exceeding vanishing that drives everything."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvident.scalar import Scalar
from curvident.tensor import ContractionSpecError, ShapeError, Tensor
from curvident.delta import (
    DeltaBinding,
    EngineInvariantError,
    _layout,
    generalized_delta_contract,
    reference_delta_contract,
)
from curvident.models import random_curvature


def _all_free(n):
    out = []
    for s in range(n):
        out += [("U", s), ("L", s)]
    return DeltaBinding.make(n, {}, {}, out=out)


def test_order2_components():
    d = generalized_delta_contract(2, 3, [], _all_free(2))
    # output axes ordered (j1, j2, i1, i2)... here (U0, L0, U1, L1)
    # delta at j=(1,2), i=(1,2) is +1; at j=(1,2), i=(2,1) is -1
    assert d.item(0, 0, 1, 1) == Scalar(1)
    assert d.item(0, 1, 1, 0) == Scalar(-1)
    assert d.item(0, 0, 1, 0) == Scalar(0)


def test_order_exceeding_dim_vanishes_fully_free():
    d = generalized_delta_contract(3, 2, [], _all_free(3))
    assert d.is_zero()


@pytest.mark.parametrize("dim,n", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
def test_engine_matches_determinant_oracle_no_operands(dim, n):
    b = _all_free(n)
    assert generalized_delta_contract(n, dim, [], b) == reference_delta_contract(
        n, dim, [], b
    )


def test_engine_matches_oracle_with_operand_and_trace():
    rng = np.random.default_rng(3)
    a = Tensor(
        3,
        rng.integers(-4, 5, (3, 3)).astype(np.int64),
        rng.integers(-4, 5, (3, 3)).astype(np.int64),
        3,
    )
    b = DeltaBinding.make(
        3, {0: (0, 0)}, {1: (0, 1)}, traced=(2,), out=[("U", 0), ("L", 1)]
    )
    assert generalized_delta_contract(3, 3, [a], b) == reference_delta_contract(
        3, 3, [a], b
    )


def test_engine_matches_oracle_rank4_operand():
    t = random_curvature(3, 5, 2).tensor
    b = DeltaBinding.make(
        4,
        {0: (0, 0), 1: (0, 1)},
        {0: (0, 2), 1: (0, 3)},
        out=[("U", 2), ("L", 2), ("U", 3), ("L", 3)],
    )
    assert generalized_delta_contract(4, 3, [t], b) == reference_delta_contract(
        4, 3, [t], b
    )


def test_identity_with_two_curvature_factors_dim4_vs_oracle():
    """Order 5 in dimension 4 against R (x) R: the engine's 120-term
    cancellation must equal the definitional brute-force sum."""
    R = random_curvature(4, seed=9, n_terms=3).tensor
    lower = {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1)}
    upper = {1: (0, 2), 2: (0, 3), 3: (1, 2), 4: (1, 3)}
    b = DeltaBinding.make(5, lower, upper, out=[("U", 0), ("L", 0)])
    eng = generalized_delta_contract(5, 4, [R, R], b)
    ref = reference_delta_contract(5, 4, [R, R], b)
    assert eng.is_zero()
    assert eng == ref


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 63 - 1), st.integers(2, 4))
def test_order_dim_plus_one_vanishes_with_arbitrary_operands(seed, dim):
    """The order-(dim+1) delta annihilates anything: here an arbitrary
    (non-curvature) rank-4 operand plus traced leftovers."""
    rng = np.random.default_rng(seed % 2 ** 32)
    shape = (dim,) * 4
    t = Tensor(
        dim,
        rng.integers(-5, 6, shape).astype(np.int64),
        rng.integers(-5, 6, shape).astype(np.int64),
        2,
    )
    n = dim + 1
    lower = {1: (0, 0), 2: (0, 1)}
    upper = {1: (0, 2), 2: (0, 3)}
    traced = tuple(range(3, n))
    b = DeltaBinding.make(n, lower, upper, traced=traced, out=[("U", 0), ("L", 0)])
    assert generalized_delta_contract(n, dim, [t], b).is_zero()


def test_binding_validation_errors():
    g = Tensor.identity(3)
    with pytest.raises(ContractionSpecError):
        generalized_delta_contract(
            2, 3, [g], DeltaBinding.make(2, {0: (0, 0)}, {}, out=[("U", 0), ("U", 1), ("L", 1)])
        )
    with pytest.raises(ContractionSpecError):
        # operand slot bound twice
        generalized_delta_contract(
            2,
            3,
            [g],
            DeltaBinding.make(2, {0: (0, 0), 1: (0, 0)}, {}, out=[("U", 0), ("U", 1)]),
        )
    with pytest.raises(ShapeError):
        # free output rank above the tensor cap
        generalized_delta_contract(6, 5, [], _all_free(6))


def test_engine_deterministic_across_calls():
    R = random_curvature(5, seed=1, n_terms=2).tensor
    lower = {1: (0, 0), 2: (0, 1)}
    upper = {1: (0, 2), 2: (0, 3)}
    b = DeltaBinding.make(6, lower, upper, traced=(3, 4, 5), out=[("U", 0), ("L", 0)])
    a = generalized_delta_contract(6, 5, [R], b)
    c = generalized_delta_contract(6, 5, [R], b)
    assert a == c


# certification with N <= dim, so engine and oracle agree on a nonzero result


def test_engine_matches_oracle_rank4_operand_nonzero():
    t = random_curvature(4, 5, 2).tensor
    b = DeltaBinding.make(
        4,
        {0: (0, 0), 1: (0, 1)},
        {0: (0, 2), 1: (0, 3)},
        out=[("U", 2), ("L", 2), ("U", 3), ("L", 3)],
    )
    eng = generalized_delta_contract(4, 4, [t], b)
    assert not eng.is_zero()
    assert eng == reference_delta_contract(4, 4, [t], b)


@pytest.mark.parametrize("offset", [0, 2 ** 40])
@pytest.mark.parametrize("traced", [False, True])
def test_engine_matches_oracle_two_sqrt3_operands(offset, traced):
    """Two sqrt(3)-valued rank-2 operands; entries near 2**40 push the
    engine's magnitude bound past int64 onto Python-int object arrays."""
    rng = np.random.default_rng(5)
    a, c = (
        Tensor(
            4,
            rng.integers(-9, 10, (4, 4)) + offset,
            rng.integers(-9, 10, (4, 4)),
            2,
        )
        for _ in range(2)
    )
    lower, upper = {0: (0, 0), 1: (1, 0)}, {0: (0, 1), 1: (1, 1)}
    if traced:
        b = DeltaBinding.make(4, lower, upper, traced=(3,), out=[("U", 2), ("L", 2)])
    else:
        b = DeltaBinding.make(
            4, lower, upper, out=[("U", 2), ("L", 2), ("U", 3), ("L", 3)]
        )
    eng = generalized_delta_contract(4, 4, [a, c], b)
    assert not eng.is_zero()
    assert eng == reference_delta_contract(4, 4, [a, c], b)


def test_engine_matches_oracle_rank0_output():
    t = random_curvature(3, 2, 2).tensor
    b = DeltaBinding.make(2, {0: (0, 0), 1: (0, 1)}, {0: (0, 2), 1: (0, 3)}, out=[])
    eng = generalized_delta_contract(2, 3, [t], b)
    assert eng.rank == 0 and not eng.is_zero()
    assert eng == reference_delta_contract(2, 3, [t], b)
    pure = DeltaBinding.make(2, {}, {}, traced=(0, 1), out=[])
    assert generalized_delta_contract(2, 3, [], pure).to_scalar() == Scalar(6)


def test_expansion_rejects_nonzero_repeated_representative():
    layout = _layout(3, (("U", 0), ("L", 0), ("U", 1), ("L", 1)))
    acc = np.zeros(len(layout.idx), np.int64)
    acc[layout.repeated[-1]] = 1
    with pytest.raises(EngineInvariantError):
        layout.expand(acc)
    assert not issubclass(EngineInvariantError, ValueError)
