"""Generalized Kronecker delta: engine vs the per-component determinant
oracle, and the dimension-exceeding vanishing that drives everything."""

import hashlib
import importlib.util
import math
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvident.delta as delta_mod
import curvident.report as report
import curvident.tensor as tensor_mod
from curvident.curvature import weyl
from curvident.scalar import Scalar
from curvident.tensor import ContractionSpecError, ShapeError, Tensor
from curvident.delta import (
    DeltaBinding,
    EngineInvariantError,
    _Layout,
    _compile_plans,
    _layout,
    _plans,
    _slot_symmetries,
    generalized_delta_contract,
    reference_delta_contract,
)
from curvident.identities import (
    IdentityArgumentError,
    _patterson_binding,
    max_r,
    patterson_residual,
    weyl_patterson_residual,
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


@pytest.mark.parametrize("sqrt3", [False, True])
def test_engine_matches_oracle_three_operands(monkeypatch, sqrt3):
    """Three rank-2 operands, two of them one object (so plans merge over
    their exchange), N = dim.  The same rational parts with and without
    sqrt(3) parts certify both evaluation branches; rational operands take
    one einsum per plan."""
    rng = np.random.default_rng(11)
    a, c = (
        Tensor(4, rng.integers(-9, 10, (4, 4)), rng.integers(-9, 10, (4, 4)) * sqrt3, 2)
        for _ in range(2)
    )
    b = DeltaBinding.make(
        4, {0: (0, 0), 1: (1, 0), 2: (2, 0)}, {0: (0, 1), 1: (1, 1), 2: (2, 1)},
        out=[("U", 3), ("L", 3)],
    )
    calls = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops)
    )
    eng = generalized_delta_contract(4, 4, [a, a, c], b)
    assert not eng.is_zero() and bool(np.any(eng._irr)) == sqrt3
    assert eng == reference_delta_contract(4, 4, [a, a, c], b)
    if not sqrt3:
        plans = _compile_plans(4, 4, b, (0, 0, 1), (2, 2, 2), _layout(4, b.out))
        assert len(calls) == len(plans)


@pytest.mark.parametrize("m,dtype", [(2 ** 29 - 1, np.int64), (2 ** 29, object)])
def test_engine_int64_bound_edge(monkeypatch, m, dtype):
    """delta^{i j}_{k j} u_i v^k, slot 1 traced, in dim 2: one plan
    'a,a->' with one summed letter, so the bound n! * dim**(1 + 1) *
    _max(u) * _max(v) = 8 * 2**30 * m sits just below 2**62 (int64 operands)
    or exactly at it (Python ints).  The oracle agrees either way."""
    u = Tensor(2, np.array([2 ** 30, -(2 ** 30) + 3]), np.zeros(2, int))
    v = Tensor(2, np.array([m, m - 1]), np.zeros(2, int))
    b = DeltaBinding.make(2, {0: (0, 0)}, {0: (1, 0)}, traced=(1,), out=[])
    dtypes = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod,
        "_einsum_exact",
        lambda s, ops: dtypes.append({op.dtype for op in ops}) or real(s, ops),
    )
    eng = generalized_delta_contract(2, 2, [u, v], b)
    assert dtypes and all(d == {np.dtype(dtype)} for d in dtypes)
    assert eng == reference_delta_contract(2, 2, [u, v], b)
    assert eng.to_scalar() == Scalar(2 ** 30 * m + (3 - 2 ** 30) * (m - 1))


def test_more_than_six_operands_rejected():
    vectors = [Tensor(3, np.arange(3) + k, np.zeros(3, np.int64)) for k in range(7)]
    b = DeltaBinding.make(7, {s: (s, 0) for s in range(7)}, {})
    with pytest.raises(ContractionSpecError, match="at most 6 operands"):
        generalized_delta_contract(7, 3, vectors, b)


def test_engine_matches_oracle_rank0_output():
    t = random_curvature(3, 2, 2).tensor
    b = DeltaBinding.make(2, {0: (0, 0), 1: (0, 1)}, {0: (0, 2), 1: (0, 3)}, out=[])
    eng = generalized_delta_contract(2, 3, [t], b)
    assert eng.rank == 0 and not eng.is_zero()
    assert eng == reference_delta_contract(2, 3, [t], b)
    pure = DeltaBinding.make(2, {}, {}, traced=(0, 1), out=[])
    assert generalized_delta_contract(2, 3, [], pure).to_scalar() == Scalar(6)


def test_oracle_takes_one_trial_and_the_engine_one_trial_count():
    """The oracle is per trial: a batched operand is a ShapeError, not a
    failure inside its loop.  The engine takes batched operands of one
    trial count, beside unbatched ones."""
    trials = random_curvature(3, [1, 2, 3], 2).tensor
    pair = random_curvature(3, [4, 5], 2).tensor
    b = DeltaBinding.make(2, {0: (0, 0), 1: (0, 1)}, {0: (0, 2), 1: (0, 3)}, out=[])
    with pytest.raises(ShapeError, match="the oracle takes one trial"):
        reference_delta_contract(2, 3, [trials], b)
    assert generalized_delta_contract(2, 3, [trials], b).batch == 3
    two = _patterson_binding(4, 2, "traced")
    with pytest.raises(ShapeError, match="different numbers of trials"):
        generalized_delta_contract(5, 3, [trials, pair], two)
    single = random_curvature(3, 6, 2).tensor
    assert generalized_delta_contract(5, 3, [trials, single], two).batch == 3


@pytest.mark.parametrize("r,mode", [(2, "free"), (2, "traced"), (1, "traced"), (1, "free")])
def test_engine_matches_oracle_sl3so3_order_dim(r, mode):
    """The order-5 delta in dimension 5 has support, so on the sqrt(3)-valued
    sl3so3 curvature the oracle evaluates every operand entry it needs: the
    engine must equal it on the whole output.  At m = 4, r = 2 no slot is
    left over, so both modes bind the same delta; r = 1 traces two slots or
    frees them."""
    R = sl3_so3().tensor
    b = _patterson_binding(4, r, mode)
    eng = generalized_delta_contract(5, 5, [R] * r, b)
    assert not eng.is_zero()
    assert eng == reference_delta_contract(5, 5, [R] * r, b)


def test_expansion_rejects_nonzero_repeated_representative():
    layout = _layout(3, (("U", 0), ("L", 0), ("U", 1), ("L", 1)))
    acc = np.zeros(layout.n_upper * layout.n_lower, np.int64)
    acc[np.flatnonzero(layout.repeated)[-1]] = 1
    with pytest.raises(EngineInvariantError):
        layout.expand(acc)
    assert not issubclass(EngineInvariantError, ValueError)


# -- golden digests of the compiled plans -------------------------------------
# sha256 of every merged plan (sorted by subscripts) with its sum-letter count
# and each record's (rows, flat, coeff), records in canonical order; a new
# compile must reproduce the permutation expansion's merged plans exactly.


def _plan_digest(n, dim, binding, groups, ranks, symmetries=()) -> str:
    layout = _layout(dim, binding.out)
    return _digest(_compile_plans(n, dim, binding, groups, ranks, layout, symmetries))


def _records(plan) -> list:
    """Each record of ``plan`` as (rows, flat, coefficient): the
    representative rows it feeds (``slice(None)`` for all of them) and the
    positions of the einsum result that feed those rows, formed from
    ``plan.tables``."""
    out = []
    for (_, diag_pairs, _), (fu, fl, rows, coeff) in zip(plan.specs, plan.tables):
        if not diag_pairs:
            out.append((slice(None), (fu[:, None] + fl).reshape(-1), coeff))
        else:
            # fl holds one entry per lower tuple
            ru, rl = (np.concatenate(n) for n in zip(*rows))
            out.append((ru.astype(np.intp) * len(fl) + rl, fu[ru] + fl[rl], coeff))
    return out


def _digest(plans) -> str:
    h = hashlib.sha256()
    for plan in sorted(plans, key=lambda p: p.subscripts):
        h.update(f"{plan.subscripts};{plan.n_sum_letters};{len(plan.specs)}\n".encode())
        records = []
        for rows, flat, coeff in _records(plan):
            rows_b = b"all" if isinstance(rows, slice) else np.asarray(rows, np.int64).tobytes()
            records.append((rows_b, np.asarray(flat, np.int64).tobytes(), int(coeff)))
        for rows_b, flat_b, coeff in sorted(records):
            h.update(b"%d:%s%d:%s%d\n" % (len(rows_b), rows_b, len(flat_b), flat_b, coeff))
    return h.hexdigest()


def _golden_bindings():
    cases = {}
    for dim in (4, 5, 6):
        for r in range(1, max_r(dim) + 1):
            for mode in ("free", "traced"):
                if mode == "free" and 2 + 2 * (dim - 2 * r) > Tensor.MAX_RANK:
                    continue
                cases[f"patterson-{dim}-{r}-{mode}"] = (
                    dim + 1, dim, _patterson_binding(dim, r, mode), (0,) * r, (4,) * r
                )
    cases["chained-traced"] = (
        5, 5, DeltaBinding.make(5, {0: (0, 0)}, {1: (0, 1)}, traced=(2, 3, 4)), (0,), (2,)
    )
    cases["two-groups"] = (
        5,
        5,
        DeltaBinding.make(
            5, {0: (0, 0), 1: (1, 0), 2: (2, 0)}, {0: (0, 1), 1: (1, 1), 3: (2, 1)},
            traced=(4,),
        ),
        (0, 1, 0),
        (2, 2, 2),
    )
    cases["mixed-ranks-traced"] = (
        6,
        6,
        DeltaBinding.make(
            6, {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (2, 0)},
            {1: (0, 2), 2: (0, 3), 3: (2, 1), 5: (1, 1)},
            traced=(0,),
        ),
        (0, 1, 1),
        (4, 2, 2),
    )
    cases["operand-with-diagonals"] = (
        4, 4, DeltaBinding.make(4, {0: (0, 0)}, {1: (0, 1)}, traced=(3,)), (0,), (2,)
    )
    cases["no-operands-free"] = (4, 3, _all_free(4), (), ())
    cases["no-operands-traced"] = (
        4, 5, DeltaBinding.make(4, {}, {}, traced=(1, 2, 3), out=[("U", 0), ("L", 0)]), (), ()
    )
    return cases


_GOLDEN_PLANS = {
    "chained-traced": "bf1be886b94b871f7057aaf2277034d4732a67010ee7256fb1a18b15448206e1",
    "mixed-ranks-traced": "7ddccba7784313e8c8252b296ba42b9c5fced71422e24d0807b3e1ac8c456afc",
    "no-operands-free": "862c3e5c220c1dd9326c02d44398c53f19f41399e194edeb4c50181c8b0e3127",
    "no-operands-traced": "e6d037fbe9becff8ab621635582eb35d9912ef10fd85cba50982891e20184f31",
    "operand-with-diagonals": "879295f6e36932cd23ec9dc32fc1398a785865ca1aaf8f141b6cba3665d07697",
    "patterson-4-1-free": "65abac61a020b6bd18dbe9850a89e31e0853994fd98eec4f86922eb833623718",
    "patterson-4-1-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-4-2-free": "b2380f39df9e2fb66a8deaa4b3e4fcd2533e71a2fc8b864b02db0a1c5a988012",
    "patterson-4-2-traced": "b2380f39df9e2fb66a8deaa4b3e4fcd2533e71a2fc8b864b02db0a1c5a988012",
    "patterson-5-1-free": "747af4739b652c9610467ff818feeb1136c90883dab30b68176ea80845ece5da",
    "patterson-5-1-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-5-2-free": "e0678b71ca4bd755aab93f3c38e0ccbd4d855cee851c59e45c3c55e451c5259e",
    "patterson-5-2-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-6-1-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-6-2-free": "8ec736ca8a85973de0de3272df58c0c1fec8ddae5b04d46e3308da61d265d647",
    "patterson-6-2-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-6-3-free": "d3758a717a9f5db3e9c25717c9fa8536680b0fe0467f377975ea5259670a6c2e",
    "patterson-6-3-traced": "d3758a717a9f5db3e9c25717c9fa8536680b0fe0467f377975ea5259670a6c2e",
    "two-groups": "1f6345bccaeb8f1eccfcd38ee6f16ef4d32cb83ee3e61de781c881674c15daaa",
}


@pytest.mark.parametrize("name", sorted(_golden_bindings()))
def test_golden_plan_digests(name):
    assert _plan_digest(*_golden_bindings()[name]) == _GOLDEN_PLANS[name]


# -- plans folded modulo the operands' verified slot symmetries ----------------

# the slot symmetries every algebraic curvature tensor has and a generic one
# has no others: antisymmetry in each pair, both together, pair interchange
# and pair interchange combined with both antisymmetries
_R_SYMMETRIES = (
    ((1, 0, 2, 3), -1),
    ((0, 1, 3, 2), -1),
    ((1, 0, 3, 2), 1),
    ((2, 3, 0, 1), 1),
    ((3, 2, 1, 0), 1),
)


def _patterson_golden():
    return {k: v for k, v in _golden_bindings().items() if k.startswith("patterson-")}


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_curvature_tensor_slot_symmetries(dim):
    assert _slot_symmetries(random_curvature(dim, 3, 4).tensor) == _R_SYMMETRIES
    if dim == 5:
        assert _slot_symmetries(sl3_so3().tensor) == _R_SYMMETRIES


def _antisymmetric_01(rng, dim):
    x = rng.integers(-5, 6, (dim,) * 4)
    return x - x.transpose(1, 0, 2, 3)


def test_only_verified_symmetries_fold():
    """Order 5 in dimension 5 against two copies of one operand, so the
    oracle has support.  An operand antisymmetric only in slots (0, 1), and
    one whose rational part is a curvature tensor but whose sqrt(3) part
    has only that antisymmetry, each fold by it alone; the engine must
    equal the oracle on both."""
    rng = np.random.default_rng(17)
    b = _patterson_binding(4, 2, "free")
    only_01 = Tensor(5, _antisymmetric_01(rng, 5), np.zeros((5,) * 4, np.int64))
    broken = Tensor(5, random_curvature(5, 4, 3).tensor._rat, _antisymmetric_01(rng, 5), 2)
    for t in (only_01, broken):
        assert _slot_symmetries(t) == (((1, 0, 2, 3), -1),)
        eng = generalized_delta_contract(5, 5, [t, t], b)
        assert not eng.is_zero()
        assert eng == reference_delta_contract(5, 5, [t, t], b)


def test_generic_operand_after_curvature_tensor_on_one_binding():
    """A call with a generic rank-4 tensor right after one with R on the
    same binding compiles its own plans: R's folded plans are not reused."""
    R = random_curvature(4, 8, 3).tensor
    rng = np.random.default_rng(23)
    generic = Tensor(4, rng.integers(-5, 6, (4,) * 4), rng.integers(-5, 6, (4,) * 4), 3)
    assert _slot_symmetries(generic) == ()
    b = _patterson_binding(3, 1, "free")
    for t in (R, generic):
        eng = generalized_delta_contract(4, 4, [t], b)
        assert not eng.is_zero()
        assert eng == reference_delta_contract(4, 4, [t], b)


def test_self_negative_class_is_dropped():
    """The trace of an antisymmetric matrix is a term its own symmetry maps
    to its negative, so exactly zero: its class gets no plan.  The engine
    still equals the oracle."""
    rng = np.random.default_rng(29)
    x = rng.integers(-5, 6, (4, 4))
    a = Tensor(4, x - x.T, np.zeros((4, 4), np.int64))
    n, dim, b, groups, ranks = _golden_bindings()["operand-with-diagonals"]
    layout = _layout(dim, b.out)
    assert _slot_symmetries(a) == (((1, 0), -1),)
    unfolded = _compile_plans(n, dim, b, groups, ranks, layout)
    folded = _compile_plans(n, dim, b, groups, ranks, layout, (_slot_symmetries(a),))
    assert [p.subscripts for p in unfolded] == ["aa->", "ab->ab"]
    assert [p.subscripts for p in folded] == ["ab->ab"]
    eng = generalized_delta_contract(n, dim, [a], b)
    assert not eng.is_zero()
    assert eng == reference_delta_contract(n, dim, [a], b)


@pytest.mark.parametrize("name", sorted(_patterson_golden()))
def test_folded_coefficients_within_int64_bound(name):
    """The engine's int64 bound takes sum |coeff| <= N! * dim**(traced) from
    the permutation expansion; folding adds coefficients with signs, so it
    must keep that sum within the same bound."""
    n, dim, b, groups, ranks = _patterson_golden()[name]
    plans = _compile_plans(n, dim, b, groups, ranks, _layout(dim, b.out), (_R_SYMMETRIES,))
    total = sum(abs(coeff) for p in plans for _, _, coeff in p.specs)
    assert total <= math.factorial(n) * dim ** len(b.traced)


# golden digests of the plans folded with _R_SYMMETRIES, as _GOLDEN_PLANS
_GOLDEN_FOLDED_PLANS = {
    "patterson-4-1-free": "2bdec8ac7126b53864448c8d1580ad1e4e2f1235113fd8ae67941f0bb7409533",
    "patterson-4-1-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-4-2-free": "0aff3b89215928412ace945e18115d555ec4f6813e5cde8e008b07f84bee397b",
    "patterson-4-2-traced": "0aff3b89215928412ace945e18115d555ec4f6813e5cde8e008b07f84bee397b",
    "patterson-5-1-free": "7c9d5c2b5d08a7d0cc710fa0b6b82e671dd1e7da3812fa5a72e1f592ebca4509",
    "patterson-5-1-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-5-2-free": "fe4327152158b3c4dce65411862f30c5caac0446047c662c1db83067dc5deee3",
    "patterson-5-2-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-6-1-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-6-2-free": "25935d29451ca8b13bfeb8f253a0d58a94d96f4159a6fd0dcb61b33bd1d22c2d",
    "patterson-6-2-traced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "patterson-6-3-free": "48ba1da6907f94fc9215a3f0c9b19b4934c59851ffba36acbd18642f6bfba088",
    "patterson-6-3-traced": "48ba1da6907f94fc9215a3f0c9b19b4934c59851ffba36acbd18642f6bfba088",
}


@pytest.mark.parametrize("name", sorted(_patterson_golden()))
def test_golden_folded_plan_digests(name):
    digest = _plan_digest(*_patterson_golden()[name], (_R_SYMMETRIES,))
    assert digest == _GOLDEN_FOLDED_PLANS[name]


def test_warm_patterson_einsum_count(monkeypatch):
    """A warm dim-6 r=3 traced Patterson call contracts R's 26 plan classes,
    not the 870 merged permutation terms, one einsum each."""
    patterson_residual(random_curvature(6, 1, 4), 3, "traced")
    R = random_curvature(6, 2, 4)
    calls = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops)
    )
    assert patterson_residual(R, 3, "traced").is_zero
    assert len(calls) <= 30


# -- folding by the verified symmetries of non-curvature operands ---------------


def _totally_symmetric(rng, dim, sign):
    """A rank-4 tensor that each transposition of slots maps to ``sign``
    times itself."""
    x = rng.integers(-5, 6, (dim,) * 4)
    total = 0
    for p in permutations(range(4)):
        odd = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2
        total = total + (sign if odd else 1) * np.transpose(x, p)
    return total


def _fold_operands(rng, dim):
    """Rank-4 operands whose rational and sqrt(3) parts have the same slot
    symmetries: a curvature tensor, an operand antisymmetric in (0, 1)
    alone, as in the fold tests above, and a totally symmetric and a totally
    antisymmetric one."""
    def curvature():
        return random_curvature(dim, int(rng.integers(1, 1000)), 3).tensor._rat

    makers = {
        "curvature": curvature,
        "only-01": lambda: _antisymmetric_01(rng, dim),
        "symmetric": lambda: _totally_symmetric(rng, dim, 1),
        "antisymmetric": lambda: _totally_symmetric(rng, dim, -1),
    }
    return {name: Tensor(dim, make(), make(), 2) for name, make in makers.items()}


def _fold_symmetry_sets():
    """The verified symmetries of each of ``_fold_operands``."""
    operands = _fold_operands(np.random.default_rng(31), 5)
    return {name: _slot_symmetries(t) for name, t in operands.items()}


def test_fold_symmetry_sets():
    """The symmetries each of ``_fold_operands`` is folded by."""
    sets = _fold_symmetry_sets()
    assert sets["curvature"] == _R_SYMMETRIES
    assert sets["only-01"] == (((1, 0, 2, 3), -1),)
    for name, sign in (("symmetric", 1), ("antisymmetric", -1)):
        # six transpositions and three double transpositions
        assert len(sets[name]) == 9 and {s for _, s in sets[name]} == {1, sign}


def _transposition_symmetric(rng, dim, sign):
    """A rank-2 operand that the transposition of its slots maps to
    ``sign`` times itself, in its rational and its sqrt(3) part."""
    x, y = rng.integers(-5, 6, (2, dim, dim))
    return Tensor(dim, x + sign * x.T, y + sign * y.T, 3)


@pytest.mark.parametrize("sign", [1, -1])
def test_totally_symmetric_operand_matches_oracle(sign):
    """Plans folded by the symmetries of operands other than curvature
    tensors equal the oracle.  Every operand of ``_fold_operands`` goes
    through the dim-4 Patterson shape in dimension 5.  Rank-2 operands go
    through the golden bindings with a delta order within the dimension
    (above it the oracle is identically zero): the transposition maps the
    first operand to ``sign`` times itself and, in ``two-groups``, the
    other one to ``-sign`` times itself."""
    rng = np.random.default_rng(37 + sign)
    sets = _fold_symmetry_sets()
    b = _patterson_binding(4, 2, "free")
    for name, t in _fold_operands(rng, 5).items():
        assert _slot_symmetries(t) == sets[name]
        eng = generalized_delta_contract(5, 5, [t, t], b)
        # the delta is antisymmetric in the slots a symmetric operand fills
        assert eng.is_zero() == (name == "symmetric")
        assert eng == reference_delta_contract(5, 5, [t, t], b)
    bindings = _golden_bindings()
    for name in ("chained-traced", "two-groups", "operand-with-diagonals"):
        n, dim, b, groups, ranks = bindings[name]
        signs = [sign * (-1) ** g for g in range(max(groups) + 1)]
        distinct = [_transposition_symmetric(rng, dim, s) for s in signs]
        assert [_slot_symmetries(t) for t in distinct] == [(((1, 0), s),) for s in signs]
        operands = [distinct[g] for g in groups]
        eng = generalized_delta_contract(n, dim, operands, b)
        assert not eng.is_zero()
        assert eng == reference_delta_contract(n, dim, operands, b)


# -- an all-zero result ---------------------------------------------------------


@pytest.mark.parametrize("operand", ["curvature", "sl3so3", "object-path"])
@pytest.mark.parametrize("r", [1, 2])
def test_zero_result_is_a_zero_part(operand, r):
    """A vanishing dim-5 Patterson contraction keeps the den, _max, dtype
    and bytes it had when it was expanded into a dense array, but stores
    each part as a zero part.  Entries near 2**40 push the evaluation onto
    Python ints."""
    R = random_curvature(5, 3, 4).tensor
    t = {
        "curvature": R,
        "sl3so3": sl3_so3().tensor,
        "object-path": Tensor(5, R._rat * 2 ** 40, R._irr, 1),
    }[operand]
    res = generalized_delta_contract(6, 5, [t] * r, _patterson_binding(5, r, "free"))
    assert res.is_zero() and res._den == 1 and res._max == 0
    for part in (res._rat, res._irr):
        assert part.dtype == np.int64 and part.shape == (5,) * (12 - 4 * r)
        assert not any(part.strides)
        assert part.tobytes() == bytes(8 * 5 ** (12 - 4 * r))


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_all_zero_expansion_allocates_no_dense_array(dtype):
    layout = _layout(5, _patterson_binding(5, 1, "free").out)
    part = layout.expand(np.zeros(layout.n_upper * layout.n_lower, dtype))
    assert part.shape == (5,) * 8 and part.dtype == np.dtype(dtype)
    assert not any(part.strides) and part.base.size == 1 and part.flat[0] == 0


def test_nonzero_generic_operand_stays_dense():
    rng = np.random.default_rng(41)
    t = Tensor(4, rng.integers(-5, 6, (4,) * 4), rng.integers(-5, 6, (4,) * 4), 3)
    b = DeltaBinding.make(
        4, {0: (0, 0), 1: (0, 1)}, {0: (0, 2), 1: (0, 3)}, out=[("U", 2), ("L", 2), ("U", 3), ("L", 3)]
    )
    eng = generalized_delta_contract(4, 4, [t], b)
    assert not eng.is_zero() and all(eng._rat.strides) and all(eng._irr.strides)
    assert eng == reference_delta_contract(4, 4, [t], b)


def test_vanishing_contraction_builds_no_scatter_tables(monkeypatch):
    """With N above the dimension the result is zero, so the fresh layout of
    a Patterson contraction never builds its scatter tables; its group
    tuples hold one byte per entry, each record's position tables one entry
    per tuple of a group in the smallest dtype that holds its einsum's
    positions, and its diagonal rows one byte per tuple number."""
    monkeypatch.setattr(delta_mod, "_LAYOUT_CACHE", {})
    monkeypatch.setattr(delta_mod, "_PLAN_CACHE", {})
    R = random_curvature(5, 3, 4)
    binding = _patterson_binding(5, 1, "free")
    assert generalized_delta_contract(6, 5, [R.tensor], binding).is_zero()
    layout = delta_mod._LAYOUT_CACHE[(5, binding.out)]
    assert layout.scatter is None
    assert all(tuples.dtype.itemsize == 1 for _, tuples, _ in layout.groups)
    n_u = layout.n_upper
    (plans,) = delta_mod._PLAN_CACHE.values()
    for plan in plans:
        size = 5 ** len(plan.subscripts.partition("->")[2])
        for fu, fl, rows, _ in plan.tables:
            assert fu.dtype == fl.dtype == np.min_scalar_type(size - 1)
            assert (len(fu), len(fl)) == (n_u, layout.n_lower)
            assert max(fu) + max(fl) < size
            (numbers,) = rows
            assert all(isinstance(r, slice) or r.dtype.itemsize == 1 for r in numbers)


@pytest.mark.parametrize("dim,r,limit", [(6, 2, 128 * 1024), (5, 1, 169_160)])
def test_patterson_layout_holds_small_index_tables(monkeypatch, dim, r, limit):
    """After a free Patterson call, the index tables its layout holds (the
    group tuples, the records' position tables and their rows, per slice
    of a streamed plan) stay within ``limit`` bytes; per-record gathers of
    every row's position held 466,336 bytes at dim 6, r = 2 and 169,160 at
    dim 5, r = 1.  Every record reads the layout's shared tables."""
    monkeypatch.setattr(delta_mod, "_LAYOUT_CACHE", {})
    monkeypatch.setattr(delta_mod, "_PLAN_CACHE", {})
    R = random_curvature(dim, 3, 4).tensor
    binding = _patterson_binding(dim, r, "free")
    assert generalized_delta_contract(dim + 1, dim, [R] * r, binding).is_zero()
    layout = delta_mod._LAYOUT_CACHE[(dim, binding.out)]
    rows = [a for runs in layout.rows.values() for run in runs for a in run]
    shared = list(layout.offsets.values()) + [a for a in rows if isinstance(a, np.ndarray)]
    tuples = [t for _, t, _ in layout.groups]
    assert sum(a.nbytes for a in tuples + shared) <= limit
    (plans,) = delta_mod._PLAN_CACHE.values()
    for plan in plans:
        for fu, fl, rows, _ in plan.tables:
            held = [fu, fl] + [a for run in rows for a in run if isinstance(a, np.ndarray)]
            assert all(any(a is b for b in shared) for a in held)


@pytest.mark.parametrize("dim,r,mode", [(4, 1, "free"), (5, 1, "traced"), (5, 2, "free")])
def test_nonvanishing_contraction_builds_scatter_tables_on_first_expand(monkeypatch, dim, r, mode):
    """An order-dim delta (N <= dim) against r copies of R is not zero: its
    fresh layout builds the scatter tables on its first expand, keeps them
    for the next call, and the result equals the oracle's."""
    monkeypatch.setattr(delta_mod, "_LAYOUT_CACHE", {})
    R = random_curvature(dim, 5, 4).tensor
    binding = _patterson_binding(dim - 1, r, mode)
    layout = _layout(dim, binding.out)
    assert layout.scatter is None
    eng = generalized_delta_contract(dim, dim, [R] * r, binding)
    assert not eng.is_zero() and layout.scatter is not None
    tables = layout.scatter
    assert generalized_delta_contract(dim, dim, [R] * r, binding) == eng
    assert layout.scatter is tables
    assert eng == reference_delta_contract(dim, dim, [R] * r, binding)


# -- packaged plans ---------------------------------------------------------------


def _no_compile(*args, **kwargs):
    raise AssertionError("compiled a key the packaged plans hold")


def _build_plans():
    """scripts/build_plans.py as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "build_plans.py"
    spec = importlib.util.spec_from_file_location("build_plans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_packaged_plans_are_a_fresh_compile():
    """The packaged plan file is byte for byte what scripts/build_plans.py
    renders from a fresh compile, and it holds the key of every folded
    golden digest (each checked against the file below)."""
    build = _build_plans()
    assert Path(delta_mod._PACKAGED_PLANS).read_bytes() == build.render()
    folded = {key for name, key, _ in _golden_keys() if name.endswith("-folded")}
    assert folded <= set(build.plan_keys())


def _golden_keys():
    """(name, plan key, golden digest) for every golden binding, unfolded
    and folded with a curvature tensor's symmetries."""
    out = []
    for name, (n, dim, b, groups, ranks) in sorted(_golden_bindings().items()):
        none = tuple(() for _ in set(groups))
        out.append((name, (n, dim, b, groups, ranks, none), _GOLDEN_PLANS[name]))
        if name in _GOLDEN_FOLDED_PLANS:
            key = (n, dim, b, groups, ranks, (_R_SYMMETRIES,))
            out.append((name + "-folded", key, _GOLDEN_FOLDED_PLANS[name]))
    return out


@pytest.mark.parametrize("name,key,golden", _golden_keys(), ids=[k[0] for k in _golden_keys()])
def test_plans_loaded_from_a_file_equal_the_compiled_ones(monkeypatch, name, key, golden):
    """``_plans`` gives each golden key's compiled plans: a curvature
    tensor's Patterson key (the folded ones) parsed from the packaged file,
    with no compile, and every other key, which the file does not hold,
    compiled."""
    monkeypatch.setattr(delta_mod, "_PLAN_CACHE", {})
    packaged = name.endswith("-folded")
    if packaged:
        monkeypatch.setattr(delta_mod, "_compile_plans", _no_compile)
    assert (delta_mod._packaged_plans(repr(key)) is not None) == packaged
    assert _digest(_plans(key, _Layout(key[1], key[2].out))) == golden


def test_command_line_delta_keys_are_packaged(monkeypatch):
    """With compiling forbidden, patterson and weyl-patterson run on a
    random curvature tensor at every (dim, r, mode) the identity table
    allows, and every ``--set all`` id runs on the catalog models: the
    packaged plans hold each key they reach.  Where the table refuses a
    free rank above Tensor.MAX_RANK, the evaluator raises ShapeError before
    it looks for plans.  The Weyl part is zero in dim 3, so
    weyl-patterson's dim-3 calls need no plans (see the next test)."""
    monkeypatch.setattr(delta_mod, "_PLAN_CACHE", {})
    monkeypatch.setattr(delta_mod, "_compile_plans", _no_compile)
    for ident, evaluate in (("patterson", patterson_residual), ("weyl-patterson", weyl_patterson_residual)):
        for dim in report._IDENTITIES[ident].dims:
            R = random_curvature(dim, dim)
            for r, mode in product(range(1, max_r(dim) + 1), ("free", "traced")):
                try:
                    report._resolve(ident, dim, r, mode)
                except IdentityArgumentError:
                    with pytest.raises(ShapeError):
                        evaluate(R, r, mode)
                    continue
                assert evaluate(R, r, mode).is_zero
    for R in (example_5d(1), sl3_so3(), nikolayevsky(1, 1), example_6d(1)):
        for ident in report.applicable_identities(R.dim):
            report.run_identity(ident, R)


def _package_files():
    root = Path(delta_mod.__file__).parent
    return sorted((p, p.stat().st_mtime_ns) for p in root.rglob("*"))


@pytest.mark.parametrize("model", ["constant-5", "constant-6", "dim-3", "flat-2"])
def test_zero_operand_looks_up_no_plans(monkeypatch, model):
    """A zero operand (the Weyl part of a constant-curvature tensor or of
    any tensor in dim 3, the flat model's R) verifies all 9 slot
    involutions with both signs, and the engine contracts nothing for it:
    patterson and weyl-patterson on it look up no plans (the plan cache
    stays empty), compile nothing, give an exact zero at every r and mode
    the table allows and write no file."""
    R, ident = {
        "constant-5": (constant_curvature(5, 1), "weyl-patterson"),
        "constant-6": (constant_curvature(6, 1), "weyl-patterson"),
        "dim-3": (random_curvature(3, 5), "weyl-patterson"),
        "flat-2": (flat(2), "patterson"),
    }[model]
    evaluate, part = (
        (patterson_residual, R.tensor) if ident == "patterson" else (weyl_patterson_residual, weyl(R).tensor)
    )
    monkeypatch.setattr(delta_mod, "_PLAN_CACHE", {})
    monkeypatch.setattr(delta_mod, "_compile_plans", _no_compile)
    assert len(_slot_symmetries(part)) == 18
    files = _package_files()
    for r, mode in product(range(1, max_r(R.dim) + 1), ("free", "traced")):
        try:
            report._resolve(ident, R.dim, r, mode)
        except IdentityArgumentError:
            continue
        assert evaluate(R, r, mode).residual.is_zero()
    assert delta_mod._PLAN_CACHE == {}
    assert _package_files() == files


def test_operand_with_other_symmetries_compiles_its_own_plans(monkeypatch):
    """A generic operand's key is in no packaged line: it compiles once,
    equals the oracle, and a second call takes its plans from the
    in-process cache."""
    monkeypatch.setattr(delta_mod, "_PLAN_CACHE", {})
    b = DeltaBinding.make(
        4, {0: (0, 0), 1: (0, 1)}, {0: (0, 2), 1: (0, 3)}, out=[("U", 2), ("L", 2), ("U", 3), ("L", 3)]
    )
    rng = np.random.default_rng(47)
    generic = Tensor(4, rng.integers(-5, 6, (4,) * 4), rng.integers(-5, 6, (4,) * 4), 3)
    want = reference_delta_contract(4, 4, [generic], b)
    compiled = []
    real = delta_mod._compile_plans
    monkeypatch.setattr(delta_mod, "_compile_plans", lambda *a: compiled.append(a) or real(*a))
    for _ in range(2):
        assert generalized_delta_contract(4, 4, [generic], b) == want
    assert len(compiled) == 1
