"""Identity evaluators: worked-example values, randomized hypotheses,
negative controls, transvection derivations, scaling covariance."""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvident.scalar import Scalar
from curvident.tensor import ShapeError, Tensor, _is_zero_part, ein, lincomb
from curvident.curvature import CurvatureTensor, invariants, weyl
from curvident.delta import (
    DeltaBinding,
    generalized_delta_contract,
    reference_delta_contract,
)
from curvident.expansion6 import group_residuals, term_groups
from curvident.identities import (
    IdentityArgumentError,
    _patterson_binding,
    _witness,
    einstein5_residual,
    einstein5_trace_residual,
    einstein6_blocks,
    einstein6_residual,
    einstein6_trace_residual,
    einstein6_trace_residual_alt,
    gauss_bonnet_integrand_6,
    patterson_residual,
    super5_blocks,
    super5_residual,
    super5_trace_residual,
    super6_residual,
    super6_trace_residual,
    trace_subidentities_5,
    trace_subidentities_6,
    transvect_rank4,
    transvect_rank6,
    tsa,
    weyl_expansion_residual,
    weyl_identity_blocks,
    weyl_patterson_residual,
)
from curvident.models import (
    constant_curvature,
    einsteinize,
    example_5d,
    example_6d,
    flat,
    nikolayevsky,
    random_curvature,
    sl3_so3,
)
from curvident.report import _IDENTITIES, applicable_identities, run_identity


def _einstein(dim, seed, k=1):
    return einsteinize(random_curvature(dim, seed, 4), Scalar(k))


# -- universal delta identity ---------------------------------------------------


def test_patterson_traced_dim4_matches_oracle():
    R = random_curvature(4, seed=9, n_terms=3)
    rep = patterson_residual(R, 2, "traced")
    assert rep.is_zero and rep.residual.rank == 2
    ref = reference_delta_contract(
        5, 4, [R.tensor, R.tensor], _patterson_binding(4, 2, "traced")
    )
    assert rep.residual == ref


def test_patterson_free_rank8_constant_curvature():
    rep = patterson_residual(constant_curvature(5, 1), 1, "free")
    assert rep.residual.rank == 8 and rep.is_zero


def test_patterson_free_sl3_so3_with_oracle_spot_check():
    R = sl3_so3()
    rep = patterson_residual(R, 2, "free")
    assert rep.residual.rank == 4 and rep.is_zero
    # oracle on a sample of output components (full brute force is 5**14)
    binding = _patterson_binding(5, 2, "free")
    sample = [(0, 0, 0, 0), (0, 1, 0, 1), (1, 2, 3, 4), (2, 2, 3, 3), (4, 0, 1, 3)]
    ref = reference_delta_contract(
        6, 5, [R.tensor, R.tensor], binding, out_indices=sample
    )
    assert ref.is_zero()


def test_patterson_r_out_of_range():
    with pytest.raises(ValueError):
        patterson_residual(constant_curvature(5, 1), 3)
    with pytest.raises(ValueError):
        patterson_residual(constant_curvature(4, 1), 0)


def test_patterson_free_modes_random():
    for dim, r in ((4, 1), (4, 2), (5, 2), (6, 2), (6, 3)):
        R = random_curvature(dim, seed=dim * 10 + r, n_terms=3)
        assert patterson_residual(R, r, "free").is_zero
    assert patterson_residual(random_curvature(5, 5, 3), 1, "free").is_zero


def test_weyl_patterson_and_expansions():
    for dim in (5, 6):
        R = random_curvature(dim, seed=dim, n_terms=4)
        eng = weyl_patterson_residual(R, 2, "free")
        exp = weyl_expansion_residual(R)
        assert eng.is_zero and exp.is_zero
        assert eng.residual == exp.residual
    # constant curvature: W = 0, every explicit block vanishes individually
    from curvident.identities import weyl_identity_blocks

    for dim in (5, 6):
        blocks = weyl_identity_blocks(weyl(constant_curvature(dim, 1)))
        assert all(b.is_zero() for b in blocks)


# -- dimension 5 ------------------------------------------------------------------


def test_lemma5_examples():
    assert einstein5_residual(example_5d(1)).is_zero
    assert einstein5_residual(constant_curvature(5, 1)).is_zero
    assert einstein5_residual(_einstein(5, seed=21)).is_zero


def test_lemma5_nonzero_on_non_einstein():
    rep = einstein5_residual(random_curvature(5, seed=4, n_terms=3))
    assert not rep.is_zero
    assert rep.witness is not None


def test_thmA_a_examples():
    assert einstein5_trace_residual(example_5d(1)).is_zero
    assert einstein5_trace_residual(example_5d(2)).is_zero
    assert einstein5_trace_residual(_einstein(5, seed=33)).is_zero


def test_thmA_b_fails_on_einstein_not_super():
    rep = super5_trace_residual(example_5d(1))
    assert not rep.is_zero


def test_thmA_b_holds_on_super_einstein():
    assert super5_trace_residual(sl3_so3()).is_zero
    assert super5_trace_residual(constant_curvature(5, 1)).is_zero
    assert super5_trace_residual(nikolayevsky(2, 1)).is_zero


def test_pa5_examples():
    assert super5_residual(sl3_so3()).is_zero
    assert super5_residual(constant_curvature(5, 1)).is_zero


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (0, 1), (1, 0)])
def test_nikolayevsky_proof_table(a, b):
    """Block values at (1,2,3,4): 2(2a-5b)b, 2(2a-5b)b, 2(2a+b)b,
    -6(2a-3b)b; they sum to zero and the full residual vanishes."""
    R = nikolayevsky(a, b)
    blocks = super5_blocks(R, (0, 1, 2, 3))
    want = [
        Scalar(2 * (2 * a - 5 * b) * b),
        Scalar(2 * (2 * a - 5 * b) * b),
        Scalar(2 * (2 * a + b) * b),
        Scalar(-6 * (2 * a - 3 * b) * b),
    ]
    assert blocks == want
    total = blocks[0] + blocks[1] + blocks[2] + blocks[3]
    assert total == Scalar(0)
    assert super5_residual(R).is_zero


def test_dim5_evaluators_reject_wrong_dim():
    R6 = example_6d(1)
    for fn in (einstein5_residual, einstein5_trace_residual, super5_residual, super5_trace_residual):
        with pytest.raises(ShapeError):
            fn(R6)


# -- TSA decomposition -------------------------------------------------------------


def test_tsa_flat_zero():
    dec = tsa(flat(6))
    assert dec.t.is_zero() and dec.s.is_zero() and dec.a.is_zero()


def test_tsa_s_symmetries():
    dec = tsa(random_curvature(6, seed=2, n_terms=3))
    assert dec.s == ein("rspq->pqrs", dec.s)
    assert dec.s == -ein("qprs->pqrs", dec.s)
    assert dec.s == -ein("pqsr->pqrs", dec.s)


def test_tsa_constant_curvature_oracle():
    """T_pqrs for constant curvature dim 6 k=1 against a direct sum over
    the two bound indices."""
    dec = tsa(constant_curvature(6, 1))

    def rc(i, j, k, l):
        return (i == l) * (j == k) - (i == k) * (j == l)

    for p, q, r, s in [(0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 0, 0), (0, 1, 2, 3), (2, 3, 2, 3)]:
        want = sum(rc(p, a, b, q) * rc(r, a, b, s) for a, b in iproduct(range(6), repeat=2))
        assert dec.t.item(p, q, r, s) == Scalar(want)


def test_tsa_full_trace_two_paths():
    R = example_6d(1)
    dec = tsa(R)
    via_tsa = ein("pqpq->", dec.s).to_scalar()
    via_invariants = ein("abpq,abpq->", R.tensor, R.tensor).to_scalar()
    assert via_tsa == via_invariants


# -- dimension 6 --------------------------------------------------------------------


def test_lemma6_examples():
    assert einstein6_residual(constant_curvature(6, 1)).is_zero
    assert einstein6_residual(example_6d(1)).is_zero
    assert einstein6_residual(_einstein(6, seed=55)).is_zero


def test_lemma6_nonzero_on_non_einstein():
    assert not einstein6_residual(random_curvature(6, seed=6, n_terms=3)).is_zero


def test_thmB_examples():
    assert einstein6_trace_residual(example_6d(1)).is_zero
    assert einstein6_trace_residual(constant_curvature(6, 1)).is_zero
    assert einstein6_trace_residual(_einstein(6, seed=56)).is_zero


def test_thmB_two_arrangements_identical():
    # the same polynomial, so identical even off the Einstein hypothesis
    for R in (example_6d(1), random_curvature(6, seed=31, n_terms=3)):
        a = einstein6_trace_residual(R).residual
        b = einstein6_trace_residual_alt(R).residual
        assert a == b


def test_eq42_examples():
    assert super6_residual(example_6d(1)).is_zero
    assert super6_residual(constant_curvature(6, 1)).is_zero


def _eq42_inputs():
    """(id, model): raw and einsteinized random tensors (k = 1, -2/3,
    1 + sqrt 3), each unbatched and as a batch of 2, and example6d."""
    ks = {"raw": None, "k=1": Scalar(1), "k=-2/3": Scalar(Fraction(-2, 3)), "k=1+sqrt3": Scalar(1, 1)}
    out = []
    for name, k in ks.items():
        for seeds, batch in ((3, ""), ([3, 4], ", batch of 2")):
            out.append((name + batch, (lambda s=seeds, k=k: random_curvature(6, s)
                                       if k is None else einsteinize(random_curvature(6, s), k))))
    return out + [("example6d", lambda: example_6d(1))]


@pytest.mark.parametrize("make", [m for _, m in _eq42_inputs()], ids=[n for n, _ in _eq42_inputs()])
def test_eq42_is_the_lemma6_form_plus_two_blocks(make):
    """eq42's stated form, -(1/8)(||R||^2 - tau^2/3) g3 + F rows + A rows,
    equals lemma6's form plus the two blocks where the forms differ,
    -(||R||^2/4) g3 + (1/2) tt(t_check, g), and eq42's residual is that
    sum; the stated form is built on a fresh tensor that shares no piece."""
    from curvident.identities import _a_terms, _f_terms, _g3_terms, _scaled, _tt_terms

    R = make()
    fresh = CurvatureTensor(R.tensor, _validated=True)
    g, rn2 = fresh.g, fresh.r_norm_sq
    stated = lincomb(
        _scaled((rn2 - fresh.tau * fresh.tau * Fraction(1, 3)) * Fraction(-1, 8), _g3_terms(g))
        + _f_terms(fresh.f, g)
        + _a_terms(fresh.a_quad)
    )
    blocks = lincomb(
        _scaled(rn2 * Fraction(-1, 4), _g3_terms(g))
        + _scaled(Fraction(1, 2), _tt_terms(fresh.t_check, g))
    )
    assert stated == einstein6_residual(fresh).residual + blocks
    assert super6_residual(R).residual == stated
    # only the super-Einstein example6d satisfies eq42
    assert stated.is_zero() == R.super_einstein


def test_eq42_wrong_dim_is_error():
    with pytest.raises(ShapeError):
        super6_residual(example_5d(1))


def test_thmB_b_examples_and_negative_control():
    assert super6_trace_residual(example_6d(1)).is_zero
    assert super6_trace_residual(constant_curvature(6, 1)).is_zero
    rep = super6_trace_residual(_einstein(6, seed=57))  # Einstein, not super
    assert not rep.is_zero
    assert rep.witness is not None


# -- 34 term groups ------------------------------------------------------------------


def test_term_groups_hold_exactly_on_einstein():
    from curvident.expansion6 import group_sum_check, term_groups

    E = _einstein(6, seed=58)
    for k, lhs, rhs in term_groups(E):
        assert (lhs - rhs).is_zero(), f"group {k}"
    total, eight = group_sum_check(E)
    assert total == eight


def test_term_groups_fail_off_einstein():
    from curvident.expansion6 import term_groups

    R = random_curvature(6, seed=59, n_terms=3)
    bad = [k for k, lhs, rhs in term_groups(R) if not (lhs - rhs).is_zero()]
    assert bad  # the group equalities characterize the Einstein reduction


@pytest.mark.parametrize("einstein", [True, False])
def test_streamed_residuals_equal_the_materialized_sides(einstein):
    """appendix34's residuals, each one lincomb of its group's terms, equal
    lhs - rhs of the materialized term groups (and the sum check total -
    eight); the lemma6 residual equals the sum of einstein6_blocks."""
    from curvident.expansion6 import group_sum_check

    R = _einstein(6, seed=60) if einstein else random_curvature(6, seed=60, n_terms=4)
    reports = run_identity("appendix34", R)
    groups = term_groups(R)
    assert len(reports) == len(groups) + 1
    for rep, (k, lhs, rhs) in zip(reports, groups):
        assert rep.identity == f"appendix34[{k}]"
        assert rep.residual == lhs - rhs
    total, eight = group_sum_check(R)
    assert reports[-1].identity == "appendix34[sum]"
    assert reports[-1].residual == total - eight
    b1, tt_rows, f_terms, a_terms = einstein6_blocks(R)
    expected = b1
    for block in tt_rows + f_terms + a_terms:
        expected = expected + block
    assert einstein6_residual(R).residual == expected
    assert all(rep.is_zero for rep in reports) == einstein


# -- transvection derivations ---------------------------------------------------------


def test_dim5_transvection_subidentities():
    for seed in range(10):
        E = _einstein(5, seed=100 + seed)
        for name, lhs, rhs in trace_subidentities_5(E):
            assert lhs == rhs, name


def test_dim5_transvection_reproduces_trace_identity():
    E = _einstein(5, seed=200)
    tv = transvect_rank4(einstein5_residual(E).residual, E)
    assert tv == einstein5_trace_residual(E).residual.scale(2)
    # per-term right sides sum to the same combination
    subs = trace_subidentities_5(E)
    total = subs[0][2]
    for _, _, rhs in subs[1:]:
        total = total + rhs
    assert total == einstein5_trace_residual(E).residual.scale(2)


def test_dim6_transvection_subidentities():
    for seed in range(10):
        E = _einstein(6, seed=300 + seed)
        for name, lhs, rhs in trace_subidentities_6(E):
            assert lhs == rhs, name


def test_dim6_transvection_reproduces_trace_identity():
    E = _einstein(6, seed=301)
    tv = transvect_rank6(einstein6_residual(E).residual, E)
    assert tv == einstein6_trace_residual(E).residual.scale(Fraction(-1, 2))


# -- scaling covariance ----------------------------------------------------------------


@pytest.mark.parametrize("lam", [2, -1, Fraction(3, 2)])
def test_scaling_covariance(lam):
    """Each homogeneous residual scales by lam**degree; Einstein inputs
    stay Einstein under scaling, so zero residuals stay zero."""
    E5 = _einstein(5, seed=400)
    E5s = CurvatureTensor(E5.tensor.scale(lam), _validated=True)
    l2, l3 = Scalar(lam) * Scalar(lam), Scalar(lam) * Scalar(lam) * Scalar(lam)
    assert einstein5_residual(E5s).residual == einstein5_residual(E5).residual.scale(l2)
    assert einstein5_trace_residual(E5s).residual == einstein5_trace_residual(
        E5
    ).residual.scale(l3)
    assert einstein5_residual(E5s).is_zero

    E6 = _einstein(6, seed=401)
    E6s = CurvatureTensor(E6.tensor.scale(lam), _validated=True)
    assert einstein6_residual(E6s).residual == einstein6_residual(E6).residual.scale(l2)
    assert einstein6_trace_residual(E6s).residual == einstein6_trace_residual(
        E6
    ).residual.scale(l3)
    assert einstein6_residual(E6s).is_zero

    R = random_curvature(4, seed=402, n_terms=3)
    Rs = CurvatureTensor(R.tensor.scale(lam), _validated=True)
    assert patterson_residual(Rs, 2, "traced").residual == patterson_residual(
        R, 2, "traced"
    ).residual.scale(l2)


# -- Euler-characteristic integrand ------------------------------------------------------


def test_gauss_bonnet_flat_zero():
    assert gauss_bonnet_integrand_6(flat(6)) == Scalar(0)


def test_gauss_bonnet_constant_curvature_oracle_and_chi():
    """Bracket = 720 for the unit round metric, certified by a direct
    brute-force contraction; times Vol(S6)/(384 pi^3) = (16/15)/384 the
    pi-free rational gives chi = 2."""
    R = constant_curvature(6, 1)
    bracket = gauss_bonnet_integrand_6(R)

    def rc(i, j, k, l):
        return (i == l) * (j == k) - (i == k) * (j == l)

    n = 6
    rho = [[sum(rc(i, a, a, j) for a in range(n)) for j in range(n)] for i in range(n)]
    tau = sum(rho[i][i] for i in range(n))
    rho2 = sum(rho[i][j] ** 2 for i, j in iproduct(range(n), repeat=2))
    rn2 = sum(
        rc(i, j, k, l) ** 2 for i, j, k, l in iproduct(range(n), repeat=4)
    )
    rho3 = sum(
        rho[a][b] * rho[a][c] * rho[b][c] for a, b, c in iproduct(range(n), repeat=3)
    )
    rho_rho_r = sum(
        rho[a][b] * rho[c][d] * rc(a, c, b, d)
        for a, b, c, d in iproduct(range(n), repeat=4)
    )
    rho_tt = sum(
        rho[u][v] * rc(a, b, c, u) * rc(a, b, c, v)
        for a, b, c, u, v in iproduct(range(n), repeat=5)
    )
    cubic1 = sum(
        rc(a, b, c, d) * rc(a, u, c, v) * rc(b, v, d, u)
        for a, b, c, d, u, v in iproduct(range(n), repeat=6)
    )
    cubic2 = sum(
        rc(a, b, c, d) * rc(a, b, u, v) * rc(c, d, u, v)
        for a, b, c, d, u, v in iproduct(range(n), repeat=6)
    )
    oracle = (
        tau ** 3
        - 12 * tau * rho2
        + 3 * tau * rn2
        + 16 * rho3
        - 24 * rho_rho_r
        - 24 * rho_tt
        + 8 * cubic1
        - 2 * cubic2
    )
    assert bracket == Scalar(oracle)
    assert bracket == Scalar(720)
    vol_over_384pi3 = Fraction(16, 15) / 384  # pi^3 cancels symbolically
    assert Scalar(vol_over_384pi3) * bracket == Scalar(2)


def test_gauss_bonnet_reassembly_from_invariants():
    """Two-path consistency on the worked 6-dim example: the bracket
    equals its reassembly from InvariantReport pieces, using the trace of
    the triple-product relation R_abcd R_aucv R_bvdu = r_ring0 - r_hat0/4."""
    R = example_6d(1)
    inv = invariants(R)
    rho3 = ein("ab,ac,bc->", inv.ricci, inv.ricci, inv.ricci).to_scalar()
    rho_rho_r = ein("ab,cd,acbd->", inv.ricci, inv.ricci, R.tensor).to_scalar()
    rho_tt = ein("uv,uv->", inv.ricci, inv.t_check).to_scalar()
    cubic1 = inv.r_ring0 - inv.r_hat0 * Fraction(1, 4)
    assembled = (
        inv.tau * inv.tau * inv.tau
        - Scalar(12) * inv.tau * inv.ricci_norm_sq
        + Scalar(3) * inv.tau * inv.r_norm_sq
        + Scalar(16) * rho3
        - Scalar(24) * rho_rho_r
        - Scalar(24) * rho_tt
        + Scalar(8) * cubic1
        - Scalar(2) * inv.r_hat0
    )
    assert gauss_bonnet_integrand_6(R) == assembled


def test_gauss_bonnet_wrong_dim():
    with pytest.raises(ShapeError):
        gauss_bonnet_integrand_6(flat(5))


# -- golden digests of the explicit transcriptions ------------------------------------
# sha256 of the sparse entries of non-zero outputs; they pin the explicit
# dim-5/6 forms, the term groups and the derived pieces component by
# component, so a restructuring of the transcriptions must reproduce them.


def _digest(tensors) -> str:
    payload = json.dumps([t.to_entries() for t in tensors], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _flat(triples):
    return [t for _, lhs, rhs in triples for t in (lhs, rhs)]


def _mixed5():
    # non-Einstein, with sqrt(3) parts
    return CurvatureTensor(sl3_so3().tensor + random_curvature(5, 7, 4).tensor)


def _invariant_tensors(R):
    inv = invariants(R)
    scalars = (inv.tau, inv.ricci_norm_sq, inv.r_norm_sq, inv.r_hat0, inv.r_ring0)
    return [inv.ricci, inv.t_check, inv.r_check, inv.r_hat2, inv.r_ring2] + [
        Tensor.from_scalar(R.dim, s) for s in scalars
    ]


def _delta_outputs(R):
    one = DeltaBinding.make(
        3, {0: (0, 0), 1: (0, 1)}, {0: (0, 2), 1: (0, 3)}, out=[("U", 2), ("L", 2)]
    )
    lower = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    upper = {0: (0, 2), 1: (0, 3), 2: (1, 2), 3: (1, 3)}
    two = DeltaBinding.make(5, lower, upper, out=[("U", 4), ("L", 4)])
    t = R.tensor
    return [
        generalized_delta_contract(3, R.dim, [t], one),
        generalized_delta_contract(5, R.dim, [t, t], two),
    ]


_GOLDEN = {
    "weyl-blocks-5": (
        lambda: weyl_identity_blocks(weyl(random_curvature(5, 3, 4))),
        "66760e252bb03a666d27b2d529b5a39418dda15fb2b65b19e4cc9d8cb93c941e",
    ),
    "weyl-blocks-6": (
        lambda: weyl_identity_blocks(weyl(random_curvature(6, 3, 4))),
        "f6cc5a14f2997cd1f7b8dc314981610ec998930f7921758bfd257fea5240be0e",
    ),
    "dim5-residuals": (
        lambda: [
            f(R).residual
            for R in (random_curvature(5, 4, 4), _mixed5())
            for f in (
                einstein5_residual,
                super5_residual,
                einstein5_trace_residual,
                super5_trace_residual,
            )
        ],
        "4d34826aa698704741da6a3fd990f7db9d003f941713531e7c13c84a38ffb5bf",
    ),
    "dim6-residuals": (
        lambda: [
            f(random_curvature(6, 5, 4)).residual
            for f in (
                einstein6_residual,
                super6_residual,
                einstein6_trace_residual,
                einstein6_trace_residual_alt,
                super6_trace_residual,
            )
        ],
        "1b1348203a9660b892f6ea18731b043b95f755b0afdc5b24d34f494baceb09ae",
    ),
    "term-groups": (
        lambda: _flat(term_groups(random_curvature(6, 6, 4))),
        "16ca737967b503ccdd2614b2673a7261fd12e446669cab154716bc39a2976e29",
    ),
    "trace-subidentities-5": (
        lambda: _flat(trace_subidentities_5(_einstein(5, seed=7))),
        "4ed6f9ec5a406c7d5e14eb08c8d61c748cdc136a4621a4ec8bb28a7dcc851464",
    ),
    "trace-subidentities-6": (
        lambda: _flat(trace_subidentities_6(_einstein(6, seed=7))),
        "a9006ae315a90878e4442f90e9e9aca94156177b0aa10a7017067cdc7234c866",
    ),
    "invariants": (
        lambda: _invariant_tensors(_mixed5())
        + _invariant_tensors(random_curvature(6, 8, 4))
        + [Tensor.from_scalar(6, gauss_bonnet_integrand_6(random_curvature(6, 8, 4)))],
        "e578891cec89ae195e3f7f8b7ec17acdcb8943180dc28cd83684aee0f920f917",
    ),
    "delta-sqrt3": (
        lambda: _delta_outputs(_mixed5()),
        "8d37b48af4c905736d18977a6afa29ac12475a80d9f224d85125e4a85023fd50",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_digests(name):
    build, expected = _GOLDEN[name]
    outputs = build()
    assert all(not t.is_zero() for t in outputs)
    assert _digest(outputs) == expected


def _loop_witness(residual):
    """The exact Scalar scan: the first strict maximum of |value| over the
    non-zero entries in index order."""
    best_idx, best_val = None, None
    for idx in residual.nonzero_indices():
        v = residual.item(idx)
        if best_val is None or abs(v) > abs(best_val):
            best_idx, best_val = idx, v
    return (tuple(i + 1 for i in best_idx), best_val)


@pytest.mark.parametrize(
    "rank,entries",
    [
        (2, {(0, 0): 1, (0, 1): 5, (1, 0): -5, (2, 2): 5}),  # ties
        (2, {(0, 0): -3, (1, 2): -7, (2, 1): 6}),  # negatives
        (2, {(0, 0): Fraction(7, 3), (1, 1): Fraction(-5, 2), (2, 0): Fraction(5, 2)}),
        (3, {(0, 1, 2): 2 ** 70, (1, 0, 0): -(2 ** 70), (2, 2, 2): 2 ** 70 - 1}),
        (2, {(0, 1): Fraction(-(2 ** 70), 3), (1, 0): Fraction(2 ** 70, 3)}),
        (2, {(0, 0): Scalar(1, 1), (1, 1): Scalar(-3), (0, 2): Scalar(0, -2)}),
        (2, {(0, 0): Scalar(-2), (1, 1): Scalar(1, 1), (2, 1): Scalar(2)}),
        (0, {(): Fraction(-4, 3)}),
    ],
)
def test_witness_matches_exact_scan(rank, entries):
    t = Tensor.from_components(3, rank, entries)
    assert _witness(t) == _loop_witness(t)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_witness_is_the_first_argmax_of_abs(data):
    """A rational residual's witness is its first entry of largest |value|
    in C order, as ``np.argmax(np.abs(numerators))`` finds it: on entries
    drawn around +-m, so that +m and -m tie, on Python-int (object) parts
    and on the trials split from a batched residual."""
    dim, rank, batch, m = (data.draw(st.integers(*r)) for r in ((2, 4), (0, 3), (0, 3), (1, 4)))
    scale = 2 ** 70 if data.draw(st.booleans()) else 1
    shape = (batch,) * bool(batch) + (dim,) * rank
    entry = st.sampled_from([-m, m, 0]) | st.integers(-m, m)
    n = math.prod(shape)
    drawn = data.draw(st.lists(entry, min_size=n, max_size=n))
    numerators = np.array([v * scale for v in drawn], object).reshape(shape)
    den = data.draw(st.integers(1, 6))
    t = Tensor(dim, numerators, np.zeros(shape, np.int64), den, batched=bool(batch))
    for trial in t.split() if batch else [t]:
        if trial.is_zero():
            continue
        rat = trial._rat
        assert (rat.dtype == object) == (scale > 1)
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(rat))), rat.shape))
        assert _witness(trial) == (tuple(i + 1 for i in idx), trial.item(idx))


@pytest.mark.parametrize("dim", range(2, 7))
def test_identity_table_consistency(dim):
    """Every id runs exactly in the dimensions its table entry names, and
    its first report carries the entry's hypothesis."""
    R = constant_curvature(dim, Scalar(1))
    applied = []
    for ident, entry in _IDENTITIES.items():
        if dim not in entry.dims:
            with pytest.raises(IdentityArgumentError, match=f"{ident} applies to dim"):
                run_identity(ident, R)
            continue
        applied.append(ident)
        reports = run_identity(ident, R)
        assert reports[0].hypothesis == entry.hypothesis
        assert all(rep.is_zero for rep in reports)
        if not entry.delta:
            for extra in ({"r": 1}, {"mode": "free"}):
                with pytest.raises(IdentityArgumentError, match="apply to patterson"):
                    run_identity(ident, R, **extra)
    assert applied == applicable_identities(dim)


def test_appendix34_shared_terms_cancel_unevaluated(monkeypatch):
    """Group 34's A rows (in its own residual) and the sum check's A rows
    and metric triples (against 8 x the lemma6 form) cancel in lincomb:
    on any input no A row is contracted, and the residuals still equal the
    materialized sides."""
    from curvident import tensor as tensor_mod
    from curvident.expansion6 import group_residuals, group_sum_check
    from curvident.identities import _A_ROWS

    R = random_curvature(6, seed=61, n_terms=4)
    groups = term_groups(R)
    total, eight = group_sum_check(R)
    calls = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops))
    *residuals, check = group_residuals(R)
    assert not {f"{labels}->ihjklm" for _, labels in _A_ROWS} & set(calls)
    assert residuals == [lhs - rhs for _, lhs, rhs in groups]
    assert check == total - eight


@pytest.mark.parametrize("seeds", [3, [3, 4]], ids=["unbatched", "batch of 2"])
def test_appendix34_on_einstein_input_runs_no_rank6_einsum(monkeypatch, seeds):
    """On Einstein input each group's two sides differ in a kernel that is
    exactly zero, the sum check's kernels are rank 2 and 4, and the A rows
    are left out: no contraction has a rank-6 output and R's rank-6 A
    tensor is never built."""
    from curvident import tensor as tensor_mod

    E = einsteinize(random_curvature(6, seeds), Scalar(1, 1))
    ndims = []
    real = tensor_mod._einsum_exact

    def einsum(s, ops):
        out = real(s, ops)
        ndims.append(out.ndim)
        return out

    monkeypatch.setattr(tensor_mod, "_einsum_exact", einsum)
    reports = run_identity("appendix34", E)
    assert all(rep.is_zero for rep in reports)
    assert "a_quad" not in vars(E)
    # a rank-6 output has six axes, seven with a trial axis; a batched
    # rank-4 output has five
    assert ndims and max(ndims) <= 5


def test_weyl_expansion_evaluates_each_f_row_once(monkeypatch):
    """The dim-6 W-identity's two F families share each row's subscripts
    and g, so each row's two einsums run as one; the nine merged rows are
    transposes of one kernel, which is read once for all slices."""
    from curvident import tensor as tensor_mod
    from curvident.identities import _F_ROWS, _weyl_identity_block_terms

    terms = [t for block in _weyl_identity_block_terms(weyl(random_curvature(6, 3))) for t in block]
    calls = []
    real = tensor_mod._einsum_exact

    def einsum(s, ops):
        # an F row leaves g out of the einsum: one rank-4 operand
        if [op.ndim for op in ops] == [4]:
            calls.append(s)
        return real(s, ops)

    monkeypatch.setattr(tensor_mod, "_einsum_exact", einsum)
    for term in terms:
        lincomb([term])
    assert len(calls) == 2 * len(_F_ROWS)
    calls.clear()
    assert lincomb(terms).is_zero()
    assert len(calls) == 1


def test_evaluate_model_computes_each_piece_once(monkeypatch):
    """Every dim-6 id reads R's pieces from R: over one evaluate_model each
    cubic contraction and the Ricci contraction run once, T and S once
    per tensor (R and its Weyl part W), A's two rank-5 slices once per
    index of i per tensor and A itself never, and W is validated once.
    thmB-a still reports both arrangements of the trace identity and their
    difference."""
    from curvident import curvature as curvature_mod
    from curvident import tensor as tensor_mod
    from curvident.curvature import _R_CHECK, _R_HAT0, _R_HAT2, _R_RING0, _R_RING2
    from curvident.models import explicit_spec
    from curvident.report import evaluate_model
    from curvident.tensor import _canonical

    R = example_6d(1)
    calls, checked = [], []
    real_einsum, real_check = tensor_mod._einsum_exact, curvature_mod._check_symmetries
    monkeypatch.setattr(
        tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real_einsum(s, ops)
    )
    monkeypatch.setattr(
        curvature_mod, "_check_symmetries", lambda t: checked.append(t) or real_check(t)
    )
    run = evaluate_model(explicit_spec(R), R, applicable_identities(6))
    for subscripts in (_R_CHECK, _R_HAT2, _R_RING2, _R_HAT0, _R_RING0, "iaaj->ij"):
        assert calls.count(subscripts) == 1, subscripts
    for subscripts in ("pabq,rabs->pqrs", "abpq,abrs->pqrs"):
        assert calls.count(subscripts) == 2, subscripts
    cores = [_canonical(s)[0] for s in calls]
    # sum_a R_apqr R_astu whole, and read at p = v and at t = v
    assert _canonical("apqr,astu->pqrstu")[0] not in cores
    for slice_core in ("abc,adef->bcdef", "abcd,aef->bcdef"):
        assert cores.count(slice_core) == 2 * 6, slice_core
    assert len(checked) == 1 and checked[0] is R.weyl.tensor
    reports = [r for r in run.residuals if r.identity.startswith(("thmB-a", "thm22"))]
    assert [r.identity for r in reports] == ["thmB-a", "thm22", "thmB-a-vs-thm22"]
    assert all(r.is_zero for r in reports)
    assert reports[0].residual == einstein6_trace_residual(R).residual
    assert reports[1].residual == einstein6_trace_residual_alt(R).residual


# the two-slot R.R contractions every tensor's pieces run: T, S, t_check, ||R||^2
_RR_PIECES = ("pabq,rabs->pqrs", "abpq,abrs->pqrs", "iabc,jabc->ij", "ijkl,ijkl->")


@pytest.mark.parametrize(
    "make", [lambda: example_5d(1), sl3_so3, lambda: example_6d(1)],
    ids=["example_5d", "sl3_so3", "example_6d"],
)
def test_quadratic_pieces_run_once_per_tensor(monkeypatch, make):
    """Over one evaluate_model with every applicable id, T and S run once
    per tensor (R and its Weyl part W), F is built once, and no other
    contraction of two rank-4 operands runs outside the delta engine.  In
    dim 6, A's two rank-5 slices, R against R read at v, run once per
    index v per tensor, and never in dim 5."""
    from collections import Counter
    from functools import cached_property

    from curvident import tensor as tensor_mod
    from curvident.models import explicit_spec
    from curvident.report import evaluate_model

    R = make()
    contracted, sliced, built = Counter(), Counter(), []
    real_contract, real_f = tensor_mod._contract_terms, CurvatureTensor.f.func

    def contract(subscripts, parts, terms):
        ndims = [p[0].ndim for p in parts]
        if ndims == [4, 4]:
            contracted[subscripts] += 1
        if sorted(ndims) == [3, 4]:
            sliced[tensor_mod._canonical(subscripts)[0]] += 1
        return real_contract(subscripts, parts, terms)

    f = cached_property(lambda self: built.append(self) or real_f(self))
    f.__set_name__(CurvatureTensor, "f")
    monkeypatch.setattr(tensor_mod, "_contract_terms", contract)
    monkeypatch.setattr(CurvatureTensor, "f", f)
    evaluate_model(explicit_spec(R), R, applicable_identities(R.dim))
    assert contracted == dict.fromkeys(_RR_PIECES, 2)
    assert sliced == ({"abc,adef->bcdef": 2 * 6, "abcd,aef->bcdef": 2 * 6} if R.dim == 6 else {})
    assert built == ([R] if R.dim == 6 else [])
    assert not _dense_rank6_pieces(R)


def _dense_rank6_pieces(R: CurvatureTensor) -> list:
    """The cached pieces of R and of its Weyl part that hold a rank-6 part
    other than a zero part, as "R.<name>" or "W.<name>"."""
    from curvident.tensor import _is_zero_part

    found = []
    for label, owner in (("R", R), ("W", R.weyl)):
        for name, value in vars(owner).items():
            for t in value if isinstance(value, tuple) else (value,):
                if isinstance(t, Tensor) and t.rank >= 6 and not (
                        _is_zero_part(t._rat) and _is_zero_part(t._irr)):
                    found.append(f"{label}.{name}")
    return found


@pytest.mark.parametrize(
    "make", [lambda: example_6d(1), lambda: random_curvature(6, 3)],
    ids=["example_6d", "random_curvature(6, 3)"],
)
def test_weyl_expansion_needs_no_rank6_scratch(make):
    """The dim-6 W-expansion adds eight transposes of W's A tensor, times
    +-8, into its rank-6 accumulator.  Its traced allocations peak below
    three rank-6 int64 arrays above where they start: A, the accumulator
    and a rank-6 scratch for 8 x A would reach that."""
    R = make()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert weyl_expansion_residual(R).is_zero
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * 6 ** 6 * 8


@pytest.mark.parametrize(
    "make", [lambda: example_6d(1), lambda: _einstein(6, seed=8)],
    ids=["example_6d", "random einstein"],
)
def test_no_rank6_piece_outlives_evaluate_model(make):
    """After evaluate_model with every dim-6 id, R keeps lemma6's form in
    place of its A tensor, a zero part on Einstein input, and neither R
    nor W keeps a dense rank-6 array."""
    from curvident.models import explicit_spec
    from curvident.report import evaluate_model

    R = make()
    evaluate_model(explicit_spec(R), R, applicable_identities(6))
    assert "einstein6_form" in vars(R) and "a_quad" not in vars(R)
    assert _dense_rank6_pieces(R) == []


def _super_einstein_batch() -> CurvatureTensor:
    """example6d at k = 1 and k = 2 as one batch of two trials: a batch on
    which eq42's residual is zero."""
    trials = [example_6d(k).tensor for k in (1, 2)]
    assert all(t._den == 1 and _is_zero_part(t._irr) for t in trials)
    rat = np.stack([t._rat for t in trials])
    return CurvatureTensor(Tensor(6, rat, np.zeros_like(rat), batched=True), _validated=True)


@pytest.mark.parametrize(
    "evaluate,make",
    [
        (einstein6_residual, lambda: einsteinize(random_curvature(6, [3, 4]), 1)),
        (super6_residual, _super_einstein_batch),
        (group_residuals, lambda: einsteinize(random_curvature(6, [3, 4]), 1)),
        (weyl_expansion_residual, lambda: einsteinize(random_curvature(6, [3, 4]), 1)),
    ],
    ids=["lemma6", "eq42", "appendix34", "weyl-expansion"],
)
def test_rank6_zero_residuals_need_less_than_one_rank6_array(evaluate, make):
    """On a batch of two trials where the identity holds, a dim-6 rank-6
    residual is proved zero one slice of i at a time: the traced
    allocations of its evaluation, R's pieces included, peak below one
    B x 6**6 int64 array above where they start.  A materialized A tensor
    or a rank-6 accumulator alone would reach that.  eq42 is checked on a
    super-Einstein batch, since on an Einstein batch its residual is itself
    a non-zero rank-6 tensor."""
    R = make()
    assert R.tensor.batch == 2
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = evaluate(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reports = out if isinstance(out, list) else [out]
    assert all(r.is_zero() if isinstance(r, Tensor) else r.is_zero for r in reports)
    assert peak - start < 2 * 6 ** 6 * 8
