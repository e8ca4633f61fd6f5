"""Acceptance battery.

One test per criterion; exact arithmetic means every tolerance is literal
zero.  Each test prints a PASS line so `pytest -s tests/test_acceptance.py`
reads as a checklist.  The randomized suites run the full spec'd trial
counts and take a few minutes total.
"""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from curvident.scalar import Scalar
from curvident.tensor import Tensor, ein
from curvident.curvature import invariants, jacobi_square_trace, two_stein_check
from curvident.identities import (
    einstein5_residual,
    einstein5_trace_residual,
    einstein6_residual,
    einstein6_trace_residual,
    einstein6_trace_residual_alt,
    gauss_bonnet_integrand_6,
    patterson_residual,
    super5_blocks,
    super5_residual,
    super5_trace_residual,
    super6_trace_residual,
    trace_subidentities_6,
    transvect_rank4,
    weyl_expansion_residual,
    weyl_patterson_residual,
)
from curvident.models import (
    constant_curvature,
    einsteinize,
    example_5d,
    example_6d,
    nikolayevsky,
    random_curvature,
    sl3_so3,
)
from curvident.expansion6 import group_sum_check, term_groups
from curvident.report import evaluate_model
from curvident.models import ModelSpec
from curvident.report import dump_json

pytestmark = pytest.mark.acceptance


def _diag_equals(t, values):
    d = t.dim
    for i in range(d):
        for j in range(d):
            want = Scalar(values[i]) if i == j else Scalar(0)
            if t.item(i, j) != want:
                return False
    return True


def test_criterion_1_example5d_reproduction():
    for k in (1, 2):
        R = example_5d(k)
        inv = invariants(R)
        k2, k3 = k * k, k ** 3
        assert inv.tau == Scalar(10 * k)
        assert inv.r_norm_sq == Scalar(28 * k2)
        assert _diag_equals(inv.t_check, [4 * k2] * 3 + [8 * k2] * 2)
        assert _diag_equals(inv.r_check, [8 * k3] * 3 + [16 * k3] * 2)
        assert _diag_equals(inv.r_hat2, [-8 * k3] * 3 + [-32 * k3] * 2)
        assert _diag_equals(inv.r_ring2, [-2 * k3] * 3 + [0, 0])
        assert einstein5_trace_residual(R).is_zero
        assert not super5_trace_residual(R).is_zero
    print("PASS criterion 1: example5d tables, thmA-a = 0, thmA-b != 0 (k = 1, 2)")


def test_criterion_2_sl3_so3_reproduction():
    R = sl3_so3()
    inv = invariants(R)
    assert inv.ricci == Tensor.identity(5).scale(-3)
    assert inv.tau == Scalar(-15)
    assert inv.r_norm_sq == Scalar(75)
    assert _diag_equals(inv.r_hat2, [75] * 5)
    assert _diag_equals(inv.r_ring2, [Fraction(15, 4)] * 5)
    assert super5_trace_residual(R).is_zero
    assert inv.super_einstein
    print("PASS criterion 2: sl3so3 tables, thmA-b = 0, super-Einstein flag")


def test_criterion_3_example6d_reproduction():
    R = example_6d(1)
    inv = invariants(R)
    assert inv.tau == Scalar(12)
    assert inv.r_norm_sq == Scalar(24)
    assert inv.r_ring0 == Scalar(-12)
    assert inv.r_hat0 == Scalar(-48)
    assert _diag_equals(inv.r_check, [8] * 6)
    assert _diag_equals(inv.r_hat2, [-8] * 6)
    assert _diag_equals(inv.r_ring2, [-2] * 6)
    assert _diag_equals(inv.t_check, [4] * 6)
    assert einstein6_trace_residual(R).is_zero
    assert super6_trace_residual(R).is_zero
    rep = two_stein_check(R)
    assert not rep.is_two_stein
    # the quartic obstruction at axis and cross-block diagonal unit vectors
    e1 = Tensor.from_components(6, 1, {(0,): Scalar(1)})
    diag = Tensor.from_components(6, 1, {(0,): Scalar(1), (3,): Scalar(1)})
    mu2_axis = jacobi_square_trace(R, e1)  # = 2 k^2 at ||X|| = 1
    assert mu2_axis == Scalar(2)
    assert jacobi_square_trace(R, diag) == Scalar(4)  # 2 k^2 (1+1)
    assert jacobi_square_trace(R, diag) != mu2_axis * Scalar(4)  # mu2 ||X||^4
    print("PASS criterion 3: example6d tables, thmB-a/b = 0, 2-stein obstruction")


def test_criterion_4_nikolayevsky_table():
    for a, b in ((1, 1), (2, 1), (0, 1), (1, 0)):
        R = nikolayevsky(a, b)
        blocks = super5_blocks(R, (0, 1, 2, 3))
        assert blocks == [
            Scalar(2 * (2 * a - 5 * b) * b),
            Scalar(2 * (2 * a - 5 * b) * b),
            Scalar(2 * (2 * a + b) * b),
            Scalar(-6 * (2 * a - 3 * b) * b),
        ]
        assert super5_residual(R).is_zero
    print("PASS criterion 4: normal-form block table and rank-4 residual = 0 "
          "at (1,1), (2,1), (0,1), (1,0)")


def test_criterion_5_patterson_universal_suite():
    pairs = ((4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3))
    for dim, r in pairs:
        for i in range(100):
            R = random_curvature(dim, seed=1000 * dim + 100 * r + i, n_terms=4)
            rep = patterson_residual(R, r, "traced")
            assert rep.is_zero, (dim, r, i)
        print(f"PASS criterion 5: patterson ({dim},{r}) 100/100 zero")
    for dim in (5, 6):
        for i in range(100):
            R = random_curvature(dim, seed=7000 + 100 * dim + i, n_terms=4)
            eng = weyl_patterson_residual(R, 2, "free")
            exp = weyl_expansion_residual(R)
            assert eng.is_zero and exp.is_zero, (dim, i)
            assert eng.residual == exp.residual, (dim, i)
        print(f"PASS criterion 5: weyl-substituted ({dim},2) engine == "
              "term-by-term expansion, 100/100 zero")


def test_criterion_6_einstein_randomized_suite():
    for i in range(50):
        E = einsteinize(random_curvature(5, seed=20000 + i, n_terms=4), Scalar(1))
        assert einstein5_residual(E).is_zero, i
        assert einstein5_trace_residual(E).is_zero, i
    print("PASS criterion 6: dim-5 Einstein suite (rank-4 and trace identity) 50/50")
    for i in range(50):
        E = einsteinize(random_curvature(6, seed=30000 + i, n_terms=4), Scalar(1))
        res41 = einstein6_residual(E)
        assert res41.is_zero, i
        groups = term_groups(E)
        for k, lhs, rhs in groups:
            assert (lhs - rhs).is_zero(), (i, k)
        total, eight = group_sum_check(E)
        assert total == eight, i
        a = einstein6_trace_residual(E)
        alt = einstein6_trace_residual_alt(E)
        assert a.is_zero and alt.is_zero, i
        assert a.residual == alt.residual, i
    print("PASS criterion 6: dim-6 Einstein suite (rank-6 identity, 34 groups, "
          "both trace arrangements identical) 50/50")


def test_criterion_7_derivation_cross_checks():
    for i in range(10):
        E5 = einsteinize(random_curvature(5, seed=40000 + i, n_terms=4), Scalar(1))
        tv = transvect_rank4(einstein5_residual(E5).residual, E5)
        assert tv == einstein5_trace_residual(E5).residual.scale(2), i
    for i in range(10):
        E6 = einsteinize(random_curvature(6, seed=50000 + i, n_terms=4), Scalar(1))
        for name, lhs, rhs in trace_subidentities_6(E6):
            assert lhs == rhs, (i, name)
    print("PASS criterion 7: rank-4 transvection reproduces the dim-5 trace "
          "combination; all 19 displayed dim-6 transvection sub-identities "
          "hold on 10 random Einstein tensors")


def test_criterion_8_gauss_bonnet_consistency():
    R = constant_curvature(6, 1)
    bracket = gauss_bonnet_integrand_6(R)

    # independent brute-force contraction oracle over all index tuples
    def rc(i, j, k, l):
        return (i == l) * (j == k) - (i == k) * (j == l)

    n = 6
    rho = [[sum(rc(i, a, a, j) for a in range(n)) for j in range(n)] for i in range(n)]
    tau = sum(rho[i][i] for i in range(n))
    oracle = (
        tau ** 3
        - 12 * tau * sum(rho[i][j] ** 2 for i, j in iproduct(range(n), repeat=2))
        + 3 * tau * sum(rc(*t) ** 2 for t in iproduct(range(n), repeat=4))
        + 16 * sum(rho[a][b] * rho[a][c] * rho[b][c] for a, b, c in iproduct(range(n), repeat=3))
        - 24 * sum(rho[a][b] * rho[c][d] * rc(a, c, b, d) for a, b, c, d in iproduct(range(n), repeat=4))
        - 24 * sum(rho[u][v] * rc(a, b, c, u) * rc(a, b, c, v) for a, b, c, u, v in iproduct(range(n), repeat=5))
        + 8 * sum(rc(a, b, c, d) * rc(a, u, c, v) * rc(b, v, d, u) for a, b, c, d, u, v in iproduct(range(n), repeat=6))
        - 2 * sum(rc(a, b, c, d) * rc(a, b, u, v) * rc(c, d, u, v) for a, b, c, d, u, v in iproduct(range(n), repeat=6))
    )
    assert bracket == Scalar(oracle)
    # Vol(S^6)/(384 pi^3) = (16 pi^3/15)/(384 pi^3) = 1/360 exactly
    assert bracket * Scalar(Fraction(1, 360)) == Scalar(2)

    # two-path reassembly from invariant-report pieces on the worked example
    R2 = example_6d(1)
    inv = invariants(R2)
    rho3 = ein("ab,ac,bc->", inv.ricci, inv.ricci, inv.ricci).to_scalar()
    rho_rho_r = ein("ab,cd,acbd->", inv.ricci, inv.ricci, R2.tensor).to_scalar()
    rho_tt = ein("uv,uv->", inv.ricci, inv.t_check).to_scalar()
    assembled = (
        inv.tau * inv.tau * inv.tau
        - Scalar(12) * inv.tau * inv.ricci_norm_sq
        + Scalar(3) * inv.tau * inv.r_norm_sq
        + Scalar(16) * rho3
        - Scalar(24) * rho_rho_r
        - Scalar(24) * rho_tt
        + Scalar(8) * (inv.r_ring0 - inv.r_hat0 * Fraction(1, 4))
        - Scalar(2) * inv.r_hat0
    )
    assert gauss_bonnet_integrand_6(R2) == assembled
    print("PASS criterion 8: Euler integrand = 720 (oracle-certified), chi(S6) = 2, "
          "invariant-report reassembly matches")


def test_criterion_9_determinism():
    spec = ModelSpec("example_5d", {"k": Scalar(1)})
    from curvident.models import build

    R = build(spec)
    payloads = [
        dump_json(
            evaluate_model(spec, R, identity_set=("patterson", "lemma5", "thmA-a")).to_json()
        )
        for _ in range(2)
    ]
    assert payloads[0] == payloads[1]
    # rerun from a freshly built model: byte-identical again
    run = evaluate_model(
        spec, build(spec), identity_set=("patterson", "lemma5", "thmA-a")
    )
    assert dump_json(run.to_json()) == payloads[0]
    # randomized campaign with fixed seeds is reproducible too
    a = [
        patterson_residual(random_curvature(6, seed=60000 + i, n_terms=4), 2, "traced").is_zero
        for i in range(5)
    ]
    b = [
        patterson_residual(random_curvature(6, seed=60000 + i, n_terms=4), 2, "traced").is_zero
        for i in range(5)
    ]
    assert a == b == [True] * 5
    print("PASS criterion 9: byte-identical reports across reruns")
