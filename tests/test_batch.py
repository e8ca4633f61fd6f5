"""Batched evaluation against per-trial evaluation.

A batched Tensor stacks trials along a leading axis, a batched rank-0
Tensor holds one value per trial (a coefficient such as tau), and
``lincomb``, every non-delta evaluator and ``random_curvature`` run once
on a whole batch.  Each test compares a
batched result, split into its trials, with the same computation run on
each trial alone, by Tensor equality: the split tensors must be the
canonical ones too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvident import report
from curvident.identities import gauss_bonnet_integrand_6, weyl_expansion_residual
from curvident.models import einsteinize, random_curvature
from curvident import tensor as tensor_mod
from curvident.scalar import Scalar
from curvident.tensor import ShapeError, Tensor, lincomb

DIM = 3
LIMIT = 2 ** 62

# tier-1 runs each property's few examples; ``--hypothesis-profile=deep``
# (tests/conftest.py), as CI runs this file, runs ten times as many
_DEEP = settings.get_current_profile_name() == "deep"


def _examples(n: int) -> settings:
    return settings(max_examples=10 * n if _DEEP else n, deadline=None)


def _stack(tensors) -> Tensor:
    """The batched Tensor whose trials are the unbatched ``tensors``, over
    the lcm of their denominators."""
    den = math.lcm(*(t._den for t in tensors))
    parts = [[np.asarray(p, object) * (den // t._den) for p in (t._rat, t._irr)] for t in tensors]
    rat, irr = (np.stack([p[side] for p in parts]) for side in (0, 1))
    return Tensor(tensors[0].dim, rat, irr, den, batched=True)


def _per_trial(values) -> Tensor:
    """The batched rank-0 Tensor whose trials are ``values`` (Scalar,
    Fraction or int)."""
    return _stack([Tensor.from_scalar(DIM, v) for v in values])


def _trials(value) -> list:
    """Each trial's Scalar of a batched rank-0 Tensor."""
    return [t.to_scalar() for t in value.split()]


_SCALARS = st.builds(
    Scalar,
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=3)),
)


def _tensor(rng, rank, kind):
    """A dim-3 Tensor of ``rank``: small integers over a denominator, with a
    sqrt(3) part for kind "sqrt3", or c * I for kind "identity"."""
    shape = (DIM,) * rank
    if kind == "identity":
        c = int(rng.integers(1, 5)) * (1 if rng.integers(2) else -1)
        eye = np.eye(DIM, dtype=np.int64)
        return Tensor(DIM, c * eye, 0 * eye, int(rng.integers(1, 4)))
    irr = rng.integers(-3, 4, shape) if kind == "sqrt3" else np.zeros(shape, np.int64)
    return Tensor(DIM, rng.integers(-5, 6, shape), irr, int(rng.integers(1, 7)))


# (subscripts, operand ranks), every output of rank 4; the rank-2 tokens of
# output letters take identity multiples out of the einsum
_TEMPLATES = (
    ("ij,kl->ijkl", (2, 2)),
    ("il,jk->ijkl", (2, 2)),
    ("ia,ajkl->ijkl", (2, 4)),
    ("ijlk->ijkl", (4,)),
    ("ijkl,ab,ab->ijkl", (4, 2, 2)),
    ("ij,kl,aa->ijkl", (2, 2, 2)),
    (None, (4,)),
)


@st.composite
def _batched_terms(draw):
    """(B, batched terms, per-trial terms): each operand is one Tensor shared
    by every trial, or per trial (same c * I, c * I with c per trial, or
    generic); each coefficient an int, Fraction, Scalar or a batched rank-0
    Tensor of one per trial."""
    batch = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    batched_terms, trial_terms = [], [[] for _ in range(batch)]
    for _ in range(draw(st.integers(1, 5))):
        subscripts, ranks = draw(st.sampled_from(_TEMPLATES))
        ops, per_trial = [], []
        for rank in ranks:
            how = draw(st.sampled_from(["shared", "same", "each", "generic", "generic_sqrt3"]))
            kind = {"same": "identity", "each": "identity", "generic_sqrt3": "sqrt3"}.get(how)
            if kind is None or rank != 2 and kind == "identity":
                kind = "int"
            if how == "shared":
                t = _tensor(rng, rank, "identity" if rank == 2 and rng.integers(2) else "int")
                ops.append(t)
                per_trial.append([t] * batch)
            elif how == "same":
                t = _tensor(rng, rank, kind)
                trials = [t] * batch
                ops.append(_stack(trials))
                per_trial.append(trials)
            else:
                trials = [_tensor(rng, rank, kind) for _ in range(batch)]
                ops.append(_stack(trials))
                per_trial.append(trials)
        coeff = draw(st.one_of(
            st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5), _SCALARS,
            st.lists(_SCALARS, min_size=batch, max_size=batch).map(_per_trial),
        ))
        head = () if subscripts is None else (subscripts,)
        batched_terms.append((coeff, *head, *ops))
        for b in range(batch):
            c = _trials(coeff)[b] if isinstance(coeff, Tensor) else coeff
            trial_terms[b].append((c, *head, *(trials[b] for trials in per_trial)))
    return batch, batched_terms, trial_terms


@_examples(80)
@given(_batched_terms())
def test_lincomb_of_a_batch_equals_the_lincombs_of_its_trials(case):
    batch, batched_terms, trial_terms = case
    batched = any(isinstance(x, Tensor) and x.batch for t in batched_terms for x in t)
    assume(batched)
    result = lincomb(batched_terms)
    assert result.batch == batch
    assert result.split() == [lincomb(terms) for terms in trial_terms]


@_examples(60)
@given(st.lists(st.tuples(_SCALARS, _SCALARS, _SCALARS), min_size=1, max_size=3),
       st.one_of(_SCALARS, st.integers(-5, 5), st.fractions(-2, 2, max_denominator=4)))
def test_scalars_combine_trial_by_trial(values, c):
    """+, -, * and negation of batched rank-0 Tensors, with each other and
    with one Scalar, Fraction or int, give each trial's Scalar arithmetic;
    ``to_scalar`` of one is the Tensor itself."""
    a, b, d = (_per_trial(col) for col in zip(*values))
    assert a.to_scalar() is a
    cases = [
        (a + b, [x + y for x, y, _ in values]),
        (a + c, [x + c for x, _, _ in values]),
        (c + a - b, [c + x - y for x, y, _ in values]),
        (a - c, [x - c for x, _, _ in values]),
        (c - a, [c - x for x, _, _ in values]),
        (a * b * d, [x * y * z for x, y, z in values]),
        (a * c, [x * c for x, _, _ in values]),
        (c * -d + a, [c * -z + x for x, _, z in values]),
    ]
    for got, want in cases:
        assert got.batch == len(values) and got.rank == 0
        assert _trials(got) == [Scalar(0) + w for w in want]


def test_split_gives_each_trial_as_a_canonical_tensor():
    rng = np.random.default_rng(3)
    trials = [_tensor(rng, 2, "sqrt3"), _tensor(rng, 2, "int"), Tensor.zeros(DIM, 2)]
    stacked = _stack(trials)
    assert (stacked.batch, stacked.rank) == (3, 2)
    assert stacked.split() == trials
    with pytest.raises(ShapeError):
        trials[0].split()
    with pytest.raises(ShapeError):
        stacked.item(0, 0)


def test_identity_multiple_of_every_trial_leaves_the_einsum():
    """A batched operand is c * I for the c * I shortcut only when every
    trial holds the same c * I; the Ricci tensor of an Einstein batch does."""
    eye = np.eye(DIM, dtype=np.int64)
    same = _stack([Tensor(DIM, 2 * eye, 0 * eye)] * 2)
    each = _stack([Tensor(DIM, 2 * eye, 0 * eye), Tensor(DIM, 3 * eye, 0 * eye)])
    assert same._delta_numerator() == 2
    assert each._delta_numerator() == 0
    R = einsteinize(random_curvature(6, [1, 2, 3]), Scalar(1))
    assert R.ricci._delta_numerator() == 5 * R.ricci._den


def test_batch_crossing_the_int64_bound_takes_the_object_path():
    """A term whose largest per-trial coefficient times its operand's
    largest trial reaches 2**62 puts the whole batch on Python ints, and
    stays exact; each split trial is canonical again (int64 where it
    fits)."""
    shape = (DIM, DIM)
    zero = np.zeros(shape, np.int64)
    big = Tensor(DIM, np.full(shape, LIMIT - 1, np.int64), zero)
    small = Tensor(DIM, np.arange(9).reshape(shape), zero)
    batch = _stack([big, small])
    assert batch._rat.dtype == np.int64
    for coeffs in ([Scalar(3), Scalar(1)], [Scalar(-1, Fraction(1, 2)), Scalar(Fraction(1, 2))]):
        coeff = _per_trial(coeffs)
        result = lincomb([(coeff, batch)])
        assert result._rat.dtype == object
        want = [lincomb([(c, t)]) for c, t in zip(coeffs, (big, small))]
        assert want[0]._rat.dtype == object and want[1]._rat.dtype == np.int64
        assert result.split() == want


def test_like_terms_merge_an_int_with_a_per_trial_coefficient():
    """Like terms merge on their numerators, so an int coefficient and a
    per-trial one add up trial by trial; a trial where they cancel is zero."""
    rng = np.random.default_rng(5)
    trials = [_tensor(rng, 2, "sqrt3") for _ in range(3)]
    batch = _stack(trials)
    coeffs = [Scalar(-2), Scalar(Fraction(1, 3), 1), Scalar(Fraction(-5, 2))]
    terms = [(2, "ij->ji", batch), (_per_trial(coeffs), "ij->ji", batch), (Fraction(1, 2), batch)]
    assert len(tensor_mod._merge_like_terms(terms)) == 2
    want = [lincomb([(2 + c, "ij->ji", t), (Fraction(1, 2), t)]) for c, t in zip(coeffs, trials)]
    assert lincomb(terms).split() == want
    assert lincomb(terms[:2]).split()[0].is_zero()


def test_random_curvature_of_seeds_stacks_each_seeds_tensor():
    for dim, n_terms in ((3, 1), (5, 4), (6, 6)):
        seeds = [7, -2, 2 ** 64 + 3]
        batch = random_curvature(dim, seeds, n_terms)
        assert batch.tensor.split() == [random_curvature(dim, s, n_terms).tensor for s in seeds]


def _models(dim, seeds, k):
    """A batch and its trials: raw random tensors (k None) or einsteinized."""
    batch, trials = random_curvature(dim, seeds), [random_curvature(dim, s) for s in seeds]
    if k is not None:
        batch, trials = einsteinize(batch, k), [einsteinize(R, k) for R in trials]
    return batch, trials


_SEEDS = st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3)
_K = st.sampled_from([None, Scalar(1), Scalar(Fraction(-2, 3)), Scalar(1, 1)])


@pytest.mark.parametrize(
    "ident", sorted(i for i, e in report._IDENTITIES.items() if not e.delta))
@_examples(4)
@given(seeds=_SEEDS, k=_K)
def test_every_evaluator_on_a_batch_equals_it_on_each_trial(ident, seeds, k):
    """run_trials on a batch gives, trial by trial, the reports run_identity
    gives on each trial's own tensor: residuals, verdicts and witnesses."""
    batch, trials = _models(report._IDENTITIES[ident].dims[0], seeds, k)
    assert batch.tensor.split() == [R.tensor for R in trials]
    assert [list(reps) for reps in report.run_trials(ident, batch)] == [
        report.run_identity(ident, R) for R in trials]


@_examples(4)
@given(seeds=_SEEDS, k=_K, dim=st.sampled_from([5, 6]))
def test_weyl_expansion_and_euler_integrand_on_a_batch(seeds, k, dim):
    batch, trials = _models(dim, seeds, k)
    residuals = weyl_expansion_residual(batch).residual.split()
    assert residuals == [weyl_expansion_residual(R).residual for R in trials]
    if dim == 6:
        integrand = gauss_bonnet_integrand_6(batch)
        assert _trials(integrand) == [gauss_bonnet_integrand_6(R) for R in trials]


def test_delta_ids_run_the_engine_per_trial():
    batch, trials = _models(4, [3, 4], None)
    for ident in ("patterson", "weyl-patterson"):
        assert [list(reps) for reps in report.run_trials(ident, batch, 2, "free")] == [
            report.run_identity(ident, R, 2, "free") for R in trials]
