"""Batched evaluation against per-trial evaluation.

A batched Tensor stacks trials along a leading axis, a batched rank-0
Tensor holds one value per trial (a coefficient such as tau), and
``lincomb``, the delta engine, every evaluator and ``random_curvature``
run once on a whole batch.  Each test compares a batched result, split
into its trials, with the same computation run on each trial alone, by
Tensor equality: the split tensors must be the canonical ones too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvident import delta as delta_mod, identities, report
from curvident.delta import DeltaBinding, generalized_delta_contract, reference_delta_contract
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


_G = Tensor.identity(DIM)
# (subscripts, operand ranks) of einsum terms of two or more operands
_FACTOR_SHAPES = tuple((s, r) for s, r in _TEMPLATES if s is not None and len(r) > 1)


def _operand(draw, rng, rank, batch):
    """A drawn operand of ``rank``: small, sqrt(3)-valued, past 2**62, zero,
    the shared g, c * I (c past 2**62 too) or, in a batch, one per trial."""
    kinds = ["int", "sqrt3", "big", "zero"] + ["g", "identity", "big identity"] * (rank == 2)
    kind = draw(st.sampled_from(kinds + ["trials"] * bool(batch)))
    if kind == "g":
        return _G
    if kind == "big identity":
        return _G.scale(draw(st.sampled_from([LIMIT + 1, Fraction(-LIMIT, 3)])))
    if kind == "zero":
        return Tensor.zeros(DIM, rank)
    if kind == "big":
        shape = (DIM,) * rank
        rat = np.asarray(rng.integers(-5, 6, shape), object) * (LIMIT // 2 + 1)
        return Tensor(DIM, rat, rng.integers(-1, 2, shape), int(rng.integers(1, 4)))
    if kind == "trials":
        kinds = ["int", "sqrt3"] + ["identity"] * (rank == 2)
        return _stack([_tensor(rng, rank, draw(st.sampled_from(kinds))) for _ in range(batch)])
    return _tensor(rng, rank, kind)


@st.composite
def _factorable_terms(draw):
    """Einsum terms, 2-5 per shared subscripts: the first term's operands,
    then terms that repeat it or differ from it in the operand at a drawn
    position.  Each such block may be followed by its sign-flipped repeat:
    the block with every coefficient times one drawn sign and the operand
    at one drawn position replaced in every term, so the repeat's kernels
    are the block's up to that sign.  Coefficients are ints (some past
    2**62), Fractions, Scalars and, in a batch, per-trial values."""
    batch = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = [
        st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5), _SCALARS,
        st.integers(LIMIT, 2 * LIMIT).map(lambda n: -n if n % 2 else n),
    ]
    if batch:
        coeffs.append(st.lists(_SCALARS, min_size=batch, max_size=batch).map(_per_trial))
    coeff = st.one_of(*coeffs)
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        subscripts, ranks = draw(st.sampled_from(_FACTOR_SHAPES))
        first = [_operand(draw, rng, rank, batch) for rank in ranks]
        block = [(draw(coeff), subscripts, *first)]
        for _ in range(draw(st.integers(1, 4))):
            ops = list(first)
            p = draw(st.integers(0, len(ops) - 1))
            if draw(st.booleans()):
                ops[p] = _operand(draw, rng, ranks[p], batch)
            block.append((draw(coeff), subscripts, *ops))
        terms += block
        if draw(st.booleans()):
            q = draw(st.integers(0, len(ranks) - 1))
            other = _operand(draw, rng, ranks[q], batch)
            sign = draw(st.sampled_from([1, -1]))
            terms += [(sign * c, s, *ops[:q], other, *ops[q + 1 :]) for c, s, *ops in block]
    return terms


@_examples(60)
@given(_factorable_terms())
def test_factored_terms_equal_the_sum_of_the_terms(terms):
    """Terms that share their subscripts and all operands but one become
    one einsum on the lincomb of the differing operands; the result equals,
    storage and dtype included, the sum of the terms each evaluated alone
    and added as plain Tensors, which are never factored."""
    assert len(tensor_mod._merge_like_terms(terms)) < len(terms)
    result = lincomb(terms)
    expected = lincomb([(1, lincomb([term])) for term in terms])
    assert result == expected
    assert (result.batch, result._rat.dtype, result._irr.dtype) == (
        expected.batch, expected._rat.dtype, expected._irr.dtype)


def test_a_kernel_repeated_up_to_sign_is_built_once():
    """Two factored groups whose (operand, coefficient) lists agree up to
    one overall sign share one kernel, the sign moved into the second
    term's coefficient, and the sum is unchanged."""
    rng = np.random.default_rng(7)
    a, b, c, d = (_tensor(rng, 2, "sqrt3") for _ in range(4))
    terms = [
        (2, "ij,kl->ijkl", a, c), (Fraction(-1, 3), "ij,kl->ijkl", a, d),
        (-2, "il,jk->ijkl", b, c), (Scalar(Fraction(1, 3)), "il,jk->ijkl", b, d),
    ]
    first, second = tensor_mod._merge_like_terms(terms)
    assert first[5] is second[5] and first[5] is not c
    assert first[:3] == (1, 0, 1) and second[:3] == (-1, 0, 1)
    assert lincomb(terms) == lincomb([(1, lincomb([term])) for term in terms])


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


@pytest.mark.parametrize("ident", sorted(report._IDENTITIES))
@_examples(4)
@given(seeds=_SEEDS, k=_K)
def test_every_evaluator_on_a_batch_equals_it_on_each_trial(ident, seeds, k):
    """run_trials on a batch gives, trial by trial, the reports run_identity
    gives on each trial's own tensor: residuals, verdicts and witnesses.
    A delta id runs in dim 4, the least that ``einsteinize`` takes."""
    batch, trials = _models(max(report._IDENTITIES[ident].dims[0], 4), seeds, k)
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


def test_delta_ids_run_the_engine_once_per_batch(monkeypatch):
    """A delta id at one r and mode contracts the whole batch in one engine
    call, and its split residuals are each trial's own."""
    real, calls = identities.generalized_delta_contract, []
    monkeypatch.setattr(identities, "generalized_delta_contract",
                        lambda *a: calls.append(a[2][0].batch) or real(*a))
    batch, trials = _models(4, [3, 4], None)
    for ident in ("patterson", "weyl-patterson"):
        calls.clear()
        got = [list(reps) for reps in report.run_trials(ident, batch, 2, "free")]
        assert calls == [2]
        assert got == [report.run_identity(ident, R, 2, "free") for R in trials]


# -- the delta engine on a batch, against each trial's call and the oracle ----


def _delta_operand(rng, dim, kind):
    """A rank-4 operand of one trial: a curvature tensor (a + b*sqrt 3 with
    a and b curvature tensors, so it has every slot symmetry of R), one
    antisymmetric in its first slot pair only, or a generic one."""
    if kind == "curvature":
        a, b = (random_curvature(dim, int(rng.integers(2 ** 32)), 2).tensor for _ in range(2))
        return lincomb([(1, a), (Scalar(0, 1), b)])
    shape = (dim,) * 4
    rat, irr = rng.integers(-3, 4, shape), rng.integers(-2, 3, shape)
    if kind == "pair":
        rat, irr = (p - p.transpose(1, 0, 2, 3) for p in (rat, irr))
    return Tensor(dim, rat, irr, int(rng.integers(1, 4)))


@st.composite
def _delta_cases(draw):
    """(N, dim, operands, binding, B): the order-N delta, N = dim (a non-zero
    result) or dim + 1 (zero), against r rank-4 operands bound pairwise to
    its first 2r slots, its other slots free or traced.  At least one
    operand is batched, over B = 1..3 trials of drawn kinds (so a symmetry
    may hold in some trials only); each further operand repeats the one
    before it (the same object) or is drawn afresh, batched or not."""
    dim = draw(st.integers(2, 6))
    n = draw(st.sampled_from([dim, dim + 1]))
    mode = draw(st.sampled_from(["free", "traced"]))
    r = draw(st.integers(1, n // 2))
    free = 0 if mode == "traced" else 2 * (n - 2 * r)
    # a free result of at most 4**8 entries per trial
    assume(dim ** free <= 4 ** 8)
    batch = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = st.sampled_from(["curvature", "pair", "generic"])
    operands = []
    for k in range(r):
        how = draw(st.sampled_from(["batched", "unbatched", "repeat"])) if k else "batched"
        if how == "repeat":
            operands.append(operands[-1])
        elif how == "batched":
            operands.append(_stack([_delta_operand(rng, dim, draw(kinds)) for _ in range(batch)]))
        else:
            operands.append(_delta_operand(rng, dim, draw(kinds)))
    lower = {s: (k, s - 2 * k) for k in range(r) for s in (2 * k, 2 * k + 1)}
    upper = {s: (k, s - 2 * k + 2) for k in range(r) for s in (2 * k, 2 * k + 1)}
    traced = range(2 * r, n) if mode == "traced" else ()
    return n, dim, operands, DeltaBinding.make(n, lower, upper, traced=traced), batch


@_examples(20)
@given(_delta_cases())
def test_delta_engine_on_a_batch_equals_it_on_each_trial(case):
    """Each trial of a batched delta contraction equals the engine's call on
    that trial's operands (an identical operand stays one object) and, at
    dim <= 4, the oracle's."""
    n, dim, operands, binding, batch = case
    result = generalized_delta_contract(n, dim, operands, binding)
    assert result.batch == batch
    split = {id(t): t.split() for t in operands if t.batch}
    for b, trial in enumerate(result.split()):
        ops = [split[id(t)][b] if t.batch else t for t in operands]
        assert trial == generalized_delta_contract(n, dim, ops, binding)
        if dim <= 4:
            assert trial == reference_delta_contract(n, dim, ops, binding)


def test_a_batch_with_an_all_zero_trial_still_contracts(monkeypatch):
    """Only an operand that is zero in every trial skips the contraction.
    A batch of an all-zero and a non-zero trial is contracted, and each of
    its trials equals the engine's call on that trial alone and the
    oracle's."""
    dim = 4
    R = _delta_operand(np.random.default_rng(53), dim, "curvature")
    operand = _stack([Tensor.zeros(dim, 4), R])
    binding = DeltaBinding.make(4, {0: (0, 0), 1: (0, 1)}, {0: (0, 2), 1: (0, 3)})
    monkeypatch.setattr(delta_mod, "_PLAN_CACHE", {})
    result = generalized_delta_contract(4, dim, [operand], binding)
    assert delta_mod._PLAN_CACHE
    assert [t.is_zero() for t in result.split()] == [True, False]
    for trial, t in zip(result.split(), operand.split()):
        assert trial == generalized_delta_contract(4, dim, [t], binding)
        assert trial == reference_delta_contract(4, dim, [t], binding)


# -- delta plans streamed over their leading letter, on non-zero results -------


def _streamed_operand(rng, rank, kind, sqrt3):
    """A dim-6 operand of one trial: a curvature tensor (rank 4), a
    symmetric or antisymmetric one (rank 2) or a generic one, rational or
    with a sqrt(3) part of the same kind."""
    def part():
        if kind == "curvature":
            return random_curvature(6, int(rng.integers(2 ** 32)), 2).tensor._rat
        x = rng.integers(-3, 4, (6,) * rank)
        return {"symmetric": x + x.T, "antisymmetric": x - x.T}.get(kind, x)

    irr = part() if sqrt3 else np.zeros((6,) * rank, np.int64)
    return Tensor(6, part(), irr, int(rng.integers(1, 4)))


@st.composite
def _streamed_delta_cases(draw):
    """(operands, binding, B, stream, spots): the order-6 delta in dim 6
    against a rank-4 operand bound to its slots 0 and 1 and a rank-2
    operand bound to its slot 2, in either operand order, slots 3..5 free:
    a non-zero rank-6 result, and the plan that carries all six operand
    slots out has a rank-6 einsum result.  Each operand is
    rational or sqrt(3)-valued, over B = 1..3 trials or unbatched (at least
    one batched).  ``stream`` is the rank from which plans stream: 6, as
    the engine has it, or 4, which streams the plans that trace the rank-2
    operand, whose records have diagonal pairs.  ``spots`` are output
    tuples for the oracle, one with distinct indices."""
    batch = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    flags = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    operands = []
    for rank, kinds, batched in zip((4, 2), (["curvature", "generic"],
                                             ["symmetric", "antisymmetric", "generic"]), flags):
        kind, sqrt3 = draw(st.sampled_from(kinds)), draw(st.booleans())
        trials = [_streamed_operand(rng, rank, kind, sqrt3) for _ in range(batch if batched else 1)]
        operands.append(_stack(trials) if batched else trials[0])
    r, s = (0, 1) if draw(st.booleans()) else (1, 0)
    if r:
        operands.reverse()
    binding = DeltaBinding.make(6, {0: (r, 0), 1: (r, 1), 2: (s, 0)}, {0: (r, 2), 1: (r, 3), 2: (s, 1)})
    index = st.integers(0, 5)
    spots = draw(st.lists(st.tuples(*[index] * 6), min_size=2, max_size=2))
    spots.append(tuple(draw(st.permutations(range(6)))))
    return operands, binding, batch, draw(st.sampled_from([6, 4])), spots


@_examples(6)
@given(_streamed_delta_cases())
def test_streamed_delta_plans_equal_whole_ones_and_the_oracle(case):
    """Plans evaluated one index of their leading letter at a time give the
    result that the same plans evaluated whole give, to the canonical
    numerators of the batch, and each trial's spot components are the
    oracle's.  The call streams some plan, and with streaming from rank 4
    some streamed plan has a record with diagonal pairs."""
    operands, binding, batch, stream, spots = case
    results = []
    with pytest.MonkeyPatch.context() as mp:
        for rank in (stream, 9):
            mp.setattr(delta_mod, "_STREAM_RANK", rank)
            mp.setattr(delta_mod, "_PLAN_CACHE", {})
            results.append(generalized_delta_contract(6, 6, operands, binding))
            (plans,) = delta_mod._PLAN_CACHE.values()
            streamed = [p for p in plans if p.lead]
            assert bool(streamed) == (rank == stream)
            if rank == 4:
                assert any(diagonals for p in streamed for _, diagonals, _ in p.specs)
    result, whole = results
    assert result.batch == batch and not result.is_zero()
    assert result == whole
    for b, trial in enumerate(result.split()):
        ops = [t.split()[b] if t.batch else t for t in operands]
        oracle = reference_delta_contract(6, 6, ops, binding, out_indices=spots)
        assert [trial[idx] for idx in spots] == [oracle[idx] for idx in spots]


# -- rank-6 results, streamed over their leading index, against a reference ----


class _Q3:
    """a + b*sqrt(3) with integer a and b: the reference's own arithmetic,
    for object-dtype ``np.einsum`` (which starts its sums from int 0)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        if isinstance(other, int):
            return _Q3(self.a + other, self.b)
        return _Q3(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return _Q3(self.a * other, self.b * other)
        return _Q3(self.a * other.a + 3 * self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__


# (subscripts, operand ranks), every output "abcdef"; the first letter, a,
# is the one lincomb streams over.  Rank-2 tokens may hold c * I: "ab",
# "ba" and "ae" hold a (it pins its partner), "cd" does not; the rank-4
# pairs contract a letter x, like the A rows of the rank-6 identities, and
# are read at a = v in one operand or the other
_RANK6 = (
    (None, (6,)),
    ("abcdef->abcdef", (6,)),
    ("bacdfe->abcdef", (6,)),
    ("ab,cdef->abcdef", (2, 4)),
    ("ba,cdef->abcdef", (2, 4)),
    ("ae,bcdf->abcdef", (2, 4)),
    ("cd,abef->abcdef", (2, 4)),
    ("ab,cd,ef->abcdef", (2, 2, 2)),
    ("ae,cd,bf->abcdef", (2, 2, 2)),
    ("xabc,xdef->abcdef", (4, 4)),
    ("xacb,xdef->abcdef", (4, 4)),
    ("xdbc,xaef->abcdef", (4, 4)),
    ("xfeb,xadc->abcdef", (4, 4)),
)
# the same einsums over the same operands, with every letter renamed: not
# merged with the originals, so a sum with them cancels only in pass 2
_RENAMED = str.maketrans("abcdefx", "ABCDEFX")


def _reference(terms, dim, batch):
    """Each trial's value of sum_k c_k * T_k, as (numerators (a, b) by
    index, denominator): object einsums over ``_Q3`` of each operand's
    stored numerators, one trial at a time."""
    trials = []
    for b in range(max(batch, 1)):
        total, den = None, 1
        for coeff, *spec in terms:
            subscripts, ops = (None, spec) if len(spec) == 1 else (spec[0], spec[1:])
            ops = [t.split()[b] if t.batch else t for t in ops]
            values = []
            for t in ops:
                arr = np.empty(t._rat.shape, object)
                for idx in np.ndindex(*t._rat.shape):
                    arr[idx] = _Q3(int(t._rat[idx]), int(t._irr[idx]))
                values.append(arr)
            value = values[0] if subscripts is None else np.einsum(subscripts, *values)
            c = coeff.split()[b].to_scalar() if isinstance(coeff, Tensor) else coeff
            c = c if isinstance(c, Scalar) else Scalar(c)
            q = math.lcm(c.rat.denominator, c.irr.denominator)
            term_den = q * math.prod(t._den for t in ops)
            scaled = value * _Q3(int(c.rat * q), int(c.irr * q))
            lcm = math.lcm(den, term_den)
            total = scaled * (lcm // term_den) if total is None else (
                total * (lcm // den) + scaled * (lcm // term_den))
            den = lcm
        trials.append((total, den))
    return trials


def _witness_of(values, den):
    """The first index (1-based, C order) of the largest |value| and that
    value, or None for all zero."""
    best = None
    for idx in np.ndindex(*values.shape):
        v = Scalar(Fraction(values[idx].a, den), Fraction(values[idx].b, den))
        if v != 0 and (best is None or abs(v) > abs(best[1])):
            best = tuple(i + 1 for i in idx), v
    return best


@st.composite
def _rank6_terms(draw):
    """(dim, batch, terms) with rank-6 results in dim 2 or 3: terms from
    ``_RANK6``, in some of which two rank-4 operands repeat across the
    templates (their contractions share a core); some einsum terms come
    with terms that differ from them in one operand, and then with a
    sign-flipped repeat (kernels equal up to sign); some sums come with the
    negation of every term, renamed (they cancel)."""
    dim = draw(st.sampled_from([2, 2, 3]))
    batch = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = Tensor.identity(dim)

    def tensor(kind, rank):
        shape = (dim,) * rank
        if kind == "g":
            return g
        if kind == "identity":
            return g.scale(draw(st.sampled_from([2, -3, Fraction(5, 2), LIMIT + 1])))
        if kind == "trials":
            parts = [rng.integers(-4, 5, shape) for _ in range(batch)]
            return Tensor(dim, np.stack(parts), np.zeros((batch,) + shape, np.int64), 2, batched=True)
        if kind == "trial identities":
            eye = np.eye(dim, dtype=np.int64)
            return Tensor(dim, np.stack([(k + 1) * eye for k in range(batch)]),
                          np.zeros((batch, dim, dim), np.int64), batched=True)
        rat = rng.integers(-4, 5, shape)
        irr = rng.integers(-2, 3, shape) if kind == "sqrt3" else np.zeros(shape, np.int64)
        if kind == "big":
            rat = np.asarray(rat, object) * (LIMIT // 4 + 1)
        return Tensor(dim, rat, irr, int(rng.integers(1, 4)))

    def operand(rank):
        kinds = ["int", "sqrt3", "big"] + ["trials"] * bool(batch)
        if rank == 2:
            kinds += ["g", "identity"] + ["trial identities"] * bool(batch)
        return tensor(draw(st.sampled_from(kinds)), rank)

    coeffs = [st.integers(-4, 4).filter(bool), st.fractions(-3, 3, max_denominator=5).filter(bool),
              _SCALARS.filter(lambda s: s != 0), st.integers(LIMIT, 2 * LIMIT)]
    if batch:
        coeffs.append(st.lists(_SCALARS, min_size=batch, max_size=batch).map(_per_trial))
    coeff = st.one_of(*coeffs)
    terms = []
    shared = [operand(4), operand(4)]
    for _ in range(draw(st.integers(1, 4))):
        subscripts, ranks = draw(st.sampled_from(_RANK6))
        if ranks == (4, 4) and draw(st.booleans()):
            ops = list(shared)
        else:
            ops = [operand(rank) for rank in ranks]
        head = () if subscripts is None else (subscripts,)
        block = [(draw(coeff), *head, *ops)]
        if len(ops) > 1 and draw(st.booleans()):
            p = draw(st.integers(0, len(ops) - 1))
            for _ in range(draw(st.integers(1, 2))):
                block.append((draw(coeff), subscripts, *ops[:p], operand(ranks[p]), *ops[p + 1:]))
            if draw(st.booleans()):
                sign = draw(st.sampled_from([1, -1]))
                q = (p + 1) % len(ops)
                other = operand(ranks[q])
                block += [(sign * c, s, *o[:q], other, *o[q + 1:]) for c, s, *o in block]
        terms += block
    if draw(st.booleans()):
        terms += [(-c, "abcdef->abcdef".translate(_RENAMED), *spec) if len(spec) == 1 else
                  (-c, spec[0].translate(_RENAMED), *spec[1:]) for c, *spec in terms]
    return dim, batch, terms


@_examples(30)
@given(_rank6_terms())
def test_streamed_rank6_lincomb_equals_a_reference(case):
    """A rank-6 lincomb, evaluated one index of its leading letter at a
    time, holds exactly the reference's values: the canonical numerators,
    dtype, zero parts and denominator of the whole batch, and each trial's
    witness."""
    from curvident.identities import _witness

    dim, batch, terms = case
    batch = max([t.batch for _, *spec in terms for t in spec if isinstance(t, Tensor)]
                + [c.batch for c, *_ in terms if isinstance(c, Tensor)])
    result = lincomb(terms)
    reference = _reference(terms, dim, batch)
    den = math.lcm(*(d for _, d in reference))
    rat, irr = ([[getattr(x, side) * (den // d) for x in values.flat] for values, d in reference]
                for side in ("a", "b"))
    g = math.gcd(den, *(x for trial in rat + irr for x in trial))
    den //= g
    shape = (batch,) * bool(batch) + (dim,) * 6
    rat, irr = ([x // g for trial in numerators for x in trial] for numerators in (rat, irr))
    # both parts are Python ints exactly when some numerator reaches 2**62
    dtype = object if max(map(abs, rat + irr)) >= LIMIT else np.int64
    for part, flat in ((result._rat, rat), (result._irr, irr)):
        if not any(flat):
            assert tensor_mod._is_zero_part(part) and part.shape == shape
        else:
            assert part.dtype == dtype
            assert np.array_equal(part, np.array(flat, dtype).reshape(shape))
    assert result._den == den
    trials = result.split() if batch else [result]
    for trial, (values, d) in zip(trials, reference):
        expected = _witness_of(values, d)
        assert (None if trial.is_zero() else _witness(trial)) == expected
