"""Tensor arithmetic against an entrywise Scalar reference.

Every operation's result must carry exactly the canonical storage the
reference values imply (denominator, magnitude bound, int64/object dtype),
hash and compare like a tensor built from explicit arrays, and list the
same entries.  The inputs cover rational and sqrt(3)-valued components,
denominators 1 and > 1, magnitudes at the int64/object boundary and
rank 0.  ``lincomb`` is checked against the same reference and against
the pairwise fold of ``+`` and ``scale``; its handling of identity
multiples against an object-dtype numpy einsum of the materialized
Scalars, and its merging of like terms against the unmerged fold.
"""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvident.tensor as tensor_mod
from curvident.delta import DeltaBinding, generalized_delta_contract
from curvident.scalar import Scalar
from curvident.tensor import (
    ContractionSpecError,
    ShapeError,
    Tensor,
    _is_zero_part,
    ein,
    lincomb,
)

DIM = 3
LIMIT = 2 ** 62

KINDS = ("int", "frac", "sqrt3", "big", "bigfrac", "bigsqrt3")
# (kind, kind) pairs for the binary operations: every kind meets itself and
# a rational small kind, and the two sides of the boundary meet
PAIRS = [(k, k) for k in KINDS] + [(k, "frac") for k in KINDS if k != "frac"] + [
    ("big", "bigfrac"),
    ("sqrt3", "big"),
]
SCALES = [
    Scalar(3),
    Scalar(Fraction(-2, 3)),
    Scalar(0, 1),
    Scalar(Fraction(1, 2), Fraction(-1, 3)),
    Scalar(0),
]


def _value(rng, kind):
    small = rng.randint(-9, 9)
    if kind == "int":
        return Scalar(small)
    if kind == "frac":
        return Scalar(Fraction(small, rng.choice([1, 2, 3, 4, 6])))
    if kind == "sqrt3":
        return Scalar(Fraction(small, rng.choice([1, 2])), Fraction(rng.randint(-5, 5), 3))
    sign = rng.choice([-1, 1])
    if kind == "big":  # just below the int64 bound: sums cross it
        return Scalar(sign * (LIMIT - rng.randint(1, 9)))
    if kind == "bigfrac":  # numerators above the bound, denominator 3
        return Scalar(Fraction(sign * (LIMIT + 3 * rng.randint(0, 9) + 1), 3))
    return Scalar(small, sign * (LIMIT + rng.randint(0, 9)))  # "bigsqrt3"


def _ref(kind, rank, seed):
    """A dense {index: Scalar} reference; a few entries stay zero."""
    rng = random.Random(f"{kind}-{rank}-{seed}")
    return {
        idx: Scalar(0) if rng.random() < 0.2 else _value(rng, kind)
        for idx in product(range(DIM), repeat=rank)
    }


def _build(ref, rank):
    return Tensor.from_components(DIM, rank, ref)


def _storage(a) -> int:
    """Elements of memory behind array ``a`` (a view counts its base)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.size


def _check(t, ref, rank):
    """``t`` holds exactly the reference values in canonical storage."""
    assert t.dim == DIM and t.rank == rank
    den = 1
    for v in ref.values():
        for q in (v.rat.denominator, v.irr.denominator):
            den = den * q // math.gcd(den, q)
    rat = [int(v.rat * den) for v in ref.values()]
    irr = [int(v.irr * den) for v in ref.values()]
    m = max(abs(x) for x in rat + irr)
    dtype = object if m >= LIMIT else np.int64
    shape = (DIM,) * rank
    irr_arr = np.array(irr, dtype).reshape(shape) if any(irr) else np.zeros(shape, dtype)
    explicit = Tensor(DIM, np.array(rat, dtype).reshape(shape), irr_arr, den)

    assert t._den == den and t._max == m
    assert (t._rat.dtype == object) == (m >= LIMIT)
    assert t == explicit and explicit == t
    assert hash(t) == hash(explicit)
    assert t.is_zero() == (m == 0)
    assert t.to_entries() == [
        {"idx": [i + 1 for i in idx], "val": v.format()}
        for idx, v in sorted(ref.items())
        if not v.is_zero()
    ]


def _ref_ein(subscripts, *refs):
    lhs, out = subscripts.split("->")
    tokens = lhs.split(",")
    letters = sorted(set(lhs) - {","})
    res = {idx: Scalar(0) for idx in product(range(DIM), repeat=len(out))}
    for vals in product(range(DIM), repeat=len(letters)):
        env = dict(zip(letters, vals))
        p = Scalar(1)
        for tok, r in zip(tokens, refs):
            p = p * r[tuple(env[c] for c in tok)]
        key = tuple(env[c] for c in out)
        res[key] = res[key] + p
    return res


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_from_components_and_unary_ops(kind, rank):
    ref = _ref(kind, rank, 0)
    t = _build(ref, rank)
    _check(t, ref, rank)
    _check(-t, {i: -v for i, v in ref.items()}, rank)
    for s in SCALES:
        _check(t.scale(s), {i: v * s for i, v in ref.items()}, rank)
    axes = tuple(reversed(range(rank)))
    _check(
        t.transpose(axes),
        {i: ref[tuple(i[axes.index(k)] for k in range(rank))] for i in ref},
        rank,
    )


@pytest.mark.parametrize("rank", [0, 2])
@pytest.mark.parametrize("ka,kb", PAIRS)
def test_add_and_sub(ka, kb, rank):
    ra, rb = _ref(ka, rank, 1), _ref(kb, rank, 2)
    a, b = _build(ra, rank), _build(rb, rank)
    _check(a + b, {i: ra[i] + rb[i] for i in ra}, rank)
    _check(a - b, {i: ra[i] - rb[i] for i in ra}, rank)
    _check(a - a, {i: Scalar(0) for i in ra}, rank)


@pytest.mark.parametrize(
    "subscripts",
    [
        "ab,bc->ac", "ab,ba->", "a,b->ab", "aa->", "ab,->ba", "ab,bc,c->a",
        # four to six operands: up to 2**6 terms of the expanded product
        "ab,bc,cd,da->", "a,ab,bc,c,cd->d", "ab,bc,ca,a,b,c->",
    ],
)
@pytest.mark.parametrize(
    "ka,kb",
    [("int", "frac"), ("frac", "sqrt3"), ("bigfrac", "big"), ("bigsqrt3", "int"), ("sqrt3", "bigsqrt3")],
)
def test_ein(ka, kb, subscripts):
    tokens = subscripts.split("->")[0].split(",")
    refs = [_ref((ka, kb)[i % 2], len(tok), 3 + i) for i, tok in enumerate(tokens)]
    t = ein(subscripts, *[_build(r, len(tok)) for r, tok in zip(refs, tokens)])
    _check(t, _ref_ein(subscripts, *refs), len(subscripts.split("->")[1]))


def _delta_result(R):
    b = DeltaBinding.make(2, {1: (0, 0)}, {1: (0, 1)}, out=[("U", 0), ("L", 0)])
    return generalized_delta_contract(2, DIM, [R], b)


_RATIONAL_RESULTS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "scale": lambda a, b: a.scale(Fraction(-2, 3)),
    "transpose": lambda a, b: a.transpose((1, 0)),
    "from_components": lambda a, b: Tensor.from_components(DIM, 2, {(0, 1): 5}),
    "zeros": lambda a, b: Tensor.zeros(DIM, 2),
    "identity": lambda a, b: Tensor.identity(DIM),
    "ein": lambda a, b: ein("ab,bc->ac", a, b),
    "delta": lambda a, b: _delta_result(a),
}


@pytest.mark.parametrize("op", sorted(_RATIONAL_RESULTS))
def test_rational_result_stores_one_sqrt3_element(op):
    a = _build(_ref("frac", 2, 4), 2)
    b = _build(_ref("int", 2, 5), 2)
    t = _RATIONAL_RESULTS[op](a, b)
    assert not t._irr.any()
    assert _storage(t._irr) <= 1


def test_is_zero_on_python_ints():
    big = Tensor.from_components(DIM, 2, {(1, 2): 2 ** 70, (2, 1): Scalar(0, 2 ** 70)})
    assert big._rat.dtype == object and not big.is_zero()
    assert not (big - Tensor.from_components(DIM, 2, {(1, 2): 2 ** 70})).is_zero()
    assert (big - big).is_zero()
    assert Tensor(DIM, np.zeros((DIM,), object), np.zeros((DIM,), object)).is_zero()


# ---------------------------------------------------------------------------
# lincomb
# ---------------------------------------------------------------------------

# rank-2 operands of every kind: small and at the boundary, rational and
# sqrt(3)-valued, denominators 1 and > 1
_OPERANDS = {kind: _ref(kind, 2, 7) for kind in KINDS}
# einsum terms (subscripts, operand kinds) beside plain Tensor terms
_EINSUMS = [
    ("ab,bc->ac", ("int", "frac")),
    ("ba->ab", ("sqrt3",)),
    ("ab,bc->ac", ("frac", "sqrt3")),
    ("ac,cb->ab", ("bigfrac", "int")),
    ("aa,bc->bc", ("sqrt3", "sqrt3")),
]
_SHAPES = [("tensor", kind) for kind in KINDS] + [("ein", i) for i in range(len(_EINSUMS))]

_COEFFS = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(
        lambda a, b, q: Scalar(Fraction(a, q), Fraction(b, q)),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(1, 6),
    ),
)


def _term(coeff, shape):
    """The lincomb term, the Tensor it stands for and its reference."""
    how, which = shape
    if how == "tensor":
        ref = _OPERANDS[which]
        t = _build(ref, 2)
        return (coeff, t), t, ref
    subscripts, kinds = _EINSUMS[which]
    refs = [_OPERANDS[k] for k in kinds]
    ops = [_build(r, 2) for r in refs]
    return (coeff, subscripts, *ops), ein(subscripts, *ops), _ref_ein(subscripts, *refs)


def _scalar(c):
    return c if isinstance(c, Scalar) else Scalar(c)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_COEFFS, st.sampled_from(_SHAPES)), min_size=1, max_size=6))
def test_lincomb_equals_pairwise_fold(spec):
    terms, fold, ref = [], None, {i: Scalar(0) for i in product(range(DIM), repeat=2)}
    for coeff, shape in spec:
        term, t, r = _term(coeff, shape)
        terms.append(term)
        fold = t.scale(coeff) if fold is None else fold + t.scale(coeff)
        ref = {i: ref[i] + _scalar(coeff) * r[i] for i in ref}
    out = lincomb(terms)
    _check(out, ref, 2)
    assert out == fold and hash(out) == hash(fold)


@pytest.mark.parametrize("bound,dtype", [(LIMIT - 1, np.int64), (LIMIT, object)])
def test_lincomb_int64_bound_edge(monkeypatch, bound, dtype):
    """A Tensor term with largest numerator 2**61 and an einsum term whose
    bound is ``bound`` - 2**61: the combination's bound is ``bound``, so it
    runs on int64 just below 2**62 and on Python ints at it.  Entry (0, 0)
    reaches the bound itself; exact either way."""
    a = Tensor(DIM, np.diag([2 ** 61, -7, 3]), np.zeros((DIM, DIM), int))
    m = bound - 2 ** 61
    b = Tensor(DIM, np.array([[m, -m, 1], [0, 5, m - 9], [2, 0, 0]]), np.zeros((DIM, DIM), int))
    dtypes = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod, "_einsum_exact", lambda s, ops: dtypes.append({op.dtype for op in ops}) or real(s, ops)
    )
    out = lincomb([(1, a), (1, "ab->ab", b)])
    assert dtypes == [{np.dtype(dtype)}]
    assert out.item(0, 0) == Scalar(bound)
    assert out._rat.dtype == dtype
    for i, j in product(range(DIM), repeat=2):
        assert out.item(i, j) == a.item(i, j) + b.item(i, j)


def test_lincomb_full_cancellation_is_the_canonical_zero():
    a = _build(_OPERANDS["sqrt3"], 2)
    assert a._den > 1 and not _is_zero_part(a._irr)
    out = lincomb([(Fraction(2, 3), a), (Scalar(0, 1), "ab->ab", a), (Scalar(Fraction(-2, 3), -1), a)])
    assert out.is_zero() and out._den == 1
    assert _is_zero_part(out._irr) and _storage(out._irr) <= 1
    assert out == Tensor.zeros(DIM, 2) and hash(out) == hash(Tensor.zeros(DIM, 2))


def test_lincomb_skips_zero_coefficients(monkeypatch):
    """A zero coefficient leaves its term unevaluated and out of the
    bound: Python-int operands under a zero coefficient keep the one
    evaluated einsum on int64."""
    huge = _build(_OPERANDS["bigsqrt3"], 2)
    a = _build(_OPERANDS["frac"], 2)
    dtypes = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod, "_einsum_exact", lambda s, ops: dtypes.append({op.dtype for op in ops}) or real(s, ops)
    )
    out = lincomb([
        (0, "ab,bc->ac", huge, huge),
        (Fraction(0), huge),
        (Scalar(0), "ba->ab", huge),
        (2, "ab->ab", a),
    ])
    assert dtypes == [{np.dtype(np.int64)}]
    assert out == a.scale(2)


def test_lincomb_shape_and_spec_errors():
    a, v = Tensor.identity(DIM), Tensor.zeros(DIM, 1)
    b = Tensor.identity(DIM + 1)
    for terms in (
        [(1, a), (1, v)],  # rank
        [(1, a), (1, b)],  # dim
        [(1, a), (1, "ab,b->a", a, v)],  # an einsum term's rank
        [(1, "ab,bc->ac", a, b)],  # operands of different dims, as in ein
        [],
    ):
        with pytest.raises(ShapeError):
            lincomb(terms)
    for bad in (("ab,bc", a, a), ("ab->ab", a, a), ("abc->ab", a), ("ab->aa", a), ("ab->ac", a)):
        with pytest.raises(ContractionSpecError):
            ein(*bad)
        with pytest.raises(ContractionSpecError):
            lincomb([(1, a), (1, *bad)])


# ---------------------------------------------------------------------------
# multiples of the identity leave the einsum
# ---------------------------------------------------------------------------

# (subscripts, operands): "I" is the identity, "cI" a drawn multiple c * I,
# "2" and "4" a drawn rank-2 or rank-4 operand; every "I"/"cI" token is two
# output letters no other token uses, so each such operand leaves the einsum
_DELTA_CASES = {
    2: [
        ("ab->ab", ("I",)),
        ("ba->ab", ("cI",)),
        ("ab,cd,cd->ab", ("cI", "2", "2")),  # the rest contracts to rank 0
        ("ac,bc->ab", ("2", "2")),  # no identity operand: beside the others
    ],
    4: [
        ("ac,bd->abcd", ("I", "cI")),
        ("ac,bd->abcd", ("2", "cI")),
        ("ab,bc,de->acde", ("2", "2", "I")),
        ("dbca->abcd", ("4",)),
    ],
    6: [
        ("ij,hk,lm->ihjklm", ("I", "I", "I")),  # a metric triple
        ("ij,hk,lm->ihjklm", ("2", "cI", "I")),  # a norm row
        ("ihjk,lm->ihjklm", ("4", "cI")),  # an F row
    ],
}
_MULTIPLES = [2, -3, Fraction(5, 7), Fraction(-1, 2), LIMIT + 1, -(2 ** 63), Fraction(LIMIT, 3)]
_CO_KINDS = ("int", "frac", "sqrt3", "bigfrac", "bigsqrt3")


def _materialized(t):
    """t's components as an object array of Scalars."""
    out = np.empty(t._rat.shape, object)
    for idx in product(range(t.dim), repeat=t.rank):
        out[idx] = t.item(idx)
    return out


@st.composite
def _delta_lincombs(draw):
    rank = draw(st.sampled_from(sorted(_DELTA_CASES)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        subscripts, kinds = draw(st.sampled_from(_DELTA_CASES[rank]))
        ops = []
        for kind in kinds:
            if kind == "I":
                ops.append(Tensor.identity(DIM))
            elif kind == "cI":
                c = draw(st.sampled_from(_MULTIPLES))
                ops.append(Tensor.identity(DIM).scale(c))
            else:
                seed = draw(st.integers(0, 3))
                ops.append(_build(_ref(draw(st.sampled_from(_CO_KINDS)), int(kind), seed), int(kind)))
        terms.append((draw(_COEFFS), subscripts, *ops))
    return rank, terms


@settings(max_examples=40, deadline=None)
@given(_delta_lincombs())
def test_identity_multiples_leave_the_einsum(case):
    """Terms with identity operands (the identity, c * I with c rational and
    not +-1, beside rational and sqrt(3)-valued operands, magnitudes on
    both sides of 2**62, all operands identities) equal an object-dtype
    numpy einsum of the materialized Scalars, and no einsum is evaluated
    with an identity operand in it."""
    rank, terms = case
    calls = []
    real = tensor_mod._einsum_exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops))
        out = lincomb(terms)
    ref = np.zeros((DIM,) * rank, object)
    for coeff, subscripts, *ops in terms:
        ref = ref + np.einsum(subscripts, *map(_materialized, ops)) * _scalar(coeff)
    _check(out, {idx: _scalar(ref[idx]) for idx in product(range(DIM), repeat=rank)}, rank)
    with_identity = {s for _, s, *ops in terms if any(op._delta_numerator() for op in ops)}
    assert not with_identity & set(calls)


_DENSE = {
    "non-constant diagonal": ("ab->ab", Tensor(DIM, np.diag([1, 2, 3]), np.zeros((DIM, DIM), int))),
    "off-diagonal entries": (
        "ab->ab",
        Tensor(DIM, np.eye(DIM, dtype=int) + np.eye(DIM, k=1, dtype=int), np.zeros((DIM, DIM), int)),
    ),
    "c * I with a sqrt(3) part": ("ab->ab", Tensor.identity(DIM).scale(Scalar(2, 1))),
    "ii token": ("aa,bc->bc", Tensor.identity(DIM)),
    "summed letter": ("ab,bc->ac", Tensor.identity(DIM)),
    "letter of another token": ("ab,bc->abc", Tensor.identity(DIM)),
}


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_non_identity_operands_stay_dense(monkeypatch, name):
    """Operands that are not c * I with c rational, and identities in
    tokens that do not qualify: the full einsum runs, and the value is
    exact."""
    subscripts, op = _DENSE[name]
    tokens = subscripts.split("->")[0].split(",")
    ops = [op] + [_build(_ref("sqrt3", len(tok), 9), len(tok)) for tok in tokens[1:]]
    calls = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops))
    out = lincomb([(Fraction(-3, 2), subscripts, *ops)])
    assert calls and set(calls) == {subscripts}
    ref = np.einsum(subscripts, *map(_materialized, ops)) * Scalar(Fraction(-3, 2))
    rank = len(subscripts.split("->")[1])
    _check(out, {idx: _scalar(ref[idx]) for idx in product(range(DIM), repeat=rank)}, rank)


def test_zero_matrix_is_not_an_identity_multiple(monkeypatch):
    """The zero matrix is no multiple of I: its term is skipped as any
    all-zero operand's is, unevaluated, and the sum stays exact."""
    zero = Tensor.zeros(DIM, 2)
    assert zero._delta_numerator() == 0
    a = _build(_OPERANDS["sqrt3"], 2)
    expected = ein("ab,cd->acbd", a, a)
    calls = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops))
    assert lincomb([(5, "ab,cd->abcd", zero, a), (1, "ab,cd->acbd", a, a)]) == expected
    assert calls and set(calls) == {"ab,cd->acbd"}


# ---------------------------------------------------------------------------
# like terms
# ---------------------------------------------------------------------------


def test_merge_like_terms_adds_coefficients_of_the_same_operands():
    a, b = _build(_OPERANDS["int"], 2), _build(_OPERANDS["int"], 2)
    assert a == b and a is not b
    merged = tensor_mod._merge_like_terms([
        (2, a), (3, "ab->ba", a), (3, a), (1, b), (-3, "ab->" + "ba", a), (Fraction(1, 2), "ab->ba", b),
    ])
    assert merged == [(5, a), (0, "ab->ba", a), (1, b), (Fraction(1, 2), "ab->ba", b)]
    assert type(merged[0][0]) is int and type(merged[1][0]) is int


def test_cancelling_duplicates_give_the_canonical_zero(monkeypatch):
    a, b = _build(_OPERANDS["sqrt3"], 2), _build(_OPERANDS["bigfrac"], 2)
    calls = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(tensor_mod, "_einsum_exact", lambda s, ops: calls.append(s) or real(s, ops))
    out = lincomb([
        (Scalar(Fraction(2, 3), 1), "ab,bc->ac", a, b),
        (Fraction(1, 2), a),
        (Scalar(Fraction(-2, 3), -1), "ab,bc->ac", a, b),
        (Fraction(-1, 2), a),
    ])
    assert calls == []
    assert out.is_zero() and out._den == 1 and _storage(out._irr) <= 1 and _storage(out._rat) <= 1
    assert out == Tensor.zeros(DIM, 2) and hash(out) == hash(Tensor.zeros(DIM, 2))


@pytest.mark.parametrize("bound,dtype", [(LIMIT - 1, np.int64), (LIMIT, object)])
def test_merged_coefficients_set_the_int64_bound(monkeypatch, bound, dtype):
    """(3, a) and (-2, a) merge to (1, a): the bound counts 2**61 for a, not
    5 * 2**61, so with an einsum term bounded by ``bound`` - 2**61 the sum
    runs on int64 just below 2**62 and on Python ints at it.  A huge
    product whose coefficients cancel is neither evaluated nor counted.
    The value equals the pairwise fold of the unmerged terms."""
    a = Tensor(DIM, np.diag([2 ** 61, -7, 3]), np.zeros((DIM, DIM), int))
    m = bound - 2 ** 61
    b = Tensor(DIM, np.array([[m, -m, 1], [0, 5, m - 9], [2, 0, 0]]), np.zeros((DIM, DIM), int))
    huge = _build(_OPERANDS["bigsqrt3"], 2)
    terms = [
        (3, a),
        (Fraction(1, 3), "ab,bc->ac", huge, huge),
        (1, "ab->ab", b),
        (-2, a),
        (Fraction(-1, 3), "ab,bc->ac", huge, huge),
    ]
    dtypes = []
    real = tensor_mod._einsum_exact
    monkeypatch.setattr(
        tensor_mod, "_einsum_exact", lambda s, ops: dtypes.append({op.dtype for op in ops}) or real(s, ops)
    )
    out = lincomb(terms)
    assert dtypes == [{np.dtype(dtype)}]
    assert out.item(0, 0) == Scalar(bound)
    fold = None
    for coeff, *spec in terms:
        t = (spec[0] if len(spec) == 1 else ein(*spec)).scale(coeff)
        fold = t if fold is None else fold + t
    assert out == fold and hash(out) == hash(fold)
