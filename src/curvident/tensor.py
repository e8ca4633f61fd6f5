"""Dense exact tensors over Q(sqrt 3) and an exact contraction engine.

A Tensor of rank r in dimension d holds d**r components, each an element
a + b*sqrt(3) of Q(sqrt 3).  Storage is three pieces: two integer numpy
arrays (the rational and sqrt(3) numerators) plus one shared positive
denominator, kept gcd-reduced.  An all-zero part (the sqrt(3) part of
every rational tensor, both parts of a zero tensor such as the residual of
an identity that holds) is stored as one zero broadcast to the tensor's
shape: it holds one element of memory, and no operation computes,
reduces or scans it.  The gcd reduction starts from the denominator and
stops as soon as the gcd reaches 1.  All contractions run through numpy
integer einsum, so results are exact and independent of summation order;
when a conservative magnitude bound says int64 could overflow, the same
code runs on object arrays of Python ints.

A contraction of sqrt(3)-split operands expands the product
prod_k (a_k + b_k*sqrt 3) into one integer einsum per choice of a non-zero
part of each operand, weighted by the power of 3 its sqrt(3) factors fold
to and summed into the rational or the sqrt(3) side (``_product_terms``,
``_contract_terms``).  A rational product is one einsum; a product of n
sqrt(3)-valued operands takes 2**n.  A contraction takes at most six
operands.

Every sum of tensors is one integer linear combination, ``lincomb``, of
terms c_k * T_k: T_k a Tensor or an einsum of Tensors, c_k = (x_k +
y_k*sqrt 3)/q_k, or one such value per trial held in a batched rank-0
Tensor.  Pass 1 reads metadata only.  It fixes the lcm L of the terms'
denominators d_k (q_k times the operands' denominators) and bounds every
partial sum of the numerators by
sum_k (L/d_k) * (|x_k| + 3|y_k|) * bound_k, where bound_k is the Tensor's
largest numerator or, for an einsum, dim**(summed letters) times
``_product_bound``; below 2**62 everything runs on int64, else on Python
ints.  Pass 2 evaluates one term at a time, adds it in place into one
rational and one sqrt(3) accumulator and drops it before the next; one
Tensor is built at the end, with one gcd and one max scan.  ``ein``, +, -,
negation and ``scale`` are lincombs of one or two terms.

A result of rank 6 or more (``_STREAM_RANK``) is streamed: pass 1 runs
once, and pass 2 runs once per index v of the leading output letter, into
accumulators that hold that one slice.  A term whose value holds the
leading letter and would be as large as a streamed result (an einsum of
two rank-4 operands onto six letters, say) is evaluated per slice, on its
operands' parts read at v; any other term is evaluated once, its value
read at v in each slice, or, when a c * I operand's token holds the
leading letter, added at its partner letter's index v (``_step``).  A
slice that comes out zero is dropped; the first non-zero one allocates the
whole result and each later one is copied into it, so a result that is
zero is a zero part with no array of its rank behind it, and any other
result is the Tensor the whole evaluation would give.  Every entry of a
slice is an entry of the result, so the bound and the int64/object
choice hold slice by slice.  Einsums over the same operands that differ
only by a renaming of their letters (``_canonical``: the A rows of the
rank-6 identities, read at v, are two such cores) are contracted once per
slice, and each term reads the shared value through a transpose.

Before pass 1, like terms merge (``_merge_like_terms``).  Terms with the
same subscripts and the same operand objects become one term by adding
their coefficients' numerators exactly; a term whose coefficients cancel
is dropped, so it is neither evaluated nor counted in the bound.  Einsum
terms of two or more operands that share their subscripts and every
operand object but one become one term by linearity:
sum_k c_k * ein(s, .., X_k, ..) = ein(s, .., K, ..) with the kernel
K = lincomb(c_k * X_k).  K is a Tensor of its own, the one intermediate
Tensor of a sum: one per merged group, none per term, and one for all
the groups of a sum whose (operand, coefficient) lists agree up to one
overall sign.  A kernel that comes
out zero is an all-zero operand, so its term is never evaluated, and one
that comes out c * I leaves the einsum as below.  The merged term is an
ordinary einsum over Tensors, so its bound, taken from the kernel's true
``_max``, bounds every partial sum of its evaluation as for any other
einsum term, and the kernel's own lincomb picked its own int64 or object
path by its own bound.

In pass 1, an einsum operand that the data show to be a rational
multiple (n/d) * I of the identity matrix (read once per Tensor and
memoised), in a token pq of two distinct output letters that no other
token uses, leaves the einsum: n joins the coefficient and d its
denominator, the other operands are contracted into the output letters
the term does not tie together (or give the constant 1), and pass 2 adds
that lower-rank result, broadcast, into the writable diagonal view q = p
of each accumulator (an einsum view; the accumulator starts as zeros
when such a term comes first).  The overflow argument is unchanged: the
full einsum's entries are zero off that diagonal and n times the reduced
einsum's entries on it, so every partial sum is one the full einsum
would reach, and the bound, computed with every operand, is the same.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .scalar import Scalar, _coerce

_INT64_LIMIT = 2 ** 62

# lincomb evaluates a result of this rank or more one slice at a time
_STREAM_RANK = 6

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class ShapeError(ValueError):
    """Operands have incompatible dim/rank for the requested operation."""


class ContractionSpecError(ValueError):
    """A contraction specification does not match its operands."""


_MAX_OPERANDS = 6


def _product_terms(tensors) -> list:
    """The terms of the product prod_k (a_k + b_k*sqrt 3) of the operands'
    rational parts a_k and sqrt(3) parts b_k, as (choice, weight, side)
    triples: one term per choice of a non-zero part of each operand
    (``choice[k]`` is 0 for a_k, 1 for b_k).  With j sqrt(3) parts chosen,
    sqrt(3)**j = 3**(j // 2) * sqrt(3)**(j % 2), so the term adds
    ``weight`` = 3**(j // 2) times its product to the rational side
    (``side`` 0) for even j and to the sqrt(3) side (1) for odd j.  A
    rational operand contributes one choice, so a rational product is one
    term; an all-zero operand keeps its zero rational part, so the product
    still has its shape."""
    if len(tensors) > _MAX_OPERANDS:
        raise ContractionSpecError(
            f"at most {_MAX_OPERANDS} operands per contraction, got {len(tensors)}"
        )
    options = [
        [c for c, p in enumerate((t._rat, t._irr)) if not _is_zero_part(p)] or [0]
        for t in tensors
    ]
    return [(c, 3 ** (sum(c) // 2), sum(c) % 2) for c in product(*options)]


_ZERO_PARTS: dict = {}


def _zero_part(shape, dtype):
    """An exactly zero part: one zero broadcast to ``shape``, which holds a
    single element of memory whatever the rank.  It is read-only, so one
    per shape and dtype is shared."""
    key = (shape, np.dtype(dtype))
    part = _ZERO_PARTS.get(key)
    if part is None:
        part = _ZERO_PARTS[key] = np.broadcast_to(np.zeros((), dtype), shape)
    return part


def _is_zero_part(arr) -> bool:
    """Whether ``arr`` is a part stored as ``_zero_part`` stores it.  A
    Tensor keeps every all-zero sqrt(3) part that way, so this is also the
    test for a rational Tensor."""
    # with every stride 0, all elements are the first one
    return not any(arr.strides) and not arr.flat[0]


def _as_int_array(arr, use_object: bool):
    dtype = object if use_object else np.int64
    if arr.dtype == dtype:
        return arr
    if _is_zero_part(arr):
        return _zero_part(arr.shape, dtype)
    # astype(object) boxes integers as Python ints, so arithmetic is exact
    return arr.astype(dtype)


def _max_abs(arr) -> int:
    if arr.dtype == object:
        return max((abs(int(x)) for x in arr.flat), default=0)
    return max(int(arr.max()), -int(arr.min()))


def _gcd_reduce_arrays(rat, irr, den: int):
    """Divide both parts and ``den`` by their gcd.  The gcd divides ``den``,
    so the scan starts from it and stops once it reaches 1 (at once when
    ``den`` is 1); zero parts cannot lower it and are skipped."""
    g = den
    for part in (rat, irr):
        if g == 1:
            break
        if _is_zero_part(part):
            continue
        if part.dtype == object:
            for x in part.flat:
                g = math.gcd(g, int(x))
                if g == 1:
                    break
        else:
            # one block per index of the first axis; np.gcd is non-negative
            for block in part if part.ndim > 1 else (part,):
                g = math.gcd(g, int(np.gcd.reduce(block, axis=None)))
                if g == 1:
                    break
    if g > 1:
        # 0-d object arithmetic decays to a Python int; keep the array
        rat, irr = (
            p if _is_zero_part(p) else np.asarray(p // g, p.dtype) for p in (rat, irr)
        )
        den //= g
    return rat, irr, den


class Tensor:
    """Immutable dense tensor of Q(sqrt 3) values, rank <= 8, dim 2..6.

    A rank-0 Tensor is a single scalar, so scalars and tensors unify.
    Components are exposed as :class:`Scalar` through :meth:`item`; the
    integer-decomposed storage is an implementation detail.  It is
    canonical: gcd-reduced with a positive denominator, int64 parts while
    every numerator is below 2**62 and Python-int object parts otherwise,
    and an all-zero part always a zero part (``_zero_part``), so the zero
    tensor is two zero parts over denominator 1.

    A batched Tensor (``batched=True``) stacks ``batch`` trials of one dim
    and rank along a leading axis of its parts, over one shared
    denominator, with ``_max`` the largest numerator of any trial.  Every
    ``lincomb`` and ``ein`` takes it (see ``lincomb``); :meth:`split` gives
    its trials back as canonical unbatched Tensors.  ``batch`` is 0 for an
    unbatched Tensor.
    """

    __slots__ = ("dim", "rank", "batch", "_rat", "_irr", "_den", "_max", "_delta")

    MAX_RANK = 8

    def __init__(self, dim: int, rat, irr, den: int = 1, batched: bool = False):
        if not 2 <= dim <= 6:
            raise ShapeError(f"dim must be in 2..6, got {dim}")
        rat = np.asarray(rat)
        irr = np.asarray(irr)
        if rat.shape != irr.shape:
            raise ShapeError("rational/irrational parts have different shapes")
        batch = rat.shape[0] if batched and rat.ndim else 0
        if batched and not batch:
            raise ShapeError("a batched tensor needs a leading axis of at least one trial")
        if rat.ndim - batched > self.MAX_RANK:
            raise ShapeError(f"rank {rat.ndim - batched} exceeds maximum {self.MAX_RANK}")
        if any(s != dim for s in rat.shape[batched:]):
            raise ShapeError(f"array shape {rat.shape} does not match dim {dim}")
        den = int(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        maxes = [0 if _is_zero_part(p) else _max_abs(p) for p in (rat, irr)]
        # an all-zero part becomes a zero part
        rat, irr = (
            p if pm else _zero_part(p.shape, p.dtype) for p, pm in zip((rat, irr), maxes)
        )
        # an all-zero tensor reduces to den 1
        rat, irr, reduced = _gcd_reduce_arrays(rat, irr, den)
        m, den = max(maxes) // (den // reduced), reduced
        # both parts hold Python ints exactly when m reaches the int64 bound
        # (0-d arithmetic decays to scalars that np.asarray wraps as either)
        use_object = m >= _INT64_LIMIT
        rat = _as_int_array(rat, use_object)
        irr = _as_int_array(irr, use_object)
        for arr in (rat, irr):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rat.ndim - batched)
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "_rat", rat)
        object.__setattr__(self, "_irr", irr)
        object.__setattr__(self, "_den", int(den))
        object.__setattr__(self, "_max", m)
        object.__setattr__(self, "_delta", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, rank: int) -> "Tensor":
        zero = _zero_part((dim,) * rank, np.int64)
        return cls(dim, zero, zero, 1)

    @classmethod
    def identity(cls, dim: int) -> "Tensor":
        """The metric g in an orthonormal frame: the identity matrix."""
        return cls(
            dim, np.eye(dim, dtype=np.int64), _zero_part((dim, dim), np.int64), 1
        )

    @classmethod
    def from_scalar(cls, dim: int, value) -> "Tensor":
        x, y, q = _coefficient(value)
        return cls(dim, np.array(x), np.array(y), q)

    @classmethod
    def from_components(cls, dim: int, rank: int, entries: dict) -> "Tensor":
        """Build from {index-tuple (0-based): Scalar-like} with zeros elsewhere."""
        den = 1
        vals = {}
        for idx, v in entries.items():
            s = v if isinstance(v, Scalar) else Scalar(v)
            vals[tuple(idx)] = s
            den = math.lcm(den, s.rat.denominator, s.irr.denominator)
        # Python ints, whatever their size; the constructor picks the dtype
        rat, irr = (np.zeros((dim,) * rank, object) for _ in range(2))
        for idx, s in vals.items():
            if len(idx) != rank or any(not 0 <= i < dim for i in idx):
                raise ShapeError(f"index {idx} out of range for dim {dim} rank {rank}")
            rat[idx] = int(s.rat * den)
            irr[idx] = int(s.irr * den)
        return cls(dim, rat, irr, den)

    def split(self) -> list:
        """The trials of a batched Tensor, each a canonical unbatched Tensor."""
        if not self.batch:
            raise ShapeError("split needs a batched tensor")
        return [Tensor(self.dim, a, b, self._den) for a, b in zip(self._rat, self._irr)]

    # -- component access ----------------------------------------------------

    def item(self, *idx) -> Scalar:
        if len(idx) == 1 and isinstance(idx[0], (tuple, list)):
            idx = tuple(idx[0])
        if self.batch:
            raise ShapeError("a batched tensor has no single component; split it")
        if len(idx) != self.rank:
            raise ShapeError(f"expected {self.rank} indices, got {len(idx)}")
        return Scalar(
            Fraction(int(self._rat[idx]), self._den),
            Fraction(int(self._irr[idx]), self._den),
        )

    def __getitem__(self, idx) -> Scalar:
        return self.item(idx if isinstance(idx, tuple) else (idx,))

    def to_scalar(self):
        """The value of a rank-0 Tensor: a Scalar, or for a batched one the
        Tensor itself, whose per-trial values +, -, * and ``lincomb`` take
        as coefficients."""
        if self.rank != 0:
            raise ShapeError("to_scalar requires a rank-0 tensor")
        return self if self.batch else self.item()

    def nonzero_indices(self):
        mask = self._rat != 0
        if not _is_zero_part(self._irr):
            mask |= self._irr != 0
        return [tuple(int(i) for i in idx) for idx in np.argwhere(mask)]

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._max == 0

    def equals(self, other: "Tensor") -> bool:
        if not isinstance(other, Tensor):
            raise TypeError("can only compare Tensor with Tensor")
        if (self.dim, self.rank, self.batch) != (other.dim, other.rank, other.batch):
            raise ShapeError(
                f"shape mismatch: dim {self.dim} rank {self.rank} batch {self.batch} vs "
                f"dim {other.dim} rank {other.rank} batch {other.batch}"
            )
        # storage is canonical (gcd-reduced, positive den, all-zero sqrt(3)
        # parts as zero parts), so compare directly
        rational = _is_zero_part(self._irr)
        return (
            self._den == other._den
            and rational == _is_zero_part(other._irr)
            and bool(np.array_equal(self._rat, other._rat))
            and (rational or bool(np.array_equal(self._irr, other._irr)))
        )

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return hash((self.dim, self.rank, self._den, self._rat.tobytes() if self._rat.dtype != object else tuple(self._rat.flat)))

    # -- linear operations -----------------------------------------------------

    def _combine(self, a: int, other, b: int):
        """a * self + b * other as one lincomb: ``other`` a Tensor or, beside
        a rank-0 Tensor, an int, Fraction or Scalar times the rank-0 one;
        NotImplemented for anything else."""
        if isinstance(other, Tensor):
            return lincomb([(a, self), (b, other)])
        c = _coerce(other) if self.rank == 0 else None
        if c is None:
            return NotImplemented
        return lincomb([(a, self), (b * c, Tensor.from_scalar(self.dim, 1))])

    def __add__(self, other) -> "Tensor":
        return self._combine(1, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return self._combine(1, other, -1)

    def __rsub__(self, other) -> "Tensor":
        return self._combine(-1, other, 1)

    def __neg__(self) -> "Tensor":
        return lincomb([(-1, self)])

    def scale(self, value) -> "Tensor":
        """Multiply every component by a Scalar/Fraction/int, or each
        trial's by its value in a batched rank-0 Tensor, exactly."""
        return lincomb([(value, self)])

    def __mul__(self, value):
        return self.scale(value)

    __rmul__ = __mul__

    # -- internals --------------------------------------------------------------

    def _delta_numerator(self) -> int:
        """n when this Tensor is the rational multiple (n / den) * I of the
        identity matrix, n != 0, in every trial if it is batched; 0
        otherwise.  Read from the data on the first call and memoised."""
        n = self._delta
        if n is None:
            n, rat = 0, self._rat
            if self.rank == 2 and _is_zero_part(self._irr):
                diag = np.diagonal(rat, axis1=-2, axis2=-1)
                n0 = diag.flat[0]
                if n0 and (diag == n0).all() and np.count_nonzero(rat) == diag.size:
                    n = int(n0)
            object.__setattr__(self, "_delta", n)
        return n

    def _parts(self, use_object: bool):
        return (
            _as_int_array(self._rat, use_object),
            _as_int_array(self._irr, use_object),
        )

    def transpose(self, axes) -> "Tensor":
        """Reorder axes, as ``np.transpose``: axis n of the result is axis
        ``axes[n]`` of this tensor."""
        axes = tuple(axes)
        if sorted(axes) != list(range(self.rank)):
            raise ShapeError(f"bad axes {axes} for rank {self.rank}")
        out = _LETTERS[: self.rank]
        return ein("".join(out[axes.index(p)] for p in range(self.rank)) + "->" + out, self)

    # -- wire format: sparse 1-based entries with scalar-text values ---------

    def to_entries(self) -> list:
        out = []
        for idx in self.nonzero_indices():
            out.append(
                {"idx": [i + 1 for i in idx], "val": self.item(idx).format()}
            )
        return out

    def to_json(self) -> dict:
        return {"dim": self.dim, "rank": self.rank, "entries": self.to_entries()}

    @classmethod
    def from_json(cls, data: dict) -> "Tensor":
        return cls.from_entries(data["dim"], data["rank"], data["entries"])

    @classmethod
    def from_entries(cls, dim: int, rank: int, entries: Iterable) -> "Tensor":
        """Inverse of :meth:`to_entries`; omitted entries are zero,
        duplicate indices are an error."""
        comps: dict = {}
        for pos, e in enumerate(entries):
            idx = tuple(int(i) - 1 for i in e["idx"])
            if any(not 0 <= i < dim for i in idx) or len(idx) != rank:
                raise ShapeError(f"entries[{pos}]: index {e['idx']} out of range")
            if idx in comps:
                raise ShapeError(f"entries[{pos}]: duplicate index {e['idx']}")
            comps[idx] = Scalar.parse(e["val"])
        return cls.from_components(dim, rank, comps)

    def __repr__(self):
        batch = f", batch={self.batch}" if self.batch else ""
        return f"Tensor(dim={self.dim}, rank={self.rank}{batch})"


def tensors_equal(a: Tensor, b: Tensor) -> bool:
    return a.equals(b)


def is_zero(a: Tensor) -> bool:
    return a.is_zero()


# ---------------------------------------------------------------------------
# exact einsum
# ---------------------------------------------------------------------------

_PATH_CACHE: dict = {}


def _reduce_private(step: str):
    """Split a multi-operand path step into per-operand reductions of the
    letters only that operand carries (diagonals and sums nothing else
    needs) and the contraction of the reduced operands.  Plain einsum
    would otherwise loop over those letters inside the product."""
    lhs, out = step.split("->")
    tokens = lhs.split(",")
    if len(tokens) == 1:
        return (None,), step
    pre, kept = [], []
    for i, tok in enumerate(tokens):
        needed = out + "".join(t for j, t in enumerate(tokens) if j != i)
        keep = "".join(dict.fromkeys(c for c in tok if c in needed))
        pre.append(None if keep == tok else f"{tok}->{keep}")
        kept.append(keep)
    return tuple(pre), ",".join(kept) + "->" + out


def _einsum_exact(subscripts: str, ops: Sequence):
    """``np.einsum(subscripts, *ops)`` along the cached optimal contraction
    path, one plain einsum call per path step (and per operand reduction,
    see ``_reduce_private``).

    numpy's own path executor sends two-operand steps through a matmul
    kernel that hands back int64 for object operands reducing to scalars,
    so Python-int products silently wrap; plain einsum keeps object
    arithmetic exact, and every object result is re-wrapped as an object
    array so the next step stays on Python ints.

    The path is cached on the subscripts and each operand's shape without
    its first axis: a batched operand's trial axis is its first, so every
    chunk of a batch shares the path searched for the first, while every
    operand of two or more axes still tells the dim apart.  Any path is
    exact, and ``_product_bound`` bounds every path's partial sums."""
    key = (subscripts, tuple(op.shape[1:] for op in ops))
    steps = _PATH_CACHE.get(key)
    if steps is None:
        dummies = [np.zeros(op.shape, np.int8) for op in ops]
        contraction_list = np.einsum_path(
            subscripts, *dummies, optimize="optimal", einsum_call=True
        )[1]
        steps = [(inds,) + _reduce_private(step) for inds, step, _ in contraction_list]
        _PATH_CACHE[key] = steps
    dtype = object if any(op.dtype == object for op in ops) else None
    ops = list(ops)
    for inds, pre, step in steps:
        args = [ops.pop(i) for i in inds]
        args = [
            a if p is None else np.asarray(np.einsum(p, a), dtype)
            for p, a in zip(pre, args)
        ]
        ops.append(np.asarray(np.einsum(step, *args), dtype))
    return ops[0]


def _product_bound(tensors) -> int:
    """A bound on the magnitude of either side of one entrywise product of
    the operands, summed over its ``_product_terms``: prod_k max(_max_k, 1)
    times 3 for every operand with a sqrt(3) part.  Every term's product is
    at most prod_k max(_max_k, 1), and with m operands having a sqrt(3) part
    the weights of all terms add up to
    sum_j C(m, j) 3**(j // 2) <= sum_j C(m, j) sqrt(3)**j = (1 + sqrt 3)**m,
    which is below 3**m.  So every partial sum of a contraction's path
    steps and of its terms stays within dim**(summed letters) times this
    bound."""
    bound = 1
    for t in tensors:
        bound *= max(t._max, 1) * (1 if _is_zero_part(t._irr) else 3)
    return bound


def _contract_terms(subscripts: str, parts: Sequence, terms: list) -> list:
    """[rat, irr] integer arrays of the contraction of a product of
    sqrt(3)-split operands: one ``_einsum_exact`` per term of ``terms``
    (from ``_product_terms``) on the chosen parts, ``parts[k]`` being operand
    k's (rat, irr) pair in one dtype, weighted and summed per side.  A side
    no term reaches is None."""
    sides = [None, None]
    for choice, weight, side in terms:
        v = _einsum_exact(subscripts, [p[c] for p, c in zip(parts, choice)])
        dtype = v.dtype
        if weight != 1:
            v = weight * v
        sides[side] = v if sides[side] is None else sides[side] + v
    # 0-d arithmetic decays to scalars; keep arrays of the einsum's dtype
    return [None if v is None else np.asarray(v, dtype) for v in sides]


def _einsum_shape(subscripts: str, tensors) -> tuple:
    """(dim, output rank, number of summed letters) of an einsum over
    Tensors, after checking the subscripts against the operands."""
    if "->" not in subscripts:
        raise ContractionSpecError("explicit '->' output required")
    lhs, out = subscripts.split("->")
    tokens = lhs.split(",")
    if len(tokens) != len(tensors):
        raise ContractionSpecError(f"{len(tokens)} subscript groups for {len(tensors)} operands")
    dim = tensors[0].dim
    for tok, t in zip(tokens, tensors):
        if t.dim != dim:
            raise ShapeError("operands have different dims")
        if len(tok) != t.rank:
            raise ContractionSpecError(f"subscript {tok!r} does not match operand rank {t.rank}")
    letters = set("".join(tokens))
    if len(set(out)) != len(out) or not set(out) <= letters:
        raise ContractionSpecError(f"bad output subscript {out!r}")
    return dim, len(out), len(letters - set(out))


def _coefficient(c) -> tuple:
    """(x, y, q) with c = (x + y*sqrt 3)/q, q > 0 and gcd(x, y, q) = 1:
    integers for an int, Fraction or Scalar (any other type is read as
    ``Scalar(c)``); for a batched rank-0 Tensor, its canonical parts as
    per-trial vectors of Python ints, so no bound on them can wrap."""
    if type(c) is int:
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    if isinstance(c, Tensor):
        if c.rank or not c.batch:
            raise ShapeError("a Tensor coefficient must be a batched rank-0 tensor")
        return c._rat.astype(object), c._irr.astype(object), c._den
    s = c if isinstance(c, Scalar) else Scalar(c)
    q = math.lcm(s.rat.denominator, s.irr.denominator)
    return int(s.rat * q), int(s.irr * q), q


def _nonzero(k) -> bool:
    """Whether an integer, or a per-trial vector of them, is not all zero."""
    return bool(k) if type(k) is int else bool(np.count_nonzero(k))


def _magnitude(x, y) -> int:
    """|x| + 3|y|, largest over the trials of per-trial vectors."""
    if type(x) is int:
        return abs(x) + 3 * abs(y)
    return int(max(abs(x) + 3 * abs(y)))


def _add_into(target, v, k, sliced=False):
    """``target += k * v`` in place.  ``k`` is an int or per-trial factors
    shaped to broadcast against ``target``.  With ``sliced``, the last axis
    of ``target`` and of ``v`` is one tensor axis, and ``k * v`` is formed
    one index of it at a time, so its scratch is 1/dim of ``target``."""
    if type(k) is int and k == 1:
        target += v
    elif type(k) is int and k == -1:
        target -= v
    elif not sliced:
        target += np.multiply(v, k)
    else:
        k = k if type(k) is int else k[..., 0]
        for i in range(target.shape[-1]):
            target[..., i] += np.multiply(v[..., i], k)


_DELTA_SLOTS: dict = {}
_STEPS: dict = {}
_CANONICAL: dict = {}
_BATCHED: dict = {}


def _batched(subscripts: str, batched: tuple, lead: int = 0) -> str:
    """``subscripts`` with a new letter, the trial axis, put in front of the
    token of every operand flagged in ``batched`` and at position ``lead``
    of the output; unflagged operands broadcast over it."""
    key = (subscripts, batched, lead)
    out = _BATCHED.get(key)
    if out is None:
        lhs, rhs = subscripts.split("->")
        z = next(c for c in _LETTERS if c not in subscripts)
        tokens = [z + tok if b else tok for tok, b in zip(lhs.split(","), batched)]
        out = _BATCHED[key] = ",".join(tokens) + "->" + rhs[:lead] + z + rhs[lead:]
    return out


def _delta_slots(subscripts: str) -> tuple:
    """Positions of the tokens of ``subscripts`` whose operand, if it is a
    multiple of the identity, can leave the einsum: two distinct letters,
    both in the output and in no other token."""
    slots = _DELTA_SLOTS.get(subscripts)
    if slots is None:
        lhs, out = subscripts.split("->")
        tokens = lhs.split(",")
        slots = tuple(
            i
            for i, tok in enumerate(tokens)
            if len(tok) == 2
            and tok[0] != tok[1]
            and set(tok) <= set(out)
            and not any(c in other for j, other in enumerate(tokens) if j != i for c in tok)
        )
        _DELTA_SLOTS[subscripts] = slots
    return slots


class _Step(NamedTuple):
    """How pass 2 evaluates one einsum term (``_step``)."""

    keep: tuple  # the positions of the operands of the reduced einsum
    index: Optional[tuple]  # per kept operand, its axes read at v; None: run once
    reduced: Optional[str]  # that einsum, trial letter included; None: the constant 1
    core: Optional[str]  # ``_canonical`` of reduced: the key its sharers agree on
    perm: Optional[tuple]  # the transpose from the core's axes to reduced's
    view: Optional[str]  # the einsum view of the accumulator the value is added into
    pin: bool  # whether the view's first axis is read at v
    at: Optional[int]  # the axis of a value evaluated once that is read at v
    trail: int  # the number of tensor axes of the value added


def _step(subscripts: str, deltas: tuple, batched: tuple, acc_batched: bool, streamed: bool):
    """The ``_Step`` of an einsum term whose operands at positions
    ``deltas`` (from ``_delta_slots``) are multiples of the identity, into
    an accumulator that is ``acc_batched`` and holds the whole result or,
    when ``streamed``, one index v of its leading letter at a time;
    ``batched`` flags the batched operands.  The string work is cached.

    Each identity token pq forces q = p, so the term lives on a diagonal
    ``view`` that lists the kept letters p first (then the trial axis) and
    then the other output letters, and the reduced einsum over those
    other letters broadcasts over it.  When streamed, the leading letter
    leaves the accumulator.  An identity token that holds it pins its
    partner letter to v: the view lists the partner first, and the reduced
    einsum reads no slice.  Otherwise the leading letter stays in the
    reduced einsum, which runs once if its value is smaller than a
    streamed result or is a view of its one operand, and is read at v;
    else it runs once per slice on its operands read at v."""
    key = (subscripts, deltas, batched, acc_batched, streamed)
    step = _STEPS.get(key)
    if step is None:
        lhs, out = subscripts.split("->")
        tokens = lhs.split(",")
        lead, partner, gone = "", "", set(deltas)
        if streamed:
            lead, out = out[0], out[1:]
            for i in deltas:
                if lead in tokens[i]:
                    partner = tokens[i].replace(lead, "")
                    deltas = tuple(j for j in deltas if j != i)
        dropped = [tokens[i] for i in deltas]
        to_kept = {tok[1]: tok[0] for tok in dropped}
        front = partner + "".join(t[0] for t in dropped)
        rest = "".join(c for c in out if c != partner and not any(c in t for t in dropped))
        view = None
        if front:
            view = "".join(to_kept.get(c, c) for c in out) + "->" + front + rest
            if acc_batched:
                view = _batched(view, (True,), len(front))
        keep = tuple(i for i in range(len(tokens)) if i not in gone)
        kept = [tokens[i] for i in keep]
        # when streamed, the value holds the leading letter unless it is pinned
        holds = bool(lead) and not partner
        whole = lead + rest if holds else rest
        per_slice = holds and len(whole) >= _STREAM_RANK and not (
            len(kept) == 1 and set(kept[0]) == set(whole))
        index = reduced = core = perm = at = None
        if per_slice:
            index = tuple(tuple(batched[i] + p for p, c in enumerate(tokens[i]) if c == lead)
                          for i in keep)
        if keep:
            reduced = ",".join(t.replace(lead, "") if per_slice else t for t in kept)
            reduced += "->" + (rest if per_slice else whole)
            flags = tuple(batched[i] for i in keep)
            if any(flags):
                reduced = _batched(reduced, flags)
            if holds and not per_slice:
                at = int(any(flags))
            core, perm = _canonical(reduced)
        step = _STEPS[key] = _Step(keep, index, reduced, core, perm, view, bool(partner), at,
                                   len(rest))
    return step


def _canonical(subscripts: str) -> tuple:
    """(core, perm): ``subscripts`` with its letters renamed in the order
    they first appear in its inputs and its output letters in that order,
    and the axes that take the core's result to this einsum's, as
    ``transpose`` takes them.  Einsums of one core over the same operands
    differ only by that transpose."""
    found = _CANONICAL.get(subscripts)
    if found is None:
        lhs, out = subscripts.split("->")
        names: dict = {}
        for c in lhs.replace(",", ""):
            names.setdefault(c, _LETTERS[len(names)])
        core_out = "".join(sorted((names[c] for c in out), key=_LETTERS.index))
        core = "".join(names.get(c, c) for c in lhs) + "->" + core_out
        found = _CANONICAL[subscripts] = core, tuple(core_out.index(names[c]) for c in out)
    return found


def _at(axes: tuple, v: int) -> tuple:
    """The index that fixes ``axes`` at v and keeps every axis before the
    last of them whole."""
    return tuple(v if a in axes else slice(None) for a in range(max(axes) + 1))


def _merge_like_terms(terms) -> list:
    """The terms as ``(x, y, q, *spec)``, each coefficient read by
    ``_coefficient``, with like terms merged into the first of them, in
    order of first appearance.

    Terms with the same subscripts and operand objects, or the same
    Tensor, are like terms: their numerators are added over the product of
    the denominators and divided by their gcd, so a merged coefficient has
    the numerators its value would have, and int and per-trial
    coefficients merge alike.  Einsum terms of two or more operands that
    share their subscripts and all operand objects but the one at some
    position p are like terms too: sum_k c_k * ein(s, .., X_k, ..) is
    ein(s, .., lincomb(c_k * X_k), ..), one term of coefficient 1 whose
    operand p, the kernel, is a Tensor of its own.  Trying its positions
    p in order, a term joins the first group made with the same operands
    but the one at p if that group's terms differ at p or nowhere, so the
    grouping depends only on the order of the terms.  (A one-operand
    einsum is not factored: its kernel would be as large as the einsum.)
    A kernel whose (operand, coefficient) list repeats an earlier kernel's
    of the same call, up to one overall sign, is that kernel: it is built
    once, and the sign moves into the term's coefficient."""
    # a group is [its first term's spec, the position where its terms
    # differ (None while they do not), its terms as (coeff, spec)]; where
    # maps each lookup key to the first group made with it
    groups, where = [], {}
    for coeff, *spec in terms:
        head, *ops = spec
        if type(head) is not str:
            keys = [id(head)]
        elif len(ops) < 2:
            keys = [(head, *map(id, ops))]
        else:
            ids = [id(t) for t in ops]
            keys = [(head, p, *ids[:p], *ids[p + 1 :]) for p in range(len(ops))]
        for p, key in enumerate(keys):
            group = where.get(key)
            if group is not None and group[1] in (None, p):
                if ops and ops[p] is not group[0][p + 1]:
                    group[1] = p
                group[2].append((coeff, spec))
                break
        else:
            group = [spec, None, [(coeff, spec)]]
            groups.append(group)
            for key in keys:
                where.setdefault(key, group)
    merged, kernels = [], {}
    for spec, pos, members in groups:
        if pos is not None:
            key = _kernel_key(members, pos)
            sign, kernel = kernels.get(key, (1, None))
            if kernel is None:
                kernel = lincomb([(c, s[pos + 1]) for c, s in members])
                kernels[_kernel_key(members, pos, -1)] = -1, kernel
                kernels[key] = 1, kernel
            merged.append((sign, 0, 1, *spec[: pos + 1], kernel, *spec[pos + 2 :]))
            continue
        x, y, q = _coefficient(members[0][0])
        for coeff, _ in members[1:]:
            x1, y1, q1 = _coefficient(coeff)
            x, y, q = x * q1 + x1 * q, y * q1 + y1 * q, q * q1
            g = math.gcd(q, *((x, y) if type(x) is int else (*x, *y)))
            x, y, q = x // g, y // g, q // g
        merged.append((x, y, q, *spec))
    return merged


def _kernel_key(members, pos: int, sign: int = 1) -> tuple:
    """The (operand id, coefficient) list of a kernel's ``members``, each
    coefficient read by ``_coefficient`` and multiplied by ``sign``.  Equal
    keys give equal kernels, and with opposite signs opposite ones."""
    key = []
    for coeff, spec in members:
        x, y, q = _coefficient(coeff)
        x, y = (sign * x, sign * y) if type(x) is int else (tuple(sign * x), tuple(sign * y))
        key.append((id(spec[pos + 1]), x, y, q))
    return tuple(key)


def _term_value(step, ops, products, parts, key, uses, held, left, v):
    """[rat, irr] of a term's reduced einsum (its ``_Step``) in slice v, its
    operands' ``parts`` read at v on the ``step.index`` axes (made
    contiguous, which halves the einsum's time on a slice of a middle
    axis).  A value that ``uses`` says is read again is kept in ``held``,
    in its core's axis order, until its last read; each read transposes it
    to the term's own."""
    cached = key if uses[key] > 1 else None
    if cached is not None and step.index:
        cached = key, v
    sides = held.get(cached) if cached is not None else None
    if sides is None:
        args = [parts[id(t)] for t in ops]
        if step.index:
            args = [
                tuple(np.ascontiguousarray(p[_at(i, v)]) for p in pair) if i else pair
                for pair, i in zip(args, step.index)
            ]
        sides = _contract_terms(step.reduced, args, products)
        if cached is None:
            return sides
        inverse = tuple(sorted(range(len(step.perm)), key=step.perm.__getitem__))
        sides = held[cached] = [p if p is None else p.transpose(inverse) for p in sides]
        left[cached] = uses[key]
    left[cached] -= 1
    if not left[cached]:
        del held[cached], left[cached]
    return [p if p is None else p.transpose(step.perm) for p in sides]


def lincomb(terms) -> Tensor:
    """sum_k c_k * T_k, exactly, as one Tensor (see the module docstring).

    Each term is ``(coeff, tensor)`` or ``(coeff, subscripts, *operands)``,
    the latter standing for ``ein(subscripts, *operands)``; a coefficient is
    an int, Fraction or Scalar, or per trial a batched rank-0 Tensor (see
    below).  Every term must have the same dim and rank (ShapeError); an
    einsum term is checked as ``ein`` checks it.

    Like terms are merged first (``_merge_like_terms``): terms with the
    same subscripts and operand objects on the coefficients' numerators,
    and einsum terms that differ in one operand only into one einsum on
    the lincomb of that operand, a Tensor of its own whose true largest
    numerator enters the bound.  A term whose coefficient is (or merges
    to) zero, or with an all-zero operand (such as a kernel that cancels),
    is never evaluated and not counted in the bound.  An einsum operand equal to c * I, c rational, in a token pq of
    two distinct output letters that no other token uses, is not
    contracted: c joins the coefficient and the rest of the term is added
    into the diagonal view q = p of the accumulators.  Each entry of that smaller
    einsum times c's numerator is an entry of the full one, so the bound
    and the int64/object choice are those of the full einsum.

    Batches: an operand may be a batched Tensor and a coefficient a
    batched rank-0 Tensor, whose canonical parts and denominator are the
    per-trial numerators (x_b, y_b) and q, all of one batch size B; then
    the result is batched too, so a per-trial value such as tau is a
    batched rank-0 Tensor and tau * tau is a lincomb.  An einsum term gives each batched operand's token and
    the output one more letter, the trial axis, and its unbatched operands
    (``g``, say) broadcast over it; a per-trial coefficient multiplies each
    trial's slice of its term.  The bound takes each term's largest
    coefficient and operand over the trials, so it bounds every trial's
    partial sums; a batched operand is c * I when every trial holds the same
    c * I.

    Streaming: a result of rank 6 or more is evaluated one index of its
    leading output letter at a time (module docstring), whatever its size;
    a slice that is zero is dropped, so a rank-6 residual that vanishes
    never holds a rank-6 array, and the terms that read one contraction up
    to a transpose share it."""
    # pass 1: metadata only
    plan, shapes, batches, den = [], set(), set(), 1
    for x, y, q, *spec in _merge_like_terms(terms):
        if spec and isinstance(spec[0], str):
            subscripts, *ops = spec
            dim, rank, n_sum = _einsum_shape(subscripts, ops)
            products = _product_terms(ops)
            bound = dim ** n_sum * _product_bound(ops)
        else:
            (t,) = spec
            subscripts, ops, products = None, [t], None
            dim, rank, bound = t.dim, t.rank, t._max
        shapes.add((dim, rank))
        batches.update(t.batch for t in ops if t.batch)
        if type(x) is not int:
            batches.add(len(x))
        if (_nonzero(x) or _nonzero(y)) and all(t._max for t in ops):
            for t in ops:
                q *= t._den
            slots = subscripts and _delta_slots(subscripts)
            deltas = tuple(i for i in slots if ops[i]._delta_numerator()) if slots else ()
            if deltas:
                # bound counts max(|n_i|, 1) = |n_i| for each multiple of I
                n = math.prod(ops[i]._delta_numerator() for i in deltas)
                x, y, bound = x * n, y * n, bound // abs(n)
            plan.append((x, y, q, _magnitude(x, y) * bound, subscripts, ops, products, deltas))
            den = math.lcm(den, q)
    if len(shapes) != 1:
        raise ShapeError(f"lincomb needs terms of one (dim, rank), got {sorted(shapes)}")
    if len(batches) > 1:
        raise ShapeError(f"lincomb needs one batch size, got {sorted(batches)}")
    ((dim, rank),) = shapes
    (batch,) = batches or (0,)
    total = sum(den // q * b for _, _, q, b, *_ in plan)
    use_object = total >= _INT64_LIMIT
    dtype = object if use_object else np.int64
    streamed = rank >= _STREAM_RANK

    # each term as (operands, products, step, key, factors), its factors
    # (part, k, side) read (x + y sqrt3)(a + b sqrt3) = (x a + 3 y b) +
    # (y a + x b) sqrt3 on the parts a (0) and b (1) of its value; key
    # names its reduced einsum's core, which terms with equal keys share
    work, uses = [], {}
    for x, y, q, _, subscripts, ops, products, deltas in plan:
        step = key = None
        trail = rank - streamed
        if subscripts is not None:
            flags = tuple(bool(t.batch) for t in ops)
            step = _step(subscripts, deltas, flags, bool(batch), streamed)
            trail = step.trail
            ops = [ops[i] for i in step.keep]
            products = [(tuple(c[i] for i in step.keep), w, side) for c, w, side in products]
            if step.reduced is not None:
                key = (step.core, *map(id, ops), step.index)
                uses[key] = uses.get(key, 0) + 1
        f, nx, ny = den // q, _nonzero(x), _nonzero(y)
        factors = []
        for part, k, side in ((0, f * x, 0), (1, 3 * f * y, 0), (0, f * y, 1), (1, f * x, 1)):
            if nx if part == side else ny:
                if type(k) is not int:
                    # one factor per trial, broadcast over the trial's entries
                    k = np.asarray(k, dtype).reshape((batch,) + (1,) * trail)
                factors.append((part, k, side))
        work.append((ops, products, step, key, factors))
    # the terms that share a core run together, at the place of the first,
    # so one shared core per slice is held at a time (an exact sum has no
    # order)
    if any(u > 1 for u in uses.values()):
        place: dict = {}
        work.sort(key=lambda w: place.setdefault(w[3] if uses.get(w[3], 0) > 1 else id(w), len(place)))
    parts = {}
    for ops, *_ in work:
        for t in ops:
            if id(t) not in parts:
                parts[id(t)] = t._parts(use_object)

    # pass 2: one term at a time into one rational and one sqrt(3)
    # accumulator, of the whole result or of one slice of it
    shape = (batch,) * bool(batch) + (dim,) * rank
    trials = (slice(None),) * bool(batch)
    acc_shape = shape[: len(trials)] + shape[len(trials) + 1 :] if streamed else shape
    out, acc, views, held, left, values = [None, None], [None, None], {}, {}, {}, {}
    for v in range(dim) if streamed else (None,):
        for n, (ops, products, step, key, factors) in enumerate(work):
            if step is None:
                a, b = parts[id(ops[0])]
                if streamed:
                    at = (slice(None),) * bool(ops[0].batch) + (v,)
                    a, b = a[at], b[at]
                a, b = (None if _is_zero_part(p) else p for p in (a, b))
                view = None
            else:
                view, pin, at = step.view, step.pin, step.at
                if step.reduced is None:
                    a, b = np.ones((), dtype), None
                elif step.index:
                    a, b = _term_value(step, ops, products, parts, key, uses, held, left, v)
                else:
                    # evaluated once: small, or a view of its operand; its
                    # axis ``at`` moved first, so a slice reads index v
                    a, b = values.get(n) or [
                        p if p is None or at is None else np.moveaxis(p, at, 0)
                        for p in _term_value(step, ops, products, parts, key, uses, held, left, v)
                    ]
                    if streamed:
                        values[n] = a, b
                    if at is not None:
                        a, b = (p if p is None else p[v] for p in (a, b))
            for part, k, side in factors:
                w = b if part else a
                if w is None:
                    continue
                target = acc[side]
                if view is not None:
                    if target is None:
                        target = acc[side] = np.zeros(acc_shape, dtype)
                    target = views.get((n, side))
                    if target is None:
                        target = views[n, side] = np.einsum(view, acc[side])
                    if pin:
                        target = target[v]
                elif target is None:
                    # a new array, never ``w`` itself, which may be a view of an
                    # operand; 0-d arithmetic decays to a scalar, so re-wrap it;
                    # an unbatched first term is broadcast over the trials
                    first = np.asarray(k * w, dtype)
                    if first.shape != acc_shape:
                        first = np.array(np.broadcast_to(first, acc_shape))
                    acc[side] = first
                    continue
                # a full-shape term is scaled a slice at a time: a batch of
                # rank-4 terms times 8, say, needs no full-shape scratch (a
                # streamed term's value is one slice already)
                _add_into(target, w, k, sliced=view is None and 0 < rank < _STREAM_RANK)
            a = b = w = None
        if not streamed:
            out = acc
            break
        for side, s in enumerate(acc):
            # a zero slice is dropped; the first non-zero one allocates the result
            if s is not None and np.count_nonzero(s):
                if out[side] is None:
                    out[side] = np.zeros(shape, dtype)
                out[side][trials + (v,)] = s
                s[...] = 0
    acc = views = values = s = None
    rat, irr = (_zero_part(shape, dtype) if v is None else v for v in out)
    return Tensor(dim, rat, irr, den, batched=bool(batch))


def ein(subscripts: str, *tensors: Tensor) -> Tensor:
    """Exact einsum over Tensors; subscripts as in numpy.einsum.

    Repeated labels inside one input token take diagonals as usual;
    output labels must be distinct and appear in some input.
    """
    return lincomb([(1, subscripts, *tensors)])


# ---------------------------------------------------------------------------
# ContractionSpec: the declarative contraction surface
# ---------------------------------------------------------------------------


class ContractionSpec:
    """Einstein-summation plan over one or more operands; immutable.

    ``pairs`` binds operand slots in twos, ``(op, slot)`` both 0-based;
    within-operand pairs trace.  ``free`` lists the surviving slots in
    output order.  Every operand slot must appear exactly once.
    """

    __slots__ = ("pairs", "free")

    def __init__(self, pairs: Iterable, free: Iterable):
        object.__setattr__(
            self,
            "pairs",
            tuple((tuple(p[0]), tuple(p[1])) for p in pairs),
        )
        object.__setattr__(self, "free", tuple(tuple(f) for f in free))

    def __setattr__(self, name, value):
        raise AttributeError("ContractionSpec is immutable")

    def __eq__(self, other):
        if not isinstance(other, ContractionSpec):
            return NotImplemented
        return (self.pairs, self.free) == (other.pairs, other.free)

    def __hash__(self):
        return hash((self.pairs, self.free))

    def __repr__(self):
        return f"ContractionSpec(pairs={self.pairs!r}, free={self.free!r})"

    def validate(self, operands: Sequence[Tensor]):
        seen = set()
        for op, slot in [s for pair in self.pairs for s in pair] + list(self.free):
            if not (0 <= op < len(operands) and 0 <= slot < operands[op].rank):
                raise ContractionSpecError(f"slot {(op, slot)} out of range")
            if (op, slot) in seen:
                raise ContractionSpecError(f"slot {(op, slot)} used twice")
            seen.add((op, slot))
        for op, t in enumerate(operands):
            for slot in range(t.rank):
                if (op, slot) not in seen:
                    raise ContractionSpecError(f"slot {(op, slot)} unassigned")


def contract(operands: Sequence[Tensor], spec: ContractionSpec) -> Tensor:
    """Contract operands per spec; exact, order-independent."""
    operands = list(operands)
    if not operands:
        raise ContractionSpecError("no operands")
    spec.validate(operands)
    letter_of = {}
    counter = 0
    for (a, b) in spec.pairs:
        letter_of[a] = letter_of[b] = _LETTERS[counter]
        counter += 1
    out = []
    for f in spec.free:
        letter_of[f] = _LETTERS[counter]
        out.append(_LETTERS[counter])
        counter += 1
    tokens = [
        "".join(letter_of[(op, slot)] for slot in range(t.rank))
        for op, t in enumerate(operands)
    ]
    subscripts = ",".join(tokens) + "->" + "".join(out)
    return ein(subscripts, *operands)


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Outer product; rank adds, components multiply."""
    if a.dim != b.dim:
        raise ShapeError(f"dim mismatch: {a.dim} vs {b.dim}")
    ta = _LETTERS[: a.rank]
    tb = _LETTERS[a.rank : a.rank + b.rank]
    return ein(f"{ta},{tb}->{ta}{tb}", a, b)
