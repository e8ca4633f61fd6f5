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
y_k*sqrt 3)/q_k.  Pass 1 reads metadata only.  It fixes the lcm L of the
terms' denominators d_k (q_k times the operands' denominators) and bounds
every partial sum of the numerators by
sum_k (L/d_k) * (|x_k| + 3|y_k|) * bound_k, where bound_k is the Tensor's
largest numerator or, for an einsum, dim**(summed letters) times
``_product_bound``; below 2**62 everything runs on int64, else on Python
ints.  Pass 2 evaluates one term at a time, adds it in place into one
rational and one sqrt(3) accumulator and drops it before the next; one
Tensor is built at the end, with one gcd and one max scan.  ``ein``, +, -,
negation and ``scale`` are lincombs of one or two terms.

Before pass 1, terms with the same subscripts and the same operand
objects are merged by adding their coefficients exactly; a term whose
coefficients cancel is dropped, so it is neither evaluated nor counted in
the bound.  In pass 1, an einsum operand that the data show to be a
rational multiple (n/d) * I of the identity matrix (read once per Tensor
and memoised), in a token pq of two distinct output letters that no other
token uses, leaves the einsum: n joins the coefficient and d
its denominator, the other operands are contracted into the output letters
the term does not tie together (or give the constant 1), and pass 2 adds
that lower-rank result, broadcast, into the writable diagonal view q = p of
each accumulator (an einsum view; the accumulator starts as zeros when such
a term comes first).  The overflow argument is unchanged: the full
einsum's entries are zero off that diagonal and n times the reduced
einsum's entries on it, so every partial sum is one the full einsum
would reach, and the bound, computed with every operand, is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .scalar import Scalar

_INT64_LIMIT = 2 ** 62

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
    """

    __slots__ = ("dim", "rank", "_rat", "_irr", "_den", "_max", "_delta")

    MAX_RANK = 8

    def __init__(self, dim: int, rat, irr, den: int = 1):
        if not 2 <= dim <= 6:
            raise ShapeError(f"dim must be in 2..6, got {dim}")
        rat = np.asarray(rat)
        irr = np.asarray(irr)
        if rat.shape != irr.shape:
            raise ShapeError("rational/irrational parts have different shapes")
        if rat.ndim > self.MAX_RANK:
            raise ShapeError(f"rank {rat.ndim} exceeds maximum {self.MAX_RANK}")
        if any(s != dim for s in rat.shape):
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
        object.__setattr__(self, "rank", rat.ndim)
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

    # -- component access ----------------------------------------------------

    def item(self, *idx) -> Scalar:
        if len(idx) == 1 and isinstance(idx[0], (tuple, list)):
            idx = tuple(idx[0])
        if len(idx) != self.rank:
            raise ShapeError(f"expected {self.rank} indices, got {len(idx)}")
        return Scalar(
            Fraction(int(self._rat[idx]), self._den),
            Fraction(int(self._irr[idx]), self._den),
        )

    def __getitem__(self, idx) -> Scalar:
        return self.item(idx if isinstance(idx, tuple) else (idx,))

    def to_scalar(self) -> Scalar:
        if self.rank != 0:
            raise ShapeError("to_scalar requires a rank-0 tensor")
        return self.item()

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
        if self.dim != other.dim or self.rank != other.rank:
            raise ShapeError(
                f"shape mismatch: dim {self.dim} rank {self.rank} vs "
                f"dim {other.dim} rank {other.rank}"
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

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        return lincomb([(1, self), (1, other)])

    def __sub__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        return lincomb([(1, self), (-1, other)])

    def __neg__(self) -> "Tensor":
        return lincomb([(-1, self)])

    def scale(self, value) -> "Tensor":
        """Multiply every component by a Scalar/Fraction/int, exactly."""
        return lincomb([(value, self)])

    def __mul__(self, value):
        return self.scale(value)

    __rmul__ = __mul__

    # -- internals --------------------------------------------------------------

    def _delta_numerator(self) -> int:
        """n when this Tensor is the rational multiple (n / den) * I of the
        identity matrix, n != 0; 0 otherwise.  Read from the data on the
        first call and memoised."""
        n = self._delta
        if n is None:
            n, rat = 0, self._rat
            if self.rank == 2 and _is_zero_part(self._irr):
                diag = rat.diagonal()
                if diag[0] and (diag == diag[0]).all() and np.count_nonzero(rat) == self.dim:
                    n = int(diag[0])
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
        return f"Tensor(dim={self.dim}, rank={self.rank})"


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
    array so the next step stays on Python ints."""
    key = (subscripts, tuple(op.shape for op in ops))
    steps = _PATH_CACHE.get(key)
    if steps is None:
        dummies = [np.zeros(s, np.int8) for s in key[1]]
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
    """(x, y, q) with c = (x + y*sqrt 3)/q, integers x and y and q > 0."""
    if type(c) is int:
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    s = c if isinstance(c, Scalar) else Scalar(c)
    q = math.lcm(s.rat.denominator, s.irr.denominator)
    return int(s.rat * q), int(s.irr * q), q


def _add_into(target, v, k: int, tmp=None):
    """``target += k * v`` in place; ``k * v`` goes through the scratch
    array ``tmp`` when one is given."""
    if k == 1:
        target += v
    elif k == -1:
        target -= v
    else:
        target += np.multiply(v, k, out=tmp)


_DELTA_SLOTS: dict = {}
_DELTA_SPLITS: dict = {}


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


def _delta_split(subscripts: str, deltas: tuple) -> tuple:
    """(view, reduced) subscripts for an einsum whose operands at positions
    ``deltas`` (from ``_delta_slots``) are multiples of the identity.  Each
    such token pq forces q = p, so the term lives on the diagonal
    ``view`` of the output, which lists the kept letters p first and then
    the other output letters; ``reduced`` is the einsum of the other
    operands onto those other letters, which broadcasts over the view."""
    key = (subscripts, deltas)
    split = _DELTA_SPLITS.get(key)
    if split is None:
        lhs, out = subscripts.split("->")
        tokens = lhs.split(",")
        dropped = [tokens[i] for i in deltas]
        to_kept = {tok[1]: tok[0] for tok in dropped}
        rest = "".join(c for c in out if not any(c in tok for tok in dropped))
        view = "".join(to_kept.get(c, c) for c in out) + "->" + "".join(t[0] for t in dropped) + rest
        others = [t for i, t in enumerate(tokens) if i not in deltas]
        split = view, ",".join(others) + "->" + rest
        _DELTA_SPLITS[key] = split
    return split


def _merge_like_terms(terms) -> list:
    """The terms, with every term whose subscripts and operand objects
    repeat an earlier term's folded into that term by adding the
    coefficients exactly.  Coefficients are only added on such a repeat,
    so int coefficients stay ints."""
    merged, where = [], {}
    for term in terms:
        head = term[1]
        key = (head, *map(id, term[2:])) if type(head) is str else id(head)
        i = where.setdefault(key, len(merged))
        if i == len(merged):
            merged.append(term)
        else:
            coeff, *spec = merged[i]
            merged[i] = (coeff + term[0], *spec)
    return merged


def lincomb(terms) -> Tensor:
    """sum_k c_k * T_k, exactly, as one Tensor (see the module docstring).

    Each term is ``(coeff, tensor)`` or ``(coeff, subscripts, *operands)``,
    the latter standing for ``ein(subscripts, *operands)``; a coefficient is
    an int, Fraction or Scalar.  Every term must have the same dim and rank
    (ShapeError); an einsum term is checked as ``ein`` checks it.

    Terms with the same subscripts and the same operand objects are merged
    into one first.  A term whose coefficient is (or merges to) zero, or
    with an all-zero operand, is never evaluated and not counted in the
    bound.  An einsum operand equal to c * I, c rational, in a token pq of
    two distinct output letters that no other token uses, is not
    contracted: c joins the coefficient and the rest of the term is added
    into the diagonal view q = p of the accumulators.  Each entry of that smaller
    einsum times c's numerator is an entry of the full one, so the bound
    and the int64/object choice are those of the full einsum."""
    # pass 1: metadata only
    plan, shapes, den = [], set(), 1
    for coeff, *spec in _merge_like_terms(terms):
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
        x, y, q = _coefficient(coeff)
        if (x or y) and all(t._max for t in ops):
            for t in ops:
                q *= t._den
            view, slots = None, subscripts and _delta_slots(subscripts)
            deltas = slots and tuple(i for i in slots if ops[i]._delta_numerator())
            if deltas:
                # bound counts max(|n_i|, 1) = |n_i| for each multiple of I
                n = math.prod(ops[i]._delta_numerator() for i in deltas)
                x, y, bound = x * n, y * n, bound // abs(n)
                view, subscripts = _delta_split(subscripts, deltas)
                keep = [i for i in range(len(ops)) if i not in deltas]
                ops = [ops[i] for i in keep]
                products = [(tuple(c[i] for i in keep), w, side) for c, w, side in products]
            plan.append((x, y, q, bound, subscripts, ops, products, view))
            den = math.lcm(den, q)
    if len(shapes) != 1:
        raise ShapeError(f"lincomb needs terms of one (dim, rank), got {sorted(shapes)}")
    ((dim, rank),) = shapes
    total = sum(den // q * (abs(x) + 3 * abs(y)) * b for x, y, q, b, *_ in plan)
    use_object = total >= _INT64_LIMIT
    dtype = object if use_object else np.int64

    # pass 2: one term at a time into the two accumulators
    shape = (dim,) * rank
    acc, tmp = [None, None], np.empty(shape, dtype)
    for x, y, q, _, subscripts, ops, products, view in plan:
        parts = [t._parts(use_object) for t in ops]
        if subscripts is None:
            a, b = (None if _is_zero_part(p) else p for p in parts[0])
        elif not ops:
            a, b = np.ones((), dtype), None
        else:
            a, b = _contract_terms(subscripts, parts, products)
        f = den // q
        # (x + y sqrt3)(a + b sqrt3) = (x a + 3 y b) + (y a + x b) sqrt3
        for v, k, side in ((a, f * x, 0), (b, 3 * f * y, 0), (a, f * y, 1), (b, f * x, 1)):
            if v is None or not k:
                continue
            if view is not None:
                if acc[side] is None:
                    acc[side] = np.zeros(shape, dtype)
                _add_into(np.einsum(view, acc[side]), v, k)
            elif acc[side] is None:
                # a new array, never ``v`` itself, which may be a view of an
                # operand; 0-d arithmetic decays to a scalar, so re-wrap it
                acc[side] = np.asarray(k * v, dtype)
            else:
                _add_into(acc[side], v, k, tmp)
        del parts, a, b
    rat, irr = (_zero_part(shape, dtype) if v is None else v for v in acc)
    return Tensor(dim, rat, irr, den)


def ein(subscripts: str, *tensors: Tensor) -> Tensor:
    """Exact einsum over Tensors; subscripts as in numpy.einsum.

    Repeated labels inside one input token take diagonals as usual;
    output labels must be distinct and appear in some input.
    """
    return lincomb([(1, subscripts, *tensors)])


# ---------------------------------------------------------------------------
# ContractionSpec: the declarative contraction surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionSpec:
    """Einstein-summation plan over one or more operands.

    ``pairs`` binds operand slots in twos, ``(op, slot)`` both 0-based;
    within-operand pairs trace.  ``free`` lists the surviving slots in
    output order.  Every operand slot must appear exactly once.
    """

    pairs: tuple
    free: tuple

    def __init__(self, pairs: Iterable, free: Iterable):
        object.__setattr__(
            self,
            "pairs",
            tuple((tuple(p[0]), tuple(p[1])) for p in pairs),
        )
        object.__setattr__(self, "free", tuple(tuple(f) for f in free))

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
