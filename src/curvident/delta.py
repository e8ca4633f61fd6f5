"""Generalized Kronecker delta contraction.

The order-N generalized Kronecker delta is the N x N determinant of
ordinary deltas over an upper and a lower index list.  Contracted against
operand tensors it is evaluated here by expanding the determinant as a
signed sum over the N! permutations; each permutation term becomes an
ordinary contraction plan (an einsum) of the operands, and terms whose
plans coincide after canonical relabelling (including exchange of
identical operands) are merged with multiplicity.  A term's structure is
a set of paths between untraced delta slots and of cycles of traced
slots; the compile finds them for all N! permutations at once with numpy
(see ``_compile_plans``).  With N exceeding the dimension the result is
identically zero as a tensor identity, which is exactly what the
curvature identities exploit; the engine discovers this zero by exact
cancellation, never by shortcut.

The merged terms are then folded modulo the operands' slot symmetries,
in the manner of Butler-Portugal canonicalization.  Each distinct
operand's symmetries are read from its data on every call: a
transposition or double transposition p of its slots, with a sign s, is
used only when ``np.transpose(part, p) == s * part`` holds exactly for
its rational and its sqrt(3) part (``_slot_symmetries``), so nothing is
taken from the caller and the Bianchi identity, which is not a slot
permutation, is never assumed.  The verified symmetries are part of the
plan cache key.  Every verified symmetry relabels the merged terms, and
terms that one (or an exchange of identical operands) carries into each
other have equal values up to the sign, so each class is contracted
once, at one representative, with the signed sum of its members'
coefficients; a class that maps to its own negative is exactly zero and
is dropped.  For a curvature tensor R the order-7 delta against three
copies in dimension 6 goes from 870 merged terms to 26 classes.

Each plan is contracted like ``tensor.ein`` contracts a product: one
einsum per term of the expanded product of the operands' rational and
sqrt(3) parts (``tensor._contract_terms``), so one einsum when no operand
has a sqrt(3) part.  The term list is built once per call.

The delta is antisymmetric in its upper slots and in its lower slots, so
the free output axes split into an upper and a lower antisymmetric group.
Each permutation term is accumulated only at one representative per
orbit: the non-decreasing index tuples of each group.  Representatives
with a repeated index are evaluated too and must cancel to exactly zero
(an engine invariant, checked on every call; when a group has more axes
than the dimension they are all there is); each distinct-index representative is then
written to every permuted position with the product of the two
permutation signs.  The tables of that scatter are built on a layout's
first non-zero result, so a vanishing contraction never builds them: the
Patterson residuals, with N = dim + 1, are all zero.  A representative
pairs an upper-group tuple u with a lower-group tuple l, so the position
of a plan's einsum result that feeds it is ``fu[u] + fl[l]``: a record
holds those two tables, one entry per tuple of a group, in the smallest
integer dtype that holds the result's positions, and its rows, the
pairs (u, l) where its diagonal pairs hold (every pair without any).
Records share equal tables and rows, and every record adds the entries
of its rows' positions into one flat accumulator row per pair (u, l).

A plan whose einsum result has rank ``tensor._STREAM_RANK`` (6) or more
is streamed, by the rule ``lincomb`` streams by: the plan runs once per
index v of its result's leading letter, on the one operand that carries
the letter read at v, and each record adds that slice into the rows
whose value is v on the output axis the letter feeds.  The layout orders
a record's rows by that value once, so the rows of slice v are one run
of them; an unstreamed plan is the one-slice case of the same loop.
Every entry of a slice is an entry of the whole result, so the
int64/object bound holds slice by slice, and a batched dim-6 r = 2 free
Patterson call holds one B x 6**5 slice at a time where it held a
B x 6**6 result.

A batch is contracted at once: each plan's einsum gets the trial letter
when it is evaluated (``tensor._batched``), unbatched operands broadcast
over it, and a symmetry is used only when it holds in every trial.  An
operand that is zero in every trial (a zero Weyl part, the flat model's
R) gives a zero result before any plan is looked up.

The plans of every key the command line reaches with a curvature
tensor's symmetries ship with the package, compiled, in
``delta_plans.json``: one JSON line per key, its ``repr`` and, per plan,
its subscripts and records.  ``scripts/build_plans.py`` writes the
file and a test pins it to a fresh compile.  A key missing from the
in-process cache is looked up there, parsing only its own line; any other
key (a generic operand) is compiled in process and cached in memory
only.  The records' tables are built from this process's layout,
so a packaged plan is the compiled one.

``reference_delta_contract`` is the independent slow path: it sums the
determinant definition over the delta's support (a distinct lower index
tuple and a permutation of it above) and is used by the test suite to
certify the engine.
"""

from __future__ import annotations

import json
import math
import os
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import NamedTuple

import numpy as np

from .tensor import (
    _INT64_LIMIT,
    _LETTERS,
    _STREAM_RANK,
    _batched,
    _contract_terms,
    _is_zero_part,
    _product_bound,
    _product_terms,
    _zero_part,
    ContractionSpecError,
    ShapeError,
    Tensor,
)


class DeltaBinding(NamedTuple):
    """How operand slots and outputs attach to the delta's index slots.

    ``lower``/``upper`` map delta slot -> (operand, operand slot); ``traced``
    lists slots whose lower and upper index are contracted with each other;
    ``out`` lists the remaining free slots as ('U'|'L', slot) in output
    order.
    """

    lower: tuple
    upper: tuple
    traced: tuple = ()
    out: tuple = ()

    @staticmethod
    def make(n: int, lower: dict, upper: dict, traced=(), out=None) -> "DeltaBinding":
        lower_t = tuple(sorted((int(s), (int(o), int(k))) for s, (o, k) in lower.items()))
        upper_t = tuple(sorted((int(s), (int(o), int(k))) for s, (o, k) in upper.items()))
        traced_t = tuple(sorted(int(t) for t in traced))
        if out is None:
            out = _free_slots(n, dict(lower_t), dict(upper_t), traced_t)
        return DeltaBinding(lower_t, upper_t, traced_t, tuple((str(a), int(b)) for a, b in out))


def _free_slots(n: int, lower: dict, upper: dict, traced) -> list:
    """The delta slots that are neither traced nor bound to an operand, as
    ('U'|'L', slot), by slot and upper before lower."""
    return [
        (side, s)
        for s in range(n)
        if s not in traced
        for side, bind in (("U", upper), ("L", lower))
        if s not in bind
    ]


def _validate(n: int, dim: int, operands, binding: DeltaBinding):
    if n < 1 or n > 8:
        raise ContractionSpecError(f"delta order {n} outside 1..8")
    lower = dict(binding.lower)
    upper = dict(binding.upper)
    traced = set(binding.traced)
    for s in list(lower) + list(upper) + list(traced):
        if not 0 <= s < n:
            raise ContractionSpecError(f"delta slot {s} outside 0..{n - 1}")
    if traced & set(lower) or traced & set(upper):
        raise ContractionSpecError("traced slot also bound to an operand")
    seen = set()
    for bind in (lower, upper):
        for s, (op, k) in bind.items():
            if not (0 <= op < len(operands)) or not (0 <= k < operands[op].rank):
                raise ContractionSpecError(f"operand slot {(op, k)} out of range")
            if (op, k) in seen:
                raise ContractionSpecError(f"operand slot {(op, k)} bound twice")
            seen.add((op, k))
    for op, t in enumerate(operands):
        if t.dim != dim:
            raise ShapeError("operand dim mismatch")
        for k in range(t.rank):
            if (op, k) not in seen:
                raise ContractionSpecError(f"operand slot {(op, k)} unbound")
    free = set(_free_slots(n, lower, upper, traced))
    if set(binding.out) != free:
        raise ContractionSpecError(
            f"output slots {sorted(binding.out)} do not match free slots {sorted(free)}"
        )
    if len(binding.out) > Tensor.MAX_RANK:
        raise ShapeError(
            f"free delta slots give rank {len(binding.out)} > {Tensor.MAX_RANK}; "
            "trace some index pairs"
        )


class EngineInvariantError(RuntimeError):
    """The engine's result broke a property every correct evaluation has;
    a defect of the engine, never of its input."""


# one compiled, merged permutation expansion per structural key
_PLAN_CACHE: dict = {}
# one orbit-representative layout per (dim, output slots)
_LAYOUT_CACHE: dict = {}
# the compiled plans of the keys the command line reaches (scripts/build_plans.py)
_PACKAGED_PLANS = os.path.join(os.path.dirname(__file__), "delta_plans.json")


class _Plan:
    """One einsum and its records.  ``specs`` lists each record as
    (output assignment, diagonal pairs, coefficient); ``tables`` holds the
    same as the layout's (fu, fl, rows) (``_Layout.tables``) and the
    coefficient.  ``lead`` is None, or for a result of rank
    ``_STREAM_RANK`` or more, which is evaluated one index of its leading
    letter at a time: the operand that carries the letter, the letter's
    axis in it, the subscripts without the letter and the letter's stride
    in the whole result."""

    __slots__ = ("subscripts", "n_sum_letters", "specs", "tables", "lead")

    def __init__(self, subscripts, specs, layout):
        lhs, _, rhs = subscripts.partition("->")
        self.subscripts = subscripts
        self.n_sum_letters = len(set(lhs) - {","}) - len(rhs)
        self.specs = specs
        self.lead = None
        if len(rhs) >= _STREAM_RANK:
            tokens = lhs.split(",")
            op = next(i for i, tok in enumerate(tokens) if rhs[0] in tok)
            reduced = lhs.replace(rhs[0], "") + "->" + rhs[1:]
            self.lead = op, tokens[op].index(rhs[0]), reduced, layout.dim ** (len(rhs) - 1)
        self.tables = [
            layout.tables(a, d, a[0] if self.lead else None) + (c,) for a, d, c in specs
        ]


def _group_tuples(dim: int, k: int):
    """One antisymmetric group of ``k`` output axes: its non-decreasing
    value tuples (smallest dtype) and whether each is strictly increasing."""
    tuples = list(combinations_with_replacement(range(dim), k))
    reps = np.array(tuples, np.intp).reshape(len(tuples), k)
    return reps.astype(np.min_scalar_type(dim - 1)), np.all(np.diff(reps, axis=1) > 0, axis=1)


class _Layout:
    """Representatives of the antisymmetry orbits of the free output axes.

    ``groups[side == 'L']`` holds the upper or lower group's output axes,
    its non-decreasing value tuples and whether each is strictly increasing.
    Row ``r`` pairs upper tuple ``r // n_lower`` with lower tuple
    ``r % n_lower``; ``repeated`` flags the rows with a repeated index
    inside a group (their value must be zero).  ``offsets`` holds the
    records' position tables and ``rows``, per set of diagonal pairs and
    streamed output axis, the rows they feed slice by slice (``tables``);
    records share them.

    ``scatter`` is None until ``expand`` first meets a non-zero
    accumulator; then it holds (src, target, sign): every other row, once
    per permutation of its upper and of its lower group, is scattered to
    the flat output position ``target`` as ``value[src] * sign``.  With N
    above the dimension the result is zero, so those tables are never
    built.
    """

    __slots__ = (
        "dim", "out", "shape", "groups", "values", "n_upper", "n_lower", "repeated",
        "scatter", "offsets", "rows",
    )

    def __init__(self, dim: int, out: tuple):
        self.dim = dim
        self.out = out
        self.shape = (dim,) * len(out)
        self.offsets = {}
        self.rows = {}
        self.scatter = None
        self.groups = tuple(
            (axes, *_group_tuples(dim, len(axes)))
            for axes in ([a for a, (s, _) in enumerate(out) if s == side] for side in "UL")
        )
        (_, g_u, d_u), (_, g_l, d_l) = self.groups
        # each output axis's value per upper tuple, as a column, or per lower
        # tuple, as a row: the diagonal masks compare them
        self.values = []
        for a, (side, _) in enumerate(out):
            axes, tuples, _ = self.groups[side == "L"]
            values = tuples[:, axes.index(a)]
            self.values.append(values if side == "L" else values[:, None])
        self.n_upper, self.n_lower = len(g_u), len(g_l)
        self.repeated = ~np.outer(d_u, d_l).reshape(-1)

    def tables(self, out_assign: tuple, diag_pairs: tuple, lead=None) -> tuple:
        """(fu, fl, rows) for one record: entry u of ``fu`` plus entry l of
        ``fl`` is the flat position of the plan's einsum result that feeds
        the row of upper tuple u and lower tuple l, each in the smallest
        integer dtype that holds the result's positions; ``rows`` is the
        shared ``_rows(diag_pairs, lead)``."""
        k = len(out_assign)
        dtype = np.min_scalar_type(self.dim ** k - 1)
        # per group, the output axes the result's axes read, with their strides
        fed = {"U": [], "L": []}
        for q, a in enumerate(out_assign):
            fed[self.out[a][0]].append((a, self.dim ** (k - 1 - q)))
        fu, fl = (self._offsets(side, tuple(fed[side]), dtype) for side in "UL")
        rows = self.rows.get((diag_pairs, lead))
        if rows is None:
            rows = self.rows[diag_pairs, lead] = self._rows(diag_pairs, lead)
        return fu, fl, rows

    def _rows(self, diag_pairs: tuple, lead) -> tuple:
        """The rows a record with ``diag_pairs`` feeds, per slice of its
        plan's result, as (ru, rl): the pairs (ru[i], rl[i]) of upper and
        lower tuple numbers where its diagonal pairs hold (every pair
        without any), each in the smallest dtype of its group (one byte up
        to 256 tuples).  An unstreamed result is one slice.  A streamed one
        is ``dim`` slices, whose leading letter feeds output axis ``lead``:
        slice v holds the rows whose value on that axis is v, read off the
        pairs ordered by that value once."""
        mask = np.ones((self.n_upper, self.n_lower), bool)
        for a1, a2 in diag_pairs:
            mask &= self.values[a1] == self.values[a2]
        ru, rl = np.divmod(np.flatnonzero(mask), self.n_lower)
        ru = ru.astype(np.min_scalar_type(self.n_upper - 1))
        rl = rl.astype(np.min_scalar_type(self.n_lower - 1))
        if lead is None:
            return ((ru, rl),)
        values = self.values[lead].reshape(-1)[rl if self.out[lead][0] == "L" else ru]
        order = np.argsort(values, kind="stable")
        bounds = np.searchsorted(values[order], np.arange(self.dim + 1)).tolist()
        ru, rl = ru[order], rl[order]
        return tuple((ru[lo:hi], rl[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def _offsets(self, side: str, fed: tuple, dtype):
        """Per tuple of group ``side``, the sum of its value on each output
        axis a times stride s, over the pairs (a, s) in ``fed``, as
        ``dtype``; one array per distinct argument set, shared by the
        records that ask for it."""
        key = (side, fed, dtype)
        offsets = self.offsets.get(key)
        if offsets is None:
            axes, tuples, _ = self.groups[side == "L"]
            cols = [axes.index(a) for a, _ in fed]
            strides = np.array([s for _, s in fed], np.intp)
            offsets = self.offsets[key] = (tuples[:, cols] @ strides).astype(dtype)
        return offsets

    def _scatter_tables(self) -> tuple:
        """(src, target, sign) of the class docstring."""
        rows = np.flatnonzero(~self.repeated)
        strides = self.dim ** np.arange(len(self.out) - 1, -1, -1, dtype=np.intp)
        offsets, signs = [], []
        for (axes, tuples, _), numbers in zip(self.groups, np.divmod(rows, self.n_lower)):
            perms, sign = _signed_permutations(len(axes))
            # per row, the flat offset of each permutation of the group's values
            offsets.append(tuples[numbers][:, perms] @ strides[axes])
            signs.append(sign)
        (off_u, off_l), (s_u, s_l) = offsets, signs
        src = np.repeat(rows, len(s_u) * len(s_l))
        target = (off_u[:, :, None] + off_l[:, None, :]).reshape(-1)
        sign = np.tile(np.outer(s_u, s_l).reshape(-1), len(rows))
        return src, target, sign

    def expand(self, acc):
        """The dense output array, a batch's trials first, from the values
        accumulated per representative row (a batch's trials last); a zero
        part when they are all zero."""
        acc = acc.T
        if np.any(acc[..., self.repeated] != 0):
            raise EngineInvariantError(
                "delta contraction is nonzero at a representative with a "
                "repeated antisymmetric index"
            )
        lead = acc.shape[:-1]
        if not np.count_nonzero(acc):
            return _zero_part(lead + self.shape, acc.dtype)
        if self.scatter is None:
            self.scatter = self._scatter_tables()
        src, target, sign = self.scatter
        dense = np.zeros(lead + (math.prod(self.shape),), acc.dtype)
        dense[..., target] = acc[..., src] * sign
        return dense.reshape(lead + self.shape)


def _layout(dim: int, out: tuple) -> _Layout:
    key = (dim, out)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        layout = _LAYOUT_CACHE[key] = _Layout(dim, out)
    return layout


def _group_permutations(groups):
    """All operand orderings that only permute identical operands."""
    slots = {}
    for i, g in enumerate(groups):
        slots.setdefault(g, []).append(i)
    pools = [permutations(v) for v in slots.values()]
    keys = list(slots)
    for combo in product(*pools):
        perm = [0] * len(groups)
        for key, arrangement in zip(keys, combo):
            for src, dst in zip(slots[key], arrangement):
                perm[src] = dst
        yield tuple(perm)


def _perm_sign(p) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _signed_permutations(n: int) -> tuple:
    """(perms, signs): the permutations of range(n) in lexicographic
    order, as the rows of an int8 array, and their signs, the parities of
    their inversion counts."""
    rows = list(permutations(range(n)))
    perms = np.array(rows, np.int8).reshape(len(rows), n)
    inversions = np.zeros(len(rows), np.int64)
    for i in range(n):
        inversions += np.count_nonzero(perms[:, i : i + 1] > perms[:, i + 1 :], axis=1)
    return perms, 1 - 2 * (inversions % 2)


def _slot_involutions(rank: int) -> list:
    """The transpositions and double transpositions of ``rank`` slots."""
    swaps = [((a, b),) for a, b in combinations(range(rank), 2)]
    for a, b, c, d in combinations(range(rank), 4):
        swaps += [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]
    perms = []
    for pairs in swaps:
        perm = list(range(rank))
        for a, b in pairs:
            perm[a], perm[b] = b, a
        perms.append(tuple(perm))
    return perms


def _slot_symmetries(t: Tensor) -> tuple:
    """The slot symmetries of ``t`` read from its data: each transposition
    or double transposition ``perm`` of its slots, with a sign s, such that
    ``np.transpose(part, perm) == s * part`` holds exactly for its rational
    and its sqrt(3) part in every trial.  Nothing else is assumed of it."""
    parts = [p for p in (t._rat, t._irr) if not _is_zero_part(p)]
    negated = [-p for p in parts]
    found = []
    for perm in _slot_involutions(t.rank):
        axes = (0, *(k + 1 for k in perm)) if t.batch else perm
        moved = [np.transpose(p, axes) for p in parts]
        for sign, targets in ((1, parts), (-1, negated)):
            if all(np.array_equal(m, q) for m, q in zip(moved, targets)):
                found.append((perm, sign))
    return tuple(found)


def _row_ids(keys):
    """One bytes id per row of a key array (entries -1..254), ordered as
    the rows are ordered lexicographically, so that sorts and lookups of
    rows run as one-dimensional ones."""
    raw = np.zeros((len(keys), keys.shape[1] + 1), np.uint8)
    raw[:, 1:] = keys + 1
    return raw.view(np.dtype((np.void, raw.shape[1]))).reshape(-1)


def _sum_rows(keys, weights, terms):
    """The distinct rows of ``keys`` in lexicographic order, the summed
    weights of each and the first of ``terms`` that has it."""
    _, first, inverse = np.unique(_row_ids(keys), return_index=True, return_inverse=True)
    sums = np.zeros(len(first), np.int64)
    np.add.at(sums, inverse, weights)
    return keys[first], sums, terms[first]


def _compile_plans(n, dim, binding, op_groups, op_ranks, layout, symmetries=()):
    """Merge the N! permutation terms of the delta into plans.

    Every delta node (side, slot) has one delta edge, plus one traced edge
    when its slot is traced, so each component of a term is either a path
    between two untraced nodes or a cycle of traced slots (a factor
    ``dim``).  Splicing the traced slots out of sigma leaves, per untraced
    slot s, the path from ('L', s) to ('U', tau(s)).  Its two ends are
    operand slots (a contracted letter), an operand slot and an output axis
    (an output letter) or two output axes (a diagonal pair).  Letters are
    numbered by first occurrence under every ordering of identical
    operands and the least labelling is kept, so terms of one plan meet
    under one key.  All of it runs vectorised over all permutations at
    once.

    ``symmetries[g]`` lists the verified slot symmetries of the operands
    of group g as (perm, sign) pairs (``_slot_symmetries``).  When there
    are any, the merged terms are folded further: every one of them is
    applied to the slots of every operand of its group, and terms that one
    carries into each other join one class (``_fold_classes``), which is
    evaluated once, at its least key, with the signed sum of its members'
    coefficients.  Each link is an exact equality of two terms up to the
    sign, so the fold needs nothing else of the symmetries.  With none, the
    plans are exactly the merged terms.
    """
    lower, upper = dict(binding.lower), dict(binding.upper)
    offsets = np.cumsum((0,) + op_ranks)
    n_slots, n_out = int(offsets[-1]), len(binding.out)
    out_axis = {slot: ax for ax, slot in enumerate(binding.out)}

    def end(side, bind, s):
        # path ends: operand slots are 0..n_slots-1, output axis a is n_slots + a
        if s in bind:
            op, k = bind[s]
            return offsets[op] + k
        return n_slots + out_axis[(side, s)]

    untraced = [s for s in range(n) if s not in binding.traced]
    l_end = np.array([end("L", lower, s) for s in untraced], np.int8)
    u_end = np.zeros(n, np.int8)
    u_end[untraced] = [end("U", upper, s) for s in untraced]
    scans = []  # per ordering of identical operands: scanned slots, scan position of each end
    for gp in _group_permutations(op_groups):
        order = np.array([k for o in gp for k in range(offsets[o], offsets[o + 1])], np.intp)
        pos = np.full(n_slots + n_out, n_slots, np.int8)  # output ends sort after every slot
        pos[order] = np.arange(n_slots)
        scans.append((order, pos))
    scan_pos = np.arange(n_slots)

    def canonical(other):
        """The key of each term: ``other[:, e]`` is the far end of the path
        that ends at e; the least labelling over the scans, with the output
        axis each slot feeds and the diagonal partner of each output axis."""
        rows = np.arange(len(other))[:, None]
        best = None
        for order, pos in scans:
            o = other[:, order]
            partner = pos[o]
            is_first = partner > scan_pos
            seen = np.cumsum(is_first, axis=1, dtype=np.int8) - 1
            # per scanned slot: its letter, then the output axis it feeds or -1
            label = np.where(is_first, seen, seen[rows, np.minimum(partner, n_slots - 1)])
            key = np.concatenate((label, np.where(o >= n_slots, o - n_slots, -1)), axis=1)
            if best is None:
                best = key
                continue
            # keep the lexicographically least key of each permutation
            col = (key != best).argmax(axis=1)[:, None]
            less = (key[rows, col] < best[rows, col])[:, 0]
            best[less] = key[less]
        ends = other[:, n_slots:]
        return np.concatenate((best, np.where(ends >= n_slots, ends - n_slots, -1)), axis=1)

    # all N! permutations in lexicographic order, sigma(0) varying slowest
    rest, rest_sign = _signed_permutations(n - 1)
    rest = np.tile(rest, (n, 1))
    first = np.repeat(np.arange(n, dtype=np.int8), len(rest_sign))[:, None]
    sigma = np.concatenate((first, rest + (rest >= first)), axis=1)
    weight = np.tile(rest_sign, n) * np.where(first[:, 0] % 2, -1, 1)
    for t in binding.traced:
        # splice t out of sigma; t mapping to itself closes a traced cycle
        weight = np.where(sigma[:, t] == t, weight * dim, weight)
        sigma = np.where(sigma == t, sigma[:, t : t + 1], sigma)
    far = u_end[sigma[:, untraced]]
    rows = np.arange(len(sigma))[:, None]
    other = np.empty((len(sigma), n_slots + n_out), np.int8)
    other[rows, l_end] = far
    other[rows, far] = l_end
    keys, totals, terms = _sum_rows(canonical(other), weight, other)

    images, signs = [], []
    for o, g in enumerate(op_groups if symmetries else ()):
        for perm, sign in symmetries[g]:
            # the relabelling of all path ends that applies perm to operand o's
            # slots; move[terms[:, move]] is a term's image only because every
            # verified symmetry is an involution (_slot_involutions): any
            # other permutation needs move[terms[:, np.argsort(move)]]
            move = np.arange(n_slots + n_out, dtype=np.int8)
            move[offsets[o] : offsets[o + 1]] = offsets[o] + np.array(perm)
            images.append(move[terms[:, move]])
            signs.append(sign)
    if images:
        totals = _fold_classes(keys, totals, canonical(np.concatenate(images)), signs)
    nonzero = totals != 0
    bounds = offsets.tolist()
    plans: dict = {}  # subscripts -> specs
    for key, coeff in zip(keys[nonzero], totals[nonzero].tolist()):
        key = key.tolist()
        letters = [_LETTERS[c] for c in key[:n_slots]]
        out_axes = key[n_slots : 2 * n_slots]
        out_pos = [q for q, a in enumerate(out_axes) if a >= 0]
        tokens = ["".join(letters[a:b]) for a, b in zip(bounds, bounds[1:])]
        subscripts = ",".join(tokens) + "->" + "".join(letters[q] for q in out_pos)
        out_assign = tuple(out_axes[q] for q in out_pos)
        diag_pairs = tuple((a, b) for a, b in enumerate(key[2 * n_slots :]) if a < b)
        plans.setdefault(subscripts, []).append((out_assign, diag_pairs, coeff))
    return [_Plan(s, specs, layout) for s, specs in plans.items()]


def _fold_classes(keys, totals, images, signs):
    """Fold the merged terms into classes under operand slot symmetries.

    ``keys`` are distinct term keys, sorted as ``_sum_rows`` returns
    them, with coefficients ``totals``.  ``images`` holds one block of
    ``len(keys)`` rows per relabelling: row i of block j is the key of
    term i with one operand's slots permuted by a verified symmetry, and
    has value ``signs[j]`` times term i's.  Each link to a listed key
    joins two classes; a union-find, vectorised over the links, hooks the
    larger root under the smaller and tracks each term's sign against its
    root.  A class whose links disagree on a sign equals its own negative,
    so it is exactly zero and dropped; every other class keeps its least
    key with the signed sum of its members' totals.
    """
    n_keys = len(keys)
    ids = _row_ids(keys)
    image_ids = _row_ids(images)
    hit = np.minimum(np.searchsorted(ids, image_ids), n_keys - 1)
    listed = np.flatnonzero(ids[hit] == image_ids)
    src, dst = listed % n_keys, hit[listed]
    link_sign = np.repeat(np.array(signs, np.int64), n_keys)[listed]

    # term i has value sign[i] times its parent's; roots are their own parent
    parent = np.arange(n_keys)
    sign = np.ones(n_keys, np.int64)
    while True:
        while np.any(parent[parent] != parent):
            sign = sign * sign[parent]
            parent = parent[parent]
        cross = parent[src] != parent[dst]
        if not cross.any():
            break
        a, b = parent[src[cross]], parent[dst[cross]]
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        flip = sign[src[cross]] * link_sign[cross] * sign[dst[cross]] < 0
        # one assignment per root, so parent and sign come from one link
        hook = np.zeros(n_keys, np.int64)
        hook[hi] = 2 * lo + flip
        parent[hi] = hook[hi] // 2
        sign[hi] = 1 - 2 * (hook[hi] % 2)

    sums = np.zeros(n_keys, np.int64)
    np.add.at(sums, parent, sign * totals)
    sums[parent[src[sign[dst] != link_sign * sign[src]]]] = 0
    return sums


def _plans(key: tuple, layout: _Layout) -> list:
    """The plans of ``key`` = (n, dim, binding, groups, op_ranks,
    symmetries): from this process's cache, else from the packaged plans,
    else compiled."""
    plans = _PLAN_CACHE.get(key)
    if plans is None:
        packaged = _packaged_plans(repr(key))
        if packaged is None:
            n, dim, binding, groups, op_ranks, symmetries = key
            plans = _compile_plans(n, dim, binding, groups, op_ranks, layout, symmetries)
        else:
            plans = [
                _Plan(s, [(tuple(a), tuple(map(tuple, d)), c) for a, d, c in records], layout)
                for s, records in packaged
            ]
        _PLAN_CACHE[key] = plans
    return plans


def _packaged_plans(text: str):
    """The [subscripts, records] pairs that ``_PACKAGED_PLANS`` holds for
    the key whose ``repr`` is ``text``, or None; only that key's line is
    parsed."""
    head = json.dumps([text])[:-1] + ","
    with open(_PACKAGED_PLANS, encoding="utf-8") as f:
        for line in f:
            if line.startswith(head):
                return json.loads(line)[1]
    return None


def generalized_delta_contract(
    n_upper: int, dim: int, operands, binding: DeltaBinding
) -> Tensor:
    """Contract the order-``n_upper`` generalized delta with the operands.

    Free slots (per ``binding.out``) become output axes; traced slot pairs
    are summed against each other.  Exact; permutation order never affects
    the result.  Batched operands share one trial count; the rest broadcast.
    """
    operands = list(operands)
    _validate(n_upper, dim, operands, binding)
    batch = max((t.batch for t in operands), default=0)
    if any(t.batch not in (0, batch) for t in operands):
        raise ShapeError("batched operands hold different numbers of trials")
    if any(not t._max for t in operands):
        # every plan's einsum reads a zero operand: nothing to contract
        zero = _zero_part((batch,) * bool(batch) + (dim,) * len(binding.out), np.int64)
        return Tensor(dim, zero, zero, batched=bool(batch))
    terms = _product_terms(operands)
    n = n_upper

    # identical operands (same object) may be exchanged during plan merging
    distinct: dict = {}
    groups = tuple(distinct.setdefault(id(t), (len(distinct), t))[0] for t in operands)
    symmetries = tuple(_slot_symmetries(t) for _, t in distinct.values())
    op_ranks = tuple(t.rank for t in operands)

    layout = _layout(dim, binding.out)
    plans = _plans((n, dim, binding, groups, op_ranks, symmetries), layout)

    max_sum_letters = max((p.n_sum_letters for p in plans), default=0)
    bound = (
        math.factorial(n)
        * dim ** (max_sum_letters + len(binding.traced))
        * _product_bound(operands)
    )
    use_object = bound >= _INT64_LIMIT
    dtype = object if use_object else np.int64

    # accumulators for the rational part and, unless every term of the
    # product is rational, the sqrt(3) part, one row per pair of upper and
    # lower tuple numbers, a batch's trials last, so records index them alike
    sqrt3 = any(side for _, _, side in terms)
    trials = (batch,) if batch else ()
    n_l = layout.n_lower
    accs = [np.zeros((layout.n_upper * n_l,) + trials, dtype) for _ in range(1 + sqrt3)]

    parts = [t._parts(use_object) for t in operands]
    flags = tuple(bool(t.batch) for t in operands)
    for plan in plans:
        # a streamed result one index v of its leading letter at a time, into
        # the rows whose value is v on the output axis the letter feeds; any
        # other result as one slice
        for v in range(dim if plan.lead else 1):
            subscripts, args, shift = plan.subscripts, parts, 0
            if plan.lead:
                op, axis, subscripts, stride = plan.lead
                at = (slice(None),) * (axis + flags[op]) + (v,)
                args = parts[:op] + [tuple(p[at] for p in parts[op])] + parts[op + 1 :]
                shift = v * stride  # where slice v starts in the whole result
            if operands:
                vals = _contract_terms(_batched(subscripts, flags) if batch else subscripts, args, terms)
            else:
                vals = (np.ones(1, dtype),)  # the pure delta
            for acc, w in zip(accs, vals):
                if w is None:
                    continue
                # records gather along the last axis, as numpy's take copies a
                # non-contiguous source whole
                w = w.reshape(trials + (-1,))
                for fu, fl, rows, coeff in plan.tables:
                    # the upper tuple numbers as intp once, for the rows and fu
                    ru, rl = rows[v]
                    ru = ru.astype(np.intp)
                    pos = fu.take(ru) + fl.take(rl)
                    pos -= shift
                    acc[ru * n_l + rl] += coeff * w.take(pos, axis=-1).T

    den = math.prod(t._den for t in operands)
    rat = layout.expand(accs[0])
    irr = layout.expand(accs[1]) if sqrt3 else _zero_part(rat.shape, dtype)
    return Tensor(dim, rat, irr, den, batched=bool(batch))


# ---------------------------------------------------------------------------
# reference evaluation: the determinant summed over its support, the
# independent slow path
# ---------------------------------------------------------------------------


def reference_delta_contract(
    n_upper: int, dim: int, operands, binding: DeltaBinding, out_indices=None
) -> Tensor:
    """Brute-force oracle: sum the determinant definition over the delta's
    support.  delta^{j}_{i} is nonzero only when the lower tuple i is
    distinct and the upper tuple j is a permutation of it (j[p[r]] = i[r]),
    where it is sign(p); every such assignment whose traced slots agree
    adds sign(p) times the operand entries it selects.  Exponentially slow;
    for certification only.  ``out_indices`` restricts evaluation to the
    given output tuples (other components stay zero in the returned
    tensor).  It takes unbatched operands only: one trial."""
    operands = list(operands)
    if any(t.batch for t in operands):
        raise ShapeError("the oracle takes one trial")
    _validate(n_upper, dim, operands, binding)
    n = n_upper
    traced = binding.traced
    out = binding.out
    # per operand, the delta node bound to each of its slots
    op_nodes = [[None] * t.rank for t in operands]
    for side, bind in (("L", binding.lower), ("U", binding.upper)):
        for s, (op, k) in bind:
            op_nodes[op][k] = (side, s)

    den = 1
    for t in operands:
        den *= t._den

    wanted = None if out_indices is None else {tuple(v) for v in out_indices}
    # a lower output slot reads the lower tuple alone, so a lower tuple that
    # no wanted output tuple agrees with there feeds none of them
    lower_out = [(k, s) for k, (side, s) in enumerate(out) if side == "L"]
    wanted_lower = None if wanted is None else {tuple(w[k] for k, _ in lower_out) for w in wanted}
    out_shape = (dim,) * len(out)
    acc_rat = np.zeros(out_shape, dtype=object)
    acc_irr = np.zeros(out_shape, dtype=object)

    # its own sign table, shared with nothing the engine compiles from
    signed = [(p, _perm_sign(p)) for p in permutations(range(n))]
    for i_tuple in permutations(range(dim), n):
        if wanted_lower is not None and tuple(i_tuple[s] for _, s in lower_out) not in wanted_lower:
            continue
        for p, sign in signed:
            j_tuple = [0] * n
            for r in range(n):
                j_tuple[p[r]] = i_tuple[r]
            if any(i_tuple[t] != j_tuple[t] for t in traced):
                continue
            val = {"L": i_tuple, "U": j_tuple}
            out_vals = tuple(val[side][s] for side, s in out)
            if wanted is not None and out_vals not in wanted:
                continue
            prod_rat, prod_irr = sign, 0
            for t, nodes in zip(operands, op_nodes):
                idx = tuple(val[side][s] for side, s in nodes)
                a, b = int(t._rat[idx]), int(t._irr[idx])
                prod_rat, prod_irr = (
                    prod_rat * a + 3 * prod_irr * b,
                    prod_rat * b + prod_irr * a,
                )
            acc_rat[out_vals] += prod_rat
            acc_irr[out_vals] += prod_irr

    return Tensor(dim, acc_rat, acc_irr, den)
