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
(an engine invariant, checked on every call; with N above the dimension
they are all there is); each distinct-index representative is then
written to every permuted position with the product of the two
permutation signs.

Compiled plans persist across processes.  A key missing from the
in-process cache is looked up in a plan file beside this module's
bytecode (``__pycache__``, or under ``sys.pycache_prefix`` when that is
set): a small JSON file named by a CRC-32 of the key's text.  It holds a
format number, this file's size and mtime (the stamp its bytecode
carries), the full ``repr`` of the key (delta order, dimension, binding,
operand identity pattern, operand ranks and verified symmetries) and, per
plan, its subscripts and records.  A file is used only when all of these
match exactly and its contents have the shape the engine writes; anything
else is ignored, compiled afresh and replaced.  The gathers are rebuilt
from this process's layout, so a loaded plan is the compiled one.  Files
are written as bytecode is, so not under ``-B`` or
``PYTHONDONTWRITEBYTECODE``, and not at all where the directory cannot be
written; deleting ``__pycache__`` clears them.  There is no option.

``reference_delta_contract`` is the independent slow path: it sums the
determinant definition over the delta's support (a distinct lower index
tuple and a permutation of it above) and is used by the test suite to
certify the engine.
"""

from __future__ import annotations

import json
import math
import os
import sys
import zlib
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

from .tensor import (
    _INT64_LIMIT,
    _LETTERS,
    _contract_terms,
    _is_zero_part,
    _product_bound,
    _product_terms,
    _zero_part,
    ContractionSpecError,
    ShapeError,
    Tensor,
)


@dataclass(frozen=True)
class DeltaBinding:
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
# where plan files live: the directory of this module's bytecode
_PLAN_DIR = os.path.dirname(globals().get("__cached__") or "") or None
# the layout of a plan file's contents
_PLAN_FORMAT = 2


class _Plan:
    """One einsum and its records.  ``specs`` lists each record as
    (output assignment, diagonal pairs, coefficient); ``records`` holds the
    same with the layout's gather in place of the first two."""

    __slots__ = ("subscripts", "n_sum_letters", "specs", "records")

    def __init__(self, subscripts, specs, layout):
        lhs, _, rhs = subscripts.partition("->")
        self.subscripts = subscripts
        self.n_sum_letters = len(set(lhs) - {","}) - len(rhs)
        self.specs = specs
        self.records = [layout.gather(a, d) + (c,) for a, d, c in specs]


def _strides(dim: int, k: int):
    return dim ** np.arange(k - 1, -1, -1, dtype=np.intp)


def _group_orbits(dim: int, k: int, strides):
    """One antisymmetric group of ``k`` output axes: its non-decreasing
    value tuples, whether each is strictly increasing, and per tuple the
    flat output offsets of all its permutations, with their signs."""
    tuples = list(combinations_with_replacement(range(dim), k))
    reps = np.array(tuples, np.intp).reshape(len(tuples), k)
    perms, signs = _signed_permutations(k)
    distinct = np.all(np.diff(reps, axis=1) > 0, axis=1)
    return reps, distinct, reps[:, perms] @ strides, signs


class _Layout:
    """Representatives of the antisymmetry orbits of the free output axes.

    Row ``r`` of ``idx`` is one output index tuple whose upper-group values
    and lower-group values are each non-decreasing.  ``repeated`` lists the
    rows with a repeated index inside a group (their value must be zero);
    every other row ``src`` is scattered to the flat output position
    ``target`` as ``value[src] * sign``.  Gathers are shared by every
    record with the same output assignment and diagonal pairs.
    """

    __slots__ = ("dim", "shape", "idx", "repeated", "src", "sign", "target", "gathers")

    def __init__(self, dim: int, out: tuple):
        self.dim = dim
        self.shape = (dim,) * len(out)
        self.gathers = {}
        strides = _strides(dim, len(out))
        ax_u = [a for a, (side, _) in enumerate(out) if side == "U"]
        ax_l = [a for a, (side, _) in enumerate(out) if side == "L"]
        g_u, d_u, off_u, s_u = _group_orbits(dim, len(ax_u), strides[ax_u])
        g_l, d_l, off_l, s_l = _group_orbits(dim, len(ax_l), strides[ax_l])
        # row r pairs upper tuple r // len(g_l) with lower tuple r % len(g_l);
        # column-major, as gathers read whole axes
        self.idx = np.empty((len(g_u) * len(g_l), len(out)), np.intp, order="F")
        self.idx[:, ax_u] = np.repeat(g_u, len(g_l), axis=0)
        self.idx[:, ax_l] = np.tile(g_l, (len(g_u), 1))
        distinct = np.outer(d_u, d_l)
        self.repeated = np.flatnonzero(~distinct)
        iu, il = np.nonzero(distinct)
        self.src = np.repeat(iu * len(g_l) + il, len(s_u) * len(s_l))
        self.target = (off_u[iu][:, :, None] + off_l[il][:, None, :]).reshape(-1)
        self.sign = np.tile(np.outer(s_u, s_l).reshape(-1), len(iu))

    def gather(self, out_assign: tuple, diag_pairs: tuple):
        """(rows, flat) for one record: the representative rows where the
        record's diagonal pairs hold, and the flat positions of the plan's
        einsum result that feed those rows."""
        key = (out_assign, diag_pairs)
        cached = self.gathers.get(key)
        if cached is None:
            rows = slice(None)
            if diag_pairs:
                mask = np.ones(len(self.idx), bool)
                for a1, a2 in diag_pairs:
                    mask &= self.idx[:, a1] == self.idx[:, a2]
                rows = np.flatnonzero(mask)
            flat = self.idx[rows][:, list(out_assign)] @ _strides(self.dim, len(out_assign))
            # int32 halves the cached positions; 6**8 fits easily
            cached = self.gathers[key] = (rows, flat.astype(np.int32))
        return cached

    def expand(self, acc):
        """The dense output array from the accumulated representative
        values; a zero part when they are all zero."""
        if np.any(acc[self.repeated] != 0):
            raise EngineInvariantError(
                "delta contraction is nonzero at a representative with a "
                "repeated antisymmetric index"
            )
        if not np.count_nonzero(acc):
            return _zero_part(self.shape, acc.dtype)
        dense = np.zeros(math.prod(self.shape), acc.dtype)
        dense[self.target] = acc[self.src] * self.sign
        return dense.reshape(self.shape)


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
    and its sqrt(3) part.  Nothing else is assumed of an operand."""
    parts = [p for p in (t._rat, t._irr) if not _is_zero_part(p)]
    negated = [-p for p in parts]
    found = []
    for perm in _slot_involutions(t.rank):
        moved = [np.transpose(p, perm) for p in parts]
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
            # the relabelling of all path ends that applies perm to operand o's slots
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
    symmetries): from this process's cache, else from the key's plan file,
    else compiled and written to that file."""
    plans = _PLAN_CACHE.get(key)
    if plans is None:
        n, dim, binding, groups, op_ranks, symmetries = key
        text = repr(key)
        path, stamp = _plan_file(text)
        if path is not None:
            plans = _load_plans(path, stamp, text, n, dim, binding, op_ranks, layout)
        if plans is None:
            plans = _compile_plans(n, dim, binding, groups, op_ranks, layout, symmetries)
            if path is not None and not sys.dont_write_bytecode:
                _save_plans(path, {
                    "format": _PLAN_FORMAT,
                    "stamp": stamp,
                    "key": text,
                    "plans": [[p.subscripts, p.specs] for p in plans],
                })
        _PLAN_CACHE[key] = plans
    return plans


def _plan_file(text: str):
    """The plan file for a key's text and the stamp it must carry, or
    (None, None) when there is nowhere to look."""
    if _PLAN_DIR is None:
        return None, None
    try:
        st = os.stat(__file__)
    except OSError:
        return None, None
    name = f"delta-plans-{zlib.crc32(text.encode()):08x}.json"
    return os.path.join(_PLAN_DIR, name), [st.st_size, int(st.st_mtime)]


def _load_plans(path, stamp, text, n, dim, binding, op_ranks, layout):
    """The plans a plan file holds, or None unless its format, stamp and
    key text match and its contents have exactly the shape ``_plans``
    writes: per plan, subscripts with one token of the right length per
    operand and distinct output letters, and records of in-range output
    axes, in-range axis pairs and integer coefficients whose absolute sum
    stays within the permutation expansion's N! * dim**(traced slots)."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError, RecursionError):
        return None
    if not (
        type(data) is dict
        and data.get("format") == _PLAN_FORMAT
        and data.get("stamp") == stamp
        and data.get("key") == text
        and type(data.get("plans")) is list
    ):
        return None
    n_out = len(binding.out)
    letters = set(_LETTERS)

    def axes(v):
        return type(v) is list and all(type(a) is int and 0 <= a < n_out for a in v)

    total = 0
    plans = []
    for plan in data["plans"]:
        if type(plan) is not list or len(plan) != 2:
            return None
        subscripts, records = plan
        if type(subscripts) is not str or type(records) is not list:
            return None
        lhs, arrow, rhs = subscripts.partition("->")
        used = set(lhs) - {","}
        if not (
            arrow == "->"
            and [len(t) for t in lhs.split(",")] == list(op_ranks or (0,))
            and used <= letters
            and len(set(rhs)) == len(rhs)
            and set(rhs) <= used
        ):
            return None
        specs = []
        for rec in records:
            if type(rec) is not list or len(rec) != 3:
                return None
            out_assign, pairs, coeff = rec
            if not (
                axes(out_assign)
                and len(out_assign) == len(rhs)
                and type(pairs) is list
                and all(axes(p) and len(p) == 2 for p in pairs)
                and type(coeff) is int
            ):
                return None
            total += abs(coeff)
            specs.append((tuple(out_assign), tuple(map(tuple, pairs)), coeff))
        plans.append((subscripts, specs))
    if total > math.factorial(n) * dim ** len(binding.traced):
        return None
    return [_Plan(s, specs, layout) for s, specs in plans]


def _save_plans(path, data):
    """Write a plan file through a per-process temporary name; where the
    directory cannot be written there is simply no file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(data, separators=(",", ":")))
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass


def generalized_delta_contract(
    n_upper: int, dim: int, operands, binding: DeltaBinding
) -> Tensor:
    """Contract the order-``n_upper`` generalized delta with the operands.

    Free slots (per ``binding.out``) become output axes; traced slot pairs
    are summed against each other.  Exact; permutation order never affects
    the result.
    """
    operands = list(operands)
    _validate(n_upper, dim, operands, binding)
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
    # product is rational, the sqrt(3) part
    sqrt3 = any(side for _, _, side in terms)
    accs = [np.zeros(len(layout.idx), dtype) for _ in range(1 + sqrt3)]

    parts = [t._parts(use_object) for t in operands]
    for plan in plans:
        if operands:
            vals = _contract_terms(plan.subscripts, parts, terms)
        else:
            vals = (np.ones(1, dtype),)  # the pure delta
        for acc, v in zip(accs, vals):
            if v is None:
                continue
            v = v.reshape(-1)
            for rows, flat, coeff in plan.records:
                acc[rows] += coeff * v[flat]

    den = 1
    for t in operands:
        den *= t._den
    rat = layout.expand(accs[0])
    irr = layout.expand(accs[1]) if sqrt3 else _zero_part(rat.shape, dtype)
    return Tensor(dim, rat, irr, den)


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
    tensor)."""
    operands = list(operands)
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
    out_shape = (dim,) * len(out)
    acc_rat = np.zeros(out_shape, dtype=object)
    acc_irr = np.zeros(out_shape, dtype=object)

    # its own sign table, shared with nothing the engine compiles from
    signed = [(p, _perm_sign(p)) for p in permutations(range(n))]
    for i_tuple in permutations(range(dim), n):
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
