"""Generalized Kronecker delta contraction.

The order-N generalized Kronecker delta is the N x N determinant of
ordinary deltas over an upper and a lower index list.  Contracted against
operand tensors it is evaluated here by expanding the determinant as a
signed sum over the N! permutations; each permutation term becomes an
ordinary contraction plan (an einsum) of the operands, and terms whose
plans coincide after canonical relabelling (including exchange of
identical operands) are merged with multiplicity.  With N exceeding the
dimension the result is identically zero as a tensor identity, which is
exactly what the curvature identities exploit; the engine discovers this
zero by exact cancellation, never by shortcut.

The delta is antisymmetric in its upper slots and in its lower slots, so
the free output axes split into an upper and a lower antisymmetric group.
Each permutation term is accumulated only at one representative per
orbit: the non-decreasing index tuples of each group.  Representatives
with a repeated index are evaluated too and must cancel to exactly zero
(an engine invariant, checked on every call; with N above the dimension
they are all there is); each distinct-index representative is then
written to every permuted position with the product of the two
permutation signs.

``reference_delta_contract`` is the independent slow path: it evaluates
the determinant definition per component and is used by the test suite to
certify the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from .tensor import (
    _INT64_LIMIT,
    _INTERP,
    _LETTERS,
    _SAFETY,
    _einsum_exact,
    _fold_points,
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
            free_l = [s for s in range(n) if s not in dict(lower_t) and s not in traced_t]
            free_u = [s for s in range(n) if s not in dict(upper_t) and s not in traced_t]
            out = []
            for s in sorted(set(free_u) | set(free_l)):
                if s in free_u:
                    out.append(("U", s))
                if s in free_l:
                    out.append(("L", s))
        return DeltaBinding(lower_t, upper_t, traced_t, tuple((str(a), int(b)) for a, b in out))


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
    for side, bind in (("L", lower), ("U", upper)):
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
    free = set()
    for s in range(n):
        if s in traced:
            continue
        if s not in upper:
            free.add(("U", s))
        if s not in lower:
            free.add(("L", s))
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


class _Plan:
    __slots__ = ("subscripts", "records", "n_sum_letters")

    def __init__(self, subscripts, n_sum_letters):
        self.subscripts = subscripts
        self.n_sum_letters = n_sum_letters
        self.records = {}


def _strides(dim: int, k: int):
    return dim ** np.arange(k - 1, -1, -1, dtype=np.intp)


def _group_orbits(dim: int, k: int, strides):
    """One antisymmetric group of ``k`` output axes: its non-decreasing
    value tuples, whether each is strictly increasing, and per tuple the
    flat output offsets of all its permutations, with their signs."""
    tuples = list(combinations_with_replacement(range(dim), k))
    reps = np.array(tuples, np.intp).reshape(len(tuples), k)
    table = _signed_permutations(k)
    perms = np.array([p for p, _ in table], np.intp).reshape(len(table), k)
    signs = np.array([sg for _, sg in table], np.int64)
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
        # row r pairs upper tuple r // len(g_l) with lower tuple r % len(g_l)
        self.idx = np.empty((len(g_u) * len(g_l), len(out)), np.intp)
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
        """The dense output array from the accumulated representative values."""
        if np.any(acc[self.repeated] != 0):
            raise EngineInvariantError(
                "delta contraction is nonzero at a representative with a "
                "repeated antisymmetric index"
            )
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


# signed permutations per order n, built on first use of n
_PERM_TABLE: dict = {}


def _signed_permutations(n: int) -> list:
    table = _PERM_TABLE.get(n)
    if table is None:
        table = [(p, _perm_sign(p)) for p in permutations(range(n))]
        _PERM_TABLE[n] = table
    return table


def _compile_plans(n, dim, binding, op_groups, op_ranks, layout):
    lower = dict(binding.lower)
    upper = dict(binding.upper)
    traced = set(binding.traced)
    out_axis = {slot: ax for ax, slot in enumerate(binding.out)}
    n_ops = len(op_ranks)
    group_perms = list(_group_permutations(op_groups)) if n_ops else [()]
    plans: dict = {}

    for sigma in permutations(range(n)):
        sign = _perm_sign(sigma)
        # union-find over delta slots: ('L', s) and ('U', s)
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in range(n):
            parent[("L", s)] = ("L", s)
            parent[("U", s)] = ("U", s)
        for s in range(n):
            a, b = find(("L", s)), find(("U", sigma[s]))
            if a != b:
                parent[a] = b
        for t in traced:
            a, b = find(("L", t)), find(("U", t))
            if a != b:
                parent[a] = b

        comps: dict = {}
        for s in range(n):
            for node in (("L", s), ("U", s)):
                comps.setdefault(find(node), []).append(node)

        cycles = 0
        op_comp = {}  # (op, opslot) -> component root
        comp_out = {}  # root -> list of output axes
        comp_ops = {}  # root -> list of (op, opslot)
        for root, nodes in comps.items():
            ops, outs = [], []
            for side, s in nodes:
                bind = lower if side == "L" else upper
                if s in bind:
                    ops.append(bind[s])
                elif s not in traced:
                    outs.append(out_axis[(side, s)])
            if not ops and not outs:
                cycles += 1
            comp_ops[root] = ops
            comp_out[root] = outs
            for akey in ops:
                op_comp[akey] = root

        diag_pairs = tuple(
            sorted(
                tuple(sorted(outs))
                for root, outs in comp_out.items()
                if not comp_ops[root] and len(outs) > 1
            )
        )

        best = None
        for gp in group_perms:
            # operand at feed position p contributes the binding of operand gp[p]
            letter_of = {}
            tokens = []
            out_letters = []
            out_assign = []
            for p in range(n_ops):
                src = gp[p]
                tok = []
                for k in range(op_ranks[src]):
                    root = op_comp[(src, k)]
                    if root not in letter_of:
                        letter_of[root] = _LETTERS[len(letter_of)]
                        if comp_out[root]:
                            out_letters.append(letter_of[root])
                            out_assign.append(comp_out[root][0])
                    tok.append(letter_of[root])
                tokens.append("".join(tok))
            cand = (tuple(tokens), tuple(out_letters), tuple(out_assign))
            if best is None or cand[:2] < best[:2] or (
                cand[:2] == best[:2] and cand < best
            ):
                best = cand
        tokens, out_letters, out_assign = best if best else ((), (), ())

        subscripts = ",".join(tokens) + "->" + "".join(out_letters)
        n_sum_letters = (
            len({c for tok in tokens for c in tok}) - len(out_letters) if n_ops else 0
        )
        key = (subscripts,)
        plan = plans.get(key)
        if plan is None:
            plan = _Plan(subscripts, n_sum_letters)
            plans[key] = plan
        rec_key = (tuple(out_assign), diag_pairs)
        coeff = sign * dim ** cycles
        plan.records[rec_key] = plan.records.get(rec_key, 0) + coeff

    compiled = []
    for plan in plans.values():
        plan.records = [
            layout.gather(out_assign, diag_pairs) + (coeff,)
            for (out_assign, diag_pairs), coeff in plan.records.items()
            if coeff != 0
        ]
        if plan.records:
            compiled.append(plan)
    return compiled


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
    n = n_upper

    # identical operands (same object) may be exchanged during plan merging
    groups = []
    seen_ids: dict = {}
    for t in operands:
        groups.append(seen_ids.setdefault(id(t), len(seen_ids)))
    op_ranks = tuple(t.rank for t in operands)

    layout = _layout(dim, binding.out)
    cache_key = (n, dim, binding, tuple(groups), op_ranks)
    plans = _PLAN_CACHE.get(cache_key)
    if plans is None:
        plans = _compile_plans(n, dim, binding, tuple(groups), op_ranks, layout)
        _PLAN_CACHE[cache_key] = plans

    n_ops = len(operands)
    max_sum_letters = max((p.n_sum_letters for p in plans), default=0)
    bound = (
        math.factorial(n)
        * dim ** (max_sum_letters + len(binding.traced))
        * _SAFETY[max(n_ops, 1)]
    )
    for t in operands:
        bound *= max(t._max, 1)
    use_object = bound >= _INT64_LIMIT
    dtype = object if use_object else np.int64

    acc_rat = np.zeros(len(layout.idx), dtype)
    acc_irr = np.zeros(len(layout.idx), dtype)

    if n_ops:
        pts = _INTERP[n_ops][2]
        evals = [
            {x: t._eval_at(x, use_object) for x in pts} for t in operands
        ]

    for plan in plans:
        if n_ops:
            p_rat, p_irr = _fold_points(
                [
                    _einsum_exact(plan.subscripts, [evals[i][x] for i in range(n_ops)])
                    for x in pts
                ]
            )
            parts = ((acc_rat, p_rat.reshape(-1)), (acc_irr, p_irr.reshape(-1)))
        else:
            parts = ((acc_rat, np.ones(1, dtype)),)  # pure delta has no sqrt(3) part
        for rows, flat, coeff in plan.records:
            for acc, vals in parts:
                acc[rows] += coeff * vals[flat]

    den = 1
    for t in operands:
        den *= t._den
    return Tensor(dim, layout.expand(acc_rat), layout.expand(acc_irr), den)


# ---------------------------------------------------------------------------
# reference evaluation: per-component determinant, the independent slow path
# ---------------------------------------------------------------------------


def _delta_value(i_tuple, j_tuple, memo) -> int:
    """delta^{j}_{i} by the determinant's Leibniz expansion, memoized on the
    equality pattern of the index tuples."""
    relabel = {}
    key = []
    for v in i_tuple + j_tuple:
        if v not in relabel:
            relabel[v] = len(relabel)
        key.append(relabel[v])
    key = tuple(key)
    val = memo.get(key)
    if val is None:
        n = len(i_tuple)
        val = 0
        for p, sign in _signed_permutations(n):
            prod_ = 1
            for r in range(n):
                if i_tuple[r] != j_tuple[p[r]]:
                    prod_ = 0
                    break
            val += sign * prod_
        memo[key] = val
    return val


def reference_delta_contract(
    n_upper: int, dim: int, operands, binding: DeltaBinding, out_indices=None
) -> Tensor:
    """Brute-force oracle: sum the determinant definition over all bound
    index assignments.  Exponentially slow; for certification only.
    ``out_indices`` restricts evaluation to the given output tuples
    (other components stay zero in the returned tensor)."""
    operands = list(operands)
    _validate(n_upper, dim, operands, binding)
    n = n_upper
    lower = dict(binding.lower)
    upper = dict(binding.upper)
    traced = list(binding.traced)
    out = list(binding.out)

    # integer views of operands with a common denominator handled at the end
    op_rat = [t._rat for t in operands]
    op_irr = [t._irr for t in operands]
    den = 1
    for t in operands:
        den *= t._den

    bound_slots = [("L", s) for s in sorted(lower)] + [("U", s) for s in sorted(upper)]
    memo: dict = {}
    out_shape = (dim,) * len(out)
    acc_rat = np.zeros(out_shape, dtype=object)
    acc_irr = np.zeros(out_shape, dtype=object)

    if out_indices is None:
        out_indices = product(range(dim), repeat=len(out))
    for out_vals in out_indices:
        out_vals = tuple(out_vals)
        slot_val = {}
        for (side, s), v in zip(out, out_vals):
            slot_val[(side, s)] = v
        tot_rat, tot_irr = 0, 0
        for tr_vals in product(range(dim), repeat=len(traced)):
            for t, v in zip(traced, tr_vals):
                slot_val[("L", t)] = v
                slot_val[("U", t)] = v
            for b_vals in product(range(dim), repeat=len(bound_slots)):
                for bs, v in zip(bound_slots, b_vals):
                    slot_val[bs] = v
                i_tuple = tuple(slot_val[("L", s)] for s in range(n))
                j_tuple = tuple(slot_val[("U", s)] for s in range(n))
                d = _delta_value(i_tuple, j_tuple, memo)
                if d == 0:
                    continue
                prod_rat, prod_irr = d, 0
                for op, t in enumerate(operands):
                    idx = [0] * t.rank
                    for s, (o, k) in lower.items():
                        if o == op:
                            idx[k] = slot_val[("L", s)]
                    for s, (o, k) in upper.items():
                        if o == op:
                            idx[k] = slot_val[("U", s)]
                    a = int(op_rat[op][tuple(idx)])
                    b = int(op_irr[op][tuple(idx)])
                    prod_rat, prod_irr = (
                        prod_rat * a + 3 * prod_irr * b,
                        prod_rat * b + prod_irr * a,
                    )
                tot_rat += prod_rat
                tot_irr += prod_irr
        acc_rat[out_vals] = tot_rat
        acc_irr[out_vals] = tot_irr

    return Tensor(dim, acc_rat, acc_irr, den)
