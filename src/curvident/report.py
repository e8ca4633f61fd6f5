"""Run orchestration: which identities apply to a model, verdicts, and
the stable JSON report format.

A RunReport passes iff every residual whose hypothesis the model
satisfies is identically zero; identities named in ``expect_fail`` must
instead be nonzero (documented negative controls).  The exported JSON is
byte-stable for fixed inputs: keys are emitted in a fixed order and the
wall-clock time is deliberately not part of the file.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple, Optional

from .scalar import Scalar
from .curvature import (
    CurvatureTensor,
    InvariantReport,
    TwoSteinReport,
    invariants,
    two_stein_check,
)
from .identities import (
    IdentityArgumentError,
    ResidualReport,
    einstein5_residual,
    einstein5_trace_residual,
    einstein6_residual,
    einstein6_trace_residual,
    einstein6_trace_residual_alt,
    gauss_bonnet_integrand_6,
    make_report,
    max_r,
    patterson_residual,
    super5_residual,
    super5_trace_residual,
    super6_residual,
    super6_trace_residual,
    weyl_expansion_residual,
    weyl_patterson_residual,
)
from .models import ModelSpec, explicit_spec
from .tensor import Tensor, lincomb


class _Identity(NamedTuple):
    """An id's dimensions, the hypothesis its random inputs need, and its
    evaluator: R -> reports, or (R, (r, mode) runs) -> reports if ``delta``;
    ``rank`` is the largest rank of a tensor the evaluator builds on a
    batch, bar a delta id's residuals, whose runs set theirs (chunk_size)."""

    dims: range
    hypothesis: str  # universal | einstein | super_einstein
    evaluate: Callable
    delta: bool = False
    rank: int = 4


def _patterson(R: CurvatureTensor, runs) -> list:
    return [patterson_residual(R, r, mode) for r, mode in runs]


def _weyl_patterson(R: CurvatureTensor, runs) -> list:
    reports = [weyl_patterson_residual(R, r, mode) for r, mode in runs]
    if R.dim in (5, 6) and any(r == 2 for r, _ in runs):
        reports.append(weyl_expansion_residual(R))
    return reports


def _thm_b_a(R: CurvatureTensor) -> list:
    a, alt = einstein6_trace_residual(R), einstein6_trace_residual_alt(R)
    same = lincomb([(1, a.residual), (-1, alt.residual)])
    return [a, alt, make_report("thmB-a-vs-thm22", "universal", same)]


def _appendix34(R: CurvatureTensor) -> list:
    from .expansion6 import group_residuals

    *groups, total = group_residuals(R)
    reports = [
        make_report(f"appendix34[{k}]", "einstein", res)
        for k, res in enumerate(groups, start=1)
    ]
    reports.append(make_report("appendix34[sum]", "einstein", total))
    return reports


# evaluators are looked up as module globals at call time, so a patched or
# wrapped ``*_residual`` function is the one that runs
_IDENTITIES = {
    "patterson": _Identity(range(2, 7), "universal", _patterson, delta=True),
    "weyl-patterson": _Identity(range(3, 7), "universal", _weyl_patterson, delta=True),
    "lemma5": _Identity(range(5, 6), "einstein", lambda R: [einstein5_residual(R)]),
    "thmA-a": _Identity(range(5, 6), "einstein", lambda R: [einstein5_trace_residual(R)]),
    "pa5": _Identity(range(5, 6), "super_einstein", lambda R: [super5_residual(R)]),
    "thmA-b": _Identity(range(5, 6), "super_einstein", lambda R: [super5_trace_residual(R)]),
    "lemma6": _Identity(range(6, 7), "einstein", lambda R: [einstein6_residual(R)], rank=6),
    "thmB-a": _Identity(range(6, 7), "einstein", _thm_b_a),
    "eq42": _Identity(range(6, 7), "super_einstein", lambda R: [super6_residual(R)], rank=6),
    "thmB-b": _Identity(range(6, 7), "super_einstein", lambda R: [super6_trace_residual(R)]),
    "appendix34": _Identity(range(6, 7), "einstein", _appendix34, rank=6),
}

IDENTITY_IDS = tuple(_IDENTITIES)

# random-check evaluates its trials in chunks of B trials, with B * dim**rank
# at most this many entries for the id's largest tensor: the rank-6 residual
# of lemma6, eq42 and appendix34 (B = 2 in dim 6) or a delta id's residual at
# its run.  A rank-6 lincomb streams over its leading index, so a non-delta
# id's chunk holds a rank-6 array only for a non-zero residual
CHUNK_ENTRIES = 2 * 6 ** 6


def _run_rank(dim: int, r: int, mode: str) -> int:
    """A delta id's residual rank at ``r``: 2, and 2 per leftover pair left free."""
    return 2 + 2 * (dim - 2 * r) if mode == "free" else 2


def chunk_size(ident: str, dim: int, runs=()) -> int:
    """The trials per chunk of a random-check of ``ident`` in ``dim``, at a
    delta id's (r, mode) ``runs``."""
    rank = max([_IDENTITIES[ident].rank, *(_run_rank(dim, *run) for run in runs)])
    return max(1, CHUNK_ENTRIES // dim ** rank)


def applicable_identities(dim: int) -> list:
    return [ident for ident, entry in _IDENTITIES.items() if dim in entry.dims]


def _resolve(ident: str, dim: int, r=None, mode=None):
    """The table entry of ``ident`` and, for a delta id, its (r, mode) runs in
    ``dim`` (see run_identity); IdentityArgumentError for an unknown id, a
    dim the id does not apply to, an r out of range, an r or mode given
    to an id that takes none, or mode 'free' where an r's free rank exceeds
    the maximum tensor rank."""
    entry = _IDENTITIES.get(ident)
    if entry is None:
        raise IdentityArgumentError(f"unknown identity {ident!r}")
    dims = entry.dims
    if dim not in dims:
        span = f"{dims[0]}" if len(dims) == 1 else f"{dims[0]}..{dims[-1]}"
        raise IdentityArgumentError(f"{ident} applies to dim {span}, not {dim}")
    if not entry.delta:
        if r is not None or mode is not None:
            raise IdentityArgumentError(
                f"--r and --mode apply to patterson and weyl-patterson, not {ident!r}"
            )
        return entry, []
    if r is not None and not 1 <= r <= max_r(dim):
        raise IdentityArgumentError(f"--r {r} out of range 1..{max_r(dim)} for dim {dim}")
    runs = []
    for k in range(1, max_r(dim) + 1) if r is None else [r]:
        free_rank = _run_rank(dim, k, "free")
        if mode == "free" and free_rank > Tensor.MAX_RANK:
            raise IdentityArgumentError(
                f"--mode free at dim {dim}, r={k} gives rank {free_rank}"
                f" > {Tensor.MAX_RANK}; use --mode traced or a larger --r"
            )
        runs.append((k, mode or ("free" if free_rank <= Tensor.MAX_RANK else "traced")))
    return entry, runs


def run_identity(ident: str, R: CurvatureTensor, r=None, mode=None) -> list:
    """Evaluate one identity id on a curvature tensor; returns the list of
    ResidualReports it expands to.  A delta identity (patterson,
    weyl-patterson) runs at ``r`` or, with r=None, at every valid r; its
    mode is ``mode`` or, with mode=None, the one each r's free rank allows."""
    entry, runs = _resolve(ident, R.dim, r, mode)
    return entry.evaluate(R, runs) if entry.delta else entry.evaluate(R)


def run_trials(ident: str, R: CurvatureTensor, r=None, mode=None):
    """The report lists of the trials of a batched ``R``, in trial order,
    each what run_identity gives on that trial's own tensor: the id is
    evaluated once on the whole batch, and each batched residual is split
    into its trials' residuals."""
    return zip(*(
        [make_report(rep.identity, rep.hypothesis, t) for t in rep.residual.split()]
        for rep in run_identity(ident, R, r, mode)
    ))


class RunReport:
    """The outcome of one model's run; ``model`` is resolved to explicit
    components (see evaluate_model), and ``elapsed_ms`` is set by the
    caller that timed it."""

    __slots__ = ("model", "invariants", "two_stein", "gauss_bonnet", "residuals",
                 "expect_fail", "elapsed_ms")

    def __init__(self, model: ModelSpec, invariants: InvariantReport, two_stein: TwoSteinReport,
                 gauss_bonnet: Optional[Scalar], residuals=(), expect_fail: tuple = (),
                 elapsed_ms: int = 0):
        self.model = model
        self.invariants = invariants
        self.two_stein = two_stein
        self.gauss_bonnet = gauss_bonnet
        self.residuals = list(residuals)
        self.expect_fail = expect_fail
        self.elapsed_ms = elapsed_ms

    def _satisfied(self, hypothesis: str) -> bool:
        if hypothesis == "universal":
            return True
        if hypothesis == "einstein":
            return self.invariants.einstein
        if hypothesis == "super_einstein":
            return self.invariants.super_einstein
        raise ValueError(f"unknown hypothesis {hypothesis!r}")

    def report_ok(self, rep: ResidualReport) -> bool:
        base = rep.identity.split("[")[0]
        if base in self.expect_fail:
            return not rep.is_zero
        return rep.is_zero or not self._satisfied(rep.hypothesis)

    @property
    def verdict(self) -> str:
        return "pass" if all(self.report_ok(r) for r in self.residuals) else "fail"

    def to_json(self) -> dict:
        out = {
            "model": self.model.to_json(),
            "invariants": self.invariants.to_json(),
            "two_stein": self.two_stein.to_json(),
        }
        if self.gauss_bonnet is not None:
            out["gauss_bonnet"] = self.gauss_bonnet.format()
        out["residuals"] = [r.to_json() for r in self.residuals]
        if self.expect_fail:
            out["expect_fail"] = sorted(self.expect_fail)
        out["verdict"] = self.verdict
        return out


def evaluate_model(
    model: ModelSpec, R: CurvatureTensor, identity_set, expect_fail=()
) -> RunReport:
    """The report of ``R``, the curvature tensor of ``model``.  The report
    carries ``R`` as explicit components (an explicit ``model`` as given),
    so an exported report can be re-verified from the file alone."""
    inv = invariants(R)
    ts = two_stein_check(R)
    gb = gauss_bonnet_integrand_6(R) if R.dim == 6 else None
    residuals = [rep for ident in identity_set for rep in run_identity(ident, R)]
    return RunReport(
        model=model if model.kind == "explicit" else explicit_spec(R),
        invariants=inv,
        two_stein=ts,
        gauss_bonnet=gb,
        residuals=residuals,
        expect_fail=tuple(expect_fail),
    )


def report_to_text(run: RunReport, tables: bool = True) -> str:
    lines = []
    inv = run.invariants
    lines.append(f"tau:            {inv.tau.format()}")
    lines.append(f"ricci_norm_sq:  {inv.ricci_norm_sq.format()}")
    lines.append(f"r_norm_sq:      {inv.r_norm_sq.format()}")
    lines.append(f"r_hat0:         {inv.r_hat0.format()}")
    lines.append(f"r_ring0:        {inv.r_ring0.format()}")
    if tables:
        for name in ("ricci", "t_check", "r_check", "r_hat2", "r_ring2"):
            t = getattr(inv, name)
            lines.append(f"{name}:")
            for i in range(t.dim):
                row = "  ".join(t.item(i, j).format() for j in range(t.dim))
                lines.append(f"  [{row}]")
    lines.append(f"einstein:       {str(inv.einstein).lower()}")
    lines.append(f"super_einstein: {str(inv.super_einstein).lower()}")
    ts = run.two_stein
    lines.append(f"two_stein:      {str(ts.is_two_stein).lower()}")
    if ts.mu1 is not None:
        lines.append(f"mu1:            {ts.mu1.format()}")
    if ts.mu2 is not None:
        lines.append(f"mu2:            {ts.mu2.format()}")
    if run.gauss_bonnet is not None:
        lines.append(f"gauss_bonnet:   {run.gauss_bonnet.format()}")
    for rep in run.residuals:
        status = "zero" if rep.is_zero else "NONZERO"
        witness, extra = rep.witness, ""
        if witness is not None:
            idx, val = witness
            extra = f"  witness {list(idx)} = {val.format()}"
        ok = "ok" if run.report_ok(rep) else "FAIL"
        lines.append(
            f"{rep.identity:<28} [{rep.hypothesis}] {status:<8} {ok}{extra}"
        )
    if run.residuals:
        lines.append(f"verdict: {run.verdict}  ({run.elapsed_ms} ms)")
    return "\n".join(lines)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
