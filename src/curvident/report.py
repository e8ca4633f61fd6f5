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
from dataclasses import dataclass, field
from typing import Optional

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
from .tensor import Tensor

IDENTITY_IDS = (
    "patterson",
    "weyl-patterson",
    "lemma5",
    "thmA-a",
    "pa5",
    "thmA-b",
    "lemma6",
    "thmB-a",
    "eq42",
    "thmB-b",
    "appendix34",
)


def applicable_identities(dim: int) -> list:
    ids = ["patterson"]
    if dim >= 3:
        ids.append("weyl-patterson")
    if dim == 5:
        ids += ["lemma5", "thmA-a", "pa5", "thmA-b"]
    if dim == 6:
        ids += ["lemma6", "thmB-a", "eq42", "thmB-b", "appendix34"]
    return ids


def _patterson_mode(dim: int, r: int) -> str:
    free_rank = 2 + 2 * (dim - 2 * r)
    return "free" if free_rank <= Tensor.MAX_RANK else "traced"


def run_identity(ident: str, R: CurvatureTensor) -> list:
    """Evaluate one identity id on a curvature tensor; returns the list of
    ResidualReports it expands to."""
    dim = R.dim
    if ident == "patterson":
        return [
            patterson_residual(R, r, _patterson_mode(dim, r))
            for r in range(1, max_r(dim) + 1)
        ]
    if ident == "weyl-patterson":
        reports = [
            weyl_patterson_residual(R, r, _patterson_mode(dim, r))
            for r in range(1, max_r(dim) + 1)
        ]
        if dim in (5, 6):
            reports.append(weyl_expansion_residual(R))
        return reports
    if ident == "lemma5":
        return [einstein5_residual(R)]
    if ident == "thmA-a":
        return [einstein5_trace_residual(R)]
    if ident == "pa5":
        return [super5_residual(R)]
    if ident == "thmA-b":
        return [super5_trace_residual(R)]
    if ident == "lemma6":
        return [einstein6_residual(R)]
    if ident == "thmB-a":
        a = einstein6_trace_residual(R)
        alt = einstein6_trace_residual_alt(R)
        same = make_report(
            "thmB-a-vs-thm22", "universal", a.residual - alt.residual
        )
        return [a, alt, same]
    if ident == "eq42":
        return [super6_residual(R)]
    if ident == "thmB-b":
        return [super6_trace_residual(R)]
    if ident == "appendix34":
        from .expansion6 import term_groups, group_sum_check

        groups = term_groups(R)
        reports = [
            make_report(f"appendix34[{k}]", "einstein", lhs - rhs)
            for k, lhs, rhs in groups
        ]
        total, eight = group_sum_check(R, groups=groups)
        reports.append(make_report("appendix34[sum]", "einstein", total - eight))
        return reports
    raise IdentityArgumentError(f"unknown identity id {ident!r}")


@dataclass
class RunReport:
    model: ModelSpec  # resolved to explicit components, see evaluate_model
    invariants: InvariantReport
    two_stein: TwoSteinReport
    gauss_bonnet: Optional[Scalar]
    residuals: list = field(default_factory=list)
    expect_fail: tuple = ()
    elapsed_ms: int = 0

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
        extra = ""
        if rep.witness is not None:
            idx, val = rep.witness
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
