"""Command-line interface.

Subcommands::

    curvident invariants   --model sl3so3
    curvident verify       --model example5d --k 1 --set thmA-a
    curvident verify       --model example5d --k 1 --set thmA-b --expect-fail thmA-b
    curvident random-check --dim 6 --identity patterson --r 2 -n 100 --seed 7
    curvident export       --model sl3so3 --out report.json

Exit codes: 0 pass, 1 identity failure, 2 usage or input error, 3 internal
error (a defect of curvident, reported with its traceback).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .scalar import Scalar, ScalarParseError
from .tensor import ShapeError, ContractionSpecError
from .curvature import CurvatureValidationError
from .models import (
    ModelSpec,
    ModelSpecError,
    build,
    einsteinize,
    load_model,
    random_curvature,
    _INTEGER_PARAMS,
    _KINDS,
)
from .report import (
    IDENTITY_IDS,
    applicable_identities,
    dump_json,
    evaluate_model,
    report_to_text,
    run_identity,
    _resolve,
)
from .identities import IdentityArgumentError

_INPUT_ERRORS = (
    ModelSpecError,
    ScalarParseError,
    ShapeError,
    ContractionSpecError,
    CurvatureValidationError,
    IdentityArgumentError,
    OSError,
)

# catalog name -> (model kind, the parameters the name fixes); the options
# in _PARAM_OPTIONS give the kind's other parameters
_CATALOG = {
    "flat": ("constant_curvature", {"k": Scalar(0)}),
    "constant": ("constant_curvature", {}),
    "example5d": ("example_5d", {}),
    "example6d": ("example_6d", {}),
    "sl3so3": ("sl3_so3", {}),
    "nikolayevsky": ("nikolayevsky", {}),
    "random-einstein": ("random_einstein", {}),
}
_PARAM_OPTIONS = {
    "dim": "--dim",
    "k": "--k",
    "alpha": "--alpha",
    "beta": "--beta",
    "seed": "--seed",
    "n_terms": "--terms",
}
# the options that take scalar text
_SCALAR_OPTIONS = tuple(
    opt for key, opt in _PARAM_OPTIONS.items() if key not in _INTEGER_PARAMS
)


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument(
        "--model",
        required=True,
        help=f"catalog name ({', '.join(_CATALOG)}) or a model JSON file path",
    )
    p.add_argument("--dim", type=int, help="dimension (flat/constant/random-einstein)")
    p.add_argument("--k", default="1", help="curvature parameter, scalar text")
    p.add_argument("--alpha", help="first normal-form parameter, scalar text")
    p.add_argument("--beta", help="second normal-form parameter, scalar text")
    p.add_argument("--seed", type=int, default=1, help="generator seed")
    p.add_argument("--terms", type=int, default=4, help="generator term count")


def _attach_scalar_values(argv: list) -> list:
    """``--k -2/3`` as ``--k=-2/3``: argparse reads a separate word starting
    with '-' as an option unless it looks like a plain negative number, and
    scalar text such as -2/3 or -1+1*sqrt(3) does not."""
    out = []
    for word in argv:
        if out and out[-1] in _SCALAR_OPTIONS and word[:1] == "-" and word[:2] != "--":
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _resolve_spec(args) -> ModelSpec:
    name = args.model
    if os.sep in name or name.endswith(".json") or os.path.isfile(name):
        return load_model(name)
    if name not in _CATALOG:
        raise ModelSpecError("/kind", f"unknown model {name!r}")
    kind, params = _CATALOG[name]
    params = dict(params)
    for key in _KINDS[kind][0]:
        if key in params:
            continue
        option = _PARAM_OPTIONS[key]
        value = getattr(args, option[2:])
        if value is None:
            raise ModelSpecError(f"/params/{key}", f"{name} requires {option}")
        params[key] = value if key in _INTEGER_PARAMS else Scalar.parse(value)
    return ModelSpec(kind, params)


def _repeated(ids, option: str):
    for ident in ids:
        if ids.count(ident) > 1:
            raise IdentityArgumentError(f"{option} names {ident!r} more than once")


def _identity_set(arg: str, dim: int) -> list:
    if arg is None or arg == "all":
        return applicable_identities(dim)
    ids = [s.strip() for s in arg.split(",") if s.strip()]
    if not ids:
        raise IdentityArgumentError(f"--set {arg!r} names no identity")
    for ident in ids:
        if ident not in IDENTITY_IDS:
            raise IdentityArgumentError(
                f"unknown identity {ident!r}; choose from {', '.join(IDENTITY_IDS)} or 'all'"
            )
        _resolve(ident, dim)  # raises for a dim the id does not apply to
    _repeated(ids, "--set")
    return ids


def _cmd_invariants(args) -> int:
    spec = _resolve_spec(args)
    R = build(spec)
    run = evaluate_model(spec, R, identity_set=())
    if args.json:
        sys.stdout.write(dump_json(run.to_json()))
    else:
        print(f"model: {args.model}  dim: {R.dim}")
        print(report_to_text(run))
    return 0


def _cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    R = build(spec)
    idents = _identity_set(args.set, R.dim)
    expect_fail = tuple(args.expect_fail or ())
    _repeated(expect_fail, "--expect-fail")
    for e in expect_fail:
        if e not in IDENTITY_IDS:
            raise IdentityArgumentError(f"unknown identity in --expect-fail: {e!r}")
        if e not in idents:
            raise IdentityArgumentError(
                f"--expect-fail {e} names an identity outside --set {','.join(idents)}"
            )
    started = time.monotonic()
    run = evaluate_model(spec, R, identity_set=idents, expect_fail=expect_fail)
    run.elapsed_ms = int((time.monotonic() - started) * 1000)
    if args.json:
        sys.stdout.write(dump_json(run.to_json()))
    else:
        print(f"model: {args.model}  dim: {R.dim}  set: {','.join(idents)}")
        print(report_to_text(run, tables=False))
    return 0 if run.verdict == "pass" else 1


def _cmd_random_check(args) -> int:
    dim = args.dim
    ident = args.identity
    if args.n < 1:
        raise IdentityArgumentError(f"-n must be >= 1, got {args.n}")
    mode = None if args.mode == "auto" else args.mode
    entry, runs = _resolve(ident, dim, args.r, mode)
    r, label = None, ""
    if runs:
        # --r defaults to 2, or to 1 where the dimension allows no more
        r, mode = runs[min(2, len(runs)) - 1]
        label = f"[r={r},{mode}]"

    n_zero = 0
    failure = None  # (seed, nonzero reports) of the first failing trial
    for seed in range(args.seed, args.seed + args.n):
        R = random_curvature(dim, seed, args.terms)
        if entry.hypothesis != "universal":
            R = einsteinize(R, Scalar(1))
        nonzero = [rep for rep in run_identity(ident, R, r, mode) if not rep.is_zero]
        if not nonzero:
            n_zero += 1
        elif failure is None:
            failure = (seed, nonzero)
    print(
        f"identity: {ident}{label}  dim: {dim}  trials: {args.n}"
        f"  zero: {n_zero}  nonzero: {args.n - n_zero}"
    )
    if failure:
        first_seed, reps = failure
        print(f"first failing seed: {first_seed}")
        for rep in reps:
            idx, val = rep.witness
            print(f"  {rep.identity}: witness {list(idx)} = {val.format()}")
    return 0 if failure is None else 1


def _cmd_export(args) -> int:
    spec = _resolve_spec(args)
    R = build(spec)
    idents = _identity_set(args.set, R.dim)
    run = evaluate_model(spec, R, identity_set=idents)
    payload = dump_json(run.to_json())
    try:
        with open(args.out, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}  verdict: {run.verdict}")
    return 0 if run.verdict == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curvident",
        description="exact curvature-tensor invariants and identity verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print all invariants of a model")
    _add_model_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verify", help="run identity evaluators on a model")
    _add_model_args(p)
    p.add_argument("--set", default="all", help="comma-separated identity ids or 'all'")
    p.add_argument(
        "--expect-fail",
        action="append",
        help="identity id whose residual must be nonzero (repeatable)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random-check", help="randomized identity campaign")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--r", type=int, help="number of curvature factors (delta identities)")
    p.add_argument(
        "--mode", choices=("auto", "free", "traced"), default="auto",
        help="leftover index pairs of the delta identity"
    )
    p.add_argument("-n", type=int, default=10, help="number of trials")
    p.add_argument("--seed", type=int, default=1, help="base seed; trial i uses seed+i")
    p.add_argument("--terms", type=int, default=4, help="generator term count")
    p.set_defaults(func=_cmd_random_check)

    p = sub.add_parser("export", help="write a RunReport JSON file")
    _add_model_args(p)
    p.add_argument("--set", default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_scalar_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only on this path: keeps it out of every start

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
