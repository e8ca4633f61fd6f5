"""Paired parent/change runs of the perfbench benchmark.

Usage (from the repository root)::

    python3 scripts/bench_pairs.py --label plan-symmetry \\
        --workload delta-campaign --seed 1 --pairs 10 --seconds 20

The parent is the committed tree of ``--base`` (default ``HEAD``),
exported with ``git archive`` into a temporary directory; the change is
this working tree.  Each pair runs ``perfbench/run.py`` once on each side,
with identical arguments, and alternates which side goes first.  Every run
must report ``correct: true``.

``BENCH_<label>.json`` (or ``--out``) holds one entry per workload, seed
and ``--trace`` value: every run's metrics and, per metric, each side's
median and quartiles, the pairs the change won, lost and tied, and whether
the gain rule holds: the change wins at least nine tenths of the pairs and
the medians differ by more than the parent's interquartile range, in the
metric's better direction (read from ``BENCHMARK.json``).  Each end-to-end
metric also gets the no-regression verdict ``regression``, with the
metric's ``bound`` from ``BENCHMARK.json``: "worse" when the change's
median is worse than the parent's by more than bound x the parent median,
"unresolved" when the parent's interquartile range exceeds that margin and
not every change run beats every parent run, "none" otherwise.  A later run
with the same label and base replaces the entries it measured again and
keeps the others, so one file can collect several invocations.  The
file also records ``src_lines``, the line count of the Python sources
under ``src/`` in the parent and in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("perfbench") / "run.py"


def export_tree(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` into ``dest``; its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def src_lines(tree: Path) -> int:
    """Lines of the Python sources under ``tree``/src."""
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run in ``tree``: its result JSON (the last stdout line)
    and the machine description it printed."""
    argv = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} reported incorrect output\n{proc.stderr}")
    machine = next((json.loads(line[9:]) for line in lines if line.startswith("machine: ")), {})
    return result, machine


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict, bounds: dict) -> dict:
    """Per metric: each side's median and quartiles, wins, the gain rule and,
    for an end-to-end metric, the no-regression verdict."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        ps, cs = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "better": better.get(name, "lower"),
            "parent": ps,
            "change": cs,
            "wins": wins,
            "losses": losses,
            "ties": len(runs) - wins - losses,
            "gain": wins >= 0.9 * len(runs)
            and sign * (cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
        if name in bounds:
            margin = bounds[name] * abs(ps["median"])
            beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
            out[name]["regression"] = (
                "worse" if sign * (ps["median"] - cs["median"]) > margin
                else "unresolved" if ps["q3"] - ps["q1"] > margin and not beats_all
                else "none"
            )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", required=True, action="append",
                    help="repeat to run several workloads")
    ap.add_argument("--seed", type=int, required=True, action="append",
                    help="repeat to run several seeds")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--out", type=Path, help="default BENCH_<label>.json at the repository root")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2 (quartiles need two runs a side)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = args.out or ROOT / f"BENCH_{args.label}.json"
    record = json.loads(out.read_text()) if out.exists() else None
    parent_tree = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    entries, machine = [], {}
    try:
        base = export_tree(args.base, parent_tree)
        if record is not None and record["base"] != base:
            raise SystemExit(f"{out} was measured against base {record['base']}, not {base}")
        record = record or {"label": args.label, "base": base, "entries": []}
        record["src_lines"] = {"parent": src_lines(parent_tree), "change": src_lines(ROOT)}
        for workload in args.workload:
            for seed in args.seed:
                runs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        tree = parent_tree if side == "parent" else ROOT
                        pair[side], machine = run_once(
                            tree, workload, seed, args.seconds, args.trace
                        )
                    runs.append(pair)
                    print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: " + ", ".join(
                        f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
                        f"{pair['change']['metrics'][name]['value']:.4g}"
                        for name in ("units_per_s", "delta.gdc.warm_s")
                        if name in pair["parent"]["metrics"]
                    ), file=sys.stderr)
                entries.append({
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "pairs": args.pairs, "seconds": args.seconds,
                    "summary": summarize(runs, better, bounds), "runs": runs,
                })
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip() != ""
    measured = {(e["workload"], e["seed"], e["trace"]) for e in entries}
    record["entries"] = [
        e for e in record["entries"] if (e["workload"], e["seed"], e["trace"]) not in measured
    ] + entries
    record["change"] = head + (" + working-tree changes" if dirty else "")
    record["machine"] = machine
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"src lines: {record['src_lines']['parent']} -> {record['src_lines']['change']}")
    for e in entries:
        for name, s in e["summary"].items():
            if s["wins"] + s["losses"]:
                print(f"{e['workload']} seed {e['seed']} {name}: {s['parent']['median']:.4g} -> "
                      f"{s['change']['median']:.4g} {s['unit']}, wins {s['wins']}/{e['pairs']}"
                      f"{', gain' if s['gain'] else ''}"
                      + (f", regression {s['regression']}" if "regression" in s else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
