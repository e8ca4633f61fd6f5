"""Paired parent/change runs of the perfbench benchmark.

Usage (from the repository root)::

    python3 scripts/bench_pairs.py --label plan-symmetry \\
        --workload delta-campaign --seed 1 --pairs 10 --seconds 20

The parent is the committed tree of ``--base`` (default ``HEAD``),
exported with ``git archive`` into a temporary directory.  The change is
exported the same way from this working tree: every file git tracks (the
index, so staged new files too), as it is on disk, into a second
temporary directory.  So both sides start without bytecode or anything
untracked.  Each pair runs ``perfbench/run.py`` once on each
side, with identical arguments, and alternates which side goes first.
Before its first pair, each workload runs once on each tree, untimed but
checked like every run, so that every timed run finds the tree's
bytecode written.  Every run must report ``correct: true``.

``BENCH_<label>.json`` (or ``--out``) holds one entry per workload, seed
and ``--trace`` value: every run's metrics (and, in a workload's first
entry, the untimed warm-up runs' as ``warmup``) and, per metric, each side's
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
keeps the others, so one file can collect several invocations of the
same two trees.  The file also records ``src_lines``, the line count of
the Python sources under ``src/`` in the parent and in the change, and
``tree_sha256``, a hash of each exported tree's file paths and contents,
taken before its first run; a later invocation whose trees hash
otherwise is refused, as one against another base is.

``setup_s`` is the median of perfbench's fresh ``--help`` starts, and on a
busy host those starts can cluster at two levels, so ten pairs can read a
verdict with no change on the start-up path.  When a workload's
``setup_s`` reads "worse" or "unresolved", the script therefore times
``HELP_STARTS`` more ``python -m curvident.cli --help`` starts of each
tree, alternating the trees, with perfbench's child environment, and
stores each side's wall times and quartiles in that entry as
``setup_check``.  The verdict itself is left as the rule gives it.

perfbench's children run with ``PYTHONDONTWRITEBYTECODE`` unset, so each
tree writes its bytecode in its warm-up run.  A command timed by hand
should run the same way: with the variable set, every process on a fresh
tree compiles the package's bytecode afresh.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("perfbench") / "run.py"
HELP_STARTS = 30


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


def export_working_tree(dest: Path):
    """Copy every file git tracks in this working tree, as it is on disk,
    into ``dest``; a tracked file deleted from disk is left out."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached"], cwd=ROOT, check=True, capture_output=True
    ).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def tree_sha256(tree: Path) -> str:
    """A hash of every file under ``tree``: its relative path and bytes, in
    path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(tree).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


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


def help_starts(trees: dict, n: int) -> dict:
    """Wall times of n ``python -m curvident.cli --help`` starts of each
    tree, alternating which tree starts first, in perfbench's child
    environment (``perfbench.run.child_env``: bytecode written, hash seed
    0) with the tree's own sources; per side, the times and their
    quartiles."""
    sys.path.insert(0, str(ROOT))
    from perfbench.run import child_env

    times = {side: [] for side in trees}
    for i in range(n):
        for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
            env = dict(child_env(), PYTHONPATH=str(trees[side] / "src"))
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "curvident.cli", "--help"], cwd=trees[side],
                           env=env, stdout=subprocess.DEVNULL, check=True)
            times[side].append(time.perf_counter() - t0)
    return {side: {**quartiles(t), "runs": t} for side, t in times.items()}


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
    trees = {side: Path(tempfile.mkdtemp(prefix=f"bench_pairs_{side}_"))
             for side in ("parent", "change")}
    entries, machine = [], {}
    try:
        base = export_tree(args.base, trees["parent"])
        if record is not None and record["base"] != base:
            raise SystemExit(f"{out} was measured against base {record['base']}, not {base}")
        export_working_tree(trees["change"])
        hashes = {side: tree_sha256(tree) for side, tree in trees.items()}
        if record is not None and record.get("tree_sha256") != hashes:
            raise SystemExit(f"{out} was measured on other trees; use another --label")
        record = record or {"label": args.label, "base": base, "entries": []}
        record["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        record["tree_sha256"] = hashes
        for workload in args.workload:
            warmup = {}
            for side, tree in trees.items():
                result, _ = run_once(tree, workload, args.seed[0], args.seconds, 0)
                warmup[side] = result["metrics"]
            print(f"{workload}: warm-up run on each tree: peak_rss_mb " + " -> ".join(
                f"{warmup[side]['peak_rss_mb']['value']:.4g}" for side in trees
            ), file=sys.stderr)
            for seed in args.seed:
                runs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side], machine = run_once(
                            trees[side], workload, seed, args.seconds, args.trace
                        )
                    runs.append(pair)
                    print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: " + ", ".join(
                        f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
                        f"{pair['change']['metrics'][name]['value']:.4g}"
                        for name in ("units_per_s", "peak_rss_mb", "delta.gdc.warm_s")
                        if name in pair["parent"]["metrics"]
                    ), file=sys.stderr)
                summary = summarize(runs, better, bounds)
                entry = {
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "pairs": args.pairs, "seconds": args.seconds,
                    "summary": summary, "runs": runs,
                    **({"warmup": warmup} if seed == args.seed[0] else {}),
                }
                if summary.get("setup_s", {}).get("regression") in ("worse", "unresolved"):
                    check = entry["setup_check"] = help_starts(trees, HELP_STARTS)
                    print(f"{workload} seed {seed} setup_s {summary['setup_s']['regression']}: "
                          f"{HELP_STARTS} --help starts a side, median " + " -> ".join(
                              f"{check[side]['median']:.4g}" for side in trees) + " s",
                          file=sys.stderr)
                entries.append(entry)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

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
