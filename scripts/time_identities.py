"""In-process timings of ``random-check``, one identity at a time.

Usage (from the repository root)::

    python3 scripts/time_identities.py -n 5 --seed 1

Each (dim, identity) runs in a fresh Python process that imports
curvident from this tree's ``src`` and calls the CLI's ``random-check``
in process once per seed, one trial per call (seeds ``--seed`` to
``--seed`` + n - 1, stdout discarded).  The first call pays the cold
caches (einsum paths, delta plans parsed from the packaged file or
compiled); the later ones are warm.  Then one
more call runs the whole campaign, ``-n`` n from ``--seed``, as the
benchmark's commands do: its trials go through random-check's chunks, so
it shows what batching them saves against n single calls (its batched
einsum shapes are new to the process, so it pays their path searches).
Every call must exit 0.  The children run with ``PYTHONDONTWRITEBYTECODE``
unset, as perfbench's do, so they write and then read the tree's
bytecode.  The set timed is every identity at every dimension 5 and 6 it
applies to, with ``random-check``'s default ``--r`` and ``--mode``,
except the super-Einstein ones: random Einstein trials do not satisfy
their hypothesis; and then patterson at each shape of the delta-campaign
workload of ``perfbench/run.py``, at its ``--r`` and ``--mode``, keyed
"dim:patterson:r:mode".

One JSON line goes to stdout: per key, ``first_s`` (the first call),
``warm_s`` (the median of the other single calls, null when n is 1),
``campaign_s`` (the whole campaign) and ``maxrss_mb`` (the child
process's peak resident set size after all its calls, from
``getrusage``), plus, over the keys the einstein-campaign and the
delta-campaign workloads run, the sums of the times and the largest
``maxrss_mb`` (``einstein_campaign``, ``delta_campaign``).  Times are
wall clock; nothing is gated on them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def campaign_ids() -> dict:
    """The keys of the einstein-campaign ("dim:identity") and the
    delta-campaign ("dim:patterson:r:mode") workloads, read from the
    benchmark runner's command tables."""
    sys.path.insert(0, str(ROOT))
    from perfbench.run import _DELTA_SHAPES, _EINSTEIN_IDS

    return {
        "einstein_campaign": [f"{dim}:{ident}" for dim, ident, _ in _EINSTEIN_IDS],
        "delta_campaign": [f"{dim}:patterson:{r}:{mode}" for dim, r, mode, _ in _DELTA_SHAPES],
    }


def time_one(key: str, n: int, seed: int) -> dict:
    """Wall times of n single-trial ``random-check`` calls of ``key`` in
    this process, then of one call running all n trials."""
    from curvident.cli import main

    dim, ident, *shape = key.split(":")
    walls = []
    for s, trials in [(s, 1) for s in range(seed, seed + n)] + [(seed, n)]:
        argv = ["random-check", "--dim", dim, "--identity", ident,
                "-n", str(trials), "--seed", str(s)]
        if shape:
            argv += ["--r", shape[0], "--mode", shape[1]]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main(argv)
            walls.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"random-check {' '.join(argv[1:])} exited {code}")
    campaign = walls.pop()
    # ru_maxrss is in kilobytes on Linux
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"first_s": walls[0], "warm_s": statistics.median(walls[1:]) if n > 1 else None,
            "campaign_s": campaign, "maxrss_mb": maxrss_mb}


def timed_ids() -> list:
    from curvident.report import _IDENTITIES, applicable_identities

    return [
        f"{dim}:{ident}"
        for dim in (5, 6)
        for ident in applicable_identities(dim)
        if _IDENTITIES[ident].hypothesis != "super_einstein"
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", type=int, default=5, help="calls per identity (first + warm)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first call")
    ap.add_argument("--child", metavar="KEY", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("-n must be >= 1")
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        print(json.dumps(time_one(args.child, args.n, args.seed)))
        return 0

    out = {"n": args.n, "seed": args.seed, "ids": {}}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    campaigns = campaign_ids()
    for key in timed_ids() + campaigns["delta_campaign"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", key, "-n", str(args.n), "--seed", str(args.seed)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{key}: exited {proc.returncode}\n{proc.stderr}")
        out["ids"][key] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, keys in campaigns.items():
        rows = [out["ids"][k] for k in keys]
        out[name] = {
            "first_s": sum(r["first_s"] for r in rows),
            "warm_s": sum(r["warm_s"] for r in rows) if args.n > 1 else None,
            "campaign_s": sum(r["campaign_s"] for r in rows),
            "maxrss_mb": max(r["maxrss_mb"] for r in rows),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
