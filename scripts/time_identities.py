"""In-process timings of ``random-check``, one identity at a time.

Usage (from the repository root)::

    python3 scripts/time_identities.py -n 5 --seed 1

Each (dim, identity) runs in a fresh Python process that imports
curvident from this tree's ``src`` and calls the CLI's ``random-check``
in process once per seed, one trial per call (seeds ``--seed`` to
``--seed`` + n - 1, stdout discarded).  The first call pays the cold
caches (einsum paths, delta plans); the later ones are warm.  Every call
must exit 0.  The set timed is every identity at every dimension 5 and
6 it applies to, with ``random-check``'s default ``--r`` and ``--mode``,
except the super-Einstein ones: random Einstein trials do not satisfy
their hypothesis.

One JSON line goes to stdout: per "dim:identity", ``first_s`` (the first
call) and ``warm_s`` (the median of the others, null when n is 1), plus
their sums over the identities the einstein-campaign workload of
``perfbench/run.py`` runs.  Times are wall clock; nothing is gated on
them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def einstein_campaign_ids() -> list:
    """The "dim:identity" keys of the einstein-campaign workload, read from
    the benchmark runner's command table."""
    sys.path.insert(0, str(ROOT))
    from perfbench.run import _EINSTEIN_IDS

    return [f"{dim}:{ident}" for dim, ident, _ in _EINSTEIN_IDS]


def time_one(dim: int, ident: str, n: int, seed: int) -> dict:
    """Wall times of n single-trial ``random-check`` calls in this process."""
    from curvident.cli import main

    walls = []
    for s in range(seed, seed + n):
        argv = ["random-check", "--dim", str(dim), "--identity", ident,
                "-n", "1", "--seed", str(s)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main(argv)
            walls.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"random-check {' '.join(argv[1:])} exited {code}")
    return {"first_s": walls[0], "warm_s": statistics.median(walls[1:]) if n > 1 else None}


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
    ap.add_argument("--child", metavar="DIM:ID", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("-n must be >= 1")
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        dim, ident = args.child.split(":")
        print(json.dumps(time_one(int(dim), ident, args.n, args.seed)))
        return 0

    out = {"n": args.n, "seed": args.seed, "ids": {}}
    for key in timed_ids():
        proc = subprocess.run(
            [sys.executable, __file__, "--child", key, "-n", str(args.n), "--seed", str(args.seed)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{key}: exited {proc.returncode}\n{proc.stderr}")
        out["ids"][key] = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = [out["ids"][k] for k in einstein_campaign_ids()]
    out["einstein_campaign"] = {
        "first_s": sum(r["first_s"] for r in rows),
        "warm_s": sum(r["warm_s"] for r in rows) if args.n > 1 else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
