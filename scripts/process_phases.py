"""Where the wall time of one CLI process goes, per benchmark command.

Usage (from the repository root)::

    python3 scripts/process_phases.py -n 5 --seed 1

Each command of the perfbench workloads (read from ``perfbench/run.py``'s
``WORKLOADS``, in pass order) runs in a fresh process against this tree's
``src``, with the benchmark's child environment, in a temporary working
directory.  The process runs a small probe program in place of
``python -m curvident.cli``: it registers an atexit mark before
``import curvident.cli``, sets ``sys.argv`` and calls
``sys.exit(cli.main())``, so the command goes through the real entry.
Its wall splits into four phases, all on the monotonic clock:

- ``start``: spawn to the probe's first statement (the interpreter);
- ``import``: ``import curvident.cli`` (numpy included);
- ``main``: ``cli.main()`` up to the atexit mark (the other atexit
  handlers run before it: it was registered first);
- ``exit``: the atexit mark to the parent's reap (stdio flush, the final
  collection, module and heap teardown).

One pass of every workload runs first and is not timed (bytecode, plan
files); then ``-n`` timed passes.  Every command must exit 0.  The table
gives each command's median phases in ms and, per workload, the sum of
those medians.  Times are wall clock; nothing is gated on them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("start", "import", "main", "exit")

# argv: marks file, then the CLI arguments
PROBE = """\
import time
t_start = time.monotonic()
import atexit, sys
marks_path = sys.argv[1]

def mark():
    t_last = time.monotonic()
    with open(marks_path, "w") as fh:
        fh.write(f"{t_start!r} {t_imported!r} {t_last!r}")

atexit.register(mark)
import curvident.cli as cli
t_imported = time.monotonic()
sys.argv = ["curvident", *sys.argv[2:]]
sys.exit(cli.main())
"""


def workloads() -> tuple:
    """perfbench's workload table and its child environment."""
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORKLOADS, child_env

    return WORKLOADS, child_env()


def run_command(cmd, work: Path, env: dict) -> dict:
    """One command under the probe: its phases in seconds."""
    marks = work / "marks.txt"
    with open(work / "out", "wb") as out, open(work / "err", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, str(marks), *cmd.argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=work, env=env,
        )
        code = proc.wait()
        t_reaped = time.monotonic()
    if code != 0:
        raise SystemExit(f"{' '.join(cmd.argv)} exited {code}\n{(work / 'err').read_text()[-500:]}")
    if cmd.report:
        # the workload's read-back verify reads the exported model
        data = json.loads((work / cmd.report).read_bytes())
        (work / cmd.report.replace(".json", ".model.json")).write_text(json.dumps(data["model"]))
    t_start, t_imported, t_last = map(float, marks.read_text().split())
    return dict(zip(PHASES, (t_start - t_spawn, t_imported - t_start,
                             t_last - t_imported, t_reaped - t_last)))


def main(argv=None) -> int:
    table, env = workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", type=int, default=5, help="timed passes per workload")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--workload", action="append", choices=list(table),
                    help="repeat to run several (default: every workload)")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("-n must be >= 1")
    names = args.workload or list(table)
    print(f"{'workload / command':<72}" + "".join(f"{p:>9}" for p in PHASES) + "   (ms)")
    for name in names:
        cmds = table[name](args.seed)
        samples = [{p: [] for p in PHASES} for _ in cmds]
        with tempfile.TemporaryDirectory(prefix="process-phases-") as tmp:
            work = Path(tmp)
            for i in range(args.n + 1):
                for cmd, sample in zip(cmds, samples):
                    phases = run_command(cmd, work, env)
                    if i:
                        for p in PHASES:
                            sample[p].append(phases[p])
        medians = [{p: statistics.median(s[p]) for p in PHASES} for s in samples]
        for cmd, med in zip(cmds, medians):
            print(f"  {' '.join(cmd.argv)[:70]:<70}" + "".join(f"{med[p] * 1e3:9.1f}" for p in PHASES))
        print(f"{name + ' pass':<72}" + "".join(
            f"{sum(m[p] for m in medians) * 1e3:9.1f}" for p in PHASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
