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
gives each command's median phases in ms and its peak RSS in MB (the
largest ``ru_maxrss`` that ``os.wait4`` reports for it over the timed
passes, as perfbench reads its children's), with the identity during
which the command reached that peak: the probe wraps
``report.run_identity`` and reads the process's ``ru_maxrss`` before
and after each call and at its atexit mark (``(start)``: before the
first call; ``(end)``: after the last, in ``main``; ``(exit)``: after
the mark; ``-``: in ``main`` of a command that made no call, as a
batched ``random-check`` of a non-delta id does).  Per workload, the
table gives the sum of those medians and the largest peak with its
identity, which is the command that sets the workload's
``peak_rss_mb``.  Times are wall clock; nothing is gated on them.
"""

from __future__ import annotations

import argparse
import json
import os
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
import atexit, json, resource, sys
marks_path = sys.argv[1]
identities = []  # per report.run_identity call: id, ru_maxrss before and after (KB)

def mark():
    t_last = time.monotonic()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(marks_path, "w") as fh:
        json.dump({"t": [t_start, t_imported, t_last], "identities": identities, "rss": rss}, fh)

atexit.register(mark)
import curvident.cli as cli
import curvident.report as report
t_imported = time.monotonic()
run_identity = report.run_identity

def probed(ident, *args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        return run_identity(ident, *args, **kwargs)
    finally:
        identities.append((ident, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))

report.run_identity = probed
sys.argv = ["curvident", *sys.argv[2:]]
sys.exit(cli.main())
"""


def peak_identity(identities: list, at_mark: int, peak_kb: int) -> str:
    """The identity during whose ``run_identity`` call a process's RSS
    reached its peak ``peak_kb``, from the ``ru_maxrss`` readings around
    each call and at the atexit mark (``at_mark``): ``(start)`` when it
    was reached before the first call, ``(end)`` after the last but before
    the mark, ``(exit)`` after the mark, ``-`` in a command without a
    call."""
    if not identities:
        return "-" if at_mark >= peak_kb else "(exit)"
    if identities[0][1] >= peak_kb:
        return "(start)"
    reached = (ident for ident, _, after in identities if after >= peak_kb)
    return next(reached, "(end)" if at_mark >= peak_kb else "(exit)")


def workloads() -> tuple:
    """perfbench's workload table and its child environment."""
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORKLOADS, child_env

    return WORKLOADS, child_env()


def run_command(cmd, work: Path, env: dict) -> tuple:
    """One command under the probe: its phases in seconds, its peak RSS in
    MB and the identity during which it reached that peak."""
    marks = work / "marks.txt"
    with open(work / "out", "wb") as out, open(work / "err", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, str(marks), *cmd.argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=work, env=env,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        t_reaped = time.monotonic()
        code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{' '.join(cmd.argv)} exited {code}\n{(work / 'err').read_text()[-500:]}")
    if cmd.report:
        # the workload's read-back verify reads the exported model
        data = json.loads((work / cmd.report).read_bytes())
        (work / cmd.report.replace(".json", ".model.json")).write_text(json.dumps(data["model"]))
    data = json.loads(marks.read_text())
    t_start, t_imported, t_last = data["t"]
    phases = dict(zip(PHASES, (t_start - t_spawn, t_imported - t_start,
                               t_last - t_imported, t_reaped - t_last)))
    ident = peak_identity(data["identities"], data["rss"], usage.ru_maxrss)
    return phases, usage.ru_maxrss / 1024.0, ident


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
    print(f"{'workload / command':<72}" + "".join(f"{p:>9}" for p in PHASES)
          + f"{'rss':>9}  peak at   (ms; rss: peak MB; peak at: its identity)")
    for name in names:
        cmds = table[name](args.seed)
        samples = [{p: [] for p in PHASES} for _ in cmds]
        peaks = [(0.0, "-")] * len(cmds)
        with tempfile.TemporaryDirectory(prefix="process-phases-") as tmp:
            work = Path(tmp)
            for i in range(args.n + 1):
                for c, (cmd, sample) in enumerate(zip(cmds, samples)):
                    phases, rss, ident = run_command(cmd, work, env)
                    if i:
                        for p in PHASES:
                            sample[p].append(phases[p])
                        peaks[c] = max(peaks[c], (rss, ident), key=lambda x: x[0])
        medians = [{p: statistics.median(s[p]) for p in PHASES} for s in samples]
        for cmd, med, (peak, ident) in zip(cmds, medians, peaks):
            print(f"  {' '.join(cmd.argv)[:70]:<70}"
                  + "".join(f"{med[p] * 1e3:9.1f}" for p in PHASES) + f"{peak:9.2f}  {ident}")
        top, ident = max(peaks, key=lambda x: x[0])
        print(f"{name + ' pass':<72}" + "".join(
            f"{sum(m[p] for m in medians) * 1e3:9.1f}" for p in PHASES) + f"{top:9.2f}  {ident}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
