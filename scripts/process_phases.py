"""Where the wall time of one CLI process goes, per benchmark command.

Usage (from the repository root)::

    python3 scripts/process_phases.py -n 5 --seed 1
    python3 scripts/process_phases.py -n 8 --workload delta-campaign --base HEAD

Each command of the perfbench workloads (read from ``perfbench/run.py``'s
``WORKLOADS``, in pass order) runs in a fresh process against this tree's
``src``, with the benchmark's child environment, in a temporary working
directory.  With ``--base REV`` it runs against two trees instead, each
exported as ``scripts/bench_pairs.py`` exports them: the committed files
of REV (``git archive``) and every file git tracks in this working tree,
as it is on disk.  The trees then alternate pass by pass, REV first in
the first timed pass, and the table gives each command's row for each
tree one under the other, so the two read side by side: phase times
taken from runs of one tree at a time drift with the host and do not
compare across trees.  The process runs a small probe program in place of
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

One pass of every workload runs first on each tree and is not timed (it
writes the bytecode); then ``-n`` timed passes.  Every command must
exit 0.  The table gives each command's median phases in ms and its peak
RSS in MB (the largest ``ru_maxrss`` that ``os.wait4`` reports for it
over the timed passes, as perfbench reads its children's), with the
identity during which the command reached that peak: the probe wraps
``report.run_identity`` and reads the process's ``ru_maxrss`` before
and after each call and at its atexit mark (``(start)``: before the
first call; ``(end)``: after the last, in ``main``; ``(exit)``: after
the mark; ``-``: in ``main`` of a command that made no call, which no
benchmark command is, as ``random-check`` evaluates each chunk through
``run_identity``).  At the same points the
probe reads its ``RssAnon`` and ``RssFile`` from ``/proc/self/status``,
and the table gives both, in MB, at the reading that follows the peak
(after the call that reached it, or at the mark): the anonymous memory
(the heap and numpy's arrays) and the file-backed pages (the interpreter's
and numpy's shared libraries, whose code pages no array-lifetime change
can release).  Per workload, the table gives the sum of those medians and
the largest peak with its split and identity, which is the command that
sets the workload's ``peak_rss_mb``.  Times are wall clock; nothing is
gated on them.
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
# per report.run_identity call: id, ru_maxrss before and after (KB), and
# [RssAnon, RssFile] (KB) before and after
identities = []

def split():
    try:
        with open("/proc/self/status") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
        return [int(fields[name].split()[0]) for name in ("RssAnon", "RssFile")]
    except (OSError, KeyError, ValueError):
        return None

def mark():
    t_last = time.monotonic()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(marks_path, "w") as fh:
        json.dump({"t": [t_start, t_imported, t_last], "identities": identities, "rss": rss,
                   "split": split()}, fh)

atexit.register(mark)
import curvident.cli as cli
import curvident.report as report
t_imported = time.monotonic()
run_identity = report.run_identity

def probed(ident, *args, **kwargs):
    before, split_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, split()
    try:
        return run_identity(ident, *args, **kwargs)
    finally:
        identities.append((ident, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           split_before, split()))

report.run_identity = probed
sys.argv = ["curvident", *sys.argv[2:]]
sys.exit(cli.main())
"""


def peak_identity(identities: list, at_mark: int, peak_kb: int, mark_split=None) -> tuple:
    """The identity during whose ``run_identity`` call a process's RSS
    reached its peak ``peak_kb``, from the ``ru_maxrss`` readings around
    each call and at the atexit mark (``at_mark``): ``(start)`` when it
    was reached before the first call, ``(end)`` after the last but before
    the mark, ``(exit)`` after the mark, ``-`` in a command without a
    call; with the [RssAnon, RssFile] reading (KB) that follows the peak:
    the one before the first call, after the call, or at the mark
    (``mark_split``)."""
    if not identities:
        return ("-" if at_mark >= peak_kb else "(exit)"), mark_split
    if identities[0][1] >= peak_kb:
        return "(start)", identities[0][3]
    reached = ((ident, after_split) for ident, _, after, _, after_split in identities
               if after >= peak_kb)
    return next(reached, ("(end)" if at_mark >= peak_kb else "(exit)", mark_split))


def split_mb(split) -> str:
    """RssAnon and RssFile in MB as two table columns; '-' where the
    platform gave none."""
    if split is None:
        return f"{'-':>7}{'-':>7}"
    return "".join(f"{kb / 1024.0:7.2f}" for kb in split)


def workloads() -> tuple:
    """perfbench's workload table and its child environment."""
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORKLOADS, child_env

    return WORKLOADS, child_env()


def run_command(cmd, work: Path, env: dict) -> tuple:
    """One command under the probe: its phases in seconds, its peak RSS in
    MB, and the identity during which it reached that peak with the
    [RssAnon, RssFile] reading that follows it."""
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
    ident = peak_identity(data["identities"], data["rss"], usage.ru_maxrss, data["split"])
    return phases, usage.ru_maxrss / 1024.0, ident


def run_passes(cmds: list, trees: dict, n: int, env: dict) -> dict:
    """Per tree, each command's phase samples and its (peak RSS, identity)
    over ``n`` timed passes of ``cmds``, after one untimed pass on each
    tree; the trees alternate pass by pass."""
    results = {name: ([{p: [] for p in PHASES} for _ in cmds], [(0.0, ("-", None))] * len(cmds))
               for name in trees}
    with tempfile.TemporaryDirectory(prefix="process-phases-") as tmp:
        work = Path(tmp)
        for i in range(n + 1):
            for name in list(trees)[:: 1 if i % 2 else -1]:
                samples, peaks = results[name]
                tree_env = dict(env, PYTHONPATH=str(trees[name] / "src"))
                for c, cmd in enumerate(cmds):
                    phases, rss, ident = run_command(cmd, work, tree_env)
                    if i:
                        for p in PHASES:
                            samples[c][p].append(phases[p])
                        peaks[c] = max(peaks[c], (rss, ident), key=lambda x: x[0])
    return results


def row(label: str, med: dict, peak: float, split, ident) -> str:
    return (f"{label:<72}" + "".join(f"{med[p] * 1e3:9.1f}" for p in PHASES)
            + f"{peak:9.2f}{split_mb(split)}  {ident}")


def main(argv=None) -> int:
    table, env = workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", type=int, default=5, help="timed passes per workload")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--workload", action="append", choices=list(table),
                    help="repeat to run several (default: every workload)")
    ap.add_argument("--base", help="also run the committed tree of this revision, "
                    "alternating with this working tree pass by pass")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("-n must be >= 1")
    names = args.workload or list(table)
    with tempfile.TemporaryDirectory(prefix="process-phases-trees-") as tmp:
        trees = {"": ROOT}
        if args.base:
            from bench_pairs import export_tree, export_working_tree

            trees = {args.base: Path(tmp) / "base", "change": Path(tmp) / "change"}
            for tree in trees.values():
                tree.mkdir()
            export_tree(args.base, trees[args.base])
            export_working_tree(trees["change"])
        # a tree's name, when there are two, ends each row's label
        width = max(map(len, trees))
        room = 70 - width - bool(width)
        tag = lambda tree: f" {tree:>{width}}" if width else ""  # noqa: E731
        print(f"{'workload / command':<72}" + "".join(f"{p:>9}" for p in PHASES)
              + f"{'rss':>9}{'anon':>7}{'file':>7}  peak at   (ms; rss: peak MB; anon, file: "
              "RssAnon, RssFile MB after the peak; peak at: its identity)")
        for name in names:
            cmds = table[name](args.seed)
            results = run_passes(cmds, trees, args.n, env)
            medians = {tree: [{p: statistics.median(s[p]) for p in PHASES} for s in samples]
                       for tree, (samples, _) in results.items()}
            for c, cmd in enumerate(cmds):
                text = " ".join(cmd.argv)[:room]
                for tree, (_, peaks) in results.items():
                    peak, (ident, split) = peaks[c]
                    print(row(f"  {text:<{room}}{tag(tree)}", medians[tree][c], peak, split, ident))
                    text = ""
            for tree, (_, peaks) in results.items():
                top, (ident, split) = max(peaks, key=lambda x: x[0])
                total = {p: sum(m[p] for m in medians[tree]) for p in PHASES}
                print(row(f"{name + ' pass':<{room + 2}}{tag(tree)}", total, top, split, ident))
    return 0


if __name__ == "__main__":
    sys.exit(main())
