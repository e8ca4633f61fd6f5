"""curvident benchmark: three CLI workloads, closed loop with one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog-export --seed 1 --seconds 24 --trace 0

Every CLI command runs in a fresh ``python -m curvident.cli`` process
against this tree's ``src``, one after another, with the CLI's default
``--threads 1``.  A pass is one fixed cycle of a workload's commands; the
run repeats whole passes until ``--seconds`` of command time have elapsed
(a catalog-export pass alone outlasts that, so it runs once).  Each
command's output is checked.

``--trace 0`` reports the end-to-end metrics: ``units_per_s`` (median over
passes), ``setup_s`` (median of fresh ``--help`` starts) and
``peak_rss_mb`` (largest child RSS from ``wait4``).  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer table built from
the spans ``tracer.py`` writes.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = BENCH / "tracer.py"
DIGESTS = BENCH / "digests.json"

SETUP_SAMPLES = 11
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation and what its output must be."""

    argv: list
    units: int = 0  # random trials finished, or 1 for a model read back
    trials: int = 0  # random-check: expected "trials: n  zero: n  nonzero: 0"
    report: str = ""  # export: report file name under WORK
    digest: str = ""  # export of a fixed model: key into digests.json
    readback: str = ""  # verify --json: stdout must equal this report file


# (label, CLI model arguments); random-einstein takes the workload seed
_CATALOG = (
    ("example5d", ["--model", "example5d", "--k", "1"]),
    ("sl3so3", ["--model", "sl3so3"]),
    ("nikolayevsky", ["--model", "nikolayevsky", "--alpha", "1", "--beta", "1"]),
    ("example6d", ["--model", "example6d", "--k", "1"]),
    ("random-einstein", ["--model", "random-einstein", "--dim", "6"]),
)

# acceptance criterion-5 shapes: (dim, r, mode, trials)
_DELTA_SHAPES = ((6, 3, "traced", 6), (5, 1, "free", 2), (6, 2, "free", 2), (5, 2, "free", 10))

# acceptance criterion-6 identities: (dim, identity, trials)
_EINSTEIN_IDS = (
    (6, "lemma6", 5),
    (6, "appendix34", 4),
    (6, "thmB-a", 10),
    (5, "lemma5", 20),
    (5, "thmA-a", 20),
)


def catalog_export(seed: int) -> list:
    cmds = []
    for label, model in _CATALOG:
        if label == "random-einstein":
            model = model + ["--seed", str(seed)]
        report = f"{label}.json"
        cmds.append(Command(
            ["export", *model, "--set", "all", "--out", report],
            report=report,
            digest="" if label == "random-einstein" else label,
        ))
        cmds.append(Command(
            ["verify", "--model", f"{label}.model.json", "--set", "all", "--json"],
            units=1,
            readback=report,
        ))
    return cmds


def delta_campaign(seed: int) -> list:
    return [
        Command(
            ["random-check", "--dim", str(dim), "--identity", "patterson",
             "--r", str(r), "--mode", mode, "-n", str(n), "--seed", str(seed)],
            units=n, trials=n,
        )
        for dim, r, mode, n in _DELTA_SHAPES
    ]


def einstein_campaign(seed: int) -> list:
    return [
        Command(
            ["random-check", "--dim", str(dim), "--identity", ident,
             "-n", str(n), "--seed", str(seed)],
            units=n, trials=n,
        )
        for dim, ident, n in _EINSTEIN_IDS
    ]


WORKLOADS = {
    "catalog-export": catalog_export,
    "delta-campaign": delta_campaign,
    "einstein-campaign": einstein_campaign,
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CURVIDENT_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # one dict/set layout, one code path per input
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(argv: list, deadline: float) -> Child:
    """Run argv to completion in WORK; RSS comes from the child's own
    wait4 rusage.  The child is killed if it outlives the deadline."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=child_env(), cwd=WORK,
        )
    reaped = threading.Event()

    def kill():
        if not reaped.is_set():
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        reaped.set()
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise BenchError(f"command outlived the run limit: {argv}")
    return Child(
        proc.returncode, wall, usage.ru_maxrss / 1024.0,
        out_path.read_bytes(), err_path.read_bytes(),
    )


def cli_argv(cmd: Command) -> list:
    return [sys.executable, "-m", "curvident.cli", *cmd.argv]


def traced_argv(cmd: Command, spans: Path) -> list:
    return [sys.executable, str(TRACER), str(spans), "--", *cmd.argv]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check(cmd: Command, child: Child, digests: dict) -> list:
    """Problems with one command's output; empty when it is correct."""
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}: {child.stderr.decode()[-300:]}")
        return problems
    text = child.stdout.decode()
    if cmd.trials:
        want = f"trials: {cmd.trials}  zero: {cmd.trials}  nonzero: 0"
        if want not in text:
            problems.append(f"summary is not {want!r}: {text.strip()!r}")
    if cmd.report:
        if f"wrote {cmd.report}  verdict: pass" not in text:
            problems.append(f"unexpected export output {text.strip()!r}")
        path = WORK / cmd.report
        if not path.is_file():
            return problems + [f"export wrote no {cmd.report}"]
        data = path.read_bytes()
        if cmd.digest and hashlib.sha256(data).hexdigest() != digests[cmd.digest]:
            problems.append(f"report bytes of {cmd.digest} differ from the stored digest")
        # `verify --model <report>.json` rejects the report itself, so the
        # read-back verifies the report's model object
        model = json.loads(data)["model"]
        (WORK / cmd.report.replace(".json", ".model.json")).write_text(json.dumps(model))
    if cmd.readback and child.stdout != (WORK / cmd.readback).read_bytes():
        problems.append(f"verify --json output differs from {cmd.readback}")
    return problems


@dataclass
class PassResult:
    walls: list = field(default_factory=list)  # wall time per command
    ok: list = field(default_factory=list)  # output check passed, per command
    outputs: list = field(default_factory=list)  # (stdout, report bytes or None)
    units: int = 0
    maxrss_mb: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def run_pass(cmds: list, digests: dict, deadline: float, spans_dir: Path = None) -> PassResult:
    res = PassResult()
    for i, cmd in enumerate(cmds):
        if spans_dir is None:
            argv = cli_argv(cmd)
        else:
            argv = traced_argv(cmd, spans_dir / f"{i}.npz")
        child = spawn(argv, deadline)
        problems = check(cmd, child, digests)
        for p in problems:
            print(f"check failed: {' '.join(cmd.argv)}: {p}", file=sys.stderr)
        res.walls.append(child.wall_s)
        res.ok.append(not problems)
        res.units += cmd.units
        res.maxrss_mb = max(res.maxrss_mb, child.maxrss_mb)
        report = (WORK / cmd.report).read_bytes() if cmd.report and not problems else None
        res.outputs.append((child.stdout, report))
    return res


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def prepare(deadline: float):
    """Check the tree, make WORK, warm the bytecode cache, and confirm the
    children import curvident from this tree's src."""
    if not (SRC / "curvident" / "cli.py").is_file():
        raise BenchError(f"no curvident sources under {SRC}")
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    warm = spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "curvident")], deadline)
    where = spawn(
        [sys.executable, "-c", "import curvident.cli, curvident; print(curvident.__file__)"],
        deadline,
    )
    if warm.code != 0 or where.code != 0:
        raise BenchError("curvident does not import: " + (warm.stderr + where.stderr).decode()[-500:])
    imported = Path(where.stdout.decode().strip()).resolve()
    if imported.parent != (SRC / "curvident").resolve():
        raise BenchError(f"children import curvident from {imported}, not {SRC}")


def measure_setup(deadline: float) -> float:
    """Median cold start to a ready CLI (bytecode already warm)."""
    spawn(cli_argv(Command(["--help"])), deadline)
    times = []
    for _ in range(SETUP_SAMPLES):
        child = spawn(cli_argv(Command(["--help"])), deadline)
        if child.code != 0:
            raise BenchError("curvident --help failed: " + child.stderr.decode()[-300:])
        times.append(child.wall_s)
    return statistics.median(times)


_IMPORTS = ("numpy", "curvident", "curvident.tensor", "curvident.delta")


def measure_imports(deadline: float) -> dict:
    """Median cumulative import time per module from ``-X importtime``."""
    samples = {m: [] for m in _IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import curvident.cli"], deadline)
        seen = {}
        for line in child.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for m in _IMPORTS:
            samples[m].append(seen[m])
    return {f"import.{m}_s": statistics.median(v) for m, v in samples.items()}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# per-layer table from spans
# ---------------------------------------------------------------------------

# per-layer metric prefix -> the tracer's span name
_SPAN_METRICS = {
    "delta.gdc": "delta.generalized_delta_contract",
    "numpy.einsum": "numpy.einsum",
    "tensor.ein": "tensor.ein",
    "tensor.init": "tensor.Tensor.__init__",
    "tensor.add": "tensor.Tensor.__add__",
    "identities.patterson": "identities.patterson_residual",
    "identities.make_report": "identities.make_report",
    "expansion6.term_groups": "expansion6.term_groups",
    "expansion6.group_sum_check": "expansion6.group_sum_check",
    "curvature.invariants": "curvature.invariants",
    "curvature.two_stein_check": "curvature.two_stein_check",
    "curvature.weyl": "curvature.weyl",
    "models.build": "models.build",
    "models.random_curvature": "models.random_curvature",
    "models.einsteinize": "models.einsteinize",
    "models.load_model": "models.load_model",
    "report.evaluate_model": "report.evaluate_model",
    "report.to_json": "report.RunReport.to_json",
    "report.dump_json": "report.dump_json",
    "cli.main": "cli.main",
}
# the module layers whose total self time is reported; "startup" is the
# traced process outside any wrapped call (interpreter and imports)
LAYERS = ("startup", "cli", "report", "identities", "expansion6", "delta",
          "curvature", "models", "tensor", "numpy")

PER_LAYER = (
    [(f"import.{m}_s", "s") for m in _IMPORTS]
    + [("delta.gdc.calls", "count"), ("delta.gdc.cold_calls", "count"),
       ("delta.gdc.cold_s", "s"), ("delta.gdc.warm_s", "s"), ("delta.gdc.self_s", "s"),
       ("numpy.einsum.calls", "count"), ("numpy.einsum.self_s", "s"),
       ("numpy.einsum.object_frac", "frac"), ("numpy.einsum.elems_in", "count"),
       ("tensor.ein.calls", "count"), ("tensor.ein.self_s", "s"),
       ("tensor.init.calls", "count"), ("tensor.init.self_s", "s"),
       ("tensor.add.calls", "count"), ("tensor.add.self_s", "s"),
       ("identities.evaluators.calls", "count"), ("identities.evaluators.self_s", "s"),
       ("identities.patterson.calls", "count"), ("identities.make_report.self_s", "s"),
       ("identities.witness.count", "count"),
       ("expansion6.term_groups.calls", "count"), ("expansion6.term_groups.self_s", "s"),
       ("expansion6.group_sum_check.self_s", "s"),
       ("curvature.invariants.self_s", "s"), ("curvature.two_stein_check.self_s", "s"),
       ("curvature.weyl.calls", "count"), ("curvature.weyl.self_s", "s"),
       ("models.build.self_s", "s"), ("models.random_curvature.self_s", "s"),
       ("models.einsteinize.self_s", "s"), ("models.load_model.self_s", "s"),
       ("report.evaluate_model.self_s", "s"), ("report.to_json.self_s", "s"),
       ("report.dump_json.self_s", "s"), ("scalar.init.calls", "count"),
       ("cli.main.self_s", "s")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_frac", "frac")]
)


def load_spans(path: Path) -> dict:
    """One traced command: per-span-name calls, inclusive and self time,
    the delta engine's cold/warm split, the tracer's counters, and the
    traced wall time (the root span)."""
    import numpy as np

    with np.load(path) as d:
        names = [str(n) for n in d["names"]]
        name, parent = d["name"], d["parent"]
        dur = d["end"] - d["start"]
        cold = d["cold"]
        meta = json.loads(str(d["meta"]))
    children = np.bincount(parent[1:], weights=dur[1:], minlength=len(dur))
    self_s = dur - children
    calls = np.bincount(name, minlength=len(names))
    incl = np.bincount(name, weights=dur, minlength=len(names))
    own = np.bincount(name, weights=self_s, minlength=len(names))
    cold_s = float(dur[cold].sum())
    gdc = names.index("delta.generalized_delta_contract")
    return {
        "spans": {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(names)},
        "cold_calls": len(cold),
        "cold_s": cold_s,
        "warm_s": float(incl[gdc]) - cold_s,
        "counters": meta["counters"],
        "module_file": meta["module_file"],
        "wall_s": float(dur[0]),
        "self_sum_s": float(self_s.sum()),
        "min_self_s": float(self_s.min()),
    }


def layer_table(traced: list, overhead: float) -> dict:
    """Sum the per-command span summaries of one traced pass."""
    calls: dict = {}
    own: dict = {}
    counters: dict = {}
    cold_calls, cold_s, warm_s = 0, 0.0, 0.0
    for t in traced:
        for n, (c, _, s) in t["spans"].items():
            calls[n] = calls.get(n, 0) + c
            own[n] = own.get(n, 0.0) + s
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        cold_calls += t["cold_calls"]
        cold_s += t["cold_s"]
        warm_s += t["warm_s"]

    def total(names, table):
        return sum(table.get(n, 0) for n in names)

    out = {}
    for metric, span in _SPAN_METRICS.items():
        out[f"{metric}.calls"] = calls.get(span, 0)
        out[f"{metric}.self_s"] = own.get(span, 0.0)
    evaluators = [n for n in calls if n.startswith("identities.") and n.endswith("_residual")]
    out["identities.evaluators.calls"] = total(evaluators, calls)
    out["identities.evaluators.self_s"] = total(evaluators, own)
    out["delta.gdc.cold_calls"] = cold_calls
    out["delta.gdc.cold_s"] = cold_s
    out["delta.gdc.warm_s"] = warm_s
    n_einsum = out["numpy.einsum.calls"]
    out["numpy.einsum.object_frac"] = counters["numpy.einsum.object_calls"] / n_einsum if n_einsum else 0.0
    out["numpy.einsum.elems_in"] = counters["numpy.einsum.elems_in"]
    out["identities.witness.count"] = counters["identities.witness.count"]
    out["scalar.init.calls"] = counters["scalar.init.calls"]
    for layer in LAYERS:
        if layer == "startup":
            names = ["trace.process"]
        else:
            names = [n for n in own if n.split(".", 1)[0] == layer]
        out[f"layer.{layer}.self_s"] = total(names, own)
    out["trace.overhead_frac"] = overhead
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(cmds, digests, seconds, deadline):
    setup = measure_setup(deadline)
    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(run_pass(cmds, digests, deadline))
    rates = [p.units / p.wall_s for p in passes]
    print("pass walls: " + json.dumps([p.walls for p in passes]), file=sys.stderr)
    metrics = {
        "units_per_s": metric(statistics.median(rates), "1/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(max(p.maxrss_mb for p in passes), "MB"),
    }
    return passes, metrics


def run_traced(cmds, digests, deadline):
    imports = measure_imports(deadline)
    plain = run_pass(cmds, digests, deadline)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(exist_ok=True)
    traced = run_pass(cmds, digests, deadline, spans_dir)
    summaries = [load_spans(spans_dir / f"{i}.npz") for i in range(len(cmds))]
    # the traced pass must not change a single output byte
    for i, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
        if a != b:
            print(f"check failed: traced {' '.join(cmds[i].argv)} changed its output", file=sys.stderr)
            traced.ok[i] = False
    foreign = [s["module_file"] for s in summaries
               if Path(s["module_file"]).resolve().parent != (SRC / "curvident").resolve()]
    if foreign:
        raise BenchError(f"traced children imported curvident from {foreign[0]}")
    table = dict(imports)
    table.update(layer_table(summaries, traced.wall_s / plain.wall_s - 1.0))
    units = dict(PER_LAYER)
    metrics = {name: metric(table[name], units[name]) for name, _ in PER_LAYER}
    return [plain, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        prepare(deadline)
        digests = json.loads(DIGESTS.read_text())
        cmds = WORKLOADS[args.workload](args.seed)
        if args.trace:
            passes, metrics = run_traced(cmds, digests, deadline)
        else:
            passes, metrics = run_untraced(cmds, digests, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(p.walls) for p in passes)
    failed = sum(p.failed for p in passes)
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
