"""Run one curvident CLI command under a span tracer.

Usage::

    python perfbench/tracer.py SPANS.npz -- <curvident cli arguments>

The tracer wraps, from outside the package, every public module-level
function of each ``curvident`` module, a few methods (``Tensor.__init__``,
``Tensor.__add__``, ``RunReport.to_json``) and ``numpy.einsum``, then calls
``curvident.cli.main(argv)``.  Each wrapped call is one span: name, start,
end and the span that was open when it began.  Spans stay in memory and are
written to SPANS.npz when the command returns.  ``Scalar.__init__`` runs far
too often for a span each and is only counted.

Nothing is printed: stdout, stderr, report files and the exit code are
those of the untraced command.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

_clock = time.perf_counter
_T0 = _clock()

# span store: parallel arrays, index 0 is the whole traced process
_names: list = ["trace.process"]
_name_ids: dict = {"trace.process": 0}
_name = array("i", [0])
_parent = array("i", [-1])
_start = array("d", [_T0])
_end = array("d", [0.0])
_stack = [0]
_cold = array("i")  # span indices of delta-engine calls with a new plan key
_counters = {
    "scalar.init.calls": 0,
    "numpy.einsum.object_calls": 0,
    "numpy.einsum.elems_in": 0,
    "identities.witness.count": 0,
}


def _name_id(name: str) -> int:
    nid = _name_ids.get(name)
    if nid is None:
        nid = _name_ids[name] = len(_names)
        _names.append(name)
    return nid


def _open(nid: int) -> int:
    idx = len(_name)
    _name.append(nid)
    _parent.append(_stack[-1])
    _end.append(0.0)
    _stack.append(idx)
    _start.append(_clock())
    return idx


def _close(idx: int):
    _end[idx] = _clock()
    _stack.pop()


def _span(name: str, fn):
    nid = _name_id(name)

    def wrapper(*args, **kwargs):
        idx = _open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(idx)

    return wrapper


def _einsum_span(fn):
    nid = _name_id("numpy.einsum")

    def einsum(*operands, **kwargs):
        elems = 0
        is_object = False
        for op in operands[1:]:
            size = getattr(op, "size", None)
            if size is not None:
                elems += size
                is_object = is_object or op.dtype.hasobject
        _counters["numpy.einsum.elems_in"] += elems
        _counters["numpy.einsum.object_calls"] += is_object
        idx = _open(nid)
        try:
            return fn(*operands, **kwargs)
        finally:
            _close(idx)

    return einsum


def _delta_span(fn):
    """Span for ``generalized_delta_contract``; a call is cold when its
    (n, dim, binding, operand-identity pattern, ranks) key is new in this
    process, which is when the engine compiles its contraction plans."""
    nid = _name_id("delta.generalized_delta_contract")
    seen = set()

    def generalized_delta_contract(n_upper, dim, operands, binding):
        operands = list(operands)
        ids: dict = {}
        pattern = tuple(ids.setdefault(id(t), len(ids)) for t in operands)
        key = (n_upper, dim, binding, pattern, tuple(t.rank for t in operands))
        idx = _open(nid)
        if key not in seen:
            seen.add(key)
            _cold.append(idx)
        try:
            return fn(n_upper, dim, operands, binding)
        finally:
            _close(idx)

    return generalized_delta_contract


def _make_report_span(fn):
    nid = _name_id("identities.make_report")

    def make_report(*args, **kwargs):
        idx = _open(nid)
        try:
            rep = fn(*args, **kwargs)
        finally:
            _close(idx)
        _counters["identities.witness.count"] += rep.witness is not None
        return rep

    return make_report


def _scalar_counter(fn):
    counters = _counters

    def __init__(self, *args, **kwargs):
        counters["scalar.init.calls"] += 1
        fn(self, *args, **kwargs)

    return __init__


def install():
    """Wrap the package from outside; returns the wrapped ``cli.main``."""
    import inspect

    import numpy

    import curvident
    import curvident.cli
    import curvident.expansion6  # imported lazily by report.run_identity

    modules = [
        m for name, m in sorted(sys.modules.items())
        if name.startswith("curvident.") and m is not None
    ]
    # raw_einsum is ein's evaluation step; its time belongs to tensor.ein
    internal = {"tensor.raw_einsum"}
    special = {
        "delta.generalized_delta_contract": _delta_span,
        "identities.make_report": _make_report_span,
    }
    replace = {}
    for mod in modules:
        short = mod.__name__.split(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                name = f"{short}.{attr}"
                if name in internal:
                    continue
                make = special.get(name)
                replace[id(obj)] = make(obj) if make else _span(name, obj)
    # ``from .x import f`` copies the reference, so rebind it everywhere
    for mod in modules + [curvident]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace and inspect.isfunction(obj):
                setattr(mod, attr, replace[id(obj)])

    from curvident.report import RunReport
    from curvident.scalar import Scalar
    from curvident.tensor import Tensor

    Tensor.__init__ = _span("tensor.Tensor.__init__", Tensor.__init__)
    Tensor.__add__ = _span("tensor.Tensor.__add__", Tensor.__add__)
    RunReport.to_json = _span("report.RunReport.to_json", RunReport.to_json)
    Scalar.__init__ = _scalar_counter(Scalar.__init__)
    numpy.einsum = _einsum_span(numpy.einsum)
    return curvident.cli.main


def write(path: str, module_file: str):
    import numpy as np

    np.savez(
        path,
        names=np.array(_names),
        name=np.frombuffer(_name, dtype=np.int32),
        parent=np.frombuffer(_parent, dtype=np.int32),
        start=np.frombuffer(_start, dtype=np.float64),
        end=np.frombuffer(_end, dtype=np.float64),
        cold=np.frombuffer(_cold, dtype=np.int32),
        meta=np.array(json.dumps({"counters": _counters, "module_file": module_file})),
    )


def run(out_path: str, argv: list) -> int:
    main = install()
    curvident = sys.modules["curvident"]
    code = 0
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        _end[0] = _clock()
        _stack.pop()
        write(out_path, curvident.__file__)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS.npz -- <cli arguments>", file=sys.stderr)
        sys.exit(2)
    sys.exit(run(sys.argv[1], sys.argv[3:]))
