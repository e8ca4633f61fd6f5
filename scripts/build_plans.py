"""Write the delta engine's packaged plans, ``src/curvident/delta_plans.json``.

Usage (from the repository root)::

    python3 scripts/build_plans.py

The file holds the compiled plans of every plan key the command line
reaches with a non-zero curvature operand: ``patterson`` and
``weyl-patterson`` at each dimension, r and mode that the identity table
allows (``report._resolve``), each r copies of one operand whose slot
symmetries are a curvature tensor's (read off ``random_curvature(dim,
1)``).  weyl-patterson's keys are patterson's: the Weyl part of a
generic curvature tensor has the same symmetries.  A key is one line,
``[key repr, [[subscripts, records], ...]]``, in the order ``plan_keys``
lists them; the engine parses only the line of the key it needs
(``delta._plans``).

``render()`` gives the file's bytes from a fresh compile; a tier-1 test
asserts the packaged file equals it, so a change to the compile needs a
run of this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "src" / "curvident" / "delta_plans.json"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from curvident import delta  # noqa: E402
from curvident.identities import IdentityArgumentError, _patterson_binding, max_r  # noqa: E402
from curvident.models import random_curvature  # noqa: E402
from curvident.report import _IDENTITIES, _resolve  # noqa: E402


def plan_keys() -> list:
    """The plan keys (n, dim, binding, groups, op_ranks, symmetries) the
    delta ids reach with a curvature tensor's symmetries, without repeats."""
    keys = {}
    for ident, entry in _IDENTITIES.items():
        if not entry.delta:
            continue
        for dim in entry.dims:
            symmetries = (delta._slot_symmetries(random_curvature(dim, 1).tensor),)
            for r in range(1, max_r(dim) + 1):
                for mode in ("free", "traced"):
                    try:
                        _resolve(ident, dim, r, mode)
                    except IdentityArgumentError:
                        continue
                    binding = _patterson_binding(dim, r, mode)
                    keys[(dim + 1, dim, binding, (0,) * r, (4,) * r, symmetries)] = None
    return list(keys)


def render() -> bytes:
    """The packaged file's bytes: one compact JSON line per key."""
    lines = []
    for key in plan_keys():
        n, dim, binding, groups, op_ranks, symmetries = key
        layout = delta._layout(dim, binding.out)
        plans = delta._compile_plans(n, dim, binding, groups, op_ranks, layout, symmetries)
        lines.append(json.dumps(
            [repr(key), [[p.subscripts, p.specs] for p in plans]], separators=(",", ":")
        ))
    return "".join(line + "\n" for line in lines).encode()


def main() -> int:
    data = render()
    OUT.write_bytes(data)
    keys = data.count(b"\n")
    print(f"wrote {OUT.relative_to(ROOT)}: {keys} keys, {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
