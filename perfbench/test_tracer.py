"""Self-checks of the benchmark's tracer.

Run from the repository root with ``python -m pytest perfbench``; the
package's own suite (``tests/``) does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

import run

# one command per layer mix: the delta engine cold and warm, the einsum
# engine with Tensor arithmetic, and a full export with the witness scan
COMMANDS = [
    run.Command(["random-check", "--dim", "6", "--identity", "patterson", "--r", "3",
                 "--mode", "traced", "-n", "2", "--seed", "5"], trials=2),
    run.Command(["random-check", "--dim", "6", "--identity", "lemma6", "-n", "2",
                 "--seed", "5"], trials=2),
    run.Command(["export", "--model", "example5d", "--k", "1", "--set", "all",
                 "--out", "example5d.json"], report="example5d.json", digest="example5d"),
]


@pytest.fixture(scope="module")
def traced_pair():
    """Each command untraced once and traced twice."""
    deadline = time.monotonic() + 600
    run.prepare(deadline)
    digests = json.loads(run.DIGESTS.read_text())
    spans = run.WORK / "spans"
    plain = run.run_pass(COMMANDS, digests, deadline)
    traced = []
    for _ in range(2):
        spans.mkdir(exist_ok=True)
        result = run.run_pass(COMMANDS, digests, deadline, spans)
        summaries = [run.load_spans(spans / f"{i}.npz") for i in range(len(COMMANDS))]
        traced.append((result, summaries))
        shutil.rmtree(spans)
    return plain, traced


def test_traced_output_bytes_match_untraced(traced_pair):
    plain, traced = traced_pair
    assert plain.failed == 0
    for result, _ in traced:
        assert result.failed == 0
        assert result.outputs == plain.outputs


def test_exact_counts_repeat(traced_pair):
    _, ((_, first), (_, second)) = traced_pair
    for a, b in zip(first, second):
        for name in ("numpy.einsum", "tensor.ein"):
            assert a["spans"][name][0] == b["spans"][name][0], name
        assert a["cold_calls"] == b["cold_calls"]
    # the delta engine compiles once per process, the Einstein id never uses it
    assert first[0]["cold_calls"] == 1
    assert first[0]["spans"]["delta.generalized_delta_contract"][0] == 2
    assert first[1]["spans"]["delta.generalized_delta_contract"][0] == 0


def test_self_times_add_up_to_traced_wall(traced_pair):
    _, traced = traced_pair
    for result, summaries in traced:
        for process_wall, s in zip(result.walls, summaries):
            assert s["min_self_s"] >= -1e-9  # children never overlap their parent's end
            assert s["self_sum_s"] == pytest.approx(s["wall_s"], rel=1e-9, abs=1e-9)
            # the traced wall is the tracer's own part of the child process
            assert 0 < s["wall_s"] < process_wall
