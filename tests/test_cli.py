"""CLI surface: exit codes, verify semantics, export determinism."""

import gc
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from curvident import cli, identities, report
from curvident import tensor as tensor_mod
from curvident.cli import main
from curvident.delta import EngineInvariantError
from curvident.tensor import ContractionSpecError, ShapeError
from curvident import models
from curvident.models import KINDS, MAX_TERMS, ModelSpec, _INTEGER_PARAMS, _KINDS, build, save_model
from curvident.scalar import Scalar


def run_cli(*argv):
    return main(list(argv))


def test_invariants_example5d(capsys):
    assert run_cli("invariants", "--model", "example5d", "--k", "1") == 0
    out = capsys.readouterr().out
    assert "tau:            10" in out
    assert "r_norm_sq:      28" in out
    assert "einstein:       true" in out
    assert "super_einstein: false" in out


def test_invariants_sl3so3_json(capsys):
    assert run_cli("invariants", "--model", "sl3so3", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["invariants"]["tau"] == "-15"
    assert data["invariants"]["r_norm_sq"] == "75"
    assert data["two_stein"]["is_two_stein"] is True


def test_invariants_flat_all_zero(capsys):
    assert run_cli("invariants", "--model", "flat", "--dim", "5") == 0
    out = capsys.readouterr().out
    assert "tau:            0" in out
    assert "gauss_bonnet" not in out  # only in dim 6


def test_invariants_flat6_gauss_bonnet(capsys):
    assert run_cli("invariants", "--model", "flat", "--dim", "6") == 0
    assert "gauss_bonnet:   0" in capsys.readouterr().out


def test_verify_thmA_a_passes(capsys):
    assert run_cli("verify", "--model", "example5d", "--k", "1", "--set", "thmA-a") == 0


def test_verify_thmA_b_fails_without_expectation(capsys):
    rc = run_cli("verify", "--model", "example5d", "--k", "1", "--set", "thmA-b")
    # the super-Einstein hypothesis is unsatisfied, so the verdict ignores
    # the nonzero residual
    assert rc == 0
    assert "NONZERO" in capsys.readouterr().out


def test_verify_expect_fail_inverts(capsys):
    rc = run_cli(
        "verify", "--model", "example5d", "--k", "1",
        "--set", "thmA-b", "--expect-fail", "thmA-b",
    )
    assert rc == 0
    # expecting failure on an identity that holds must fail the run
    rc = run_cli(
        "verify", "--model", "sl3so3", "--set", "thmA-b", "--expect-fail", "thmA-b"
    )
    assert rc == 1


def test_expect_fail_outside_set_exit2(capsys):
    """A negative control for an identity that is not evaluated is an input
    error, not a silent pass."""
    rc = run_cli(
        "verify", "--model", "example5d", "--set", "lemma5", "--expect-fail", "thmA-b"
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "--expect-fail thmA-b" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("ids", [",", ""], ids=["comma", "empty"])
def test_empty_identity_set_exit2(tmp_path, capsys, command, ids):
    """A --set naming no identity would pass without evaluating a residual."""
    out = tmp_path / "r.json"
    extra = ["--out", str(out)] if command == "export" else []
    assert run_cli(command, "--model", "sl3so3", "--set", ids, *extra) == 2
    assert "names no identity" in capsys.readouterr().err
    assert not out.exists()


def test_unparsable_thread_variable_ignored(monkeypatch, capsys):
    """No environment variable is read by the parser, so an unparsable
    CURVIDENT_THREADS cannot turn a pass into exit code 1."""
    monkeypatch.setenv("CURVIDENT_THREADS", "two")
    assert main(["invariants", "--model", "sl3so3"]) == 0
    assert "tau:            -15" in capsys.readouterr().out


def test_verify_unknown_identity_exit2():
    assert run_cli("verify", "--model", "sl3so3", "--set", "nonsense") == 2


def test_verify_unknown_model_exit2():
    assert run_cli("verify", "--model", "nonsense", "--set", "all") == 2


def test_verify_missing_file_exit2():
    assert run_cli("verify", "--model", "/nonexistent/m.json", "--set", "all") == 2


def test_verify_wrong_dim_identity_exit2(capsys):
    assert run_cli("verify", "--model", "example5d", "--set", "lemma6") == 2
    assert "lemma6 applies to dim 6, not 5" in capsys.readouterr().err


def test_random_check_wrong_dim_identity_exit2(capsys):
    """The identity's own dimension is checked before any trial is built."""
    assert run_cli("random-check", "--dim", "3", "--identity", "lemma5", "-n", "1") == 2
    captured = capsys.readouterr()
    assert "trials:" not in captured.out
    assert "lemma5 applies to dim 5, not 3" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--set", "patterson,patterson"],
        ["export", "--set", "thmA-b, thmA-b", "--out", "r.json"],
        ["verify", "--set", "thmA-b", "--expect-fail", "thmA-b", "--expect-fail", "thmA-b"],
    ],
    ids=["verify-set", "export-set", "expect-fail"],
)
def test_repeated_identity_exit2(tmp_path, monkeypatch, capsys, argv):
    """A repeated id would evaluate, print and export its residuals twice."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv[0], "--model", "sl3so3", *argv[1:]) == 2
    captured = capsys.readouterr()
    assert "more than once" in captured.err
    assert "verdict" not in captured.out
    assert not (tmp_path / "r.json").exists()


def test_random_check_universal(capsys):
    rc = run_cli(
        "random-check", "--dim", "4", "--identity", "patterson", "--r", "2",
        "-n", "3", "--seed", "7",
    )
    assert rc == 0
    assert "zero: 3" in capsys.readouterr().out


@pytest.mark.parametrize("ident", ["patterson", "weyl-patterson"])
@pytest.mark.parametrize(
    "dim, r, n, chunk, batches", [(3, 1, 30, 1152, [30]), (4, 1, 24, 22, [22, 2])])
def test_random_check_delta_id_in_batched_chunks(
        monkeypatch, capsys, ident, dim, r, n, chunk, batches):
    """A delta id's chunk is sized by its run's residual: rank 4 in dim 3
    (r = 1, free), so 30 trials are one engine call, and rank 6 in dim 4
    (r = 1, free), 22 trials a chunk, so 24 trials end on a chunk of 2."""
    real, calls = identities.generalized_delta_contract, []
    monkeypatch.setattr(identities, "generalized_delta_contract",
                        lambda *a: calls.append(a[2][0].batch) or real(*a))
    assert report.chunk_size(ident, dim, [(r, "free")]) == chunk
    rc = run_cli("random-check", "--dim", str(dim), "--identity", ident, "--r", str(r), "-n", str(n))
    assert rc == 0
    assert f"trials: {n}  zero: {n}  nonzero: 0" in capsys.readouterr().out
    assert calls == batches


def test_random_check_einstein_hypothesis(capsys):
    rc = run_cli(
        "random-check", "--dim", "5", "--identity", "lemma5", "-n", "2", "--seed", "7"
    )
    assert rc == 0


def test_random_check_negative_control(capsys):
    rc = run_cli(
        "random-check", "--dim", "6", "--identity", "thmB-b", "-n", "2", "--seed", "7"
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "first failing seed: 7" in out
    assert "witness" in out


def test_export_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("export", "--model", "sl3so3", "--set", "thmA-b", "--out", str(out1)) == 0
    data = json.loads(out1.read_text())
    assert data["invariants"]["tau"] == "-15"
    assert data["verdict"] == "pass"
    # re-verify from the exported explicit components: identical report
    spec_path = tmp_path / "explicit.json"
    spec_path.write_text(json.dumps(data["model"]) + "\n")
    assert run_cli(
        "export", "--model", str(spec_path), "--set", "thmA-b", "--out", str(out2)
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_export_unwritable_path_exit2(tmp_path):
    assert run_cli(
        "export", "--model", "sl3so3", "--set", "thmA-b",
        "--out", str(tmp_path / "no" / "dir" / "x.json"),
    ) == 2


def test_model_file_input(tmp_path, capsys):
    spec = ModelSpec("nikolayevsky", {"alpha": Scalar(2), "beta": Scalar(1)})
    path = tmp_path / "nik.json"
    save_model(spec, path)
    assert run_cli("verify", "--model", str(path), "--set", "pa5") == 0


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "curvident.cli", "invariants", "--model", "example6d", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gauss_bonnet:   0" in proc.stdout


def test_entry_point_export_needs_no_finalizer(tmp_path, capsys):
    """The command-line entry freezes the import-time heap; the export it
    writes is the in-process one byte for byte, and no file is left to a
    finalizer (an unclosed file would print a ResourceWarning)."""
    argv = ["export", "--model", "example5d", "--k", "1", "--set", "all", "--out"]
    assert run_cli(*argv, str(tmp_path / "in_process.json")) == 0
    # the child runs in tmp_path, so it finds curvident by absolute path
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    # -B: the child writes no bytecode beside the package
    proc = subprocess.run(
        [sys.executable, "-B", "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "curvident.cli", *argv, "F"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "F").read_bytes() == (tmp_path / "in_process.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["invariants", "--model", "flat", "--dim", "5"],
    ["random-check", "--dim", "4", "--identity", "patterson", "-n", "1"],
    ["verify", "--model", "nosuch"],
])
def test_in_process_main_freezes_nothing(argv, capsys):
    """Only the process's own command line (argv None) freezes the heap: a
    freeze here would keep every pending garbage cycle of this process."""
    before = gc.get_freeze_count()
    run_cli(*argv)
    assert gc.get_freeze_count() == before


def test_random_check_without_trials_exit2(capsys):
    for n in ("0", "-3"):
        rc = run_cli(
            "random-check", "--dim", "4", "--identity", "patterson", "-n", n
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "trials:" not in captured.out
        assert "-n must be >= 1" in captured.err


def test_model_file_unknown_param_exit2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "sl3_so3", "params": {"dim": 6, "kk": "7"}}))
    assert run_cli("verify", "--model", str(path), "--set", "all") == 2
    assert "/params/dim: unknown parameter" in capsys.readouterr().err


def test_verify_exported_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli(
        "export", "--model", "sl3so3", "--set", "patterson,thmA-b", "--out", str(report)
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "verify", "--model", str(report), "--set", "patterson,thmA-b", "--json"
    ) == 0
    assert capsys.readouterr().out.encode() == report.read_bytes()


def test_bad_delta_arguments_exit2(capsys):
    cases = [
        (("--identity", "patterson", "--r", "3"), "--r 3 out of range"),
        (("--identity", "lemma5", "--r", "2"), "--r and --mode apply to"),
        (("--identity", "lemma5", "--mode", "free"), "--r and --mode apply to"),
    ]
    for extra, message in cases:
        assert run_cli("random-check", "--dim", "5", *extra, "-n", "1") == 2
        captured = capsys.readouterr()
        assert "trials:" not in captured.out
        assert message in captured.err


@pytest.mark.parametrize(
    "exc",
    [
        EngineInvariantError("broken"),
        ValueError("broken"),
        ShapeError("broken"),
        ContractionSpecError("broken"),
    ],
)
def test_internal_error_exit3(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(identities, "generalized_delta_contract", fail)
    rc = run_cli("random-check", "--dim", "4", "--identity", "patterson", "-n", "1")
    assert rc == 3
    assert "internal error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "options",
    [
        ["--model", "constant", "--dim", "6", "--k", "-2/3"],
        ["--model", "nikolayevsky", "--alpha", "-1-1*sqrt(3)", "--beta", "-1/2"],
    ],
)
def test_negative_scalar_option_as_separate_word(capsys, options):
    """Scalar text starting with '-' is an option's value as a separate word,
    exactly as after '='."""
    joined = [f"{o}={v}" for o, v in zip(options[::2], options[1::2])]
    assert run_cli("invariants", *options, "--json") == 0
    separate = json.loads(capsys.readouterr().out)
    assert run_cli("invariants", *joined, "--json") == 0
    assert json.loads(capsys.readouterr().out) == separate


def test_readme_identity_table():
    """The README's identity table states each id's dimensions and
    hypothesis exactly as the code table does."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Identity ids for `--set` / `--identity`:", 1)[1]
    rows = [ln.split("|")[1:4] for ln in table.split("\n\n", 2)[1].splitlines()[2:]]
    documented = [tuple(cell.strip() for cell in row) for row in rows]

    def dims(d):
        return str(d[0]) if len(d) == 1 else f"{d[0]}–{d[-1]}"

    expected = [(i, dims(e.dims), e.hypothesis) for i, e in report._IDENTITIES.items()]
    assert documented == expected


def test_readme_cli_examples_parse():
    """Every usage line of the README parses: an option removed from the
    parser cannot linger in the examples."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh\n")[1:]]
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("curvident ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(cli._attach_scalar_values(shlex.split(line)[1:]))


def test_readme_python_blocks_run():
    """Every fenced python block of the README runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("name", list(cli._CATALOG))
def test_catalog_names_resolve_to_kinds(name):
    args = cli.build_parser().parse_args(
        ["invariants", "--model", name, "--dim", "5", "--alpha", "1", "--beta", "1"]
    )
    spec = cli._resolve_spec(args)
    assert spec.kind in KINDS
    build(spec)  # the options complete the kind's parameters


@pytest.mark.parametrize(
    "options, message",
    [
        (("--model", "flat"), "/params/dim: flat requires --dim"),
        (("--model", "constant", "--k", "2"), "/params/dim: constant requires --dim"),
        (("--model", "random-einstein"), "/params/dim: random-einstein requires --dim"),
        (("--model", "nikolayevsky", "--alpha", "1"), "/params/beta: nikolayevsky requires --beta"),
        (("--model", "nikolayevsky", "--beta", "1"), "/params/alpha: nikolayevsky requires --alpha"),
    ],
)
def test_missing_model_option_exit2(capsys, options, message):
    assert run_cli("invariants", *options) == 2
    assert message in capsys.readouterr().err


_CC3 = {"kind": "constant_curvature", "params": {"dim": 3, "k": "1"}}
_cc2 = {"kind": "constant_curvature", "params": {"dim": 2, "k": "1"}}
# antisymmetric in both pairs and pair-symmetric, but not first Bianchi
_BIANCHI4 = {"kind": "explicit", "params": {"dim": 4},
             "components": [{"idx": [1, 2, 3, 4], "val": "1"}]}


def _explicit3(entry):
    """An explicit dim-3 model: R_1212 = 1, then ``entry``."""
    return {"kind": "explicit", "params": {"dim": 3},
            "components": [{"idx": [1, 2, 1, 2], "val": "1"}, entry]}


@pytest.mark.parametrize(
    "model, message",
    [
        ({"kind": "sl3_so3", "components": [{"idx": [1, 2, 1, 2], "val": "5"}]},
         "/components: sl3_so3 takes no components"),
        ({"kind": "constant_curvature", "params": {"dim": 4, "k": "1"}, "paramz": {}},
         "/paramz: unknown key"),
        ({"kind": "constant_curvature", "params": {"dim": True, "k": "1"}},
         "/params/dim: expected an integer"),
        # a component error points at its entry, inside its factor
        ({"kind": "product", "factors": [_CC3, _explicit3({"idx": [1, 2, 1, 7], "val": "1"})]},
         "/factors/1/components/1/idx: index [1, 2, 1, 7] out of range for dim 3"),
        ({"kind": "product", "factors": [_CC3, _explicit3({"idx": [2, 1, 1, 2], "val": "1"})]},
         "/factors/1/components/1: component [2, 1, 1, 2] assigned conflicting values"),
        # the components fill a tensor that violates first Bianchi
        (_BIANCHI4, "/components: first Bianchi identity violated at component (1, 2, 3, 4)"),
        ({"kind": "product", "factors": [_cc2, _BIANCHI4]},
         "/factors/1/components: first Bianchi identity violated at component (1, 2, 3, 4)"),
        ({"kind": "product", "factors": [{"kind": "example_5d", "params": {"k": "1"}}, _cc2]},
         "/factors: product dim 7 exceeds 6"),
        ({"kind": "product", "factors": [_CC3, {"kind": "product", "factors": [_cc2, _cc2]}]},
         "/factors: product dim 7 exceeds 6"),
        ({"kind": "random_einstein", "params": {"dim": 3, "seed": 1, "n_terms": 4, "k": "1"}},
         "/params/dim: random_einstein needs dim >= 4 (nontrivial Weyl part), got 3"),
        ({"kind": "product", "factors": [_cc2, {"kind": "random_einstein",
                                                "params": {"dim": 2, "seed": 1, "n_terms": 4,
                                                           "k": "1"}}]},
         "/factors/1/params/dim: random_einstein needs dim >= 4 (nontrivial Weyl part), got 2"),
        # an exported report's model is read at /model
        ({"model": _BIANCHI4},
         "/model/components: first Bianchi identity violated at component (1, 2, 3, 4)"),
        # n_terms above MAX_TERMS, at the top level and inside a factor
        ({"kind": "random_einstein",
          "params": {"dim": 5, "seed": 1, "n_terms": MAX_TERMS + 1, "k": "1"}},
         f"/params/n_terms: n_terms must be in 1..{MAX_TERMS}, got {MAX_TERMS + 1}"),
        ({"kind": "product", "factors": [{"kind": "random_einstein",
                                          "params": {"dim": 4, "seed": 1, "n_terms": 10 ** 9,
                                                     "k": "1"}}, _cc2]},
         f"/factors/0/params/n_terms: n_terms must be in 1..{MAX_TERMS}, got 1000000000"),
    ],
)
def test_model_file_schema_violation_exit2(tmp_path, capsys, model, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    assert run_cli("verify", "--model", str(path), "--set", "all") == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "internal error" not in captured.err


def _cc(dim):
    return {"kind": "constant_curvature", "params": {"dim": dim, "k": "1"}}


_RANDOM_EINSTEIN = {"kind": "random_einstein",
                    "params": {"dim": -1, "seed": 1, "n_terms": 4, "k": "1"}}


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (("verify", "--model", "constant", "--dim", "-1"), "/params/dim"),
        (("invariants", "--model", "constant", "--dim", "-1"), "/params/dim"),
        (("verify", "--model", "random-einstein", "--dim", "-1"), "/params/dim"),
        (("verify", "--model", "constant", "--dim", "99999999999999999999"), "/params/dim"),
        (("verify", "--model", "flat", "--dim", "0"), "/params/dim"),
        (("invariants", "--model", "constant", "--dim", "1"), "/params/dim"),
        (("verify", "--model", "constant", "--dim", "7"), "/params/dim"),
        # a dict stands for a model file holding it
        (("verify", "--model", _cc(-1)), "/params/dim"),
        (("verify", "--model", {"kind": "explicit", "params": {"dim": -1}, "components": []}),
         "/params/dim"),
        (("verify", "--model", _RANDOM_EINSTEIN), "/params/dim"),
        (("verify", "--model", {"kind": "product", "factors": [_cc(-2), _cc(3)]}),
         "/factors/0/params/dim"),
        (("invariants", "--model", {"kind": "product", "factors": [_cc(3), _cc(0)]}),
         "/factors/1/params/dim"),
    ],
    ids=["verify-neg", "invariants-neg", "random-einstein-neg", "huge", "zero", "one", "seven",
         "file-constant", "file-explicit", "file-random-einstein", "file-factor-neg",
         "file-factor-zero"],
)
def test_dimension_out_of_range_exit2(tmp_path, capsys, argv, pointer):
    """A dimension outside 2..6, from an option or a model file, is an input
    error that names its JSON pointer; no array is built from it."""
    path = tmp_path / "m.json"
    args = []
    for word in argv:
        if isinstance(word, dict):
            path.write_text(json.dumps(word))
            word = str(path)
        args.append(word)
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert f"{pointer}: dim must be in 2..6" in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--model", "random-einstein", "--dim", "3"),
         "/params/dim: random_einstein needs dim >= 4 (nontrivial Weyl part), got 3"),
        (("invariants", "--model", "random-einstein", "--dim", "2"),
         "/params/dim: random_einstein needs dim >= 4 (nontrivial Weyl part), got 2"),
        (("random-check", "--dim", "6", "--identity", "patterson", "--r", "1", "--mode", "free"),
         "--mode free at dim 6, r=1 gives rank 10 > 8"),
        (("random-check", "--dim", "6", "--identity", "weyl-patterson", "--r", "1", "--mode",
          "free"), "--mode free at dim 6, r=1 gives rank 10 > 8"),
        (("random-check", "--dim", "6", "--identity", "lemma6", "--terms", str(MAX_TERMS + 1)),
         f"--terms must be in 1..{MAX_TERMS}, got {MAX_TERMS + 1}"),
        (("random-check", "--dim", "5", "--identity", "patterson", "--terms", "0"),
         f"--terms must be in 1..{MAX_TERMS}, got 0"),
        (("invariants", "--model", "random-einstein", "--dim", "5", "--terms", "1000000000"),
         f"/params/n_terms: n_terms must be in 1..{MAX_TERMS}, got 1000000000"),
    ],
    ids=["verify-random-einstein-3", "invariants-random-einstein-2", "patterson-free-rank-10",
         "weyl-patterson-free-rank-10", "random-check-terms-above", "random-check-terms-zero",
         "invariants-terms-above"],
)
def test_option_rejected_before_the_engine_exit2(capsys, argv, message):
    """An option value the engine could not evaluate is rejected where the
    option is read, naming the option's JSON pointer or the option."""
    assert run_cli(*argv, *(["-n", "1"] if argv[0] == "random-check" else [])) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "internal error" not in captured.err and "trials:" not in captured.out


def test_readme_model_catalog():
    """The README's `Models:` paragraph names exactly the catalog names,
    each with the options that give its kind's parameters."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    paragraph = readme.split("Models: ", 1)[1].split("or a model JSON file path", 1)[0]
    documented = {}
    for usage in paragraph.split("`")[1::2]:
        name, *words = usage.split()
        documented[name] = {w for w in words if w.startswith("--")}
    expected = {
        name: {cli._PARAM_OPTIONS[key] for key in _KINDS[kind][0] if key not in fixed}
        for name, (kind, fixed) in cli._CATALOG.items()
    }
    assert documented == expected


# -- exit-code fuzz -------------------------------------------------------------
#
# Model files are generated from models._KINDS, model options from
# cli._CATALOG and cli._PARAM_OPTIONS, and random-check options from
# report._IDENTITIES.  Each input is valid, or valid but for one mutated
# field; n_terms (--terms) and -n set the amount of work a run does, so they
# stay small, or sit at or just past n_terms's bound MAX_TERMS.  Whatever the
# input, the CLI exits 0, 1 or 2, and an exit 2 caused by a model file names
# a JSON pointer.

# tier-1 runs a fixed, small, derandomized set of examples;
# ``--hypothesis-profile=deep`` (tests/conftest.py) runs that profile's count
_DEEP = settings.get_current_profile_name() == "deep"
_FUZZ = settings(
    max_examples=settings.default.max_examples if _DEEP else 60,
    derandomize=not _DEEP,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

_HUGE = st.sampled_from([10 ** 20, -(10 ** 20), 2 ** 63, -(2 ** 63) - 1])
_WRONG_TYPE = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_SCALAR = st.sampled_from(["0", "1", "2", "-2/3", "1+1*sqrt(3)", "-1-1*sqrt(3)", "0+1/2*sqrt(3)",
                           "123456789012345678901234567890"])
_BAD_SCALAR = st.one_of(st.sampled_from(["1/0", "", "x", "1e5", "sqrt(3)", "1/2*sqrt(3)"]),
                        st.text(alphabet="0123456789+-*/sqrt() ", max_size=8))
_INTEGERS = {
    "dim": st.integers(2, 6),
    "seed": st.one_of(st.integers(-3, 3), _HUGE),
    "n_terms": st.one_of(st.integers(1, 3), st.just(MAX_TERMS)),
}
_BAD_INTEGERS = {
    "dim": st.one_of(st.sampled_from([-1, 0, 1, 7]), _HUGE),
    "seed": st.text(max_size=2),
    "n_terms": st.one_of(st.sampled_from([-1, 0, MAX_TERMS + 1]), _HUGE),
}


def _value(name, bad=False):
    if name in _INTEGER_PARAMS:
        return (_BAD_INTEGERS if bad else _INTEGERS)[name]
    return _BAD_SCALAR if bad else _SCALAR


# the kinds whose shape the file sets (a dim, factors or components), drawn
# twice as often as the others
_SHAPED_KINDS = st.sampled_from(sorted(k for k, e in _KINDS.items() if e[1] or "dim" in e[0]))


def _component(dim):
    """A component of an explicit model; an (i, j, i, j) one keeps first
    Bianchi, one with four distinct indices breaks it unless others mend it."""
    indices = st.permutations(range(1, dim + 1))
    idx = st.one_of(indices.map(lambda p: [p[0], p[1], p[0], p[1]]),
                    indices.map(lambda p: p[:4]) if dim >= 4 else st.nothing())
    return st.fixed_dictionaries({"idx": idx, "val": _SCALAR})


@st.composite
def _model_json(draw, depth=0):
    """A model object of a kind from models._KINDS: valid, or valid but for
    one mutated field (product factors nest two deep)."""
    kind = draw(st.one_of(st.sampled_from(sorted(_KINDS)), _SHAPED_KINDS))
    names, takes, _, _ = _KINDS[kind]
    out = {"kind": kind, "params": {n: draw(_value(n)) for n in names}}
    if takes == "factors":
        out["factors"] = [draw(_model_json(depth + 1)) if depth < 2 else {"kind": "sl3_so3"}
                          for _ in range(2)]
    if takes == "components":
        out["components"] = draw(st.lists(_component(out["params"]["dim"]), min_size=1, max_size=3))
    mutation = draw(st.sampled_from([None] * 12 + ["kind", "param", "missing", "extra", "field",
                                                   "entry", "type"]))
    if mutation == "kind":
        out["kind"] = draw(st.one_of(st.just("nope"), _WRONG_TYPE))
    elif mutation in ("param", "missing", "type") and names:
        name = draw(st.sampled_from(names))
        if mutation == "missing":
            del out["params"][name]
        else:
            out["params"][name] = draw(_WRONG_TYPE if mutation == "type" else _value(name, True))
    elif mutation == "extra":
        key = draw(st.sampled_from(["params", "top"]))
        (out["params"] if key == "params" else out)["extra"] = "1"
    elif mutation == "field":
        field = draw(st.sampled_from(["factors", "components", "params"]))
        out[field] = draw(st.one_of(_WRONG_TYPE, st.just([{"kind": "sl3_so3"}])))
    elif mutation == "entry" and out.get("components"):
        entry = out["components"][0]
        key = draw(st.sampled_from(["idx", "val", "extra"]))
        entry[key] = draw(st.one_of(_WRONG_TYPE, st.lists(_HUGE, min_size=4, max_size=4)))
    return out


def _exit_code(argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects the words
        return exc.code


@_FUZZ
@given(
    model=_model_json(),
    as_report=st.booleans(),
    command=st.sampled_from([("invariants", "--json"), ("verify", "--set", "all")]),
)
def test_fuzz_model_file_exit_codes(tmp_path, capsys, model, as_report, command):
    """Any model file exits 0, 1 or 2, and exit 2 names a JSON pointer."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": model} if as_report else model))
    rc = _exit_code([command[0], "--model", str(path), *command[1:]])
    err = capsys.readouterr().err
    event(f"exit {rc}")
    assert rc in (0, 1, 2), err
    if rc == 2:
        assert re.match(r"error: /\S*: ", err), err


@st.composite
def _model_options(draw):
    """--model with a catalog name and the options of cli._PARAM_OPTIONS its
    kind needs: valid, or valid but for one mutated option."""
    name = draw(st.sampled_from(sorted(cli._CATALOG)))
    kind, fixed = cli._CATALOG[name]
    options = {cli._PARAM_OPTIONS[k]: draw(_value(k)) for k in _KINDS[kind][0] if k not in fixed}
    mutation = draw(st.sampled_from([None] * 4 + ["model", "missing", "bad", "extra"]))
    if mutation == "model":
        name = "nope"
    elif mutation == "missing" and options:
        del options[draw(st.sampled_from(sorted(options)))]
    elif mutation in ("bad", "extra"):
        key = draw(st.sampled_from(sorted(cli._PARAM_OPTIONS)))
        options[cli._PARAM_OPTIONS[key]] = draw(_value(key, bad=mutation == "bad"))
    return ["--model", name, *(w for o, v in options.items() for w in (o, str(v)))]


@_FUZZ
@given(model=_model_options(), data=st.data())
def test_fuzz_cli_options_exit_codes(tmp_path, capsys, model, data):
    """Every model option of invariants, verify and export exits 0, 1 or 2."""
    ids = st.sampled_from([*report.IDENTITY_IDS, "nope"])
    command = data.draw(st.sampled_from(["invariants", "verify", "export"]))
    argv = [command, *model]
    if command != "invariants" and data.draw(st.booleans()):
        argv += ["--set", data.draw(st.one_of(st.just("all"), st.lists(ids, max_size=2).map(",".join)))]
    if command == "verify" and data.draw(st.booleans()):
        argv += ["--expect-fail", data.draw(ids)]
    if command != "export" and data.draw(st.booleans()):
        argv.append("--json")
    if command == "export":
        argv += ["--out", str(tmp_path / data.draw(st.sampled_from(["r.json", "no/r.json"])))]
    rc = _exit_code(argv)
    captured = capsys.readouterr()
    event(f"exit {rc}")
    assert rc in (0, 1, 2), captured.err
    assert "internal error" not in captured.err


# the delta ids, which take --r and --mode, are drawn more often
_DELTA_IDS = st.sampled_from(sorted(i for i, e in report._IDENTITIES.items() if e.delta))


@st.composite
def _random_check_options(draw):
    """random-check's options for an id of report._IDENTITIES at one of its
    dims: valid, or valid but for one mutated option."""
    ident = draw(st.one_of(st.sampled_from(sorted(report._IDENTITIES)), _DELTA_IDS))
    entry = report._IDENTITIES[ident]
    # the largest dim, where the free ranks peak, is drawn more often
    dim = draw(st.one_of(st.sampled_from(entry.dims), st.just(entry.dims[-1])))
    options = {"--dim": dim, "--identity": ident, "-n": draw(st.integers(1, 2)),
               "--terms": draw(_INTEGERS["n_terms"]), "--seed": draw(_INTEGERS["seed"])}
    if entry.delta:
        if draw(st.booleans()):
            options["--r"] = draw(st.integers(1, dim // 2))
        options["--mode"] = draw(st.sampled_from(["auto", "free", "traced"]))
    bad = {
        "--dim": st.one_of(st.integers(-1, 7), _HUGE),
        "--identity": st.just("nope"),
        "--r": st.one_of(st.integers(-1, 4), _HUGE),
        "--mode": st.sampled_from(["free", "traced"]),
        "-n": st.integers(-1, 0),
        "--terms": _BAD_INTEGERS["n_terms"],
    }
    mutation = draw(st.sampled_from([None] * 4 + sorted(bad)))
    if mutation:
        options[mutation] = draw(bad[mutation])
    return ["random-check", *(w for o, v in options.items() for w in (o, str(v)))]


@_FUZZ
@given(argv=_random_check_options())
def test_fuzz_random_check_exit_codes(capsys, argv):
    """random-check exits 0, 1 or 2 for any --dim, --r, --mode, -n and
    --terms."""
    rc = _exit_code(argv)
    captured = capsys.readouterr()
    event(f"exit {rc}")
    assert rc in (0, 1, 2), captured.err
    assert "internal error" not in captured.err


# -- random-check's chunks ------------------------------------------------------

# stdout, stderr and exit code of random-check, recorded before random-check
# evaluated its trials in chunks: every non-delta id at n = 1, chunk - 1 and
# chunk + 1, at the dim it does not apply to, the negative controls
# (super-Einstein ids exit 1 with the first failing seed's witnesses), other
# --terms, and a few delta-id campaigns
_GOLDEN = json.loads((Path(__file__).resolve().parent / "random_check_golden.json").read_text())


def test_golden_table_crosses_each_chunk_boundary():
    """The table's trial counts are the chunk sizes it was written for, one
    below and one above: 149 trials in dim 5, 72 for rank-4 ids in dim 6 and
    2 for rank-6 ids."""
    want = {"lemma5": 149, "thmA-a": 149, "pa5": 149, "thmA-b": 149, "thmB-a": 72,
            "thmB-b": 72, "lemma6": 2, "eq42": 2, "appendix34": 2}
    for ident, chunk in want.items():
        dim = report._IDENTITIES[ident].dims[0]
        assert report.chunk_size(ident, dim) == chunk
        counts = {int(row["argv"][6]) for row in _GOLDEN if row["argv"][4] == ident
                  and row["argv"][2] == str(dim)}
        assert {chunk - 1, chunk + 1} <= counts


@pytest.mark.parametrize("row", _GOLDEN, ids=lambda row: " ".join(row["argv"][1:]))
def test_random_check_golden_table(capsys, row):
    assert main(list(row["argv"])) == row["code"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (row["stdout"], row["stderr"])


def test_a_smaller_last_chunk_reuses_the_einsum_paths(monkeypatch, capsys):
    """lemma6 runs in chunks of 2 trials: -n 5 ends with a chunk of one,
    which contracts along the paths the first chunk searched."""
    real, calls = np.einsum_path, []
    monkeypatch.setattr(np, "einsum_path", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    counts = []
    for n in ("4", "5"):
        monkeypatch.setattr(tensor_mod, "_PATH_CACHE", {})
        calls.clear()
        assert run_cli("random-check", "--dim", "6", "--identity", "lemma6", "-n", n, "--seed", "1") == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert 0 < counts[1] <= counts[0]


def test_random_check_finds_only_the_printed_witnesses(monkeypatch, capsys):
    """Every pa5 trial fails, but only the first failing seed's witnesses
    are printed, so only they are found."""
    real, calls = identities._witness, []
    monkeypatch.setattr(identities, "_witness", lambda r: calls.append(r) or real(r))
    assert run_cli("random-check", "--dim", "5", "--identity", "pa5", "-n", "150", "--seed", "2") == 1
    out = capsys.readouterr().out
    assert "nonzero: 150" in out
    assert len(calls) == out.count(": witness ") == 1


def test_explicit_model_file_is_filled_once(tmp_path, monkeypatch, capsys):
    """Reading an explicit model fills and validates its components once;
    build uses that tensor."""
    path = tmp_path / "m.json"
    save_model(models.explicit_spec(models.example_5d(1)), path)
    calls = []
    fill = models.curvature_from_components
    monkeypatch.setattr(models, "curvature_from_components",
                        lambda *a, **k: calls.append(a) or fill(*a, **k))
    assert run_cli("verify", "--model", str(path), "--set", "lemma5") == 0
    assert len(calls) == 1
