"""CLI surface: exit codes, verify semantics, export determinism."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from curvident import cli, identities, report
from curvident.cli import main
from curvident.delta import EngineInvariantError
from curvident.models import KINDS, ModelSpec, _KINDS, build, save_model
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


@pytest.mark.parametrize("exc", [EngineInvariantError("broken"), ValueError("broken")])
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
    ],
)
def test_model_file_schema_violation_exit2(tmp_path, capsys, model, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    assert run_cli("verify", "--model", str(path), "--set", "all") == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "internal error" not in captured.err


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
