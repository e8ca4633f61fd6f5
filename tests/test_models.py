"""Catalog construction, the deterministic generator, serialization."""

from fractions import Fraction
from pathlib import Path

import pytest

from curvident.scalar import Scalar
from curvident.tensor import Tensor
from curvident.curvature import invariants, validate_curvature
from curvident.identities import einstein5_residual, einstein6_residual
from curvident.models import (
    KINDS,
    ModelSpec,
    ModelSpecError,
    SplitMix64,
    _KINDS,
    build,
    constant_curvature,
    curvature_from_components,
    einsteinize,
    example_5d,
    example_6d,
    explicit_spec,
    kulkarni_nomizu_square,
    load_model,
    nikolayevsky,
    product,
    random_curvature,
    save_model,
    sl3_so3,
)


def test_product_blocks_equal_example_5d():
    p = product(constant_curvature(3, 1), constant_curvature(2, 2))
    assert p.tensor == example_5d(1).tensor


def test_example_6d_is_product_of_equal_blocks():
    p = product(constant_curvature(3, 1), constant_curvature(3, 1))
    assert p.tensor == example_6d(1).tensor


def test_sl3_so3_catalog_values():
    inv = invariants(sl3_so3())
    assert inv.tau == Scalar(-15)
    assert inv.ricci == Tensor.identity(5).scale(-3)


def test_sl3_so3_equals_normal_form_at_its_parameters():
    assert sl3_so3().tensor == nikolayevsky(0, Fraction(-1, 2)).tensor


def test_nikolayevsky_beta_zero_degenerates():
    # literal component entry makes beta=0 the constant-curvature(-alpha) tensor
    assert nikolayevsky(3, 0).tensor == constant_curvature(5, -3).tensor


def test_nikolayevsky_einstein_for_sampled_parameters():
    for a, b in ((1, 1), (2, 1), (0, 1), (Fraction(2, 1), Fraction(1, 3)), (5, -2)):
        inv = invariants(nikolayevsky(a, b))
        assert inv.einstein
        assert inv.tau == Scalar(-20) * Scalar(a) + Scalar(30) * Scalar(b)


def test_catalog_flags_match_statements():
    assert invariants(example_5d(1)).einstein
    assert not invariants(example_5d(1)).super_einstein
    assert invariants(example_6d(1)).super_einstein
    assert invariants(sl3_so3()).super_einstein


# -- deterministic generator ---------------------------------------------------


def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_kn_square_of_metric_doubles_constant_curvature():
    g = Tensor.identity(4)
    assert kulkarni_nomizu_square(g) == constant_curvature(4, 2).tensor


def test_random_curvature_validates_and_is_reproducible():
    for dim in (2, 3, 4, 5, 6):
        a = random_curvature(dim, seed=123, n_terms=3)
        b = random_curvature(dim, seed=123, n_terms=3)
        validate_curvature(a.tensor)
        assert a.tensor == b.tensor
    assert random_curvature(4, 1, 2).tensor != random_curvature(4, 2, 2).tensor


def test_random_curvature_frozen_components():
    # golden values pin the documented splitmix64 + draw order
    R = random_curvature(5, seed=42, n_terms=2).tensor
    assert R.item(0, 1, 0, 1) == Scalar(6)
    assert R.item(0, 2, 1, 3) == Scalar(10)
    assert R.item(1, 3, 2, 4) == Scalar(22)
    assert R.item(0, 4, 0, 4) == Scalar(48)


def test_einsteinize_scalar_curvature():
    R5 = einsteinize(random_curvature(5, seed=8, n_terms=4), Scalar(1))
    inv5 = invariants(R5)
    assert inv5.einstein and inv5.tau == Scalar(20)
    R6 = einsteinize(random_curvature(6, seed=8, n_terms=4), Scalar(-2))
    inv6 = invariants(R6)
    assert inv6.einstein and inv6.tau == Scalar(-60)


def test_einsteinize_constant_curvature_passthrough():
    out = einsteinize(constant_curvature(5, 7), Scalar(2))
    assert out.tensor == constant_curvature(5, 2).tensor


def test_einsteinize_bridges_to_identity_suites():
    e5 = einsteinize(random_curvature(5, seed=77, n_terms=4), Scalar(1))
    assert einstein5_residual(e5).is_zero
    e6 = einsteinize(random_curvature(6, seed=77, n_terms=4), Scalar(1))
    assert einstein6_residual(e6).is_zero


# -- specs and files -----------------------------------------------------------


def test_model_spec_roundtrip(tmp_path):
    spec = ModelSpec("sl3_so3")
    path = tmp_path / "m.json"
    save_model(spec, path)
    loaded = load_model(path)
    assert loaded == spec
    assert build(loaded).tensor == sl3_so3().tensor


def test_nikolayevsky_spec_with_text_params(tmp_path):
    spec = ModelSpec.from_json(
        {"kind": "nikolayevsky", "params": {"alpha": "2", "beta": "1/3"}}
    )
    R = build(spec)
    assert invariants(R).tau == Scalar(-40) + Scalar(10)  # -20*2 + 30/3


def test_explicit_spec_roundtrip_build():
    R = sl3_so3()
    spec = explicit_spec(R)
    assert build(spec).tensor == R.tensor
    # survives JSON serialization too
    spec2 = ModelSpec.from_json(spec.to_json())
    assert build(spec2).tensor == R.tensor


def test_product_spec_nested():
    spec = ModelSpec.from_json(
        {
            "kind": "product",
            "factors": [
                {"kind": "constant_curvature", "params": {"dim": 3, "k": "1"}},
                {"kind": "constant_curvature", "params": {"dim": 2, "k": "2"}},
            ],
        }
    )
    assert build(spec).tensor == example_5d(1).tensor


def test_explicit_bad_symmetry_names_indices():
    with pytest.raises(ModelSpecError) as err:
        curvature_from_components(
            4, [((1, 2, 1, 2), Scalar(1)), ((2, 1, 1, 2), Scalar(1))]
        )
    assert "components" in str(err.value)


def test_schema_errors_carry_json_pointers():
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json({"kind": "nope"})
    assert "/kind" in str(err.value)
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json({"kind": "nikolayevsky", "params": {"alpha": "1"}})
    assert "/params/beta" in str(err.value)
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json({"kind": "constant_curvature", "params": {"dim": 4, "k": "1/0"}})
    assert "/params/k" in str(err.value)
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json(
            {"kind": "explicit", "params": {"dim": 4}, "components": [{"idx": [1, 2], "val": "1"}]}
        )
    assert "/components/0" in str(err.value)


def test_load_model_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ModelSpecError):
        load_model(p)


def test_unknown_params_rejected_with_pointer():
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json({"kind": "sl3_so3", "params": {"kk": "7"}})
    assert "/params/kk" in str(err.value)
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json(
            {"kind": "product", "factors": [
                {"kind": "example_5d", "params": {"k": "1"}},
                {"kind": "constant_curvature", "params": {"dim": 2, "k": "1", "n": 3}},
            ]}
        )
    assert "/factors/1/params/n" in str(err.value)
    with pytest.raises(ModelSpecError) as err:
        build(ModelSpec("example_6d", {"k": Scalar(1), "alpha": Scalar(2)}))
    assert "/params/alpha" in str(err.value)


# -- the kind table --------------------------------------------------------------

_CC3 = {"kind": "constant_curvature", "params": {"dim": 3, "k": "1"}}
_SAMPLES = {
    "constant_curvature": {"kind": "constant_curvature", "params": {"dim": 4, "k": "-2/3"}},
    "product": {"kind": "product", "factors": [_CC3, _CC3]},
    "example_5d": {"kind": "example_5d", "params": {"k": "1"}},
    "example_6d": {"kind": "example_6d", "params": {"k": "1+1*sqrt(3)"}},
    "sl3_so3": {"kind": "sl3_so3"},
    "nikolayevsky": {"kind": "nikolayevsky", "params": {"alpha": "2", "beta": "1/2"}},
    "explicit": {
        "kind": "explicit",
        "params": {"dim": 4},
        "components": [{"idx": [1, 2, 1, 2], "val": "1"}],
    },
    "random_einstein": {
        "kind": "random_einstein",
        "params": {"dim": 5, "k": "1", "n_terms": 2, "seed": 3},
    },
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_roundtrips_and_builds(kind):
    data = _SAMPLES[kind]
    spec = ModelSpec.from_json(data)
    assert spec.to_json() == data
    assert ModelSpec.from_json(spec.to_json()) == spec
    validate_curvature(build(spec).tensor)


@pytest.mark.parametrize(
    "data, pointer",
    [
        # a field the kind does not take
        ({"kind": "sl3_so3", "components": [{"idx": [1, 2, 1, 2], "val": "5"}]}, "/components"),
        ({"kind": "example_5d", "params": {"k": "1"}, "factors": [_CC3, _CC3]}, "/factors"),
        (
            {"kind": "explicit", "params": {"dim": 4}, "factors": [_CC3, _CC3],
             "components": [{"idx": [1, 2, 1, 2], "val": "1"}]},
            "/factors",
        ),
        ({"kind": "product", "factors": [_CC3, {**_CC3, "components": []}]}, "/factors/1/components"),
        # the field the kind takes, missing
        ({"kind": "product"}, "/factors"),
        ({"kind": "explicit", "params": {"dim": 4}}, "/components"),
        # an unknown key, at the top level or in a component entry
        ({"kind": "sl3_so3", "paramz": {"k": "1"}}, "/paramz"),
        (
            {"kind": "explicit", "params": {"dim": 4},
             "components": [{"idx": [1, 2, 1, 2], "val": "1", "note": "x"}]},
            "/components/0/note",
        ),
    ],
)
def test_fields_the_kind_does_not_take_rejected(data, pointer):
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json(data)
    assert err.value.pointer == pointer


def test_build_rejects_a_field_the_kind_does_not_take():
    comps = (((1, 2, 1, 2), Scalar(5)),)
    with pytest.raises(ModelSpecError) as err:
        build(ModelSpec("sl3_so3", components=comps))
    assert err.value.pointer == "/components"
    with pytest.raises(ModelSpecError) as err:
        build(ModelSpec("nope"))
    assert err.value.pointer == "/kind"


@pytest.mark.parametrize(
    "data, pointer",
    [
        ({"kind": "constant_curvature", "params": {"dim": True, "k": "1"}}, "/params/dim"),
        (
            {"kind": "random_einstein", "params": {"dim": 5, "k": "1", "n_terms": 2, "seed": True}},
            "/params/seed",
        ),
        (
            {"kind": "random_einstein", "params": {"dim": 5, "k": "1", "n_terms": False, "seed": 1}},
            "/params/n_terms",
        ),
        (
            {"kind": "explicit", "params": {"dim": 4},
             "components": [{"idx": [True, 2, True, 2], "val": "1"}]},
            "/components/0/idx",
        ),
        ({"kind": "example_5d", "params": {"k": True}}, "/params/k"),
    ],
)
def test_booleans_are_not_integers(data, pointer):
    with pytest.raises(ModelSpecError) as err:
        ModelSpec.from_json(data)
    assert err.value.pointer == pointer


def test_readme_model_kinds():
    """The README's model file format lists each kind with exactly the
    params of the kind table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split("The kinds and their params:", 1)[1].split(". ", 1)[0].split())
    documented = {}
    for usage in text.split("`")[1::2]:
        kind, params = usage.rstrip(")").split("(")
        documented[kind] = tuple(p.strip() for p in params.split(",") if p.strip())
    assert documented == {kind: entry[0] for kind, entry in _KINDS.items()}
