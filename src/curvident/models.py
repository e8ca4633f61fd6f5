"""Model-space catalog, random generators and (de)serialization.

Catalog
-------
``_KINDS`` (above ``build``) is the one statement of the model kinds: each
kind's parameters, the field it takes ("factors" for ``product``,
"components" for ``explicit``), its dimension where the kind fixes one, and
its builder.  The schema, ``build`` and the CLI catalog all read it; the
builders' docstrings describe the models.

PRNG
----
Reproducibility across platforms and reimplementations uses splitmix64:
state advances by 0x9E3779B97F4A7C15; output mixes the state with
shift-xor-multiply constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
``random_curvature`` draws, per term t: the upper triangle (row-major,
i <= j) of a symmetric integer matrix h with entries (next() mod 7) - 3,
then a sign eps_t = +1 if next() is even else -1.  The term added is
eps_t * (h wedge h) with (h wedge h)_ijkl = 2 (h_il h_jk - h_ik h_jl).
Given a sequence of seeds it makes one batched tensor, each trial drawn
from its own seed exactly as above.  ``n_terms`` is at most ``MAX_TERMS``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .scalar import Scalar, ScalarParseError
from .tensor import Tensor, ShapeError, lincomb
from .curvature import (
    CurvatureTensor,
    CurvatureValidationError,
    _kn_terms,
    _weyl_terms,
    validate_curvature,
)


class ModelSpecError(ValueError):
    """A model description violates the schema; message carries a JSON
    pointer to the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# parameters whose values are JSON integers; every other one is scalar text
_INTEGER_PARAMS = frozenset({"dim", "seed", "n_terms"})
_FIELDS = ("factors", "components")


def _is_integer(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


class ModelSpec(NamedTuple):
    """Serializable description of a model space."""

    kind: str
    params: dict = MappingProxyType({})  # read-only: one default shared by all
    components: Optional[tuple] = None
    factors: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.params:
            params = {}
            for key, val in sorted(self.params.items()):
                params[key] = val.format() if isinstance(val, Scalar) else val
            out["params"] = params
        if self.factors is not None:
            out["factors"] = [f.to_json() for f in self.factors]
        if self.components is not None:
            out["components"] = [
                {"idx": list(idx), "val": val.format()}
                for idx, val in self.components
            ]
        return out

    @staticmethod
    def from_json(data, pointer: str = "") -> "ModelSpec":
        if not isinstance(data, dict):
            raise ModelSpecError(pointer or "/", "expected an object")
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ModelSpecError(f"{pointer}/kind", f"unknown kind {kind!r}")
        for key in data:
            if key not in ("kind", "params", *_FIELDS):
                raise ModelSpecError(f"{pointer}/{key}", "unknown key")
        params = {}
        raw_params = data.get("params", {})
        if not isinstance(raw_params, dict):
            raise ModelSpecError(f"{pointer}/params", "expected an object")
        for key, val in raw_params.items():
            ptr = f"{pointer}/params/{key}"
            if key in _INTEGER_PARAMS:
                if not _is_integer(val):
                    raise ModelSpecError(ptr, "expected an integer")
                params[key] = val
            else:
                try:
                    params[key] = Scalar.parse(val)
                except ScalarParseError as exc:
                    raise ModelSpecError(ptr, str(exc)) from None
        factors = None
        if "factors" in data:
            raw = data["factors"]
            if not isinstance(raw, list) or len(raw) != 2:
                raise ModelSpecError(f"{pointer}/factors", "expected a 2-element list")
            factors = tuple(
                ModelSpec.from_json(f, f"{pointer}/factors/{i}")
                for i, f in enumerate(raw)
            )
        components = None
        if "components" in data:
            raw = data["components"]
            if not isinstance(raw, list):
                raise ModelSpecError(f"{pointer}/components", "expected a list")
            components = []
            for i, entry in enumerate(raw):
                ptr = f"{pointer}/components/{i}"
                if not isinstance(entry, dict) or "idx" not in entry or "val" not in entry:
                    raise ModelSpecError(ptr, "expected {'idx': [...], 'val': '...'}")
                for key in entry:
                    if key not in ("idx", "val"):
                        raise ModelSpecError(f"{ptr}/{key}", "unknown key")
                idx = entry["idx"]
                if (
                    not isinstance(idx, list)
                    or len(idx) != 4
                    or not all(_is_integer(i_) and i_ >= 1 for i_ in idx)
                ):
                    raise ModelSpecError(f"{ptr}/idx", "expected four 1-based integers")
                try:
                    val = Scalar.parse(entry["val"])
                except ScalarParseError as exc:
                    raise ModelSpecError(f"{ptr}/val", str(exc)) from None
                components.append((tuple(idx), val))
            components = _CheckedComponents(components)
        spec = ModelSpec(kind=kind, params=params, components=components, factors=factors)
        _require_params(spec, pointer)
        if components is not None:
            # checked here, where the spec's pointer is known; build reuses it
            components.curvature = curvature_from_components(params["dim"], components, pointer)
        return spec


class _CheckedComponents(tuple):
    """The components of an explicit model read by ``ModelSpec.from_json``;
    ``curvature`` is the tensor they were checked as, which ``build`` uses
    instead of filling them again.  Equal to the plain tuple."""


def _require_params(spec: ModelSpec, pointer: str = ""):
    """The spec names a kind, exactly that kind's parameters, a dim (if it
    takes one) in 2..Tensor.MAX_DIM (from 4 for random_einstein), an
    n_terms (if it takes one) in 1..MAX_TERMS, the one field (factors or
    components) the kind takes, if any, and factors that pass these checks
    and whose dimensions add up to at most that cap.  No tensor is built."""
    if spec.kind not in _KINDS:
        raise ModelSpecError(f"{pointer}/kind", f"unknown kind {spec.kind!r}")
    names, takes, _, _ = _KINDS[spec.kind]
    # every parameter of a kind is required, so the required set is also
    # the allowed one
    for key in spec.params:
        if key not in names:
            raise ModelSpecError(f"{pointer}/params/{key}", "unknown parameter")
    for key in names:
        if key not in spec.params:
            raise ModelSpecError(f"{pointer}/params/{key}", "missing required parameter")
    dim = spec.params.get("dim")
    if "dim" in names and not (_is_integer(dim) and 2 <= dim <= Tensor.MAX_DIM):
        raise ModelSpecError(f"{pointer}/params/dim", f"dim must be in 2..{Tensor.MAX_DIM}, got {dim!r}")
    for name in _FIELDS:
        given = getattr(spec, name) is not None
        if given != (name == takes):
            verb = "takes no" if given else "requires"
            raise ModelSpecError(f"{pointer}/{name}", f"{spec.kind} {verb} {name}")
    if "n_terms" in names:
        _check_n_terms(spec.params["n_terms"], pointer)
    if spec.kind == "random_einstein" and dim < 4:
        raise ModelSpecError(
            f"{pointer}/params/dim",
            f"random_einstein needs dim >= 4 (nontrivial Weyl part), got {dim}",
        )
    if takes == "factors":
        for i, f in enumerate(spec.factors):
            _require_params(f, f"{pointer}/factors/{i}")
        if _spec_dim(spec) > Tensor.MAX_DIM:
            raise ModelSpecError(f"{pointer}/factors", f"product dim {_spec_dim(spec)} exceeds {Tensor.MAX_DIM}")


def _spec_dim(spec: ModelSpec) -> int:
    """The dimension of the tensor a checked spec describes."""
    if spec.kind == "product":
        return sum(map(_spec_dim, spec.factors))
    return _KINDS[spec.kind][2] or spec.params["dim"]


# ---------------------------------------------------------------------------
# symmetry-orbit filling from independent components
# ---------------------------------------------------------------------------


def _component_orbits(dim: int, components, pointer: str = "") -> dict:
    """{0-based index: Scalar} for every component the listed ones fix
    through the two antisymmetries and the pair interchange; a component
    out of range or in conflict raises at ``<pointer>/components/<n>``."""
    comps: dict = {}
    for n, (idx, val) in enumerate(components):
        ptr = f"{pointer}/components/{n}"
        i, j, k, l = (x - 1 for x in idx)
        if not all(0 <= x < dim for x in (i, j, k, l)):
            raise ModelSpecError(f"{ptr}/idx", f"index {list(idx)} out of range for dim {dim}")
        s = val if isinstance(val, Scalar) else Scalar(val)
        orbit = {}
        for (a, b, c, d), sign in (
            ((i, j, k, l), 1),
            ((j, i, k, l), -1),
            ((i, j, l, k), -1),
            ((j, i, l, k), 1),
            ((k, l, i, j), 1),
            ((l, k, i, j), -1),
            ((k, l, j, i), -1),
            ((l, k, j, i), 1),
        ):
            v = s if sign > 0 else -s
            if (a, b, c, d) in orbit and orbit[(a, b, c, d)] != v:
                raise ModelSpecError(
                    ptr, f"component {list(idx)} is inconsistent with its own symmetry orbit"
                )
            orbit[(a, b, c, d)] = v
        for key, v in orbit.items():
            if key in comps and comps[key] != v:
                raise ModelSpecError(
                    ptr, f"component {[x + 1 for x in key]} assigned conflicting values"
                )
            comps[key] = v
    return comps


def curvature_from_components(dim: int, components, pointer: str = "") -> CurvatureTensor:
    """Fill a rank-4 tensor from independent components.

    Each listed component R[idx] (1-based indices) is propagated through
    the symmetry group generated by the two antisymmetries and the pair
    interchange; conflicting assignments raise.  First Bianchi is then
    checked by validation, not imposed; a violation raises at
    ``<pointer>/components``.
    """
    t = Tensor.from_components(dim, 4, _component_orbits(dim, components, pointer))
    try:
        return validate_curvature(t)
    except CurvatureValidationError as exc:
        raise ModelSpecError(f"{pointer}/components", str(exc)) from None


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------


def constant_curvature(dim: int, k) -> CurvatureTensor:
    """R_ijkl = k (g_il g_jk - g_ik g_jl), that is (k/2) g wedge g."""
    g = Tensor.identity(dim)
    return CurvatureTensor(lincomb(_kn_terms(Fraction(1, 2) * k, g, g)), _validated=True)


def flat(dim: int) -> CurvatureTensor:
    return CurvatureTensor(Tensor.zeros(dim, 4), _validated=True)


def product(a: CurvatureTensor, b: CurvatureTensor) -> CurvatureTensor:
    """Block-diagonal curvature of a Riemannian product; mixed components
    vanish."""
    m = a.dim + b.dim
    if m > Tensor.MAX_DIM:
        raise ShapeError(f"product dim {m} exceeds {Tensor.MAX_DIM}")
    comps: dict = {}
    for t, offset in ((a.tensor, 0), (b.tensor, a.dim)):
        for idx in t.nonzero_indices():
            comps[tuple(x + offset for x in idx)] = t.item(idx)
    return validate_curvature(Tensor.from_components(m, 4, comps))


def example_5d(k) -> CurvatureTensor:
    """Product of a 3-dim constant-curvature-k space and a surface of
    curvature 2k; Einstein, not super-Einstein (for k != 0)."""
    k = k if isinstance(k, Scalar) else Scalar(k)
    return product(constant_curvature(3, k), constant_curvature(2, k * Scalar(2)))


def example_6d(k) -> CurvatureTensor:
    """Product of two 3-dim constant-curvature-k spaces; super-Einstein,
    never 2-stein for k != 0."""
    k = k if isinstance(k, Scalar) else Scalar(k)
    return product(constant_curvature(3, k), constant_curvature(3, k))


_HALF = Fraction(1, 2)
_SL3_COMPONENTS = (
    ((1, 2, 2, 1), Scalar(-_HALF)),
    ((1, 3, 3, 1), Scalar(-_HALF)),
    ((2, 3, 3, 2), Scalar(-_HALF)),
    ((2, 4, 4, 2), Scalar(-_HALF)),
    ((3, 4, 4, 3), Scalar(-_HALF)),
    ((1, 4, 4, 1), Scalar(-2)),
    ((2, 5, 5, 2), Scalar(-Fraction(3, 2))),
    ((3, 5, 5, 3), Scalar(-Fraction(3, 2))),
    ((1, 2, 3, 4), Scalar(-_HALF)),
    ((1, 2, 3, 5), Scalar(0, -_HALF)),
    ((1, 3, 2, 4), Scalar(_HALF)),
    ((1, 3, 2, 5), Scalar(0, -_HALF)),
    ((1, 4, 2, 3), Scalar(1)),
    ((2, 4, 2, 5), Scalar(0, -_HALF)),
    ((3, 4, 3, 5), Scalar(0, _HALF)),
)


def sl3_so3() -> CurvatureTensor:
    """The 5-dimensional 2-stein symmetric space SL(3)/SO(3) (components
    contain sqrt(3)/2 entries); equals nikolayevsky(0, -1/2)."""
    return curvature_from_components(5, _SL3_COMPONENTS)


def nikolayevsky(alpha, beta) -> CurvatureTensor:
    """Two-parameter normal form of 5-dimensional 2-stein curvature
    tensors; beta = 0 degenerates to constant curvature -alpha."""
    a = alpha if isinstance(alpha, Scalar) else Scalar(alpha)
    b = beta if isinstance(beta, Scalar) else Scalar(beta)
    s3b = Scalar(0, 1) * b
    comps = [
        ((1, 2, 1, 2), a - b),
        ((1, 3, 1, 3), a - b),
        ((2, 3, 2, 3), a - b),
        ((2, 4, 2, 4), a - b),
        ((3, 4, 3, 4), a - b),
        ((1, 4, 1, 4), a - Scalar(4) * b),
        ((1, 5, 1, 5), a),
        ((4, 5, 4, 5), a),
        ((2, 5, 2, 5), a - Scalar(3) * b),
        ((3, 5, 3, 5), a - Scalar(3) * b),
        ((1, 2, 3, 4), b),
        ((1, 2, 3, 5), s3b),
        ((1, 3, 2, 4), -b),
        ((1, 3, 2, 5), s3b),
        ((1, 4, 2, 3), -Scalar(2) * b),
        ((2, 4, 2, 5), s3b),
        ((3, 4, 3, 5), -s3b),
    ]
    comps = [(idx, v) for idx, v in comps if not v.is_zero()]
    return curvature_from_components(5, comps)


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator; tiny, stated in full in the module
    docstring so seeds are portable across reimplementations."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def kulkarni_nomizu_square(h: Tensor) -> Tensor:
    """(h wedge h)_ijkl = 2 (h_il h_jk - h_ik h_jl); for symmetric h this
    satisfies all curvature symmetries, and g wedge g is twice the
    constant-curvature-1 tensor."""
    if h.rank != 2:
        raise ShapeError("kulkarni_nomizu_square expects a rank-2 tensor")
    return lincomb(_kn_terms(1, h, h))


# the most terms random_curvature sums: in dim 6 the sampler's tangent map
# has full rank from 6 terms on, and n_terms sets its time and memory
MAX_TERMS = 64


def _check_n_terms(n_terms, pointer: str = ""):
    if not 1 <= n_terms <= MAX_TERMS:
        raise ModelSpecError(
            f"{pointer}/params/n_terms", f"n_terms must be in 1..{MAX_TERMS}, got {n_terms}"
        )


def random_curvature(dim: int, seed, n_terms: int = 4) -> CurvatureTensor:
    """Sum of n_terms signed Kulkarni-Nomizu squares of random symmetric
    integer matrices (entries in -3..3) drawn from splitmix64(seed).
    Same seed gives a bit-identical tensor on every platform.  For a
    sequence of seeds, the batched tensor of one such trial per seed."""
    _check_n_terms(n_terms)
    batched = not isinstance(seed, int)
    seeds = list(seed) if batched else [seed]
    upper = np.triu_indices(dim)
    h = np.zeros((n_terms, len(seeds), dim, dim), np.int64)
    eps = np.empty((n_terms, len(seeds)), np.int64)
    for b, s in enumerate(seeds):
        rng = SplitMix64(s)
        for t in range(n_terms):
            h[t, b][upper] = [rng.next_u64() % 7 - 3 for _ in upper[0]]
            eps[t, b] = 1 if rng.next_u64() % 2 == 0 else -1
    h += np.triu(h, 1).swapaxes(-1, -2)
    terms = []
    for h_t, eps_t in zip(h, eps):
        # term t of every trial at once: its matrices stacked, its signs per trial
        rat = h_t if batched else h_t[0]
        sym = Tensor(dim, rat, 0 * rat, 1, batched=batched)
        sign = Tensor(dim, eps_t, 0 * eps_t, 1, batched=True) if batched else int(eps_t[0])
        terms += _kn_terms(sign, sym, sym)
    return CurvatureTensor(lincomb(terms))


def einsteinize(R: CurvatureTensor, k) -> CurvatureTensor:
    """weyl(R) + k * constant-curvature-1: an Einstein tensor with
    rho = (dim-1) k g exactly."""
    if R.dim < 4:
        raise ShapeError("einsteinize needs dim >= 4 (nontrivial Weyl part)")
    terms = _weyl_terms(R) + _kn_terms(Fraction(1, 2) * k, R.g, R.g)
    return CurvatureTensor(lincomb(terms), _validated=True)


# ---------------------------------------------------------------------------
# build + file I/O
# ---------------------------------------------------------------------------


def _explicit(dim: int, components) -> CurvatureTensor:
    """The tensor of explicit components, filled once per file read."""
    checked = getattr(components, "curvature", None)
    if checked is not None and checked.dim == dim:
        return checked
    return curvature_from_components(dim, components)


# kind -> (its parameters, the field it takes, the dimension it fixes, its
# builder); ``build`` calls the builder with the parameters and the field as
# keywords.  A kind fixes no dimension when "dim" is one of its parameters
# or, for product, when its factors' dimensions add up to it.
_KINDS = {
    "constant_curvature": (("dim", "k"), None, None, constant_curvature),
    "product": ((), "factors", None, lambda factors: product(*map(build, factors))),
    "example_5d": (("k",), None, 5, example_5d),
    "example_6d": (("k",), None, 6, example_6d),
    "sl3_so3": ((), None, 5, sl3_so3),
    "nikolayevsky": (("alpha", "beta"), None, 5, nikolayevsky),
    "explicit": (("dim",), "components", None, _explicit),
    "random_einstein": (
        ("dim", "seed", "n_terms", "k"),
        None,
        None,
        lambda dim, seed, n_terms, k: einsteinize(random_curvature(dim, seed, n_terms), k),
    ),
}
KINDS = tuple(_KINDS)


def build(spec: ModelSpec) -> CurvatureTensor:
    """Construct the curvature tensor a spec describes; every output
    passes validation."""
    _require_params(spec)
    _, takes, _, builder = _KINDS[spec.kind]
    fields = {takes: getattr(spec, takes)} if takes else {}
    return builder(**spec.params, **fields)


def explicit_spec(R: CurvatureTensor) -> ModelSpec:
    """An explicit ModelSpec listing one canonical independent component
    per symmetry orbit (i<j, k<l, (i,j) <= (k,l))."""
    t = R.tensor
    comps = []
    for idx in t.nonzero_indices():
        i, j, k, l = idx
        if i < j and k < l and (i, j) <= (k, l):
            comps.append(
                ((i + 1, j + 1, k + 1, l + 1), t.item(idx))
            )
    return ModelSpec(
        kind="explicit", params={"dim": t.dim}, components=tuple(comps)
    )


def save_model(spec: ModelSpec, path):
    with open(path, "w") as fh:
        json.dump(spec.to_json(), fh, indent=2)
        fh.write("\n")


def load_model(path) -> ModelSpec:
    """A ModelSpec from a model JSON file, or from an exported RunReport,
    whose ``model`` object is the model resolved to explicit components."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelSpecError("/", f"not valid JSON: {exc}") from None
    if isinstance(data, dict) and "kind" not in data and "model" in data:
        return ModelSpec.from_json(data["model"], "/model")
    return ModelSpec.from_json(data)
