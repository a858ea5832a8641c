"""Experiment configuration: one validating parser from JSON to typed inputs.

A config file drives the CLI and the experiment runners; README.md's
"Config format" section describes every key.  The JSON layout uses
exponent-keyed form objects ("2,0" -> coefficient) because they stay
readable for sparse forms; coefficients are strings like "-3/7" (or plain
integers), and quadratic-field coefficients are {"a": "p/q", "b": "r/s"}
meaning a + b*sqrt(d).  Each value is checked as it is read: its keys, type
and bounds, then what a type cannot say (primality of finite places, arity
agreement between map, seed and divisor, homogeneity).  Every violation
raises ConfigError naming its JSON path, e.g. "sample/height_bound: ...".
An integer is what JSON Schema calls one: a number with no fractional part
that is not a boolean, so 8.0 reads as the int 8.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from ..exactnum import ExactnumError, Place, QuadField, is_prime
from ..polydyn import HomogPoly, Morphism, ProjPoint
from ..weil import DivisorPresentation


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_FORM_KEY = re.compile(r"^\d+(,\d+)*$")
_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _is_int(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value, path: str, minimum: int | None = None) -> int:
    if not _is_int(value):
        raise ConfigError(f"{path}: {value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: {value!r} is below the minimum {minimum}")
    # a float reads as the decimal it prints as, so 1e300 is 10**300
    return value if isinstance(value, int) else int(Fraction(repr(value)))


def _object(value, path: str, keys=None, required=()) -> dict:
    """value as a JSON object with only the given keys (any if None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: {value!r} is not an object")
    unknown = [] if keys is None else [key for key in value if key not in keys]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return value


def _list(value, path: str, min_items: int = 0) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: {value!r} is not a list")
    if len(value) < min_items:
        raise ConfigError(f"{path}: needs at least {min_items} item(s)")
    return value


def _fraction(value, path: str) -> Fraction:
    if not isinstance(value, str):
        if not _is_int(value):
            raise ConfigError(f"{path}: {value!r} is not a string or an integer")
        value = _int(value, path)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: bad rational {value!r}: {exc}") from None


def _coefficient(value, path: str, quad: QuadField | None):
    if isinstance(value, dict):
        _object(value, path, ("a", "b"), ("a", "b"))
        a, b = (_fraction(value[k], f"{path}/{k}") for k in "ab")
        if quad is None:
            raise ConfigError(f"{path}: quadratic coefficient given but divisor field is Q")
        return quad.element(a, b)
    if isinstance(value, str) and not _RATIONAL.search(value):
        raise ConfigError(f"{path}: {value!r} is not an integer or a 'p/q' string")
    return _fraction(value, path)


def _form(obj, path: str, nvars: int | None, quad: QuadField | None = None) -> HomogPoly:
    """A form {"i,j,...": coefficient}; nvars None takes the first key's arity."""
    if not _object(obj, path):
        raise ConfigError(f"{path}: a form needs at least one term")
    terms = {}
    for key, raw in obj.items():
        if not isinstance(key, str) or not _FORM_KEY.search(key):
            raise ConfigError(f"{path}: bad exponent key {key!r}")
        exps = tuple(int(p) for p in key.split(","))
        nvars = len(exps) if nvars is None else nvars
        if len(exps) != nvars:
            raise ConfigError(
                f"{path}: exponent key {key!r} has {len(exps)} entries, expected {nvars}"
            )
        terms[exps] = _coefficient(raw, f"{path}/{key}", quad)
    try:
        return HomogPoly.from_terms(nvars, terms)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _field(value) -> QuadField | None:
    if value == "Q":
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"divisor/field: {value!r} is neither 'Q' nor {{'d': integer}}")
    _object(value, "divisor/field", ("d",), ("d",))
    try:
        return QuadField(_int(value["d"], "divisor/field/d"))
    except ValueError as exc:
        raise ConfigError(f"divisor/field/d: {exc}") from None


def _place(spec, path: str) -> Place:
    if spec == "inf":
        return Place.archimedean()
    if not _is_int(spec):
        raise ConfigError(f"{path}: {spec!r} is neither 'inf' nor a prime")
    p = _int(spec, path, 2)
    try:
        prime = is_prime(p)
    except ExactnumError as exc:
        raise ConfigError(f"{path}: place {p}: {exc}") from None
    if not prime:
        raise ConfigError(f"{path}: place {p} is not prime")
    return Place.finite(p)


def _at_least(minimum: int | None):
    return lambda value, path: _int(value, path, minimum)


def _nonempty(read):
    """Reader of a nonempty list whose items read with read."""
    return lambda value, path: [
        read(item, f"{path}/{i}") for i, item in enumerate(_list(value, path, 1))
    ]


def _count(value, path: str):
    return value if value == "all" else _int(value, path, 1)


# subcommand inputs, passed on as dicts: section -> ({key: reader}, required)
_BLOCKS = {
    "sample": (
        {"height_bound": _at_least(1), "count": _count, "seed": _at_least(None)},
        ("height_bound",),
    ),
    "lct": (
        {"nvars": _at_least(1), "generators": _nonempty(_nonempty(_at_least(0))),
         "bound": _at_least(1)},
        ("nvars", "generators"),
    ),
    "efd": (
        {"matrix": _nonempty(_nonempty(_at_least(0))), "target": _at_least(0)},
        ("matrix", "target"),
    ),
    "cn": (
        {"m_list": _nonempty(_at_least(1)), "dim": _at_least(1), "delta": _fraction,
         "m": _at_least(1), "n": _at_least(1)},
        ("m_list", "dim", "delta", "m", "n"),
    ),
}

_SECTIONS = ("map", "seed", "divisor", "places", "twist", "depth", "params", *_BLOCKS)
# the params some runner reads: thm14 (e, eps, eps0, bound), thm17 (eps),
# gap (eps_prime) and efd (bound)
_PARAMS = ("e", "eps", "eps0", "eps_prime", "bound")


def _block(data: dict, name: str) -> dict | None:
    if name not in data:
        return None
    readers, required = _BLOCKS[name]
    spec = _object(data[name], name, readers, required)
    return {key: readers[key](value, f"{name}/{key}") for key, value in spec.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully parsed experiment inputs."""

    map: Morphism | None
    seed: ProjPoint | None
    divisor: DivisorPresentation | None
    places: tuple
    twist: int
    depth: int
    params: dict
    sample: dict | None
    lct: dict | None
    efd: dict | None
    cn: dict | None

    def param(self, name: str, default=None) -> Fraction | int | None:
        if name in self.params:
            return self.params[name]
        return default

    def require(self, *attrs) -> "ExperimentConfig":
        for a in attrs:
            if getattr(self, a) in (None, ()):
                raise ConfigError(f"config is missing the {a!r} section")
        return self


def parse_config(data: dict) -> ExperimentConfig:
    _object(data, "<root>", _SECTIONS)

    morphism = None
    if "map" in data:
        spec = _object(data["map"], "map", ("forms",), ("forms",))
        forms = _list(spec["forms"], "map/forms", 2)
        polys = tuple(_form(f, f"map/forms/{i}", len(forms)) for i, f in enumerate(forms))
        try:
            morphism = Morphism(polys)
        except ValueError as exc:
            raise ConfigError(f"map: {exc}") from None

    seed = None
    if "seed" in data:
        raw = _list(data["seed"], "seed", 2)
        coords = tuple(_fraction(c, f"seed/{i}") for i, c in enumerate(raw))
        if morphism is not None and len(coords) != len(morphism.forms):
            raise ConfigError("seed: arity does not match the map")
        try:
            seed = ProjPoint.normalize(coords)
        except ValueError as exc:
            raise ConfigError(f"seed: {exc}") from None

    divisor = None
    if "divisor" in data:
        spec = _object(data["divisor"], "divisor", ("field", "form", "weight"), ("form",))
        quad = _field(spec.get("field", "Q"))
        g = _form(spec["form"], "divisor/form", None, quad)
        if morphism is not None and g.nvars != len(morphism.forms):
            raise ConfigError("divisor: arity does not match the map")
        weight = _fraction(spec.get("weight", 1), "divisor/weight")
        try:
            divisor = DivisorPresentation.hypersurface(g, weight=weight)
        except ValueError as exc:
            raise ConfigError(f"divisor: {exc}") from None

    places = []
    for i, p in enumerate(_list(data.get("places", []), "places")):
        place = _place(p, f"places/{i}")
        if place in places:
            raise ConfigError(f"places/{i}: duplicate place {p!r}")
        places.append(place)

    params = {
        k: _fraction(v, f"params/{k}")
        for k, v in _object(data.get("params", {}), "params", _PARAMS).items()
    }
    if "bound" in params:
        # thm14 and efd search the weights v with |v|_inf <= bound
        bound = params["bound"]
        if bound.denominator != 1 or bound < 1:
            raise ConfigError(f"params/bound: {bound} is not an integer >= 1")
        params["bound"] = bound.numerator

    return ExperimentConfig(
        map=morphism,
        seed=seed,
        divisor=divisor,
        places=tuple(places),
        twist=_int(data.get("twist", 1), "twist", 1),
        depth=_int(data.get("depth", 8), "depth", 0),
        params=params,
        sample=_block(data, "sample"),
        lct=_block(data, "lct"),
        efd=_block(data, "efd"),
        cn=_block(data, "cn"),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(data)
