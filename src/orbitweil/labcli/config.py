"""Experiment configuration: JSON ingestion against a published schema.

A config file drives the CLI and the experiment runners.  The JSON layout
uses exponent-keyed form objects ("2,0" -> coefficient) because they stay
readable for sparse forms; coefficients are strings like "-3/7" (or plain
integers), and quadratic-field coefficients are {"a": "p/q", "b": "r/s"}
meaning a + b*sqrt(d).  Schema validation happens first, then the semantic
checks the schema cannot express: primality of finite places, arity
agreement between map, seed, and divisor, and effectivity of the divisor
weight where an experiment needs it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import jsonschema

from ..exactnum import ExactnumError, Place, QuadElem, QuadField, is_prime
from ..polydyn import HomogPoly, Morphism, ProjPoint
from ..weil import DivisorPresentation


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_COEFF = {
    "anyOf": [
        {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
        {"type": "integer"},
        {
            "type": "object",
            "properties": {
                "a": {"type": ["string", "integer"]},
                "b": {"type": ["string", "integer"]},
            },
            "required": ["a", "b"],
            "additionalProperties": False,
        },
    ]
}

_FORM = {
    "type": "object",
    "minProperties": 1,
    "patternProperties": {r"^\d+(,\d+)*$": _COEFF},
    "additionalProperties": False,
}

_PLACE = {"anyOf": [{"const": "inf"}, {"type": "integer", "minimum": 2}]}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "map": {
            "type": "object",
            "properties": {"forms": {"type": "array", "minItems": 2, "items": _FORM}},
            "required": ["forms"],
            "additionalProperties": False,
        },
        "seed": {
            "type": "array",
            "minItems": 2,
            "items": {"type": ["string", "integer"]},
        },
        "divisor": {
            "type": "object",
            "properties": {
                "field": {
                    "anyOf": [
                        {"const": "Q"},
                        {
                            "type": "object",
                            "properties": {"d": {"type": "integer"}},
                            "required": ["d"],
                            "additionalProperties": False,
                        },
                    ]
                },
                "form": _FORM,
                "weight": {"type": ["string", "integer"]},
            },
            "required": ["form"],
            "additionalProperties": False,
        },
        "places": {"type": "array", "items": _PLACE},
        "twist": {"type": "integer", "minimum": 1},
        "depth": {"type": "integer", "minimum": 0},
        "params": {
            "type": "object",
            "additionalProperties": {"type": ["string", "integer"]},
        },
        "sample": {
            "type": "object",
            "properties": {
                "height_bound": {"type": "integer", "minimum": 1},
                "count": {"anyOf": [{"type": "integer", "minimum": 1}, {"const": "all"}]},
                "seed": {"type": "integer"},
            },
            "required": ["height_bound"],
            "additionalProperties": False,
        },
        "lct": {
            "type": "object",
            "properties": {
                "nvars": {"type": "integer", "minimum": 1},
                "generators": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "integer", "minimum": 0},
                    },
                },
                "bound": {"type": "integer", "minimum": 1},
            },
            "required": ["nvars", "generators"],
            "additionalProperties": False,
        },
        "efd": {
            "type": "object",
            "properties": {
                "matrix": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "integer", "minimum": 0},
                    },
                },
                "target": {"type": "integer", "minimum": 0},
                "bound": {"type": "integer", "minimum": 1},
            },
            "required": ["matrix", "target"],
            "additionalProperties": False,
        },
        "cn": {
            "type": "object",
            "properties": {
                "m_list": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer", "minimum": 1},
                },
                "dim": {"type": "integer", "minimum": 1},
                "delta": {"type": ["string", "integer"]},
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
            },
            "required": ["m_list", "dim", "delta", "m", "n"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def _fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError("booleans are not numbers here")
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {value!r}: {exc}") from None


def _coefficient(value, quad: QuadField | None):
    if isinstance(value, dict):
        if quad is None:
            raise ConfigError("quadratic coefficient given but divisor field is Q")
        return QuadElem(quad, _fraction(value["a"]), _fraction(value["b"]))
    return _fraction(value)


def _parse_form(obj: dict, nvars: int, quad: QuadField | None = None) -> HomogPoly:
    terms = {}
    for key, raw in obj.items():
        exps = tuple(int(p) for p in key.split(","))
        if len(exps) != nvars:
            raise ConfigError(
                f"exponent key {key!r} has {len(exps)} entries, expected {nvars}"
            )
        terms[exps] = _coefficient(raw, quad)
    try:
        return HomogPoly.from_terms(nvars, terms)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_place(spec) -> Place:
    if spec == "inf":
        return Place.archimedean()
    p = int(spec)
    try:
        prime = is_prime(p)
    except ExactnumError as exc:
        raise ConfigError(f"place {p}: {exc}") from None
    if not prime:
        raise ConfigError(f"place {p} is not prime")
    return Place.finite(p)


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
    raw: dict = field(repr=False, default_factory=dict)

    def param(self, name: str, default=None) -> Fraction | None:
        if name in self.params:
            return self.params[name]
        return default

    def require(self, *attrs) -> "ExperimentConfig":
        for a in attrs:
            if getattr(self, a) in (None, ()):
                raise ConfigError(f"config is missing the {a!r} section")
        return self


def parse_config(data: dict) -> ExperimentConfig:
    try:
        jsonschema.validate(data, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"schema violation at {path}: {exc.message}") from None

    morphism = None
    if "map" in data:
        forms = data["map"]["forms"]
        nvars = len(forms)
        try:
            morphism = Morphism(tuple(_parse_form(f, nvars) for f in forms))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    seed = None
    if "seed" in data:
        coords = tuple(_fraction(c) for c in data["seed"])
        if morphism is not None and len(coords) != len(morphism.forms):
            raise ConfigError("seed arity does not match the map")
        try:
            seed = ProjPoint.normalize(coords)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    divisor = None
    if "divisor" in data:
        spec = data["divisor"]
        fld = spec.get("field", "Q")
        quad = None
        if isinstance(fld, dict):
            try:
                quad = QuadField(fld["d"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        nvars = len(morphism.forms) if morphism is not None else None
        first_key = next(iter(spec["form"]))
        arity = len(first_key.split(","))
        if nvars is not None and arity != nvars:
            raise ConfigError("divisor arity does not match the map")
        g = _parse_form(spec["form"], arity, quad)
        weight = _fraction(spec.get("weight", 1))
        try:
            divisor = DivisorPresentation.hypersurface(g, weight=weight)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    places = []
    for p in data.get("places", []):
        place = _parse_place(p)
        if place in places:
            raise ConfigError(f"duplicate place {p!r}")
        places.append(place)

    params = {k: _fraction(v) for k, v in data.get("params", {}).items()}

    return ExperimentConfig(
        map=morphism,
        seed=seed,
        divisor=divisor,
        places=tuple(places),
        twist=int(data.get("twist", 1)),
        depth=int(data.get("depth", 8)),
        params=params,
        sample=data.get("sample"),
        lct=data.get("lct"),
        efd=data.get("efd"),
        cn=data.get("cn"),
        raw=data,
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
