"""JSON-friendly serialization of elements, certificates and reports.

All rationals are serialized as "numerator/denominator" strings so that
round-trips stay exact.  Scenario files are checked against the JSON
schema shipped with the package by a walker of the few keywords that
schema uses, so no schema library is needed at run time.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Any

from .core import FgSubgroup, PropertyReport


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


def fraction_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def to_jsonable(obj: Any) -> Any:
    """Structural JSON form of any element, report or certificate."""
    from .checkers import WitnessCertificate
    from .hnn import BrittonElement
    from .matrices import RationalMatrix
    from .perms import Permutation
    from .plmaps import IntervalSet, PLHomeo
    from .wreath import WreathElement

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, Permutation):
        return {"kind": "permutation", "degree": obj.context.degree,
                "cycles": [list(c) for c in obj.cycles()]}
    if isinstance(obj, RationalMatrix):
        return {"kind": "matrix",
                "entries": [[fraction_str(x) for x in row] for row in obj.entries]}
    if isinstance(obj, PLHomeo):
        return {"kind": "pl",
                "breakpoints": [[fraction_str(x), fraction_str(y)]
                                for x, y in obj.breakpoints]}
    if isinstance(obj, IntervalSet):
        return {"kind": "intervals",
                "intervals": [[fraction_str(l), fraction_str(r)]
                              for l, r in obj.intervals]}
    if isinstance(obj, WreathElement):
        return {"kind": "wreath", "shift": obj.shift,
                "support": [[i, to_jsonable(v)] for i, v in obj.support]}
    if isinstance(obj, BrittonElement):
        b0, letters = obj.word
        tokens = [_britton_token(obj.context, b0)]
        for x, e, b in letters:
            tokens.append(x if e == 1 else x + "^-1")
            tokens.append(_britton_token(obj.context, b))
        return {"kind": "britton", "tokens": tokens}
    if isinstance(obj, FgSubgroup):
        return {"kind": "subgroup", "label": obj.label,
                "generators": [to_jsonable(g) for g in obj.generators]}
    if isinstance(obj, PropertyReport):
        return {"description": obj.description, "verdict": obj.verdict,
                "checks": list(obj.checks),
                "counterexample": None if obj.counterexample is None
                else [to_jsonable(x) for x in obj.counterexample]}
    if isinstance(obj, WitnessCertificate):
        return {"kind": "certificate", "property": obj.property,
                "subject": to_jsonable(obj.subject),
                "payload": {k: to_jsonable(v) for k, v in obj.payload.items()
                            if not callable(v)},
                "bounds": dict(obj.bounds)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return repr(obj)


def _britton_token(pres, code) -> Any:
    a, b = pres.decode(code)
    return [repr(a), repr(b)]


def load_schema() -> dict:
    text = resources.files("displacement").joinpath("schema/scenario.schema.json").read_text()
    return json.loads(text)


# the JSON type each keyword constrains; "type" applies to every subschema
_KEYWORDS = {
    "properties": "object",
    "required": "object",
    "additionalProperties": "object",
    "items": "array",
    "minItems": "array",
    "minLength": "string",
    "enum": "string",
    "minimum": "integer",
}
_ANNOTATIONS = ("$schema", "$id", "title")
_TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def _supported(schema: dict, where: str = "#") -> dict:
    """``schema`` itself, once every subschema is known to state a type
    and to use only keywords ``_walk`` implements for that type;
    raises ValueError otherwise."""
    kind = schema.get("type")
    if kind not in _TYPES:
        raise ValueError(f"schema at {where}: type {kind!r} is not supported")
    for key, rule in schema.items():
        if key == "type" or key in _ANNOTATIONS:
            continue
        if _KEYWORDS.get(key) != kind:
            raise ValueError(f"schema at {where}: {key!r} is not supported on {kind}")
        if key == "additionalProperties" and rule is not False:
            raise ValueError(f"schema at {where}: additionalProperties must be false")
    for name, sub in schema.get("properties", {}).items():
        _supported(sub, f"{where}/properties/{name}")
    if "items" in schema:
        _supported(schema["items"], f"{where}/items")
    return schema


@lru_cache(maxsize=None)
def _scenario_schema() -> dict:
    """The shipped scenario schema, loaded and checked once per process."""
    return _supported(load_schema())


def _invalid(path: tuple, message: str) -> ScenarioError:
    where = "/".join(str(p) for p in path) or "<root>"
    return ScenarioError(f"scenario invalid at {where}: {message}")


def _walk(value: Any, schema: dict, path: tuple = ()) -> None:
    """Raise a ScenarioError, worded as jsonschema words it, at the first
    place where ``value`` breaks ``schema``.  An integer is an ``int``,
    never a ``bool`` and never an integral ``float``."""
    kind = schema["type"]
    if not isinstance(value, _TYPES[kind]) or isinstance(value, bool):
        raise _invalid(path, f"{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise _invalid(path, f"{value!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and value < schema["minimum"]:
        raise _invalid(path, f"{value!r} is less than the minimum of {schema['minimum']!r}")
    least = schema.get("minLength", schema.get("minItems"))
    if least is not None and len(value) < least:
        short = "should be non-empty" if least == 1 else "is too short"
        raise _invalid(path, f"{value!r} {short}")
    for key in schema.get("required", ()):
        if key not in value:
            raise _invalid(path, f"{key!r} is a required property")
    properties = schema.get("properties", {})
    if "additionalProperties" in schema:
        extra = sorted((k for k in value if k not in properties), key=str)
        if extra:
            names = ", ".join(repr(k) for k in extra)
            verb = "was" if len(extra) == 1 else "were"
            raise _invalid(
                path, f"Additional properties are not allowed ({names} {verb} unexpected)"
            )
    for key, sub in properties.items():
        if key in value:
            _walk(value[key], sub, path + (key,))
    if "items" in schema:
        for i, item in enumerate(value):
            _walk(item, schema["items"], path + (i,))


def parse_scenario(source) -> dict:
    """Parse a scenario from a dict, a file object, or a path given as a
    ``str`` or ``os.PathLike``, and check it against the shipped schema."""
    if isinstance(source, dict):
        data = source
    elif not (hasattr(source, "read") or isinstance(source, (str, os.PathLike))):
        raise ScenarioError(f"cannot read a scenario from {type(source).__name__}")
    else:
        try:
            if hasattr(source, "read"):
                data = json.load(source)
            else:
                with open(source) as fh:
                    data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"scenario is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
            ) from exc
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario: {exc}") from exc
    _walk(data, _scenario_schema())
    return data


def dump_report(report: dict) -> str:
    """Deterministic, byte-stable JSON rendering of a suite report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
