"""JSON-friendly serialization of elements, certificates and reports.

All rationals are serialized as "numerator/denominator" strings so that
round-trips stay exact.  Scenario files are validated against the JSON
schema shipped with the package.
"""

from __future__ import annotations

import json
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


@lru_cache(maxsize=None)
def _scenario_validator():
    """The validator of the shipped scenario schema, built once per
    process, after the schema itself is checked against its metaschema."""
    # imported here, not at module level: only --scenario runs need it
    from jsonschema.validators import validator_for

    schema = load_schema()
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def parse_scenario(source) -> dict:
    """Parse and validate a scenario from a path, file object or dict."""
    from jsonschema.exceptions import best_match

    if isinstance(source, dict):
        data = source
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
    # the error that jsonschema.validate would raise
    error = best_match(_scenario_validator().iter_errors(data))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ScenarioError(f"scenario invalid at {path}: {error.message}") from error
    return data


def dump_report(report: dict) -> str:
    """Deterministic, byte-stable JSON rendering of a suite report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
