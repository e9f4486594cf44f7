"""Exact serialization of elements, reports and scenarios."""

import copy
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import extend, validator_for

from displacement import serialize
from displacement.checkers import WitnessCertificate
from displacement.core import PropertyReport
from displacement.hnn import binate_presentation
from displacement.matrices import RationalMatrix
from displacement.perms import Permutation, symmetric_group
from displacement.plmaps import IntervalSet, thompson_generators
from displacement.serialize import (
    ScenarioError,
    dump_report,
    fraction_str,
    load_schema,
    parse_scenario,
    to_jsonable,
)
from displacement.wreath import TowerSpec, WreathElement

F = Fraction


def test_fraction_round_trip():
    for x in (F(1, 3), F(-7, 2), F(4), F(0)):
        assert Fraction(fraction_str(x)) == x
    assert fraction_str(F(1, 2)) == "1/2"


def test_to_jsonable_is_json_safe():
    x0, _ = thompson_generators()
    pres = binate_presentation(symmetric_group(3))
    tower = TowerSpec(symmetric_group(3), ("prefix", (2,)))
    w = WreathElement(tower.context(1), 1, [(0, Permutation.from_cycles(3, [(1, 2)]))])
    objs = [
        Permutation.from_cycles(4, [(1, 2, 3)]),
        RationalMatrix([[F(1, 2), 0], [0, 2]]),
        x0,
        IntervalSet([(0, F(1, 2))]),
        w,
        pres.stable_letter("d") * pres.base_element(
            Permutation.from_cycles(3, [(1, 2)]), symmetric_group(3).context.identity
        ),
        symmetric_group(3),
        PropertyReport("demo", "pass", ("a", "b")),
        WitnessCertificate("CC", symmetric_group(3), {"t": x0, "oracle": len}),
    ]
    for obj in objs:
        json.dumps(to_jsonable(obj))  # must not raise


def test_certificate_serialization_drops_callables():
    cert = WitnessCertificate("CC", symmetric_group(3), {"t": 1, "membership": len})
    out = to_jsonable(cert)
    assert "membership" not in out["payload"]
    assert out["payload"]["t"] == 1


def test_schema_loads_and_validates():
    schema = load_schema()
    assert schema["properties"]["checks"]
    good = {"checks": [{"id": "a", "type": "mitosis"}]}
    assert parse_scenario(good) == good
    with pytest.raises(ScenarioError):
        parse_scenario({"checks": [{"id": "a", "type": "bogus"}]})
    with pytest.raises(ScenarioError):
        parse_scenario({"checks": [{"type": "mitosis"}]})  # id required
    with pytest.raises(ScenarioError):
        parse_scenario({"checks": []})  # must list at least one check
    with pytest.raises(ScenarioError):
        parse_scenario({"checks": [{"id": "a", "type": "mitosis"}], "extra": 1})


def test_shipped_schema_passes_its_metaschema():
    schema = load_schema()
    validator_for(schema).check_schema(schema)  # raises SchemaError if not


def test_second_parse_reuses_the_validator(monkeypatch):
    """The schema is loaded, and its keywords checked, once per process."""
    serialize._scenario_schema.cache_clear()
    loads = []
    monkeypatch.setattr(serialize, "load_schema", lambda: loads.append(1) or load_schema())
    good = {"checks": [{"id": "a", "type": "mitosis"}]}
    assert parse_scenario(good) == good
    with pytest.raises(ScenarioError, match="'id' is a required property"):
        parse_scenario({"checks": [{"type": "mitosis"}]})
    assert parse_scenario(good) == good
    assert len(loads) == 1
    serialize._scenario_schema.cache_clear()


def _with(schema, where, **keywords):
    """A copy of ``schema`` whose subschema at the key path ``where``
    also holds ``keywords``."""
    schema = copy.deepcopy(schema)
    node = schema
    for key in where:
        node = node[key]
    node.update(keywords)
    return schema


DEGREE = ("properties", "checks", "items", "properties", "params", "properties", "degree")
ID = ("properties", "checks", "items", "properties", "id")


@pytest.mark.parametrize(
    "where, keywords, message",
    [
        (DEGREE, {"maximum": 9}, "'maximum' is not supported on integer"),
        (ID, {"pattern": "^a"},
         "at #/properties/checks/items/properties/id: 'pattern' is not supported on string"),
        (ID, {"minimum": 1}, "'minimum' is not supported on string"),
        (DEGREE, {"type": "number"}, "type 'number' is not supported"),
        ((), {"additionalProperties": True}, "additionalProperties must be false"),
        ((), {"$defs": {}}, "'$defs' is not supported on object"),
    ],
)
def test_unsupported_schema_keyword_raises_at_load(monkeypatch, where, keywords, message):
    """The walker covers only the keywords of the shipped schema; a
    schema that outgrows it fails when it is loaded, before any scenario
    is judged by it."""
    schema = _with(load_schema(), where, **keywords)
    serialize._scenario_schema.cache_clear()
    monkeypatch.setattr(serialize, "load_schema", lambda: schema)
    try:
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            parse_scenario({"checks": [{"id": "a", "type": "mitosis"}]})
        assert not isinstance(info.value, ScenarioError)
    finally:
        serialize._scenario_schema.cache_clear()


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"checks": [{"id": "a", "type": "mitosis"}], "seed": -1},
         "at seed: -1 is less than the minimum of 0"),
        ({"checks": [{"id": "a", "type": "mitosis", "params": {"degree": 0}}]},
         "at checks/0/params/degree: 0 is less than the minimum of 1"),
        ({"checks": [{"id": "a", "type": "mitosis"}], "bounds": {"depth": 3}},
         "at bounds: Additional properties are not allowed ('depth' was unexpected)"),
        ({"checks": [{"id": "a", "type": "mitosis", "x": 1, "y": 2}]},
         "at checks/0: Additional properties are not allowed ('x', 'y' were unexpected)"),
        ({"checks": [{"id": "a", "type": "mitosis"}], "seed": True},
         "at seed: True is not of type 'integer'"),
        ({"checks": [{"id": "a", "type": "mitosis", "params": {"degree": False}}]},
         "at checks/0/params/degree: False is not of type 'integer'"),
        ({"checks": [{"id": "a", "type": "mitosis"}], "seed": 2.0},
         "at seed: 2.0 is not of type 'integer'"),
        ({"checks": [{"id": "a", "type": "hall-sym", "params": {"ns": [2, 3.0]}}]},
         "at checks/0/params/ns/1: 3.0 is not of type 'integer'"),
        ({"checks": [{"id": "", "type": "mitosis"}]}, "at checks/0/id: '' should be non-empty"),
        ({"checks": [{"id": "a", "type": "wreath-zn-witness", "params": {"orders": []}}]},
         "at checks/0/params/orders: [] should be non-empty"),
        ({"checks": [{"id": "a", "type": "nope"}]}, "at checks/0/type: 'nope' is not one of"),
        ({"checks": "mitosis"}, "at checks: 'mitosis' is not of type 'array'"),
        ([], "at <root>: [] is not of type 'object'"),
    ],
)
def test_walker_rejects_with_the_path_and_the_rule(scenario, message):
    with pytest.raises(ScenarioError, match="^scenario invalid " + re.escape(message)):
        parse_scenario(io.StringIO(json.dumps(scenario)))


def _instances(schema):
    """A strategy of instances valid under ``schema``, read from the
    schema itself, so that it covers every property the schema names."""
    kind = schema["type"]
    if kind == "integer":
        low = schema.get("minimum", -3)
        return st.integers(low, low + 4)
    if kind == "string":
        if "enum" in schema:
            return st.sampled_from(schema["enum"])
        return st.text(min_size=schema.get("minLength", 0), max_size=4)
    if kind == "array":
        items = _instances(schema["items"])
        return st.lists(items, min_size=schema.get("minItems", 0), max_size=3)
    props = schema.get("properties", {})
    required = schema.get("required", [])
    return st.fixed_dictionaries(
        {k: _instances(props[k]) for k in required},
        optional={k: _instances(v) for k, v in props.items() if k not in required},
    )


def _nodes(value, schema, path=()):
    """(path, value, subschema) of every value in a valid instance."""
    yield path, value, schema
    if schema["type"] == "object":
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _nodes(value[key], sub, path + (key,))
    elif schema["type"] == "array":
        for i, item in enumerate(value):
            yield from _nodes(item, schema["items"], path + (i,))


ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from([0.0, 1.0, 2.0, 2.5, 1e6]),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["id", "x"]), st.integers(0, 3), max_size=1),
)


SCHEMA = load_schema()
PLAIN_ORACLE = validator_for(SCHEMA)(SCHEMA)


def _strict_oracle():
    """jsonschema's validator of the shipped schema, with the one
    declared difference from the walker: an integer is an ``int``, so an
    integral float such as 2.0, which JSON Schema calls an integer, is
    rejected here as it is by the walker."""
    cls = validator_for(SCHEMA)
    checker = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    )
    return extend(cls, type_checker=checker)(SCHEMA)


STRICT_ORACLE = _strict_oracle()


def _holds_integral_float(value):
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(_holds_integral_float(v) for v in value)


def _mutated(data, scenario):
    """``scenario`` with one drawn mutation: drop a key, add an unknown
    key, replace a value by any JSON value (another type, an integral
    float, an empty list or string), go below a minimum, or name a value
    outside an enum."""
    path, value, schema = data.draw(st.sampled_from(list(_nodes(scenario, SCHEMA))))
    kinds = ["replace"]
    if schema["type"] == "object":
        kinds += ["drop"] * bool(value) + ["extra"]
    if "minimum" in schema:
        kinds.append("below")
    if "enum" in schema:
        kinds.append("enum")
    if schema["type"] in ("array", "string"):
        kinds.append("empty")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        new = dict(value)
        del new[data.draw(st.sampled_from(sorted(value)))]
    elif kind == "extra":
        new = dict(value, **{data.draw(st.sampled_from(["extra", "id", "p"])): 1})
    elif kind == "below":
        new = schema["minimum"] - data.draw(st.integers(1, 2))
    elif kind == "enum":
        new = data.draw(st.text(max_size=3))
    elif kind == "empty":
        new = type(value)()
    else:
        new = data.draw(ANY_JSON)
    if not path:
        return new
    scenario = copy.deepcopy(scenario)
    parent = scenario
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return scenario


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walker_agrees_with_jsonschema_on_mutated_scenarios(data):
    """The walker accepts and rejects exactly what jsonschema does, once
    jsonschema is told that an integer is an ``int``; unmodified
    jsonschema differs only on scenarios holding an integral float.  When
    jsonschema sees one error, both name the same path with the same
    message."""
    scenario = data.draw(_instances(SCHEMA))
    assert parse_scenario(scenario) == scenario
    mutated = _mutated(data, scenario)
    errors = list(STRICT_ORACLE.iter_errors(mutated))
    assert PLAIN_ORACLE.is_valid(mutated) == (not errors) or _holds_integral_float(mutated)
    try:
        parse_scenario(io.StringIO(json.dumps(mutated)))
    except ScenarioError as exc:
        assert errors, exc
        if len(errors) == 1:
            (error,) = errors
            where = "/".join(str(p) for p in error.absolute_path) or "<root>"
            assert str(exc) == f"scenario invalid at {where}: {error.message}"
    else:
        assert not errors, errors[0].message


def test_parse_scenario_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"seed": 3, "checks": [{"id": "m", "type": "mitosis"}]}')
    assert parse_scenario(str(path))["seed"] == 3
    with pytest.raises(ScenarioError):
        parse_scenario(str(tmp_path / "missing.json"))
    broken = tmp_path / "b.json"
    broken.write_text("{")
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario(str(broken))
    assert parse_scenario(path)["seed"] == 3  # an os.PathLike


@pytest.mark.parametrize("source", [True, False, 0, 1, -1, None, 3.5, b"s.json"])
def test_parse_scenario_refuses_a_source_that_is_no_path(source):
    """An int or a bool is no path: handed to ``open()`` it would name a
    file descriptor, so 0 would read stdin and True would close stdout."""
    with pytest.raises(ScenarioError, match="cannot read a scenario from"):
        parse_scenario(source)


def test_dump_report_is_stable():
    report = {"b": 1, "a": [F is None]}
    assert dump_report(report) == dump_report(dict(reversed(list(report.items()))))
    assert dump_report(report).endswith("\n")
