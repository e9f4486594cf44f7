"""Exact serialization of elements, reports and scenarios."""

import json
from fractions import Fraction

import pytest
from jsonschema.validators import validator_for

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
    """The schema is checked and its validator built once per process."""
    serialize._scenario_validator.cache_clear()
    loads = []
    monkeypatch.setattr(serialize, "load_schema", lambda: loads.append(1) or load_schema())
    good = {"checks": [{"id": "a", "type": "mitosis"}]}
    assert parse_scenario(good) == good
    first = serialize._scenario_validator()
    with pytest.raises(ScenarioError, match="'id' is a required property"):
        parse_scenario({"checks": [{"type": "mitosis"}]})
    assert parse_scenario(good) == good
    assert serialize._scenario_validator() is first
    assert len(loads) == 1
    serialize._scenario_validator.cache_clear()


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


def test_dump_report_is_stable():
    report = {"b": 1, "a": [F is None]}
    assert dump_report(report) == dump_report(dict(reversed(list(report.items()))))
    assert dump_report(report).endswith("\n")
