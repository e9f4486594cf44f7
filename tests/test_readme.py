"""The README's examples run as written."""

import json
import re
from pathlib import Path

import pytest

from displacement.serialize import parse_scenario
from displacement.suites import run_checks

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_has_examples():
    assert len(fenced_blocks("python")) >= 2
    assert len(fenced_blocks("json")) == 1


@pytest.mark.parametrize("index", range(len(fenced_blocks("python"))))
def test_python_block_runs(index):
    source = fenced_blocks("python")[index]
    exec(compile(source, f"README.md python block {index}", "exec"), {})


def test_json_scenario_meets_its_expectations():
    (source,) = fenced_blocks("json")
    scenario = parse_scenario(json.loads(source))
    report = run_checks(
        scenario["checks"], scenario.get("bounds", {}), scenario.get("seed", 0)
    )
    assert report["checks"]
    for result in report["checks"]:
        assert result["ok"], result
