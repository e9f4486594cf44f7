"""The README's examples run as written, and its table of check types
states the params their runners take."""

import inspect
import json
import re
from pathlib import Path

import pytest

from displacement.serialize import parse_scenario
from displacement.suites import CHECK_TYPES, run_checks

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


def readme_check_params():
    """Check type -> param -> its default as JSON, or "required", read
    from the README's table of check types."""
    table = README.split("| Check type | Params |\n| --- | --- |\n", 1)[1]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", table.split("\n\n", 1)[0], re.M)
    return {
        ctype: {
            name: "required" if default == "" else json.loads(default)
            for name, default in re.findall(r"`(\w+)` (?:required|= (\[.*?\]|[^,]+))", cell)
        }
        for ctype, cell in rows
    }


def test_check_type_table_matches_the_runners():
    declared = {
        ctype: {
            p.name: "required" if p.default is p.empty else json.loads(json.dumps(p.default))
            for p in inspect.signature(runner).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        }
        for ctype, runner in CHECK_TYPES.items()
    }
    assert readme_check_params() == declared
