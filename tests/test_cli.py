"""Command line interface: exit codes, determinism, report formats."""

import json

import pytest

from displacement.cli import main, render_text
from displacement.serialize import load_schema
from displacement.suites import CHECK_TYPES, DEFAULT_EXPECT, SUITES, run_suite


GOOD_SCENARIO = {
    "seed": 7,
    "bounds": {"budget": 10**6},
    "checks": [
        {
            "id": "wz",
            "type": "wreath-zn-witness",
            "params": {"level": 1, "orders": [2], "p": 2},
        },
        {"id": "mito", "type": "mitosis"},
    ],
}


def write_scenario(tmp_path, payload, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_suites(capsys):
    assert main(["--list-suites"]) == 0
    out = capsys.readouterr().out
    for name in ("mitosis", "bass-serre", "all"):
        assert name in out


def test_suite_run_exits_zero(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(["--suite", "mitosis", "--out", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suite"] == "mitosis"
    assert report["totals"]["violations"] == 0


def test_scenario_round_trip(capsys, tmp_path):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    assert main(["--scenario", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7
    assert [c["id"] for c in report["checks"]] == ["wz", "mito"]
    assert all(c["ok"] for c in report["checks"])


def test_violated_expectation_exits_one(capsys, tmp_path):
    bad = {
        "checks": [
            {
                "id": "wz",
                "type": "wreath-zn-witness",
                "params": {"level": 1, "orders": [2], "p": 2},
                "expect": "fail",
            }
        ]
    }
    path = write_scenario(tmp_path, bad)
    assert main(["--scenario", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["totals"]["violations"] == 1


def test_schema_violation_exits_two(capsys, tmp_path):
    path = write_scenario(tmp_path, {"checks": [{"id": "x", "type": "no-such-check"}]})
    assert main(["--scenario", path]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"checks": [')
    assert main(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_source_exits_two(capsys):
    assert main([]) == 2
    assert main(["--suite", "no-such-suite"]) == 2


@pytest.mark.parametrize("flag", ["--jobs", "--p-max"])
def test_removed_flags_exit_two(capsys, flag):
    assert main(["--suite", "mitosis", flag, "1"]) == 2


@pytest.mark.parametrize(
    "flag, value", [("--budget", "0"), ("--budget", "-1"), ("--seed", "-1")]
)
def test_out_of_range_budget_and_seed_exit_two(capsys, flag, value):
    """The same minimums as the scenario schema: budget >= 1, seed >= 0."""
    assert main(["--suite", "mitosis", flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "must be at least" in err


def test_non_integer_budget_exits_two(capsys):
    assert main(["--suite", "mitosis", "--budget", "ten"]) == 2
    assert "invalid integer value: 'ten'" in capsys.readouterr().err


def test_builtin_bass_serre_check_runs_as_a_scenario(capsys, tmp_path):
    path = write_scenario(tmp_path, {"checks": SUITES["bass-serre"]["checks"]})
    assert main(["--scenario", path]) == 0


def test_check_type_registry_matches_the_schema():
    items = load_schema()["properties"]["checks"]["items"]
    enum = items["properties"]["type"]["enum"]
    assert set(enum) == set(CHECK_TYPES) == set(DEFAULT_EXPECT)


def test_budget_exceeded_exits_three(capsys, tmp_path):
    scenario = {
        "checks": [
            {
                "id": "deep",
                "type": "wreath-brute-search",
                "params": {"level": 2, "orders": [2, 2], "p": 2},
            }
        ]
    }
    path = write_scenario(tmp_path, scenario)
    code = main(["--scenario", path, "--budget", "10"])
    assert code == 3


def test_reports_are_byte_identical(capsys, tmp_path):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--scenario", path, "--out", str(out1)]) == 0
    assert main(["--scenario", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # a different seed changes sampled checks but stays valid
    assert main(["--scenario", path, "--seed", "99", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["seed"] == 99
    # --seed 0 overrides the scenario's seed too
    assert main(["--scenario", path, "--seed", "0", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["seed"] == 0


def test_text_format(capsys, tmp_path):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    assert main(["--scenario", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "[ok  ] wz" in out
    assert "2/2 checks met expectations" in out


def test_timing_goes_to_stderr_only(capsys, tmp_path):
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    main(["--scenario", path])
    captured = capsys.readouterr()
    assert "completed in" in captured.err
    assert "completed in" not in captured.out


def test_render_text_shape():
    report = run_suite("mitosis")
    text = render_text(report)
    assert text.startswith("suite: mitosis")
    assert text.endswith("violations\n")


def test_every_named_suite_is_runnable():
    # smoke-run the cheap suites end to end; "all" is covered by the
    # acceptance tests
    for name in ("mitosis", "gl-z2", "wreath-converse"):
        assert name in SUITES
        report = run_suite(name)
        assert report["totals"]["violations"] == 0
