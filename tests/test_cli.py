"""Command line interface: exit codes, determinism, report formats."""

import inspect
import json
import resource
import subprocess
import sys
import time

import pytest

from displacement import hnn, suites
from displacement.cli import main, render_text
from displacement.core import PropertyReport
from displacement.serialize import ScenarioError, load_schema
from displacement.suites import CHECK_TYPES, DEFAULT_EXPECT, SUITES, run_checks, run_suite


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


def test_importing_the_cli_does_not_load_jsonschema(tmp_path):
    """jsonschema is a test oracle, not a run-time dependency: with it
    blocked, a scenario file and every suite still run."""
    code = "import sys, displacement.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    path = write_scenario(tmp_path, GOOD_SCENARIO)
    blocked = (
        "import sys; sys.modules['jsonschema'] = None\n"
        "from displacement.cli import main\n"
        f"codes = main(['--scenario', {path!r}, '--out', {path + '.out'!r}]),"
        f" main(['--suite', 'all', '--out', {path + '.all'!r}])\n"
        "print(codes, sys.modules['jsonschema'])"
    )
    run = subprocess.run([sys.executable, "-c", blocked], capture_output=True, text=True)
    assert run.stdout.strip() == "(0, 0) None", run.stderr


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
    assert "error: unknown suite 'no-such-suite'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, where",
    [
        ({"checks": [{"id": "x", "type": "pl-tower", "params": {"depth": 3.0}}]},
         "checks/0/params/depth: 3.0"),
        ({"checks": [{"id": "x", "type": "gl-block-identity", "params": {"samples": 2.0}}]},
         "checks/0/params/samples: 2.0"),
        ({"seed": 2.0, "checks": [{"id": "x", "type": "gl-z2"}]}, "seed: 2.0"),
        ({"bounds": {"budget": 1e6}, "checks": [{"id": "x", "type": "gl-z2"}]},
         "bounds/budget: 1000000.0"),
    ],
)
def test_integral_float_for_an_integer_exits_two(capsys, tmp_path, scenario, where):
    """JSON Schema calls 2.0 an integer, but the program computes on
    ``int`` and writes no float into a report: the walker refuses it."""
    path = write_scenario(tmp_path, scenario)
    assert main(["--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: scenario invalid at {where} is not of type 'integer'\n"
    assert captured.out == ""


def test_unwritable_report_path_exits_two(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["--suite", "gl-z2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write report: ")


def test_program_fault_exits_four_with_its_traceback(capsys, monkeypatch):
    """An exception that no valid input explains is the program's fault:
    exit 4, not the user-error exit 2."""

    def singular(bounds, rng):
        raise ValueError("matrix is singular")

    monkeypatch.setitem(CHECK_TYPES, "gl-z2", singular)
    assert main(["--suite", "gl-z2"]) == 4
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    assert captured.err.rstrip().endswith("ValueError: matrix is singular")
    assert captured.out == ""


def test_runner_type_error_is_a_program_fault(capsys, monkeypatch):
    """Params are compared with the runner's signature before any check
    runs, so a TypeError raised inside a runner is never taken for a
    scenario error."""

    def broken(bounds, rng):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setitem(CHECK_TYPES, "gl-z2", broken)
    assert main(["--suite", "gl-z2"]) == 4
    captured = capsys.readouterr()
    assert captured.err.rstrip().endswith("TypeError: unsupported operand type(s)")
    assert captured.out == ""


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


def declared_params(ctype):
    """The params a check type takes: its runner's keyword-only arguments."""
    return {
        name: p.default
        for name, p in inspect.signature(CHECK_TYPES[ctype]).parameters.items()
        if p.kind is p.KEYWORD_ONLY
    }


# check type -> a complete set of params; each one is required
COMPLETE_PARAMS = {
    "wreath-zn-witness": {"orders": [2], "level": 1, "p": 2},
    "wreath-brute-search": {"orders": [2], "level": 1, "p": 2},
    "wreath-torsion-exhaustive": {"orders": [2], "level": 1},
    "sym-zn-witness": {"n": 2},
    "cc-search-b1": {"max_letters": 1},
}


@pytest.mark.parametrize(
    "ctype, missing",
    [(ctype, p) for ctype, params in COMPLETE_PARAMS.items() for p in params],
)
def test_missing_required_param_exits_two(tmp_path, ctype, missing):
    params = {k: v for k, v in COMPLETE_PARAMS[ctype].items() if k != missing}
    path = write_scenario(
        tmp_path, {"checks": [{"id": "x", "type": ctype, "params": params}]}
    )
    run = subprocess.run(
        [sys.executable, "-m", "displacement", "--scenario", path],
        capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert missing in run.stderr and "'x'" in run.stderr
    assert "Traceback" not in run.stderr


# verdicts at the trivial base group Sym(1), where H = 1 has every
# displacement property: a witness exists, and the torsion obstruction
# has nothing to obstruct
TRIVIAL_BASE_VERDICTS = {
    "wreath-brute-search": "some",
    "wreath-torsion-exhaustive": "fail",
    "cc-search-b1": "some",
    "pl-tower": "bounded-pass",
}


@pytest.mark.parametrize("ctype", sorted(CHECK_TYPES))
def test_every_check_type_runs_on_the_trivial_base_group(capsys, tmp_path, ctype):
    params = dict(COMPLETE_PARAMS.get(ctype, {}))
    if "degree" in declared_params(ctype):
        params["degree"] = 1
    path = write_scenario(
        tmp_path, {"checks": [{"id": "x", "type": ctype, "params": params}]}
    )
    verdict = TRIVIAL_BASE_VERDICTS.get(ctype, "pass")
    assert main(["--scenario", path]) == (0 if verdict == DEFAULT_EXPECT[ctype] else 1)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["checks"][0]["verdict"] == verdict


# a check that exceeds a budget of 10 as soon as it runs (exit 3)
OVER_BUDGET = {
    "id": "deep",
    "type": "wreath-brute-search",
    "params": {"level": 2, "orders": [2, 2], "p": 2},
}


@pytest.mark.parametrize(
    "check, message",
    [
        (
            {"id": "short", "type": "wreath-torsion-exhaustive",
             "params": {"level": 2, "orders": [3]}},
            "check 'short': level 2 needs 2 orders, got 1",
        ),
        (
            {"id": "short", "type": "wreath-brute-search",
             "params": {"level": 3, "orders": [2, 2], "p": 2}},
            "check 'short': level 3 needs 3 orders, got 2",
        ),
        (
            {"id": "indivisible", "type": "wreath-zn-witness",
             "params": {"level": 1, "orders": [3], "p": 2}},
            "check 'indivisible': p = 2 does not divide n_1 = 3",
        ),
        (
            {"id": "short", "type": "wreath-zn-witness",
             "params": {"level": 2, "orders": [2], "p": 2}},
            "check 'short': level 2 needs 2 orders, got 1",
        ),
        (
            {"id": "too-deep", "type": "pl-tower", "params": {"depth": 6}},
            "check 'too-deep': depth 6 exceeds the deepest tower, 5",
        ),
        (
            {"id": "too-far", "type": "cc-search-b1", "params": {"max_letters": 5}},
            "check 'too-far': max_letters 5 exceeds the tree radius budget, 4",
        ),
    ],
)
def test_meaningless_wreath_params_exit_two_before_any_check_runs(
    capsys, tmp_path, check, message
):
    # the over-budget check comes first: running it would exit 3
    path = write_scenario(tmp_path, {"checks": [OVER_BUDGET, check]})
    assert main(["--scenario", path, "--budget", "10"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "check, message",
    [
        (
            {"id": "extra", "type": "gl-z2", "params": {"degree": 9}},
            "check 'extra': type 'gl-z2' does not take degree",
        ),
        (
            {"id": "extra", "type": "hall-sym", "params": {"n": 2, "samples": 3}},
            "check 'extra': type 'hall-sym' does not take n, samples",
        ),
        (
            {"id": "extra", "type": "bass-serre", "params": {"radius": 2}},
            "scenario invalid at checks/1/params: Additional properties are not"
            " allowed ('radius' was unexpected)",
        ),
    ],
)
def test_undeclared_param_exits_two_before_any_check_runs(
    capsys, tmp_path, check, message
):
    """A param the check type does not take is refused, not ignored:
    ``degree`` on ``gl-z2`` would otherwise pass as if checked.  The tree
    radius is ``bounds.radius`` only."""
    path = write_scenario(tmp_path, {"checks": [OVER_BUDGET, check]})
    assert main(["--scenario", path, "--budget", "10"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_checks_refuses_an_undeclared_param_before_any_check_runs():
    checks = [OVER_BUDGET, {"id": "r", "type": "bass-serre", "params": {"radius": 2}}]
    message = "check 'r': type 'bass-serre' does not take radius"
    with pytest.raises(ScenarioError, match=message):
        run_checks(checks, {"budget": 10}, 0)


def test_unknown_check_type_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="check 'x' has unknown type 'no-such-type'"):
        run_checks([{"id": "x", "type": "no-such-type"}], {}, 0)


def test_check_type_registry_matches_the_schema():
    items = load_schema()["properties"]["checks"]["items"]
    enum = items["properties"]["type"]["enum"]
    assert set(enum) == set(CHECK_TYPES) == set(DEFAULT_EXPECT)


def test_registry_reads_the_params_that_inspect_reads():
    """``check_type`` reads each runner's keyword-only arguments from its
    code object, as ``inspect.signature`` reads them, in order, with
    ``REQUIRED`` standing for a missing default."""
    for ctype in CHECK_TYPES:
        expected = {
            name: suites.REQUIRED if default is inspect.Parameter.empty else default
            for name, default in declared_params(ctype).items()
        }
        assert list(suites.PARAMS[ctype].items()) == list(expected.items())


def test_runner_params_match_the_schema():
    """The schema's params are exactly those some runner takes."""
    items = load_schema()["properties"]["checks"]["items"]
    schema_params = items["properties"]["params"]["properties"]
    assert set().union(*map(declared_params, CHECK_TYPES)) == set(schema_params)


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


# the check types that build an HNN presentation, with complete params
HNN_CHECKS = {
    "bass-serre": {},
    "britton-engine": {},
    "cc-search-b1": {"max_letters": 1},
    "mitosis": {},
}


@pytest.mark.parametrize("ctype", sorted(HNN_CHECKS))
def test_base_group_too_large_for_a_presentation_exits_three(
    capsys, monkeypatch, tmp_path, ctype
):
    """Every check type that builds an HNN presentation refuses a base
    group above one limit, read at call time: here Sym(3), of order 6,
    against a limit lowered to 5."""
    monkeypatch.setattr(hnn, "MAX_BASE_ORDER", 5)
    params = dict(HNN_CHECKS[ctype], degree=3)
    path = write_scenario(
        tmp_path, {"checks": [{"id": "x", "type": ctype, "params": params}]}
    )
    assert main(["--scenario", path]) == 3
    assert capsys.readouterr().err == "error: base group larger than budget 5\n"


HUGE_DEGREE = 10**9

# the check types built on Sym(degree), with complete params (a degree
# given here replaces the huge one), and the message of the budget that
# a huge degree, or for sym-zn-witness a huge n, exceeds
SYM_BASE_CHECKS = {
    **{c: (p, "base group larger than budget 1000") for c, p in HNN_CHECKS.items()},
    "wreath-brute-search": (
        {"orders": [2], "level": 1, "p": 2}, "level 1 order exceeds budget 10000000"
    ),
    "wreath-torsion-exhaustive": (
        {"orders": [2], "level": 1}, "level 1 order exceeds budget 10000000"
    ),
    # the permutations of these three act on degree, degree * max(ns) and
    # degree * n points; hall-sym and sym-zn-witness run the same
    # certificate check, which holds six of them at once
    "wreath-zn-witness": (
        {"orders": [2], "level": 1, "p": 2},
        "permutation degree 1000000000 exceeds budget 10000000",
    ),
    "hall-sym": ({}, "6 permutations of degree 4000000000 exceed budget 10000000"),
    "sym-zn-witness": (
        {"degree": 3, "n": HUGE_DEGREE},
        "6 permutations of degree 3000000000 exceed budget 10000000",
    ),
}


@pytest.mark.parametrize("ctype", sorted(SYM_BASE_CHECKS))
def test_huge_degree_is_refused_before_sym_is_built(capsys, monkeypatch, tmp_path, ctype):
    """Sym(10^9), or Sym(3) with sym-zn-witness's n = 10^9, exceeds the
    budget of every check type built on it, and the check says so before
    it builds one permutation."""
    monkeypatch.setattr(suites, "symmetric_group", lambda degree: pytest.fail("built"))
    params, message = SYM_BASE_CHECKS[ctype]
    params = {"degree": HUGE_DEGREE, **params}
    path = write_scenario(
        tmp_path, {"checks": [{"id": "x", "type": ctype, "params": params}]}
    )
    assert main(["--scenario", path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


MEMORY_CAP = 800 * 2**20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize(
    "ctype, params",
    [
        pytest.param(c, {"degree": HUGE_DEGREE, **SYM_BASE_CHECKS[c][0]}, id=c)
        for c in (
            "cc-search-b1", "mitosis", "wreath-brute-search",
            "hall-sym", "sym-zn-witness", "wreath-zn-witness",
        )
    ]
    + [pytest.param("hall-sym", {"ns": [3333333]}, id="hall-sym-past-its-charge")],
)
def test_huge_degree_exits_three_under_a_memory_cap(tmp_path, ctype, params):
    """One permutation of degree 10^9 alone would not fit in 800 MB, nor
    would the six of degree 9,999,999 that hall-sym's certificate check
    holds at degree 3 and n = 3,333,333; the CLI, run in a child process
    under that address-space cap, exits 3 at once."""
    path = write_scenario(
        tmp_path, {"checks": [{"id": "x", "type": ctype, "params": params}]}
    )
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "displacement", "--scenario", path],
        capture_output=True, text=True, timeout=20, preexec_fn=_cap_address_space,
    )
    elapsed = time.monotonic() - start
    assert run.returncode == 3, run.stderr
    assert elapsed < 1


def test_sym_zn_witness_charges_the_permutations_it_holds(capsys, tmp_path):
    """sym-zn-witness admits degree * n points for each permutation it
    holds at once, and refuses one unit of n more."""
    held = suites.SYM_ZN_HELD
    budget = held * 3 * 4
    for n, code in ((4, 0), (5, 3)):
        path = write_scenario(
            tmp_path, {"checks": [{"id": "x", "type": "sym-zn-witness", "params": {"n": n}}]}
        )
        assert main(["--scenario", path, "--budget", str(budget)]) == code
    message = f"error: {held} permutations of degree 15 exceed budget {budget}\n"
    assert capsys.readouterr().err.endswith(message)


def test_every_report_field_reaches_the_check_entry(monkeypatch):
    """A check result holds only what its report entry prints."""
    entry_key = {"verdict": "verdict", "checks": "detail", "counterexample": "counterexample"}
    assert PropertyReport.__slots__ == tuple(entry_key)
    rep = PropertyReport("fail", ("first", "second"), (1, "a"))
    monkeypatch.setitem(CHECK_TYPES, "gl-z2", lambda bounds, rng: rep)
    (entry,) = run_checks([{"id": "x", "type": "gl-z2"}], {}, 0)["checks"]
    assert {field: entry[key] for field, key in entry_key.items()} == {
        "verdict": "fail", "checks": ["first", "second"], "counterexample": [1, "a"]
    }


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
    for name in ("mitosis", "gl-z2", "wreath-converse", "torsion-obstruction"):
        assert name in SUITES
        report = run_suite(name)
        assert report["totals"]["violations"] == 0
