"""Command line runner for verification suites and scenario files.

Exit codes: 0 all expectations met, 1 some check violated its
expectation, 2 usage or scenario error, 3 a budget was exceeded, 4 a
fault of the program itself (its traceback goes to stderr).
Reports are byte-identical for identical (scenario, seed); timing goes
to stderr only.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .core import BudgetExceededError
from .serialize import ScenarioError, dump_report, parse_scenario
from .suites import list_suites, run_checks, run_suite


def _at_least(low: int):
    """argparse type: an integer >= ``low``, the scenario schema's minimum."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="displacement",
        description="Verify displacement-property witnesses at desk scale.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--suite", metavar="NAME", help="run a named suite")
    source.add_argument(
        "--scenario", metavar="FILE", help="run checks from a scenario file"
    )
    source.add_argument(
        "--list-suites", action="store_true", help="list available suites and exit"
    )
    parser.add_argument("--out", metavar="FILE", help="write the report here")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    parser.add_argument("--seed", type=_at_least(0), help="seed for sampled checks")
    parser.add_argument("--budget", type=_at_least(1), help="override the search budget")
    return parser


def render_text(report: dict) -> str:
    lines = []
    if "suite" in report:
        lines.append(f"suite: {report['suite']}")
    lines.append(f"seed: {report['seed']}")
    for check in report["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(
            f"[{mark}] {check['id']}: {check['verdict']}"
            f" (expected {check['expected']})"
        )
        for d in check["detail"]:
            lines.append(f"       - {d}")
    t = report["totals"]
    lines.append(
        f"{t['ok']}/{t['checks']} checks met expectations,"
        f" {t['violations']} violations"
    )
    return "\n".join(lines) + "\n"


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.list_suites:
        sys.stdout.write(list_suites())
        return 0
    if not args.suite and not args.scenario:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: --suite, --scenario or --list-suites required\n")
        return 2

    bounds = {}
    if args.budget is not None:
        bounds["budget"] = args.budget

    started = time.monotonic()
    try:
        if args.suite:
            report = run_suite(args.suite, bounds, seed=args.seed or 0)
        else:
            scenario = parse_scenario(args.scenario)
            merged = dict(scenario.get("bounds", {}))
            merged.update(bounds)
            seed = scenario.get("seed", 0) if args.seed is None else args.seed
            report = run_checks(scenario["checks"], merged, seed)
    except ScenarioError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception:  # the input was valid, so the fault is the program's
        import traceback  # off the import path: only a fault needs it

        traceback.print_exc()
        return 4
    elapsed = time.monotonic() - started

    text = dump_report(report) if args.format == "json" else render_text(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report: {exc}\n")
            return 2
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"completed in {elapsed:.2f}s\n")
    return 0 if report["totals"]["violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
