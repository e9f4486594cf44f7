"""The three benchmark workloads and the scenario files they are made of.

A workload is an ordered list of steps.  Each step is one call of the
public entry ``displacement.cli.main``: either a built-in suite or a
generated one-check scenario file.  Every check of ``--suite all``
appears in exactly one workload; the generated checks are larger
instances that lengthen the runs.

The benchmark seed fixes the sampling seed of every step.  Sizes never
depend on the seed, so the work per round is the same on every seed.

Each step also states, independently of the program's own suite
tables, the verdict every check must reach and the parameters the
oracle checks need.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

WORKLOADS = ("refute", "exact", "witness")


@dataclass
class Step:
    """One call of ``displacement.cli.main``."""

    name: str
    expect: Dict[str, str]
    params: Dict[str, dict]
    suite: Optional[str] = None
    scenario: Optional[dict] = None
    seed: int = 0
    recheck: bool = False
    path: str = ""

    def argv(self) -> List[str]:
        if self.suite is not None:
            return ["--suite", self.suite, "--seed", str(self.seed)]
        return ["--scenario", self.path]


def _suite(name: str, params: Dict[str, dict], expect: Dict[str, str], **kw) -> Step:
    return Step(name=f"suite-{name}", suite=name, params=params, expect=expect, **kw)


def _generated(
    name: str, ctype: str, params: dict, expect: str, bounds: Optional[dict] = None, **kw
) -> Step:
    """A one-check scenario; ``bounds`` carries the tree radius, which
    the scenario schema accepts only there."""
    check = {"id": name, "type": ctype, "params": params, "expect": expect}
    scenario = {"checks": [check]}
    if bounds:
        scenario["bounds"] = dict(bounds)
    merged = dict(params)
    merged.update(bounds or {})
    return Step(
        name=name, scenario=scenario, params={name: merged}, expect={name: expect}, **kw
    )


def _refute(smoke: bool) -> List[Step]:
    wreath_converse = _suite(
        "wreath-converse",
        {
            "no-z2-witness": {"degree": 3, "orders": [3], "level": 1, "p": 2},
            "z2-witness-exists": {"degree": 3, "orders": [2], "level": 1, "p": 2},
        },
        {"no-z2-witness": "none", "z2-witness-exists": "some"},
        recheck=True,
    )
    if smoke:
        return [
            _generated("cc-search-sym3-m1", "cc-search-b1",
                       {"degree": 3, "max_letters": 1}, "none"),
            wreath_converse,
        ]
    return [
        _suite("binate-tower-no-cc", {"search": {"degree": 3, "max_letters": 2}},
               {"search": "none"}),
        _generated("cc-search-sym4-m1", "cc-search-b1",
                   {"degree": 4, "max_letters": 1}, "none"),
        wreath_converse,
        _suite("torsion-obstruction",
               {"exhaustive-648": {"degree": 3, "orders": [3], "level": 1}},
               {"exhaustive-648": "pass"}),
    ]


def _exact(smoke: bool) -> List[Step]:
    small = [
        _suite("gl-centralizer", {"dimension-and-shape": {}},
               {"dimension-and-shape": "pass"}),
        _suite("gl-z2", {"swap-witness": {}}, {"swap-witness": "pass"}),
    ]
    if smoke:
        return small + [
            _generated("gl-block-20", "gl-block-identity", {"samples": 20}, "pass",
                       recheck=True),
            _generated("pl-tower-depth-3-small", "pl-tower",
                       {"depth": 3, "samples": 10, "displace_p_max": 10,
                        "czc_p_max": 4}, "bounded-pass"),
            _generated("pl-fixed-point-10", "pl-fixed-point", {"samples": 10}, "pass"),
        ]
    return small + [
        _suite("gl-block", {"random-200": {"samples": 200}}, {"random-200": "pass"},
               recheck=True),
        _suite("pl-fixed-point", {"fixed-point-kernel": {"samples": 50}},
               {"fixed-point-kernel": "pass"}),
        _suite("pl-tower", {"depth-3": {"depth": 3, "samples": 200}},
               {"depth-3": "bounded-pass"}),
        _generated("pl-tower-depth-5", "pl-tower",
                   {"depth": 5, "samples": 200, "displace_p_max": 50, "czc_p_max": 10},
                   "bounded-pass"),
    ]


def _witness(smoke: bool) -> List[Step]:
    cznc = {f"level-{i}": "pass" for i in range(1, 5)}
    cznc["order-4-level-1"] = "pass"
    cznc_params = {
        f"level-{i}": {"degree": 3, "orders": [2, 2, 2, 2], "level": i, "p": 2}
        for i in range(1, 5)
    }
    cznc_params["order-4-level-1"] = {"degree": 3, "orders": [4], "level": 1, "p": 2}
    small = [
        _suite("wreath-cznc", cznc_params, cznc),
        _suite("hall-sym", {"n-2-3-4": {"degree": 3, "ns": [2, 3, 4]}},
               {"n-2-3-4": "pass"}),
        _suite("mitosis", {"s-and-ds": {"degree": 3}}, {"s-and-ds": "pass"}),
    ]
    if smoke:
        return small + [
            _generated("britton-engine-50", "britton-engine",
                       {"degree": 3, "samples": 50}, "pass", recheck=True),
            _generated("bass-serre-radius-2", "bass-serre", {"degree": 3}, "pass",
                       bounds={"radius": 2}),
        ]
    return small + [
        _suite("britton", {"engine": {"degree": 3, "samples": 500}}, {"engine": "pass"}),
        _suite("bass-serre", {"fixed-vertices": {"degree": 3, "radius": 3}},
               {"fixed-vertices": "pass"}),
        _generated("mitosis-sym5", "mitosis", {"degree": 5}, "pass"),
        _generated("bass-serre-radius-4", "bass-serre", {"degree": 3}, "pass",
                   bounds={"radius": 4}),
        _generated("britton-engine-3000", "britton-engine",
                   {"degree": 3, "samples": 3000}, "pass", recheck=True),
    ]


_BUILDERS = {"refute": _refute, "exact": _exact, "witness": _witness}


def build(workload: str, seed: int, smoke: bool = False) -> List[Step]:
    """The steps of a workload; the same seed gives the same steps."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    steps = _BUILDERS[workload](smoke)
    for step in steps:
        # scenario seeds must be positive: the CLI treats seed 0 as unset
        step.seed = rng.randrange(1, 2**31)
        if step.scenario is not None:
            step.scenario["seed"] = step.seed
    return steps


def write_scenarios(steps: List[Step], directory: str) -> None:
    """Write each generated scenario to its own file in ``directory``."""
    for step in steps:
        if step.scenario is None:
            continue
        step.path = os.path.join(directory, f"{step.name}.scenario.json")
        with open(step.path, "w") as fh:
            json.dump(step.scenario, fh, indent=2, sort_keys=True)
