"""Benchmark of the ``displacement`` verifier: one command, one workload.

    python3 bench/run.py --workload refute --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs installing.  Each run

1. generates the workload's scenario files from ``--seed``;
2. times set-up (import of ``displacement.cli`` plus parsing the
   scenarios) in several fresh processes and keeps the median;
3. runs the workload in one fresh, single-threaded worker process
   through ``displacement.cli.main``, as a closed loop of whole rounds
   for ``--seconds`` seconds, each check bracketed by the reference loop
   of ``refloop.py``;
4. checks every report: exit codes, verdicts, byte-identical rounds,
   byte-identical reports from a second process, and the oracle checks
   of ``oracles.py`` (sympy and closed forms);
5. prints, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``wall_norm``,
``setup_s``, ``peak_rss_mb``).  ``--trace 1`` runs one untraced round
and one traced round and reports the per-layer metrics, including the
tracing overhead.  ``--smoke`` runs every workload at a tiny size in
both modes, to confirm that the harness still works.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 6  # fresh set-up processes besides the worker itself
TIME_LIMIT_S = 170.0  # a run must end within 180 s
ORACLE_BLOCK_SAMPLES = 20

END_TO_END_UNITS = {"wall_s": "s", "wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

CHECK_TYPES = (
    "wreath-zn-witness", "wreath-brute-search", "wreath-torsion-exhaustive",
    "sym-zn-witness", "gl-block-identity", "gl-centralizer", "gl-z2", "pl-tower",
    "pl-fixed-point", "britton-engine", "bass-serre", "cc-search-b1", "mitosis",
    "hall-sym",
)
CHECKERS = ("check_cc", "check_cznc", "check_czc", "check_ccc", "check_binate",
            "check_mitotic", "check_dissipator", "check_M", "verify_certificate")
OPS = ("op.perm_mul_deg9.us", "op.wreath_mul_level2.us", "op.matrix_mul_4x4.us",
       "op.matrix_inv_4x4.us", "op.pl_compose_depth3.us", "op.word_mul.us",
       "op.normal_form.us")


class BenchError(RuntimeError):
    """The benchmark could not run to its end."""


def _worker(plan: dict, run_dir: str, tag: str, deadline: float, hash_seed: str) -> dict:
    """Run one worker process to completion and return its result."""
    plan = dict(plan, result=os.path.join(run_dir, f"{tag}.result.json"))
    plan_path = os.path.join(run_dir, f"{tag}.plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {tag} process")
    try:
        proc = subprocess.run([sys.executable, WORKER, plan_path], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} process did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(plan["result"]) as fh:
        return json.load(fh)


def _plan(steps, run_dir: str, tag: str, mode: str, seconds: float, max_rounds: int) -> dict:
    out_dir = os.path.join(run_dir, tag)
    os.makedirs(out_dir)
    return {
        "src": SRC, "mode": mode, "seconds": seconds, "max_rounds": max_rounds,
        "out_dir": out_dir,
        "scenarios": [s.path for s in steps if s.scenario is not None],
        "steps": [{"name": s.name, "argv": s.argv()} for s in steps],
    }


def _load_reports(steps, out_dir: str) -> Dict[str, dict]:
    reports = {}
    for step in steps:
        with open(os.path.join(out_dir, f"{step.name}.report.json"), "rb") as fh:
            raw = fh.read()
        reports[step.name] = {"raw": raw, "json": json.loads(raw)}
    return reports


def _check_outputs(steps, result: dict, reports: Dict[str, dict], tag: str):
    """Count attempted and failed checks over every round; return them
    with a list of problems."""
    attempted = failed = 0
    problems: List[str] = []
    if result["mismatches"]:
        problems.append(f"{tag}: reports changed between rounds: {result['mismatches']}")
    bad_verdicts = {}
    for step in steps:
        report = reports[step.name]["json"]
        got = {c["id"]: c["verdict"] for c in report.get("checks", [])}
        if sorted(got) != sorted(step.expect):
            problems.append(f"{tag}/{step.name}: checks {sorted(got)}, "
                            f"expected {sorted(step.expect)}")
        bad = [cid for cid, verdict in step.expect.items() if got.get(cid) != verdict]
        for cid in bad:
            problems.append(f"{tag}/{step.name}/{cid}: verdict {got.get(cid)!r}, "
                            f"expected {step.expect[cid]!r}")
        bad_verdicts[step.name] = len(bad)
    for number, rnd in enumerate(result["rounds"], 1):
        for step, run in zip(steps, rnd["steps"]):
            attempted += len(step.expect)
            mismatched = {"name": step.name, "round": number} in result["mismatches"]
            if run["code"] != 0 or mismatched:
                failed += len(step.expect)
                if run["code"] != 0:
                    problems.append(f"{tag}/{step.name}: exit code {run['code']} "
                                    f"in round {number}")
            else:
                failed += bad_verdicts[step.name]
    return attempted, failed, problems


def _determinism(steps, run_dir: str, reports: Dict[str, dict], deadline: float) -> List[str]:
    """Re-run the recheck steps in another process, with another hash
    seed, and require byte-identical reports."""
    again = [s for s in steps if s.recheck]
    plan = _plan(again, run_dir, "recheck", "plain", 0.0, 1)
    result = _worker(plan, run_dir, "recheck", deadline, hash_seed="random")
    problems = [f"recheck/{r['name']}: exit code {r['code']}"
                for r in result["rounds"][0]["steps"] if r["code"] != 0]
    second = _load_reports(again, plan["out_dir"])
    for step in again:
        if second[step.name]["raw"] != reports[step.name]["raw"]:
            problems.append(f"{step.name}: report differs between two processes")
    return problems


def _verify(steps, run_dir, worker_results, seed, deadline) -> dict:
    """Every correctness check of a run; returns attempted, failed and
    the problems found."""
    attempted = failed = 0
    problems: List[str] = []
    first = None
    for tag, result in worker_results.items():
        reports = _load_reports(steps, os.path.join(run_dir, tag))
        a, f, p = _check_outputs(steps, result, reports, tag)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if first is None:
            first = reports
        else:
            problems += [f"{tag}/{s.name}: report differs from the untraced run"
                         for s in steps if reports[s.name]["raw"] != first[s.name]["raw"]]
    problems += _determinism(steps, run_dir, first, deadline)
    sys.path.insert(0, SRC)
    import oracles  # sympy: only after every metric is taken

    parsed = {name: r["json"] for name, r in first.items()}
    problems += oracles.verify(steps, parsed, seed, ORACLE_BLOCK_SAMPLES)
    return {"attempted": attempted, "failed": failed, "problems": problems}


def _end_to_end(steps, run_dir, seconds, max_rounds, deadline) -> tuple:
    setup = [_worker(_plan(steps, run_dir, f"setup{i}", "setup", 0.0, 1), run_dir,
                     f"setup{i}", deadline, hash_seed="0")["setup_s"]
             for i in range(SETUP_PROBES)]
    result = _worker(_plan(steps, run_dir, "timed", "plain", seconds, max_rounds),
                     run_dir, "timed", deadline, hash_seed="0")
    setup.append(result["setup_s"])
    rounds = result["rounds"]
    values = {
        # host speed changes in steps every ten seconds or so; the mean
        # over the whole run spans several of them, a median picks one
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "wall_norm": statistics.median(r["wall_norm"] for r in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {"rounds": rounds, "setup_samples": setup}
    return metrics, {"timed": result}, detail


def per_layer_names() -> List[str]:
    names = [
        "hnn.search_candidates", "hnn.word_mul.calls", "hnn.word_inv.calls",
        "hnn.britton_reduce.self_s", "hnn.search.candidates_per_s",
        "hnn.presentation_build.self_s", "hnn.normal_form.calls",
        "hnn.normal_form.self_s", "hnn.tree_ball.self_s", "hnn.fixes_vertex.calls",
        "wreath.mul.calls", "wreath.mul.self_s", "wreath.enumerate_level.self_s",
        "wreath.search.candidates_per_s", "perms.mul.calls", "perms.mul.self_s",
        "perms.construct.calls", "matrices.rref.calls", "matrices.mul.self_s",
        "matrices.inverse.self_s", "plmaps.compose.calls", "plmaps.compose.self_s",
        "plmaps.inverse.calls", "plmaps.evaluate.calls",
        "core.enumerate_subgroup.self_s", "core.subgroups_commute.calls",
    ]
    names += [f"checkers.{c}.calls" for c in CHECKERS]
    names += ["serialize.parse_scenario.self_s", "cli.import_s",
              "serialize.dump_report.self_s"]
    names += [f"suites.{t}.wall_s" for t in CHECK_TYPES]
    names += list(OPS)
    names += ["trace.overhead_s", "trace.overhead_norm"]
    return names


def _unit(name: str) -> str:
    if name.endswith("_norm"):
        return "ref"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us"):
        return "us"
    return "count"


def _per_layer(steps, run_dir, deadline) -> tuple:
    light = _worker(_plan(steps, run_dir, "light", "light", 0.0, 1), run_dir, "light",
                    deadline, hash_seed="0")
    traced = _worker(_plan(steps, run_dir, "traced", "traced", 0.0, 1), run_dir,
                     "traced", deadline, hash_seed="0")
    S, L = traced["stats"], light["stats"]

    def stat(table, name, field):
        return table.get(name, {}).get(field, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = {
        "hnn.search_candidates": stat(S, "hnn.iter_reduced_words", "yields"),
        "hnn.search.candidates_per_s": rate(
            stat(S, "hnn.iter_reduced_words", "yields"),
            stat(L, "suites.cc-search-b1", "total_s")),
        "wreath.search.candidates_per_s": rate(
            stat(S, "wreath.enumerate_level", "yields"),
            stat(L, "suites.wreath-brute-search", "total_s")
            + stat(L, "suites.wreath-torsion-exhaustive", "total_s")),
        "cli.import_s": light["import_s"],
        "trace.overhead_s": traced["rounds"][0]["wall_s"] - light["rounds"][0]["wall_s"],
        # the same difference in ref units, free of host speed swings
        "trace.overhead_norm": (traced["rounds"][0]["wall_norm"]
                                - light["rounds"][0]["wall_norm"]),
    }
    for name in per_layer_names():
        if name in values:
            continue
        if name.startswith("suites."):
            values[name] = stat(L, name[: -len(".wall_s")], "total_s")
        elif name.startswith("op."):
            values[name] = light["ops"][name]
        elif name.endswith(".calls"):
            values[name] = stat(S, name[: -len(".calls")], "calls")
        elif name.endswith(".self_s"):
            values[name] = stat(S, name[: -len(".self_s")], "self_s")
        else:
            raise BenchError(f"no source for per-layer metric {name}")
    metrics = {k: {"value": values[k], "unit": _unit(k)} for k in per_layer_names()}
    detail = {
        "traced_stats": S, "check_type_stats": L, "ops": light["ops"],
        "untraced_wall_s": light["rounds"][0]["wall_s"],
        "traced_wall_s": traced["rounds"][0]["wall_s"],
        "notes": ["displacement.freewords is used by no suite and so goes unmeasured"],
    }
    return metrics, {"light": light, "traced": traced}, detail


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    if not os.path.isfile(os.path.join(SRC, "displacement", "cli.py")):
        raise BenchError(f"no program source at {SRC}; run from the root of a checkout")
    deadline = time.monotonic() + TIME_LIMIT_S
    steps = workloads.build(workload, seed, smoke)
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        workloads.write_scenarios(steps, run_dir)
        max_rounds = 1 if smoke else 0
        if trace:
            metrics, results, detail = _per_layer(steps, run_dir, deadline)
        else:
            metrics, results, detail = _end_to_end(steps, run_dir, seconds, max_rounds,
                                                   deadline)
        checked = _verify(steps, run_dir, results, seed, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = {
        "correct": checked["failed"] == 0 and not checked["problems"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": metrics,
    }
    record = dict(out, workload=workload, seed=seed, seconds=seconds, smoke=smoke,
                  problems=checked["problems"], python=sys.version.split()[0],
                  cpus=os.cpu_count(), detail=detail)
    name = f"{'trace' if trace else 'result'}-{workload}{'-smoke' if smoke else ''}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in checked["problems"]:
        sys.stderr.write(f"problem: {problem}\n")
    return out


def _smoke() -> int:
    """Every workload at a tiny size, untraced and traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    want = {True: {m["name"] for m in declared["per_layer"]},
            False: {m["name"] for m in declared["end_to_end"]}}
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            started = time.monotonic()
            out = run_workload(workload, 1, 1.0, trace, smoke=True)
            names_ok = set(out["metrics"]) == want[trace]
            ok &= out["correct"] and names_ok
            sys.stderr.write(
                f"smoke {workload} trace={int(trace)}: correct={out['correct']} "
                f"attempted={out['attempted']} failed={out['failed']} "
                f"metric names match BENCHMARK.json={names_ok} "
                f"({time.monotonic() - started:.1f} s)\n")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, in both modes")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return _smoke()
        if args.workload is None:
            parser.error("--workload is required")
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
