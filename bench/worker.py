"""One fresh, single-threaded benchmark process.

Usage: ``python3 bench/worker.py PLAN.json``.  The plan (written by
``run.py``) names the source tree, the mode, the steps and where to
write the result.  Modes:

* ``setup``  -- import ``displacement.cli`` and parse every scenario,
  then stop; ``run.py`` starts several of these to take a median.
* ``plain``  -- also run whole rounds of the steps for the given
  seconds, each step bracketed by reference-loop timings.
* ``light``  -- one round with only the check-type timers, then the
  fixed-operand operation timings.
* ``traced`` -- one round with every tracer wrapper installed.

No oracle library is imported here, so the peak resident size is the
program's own.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refloop import time_reference  # noqa: E402

BRACKET_LOOPS = 5
SAMPLE_PERIOD_S = 0.05


def bracket() -> float:
    """One reference timing between checks: the median of a few
    consecutive loops, so a single preempted loop does not set the unit."""
    return statistics.median(time_reference() for _ in range(BRACKET_LOOPS))


class Sampler:
    """Reference timings taken while a check runs.

    Host CPU throughput swings by a quarter within a second, faster than
    a check lasts, so timings taken only before and after a check do not
    describe it.  An interval timer interrupts the check every
    ``SAMPLE_PERIOD_S``; the handler, which runs in the same thread
    between two bytecodes of the check, times one reference loop.  The
    check's own time (handler time excluded) is split at the samples,
    and each piece is divided by the mean of the reference timings at its
    two ends.
    """

    def __init__(self):
        self.own_s = self.norm = 0.0
        self.samples = 0
        self._last_ref = self._last_t = 0.0

    def _segment(self, now: float, ref: float) -> None:
        piece = now - self._last_t
        self.own_s += piece
        self.norm += piece / ((self._last_ref + ref) / 2)

    def _handler(self, signum, frame) -> None:
        now = time.perf_counter()
        ref = time_reference()
        self._segment(now, ref)
        self.samples += 1
        self._last_ref = ref
        self._last_t = time.perf_counter()

    def start(self, ref_before: float) -> None:
        self.own_s = self.norm = 0.0
        self.samples = 0
        self._last_ref = ref_before
        signal.signal(signal.SIGALRM, self._handler)
        self._last_t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; returns the end time of the check."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return time.perf_counter()

    def finish(self, end: float, ref_after: float) -> None:
        self._segment(end, ref_after)


def setup(plan: dict):
    """Import the CLI and parse every scenario; returns the module and
    the import and total set-up times."""
    src = os.path.abspath(plan["src"])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import displacement.cli as cli
    imported = time.perf_counter()
    from displacement.serialize import parse_scenario

    for path in plan["scenarios"]:
        parse_scenario(path)
    done = time.perf_counter()
    module_file = os.path.abspath(cli.__file__)
    if not module_file.startswith(src + os.sep):
        raise SystemExit(f"displacement imported from {module_file}, not from {src}")
    return cli, imported - start, done - start


def run_rounds(main, plan: dict) -> dict:
    """Closed loop: each check starts when the previous one returned.
    Rounds repeat while another round of the last length still fits in
    the run's seconds; at least one round runs."""
    steps, out_dir = plan["steps"], plan["out_dir"]
    max_rounds = plan.get("max_rounds") or 0
    rounds, mismatches = [], []
    started = time.perf_counter()
    sampler = Sampler()
    while True:
        round_start = time.perf_counter()
        ref_prev = bracket()
        wall = norm = 0.0
        per_step = []
        for step in steps:
            first = os.path.join(out_dir, f"{step['name']}.report.json")
            out = first if not rounds else os.path.join(out_dir, f"{step['name']}.again.json")
            sampler.start(ref_prev)
            try:
                code = main(step["argv"] + ["--out", out])
            finally:
                end = sampler.stop()
            ref_next = bracket()
            sampler.finish(end, ref_next)
            wall += sampler.own_s
            norm += sampler.norm
            per_step.append({"name": step["name"], "code": code, "wall_s": sampler.own_s,
                             "wall_norm": sampler.norm, "samples": sampler.samples})
            ref_prev = ref_next
            if rounds and not _same_bytes(first, out):
                mismatches.append({"name": step["name"], "round": len(rounds) + 1})
        rounds.append({"wall_s": wall, "wall_norm": norm, "steps": per_step,
                       "duration_s": time.perf_counter() - round_start})
        if max_rounds and len(rounds) >= max_rounds:
            break
        elapsed = time.perf_counter() - started
        if elapsed + rounds[-1]["duration_s"] > plan["seconds"]:
            break
    return {"rounds": rounds, "mismatches": mismatches}


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli, import_s, setup_s = setup(plan)
    result = {"import_s": import_s, "setup_s": setup_s}
    mode = plan["mode"]
    if mode != "setup":
        tracer = None
        if mode in ("light", "traced"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install_check_types()
            if mode == "traced":
                tracer.install()
        result.update(run_rounds(cli.main, plan))
        if tracer is not None:
            tracer.uninstall()
            result["stats"] = tracer.snapshot()
        # read before anything else is imported or allocated
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if mode == "light":
            from ops import time_operations

            result["ops"] = time_operations()
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
