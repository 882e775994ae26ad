"""Benchmark for the ultrapoly CLI.

    python3 bench/run.py --workload padic-expand --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  The program under test is the
checkout's own `src/ultrapoly`, started as `python -m ultrapoly` with
`PYTHONPATH=src`, one invocation at a time (a closed loop with one
client).  Work files go to `.bench_work/` in the checkout.

Set-up generates the seeded inputs and builds the read workload's
bundle.  It runs SETUP_REPEATS times; `setup_s` is the median.  Then,
untimed, one reference round runs, the workload's independent check is
applied to it and its output digests are recorded.  Then rounds repeat
until `--seconds` have passed:

- `--trace 0` spawns the CLI and reports the end-to-end metrics, each
  the median over rounds of one round's value: `wall_s` (spawn to exit),
  `cpu_s` (the child's user + sys from its rusage), `peak_rss_mb` (the
  child's max RSS), `output_bytes` (bytes the round writes).
- `--trace 1` runs the traced in-process pass (see tracing.py) and
  reports the per-layer metrics; spans go to
  `.bench_work/<workload>/spans.jsonl`.

Times are in reference seconds: raw seconds scaled by the machine's
speed, measured next to each timed unit (see speed.py).

Every invocation goes through the gate in checks.py; `failed` counts
those it rejects and `attempted` every CLI invocation, set-up included.
Together they are the ops_failed measure: failed ops over attempted ops.
The last line of stdout is the JSON result.

Other modes:
    --report            print every end-to-end and per-layer metric with its unit
    --selftest          inject each workload's fault and confirm the gate counts it
    --record-digests    store the default seed's output digests in digests.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import speed
import tracing
from launcher import Launcher
from workloads import WORKLOADS, Prepared, Step

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
SETUP_UNIT_S = 0.25  # shortest timed batch of set-ups
MIN_ROUNDS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
    "setup_s": "s",
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output_bytes: int


class Runner:
    """Starts CLI invocations and counts the attempted and failed ones."""

    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, step: Step, expected: list[dict]) -> Invocation:
        """Run one CLI invocation, judge it and count it.

        `expected` lists digest sets the step's outputs must all equal (the
        set-up reference and, for the default seed, the recorded digests).
        """
        checks.clear(step.out_dir)
        step.out_dir.mkdir(parents=True, exist_ok=True)
        log_dir = step.out_dir.parent / f".{step.out_dir.name}.log"
        log_dir.mkdir(parents=True, exist_ok=True)
        usage = self.launcher.run(
            [sys.executable, "-m", "ultrapoly", *step.argv],
            stdout=str(log_dir / "stdout"),
            stderr=str(log_dir / "stderr"),
            env=_child_env(),
            cwd=str(ROOT),
        )
        stdout = (log_dir / "stdout").read_text(errors="replace")
        stderr = (log_dir / "stderr").read_text(errors="replace")
        failure = checks.gate(step, usage["code"], stdout, stderr)
        if failure is None and any(checks.digests(step.out_dir) != want for want in expected):
            failure = "output digests differ from the reference"
        self.attempted += 1
        if failure:
            self.failures.append(f"{step.kind}: {failure}")
        return Invocation(
            wall_s=usage["wall_s"],
            cpu_s=usage["cpu_s"],
            peak_rss_mb=usage["maxrss_kb"] / 1024,
            output_bytes=checks.total_bytes(step.out_dir),
        )


def _child_env() -> dict[str, str]:
    env = speed.clean_env()
    env["PYTHONPATH"] = str(SRC)
    return env


def _recorded(workload: str, seed: int) -> list[dict] | None:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def set_up(workload: str, seed: int, runner: Runner) -> tuple[Prepared, list[dict]]:
    """Generate the inputs and run the set-up builds; returns their digests."""
    work = WORK / workload
    checks.clear(work)
    prepared = WORKLOADS[workload](seed, work)
    built = []
    for step in prepared.builds:
        runner.spawn(step, [])
        built.append(checks.digests(step.out_dir))
    return prepared, built


def reference_round(prepared: Prepared, built: list[dict], runner: Runner):
    """One round after set-up and its independent check; returns digests and problems."""
    failed_before = len(runner.failures)
    reference = list(built)
    for step in prepared.steps:
        runner.spawn(step, [])
        reference.append(checks.digests(step.out_dir))
    if len(runner.failures) > failed_before:
        return reference, ["reference round failed; independent check skipped"]
    return reference, prepared.check()


def repeated_set_up(workload: str, seed: int, runner: Runner, repeats: int = SETUP_REPEATS):
    """Set up `repeats` times, then run one reference round untimed.

    Returns the prepared workload, the reference digests (the set-up
    builds followed by the round's steps, in order), the problems found
    and `setup_s`: the median of the set-up times, which cover input
    generation and the builds only.  A set-up shorter than SETUP_UNIT_S
    is repeated back to back until that much time has passed, and the
    batch's mean is one timed value.  Each set-up must reproduce the
    first one's bytes.  The reference round and the independent check run
    after the last set-up, outside the timed region.
    """
    times, problems = [], []
    first = None
    scale = speed.Scale()
    for _ in range(repeats):
        count = 0
        t0 = time.perf_counter()
        while count == 0 or time.perf_counter() - t0 < SETUP_UNIT_S:
            prepared, built = set_up(workload, seed, runner)
            count += 1
            if first is None:
                first = built
            elif built != first:
                problems.append("set-up outputs differ between repeats")
        raw = time.perf_counter() - t0
        times.append(raw / count * scale.next(raw, count * len(prepared.builds)))
    reference, found = reference_round(prepared, first, runner)
    problems += found
    recorded = _recorded(workload, seed)
    if recorded is not None and recorded != reference:
        problems.append("reference outputs differ from the digests recorded for the default seed")
    return prepared, reference, problems, statistics.median(times)


def measure(prepared: Prepared, reference: list[dict], recorded, seconds: float, runner: Runner):
    """Closed-loop rounds for `seconds`; medians of the per-round values."""
    steps_ref = reference[len(prepared.builds) :]
    steps_rec = recorded[len(prepared.builds) :] if recorded else [None] * len(steps_ref)
    rounds = []
    scale = speed.Scale()
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        invs = []
        for step, ref, rec in zip(prepared.steps, steps_ref, steps_rec):
            invs.append(runner.spawn(step, [ref] + ([rec] if rec else [])))
        wall = sum(i.wall_s for i in invs)
        factor = scale.next(wall, len(invs))
        rounds.append(
            {
                "wall_s": wall * factor,
                "cpu_s": sum(i.cpu_s for i in invs) * factor,
                "peak_rss_mb": max(i.peak_rss_mb for i in invs),
                "output_bytes": sum(i.output_bytes for i in invs),
            }
        )
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def _metrics_json(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(
    launcher: Launcher, workload: str, seed: int, seconds: float, traced: bool
) -> dict:
    runner = Runner(launcher)
    # the traced pass reports no set-up time, so one set-up is enough
    repeats = 1 if traced else SETUP_REPEATS
    prepared, reference, problems, setup_s = repeated_set_up(workload, seed, runner, repeats)
    if traced:
        steps_ref = reference[len(prepared.builds) :]
        values, attempted, failures = tracing.traced_pass(
            prepared, steps_ref, workload, seed, seconds, WORK / workload / "spans.jsonl"
        )
        runner.attempted += attempted
        runner.failures += failures
        metrics = _metrics_json(values, tracing.metric_units())
    else:
        values = measure(prepared, reference, _recorded(workload, seed), seconds, runner)
        values["setup_s"] = setup_s
        metrics = _metrics_json(values, END_TO_END_UNITS)
    for line in problems + runner.failures:
        print(f"[{workload}] {line}", file=sys.stderr)
    return {
        "correct": not problems and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def selftest(launcher: Launcher) -> bool:
    """Each fault, injected after the digests are recorded, must be counted."""
    ok = True
    for workload in WORKLOADS:
        runner = Runner(launcher)
        prepared, reference, problems, _ = repeated_set_up(workload, DEFAULT_SEED, runner, 1)
        recorded = _recorded(workload, DEFAULT_SEED)
        measure(prepared, reference, recorded, 0, runner)
        clean = len(runner.failures)
        prepared.inject_fault()
        measure(prepared, reference, recorded, 0, runner)
        faulty = len(runner.failures) - clean
        passed = not problems and clean == 0 and faulty > 0
        ok = ok and passed
        print(
            json.dumps(
                {
                    "workload": workload,
                    "clean_failed": clean,
                    "fault_failed": faulty,
                    "fault_rounds": MIN_ROUNDS,
                    "passed": passed,
                }
            )
        )
    return ok


def record_digests(launcher: Launcher) -> None:
    table = {}
    for workload in WORKLOADS:
        runner = Runner(launcher)
        prepared, built = set_up(workload, DEFAULT_SEED, runner)
        reference, problems = reference_round(prepared, built, runner)
        if problems or runner.failures:
            raise SystemExit(f"{workload}: set-up failed: {problems + runner.failures}")
        table[workload] = reference
    DIGESTS.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")


def report(launcher: Launcher, workloads: list[str], seed: int, seconds: float) -> None:
    for workload in workloads:
        for traced in (False, True):
            result = run_workload(launcher, workload, seed, seconds, traced)
            print(
                f"# {workload} seed={seed} trace={int(traced)} correct={result['correct']} "
                f"ops_failed={result['failed']}/{result['attempted']}"
            )
            for name, metric in result["metrics"].items():
                print(f"{workload:13s} {name:45s} {metric['value']:>14.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not (SRC / "ultrapoly" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'ultrapoly'}", file=sys.stderr)
        return 2
    if args.workload is None and not (args.selftest or args.record_digests or args.report):
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    with Launcher() as launcher:
        if args.selftest:
            return 0 if selftest(launcher) else 1
        if args.record_digests:
            record_digests(launcher)
            return 0
        if args.report:
            workloads = [args.workload] if args.workload else list(WORKLOADS)
            report(launcher, workloads, args.seed, args.seconds)
            return 0
        result = run_workload(launcher, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0

if __name__ == "__main__":
    sys.exit(main())
