"""Run the benchmark over several seeds and record how much it spreads.

    python3 bench/steadiness.py --label first

For each workload and each of the seeds 1-10 it runs `bench/run.py --trace 0` with the
`run_seconds` of BENCHMARK.json, then reports for every end-to-end
metric the median of the values and their spread: the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median.  A spread at or above a metric's bound is flagged,
except for setup_s, whose spread no bound limits: only its median is
compared between sets.  The set is appended to bench/baseline.json under
`--label`, together with the machine it ran on; if the file already
holds a set, each median is also compared with that first set's.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"
SEEDS = list(range(1, 11))


def machine() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model}


def run_one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {"sets": []}
    first = baseline["sets"][0]["workloads"] if baseline["sets"] else {}

    result = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_one(workload, seed, spec["run_seconds"]) for seed in SEEDS]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            flags = []
            if name != "setup_s" and stats["spread"] >= bound:
                flags.append("spread at or above bound")
            earlier = first.get(workload, {}).get("metrics", {}).get(name)
            if earlier:
                stats["change_vs_first"] = stats["median"] / earlier["median"] - 1
                if stats["change_vs_first"] > bound:
                    flags.append("median worse than the first set by more than the bound")
            stats["flags"] = flags
            steady = steady and not flags
            entry["metrics"][name] = stats
            print(
                f"{workload:13s} {name:13s} median {stats['median']:12.6g} "
                f"spread {stats['spread']:.4f} (bound {bound})"
                + (f" vs first {stats['change_vs_first']:+.4f}" if earlier else "")
                + ("  " + "; ".join(flags) if flags else "")
            )
        print(
            f"{workload:13s} correct={entry['correct']} "
            f"ops_failed={entry['failed']}/{entry['attempted']}"
        )
        steady = steady and entry["correct"] and entry["failed"] == 0
        result["workloads"][workload] = entry
    baseline["sets"].append(result)
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
