"""Run every workload over several seeds and write one JSON record of the
results, with the machine they came from.

    python3 perfbench/record.py --out perfbench/baseline.json --seeds 10

Seeds run from 1 to --seeds.  For each workload the record holds every
run's end-to-end metrics, and per metric the median and the spread: the
distance between the first and the third quartile (statistics.quantiles,
n=4) as a share of the median.  One traced run per workload adds the
per-layer metrics.  Runs go one at a time, each in its own process, with
--seconds taken from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing: {proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["seed"] = seed
    return result


def summarize(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": median,
                     "spread": (q[2] - q[0]) / median if median else None}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    seeds = range(1, args.seeds + 1)
    record = {"recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              "machine": machine(), "run_seconds": spec["run_seconds"],
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            ok &= result["correct"] and result["exit_code"] == 0
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        ok &= traced["correct"] and traced["exit_code"] == 0
        record["workloads"][workload] = {
            "summary": summarize(runs), "runs": runs,
            "traced": {"seed": seeds[0], "metrics": traced["metrics"]}}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
