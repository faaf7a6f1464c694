"""Benchmark of g2schubert: end-to-end and per-layer timings, with every
result checked exactly.

    python3 perfbench/run.py --workload reduce --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # all three, one process each

Run it from the root of a checkout; it imports the package from src/ of
that checkout and nothing else.  Workloads: verify, reduce, divdiff (see
README.md).  Each run is one closed-loop client in one process.  Set-up is
timed SETUP_PROCESSES times, each in a fresh interpreter from its start
until it is ready for the first timed operation, and reported as the
median.  The timed part is then repeated in passes, each starting from cold
caches, while the timed seconds left of --seconds allow another pass; there
is always at least one pass.  --seconds defaults to run_seconds of
BENCHMARK.json.  Every reported time is converted to the reference host
speed that bench_speed.py measures against; the raw wall time is printed
beside it.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 the run makes two untraced passes and
one traced pass and reports the per-layer metrics instead.  The exit code is 0
only if every operation succeeded and every exact and golden check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROCESSES = 7
SETUP_PROBE_PERIOD_S = 0.01
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
RUN_TIMEOUT_S = 170


def use_checkout_source():
    """Import g2schubert from this checkout's src/ only; stop if it is not
    there, so that a bare copy of the benchmark never reports a result."""
    init = SRC / "g2schubert" / "__init__.py"
    if not init.is_file():
        print(f"error: no program source at {init.relative_to(ROOT)}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


@dataclass
class PassResult:
    times: List[float] = field(default_factory=list)  # one per op
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    renders: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(ops, check: bool, reference: Optional[List[str]] = None,
             tracer=None, probe=None) -> PassResult:
    """Time each op; check (first pass) or compare with the first pass's
    output (later passes) outside the timed interval.  An op that raises is
    one failed op, and the pass goes on.  Time spent in the speed probe's
    handler is left out of the op's time."""
    res = PassResult()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = i
            tracer.active = True
        probed = probe.spent if probe is not None else 0.0
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # one failed op must not end the run
            end = perf_counter()
            error = f"{type(exc).__name__}: {exc}"
            res.failures.append(f"{op.name}: {error}")
            render = f"error: {error}"
        else:
            end = perf_counter()
            if tracer is not None:
                tracer.active = False
            try:
                render = op.render(result)
                problem = op.check(result) if check else None
            except Exception as exc:  # a check that raises is a failed check
                render = problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is None and reference is not None and render != reference[i]:
                problem = "output differs from the first pass"
            if problem is not None:
                res.failures.append(f"{op.name}: {problem}")
        if tracer is not None:
            tracer.active = False
        if probe is not None:
            probed = probe.spent - probed
        res.times.append(end - start - probed)
        res.intervals.append((start, end))
        res.renders.append(render)
    return res


def tail_level(per_pass: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of one pass's
    samples beyond it; 100 (the maximum) when a pass has too few."""
    if per_pass <= TAIL_BEYOND:
        return 100
    return 100 * (per_pass - TAIL_BEYOND) // per_pass


def percentile(values: List[float], level: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def set_up(workload: str, seed: int):
    """Everything a run needs before its first timed operation."""
    import bench_golden
    import bench_workloads as bw

    prog = bw.Program()
    ops = bw.make_ops(workload, prog, bw.make_inputs(workload, seed))
    return prog, ops, bench_golden.load()


def cold_setup(workload: str, seed: int) -> float:
    """Reference time of one set-up: from starting a fresh interpreter until
    it has set up and is ready for the first timed operation.  The new
    process samples the host's speed while it sets up, and reports the mean
    speed and its probe's own time on its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        end = perf_counter()
        proc.stdout.read()
    words = line.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"set-up failed (exit {proc.returncode})")
    speed, spent = float(words[1]), float(words[2])
    return (end - start - spent) * speed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    import bench_golden
    import bench_speed
    import bench_trace

    passes: List[PassResult] = []
    tracer = None
    if trace:
        prog, ops, golden = set_up(workload, seed)
        # a checked pass, then the untraced and the traced pass compared;
        # the first pass of a process runs slower, so it is not the reference
        for _ in range(2):
            prog.reset_caches()
            passes.append(run_pass(ops, check=not passes,
                                   reference=passes[0].renders if passes else None))
        tracer = bench_trace.Tracer()
        tracer.measure_span_cost()
        bench_trace.install(tracer, prog)
        prog.reset_caches()
        passes.append(run_pass(ops, check=False, reference=passes[0].renders,
                               tracer=tracer))
        family_info = prog.family_cache.cache_info()
        tracer.restore()
    else:
        setup_times = [cold_setup(workload, seed)
                       for _ in range(SETUP_PROCESSES)]
        prog, ops, golden = set_up(workload, seed)
        probe = bench_speed.SpeedProbe()
        probe.start()
        try:
            measured = 0.0
            while True:
                prog.reset_caches()
                passes.append(run_pass(
                    ops, check=not passes, probe=probe,
                    reference=passes[0].renders if passes else None))
                measured += passes[-1].wall
                if measured + passes[-1].wall > seconds:
                    break
        finally:
            probe.stop()
    rss = peak_rss_mb()

    goldens = bench_golden.compare(prog, workload, seed, passes[0].renders, golden)
    failures = [f for p in passes for f in p.failures]
    failures += [f"golden {name} differs" for name, ok in goldens.items() if not ok]
    attempted = sum(len(ops) for _ in passes) + len(goldens)
    notes = [f"{len(passes)} pass(es) of {len(ops)} ops"]

    if trace:
        traced, untraced = passes[2].wall, passes[1].wall
        metrics = bench_trace.layer_metrics(tracer, family_info, traced, untraced)
        metrics["ops.failed_ratio"] = metric(len(failures) / attempted, "ratio")
        if tracer.self_sum() > traced:
            failures.append("self times add up to more than the traced wall time")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}"
                     f" ({tracer.dropped} beyond the cap only counted)")
    else:
        # every time at the reference host speed (bench_speed.py)
        times = [[t * probe.factor(*span) for t, span in zip(p.times, p.intervals)]
                 for p in passes]
        sampled = [i for i, op in enumerate(ops) if op.sample]
        samples = [t[i] for t in times for i in sampled]
        level = tail_level(len(sampled))
        # the fixed work, with each op timed by its median over the passes,
        # so that a stall in one pass does not count
        wall = sum(statistics.median(t[i] for t in times)
                   for i in range(len(ops)))
        raw = sum(statistics.median(p.times[i] for p in passes)
                  for i in range(len(ops)))
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(wall, "s"),
            "op_p50_ms": metric(1000 * statistics.median(samples), "ms"),
            "op_tail_ms": metric(1000 * percentile(samples, level), "ms"),
            "peak_rss_mb": metric(rss, "MB"),
        }
        beyond = len(samples) - math.ceil(level / 100 * len(samples))
        notes.append(f"op_tail_ms is p{level} of {len(samples)} samples "
                     f"({beyond} beyond it)")
        notes.append(f"host speed {wall / raw:.3f} of the reference over "
                     f"{len(probe.speed)} samples; raw wall_s = {raw:.6g} s")
    notes.append(f"failed_ratio = {len(failures)}/{attempted}")
    return {"workload": workload, "correct": not failures,
            "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "notes": notes, "failures": failures}


def report(result: Dict):
    for name, m in result["metrics"].items():
        print(f"{result['workload']} {name} = {m['value']:.6g} {m['unit']}")
    for note in result["notes"]:
        print(f"{result['workload']} note: {note}")
    for failure in result["failures"]:
        print(f"{result['workload']} FAILED: {failure}")


def run_all(args) -> int:
    import bench_workloads as bw

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in bw.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def default_seconds() -> float:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("verify", "reduce", "divdiff", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.setup_only:
        import bench_speed

        probe = bench_speed.SpeedProbe()
        probe.start(SETUP_PROBE_PERIOD_S)
        set_up(args.workload, args.seed)
        probe.stop()
        print(f"ready {probe.mean()!r} {probe.spent!r}", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    report(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
