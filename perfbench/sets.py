"""Run a set of benchmark runs and summarise them; compare two sets.

    python3 perfbench/sets.py                       # every workload at seeds 123 and 7
    python3 perfbench/sets.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced
    python3 perfbench/sets.py --compare out/sets-A.json out/sets-B.json

Each run is a fresh `python3 perfbench/run.py` process, one after the
other. The summary prints every end-to-end metric of every workload by
name and unit, with the median, the quartiles and the spread (quartile
distance over the median) against the metric's bound, and the error rate
(failed over attempted operations). `--traced` adds one traced run per
workload at the first seed and reports its coverage, the missing wrap
targets and the measured tracing overhead against the untraced run at the
same seed. The set, with the machine facts, is written to
perfbench/out/sets-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import OUT, machine_facts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["process_s"] = elapsed
    result["log"] = [line for line in lines[:-1] if line.startswith("# ")]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def summarise(runs: dict) -> None:
    for workload, by_seed in runs.items():
        print(f"\n{workload}: {len(by_seed)} runs, seeds {' '.join(by_seed)}")
        for name, spec in BOUNDS.items():
            values = [r["metrics"][name]["value"] for r in by_seed.values()]
            med, q1, q3, sp = spread(values)
            verdict = "ok" if sp <= spec["bound"] / 3 else (
                "within bound" if sp <= spec["bound"] else "SPREAD ABOVE BOUND")
            print(f"  {name:<14} {med:>11.4f} {spec['unit']:<4} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {sp:.3f} (bound {spec['bound']}) {verdict}")
        attempted = sum(r["attempted"] for r in by_seed.values())
        failed = sum(r["failed"] for r in by_seed.values())
        print(f"  {'error_rate':<14} {failed / attempted:>11.4f} ratio "
              f"({failed} of {attempted} operations failed)")
        longest = max(r["process_s"] for r in by_seed.values())
        print(f"  longest run {longest:.1f} s")


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)["runs"]
    with open(path_b) as fh:
        b = json.load(fh)["runs"]
    worse = 0
    for workload in a:
        for name, spec in BOUNDS.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload].values())
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload].values())
            change = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            verdict = "worse than bound" if change > spec["bound"] else "ok"
            worse += change > spec["bound"]
            print(f"{workload:<10} {name:<14} {ma:.4f} -> {mb:.4f} {spec['unit']:<4} "
                  f"worse by {change:+.3f} (bound {spec['bound']}) {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[123, 7])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    runs: dict = {w: {} for w in args.workloads}
    traced: dict = {}
    for workload in args.workloads:
        for seed in args.seeds:
            r = run_once(workload, seed, args.seconds, 0)
            runs[workload][str(seed)] = r
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4f}" for k, m in r["metrics"].items())
                + f" failed={r['failed']}/{r['attempted']} ({r['process_s']:.1f} s)",
                flush=True)
        if args.traced:
            seed = args.seeds[0]
            t = run_once(workload, seed, args.seconds, 1)
            m = t["metrics"]
            untraced = runs[workload][str(seed)]["metrics"]["wall_s"]["value"]
            traced[workload] = t
            print(f"{workload} traced seed {seed}: coverage {m['trace.coverage']['value']:.4f}, "
                  f"overhead {m['trace.wall_s']['value'] / untraced - 1:+.3f} of wall_s "
                  f"(instrumentation estimate {m['trace.overhead_s']['value']:.3f} s), "
                  f"missing targets {m['trace.missing_targets']['value']:.0f}, "
                  f"failed={t['failed']}/{t['attempted']}", flush=True)
    summarise(runs)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, time.strftime("sets-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"machine": facts, "seconds": args.seconds, "runs": runs,
                   "traced": traced}, fh, indent=1)
    print(f"\nwrote {path}")
    failed = sum(r["failed"] for by_seed in runs.values() for r in by_seed.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
