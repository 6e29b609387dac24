"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload reproduce --seed 123 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's `src/` and driven only through `t2vad.cli.main(argv)`, in this
process. Set-up is repeated `setup_reps` times; then the workload's timed
iteration repeats until `--seconds` have passed (at least once). Outputs
are checked after every iteration.

With `--trace 0` nothing is wrapped and the metrics are the end-to-end
ones. With `--trace 1` the package's public functions and methods are
wrapped (see layers.py) and the metrics are the per-layer ones. Human-readable lines start with '#'; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layers import PER_LAYER, TARGETS
from spans import Tracer, span_cost_s
from workloads import FULL, WORKLOADS, Caller, Scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = {   # name -> unit
    "wall_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

IMPORT_PROBE = f"import sys; sys.path.insert(0, {SRC!r}); import t2vad.cli"


def import_cli():
    """`t2vad.cli.main` from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import t2vad.cli
    if not os.path.abspath(t2vad.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"t2vad imported from {t2vad.cli.__file__}, not {SRC}")
    return t2vad.cli.main


def fresh_import() -> bool:
    """Import the package in a new interpreter, as every CLI invocation does."""
    return subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          timeout=60).returncode == 0


def machine_facts() -> dict:
    import numpy
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = _blas_threads()
    return facts


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line.lower())
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, main,
        scale: Scale = FULL) -> dict:
    t0 = time.perf_counter()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(TARGETS)
    wl = WORKLOADS[workload](scale, seed)
    s = Caller(main, tracer)
    setup_s, walls, rates = [], [], []
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    cwd = os.getcwd()
    try:
        for rep in range(wl.setup_reps):
            os.chdir(work)
            os.mkdir(f"setup{rep}")
            os.chdir(f"setup{rep}")
            if tracer is not None:
                tracer.run = f"setup{rep}"
            start = time.perf_counter()
            s.check("fresh interpreter imports t2vad.cli", fresh_import)
            wl.setup(s)
            setup_s.append(time.perf_counter() - start)
        wl.after_setup(s)
        loop_start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.run = f"iter{len(walls)}"
            start = time.perf_counter()
            windows = wl.iteration(s)
            walls.append(time.perf_counter() - start)
            wl.check(s)
            if windows is None:
                break
            rates.append(windows / walls[-1])
            if time.perf_counter() - loop_start >= seconds:
                break
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "windows_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, wl.setup_reps, walls)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl"), t0)
    return {
        "result": {
            "correct": s.failed == 0,
            "attempted": s.attempted,
            "failed": s.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "stages": dict(s.stage_s),
        "walls": walls,
        "notes": s.notes,
        "missing": tracer.missing if tracer is not None else [],
    }


def layer_metrics(tracer: Tracer, setup_reps: int, walls: list[float]) -> dict:
    rows = tracer.per_run()
    for run, n in tracer.count_nested("ndtensor.adam_step", "autoenc.train").items():
        rows[run]["autoenc.train.batches"] = n
    cost = span_cost_s()
    iters = [f"iter{i}" for i in range(len(walls))]
    for run, wall in zip(iters, walls):
        row = rows[run]
        spans = sum(v for k, v in row.items() if k.endswith(".calls"))
        row.update({"trace.wall_s": wall, "trace.coverage": row["trace.top_level_s"] / wall,
                    "trace.spans": spans, "trace.overhead_s": spans * cost})

    def value(key, runs):
        keys = key if isinstance(key, list) else [key]
        return statistics.median(sum(rows[r].get(k, 0.0) for k in keys) for r in runs)

    setups = [f"setup{i}" for i in range(setup_reps)]
    metrics = {name: value(key, setups) + value(key, iters)
               for name, (_, _, key) in PER_LAYER.items()}
    metrics["trace.missing_targets"] = float(len(tracer.missing))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        cli_main = import_cli()
    except ImportError as exc:
        print(f"error: cannot import the t2vad package from {SRC}: {exc}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), cli_main)
    result = out["result"]
    for label, times in out["stages"].items():
        print(f"# stage cli.{label}_s median {statistics.median(times):.4f} s "
              f"over {len(times)} calls")
    for note in out["notes"][-1:]:
        print(f"# {note}")
    if out["missing"]:
        print(f"# missing trace targets: {', '.join(out['missing'])}")
    print("# iteration walls " + " ".join(f"{w:.4f}" for w in out["walls"]) + " s")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# error_rate {result['failed'] / max(result['attempted'], 1):.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
