"""The benchmark's three workloads, driven through `t2vad.cli.main(argv)`.

Every workload is a closed loop with one caller: the next CLI call starts
only when the previous one has returned. Calls run in-process, with
relative paths inside one work directory, so the configuration each
command echoes into its output is the same on every iteration and the
outputs can be compared byte for byte.

- reproduce: the six stages of the acceptance pipeline (generate, train
  t2v, train reconstruction, fit-detector --kind all, build-testsets,
  evaluate). The only workload that runs reconstruction training,
  calibration DTW and the artifact I/O of a whole corpus together.
- fit: train t2v + fit-detector on a corpus generated in set-up. Backward
  passes, Adam and the detector solvers; DTW never runs.
- score: repeated evaluate against artifacts built in set-up. Forward
  passes, per-window DTW and detector scoring; no backward pass or Adam
  step runs in the timed phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

# fit-detector --kind all writes det.<kind>.json for each of these
KINDS = ("iforest", "lof", "ocsvm", "ee", "deep_svdd")
SETS = ("A-6F", "AN-6F", "A-4F", "AN-4F")
METHODS = ("recon_ae",) + tuple(f"t2v_{k}" for k in KINDS)


@dataclass(frozen=True)
class Scale:
    """Input sizes. The defaults keep one run of every workload well inside
    a minute on two cores while each timed iteration stays a few seconds,
    so a run holds several iterations to take the median of."""

    windows: int = 600              # reproduce corpus
    test_fraction: float = 0.25     # 150 test windows: gates (c)/(d) need enough noise windows
    epochs: int = 10                # multiple of 5: gate (a) smooths in blocks of 5
    fit_windows: int = 1000
    score_windows: int = 500
    score_test_fraction: float = 0.6   # 300 test windows, above the default 295
    score_epochs: int = 1           # epochs do not change the cost of scoring a window


FULL = Scale()
TINY = Scale(windows=200, test_fraction=0.5, epochs=20, fit_windows=200, score_windows=80,
             score_test_fraction=0.5)


def stage_label(argv: list[str]) -> str:
    """`train --variant t2v` -> train_t2v; `fit-detector` -> fit_detector."""
    label = argv[0].replace("-", "_")
    if argv[0] == "train":
        variant = argv[argv.index("--variant") + 1]
        label += "_recon" if variant == "reconstruction" else f"_{variant}"
    return label


class Caller:
    """One run's CLI calls, each timed from outside, and its operation
    counts: a CLI call or an output check is one operation; a non-zero
    exit, an exception or a failed check is one failure."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.stage_s: dict[str, list[float]] = defaultdict(list)
        self.notes: list[str] = []

    def cli(self, *argv: str) -> bool:
        argv = list(argv)
        label = stage_label(argv)
        self.attempted += 1
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    code = self.tracer.call(f"cli.{label}", self.main, argv)
        except Exception:
            code = None
            captured.write(traceback.format_exc())
        self.stage_s[label].append(time.perf_counter() - start)
        if code != 0:
            self.failed += 1
            print(f"FAILED: t2vad {' '.join(argv)} -> exit {code}\n{captured.getvalue()}",
                  file=sys.stderr)
            return False
        return True

    def check(self, what: str, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception:
            ok = False
            print(traceback.format_exc(), file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"FAILED check: {what}", file=sys.stderr)
        return ok


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def record_digest(s: Caller, digests: list[str], what: str) -> None:
    """Check that report.json hashes the same as on earlier iterations."""
    def same():
        digests.append(_digest("report.json"))
        return len(set(digests)) == 1
    if s.check(what, same):
        s.notes.append(f"report sha256 {digests[-1]}")


def _detector_files(prefix: str) -> list[str]:
    return [f"{prefix}.{k}.json" for k in KINDS]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def converged(curve) -> bool:
    return len(curve) > 1 and curve[-1] < 0.5 * curve[0]


def smoothed_non_increasing(curve) -> bool:
    means = [sum(curve[i:i + 5]) / 5 for i in range(0, len(curve) - len(curve) % 5, 5)]
    return all(b - a <= 1e-12 for a, b in zip(means, means[1:]))


GATES = {   # acceptance criterion 6, gates (a)-(d): f(report results, loss curves)
    "(a) both AEs converged": lambda r, curves: all(
        converged(c) and smoothed_non_increasing(c) for c in curves.values()),
    "(b) A-6F F1 >= 0.8 for the baseline and some embedding method": lambda r, _: (
        r["recon_ae"]["A-6F"]["f1"] >= 0.8
        and max(r[m]["A-6F"]["f1"] for m in METHODS[1:]) >= 0.8),
    "(c) baseline precision drops under noise": lambda r, _: (
        r["recon_ae"]["AN-6F"]["precision"] < r["recon_ae"]["A-6F"]["precision"]),
    "(d) some embedding method's 4F F1 drops by < 0.15 under noise": lambda r, _: (
        min(r[m]["A-4F"]["f1"] - r[m]["AN-4F"]["f1"] for m in METHODS[1:]) < 0.15),
}


def grid_present(results: dict) -> bool:
    return all(key in results.get(m, {}) for m in METHODS for key in SETS)


def totals_match(results: dict, set_size: int) -> bool:
    return all(sum(results[m][key]["confusion"].values()) == set_size
               for m in METHODS for key in SETS)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """`setup` builds the inputs once per repetition; `iteration` makes the
    timed CLI calls and returns how many windows they handled, or None if a
    call failed; `check` verifies what the iteration wrote. Set-up repeats
    `setup_reps` times so that its median is steady; the cheaper the set-up,
    the more repetitions."""

    name = ""
    setup_reps = 3

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = str(seed)

    def setup(self, s: Caller) -> None:
        pass

    def after_setup(self, s: Caller) -> None:
        pass

    def iteration(self, s: Caller) -> int | None:
        raise NotImplementedError

    def check(self, s: Caller) -> None:
        raise NotImplementedError


class Reproduce(Workload):
    name = "reproduce"
    setup_reps = 7

    def __init__(self, scale, seed):
        super().__init__(scale, seed)
        self.digests: list[str] = []

    def iteration(self, s):
        seed, epochs = self.seed, str(self.scale.epochs)
        ok = (s.cli("generate", "--seed", seed, "--windows", str(self.scale.windows),
                    "--test-fraction", str(self.scale.test_fraction), "--out", "corpus.json")
              and s.cli("train", "--corpus", "corpus.json", "--variant", "t2v",
                        "--epochs", epochs, "--seed", seed, "--out", "t2v.json")
              and s.cli("train", "--corpus", "corpus.json", "--variant", "reconstruction",
                        "--epochs", epochs, "--seed", seed, "--out", "recon.json")
              and s.cli("fit-detector", "--corpus", "corpus.json", "--model", "t2v.json",
                        "--kind", "all", "--seed", seed, "--out", "det.json")
              and s.cli("build-testsets", "--corpus", "corpus.json", "--seed", seed,
                        "--out", "suite.json")
              and s.cli("evaluate", "--suite", "suite.json", "--t2v-model", "t2v.json",
                        "--recon-model", "recon.json", "--detectors",
                        *_detector_files("det"), "--seed", seed, "--out", "report.json"))
        return self.scale.windows if ok else None

    def check(self, s):
        def inputs():
            return (_load("report.json")["results"],
                    {name: _load(name)["loss_curve"] for name in ("t2v.json", "recon.json")})
        for what, gate in GATES.items():
            s.check(what, lambda gate=gate: gate(*inputs()))
        record_digest(s, self.digests, "report identical across iterations (criterion 7)")


class Fit(Workload):
    name = "fit"
    setup_reps = 5

    def setup(self, s):
        s.cli("generate", "--seed", self.seed, "--windows", str(self.scale.fit_windows),
              "--out", "corpus.json")

    def iteration(self, s):
        ok = (s.cli("train", "--corpus", "corpus.json", "--variant", "t2v",
                    "--epochs", str(self.scale.epochs), "--seed", self.seed,
                    "--out", "t2v.json")
              and s.cli("fit-detector", "--corpus", "corpus.json", "--model", "t2v.json",
                        "--kind", "all", "--seed", self.seed, "--out", "det.json"))
        return self.scale.fit_windows if ok else None

    def check(self, s):
        s.check("t2v loss curve ends below half its first value",
                lambda: converged(_load("t2v.json")["loss_curve"]))
        s.check("all five detector thresholds finite",
                lambda: all(math.isfinite(_load(p)["threshold"])
                            for p in _detector_files("det")))


class Score(Workload):
    name = "score"

    def __init__(self, scale, seed):
        super().__init__(scale, seed)
        self.set_size = 0
        self.digests: list[str] = []

    def setup(self, s):
        seed, epochs = self.seed, str(self.scale.score_epochs)
        (s.cli("generate", "--seed", seed, "--windows", str(self.scale.score_windows),
               "--test-fraction", str(self.scale.score_test_fraction), "--out", "corpus.json")
         and s.cli("train", "--corpus", "corpus.json", "--variant", "t2v",
                   "--epochs", epochs, "--seed", seed, "--out", "t2v.json")
         and s.cli("train", "--corpus", "corpus.json", "--variant", "reconstruction",
                   "--epochs", epochs, "--seed", seed, "--out", "recon.json")
         and s.cli("fit-detector", "--corpus", "corpus.json", "--model", "t2v.json",
                   "--kind", "all", "--seed", seed, "--out", "det.json")
         and s.cli("build-testsets", "--corpus", "corpus.json", "--seed", seed,
                   "--out", "suite.json"))

    def after_setup(self, s):
        # every evaluation set holds the whole clean test split
        def read_size():
            self.set_size = len(_load("corpus.json")["split"]["test"])
            return self.set_size > 0
        s.check("corpus test split readable", read_size)

    def iteration(self, s):
        ok = s.cli("evaluate", "--suite", "suite.json", "--t2v-model", "t2v.json",
                   "--recon-model", "recon.json", "--detectors", *_detector_files("det"),
                   "--seed", self.seed, "--out", "report.json")
        return len(SETS) * self.set_size if ok else None

    def check(self, s):
        s.check("every (method, set) cell present",
                lambda: grid_present(_load("report.json")["results"]))
        s.check("confusion totals equal the set sizes",
                lambda: totals_match(_load("report.json")["results"], self.set_size))
        record_digest(s, self.digests, "report identical across iterations")


WORKLOADS = {w.name: w for w in (Reproduce, Fit, Score)}
