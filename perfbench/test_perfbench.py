"""Self-tests of the benchmark at a tiny scale.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os

import pytest

import run as bench
from workloads import GATES, TINY, WORKLOADS, grid_present, totals_match

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

CLI_MAIN = bench.import_cli()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = bench.run(workload, seed=5, seconds=0, trace=bool(trace), main=CLI_MAIN,
                       scale=TINY)["result"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_traced_run_wraps_every_target_and_restores_the_package():
    import t2vad.autoenc
    import t2vad.evaluate
    before = (t2vad.evaluate.recon_score, t2vad.autoenc.dtw_distance)
    out = bench.run("score", seed=5, seconds=0, trace=True, main=CLI_MAIN, scale=TINY)
    assert out["missing"] == []
    metrics = out["result"]["metrics"]
    # names imported by name are traced where they are looked up
    assert metrics["autoenc.recon_score.calls"]["value"] > 0
    assert metrics["dtw.pairs"]["value"] > 0
    assert metrics["trace.coverage"]["value"] > 0.95
    assert (t2vad.evaluate.recon_score, t2vad.autoenc.dtw_distance) == before


def _corrupting(field_path):
    """CLI main that, after each evaluate, rewrites one report field."""
    def main(argv):
        code = CLI_MAIN(argv)
        if argv[0] == "evaluate":
            path = argv[argv.index("--out") + 1]
            with open(path) as fh:
                doc = json.load(fh)
            node = doc
            for key in field_path[:-1]:
                node = node[key]
            node[field_path[-1]] += 1
            with open(path, "w") as fh:
                json.dump(doc, fh)
        return code
    return main


def test_corrupted_report_makes_error_rate_nonzero():
    clean = bench.run("score", seed=5, seconds=0, trace=False, main=CLI_MAIN,
                      scale=TINY)["result"]
    corrupt = bench.run("score", seed=5, seconds=0, trace=False, scale=TINY,
                        main=_corrupting(["results", "t2v_lof", "A-6F", "confusion", "tp"]))
    assert clean["failed"] == 0
    assert corrupt["result"]["failed"] > 0 and not corrupt["result"]["correct"]


def test_failed_cli_call_counts_as_failure():
    result = bench.run("fit", seed=5, seconds=0, trace=False, scale=TINY,
                       main=lambda argv: 1 if argv[0] == "fit-detector" else CLI_MAIN(argv))
    assert result["result"]["failed"] >= 1 and not result["result"]["correct"]


def _report(cells=None):
    entry = {"precision": 1.0, "recall": 1.0, "f1": 1.0,
             "confusion": {"tp": 2, "fp": 0, "tn": 2, "fn": 0}}
    results = {m: {k: dict(entry) for k in ("A-6F", "AN-6F", "A-4F", "AN-4F")}
               for m in ("recon_ae", "t2v_iforest", "t2v_lof", "t2v_ocsvm", "t2v_ee",
                         "t2v_deep_svdd")}
    results["recon_ae"]["AN-6F"] = dict(entry, precision=0.9)
    for (method, key), fields in (cells or {}).items():
        results[method][key] = dict(results[method][key], **fields)
    return results


def test_gates_and_grid_checks_flag_broken_reports():
    curves = {"t2v.json": [1.0] * 5 + [0.4] * 5, "recon.json": [1.0] * 5 + [0.3] * 5}
    good = _report()
    assert all(gate(good, curves) for gate in GATES.values())
    assert grid_present(good) and totals_match(good, 4)

    no_noise_drop = _report({("recon_ae", "AN-6F"): {"precision": 1.0}})
    assert not GATES["(c) baseline precision drops under noise"](no_noise_drop, curves)
    flat = {"t2v.json": [1.0] * 10, "recon.json": [1.0] * 10}
    assert not GATES["(a) both AEs converged"](good, flat)
    del good["t2v_ee"]["AN-4F"]
    assert not grid_present(good)
    assert not totals_match(_report(), 5)
