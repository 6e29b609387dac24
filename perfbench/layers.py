"""What the traced run wraps, and how spans become per-layer metrics.

Metric names are `<module>.<what>` after the package's own modules. Unless
stated otherwise a `_s` metric is self time: the span's duration minus the
time its traced child spans cover. Each value is the median over set-up
repetitions plus the median over timed iterations, i.e. the cost of one
set-up and one iteration. README.md maps each metric to the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import os

import numpy as np

from workloads import KINDS


def _train_span(args) -> str:
    variant = args[0].config.variant
    return "autoenc.train." + ("recon" if variant == "reconstruction" else variant)


def _score_many_span(args) -> str:
    return f"detect.score_many.{args[0].kind}"


def _dtw_cells(args, _result) -> dict:
    return {"dtw.cells": np.shape(args[0])[0] * np.shape(args[1])[0]}


def _ocsvm_state(_args, state) -> dict:
    return {"detect.ocsvm.smo_iterations": state["iterations"],
            "detect.ocsvm.support_vectors": len(state["alpha"])}


def _bytes(key):
    return lambda args, _result: {key: os.path.getsize(args[0])}


_LAYER_STACK = ("forward", "forward_tape", "forward_until", "backward")
_PERSISTED = ("corpus", "testsuite", "model", "detector", "embeddings", "report")

# (module:attribute, span name or function of the call's args, counters hook)
TARGETS = [
    ("t2vad.pipeline:synth_generate", "pipeline.synth_generate", None),
    ("t2vad.inject:build_testsets", "inject.build_testsets", None),
    ("t2vad.autoenc:train", _train_span, None),
    ("t2vad.autoenc:calibrate", "autoenc.calibrate", None),
    ("t2vad.autoenc:embed_many", "autoenc.embed_many", None),
    ("t2vad.autoenc:recon_score", "autoenc.recon_score", None),
    ("t2vad.dtw:dtw_distance", "dtw.dtw_distance", _dtw_cells),
    ("t2vad.evaluate:run_benchmark", "evaluate.run_benchmark", None),
    ("t2vad.detect:fit", "detect.fit", None),
    ("t2vad.detect:score_many", _score_many_span, None),
    *[(f"t2vad.detect:fit_{k}", f"detect.fit.{k}", _ocsvm_state if k == "ocsvm" else None)
      for k in KINDS],
    ("t2vad.ndtensor:Conv1d.forward", "ndtensor.conv1d.forward", None),
    ("t2vad.ndtensor:Conv1d.backward", "ndtensor.conv1d.backward", None),
    ("t2vad.ndtensor:Dense.forward", "ndtensor.dense.forward", None),
    ("t2vad.ndtensor:Dense.backward", "ndtensor.dense.backward", None),
    *[(f"t2vad.ndtensor:LayerStack.{m}", "ndtensor.layer_stack", None) for m in _LAYER_STACK],
    ("t2vad.ndtensor:adam_step", "ndtensor.adam_step", None),
    ("t2vad.ndtensor:stack_param_dicts", "ndtensor.stack_param_dicts", None),
    ("t2vad.t2v:T2VLayer.forward", "t2v.forward", None),
    ("t2vad.t2v:T2VLayer.backward", "t2v.backward", None),
    *[(f"t2vad.persist:save_{what}", "persist.save", _bytes("persist.bytes_written"))
      for what in _PERSISTED],
    *[(f"t2vad.persist:load_{what}", "persist.load", _bytes("persist.bytes_read"))
      for what in _PERSISTED],
]

CLI_STAGES = ("generate", "train_t2v", "train_recon", "fit_detector", "build_testsets",
              "evaluate")

# per-layer metric -> (unit, better, key in Tracer.per_run rows, or a special)
PER_LAYER = {
    **{f"cli.{stage}_s": ("s", "lower", f"cli.{stage}.total_s") for stage in CLI_STAGES},
    "cli.self_s": ("s", "lower", [f"cli.{stage}_s" for stage in CLI_STAGES]),
    "ndtensor.conv1d.forward_s": ("s", "lower", "ndtensor.conv1d.forward_s"),
    "ndtensor.conv1d.backward_s": ("s", "lower", "ndtensor.conv1d.backward_s"),
    "ndtensor.dense.forward_s": ("s", "lower", "ndtensor.dense.forward_s"),
    "ndtensor.dense.backward_s": ("s", "lower", "ndtensor.dense.backward_s"),
    "ndtensor.layer_stack_s": ("s", "lower", "ndtensor.layer_stack_s"),
    "ndtensor.adam_step_s": ("s", "lower", "ndtensor.adam_step_s"),
    "ndtensor.adam_step.calls": ("count", "lower", "ndtensor.adam_step.calls"),
    "ndtensor.stack_param_dicts_s": ("s", "lower", "ndtensor.stack_param_dicts_s"),
    "t2v.forward_s": ("s", "lower", "t2v.forward_s"),
    "t2v.backward_s": ("s", "lower", "t2v.backward_s"),
    "autoenc.train.t2v_s": ("s", "lower", "autoenc.train.t2v_s"),
    "autoenc.train.recon_s": ("s", "lower", "autoenc.train.recon_s"),
    "autoenc.train.batches": ("count", "lower", "autoenc.train.batches"),
    "dtw.dtw_distance_s": ("s", "lower", "dtw.dtw_distance_s"),
    "dtw.pairs": ("count", "lower", "dtw.dtw_distance.calls"),
    "dtw.cells": ("count", "lower", "dtw.cells"),
    "autoenc.calibrate_s": ("s", "lower", "autoenc.calibrate_s"),
    "autoenc.recon_score_s": ("s", "lower", "autoenc.recon_score_s"),
    "autoenc.recon_score.calls": ("count", "lower", "autoenc.recon_score.calls"),
    "detect.fit_s": ("s", "lower", "detect.fit_s"),
    **{f"detect.fit.{k}_s": ("s", "lower", f"detect.fit.{k}_s") for k in KINDS},
    "detect.ocsvm.smo_iterations": ("count", "lower", "detect.ocsvm.smo_iterations"),
    "detect.ocsvm.support_vectors": ("count", "lower", "detect.ocsvm.support_vectors"),
    **{f"detect.score_many.{k}_s": ("s", "lower", f"detect.score_many.{k}_s") for k in KINDS},
    "autoenc.embed_many_s": ("s", "lower", "autoenc.embed_many_s"),
    "evaluate.run_benchmark_s": ("s", "lower", "evaluate.run_benchmark_s"),
    "persist.save_s": ("s", "lower", "persist.save_s"),
    "persist.load_s": ("s", "lower", "persist.load_s"),
    "persist.bytes_written": ("count", "lower", "persist.bytes_written"),
    "persist.bytes_read": ("count", "lower", "persist.bytes_read"),
    "pipeline.synth_generate_s": ("s", "lower", "pipeline.synth_generate_s"),
    "inject.build_testsets_s": ("s", "lower", "inject.build_testsets_s"),
    # about the trace itself, over the timed iterations
    "trace.wall_s": ("s", "lower", "trace.wall_s"),
    "trace.coverage": ("ratio", "higher", "trace.coverage"),
    "trace.overhead_s": ("s", "lower", "trace.overhead_s"),
    "trace.spans": ("count", "lower", "trace.spans"),
    "trace.missing_targets": ("count", "lower", "trace.missing_targets"),
}
