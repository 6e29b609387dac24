"""Anomaly detection for fixed-size multivariate time-series windows.

Embeds windows with a time-embedding autoencoder, runs one-class
detectors on the embeddings, and benchmarks against a composite
reconstruction-error baseline under a seeded anomaly/noise injection
protocol.
"""

from . import autoenc, detect, dtw, evaluate, inject, ndtensor, persist, pipeline, t2v
from .autoenc import AEConfig, TrainedModel, build_recon_ae, build_t2v_ae, train
from .detect import DetectorConfig, DetectorModel, fit
from .inject import InjectionSpec, TestSuite, build_testsets
from .pipeline import Corpus, SynthParams, WindowSet, synth_generate
from .evaluate import EvalReport, prf1, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "autoenc", "detect", "dtw", "evaluate", "inject", "ndtensor", "persist",
    "pipeline", "t2v",
    "AEConfig", "TrainedModel", "build_t2v_ae", "build_recon_ae", "train",
    "DetectorConfig", "DetectorModel", "fit",
    "InjectionSpec", "TestSuite", "build_testsets",
    "Corpus", "SynthParams", "WindowSet", "synth_generate",
    "EvalReport", "prf1", "run_benchmark",
    "__version__",
]
