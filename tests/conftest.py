import tracemalloc

import pytest

from t2vad import detect, ndtensor
from t2vad.autoenc import (AEConfig, build_recon_ae, build_t2v_ae, calibrate,
                           embed_many, train)
from t2vad.inject import InjectionSpec, build_testsets
from t2vad.pipeline import SynthParams, synth_generate
from t2vad.t2v import T2VLayer


@pytest.fixture(scope="session")
def small_corpus():
    """60 synthetic windows: 48 train (every detector's minimum n), 12 test
    (enough for the injection protocol)."""
    return synth_generate(SynthParams(n_windows=60, test_fraction=0.2), seed=101)


@pytest.fixture(scope="session")
def small_e2e(small_corpus):
    """Tiny but complete pipeline: both AEs, calibration, detectors, suite."""
    corpus = small_corpus
    train_data = corpus.train_windows.data
    t2v_model = train(build_t2v_ae(AEConfig(variant="t2v", epochs=4, seed=7), 100, 6),
                      train_data)
    recon_model = train(
        build_recon_ae(AEConfig(variant="reconstruction", epochs=4, seed=8), 100, 6),
        train_data)
    calib = calibrate(recon_model, train_data)
    emb = embed_many(t2v_model, train_data)
    cfg = detect.DetectorConfig(seed=9)
    detectors = detect.fit(detect.KINDS, emb, cfg)
    suite = build_testsets(corpus.test_windows, InjectionSpec(seed=10))
    return {
        "corpus": corpus,
        "t2v_model": t2v_model,
        "recon_model": recon_model,
        "calib": calib,
        "detectors": detectors,
        "suite": suite,
    }


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the most memory `fn(*args)` held at once, in bytes, over
    what was allocated before the call. tracemalloc sees numpy's arrays."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def layer_classes():
    """Every subclass of `ndtensor.Layer`, at any depth: the classes a network
    can be built from, each of which needs its own test cases."""
    found, todo = set(), [ndtensor.Layer]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    assert T2VLayer in found
    return found
