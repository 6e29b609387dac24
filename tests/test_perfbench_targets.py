"""The benchmark's traced run wraps package names given as `module:attr`
(`perfbench/layers.py`, `TARGETS`). A name that no longer resolves is only
noted as missing there, and its per-layer metric reads 0, so a rename in
the package must fail here instead.
"""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# Wrapped names the package has already lost. Mending perfbench's target
# list empties this set; a rename that breaks one more name grows it.
STALE = {
    "t2vad.autoenc:recon_score",
    "t2vad.dtw:dtw_distance",
    "t2vad.ndtensor:stack_param_dicts",
    "t2vad.ndtensor:LayerStack.forward_until",
    "t2vad.persist:save_embeddings",
    "t2vad.persist:load_embeddings",
}


def resolves(spec: str) -> bool:
    module_name, _, attr = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_wrapped_name_resolves_but_the_known_stale_ones(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("layers", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
    assert os.path.dirname(os.path.abspath(layers.__file__)) == PERFBENCH
    specs = [spec for spec, _, _ in layers.TARGETS]
    assert "t2vad.evaluate:run_benchmark" in specs
    assert {spec for spec in specs if not resolves(spec)} == STALE
