"""The injection protocol behind the four evaluation sets.

Two anomaly kinds make a window anomalous: a persistent step and
periodic spikes with mixture-sampled amplitudes. Two noise kinds leave
it normal; a detector is supposed to ignore them. Each injector maps one
(N, F) array to another; the set builder adds the result as a window
with its base window's tags plus the injection's tag, and the tags alone
decide `anomalous`. The sets A-6F / AN-6F / A-4F / AN-4F combine these
over all six features or only the four non-flat ones, without or with
noise. The suite holds each window once; a set is an array of its rows.
"""

import numpy as np

from t2vad.inject import (InjectionSpec, build_testsets, inject_point_noise,
                          inject_saltpepper, inject_spikes, inject_step)
from t2vad.pipeline import NOISE_TAGS, SynthParams, synth_generate

corpus = synth_generate(SynthParams(n_windows=150, test_fraction=0.2), seed=13)
w = corpus.test_windows.data[0]
sigma = w.std(axis=0)

stepped = inject_step(w, features=[0, 1], onset=40, magnitude_per_feature=3 * sigma[:2])
print(f"step:        rows changed: {int((stepped != w).any(axis=1).sum())} (from onset 40)")

spiked = inject_spikes(w, features=[2], period=10, seed=99)
rows = np.flatnonzero(spiked[:, 2] != w[:, 2])
print(f"spikes:      spike rows: {rows.tolist()}")

point = inject_point_noise(w, seed=100)
print(f"point noise: cells changed: {int((point != w).sum())}")

salted = inject_saltpepper(w, point_prob=0.02, seed=101,
                           lo=w.min(axis=0), hi=w.max(axis=0))
print(f"salt-pepper: cells changed: {int((salted != w).sum())} of {w.size}")

suite = build_testsets(corpus.test_windows, InjectionSpec(seed=21))
print(f"\nsuite composition ({len(suite.windows)} windows held once):")
for key, rows in suite.sets.items():
    windows = suite.windows.subset(rows)
    n_noise = sum(bool(t & NOISE_TAGS) for t in windows.tags)
    print(f"  {key:6s}: {len(windows)} windows, {windows.anomalous.sum()} anomalous, "
          f"{n_noise} noisy")

an = suite.windows.subset(suite.sets["AN-6F"])
noisy_normal = next(i for i, t in enumerate(an.tags) if t and not an.anomalous[i])
print(f"window {an.origins[noisy_normal]} in AN-6F: tags {sorted(an.tags[noisy_normal])}, "
      f"anomalous={an.anomalous[noisy_normal]} (noise never makes a window anomalous)")
