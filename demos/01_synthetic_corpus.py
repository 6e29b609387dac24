"""Build a corpus of fixed-size windows, two ways.

First from the synthetic generator (four correlated features plus two
near-flat ones), then through the preprocessing chain a raw sensor file
would follow: forward fill, quantile fencing, resampling, windowing.
"""

import numpy as np

from t2vad.pipeline import (RawSeries, SynthParams, WindowSet, clean, resample, split,
                            synth_generate, windowize)

# --- synthetic corpus -------------------------------------------------------

corpus = synth_generate(SynthParams(n_windows=200), seed=7)
data = corpus.windows.data          # one (n, N, F) array
print(f"generated {data.shape[0]} windows of shape {data.shape[1]}x{data.shape[2]}")
print(f"split: {len(corpus.train_idx)} train / {len(corpus.test_idx)} test")

stds = data.reshape(-1, 6).std(axis=0)
print("per-feature std:", np.round(stds, 4))
print(f"flat/active std ratio: {stds[4] / stds[0]:.4f} (near-flat by construction)")

# --- preprocessing chain ----------------------------------------------------

# a fake 7-minute sensor trace: 1 Hz, one gap, one wild outlier row
rng = np.random.default_rng(0)
t = np.arange(420)
values = np.stack([np.sin(t / 30.0 + i) + rng.normal(0, 0.05, len(t))
                   for i in range(6)], axis=1)
values[100, :] = np.nan          # dropout -> forward filled
values[200, 2] = 80.0            # spike -> fenced out
raw = RawSeries(t, values, source_id="demo-sensor")

cleaned = clean(raw, quantile_fence_k=1.5)
print(f"\nclean: {len(raw)} rows -> {len(cleaned)} rows "
      f"(gap filled, outlier row dropped)")

resampled = resample(cleaned, window_seconds=2)
print(f"resample(2s): {len(cleaned)} rows -> {len(resampled)} rows")

windows = windowize(cleaned)
tags = [sorted(t) for t in windows.tags]
print(f"windowize: {windows.data.shape} array, tags per window: {tags}, "
      f"origins: {windows.origins}")

# the final short remainder was padded by repeating its last row
padded = windows.data[-1]
print("padded tail is constant:", bool(np.all(padded[-1] == padded[-10])))

corpus2 = split(WindowSet.concat([windows] * 4), test_fraction=0.10, seed=1)
print(f"split 10%: {len(corpus2.train_idx)} train / {len(corpus2.test_idx)} test")
