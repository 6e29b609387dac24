"""Dynamic time warping as a similarity measure for windows.

DTW aligns two series before summing pointwise distances, so a shifted
copy of a series costs far less than the raw pointwise comparison
suggests. The exhaustive path-enumeration oracle confirms the dynamic
program on small inputs; the mean DTW over a validation split is the
model-selection objective for the autoencoders (it is not differentiable,
so training itself uses MSE). `dtw_batch` runs the dynamic program over a
whole batch of pairs at once; one pair is the batch `a[None], b[None]`. A
batch must agree with the per-pair loop exactly, not just within a tolerance.
A call forms each anti-diagonal's local costs on the fly, so one call can
take a whole scoring pass; the last line times that against the same
pairs in 64-pair chunks.
"""

import time

import numpy as np

from t2vad.dtw import dtw_batch, dtw_bruteforce
from t2vad.rng import make_rng

t = np.linspace(0, 4 * np.pi, 60)
wave = np.sin(t)[None, :, None]            # batches of one (60, 1) series
shifted = np.sin(t - 0.8)[None, :, None]

pointwise = float(np.linalg.norm(wave - shifted, axis=2).sum())
dist = dtw_batch(wave, shifted)[0]
print(f"sum of pointwise distances (no alignment): {pointwise:7.3f}")
print(f"dtw distance (optimal monotone alignment): {dist:7.3f}")

# identical series cost nothing; scaling both scales the distance linearly
print(f"dtw(x, x) = {dtw_batch(wave, wave)[0]:.1f}")
print(f"dtw(3x, 3y) / dtw(x, y) = {dtw_batch(3 * wave, 3 * shifted)[0] / dist:.3f}")

# the dynamic program equals brute-force path enumeration on small pairs
rng = make_rng(5)
worst = 0.0
for _ in range(50):
    a = rng.normal(size=(int(rng.integers(1, 7)), 2))
    b = rng.normal(size=(int(rng.integers(1, 7)), 2))
    worst = max(worst, abs(dtw_batch(a[None], b[None])[0] - dtw_bruteforce(a, b)))
print(f"max |DP - bruteforce| over 50 random small pairs: {worst:.2e}")

# one batched sweep over 300 window-sized pairs against one sweep per pair
a = rng.normal(size=(300, 100, 6))
b = a + rng.normal(scale=0.1, size=a.shape)
start = time.perf_counter()
looped = np.array([dtw_batch(x[None], y[None])[0] for x, y in zip(a, b)])
loop_s = time.perf_counter() - start
start = time.perf_counter()
batched = dtw_batch(a, b)
batch_s = time.perf_counter() - start
print(f"300 (100, 6) pairs: per-pair loop {loop_s:.2f} s, dtw_batch {batch_s:.2f} s, "
      f"max |batch - loop| = {np.abs(batched - looped).max():.1e} (must be 0)")


def best_of(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# the whole batch in one call against the same pairs in 64-pair chunks
whole_s = best_of(lambda: dtw_batch(a, b))
chunked_s = best_of(lambda: [dtw_batch(a[k:k + 64], b[k:k + 64]) for k in range(0, len(a), 64)])
print(f"300 pairs: one dtw_batch {1e3 * whole_s:.1f} ms, 64-pair chunks {1e3 * chunked_s:.1f} ms")
