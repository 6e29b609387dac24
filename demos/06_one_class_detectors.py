"""The five one-class detectors under the uniform contract.

Each fits on assumed-normal data only, scores with higher = more
anomalous, and thresholds at a quantile of its own training scores, so
the methods stay directly comparable. Here they separate a Gaussian blob
from a handful of far-away points.
"""

import numpy as np

from t2vad import detect
from t2vad.rng import make_rng

rng = make_rng(17)
train = rng.normal(size=(400, 16))
far = rng.normal(size=(5, 16)) + 8.0

cfg = detect.DetectorConfig(seed=1)
print(f"{'kind':<10} {'threshold':>10} {'median normal':>14} {'median far':>11} flagged")
# `fit` standardizes its input in place, and `train` is scored below: pass a copy
for kind, model in detect.fit(detect.KINDS, train.copy(), cfg).items():
    normal_scores = detect.score_many(model, train)
    far_scores = detect.score_many(model, far)
    flagged = (far_scores > model.threshold).sum()
    print(f"{kind:<10} {model.threshold:>10.4f} {np.median(normal_scores):>14.4f} "
          f"{np.median(far_scores):>11.4f} {flagged}/5")

# score semantics differ per kind, but orientation is shared
print("\nscore meanings: iforest = isolation depth in (0,1]; lof = local density "
      "ratio;\nocsvm = signed boundary distance; ee = robust Mahalanobis; "
      "deep_svdd = ||phi(x)-c||^2")
