"""What the time-embedding layer does to a window.

An N x F window becomes an N x K matrix: one affine column for levels and
trends, K-1 bounded sine columns for periodic structure, then a flat
N*K vector. A step anomaly moves the affine column after its onset while
the sine columns stay in [-1, 1].
"""

import numpy as np

from t2vad.rng import make_rng
from t2vad.t2v import T2VLayer, t2v_forward_reference

rng = make_rng(3)
layer = T2VLayer(n=100, f=6, k=7, rng=rng)
window = rng.normal(size=(100, 6))

# the layer works on batches; one window is a batch of one
emb = layer.forward(window[None])[0][0]
print(f"window {window.shape} -> embedding matrix {emb.shape}")
print(f"flattened vector length: {emb.reshape(-1).shape[0]} (= 100 * 7)")

# the matrix form agrees with a plain per-entry evaluation
ref = t2v_forward_reference(layer, window)
print(f"max |matrix - entrywise| = {np.abs(emb - ref).max():.2e}")

print(f"affine column range:  [{emb[:, 0].min():+.2f}, {emb[:, 0].max():+.2f}]")
print(f"sine columns range:   [{emb[:, 1:].min():+.2f}, {emb[:, 1:].max():+.2f}]"
      " (always within [-1, 1])")

# a step anomaly shifts the affine column exactly after its onset
stepped = window.copy()
stepped[60:, :] += 3.0 * window.std(axis=0)
emb_step = layer.forward(stepped[None])[0][0]
delta = np.abs(emb_step - emb)[:, 0]
print(f"\nstep at row 60: affine-column shift before onset {delta[:60].max():.3f}, "
      f"after onset {delta[60:].mean():.3f}")
