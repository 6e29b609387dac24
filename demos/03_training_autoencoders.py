"""Train both autoencoder variants on a small corpus.

The embedding AE decodes its N*K vector back to the window through
same-padding conv blocks; the baseline AE compresses the time axis with
strided convs and mirrors back up. Both minimize elementwise MSE under
Adam; gradients come from the hand-written backward passes, spot-checked
here against finite differences. The last part times the two training
kernels at the default shapes against the formulations they replaced: the
conv input gradient as a per-tap scatter versus one im2col matmul, and Adam
as one update per parameter block versus in-place ops on the stack's flat
parameter vector. Each pair must agree (Adam exactly).
"""

import time

import numpy as np

from t2vad import ndtensor as nd
from t2vad.autoenc import (AEConfig, build_recon_ae, build_t2v_ae,
                           bottleneck_length, reconstruct, train)
from t2vad.detect.deepsvdd import build_network
from t2vad.pipeline import SynthParams, synth_generate
from t2vad.rng import make_rng

corpus = synth_generate(SynthParams(n_windows=120), seed=11)

t2v_cfg = AEConfig(variant="t2v", k=7, decoder_layers=3, epochs=12, batch=16, seed=1)
t2v_model = train(build_t2v_ae(t2v_cfg, 100, 6), corpus.train_windows.data)
print(f"embedding AE   loss: {t2v_model.loss_curve[0]:.4f} -> "
      f"{t2v_model.loss_curve[-1]:.4f} over {t2v_cfg.epochs} epochs")

recon_cfg = AEConfig(variant="reconstruction", encoder_layers=2, epochs=12,
                     batch=16, seed=2)
recon_model = train(build_recon_ae(recon_cfg, 100, 6), corpus.train_windows.data)
print(f"baseline AE    loss: {recon_model.loss_curve[0]:.4f} -> "
      f"{recon_model.loss_curve[-1]:.4f} "
      f"(bottleneck {bottleneck_length(recon_model)} steps)")

w = corpus.test_windows.data[0]
err = np.mean(np.abs(reconstruct(t2v_model, w) - w))
print(f"mean |reconstruction error| on a held-out window: {err:.4f}")

# the backward passes are exact: finite differences agree at toy size
toy = build_t2v_ae(AEConfig(variant="t2v", k=3, decoder_layers=2, filters=4,
                            kernel=3, seed=3), 10, 2)
rng = make_rng(4)
rel_err = nd.grad_check(toy.stack, rng.normal(size=(1, 10, 2)),
                        rng.normal(size=(1, 10, 2)))
print(f"max relative gradient error vs finite differences: {rel_err:.2e}")


def best_of(fn, reps=5, inner=20):
    """Fastest mean time per call over `reps` rounds of `inner` calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            out = fn()
        times.append((time.perf_counter() - start) / inner)
    return min(times), out


def scatter_backward(cols, grad_y, kernels, stride, in_len):
    """Conv backward the old way: the input gradient is one strided add per tap."""
    c_out, c_in, k = kernels.shape
    b, n_out, _ = grad_y.shape
    flat_gy = grad_y.reshape(b * n_out, c_out)
    kmat = kernels.transpose(2, 1, 0).reshape(k * c_in, c_out)
    grad_kernels = (cols.reshape(b * n_out, k * c_in).T @ flat_gy).reshape(k, c_in, c_out)
    grad_cols = (flat_gy @ kmat.T).reshape(b, n_out, k, c_in)
    pad = (k - 1) // 2
    grad_xp = np.zeros((b, in_len + 2 * pad, c_in))
    for t in range(k):
        grad_xp[:, t:t + stride * n_out:stride, :] += grad_cols[:, :, t, :]
    return grad_xp[:, pad:pad + in_len, :], grad_kernels.transpose(2, 1, 0), flat_gy.sum(0)


# decoder conv of the embedding AE and second encoder conv of the baseline AE,
# at the default batch (32), window length (100), filters (16) and kernel (5)
for stride, in_len in ((1, 100), (2, 50)):
    conv = nd.Conv1d(16, 16, 5, stride=stride, rng=rng)
    _, cache = conv.forward(rng.normal(size=(32, in_len, 16)))
    grad_y = rng.normal(size=(32, in_len // stride, 16))
    old_s, old = best_of(lambda: scatter_backward(cache[0], grad_y, conv.kernels, stride,
                                                  in_len)[0])
    new_s, new = best_of(lambda: conv.backward(cache, grad_y)[0])
    print(f"conv backward (32, {in_len}, 16) stride {stride}: scatter {old_s * 1e3:.2f} ms, "
          f"im2col {new_s * 1e3:.2f} ms, max |grad_x diff| = {np.abs(new - old).max():.1e}")


def per_block_adam(state, params, grads, lr=1e-3):
    """Adam the old way: one moment pair and fresh temporaries per block."""
    state["t"] += 1
    for key, p in params.items():
        m, v = state["moments"].setdefault(key, (np.zeros_like(p), np.zeros_like(p)))
        m *= 0.9
        m += (1 - 0.9) * grads[key]
        v *= 0.999
        v += (1 - 0.999) * grads[key] * grads[key]
        m_hat = m / (1 - 0.9 ** state["t"])
        v_hat = v / (1 - 0.999 ** state["t"])
        p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


for label, stack in (("embedding AE", build_t2v_ae(AEConfig(), 100, 6).stack),
                     ("Deep SVDD", build_network(700, (128, 32), rng))):
    grads = rng.normal(size=stack.params.size)
    ref = stack.params.copy()
    cuts = np.cumsum([arr.size for layer in stack.layers
                      for arr in layer.params().values()])[:-1]
    blocks = dict(enumerate(np.split(ref, cuts)))
    grad_blocks = dict(enumerate(np.split(grads, cuts)))
    old_state, state = {"t": 0, "moments": {}}, nd.AdamState()
    old_s, _ = best_of(lambda: per_block_adam(old_state, blocks, grad_blocks))
    new_s, _ = best_of(lambda: nd.adam_step(state, stack.params, grads))
    print(f"adam_step {label} ({stack.params.size} params, {len(blocks)} blocks): "
          f"per block {old_s * 1e3:.3f} ms, flat {new_s * 1e3:.3f} ms, "
          f"max |diff| after {state.step_count} steps = {np.abs(stack.params - ref).max():.1e}")
