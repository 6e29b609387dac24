"""Train both autoencoder variants on a small corpus.

The embedding AE decodes its N*K vector back to the window through
same-padding conv blocks; the baseline AE compresses the time axis with
strided convs and mirrors back up. Both minimize elementwise MSE under
Adam; gradients come from the hand-written backward passes, spot-checked
here against finite differences. Training runs on a float32 copy of each
stack (stored weights, scoring and the gradient check stay float64); the
last part times the training kernels at the default shapes in float64 and
float32 and prints how far apart the two results are.
"""

import math
import time

import numpy as np

from t2vad import ndtensor as nd
from t2vad.autoenc import AEConfig, build_recon_ae, build_t2v_ae, train
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
strides = [layer.stride for layer in recon_model.stack.layers if isinstance(layer, nd.Conv1d)]
print(f"baseline AE    loss: {recon_model.loss_curve[0]:.4f} -> "
      f"{recon_model.loss_curve[-1]:.4f} "
      f"(bottleneck {recon_model.n // math.prod(strides)} steps)")

w = corpus.test_windows.data[:1]      # a batch of one window
err = np.mean(np.abs(t2v_model.stack.forward(w) - w))
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


def compare(label, step, stack64, *inputs):
    """Time `step(stack, *inputs)` on a float64 stack and on its float32 copy,
    from the same starting weights and inputs."""
    timed = []
    for stack in (stack64, stack64.astype(np.float32)):
        args = [a.astype(stack.params.dtype) for a in inputs]
        timed.append(best_of(lambda: step(stack, *args)))
    (s64, out64), (s32, out32) = timed
    diff = np.abs(out32.astype(np.float64) - out64).max()
    print(f"{label}: float64 {s64 * 1e3:.3f} ms, float32 {s32 * 1e3:.3f} ms "
          f"({s64 / s32:.1f}x), max |diff| = {diff:.1e}")


svdd = build_network(700, (128, 32), rng)
adam_states = {}


def adam(stack, grads):
    state = adam_states.setdefault(stack.params.dtype.name, nd.AdamState())
    nd.adam_step(state, stack.params, grads)
    return stack.params


compare(f"adam_step, Deep SVDD ({svdd.params.size} params)", adam, svdd.astype(np.float64),
        rng.normal(size=svdd.params.size))
compare("dense forward 64x700 @ 700x128", lambda s, x: s.layers[0].forward(x)[0],
        svdd, rng.normal(size=(64, 700)))

conv = nd.LayerStack([nd.Conv1d(16, 16, 5, rng=rng)])
compare("conv1d forward (32, 100, 16), k=5", lambda s, x: s.forward(x), conv,
        rng.normal(size=(32, 100, 16)))


def conv_backward(stack, x, grad_y):
    _, cache = stack.layers[0].forward(x)
    return stack.layers[0].backward(cache, grad_y)[0]


compare("conv1d forward + backward (32, 100, 16)", conv_backward, conv,
        rng.normal(size=(32, 100, 16)), rng.normal(size=(32, 100, 16)))

t2v_stack = build_t2v_ae(AEConfig(), 100, 6).stack
batch = corpus.train_windows.data[:32]


def training_step(stack, x):
    """One t2v AE minibatch step, as in autoenc.train: forward, MSE, backward, Adam."""
    y, tape = stack.forward_tape(x)
    _, dy = nd.mse_loss_grad(y, x)
    return adam(stack, stack.backward(tape, dy))


adam_states.clear()
compare("t2v AE training step (32, 100, 6)", training_step, t2v_stack, batch)
