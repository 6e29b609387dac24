"""End-to-end benchmark at reduced scale.

Generates a corpus, trains both autoencoders, fits the five detectors on
the training embeddings, builds the four evaluation sets and prints the
comparison table. The library path shown here is exactly what the CLI
commands chain together (see README for the command version; the
default-scale run fits in a few minutes).
"""

from t2vad import detect
from t2vad.autoenc import (AEConfig, build_recon_ae, build_t2v_ae, calibrate,
                           embed_many, train)
from t2vad.evaluate import format_report_table, run_benchmark
from t2vad.inject import InjectionSpec, build_testsets
from t2vad.pipeline import SynthParams, synth_generate

corpus = synth_generate(SynthParams(n_windows=300), seed=23)
print(f"corpus: {len(corpus.train_idx)} train / {len(corpus.test_idx)} test windows")

train_data = corpus.train_windows.data    # (n, 100, 6)
t2v_model = train(build_t2v_ae(AEConfig(variant="t2v", epochs=15, seed=1), 100, 6),
                  train_data)
recon_model = train(build_recon_ae(AEConfig(variant="reconstruction", epochs=15,
                                            seed=2), 100, 6),
                    train_data)
print(f"embedding AE loss {t2v_model.loss_curve[0]:.3f} -> {t2v_model.loss_curve[-1]:.3f}; "
      f"baseline AE loss {recon_model.loss_curve[0]:.3f} -> {recon_model.loss_curve[-1]:.3f}")

calib = calibrate(recon_model, train_data)
embeddings = embed_many(t2v_model, train_data)
cfg = detect.DetectorConfig(seed=3)
detectors = detect.fit(detect.KINDS, embeddings, cfg)

suite = build_testsets(corpus.test_windows, InjectionSpec(seed=4))
report = run_benchmark(suite, t2v_model, recon_model, {detect.BASELINE: calib, **detectors})
print()
print(format_report_table(report))
