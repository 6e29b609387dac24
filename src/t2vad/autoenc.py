"""The two window autoencoders, trained by the shared `ndtensor.train_adam` loop.

Embedding AE: time-embedding layer -> stack of same-padding 1-D conv
blocks decoding its N x K output back to N x F. A window's embedding is
that N x K output flattened row-major to N*K.
Baseline AE: strided conv encoder that halves the time axis per block,
mirrored by upsample+conv decoder blocks. Both train with minibatch Adam
on elementwise MSE, on a float32 copy of the stack; DTW is used only to
score candidate configurations (it is not differentiable, so it never
enters the loss).

The baseline flags anomalies by its windows' reconstruction components
(MSE, MAE, DTW): `calibrate` fits them as the `detect.BASELINE` kind, which
standardizes, sums and thresholds them by every detector's rule.

Every function takes windows as a batch `(B, N, F)`; one window is `x[None]`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import detect
from . import ndtensor as nd
from .dtw import dtw_batch, first_nonfinite
from .rng import make_rng
from .t2v import T2VLayer

VARIANTS = ("t2v", "reconstruction")


@dataclass(frozen=True)
class AEConfig:
    variant: str = "t2v"
    k: int = 7                   # embedding width per timestep
    decoder_layers: int = 3
    encoder_layers: int = 2      # reconstruction variant only
    encoder_stride: int = 2      # time-axis halving per encoder block
    filters: int = 16
    kernel: int = 5
    epochs: int = 30
    batch: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k < 2:
            raise ValueError("K must be >= 2")
        if self.decoder_layers < 1 or self.encoder_layers < 1:
            raise ValueError("layer counts must be >= 1")
        if min(self.filters, self.kernel, self.encoder_stride) < 1:
            raise ValueError("filters, kernel size and encoder stride must be >= 1")
        if self.kernel % 2 == 0:
            raise ValueError("kernel size must be odd")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch size must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


@dataclass
class TrainedModel:
    config: AEConfig
    stack: nd.LayerStack
    n: int
    f: int
    loss_curve: list[float] = field(default_factory=list)


def build_t2v_ae(cfg: AEConfig, n: int, f: int) -> TrainedModel:
    """Untrained embedding AE: t2v -> conv decoder."""
    if cfg.variant != "t2v":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 't2v'")
    rng = make_rng(cfg.seed)
    layers: list[nd.Layer] = [T2VLayer(n, f, cfg.k, rng=rng)]
    channels = [cfg.k] + [cfg.filters] * (cfg.decoder_layers - 1) + [f]
    for i in range(cfg.decoder_layers):
        layers.append(nd.Conv1d(channels[i], channels[i + 1], cfg.kernel, rng=rng))
        if i < cfg.decoder_layers - 1:
            layers.append(nd.ReLU())
    return TrainedModel(cfg, nd.LayerStack(layers), n, f)


def feasible_encoder_layers(n: int, stride: int, requested: int) -> int:
    """Largest layer count <= requested whose total stride divides n."""
    layers = requested
    while layers > 1 and n % (stride ** layers) != 0:
        layers -= 1
    return layers


def build_recon_ae(cfg: AEConfig, n: int, f: int) -> TrainedModel:
    """Untrained baseline AE: strided conv encoder, upsample+conv decoder."""
    if cfg.variant != "reconstruction":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'reconstruction'")
    strides = [cfg.encoder_stride] * cfg.encoder_layers
    total = int(np.prod(strides))
    if n % total != 0:
        raise ValueError(f"window length {n} not divisible by total stride {total}")
    rng = make_rng(cfg.seed)
    layers: list[nd.Layer] = []
    c = f
    for s in strides:
        layers.append(nd.Conv1d(c, cfg.filters, cfg.kernel, stride=s, rng=rng))
        layers.append(nd.ReLU())
        c = cfg.filters
    for i, s in enumerate(reversed(strides)):
        last = i == len(strides) - 1
        layers.append(nd.Upsample(s))
        layers.append(nd.Conv1d(c, f if last else cfg.filters, cfg.kernel, rng=rng))
        if not last:
            layers.append(nd.ReLU())
    return TrainedModel(cfg, nd.LayerStack(layers), n, f)


def build_model(cfg: AEConfig, n: int, f: int) -> TrainedModel:
    if cfg.variant == "t2v":
        return build_t2v_ae(cfg, n, f)
    return build_recon_ae(cfg, n, f)


def train(model: TrainedModel, data: np.ndarray) -> TrainedModel:
    """`nd.train_adam` on mean squared reconstruction error over the windows
    `data` (n, N, F) with the model's config, seeded like the initialization
    by its seed; appends one mean loss per epoch to the loss curve."""
    cfg = model.config
    data = np.asarray(data)
    if data.ndim != 3 or len(data) == 0 or data.shape[1:] != (model.n, model.f):
        raise ValueError(f"windows are {data.shape}, model expects (n > 0, {model.n}, {model.f})")

    def mse(y, x):
        loss, dy = nd.mse_loss_grad(y, x)
        return loss * len(x), dy

    model.loss_curve += nd.train_adam(model.stack, data, mse, cfg.epochs, cfg.batch, cfg.lr,
                                      make_rng(cfg.seed + 1))  # offset: init used cfg.seed
    return model


SCORE_CHUNK = 64   # windows per forward pass: bounds its temporaries, conv pad buffers included


def _finite_windows(data: np.ndarray) -> np.ndarray:
    """data unchanged; a NaN/Inf window raises instead of leaking NaN downstream."""
    bad = first_nonfinite(data)
    if bad is not None:
        raise ValueError(f"window {bad} contains NaN/Inf")
    return data


def embed_many(model: TrainedModel, data: np.ndarray) -> np.ndarray:
    """(B, N*K) embeddings of the windows `data` (B, N, F): the t2v layer's
    (B, N, K) output, each window flattened row-major. The layer runs
    SCORE_CHUNK windows at a time into the one result array; its matmuls
    take one product per window, so the chunking changes no bit. Raises
    ValueError naming the first window that holds a NaN or Inf."""
    if model.config.variant != "t2v":
        raise ValueError("embeddings come from the t2v variant only")
    data = _finite_windows(np.asarray(data, dtype=np.float64))
    layer = model.stack.layers[0]
    out = np.empty((len(data), layer.n * layer.k))
    for start in range(0, len(data), SCORE_CHUNK):
        y = layer.forward(data[start:start + SCORE_CHUNK])[0]
        out[start:start + len(y)] = y.reshape(len(y), -1)
    return out


# ---------------------------------------------------------------------------
# reconstruction components (baseline anomaly detector)
# ---------------------------------------------------------------------------

def score_components_many(model: TrainedModel, data: np.ndarray) -> np.ndarray:
    """(B, 3) raw MSE, MAE and DTW of each window in `data` (B, N, F) against
    its reconstruction. The windows are reconstructed and scored SCORE_CHUNK
    at a time, so only one chunk's reconstructions are held; each pair's DTW
    is its own sweep, so the chunking changes no bit.

    Raises ValueError naming the first window whose values, reconstruction
    or components (which overflow on finite windows of large values) hold a
    NaN or Inf: such a score compares False against any threshold and would
    silently read as normal.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3 or data.shape[1:] != (model.n, model.f):
        raise ValueError(f"windows are {data.shape}, model expects (B, {model.n}, {model.f})")
    _finite_windows(data)
    comps = np.empty((len(data), 3))
    for start in range(0, len(data), SCORE_CHUNK):
        x = data[start:start + SCORE_CHUNK]
        xhat = np.asarray(model.stack.forward(x), dtype=np.float64)
        bad = first_nonfinite(xhat)
        if bad is not None:
            raise ValueError(f"reconstruction of window {start + bad} contains NaN/Inf")
        diff = (xhat - x).reshape(len(x), -1)
        out = comps[start:start + len(x)]
        out[:, 0] = np.mean(diff * diff, axis=1)
        out[:, 1] = np.mean(np.abs(diff), axis=1)
        out[:, 2] = dtw_batch(x, xhat)
        bad = first_nonfinite(out)
        if bad is not None:
            raise ValueError(f"components of window {start + bad} overflow: "
                             f"{out[bad].tolist()}")
    return comps


def calibrate(model: TrainedModel, data: np.ndarray,
              threshold_quantile: float = 0.99) -> detect.DetectorModel:
    """The baseline detector, fitted on the components of the training windows
    `data`; `detect.score_many` scores a (B, 3) component array with it."""
    cfg = detect.DetectorConfig(threshold_quantile=threshold_quantile)
    return detect.fit([detect.BASELINE], score_components_many(model, data), cfg)[detect.BASELINE]


# ---------------------------------------------------------------------------
# hyperparameter search
# ---------------------------------------------------------------------------

# the search space: inclusive (lo, hi) ranges, or tuples of choices
SEARCH_K = (4, 16)
SEARCH_LAYERS = (2, 4)
SEARCH_KERNELS = (3, 5, 7)
SEARCH_FILTERS = (8, 16, 32)
SEARCH_EPOCHS = (20, 100)
SEARCH_BATCHES = (16, 32, 64)


@dataclass
class SearchResult:
    trials: list[tuple[AEConfig, float]]
    best_index: int

    @property
    def best_config(self) -> AEConfig:
        return self.trials[self.best_index][0]

    @property
    def best_score(self) -> float:
        return self.trials[self.best_index][1]


def validation_dtw(model: TrainedModel, data: np.ndarray) -> float:
    """Mean DTW between each window of `data` and its reconstruction."""
    return float(np.mean(score_components_many(model, data)[:, 2]))


def _sample_config(variant: str, rng, seed: int) -> AEConfig:
    return AEConfig(
        variant=variant,
        k=int(rng.integers(SEARCH_K[0], SEARCH_K[1] + 1)),
        decoder_layers=int(rng.integers(SEARCH_LAYERS[0], SEARCH_LAYERS[1] + 1)),
        encoder_layers=int(rng.integers(SEARCH_LAYERS[0], SEARCH_LAYERS[1] + 1)),
        filters=int(rng.choice(SEARCH_FILTERS)),
        kernel=int(rng.choice(SEARCH_KERNELS)),
        epochs=int(rng.integers(SEARCH_EPOCHS[0], SEARCH_EPOCHS[1] + 1)),
        batch=int(rng.choice(SEARCH_BATCHES)),
        seed=seed,
    )


def hyper_search(data: np.ndarray, variant: str, n_trials: int,
                 master_seed: int) -> SearchResult:
    """Seeded random search over the `SEARCH_*` space, scored by validation DTW.

    Training minimizes MSE; candidate ranking uses mean DTW on a chronological
    90/10 validation split of the windows `data` (n, N, F).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    n_val = max(1, len(data) // 10)
    train_data, val_data = data[:-n_val], data[-n_val:]
    if not len(train_data):
        raise ValueError("not enough windows for a 90/10 split")
    n, f = data.shape[1:]

    trials = []
    for t in range(n_trials):
        rng = make_rng(master_seed + t)
        cfg = _sample_config(variant, rng, seed=master_seed + t)
        if variant == "reconstruction":
            # sampled layer counts must keep the time axis divisible
            cfg = replace(cfg, encoder_layers=feasible_encoder_layers(
                n, cfg.encoder_stride, cfg.encoder_layers))
        model = train(build_model(cfg, n, f), train_data)
        score = validation_dtw(model, val_data)
        trials.append((cfg, score))
    best = int(np.argmin([s for _, s in trials]))
    return SearchResult(trials, best)
