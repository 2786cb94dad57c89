"""Dense feed-forward network in float64: forward pass, MSE loss,
backpropagation and Adam updates, plus the plain-text model file format."""

from dataclasses import dataclass

import numpy as np

from fcdsae import DomainError, ParseError, modelfile
from fcdsae.dataset import N_FEATURES, Standardizer, number, write_files
from fcdsae.metrics import N_CLASSES

DEFAULT_TOPOLOGY = (N_FEATURES, 32, 16, N_CLASSES)

MODEL_MAGIC = "FCDSAE 1"


@dataclass
class LayerParams:
    """One dense layer: weights shaped (fan_out, fan_in), biases (fan_out,)."""

    weights: np.ndarray
    biases: np.ndarray


class NetworkParams:
    """Ordered dense layers; every layer uses ReLU (hidden and output).

    The layers are views into `buffer`, one flat float64 vector of each
    layer's weights (row-major) then biases, in layer order. The constructor
    checks the shapes, fixes `topology`, and copies the given layers into a
    new buffer, so `copy` is the constructor over this network's layers."""

    def __init__(self, layers: list[LayerParams]):
        shapes = [(np.shape(l.weights), np.shape(l.biases)) for l in layers]
        for i, (w, b) in enumerate(shapes):
            if len(w) != 2:
                raise DomainError(f"layer {i} weights must be a 2-D matrix")
            if b != w[:1]:
                raise DomainError(f"layer {i} bias shape {b} does not match "
                                  f"fan_out {w[0]}")
            if i and w[1] != shapes[i - 1][0][0]:
                raise DomainError(f"layer {i} fan_in {w[1]} != layer "
                                  f"{i - 1} fan_out {shapes[i - 1][0][0]}")
        self.topology = (shapes[0][0][1],) + tuple(w[0] for w, _ in shapes)
        self.buffer = np.concatenate([np.ravel(t) for l in layers
                                      for t in (l.weights, l.biases)],
                                     dtype=np.float64)
        self.layers, end = [], 0
        for w, _ in shapes:
            start, mid = end, end + w[0] * w[1]
            end = mid + w[0]
            self.layers.append(LayerParams(self.buffer[start:mid].reshape(w),
                                           self.buffer[mid:end]))

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.layers)


def init_network(seed: int = 0) -> NetworkParams:
    """DEFAULT_TOPOLOGY, He-uniform weights scaled by fan_in, biases zero."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(DEFAULT_TOPOLOGY[:-1], DEFAULT_TOPOLOGY[1:]):
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(LayerParams(w, np.zeros(fan_out)))
    return NetworkParams(layers)


def forward(params: NetworkParams, batch: np.ndarray) -> list[np.ndarray]:
    """Run an (N, fan_in) float64 batch through every layer. Returns
    `[batch, h1, ..., output]`: the batch, then each layer's post-ReLU
    activations. ReLU follows every layer, the output layer too."""
    if batch.ndim != 2 or batch.shape[1] != params.topology[0]:
        raise DomainError(f"batch shape {batch.shape} does not match "
                          f"layer 0 fan_in {params.topology[0]}")
    acts, x = [batch], batch
    for layer in params.layers:
        # max(x @ W.T + b, 0) with one temporary per layer, not three
        x = x @ layer.weights.T
        x += layer.biases
        np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


def mse_loss(output: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over all batch entries and output components."""
    if output.shape != targets.shape:
        raise DomainError(f"output shape {output.shape} != target shape "
                          f"{targets.shape}")
    diff = output - targets
    return float(np.add.reduce(diff * diff, axis=None) / diff.size)


def backward(acts: list[np.ndarray], params: NetworkParams, targets: np.ndarray,
             sparsity_rows: list[np.ndarray] | None,
             out: NetworkParams) -> None:
    """Gradients of the total loss w.r.t. every weight and bias, written
    into `out`, which has the layout of `params`; `acts` is what `forward`
    returned.

    `sparsity_rows`, unless None, holds one `sparsity.penalty_gradient` row
    per hidden layer, added to every sample's post-activation delta before
    the delta is pushed through the ReLU. The ReLU subgradient at exactly 0
    is 0, so the mask `post > 0` equals `pre > 0` (NaN fails both)."""
    output = acts[-1]
    if output.shape != targets.shape:
        raise DomainError(f"output shape {output.shape} != target shape "
                          f"{targets.shape}")
    n_layers = len(params.layers)
    # dJ/d(post) at the output layer for mean-over-all-entries MSE
    delta_post = 2.0 * (output - targets) / output.size
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1 and sparsity_rows is not None:
            delta_post += sparsity_rows[i]
        delta_pre = np.multiply(delta_post, acts[i + 1] > 0.0, out=delta_post)
        np.matmul(delta_pre.T, acts[i], out=out.layers[i].weights)
        np.add.reduce(delta_pre, axis=0, out=out.layers[i].biases)
        if i > 0:
            delta_post = delta_pre @ params.layers[i].weights


# Adam decay rates and denominator guard (Kingma & Ba defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment buffers for one network, aligned with NetworkParams.buffer."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    lr: float
    step_count: int = 0

    @classmethod
    def for_network(cls, params: NetworkParams, lr: float) -> "AdamState":
        return cls(first_moment=np.zeros_like(params.buffer),
                   second_moment=np.zeros_like(params.buffer), lr=lr)


def adam_step(params: NetworkParams, grads: NetworkParams,
              state: AdamState) -> None:
    """One bias-corrected Adam update of the whole parameter buffer, in
    place; elementwise, so every tensor gets its per-tensor bits. A gradient
    with a non-finite entry is rejected, naming its first such layer, and
    the step changes nothing."""
    g = grads.buffer
    if not np.isfinite(g).all():
        bad = next(i for i, l in enumerate(grads.layers)
                   if not np.isfinite(np.append(l.weights, l.biases)).all())
        raise DomainError(f"non-finite gradient in layer {bad}; update rejected")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v = state.first_moment, state.second_moment
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    params.buffer -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def model_bytes(params: NetworkParams, standardizer) -> bytes:
    """The versioned plain-text model file, with the frozen standardization
    statistics as STDMEAN/STDSTD records, so a model file evaluates as is."""
    records = [("STDMEAN", standardizer.mean), ("STDSTD", standardizer.std)]
    return modelfile.encode(MODEL_MAGIC, records,
                            [(l.weights, l.biases) for l in params.layers], _fmt)


def save_model(params: NetworkParams, path, standardizer) -> None:
    write_files([(path, [model_bytes(params, standardizer)])])


def load_model(path):
    """Read a model file; returns (NetworkParams, Standardizer)."""
    records, layers = modelfile.read(
        path, MODEL_MAGIC, {"STDMEAN": N_FEATURES, "STDSTD": N_FEATURES},
        DEFAULT_TOPOLOGY, number)
    params = NetworkParams([LayerParams(np.array(w), np.array(b))
                            for w, b in layers])
    if min(records["STDSTD"]) <= 0:
        raise ParseError(f"{path}: every STDSTD value must be > 0")
    return params, Standardizer(mean=np.array(records["STDMEAN"]),
                                std=np.array(records["STDSTD"]))
