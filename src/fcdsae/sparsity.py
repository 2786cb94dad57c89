"""KL-divergence sparsity penalty on hidden-layer batch-mean activations,
and its analytic gradient for injection into backpropagation."""

import numpy as np

from fcdsae import DomainError

# batch-mean activations are clamped into [CLAMP_EPS, 1 - CLAMP_EPS], which
# keeps the KL terms defined for unbounded ReLU activations
CLAMP_EPS = 1e-6


def _clamp(mean: np.ndarray) -> np.ndarray:
    """Batch means clamped into [CLAMP_EPS, 1 - CLAMP_EPS]; NaN stays NaN."""
    return np.minimum(np.maximum(mean, CLAMP_EPS), 1.0 - CLAMP_EPS)


def average_activation(acts: np.ndarray) -> np.ndarray:
    """Unclamped batch-mean activation of each unit of one hidden layer,
    from its (batch, width) activations."""
    if acts.shape[0] < 1:
        raise DomainError("empty batch")
    return np.add.reduce(acts, axis=0) / acts.shape[0]  # what acts.mean runs


def _kl(xi: float, xi_k: np.ndarray) -> np.ndarray:
    """Elementwise KL divergence between Bernoulli(xi) and Bernoulli(xi_k),
    natural log, clamped at 0 against rounding when xi_k is within an ulp of
    xi. NaN propagates, so a diverged batch still yields a non-finite loss."""
    kl = xi * np.log(xi / xi_k) + (1.0 - xi) * np.log((1.0 - xi) / (1.0 - xi_k))
    return np.maximum(kl, 0.0)


def kl_divergence(xi: float, xi_k: float) -> float:
    """KL divergence between Bernoulli(xi) and Bernoulli(xi_k) for one unit."""
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0,1), got {xi}")
    if not 0.0 < xi_k < 1.0:
        raise DomainError(f"xi_k must lie in (0,1), got {xi_k}")
    return float(_kl(xi, xi_k))


def penalty_gradient(mean: np.ndarray, xi: float, psi: float,
                     batch_size: int) -> np.ndarray:
    """Gradient of the penalty w.r.t. each unit's activation, per sample.

    d/dh of psi*KL(xi || mean(h)) through the batch mean is
    (psi/p) * (-xi/xi_k + (1-xi)/(1-xi_k)), the same for every sample of the
    batch; a clamped mean is a constant, so its gradient is zero (a NaN
    mean differs from its clamp too). Returns the per-unit row, shaped
    (width,).
    """
    xi_k = _clamp(mean)
    per_unit = (psi / batch_size) * (-xi / xi_k + (1.0 - xi) / (1.0 - xi_k))
    return np.where(mean != xi_k, 0.0, per_unit)


def total_loss(mse: float, means: list[np.ndarray], xi: float,
               psi: float) -> float:
    """MSE plus the sparsity penalty: psi times the summed KL divergence
    over all penalized hidden units, at their clamped batch means.
    Bit-identical to the MSE when psi=0: the clamped KL sum is finite, so
    the penalty is exactly +0.0."""
    return mse + psi * float(sum(_kl(xi, _clamp(m)).sum() for m in means))
