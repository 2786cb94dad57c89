"""Training loop: standardize, iterate mini-batch epochs of total-loss
backprop with Adam, snapshot the best-validation epoch, report metrics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from fcdsae import network, sparsity
from fcdsae.dataset import SplitDataset, Standardizer
from fcdsae.errors import DomainError
from fcdsae.metrics import ConfusionMatrix, MetricBlock, confusion, metric_block
from fcdsae.network import AdamState, NetworkParams


@dataclass
class TrainConfig:
    topology: tuple[int, ...] = network.DEFAULT_TOPOLOGY
    lr: float = 0.001
    batch_size: int = 64
    max_epochs: int = 15
    seed: int = 0
    sparsity: sparsity.SparsityConfig = field(
        default_factory=sparsity.SparsityConfig)

    def __post_init__(self):
        if self.max_epochs < 1:
            raise DomainError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < math.inf:  # NaN fails too
            raise DomainError(f"lr must be finite and > 0, got {self.lr}")
        if (len(self.topology) < 3 or self.topology[0] != 10
                or self.topology[-1] != 3):
            raise DomainError(
                f"topology must map 10 inputs through at least one hidden "
                f"layer to 3 outputs, got {self.topology}"
            )
        # J = MSE + psi*sum(KL) < max: MSE <= max/3, each KL <= -log(CLAMP_EPS)
        if not math.isfinite(2.0 * self.sparsity.psi * sum(self.topology[1:-1])
                             * -math.log(sparsity.CLAMP_EPS)):
            raise DomainError(f"psi too large, J may overflow: {self.sparsity.psi}")


@dataclass
class TrainReport:
    """Per-epoch trajectory plus the final metric block of the best epoch."""

    train_accuracy: list[float]
    val_accuracy: list[float]
    j_total: list[float]
    mse: list[float]
    best_epoch: int
    final_metrics: MetricBlock
    final_confusion: ConfusionMatrix
    final_mse: float
    mean_hidden_activation: float
    config: TrainConfig
    wall_time_s: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.train_accuracy)

    def epochs_csv(self) -> str:
        lines = ["epoch,train_acc,val_acc,mse"]
        for e in range(self.epochs_run):
            lines.append(f"{e + 1},{self.train_accuracy[e]:.6f},"
                         f"{self.val_accuracy[e]:.6f},{self.mse[e]:.10g}")
        return "\n".join(lines) + "\n"

    def format_text(self) -> str:
        """Deterministic structured report (wall time deliberately excluded
        so identical runs serialize byte-identically)."""
        cfg = self.config
        lines = [
            "FCDSAE training report",
            f"topology: {'-'.join(str(w) for w in cfg.topology)}",
            f"lr: {cfg.lr}  batch_size: {cfg.batch_size}  "
            f"max_epochs: {cfg.max_epochs}  seed: {cfg.seed}",
            f"sparsity: xi={cfg.sparsity.xi} psi={cfg.sparsity.psi} "
            f"clamp_eps={sparsity.CLAMP_EPS}",
            f"best_epoch: {self.best_epoch + 1}",
            f"mean_hidden_activation: {self.mean_hidden_activation:.10g}",
            f"final_one_hot_mse: {self.final_mse:.10g}",
            "",
            "test metrics (validation = test partition; no third split)",
            self.final_metrics.format_table(),
            "",
            "confusion matrix",
            self.final_confusion.to_csv().rstrip("\n"),
            "",
            "epoch trajectory",
            self.epochs_csv().rstrip("\n"),
        ]
        return "\n".join(lines) + "\n"


def one_hot(labels: np.ndarray, n_classes: int = 3) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def predict_batch(params: NetworkParams, std_features: np.ndarray) -> np.ndarray:
    """Argmax class per row; np.argmax already breaks ties to the lowest index."""
    out = network.forward(params, std_features).output
    return np.argmax(out, axis=1)


def _hidden_summaries(trace):
    return [sparsity.average_activation(trace, i)
            for i in range(len(trace.post) - 1)]


def evaluate_total_loss(params: NetworkParams, x: np.ndarray, targets: np.ndarray,
                        cfg: sparsity.SparsityConfig
                        ) -> tuple[np.ndarray, float, float, float]:
    """Argmax predictions, one-hot MSE, J_total and the unclamped mean
    activation over every hidden unit, all from one forward pass."""
    trace = network.forward(params, x)
    mse = network.mse_loss(trace.output, targets)
    summaries = _hidden_summaries(trace)
    mean_activation = float(np.concatenate([s.raw for s in summaries]).mean())
    return (np.argmax(trace.output, axis=1), mse,
            sparsity.total_loss(mse, summaries, cfg), mean_activation)


def _epoch(cfg, epoch, order, x_train, t_train, params, state, grads):
    """One epoch of Adam steps, which update params and state in place, over
    the training rows in `order`, gathered once: the copies die on return.

    A step checks the batch MSE and never computes J = MSE + psi * sum(KL):
    the two are finite together. psi is finite and bounded (TrainConfig), so
    the penalty is finite unless a clamped mean is NaN, and a NaN mean needs
    a NaN hidden activation, which makes every output of its row NaN."""
    scfg, size = cfg.sparsity, cfg.batch_size
    xs, ts = x_train[order], t_train[order]
    for start in range(0, len(xs), size):
        xb, tb = xs[start:start + size], ts[start:start + size]
        trace = network.forward(params, xb)
        if not math.isfinite(network.mse_loss(trace.output, tb)):
            raise FloatingPointError(f"training diverged: non-finite loss at "
                                     f"epoch {epoch + 1}, batch {start // size}")
        rows = [sparsity.penalty_gradient(s, scfg, len(xb))
                for s in _hidden_summaries(trace)] if scfg.psi > 0.0 else None
        network.backward(trace, params, tb, rows, out=grads)
        try:
            network.adam_step(params, grads, state)
        except ValueError as exc:  # a non-finite gradient
            raise FloatingPointError(f"training diverged at epoch {epoch + 1}, "
                                     f"batch {start // size}: {exc}") from None


@np.errstate(all="ignore")  # divergence is reported as a FloatingPointError
def train(cfg: TrainConfig, data: SplitDataset
          ) -> tuple[NetworkParams, Standardizer, TrainReport]:
    """Run the full loop: exactly max_epochs epochs, snapshot parameters at
    the best validation accuracy (earliest on ties). Deterministic per
    (cfg.seed, data)."""
    if not data.train or not data.test:
        raise DomainError("both partitions must be non-empty")
    t0 = time.perf_counter()

    std = Standardizer.fit(data.train.features)
    x_train = std.transform_matrix(data.train.features)
    y_train = data.train.labels
    x_test = std.transform_matrix(data.test.features)
    y_test = data.test.labels
    t_train = one_hot(y_train)

    params = network.init_network(cfg.topology, seed=cfg.seed)
    state = AdamState.for_network(params, lr=cfg.lr)
    grads = params.like(np.empty_like(params.buffer))
    shuffle_rng = np.random.default_rng(cfg.seed + 1)

    hist_train_acc, hist_val_acc, hist_j, hist_mse = [], [], [], []
    best_epoch, best_val, best_params = 0, -1.0, None

    for epoch in range(cfg.max_epochs):
        _epoch(cfg, epoch, shuffle_rng.permutation(len(y_train)), x_train,
               t_train, params, state, grads)
        train_preds, mse_full, j_full, _ = evaluate_total_loss(
            params, x_train, t_train, cfg.sparsity)
        train_acc = float(np.mean(train_preds == y_train))
        val_acc = float(np.mean(predict_batch(params, x_test) == y_test))
        hist_train_acc.append(train_acc)
        hist_val_acc.append(val_acc)
        hist_j.append(j_full)
        hist_mse.append(mse_full)
        if val_acc > best_val:
            best_val, best_epoch = val_acc, epoch
            best_params = params.copy()

    params = best_params
    test_preds, final_mse, _, mean_activation = evaluate_total_loss(
        params, x_test, one_hot(y_test), cfg.sparsity)
    cm = confusion(y_test, test_preds)
    block = metric_block(cm)
    report = TrainReport(
        train_accuracy=hist_train_acc, val_accuracy=hist_val_acc,
        j_total=hist_j, mse=hist_mse, best_epoch=best_epoch,
        final_metrics=block, final_confusion=cm, final_mse=final_mse,
        mean_hidden_activation=mean_activation,
        config=cfg, wall_time_s=time.perf_counter() - t0,
    )
    return params, std, report
