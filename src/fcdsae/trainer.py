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
        if self.lr <= 0:
            raise DomainError(f"lr must be > 0, got {self.lr}")
        if (len(self.topology) < 3 or self.topology[0] != 10
                or self.topology[-1] != 3):
            raise DomainError(
                f"topology must map 10 inputs through at least one hidden "
                f"layer to 3 outputs, got {self.topology}"
            )


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


def train(cfg: TrainConfig, data: SplitDataset
          ) -> tuple[NetworkParams, Standardizer, TrainReport]:
    """Run the full loop: exactly max_epochs epochs, snapshot parameters at
    the best validation accuracy (earliest on ties). Deterministic per
    (cfg.seed, data)."""
    if not data.train or not data.test:
        raise DomainError("both partitions must be non-empty")
    t0 = time.perf_counter()

    std = Standardizer.fit(data.train)
    x_train = std.transform_matrix(data.train)
    y_train = np.array([e.class_label for e in data.train])
    x_test = std.transform_matrix(data.test)
    y_test = np.array([e.class_label for e in data.test])
    t_train = one_hot(y_train)

    params = network.init_network(cfg.topology, seed=cfg.seed)
    state = AdamState.for_network(params, lr=cfg.lr)
    grads = params.like(np.empty_like(params.buffer))
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    scfg = cfg.sparsity

    hist_train_acc, hist_val_acc, hist_j, hist_mse = [], [], [], []
    best_epoch, best_val, best_params = 0, -1.0, None

    n = len(data.train)
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, tb = x_train[idx], t_train[idx]
            trace = network.forward(params, xb)
            mse = network.mse_loss(trace.output, tb)
            summaries = _hidden_summaries(trace)
            j = sparsity.total_loss(mse, summaries, scfg)
            if not math.isfinite(j):
                raise FloatingPointError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}, "
                    f"batch {start // cfg.batch_size}"
                )
            rows = None
            if scfg.psi > 0.0:
                rows = [sparsity.penalty_gradient(s, scfg, len(idx))
                        for s in summaries]
            network.backward(trace, params, tb, rows, out=grads)
            params, state = network.adam_step(params, grads, state)

        train_preds, mse_full, j_full, _ = evaluate_total_loss(
            params, x_train, t_train, scfg)
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
        params, x_test, one_hot(y_test), scfg)
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
