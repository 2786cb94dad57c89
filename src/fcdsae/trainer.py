"""Training loop: standardize, iterate mini-batch epochs of total-loss
backprop with Adam, snapshot the best-validation epoch, report metrics."""

import math
from dataclasses import dataclass

import numpy as np

from fcdsae import DomainError, metrics, network, sparsity
from fcdsae.dataset import SplitDataset, Standardizer
from fcdsae.metrics import MetricBlock, confusion, metric_block
from fcdsae.network import AdamState, NetworkParams


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 64
    max_epochs: int = 15
    seed: int = 0
    xi: float = 0.05  # sparsity target
    psi: float = 1e-3  # sparsity weight

    def __post_init__(self):
        if self.max_epochs < 1:
            raise DomainError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < math.inf:  # NaN fails too
            raise DomainError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 < self.xi < 1.0:
            raise DomainError(f"xi must lie in (0,1), got {self.xi}")
        if not 0.0 <= self.psi < math.inf:  # NaN fails too
            raise DomainError(f"psi must be finite and >= 0, got {self.psi}")
        # J = MSE + psi*sum(KL) < max: MSE <= max/3, each KL <= -log(CLAMP_EPS)
        hidden_units = sum(network.DEFAULT_TOPOLOGY[1:-1])
        if not math.isfinite(2.0 * self.psi * hidden_units
                             * -math.log(sparsity.CLAMP_EPS)):
            raise DomainError(f"psi too large, J may overflow: {self.psi}")


@dataclass
class TrainReport:
    """Per-epoch trajectory plus the final metric block of the best epoch."""

    train_accuracy: list[float]
    val_accuracy: list[float]
    j_total: list[float]
    mse: list[float]
    best_epoch: int
    final_metrics: MetricBlock
    final_confusion: np.ndarray  # (3, 3) counts, true class by row
    final_mse: float
    mean_hidden_activation: float
    config: TrainConfig

    def format_text(self) -> str:
        """Deterministic structured report: identical runs, identical bytes."""
        cfg = self.config
        lines = [
            "FCDSAE training report",
            f"topology: {'-'.join(map(str, network.DEFAULT_TOPOLOGY))}",
            f"lr: {cfg.lr}  batch_size: {cfg.batch_size}  "
            f"max_epochs: {cfg.max_epochs}  seed: {cfg.seed}",
            f"sparsity: xi={cfg.xi} psi={cfg.psi} clamp_eps={sparsity.CLAMP_EPS}",
            f"best_epoch: {self.best_epoch + 1}",
            f"mean_hidden_activation: {self.mean_hidden_activation:.10g}",
            f"final_one_hot_mse: {self.final_mse:.10g}",
            "",
            "test metrics (validation = test partition; no third split)",
            self.final_metrics.format_table(),
            "",
            "confusion matrix",
            metrics.confusion_csv(self.final_confusion).rstrip("\n"),
            "",
            "epoch trajectory",
            "epoch,train_acc,val_acc,mse",
        ]
        lines += [f"{e},{t:.6f},{v:.6f},{m:.10g}" for e, (t, v, m) in enumerate(
            zip(self.train_accuracy, self.val_accuracy, self.mse), 1)]
        return "\n".join(lines) + "\n"


def one_hot(labels: np.ndarray) -> np.ndarray:
    return np.eye(metrics.N_CLASSES)[labels]


# Rows per evaluation block, which bounds an evaluation's memory. OpenBLAS
# gives blocks this large the bits of one product over all rows (64 did not).
_EVAL_ROWS = 1024


@np.errstate(all="ignore")  # an overflow or a NaN is counted, not warned
def _walk(params: NetworkParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """The outputs of network.forward per block of _EVAL_ROWS rows, the last
    with the rest, and each hidden layer's column sums, carried in the next
    block's first row: np.add.reduce over axis 0 adds one row after another,
    so the sums have the bits of one reduce over all rows. A DomainError if
    a row is not finite in some layer; as activations are >= 0 or NaN, a
    block whose sums are not finite counts its rows on a fresh forward."""
    outputs, sums, bad = [], [], 0
    for block in np.split(x, range(_EVAL_ROWS, len(x) - _EVAL_ROWS + 1,
                                   _EVAL_ROWS)):
        *hidden, out = network.forward(params, block)[1:]
        for h, s in zip(hidden, sums):
            h[0] += s
        sums = [np.add.reduce(h, axis=0) for h in hidden]
        if not math.isfinite(out.sum() + sum(s.sum() for s in sums)):
            rows = np.hstack(network.forward(params, block)[1:])
            bad += int((~np.isfinite(rows)).any(axis=1).sum())
        outputs.append(out)
    if bad:
        raise DomainError(f"non-finite output on {bad} of {len(x)} rows")
    return np.concatenate(outputs), sums


def predict_batch(params: NetworkParams, std_features: np.ndarray) -> np.ndarray:
    """Argmax class per row; np.argmax already breaks ties to the lowest
    index. _walk refuses a row with a non-finite value."""
    return np.argmax(_walk(params, std_features)[0], axis=1)


def evaluate_total_loss(params: NetworkParams, x: np.ndarray, targets: np.ndarray,
                        cfg: TrainConfig
                        ) -> tuple[np.ndarray, float, float, float]:
    """Argmax predictions, one-hot MSE, J_total and the unclamped mean
    activation over every hidden unit, all from one _walk over the rows."""
    if len(x) < 1:
        raise DomainError("empty batch")
    output, sums = _walk(params, x)
    mse = network.mse_loss(output, targets)
    means = [s / len(x) for s in sums]
    return (np.argmax(output, axis=1), mse,
            sparsity.total_loss(mse, means, cfg.xi, cfg.psi),
            float(np.concatenate(means).mean()))


def _epoch(cfg, epoch, order, x_train, t_train, params, state, grads):
    """One epoch of Adam steps, which update params and state in place, over
    the training rows in `order`, gathered once: the copies die on return.

    A step checks the batch MSE and never computes J = MSE + psi * sum(KL):
    the two are finite together. psi is finite and bounded (TrainConfig), so
    the penalty is finite unless a clamped mean is NaN, and a NaN mean needs
    a NaN hidden activation, which makes every output of its row NaN."""
    size = cfg.batch_size
    xs, ts = x_train[order], t_train[order]
    for start in range(0, len(xs), size):
        xb, tb = xs[start:start + size], ts[start:start + size]
        acts = network.forward(params, xb)
        if not math.isfinite(network.mse_loss(acts[-1], tb)):
            raise FloatingPointError(f"training diverged: non-finite loss at "
                                     f"epoch {epoch + 1}, batch {start // size}")
        rows = [sparsity.penalty_gradient(sparsity.average_activation(h),
                                          cfg.xi, cfg.psi, len(xb))
                for h in acts[1:-1]] if cfg.psi > 0.0 else None
        network.backward(acts, params, tb, rows, out=grads)
        try:
            network.adam_step(params, grads, state)
        except DomainError as exc:  # a non-finite gradient
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

    std = Standardizer.fit(data.train.features)
    x_train = std.transform_matrix(data.train.features)
    y_train = data.train.labels
    x_test = std.transform_matrix(data.test.features)
    y_test = data.test.labels
    t_train, t_test = one_hot(y_train), one_hot(y_test)

    params = network.init_network(seed=cfg.seed)  # DEFAULT_TOPOLOGY
    state = AdamState.for_network(params, cfg.lr)
    grads = params.copy()  # backward overwrites every value
    shuffle_rng = np.random.default_rng(cfg.seed + 1)

    hist_train_acc, hist_val_acc, hist_j, hist_mse = [], [], [], []
    best_epoch, best_val, best_params, best_eval = 0, -1.0, None, None

    for epoch in range(cfg.max_epochs):
        _epoch(cfg, epoch, shuffle_rng.permutation(len(y_train)), x_train,
               t_train, params, state, grads)
        try:  # the rows the model trained on: a non-finite one is divergence
            train_preds, mse_full, j_full, _ = evaluate_total_loss(
                params, x_train, t_train, cfg)
        except DomainError as exc:
            raise FloatingPointError(f"training diverged at epoch {epoch + 1}: "
                                     f"{exc}") from None
        test_eval = evaluate_total_loss(params, x_test, t_test, cfg)
        train_acc = float(np.mean(train_preds == y_train))
        val_acc = float(np.mean(test_eval[0] == y_test))
        hist_train_acc.append(train_acc)
        hist_val_acc.append(val_acc)
        hist_j.append(j_full)
        hist_mse.append(mse_full)
        if val_acc > best_val:
            best_val, best_epoch, best_eval = val_acc, epoch, test_eval
            best_params = params.copy()

    test_preds, final_mse, _, mean_activation = best_eval
    cm = confusion(y_test, test_preds)
    block = metric_block(cm)
    return best_params, std, TrainReport(
        train_accuracy=hist_train_acc, val_accuracy=hist_val_acc,
        j_total=hist_j, mse=hist_mse, best_epoch=best_epoch,
        final_metrics=block, final_confusion=cm, final_mse=final_mse,
        mean_hidden_activation=mean_activation, config=cfg)
