"""Confusion matrix and the aggregated metric block (support-weighted
precision/recall/F1; the reported "MSE" is the misclassification rate)."""

from dataclasses import dataclass

import numpy as np

from fcdsae import DomainError

N_CLASSES = 3


@dataclass
class MetricBlock:
    """Accuracy, support-weighted precision/recall/F1, and the error rate
    (1 - accuracy), which is what the reference results tabulate as MSE."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    mse: float

    def format_table(self) -> str:
        rows = [("Accuracy", self.accuracy), ("Precision", self.precision),
                ("Recall", self.recall), ("F1-Score", self.f1),
                ("MSE", self.mse)]
        return "\n".join(f"{name:<10} {value:.4f}" for name, value in rows)


def confusion(true_labels, predicted_labels) -> np.ndarray:
    """Count (true, predicted) pairs, lists or arrays, into a (3, 3) int64
    matrix; rows index the true class, columns the predicted class."""
    t, p = np.asarray(true_labels), np.asarray(predicted_labels)
    if len(t) != len(p):
        raise DomainError("label lists must have equal length")
    valid = np.isin(t, range(N_CLASSES)) & np.isin(p, range(N_CLASSES))
    if not valid.all():
        i = np.argmin(valid)
        raise DomainError(f"label out of range: true={t[i]}, pred={p[i]}")
    # the cast is exact for labels in range, and lets `[]` (float64) through
    counts = np.bincount((N_CLASSES * t + p).astype(np.int64),
                         minlength=N_CLASSES * N_CLASSES)
    return counts.reshape(N_CLASSES, N_CLASSES)


def confusion_csv(counts: np.ndarray) -> str:
    """A `true\\pred,0,1,2` header, then one line per true class."""
    header = "true\\pred," + ",".join(str(c) for c in range(N_CLASSES))
    rows = [f"{t}," + ",".join(str(int(v)) for v in counts[t])
            for t in range(N_CLASSES)]
    return "\n".join([header] + rows) + "\n"


def metric_block(counts: np.ndarray) -> MetricBlock:
    """Support-weighted precision, recall and F1 of the confusion matrix.
    A class never predicted has precision 0, one with no support weight 0.
    Each (w * x).sum() adds the 3 classes in order, as the loop in
    tests/oracles.recount_metrics does; w @ x may reorder or fuse adds."""
    total = int(counts.sum())
    if total == 0:
        raise DomainError("empty confusion matrix")
    accuracy = float(np.trace(counts)) / total
    supports, predicted = counts.sum(axis=1), counts.sum(axis=0)
    tp, z = np.diagonal(counts), np.zeros(N_CLASSES)
    prec = np.divide(tp, predicted, out=z.copy(), where=predicted > 0)
    rec = np.divide(tp, supports, out=z.copy(), where=supports > 0)
    f1 = np.divide(2.0 * prec * rec, prec + rec, out=z, where=prec + rec > 0)
    w = supports / total
    precision, recall, f1 = ((w * x).sum() for x in (prec, rec, f1))
    return MetricBlock(accuracy=accuracy, precision=precision, recall=recall,
                       f1=f1, mse=1.0 - accuracy)
