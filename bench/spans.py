"""In-memory span tracer for the benchmark's traced run.

Spans are recorded by wrapping public fcdsae functions where their callers
look them up (a module attribute, or a class attribute for methods), so the
package itself carries no tracing code. Each span is (name, start, end,
parent, op): `parent` is the index of the enclosing span or -1, `op` the
index of the benchmark operation the span belongs to. A layer's self time is
its duration minus the durations of its direct children; calls are
synchronous and single-threaded, so children nest fully inside the parent.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter, defaultdict
from time import perf_counter

from fcdsae import cli, dataset, metrics, network, quantized, sparsity, trainer

# (owner, attribute, span name). An owner appears once per place a caller
# looks the function up: trainer imported confusion/metric_block by name.
SPANNED = [
    (dataset, "generate_synthetic", "dataset.generate_synthetic"),
    (dataset, "write_csv", "dataset.write_csv"),
    (dataset, "parse_csv", "dataset.parse_csv"),
    (dataset, "label", "dataset.label"),
    (dataset, "split", "dataset.split"),
    (dataset.Standardizer, "fit", "dataset.Standardizer.fit"),
    (dataset.Standardizer, "transform_matrix",
     "dataset.Standardizer.transform_matrix"),
    (network, "forward", "network.forward"),
    (network, "backward", "network.backward"),
    (network, "adam_step", "network.adam_step"),
    (network, "mse_loss", "network.mse_loss"),
    (network, "load_model", "network.load_model"),
    (network, "save_model", "network.save_model"),
    (sparsity, "average_activation", "sparsity.average_activation"),
    (sparsity, "total_loss", "sparsity.total_loss"),
    (sparsity, "penalty_gradient", "sparsity.penalty_gradient"),
    (trainer, "train", "trainer.train"),
    (trainer, "predict_batch", "trainer.predict_batch"),
    (trainer, "evaluate_total_loss", "trainer.evaluate_total_loss"),
    (trainer, "confusion", "metrics.confusion"),
    (trainer, "metric_block", "metrics.metric_block"),
    (metrics, "confusion", "metrics.confusion"),
    (metrics, "metric_block", "metrics.metric_block"),
    (quantized, "frame_from_features", "quantized.frame_from_features"),
    (quantized, "q_forward", "quantized.q_forward"),
    (quantized, "evaluate_quantized", "quantized.evaluate_quantized"),
    (quantized, "dump_frames", "quantized.dump_frames"),
    (quantized, "quantize_model", "quantized.quantize_model"),
    (quantized, "save_qmodel", "quantized.save_qmodel"),
    (quantized, "load_qmodel", "quantized.load_qmodel"),
    (cli, "main", "cli.main"),
]

# called ~300k times per training run: counted, not spanned, so the trace
# stays small; its time stays in the caller's self time
COUNTED = [
    (sparsity, "kl_divergence", "sparsity.kl_divergence"),
]

OP_SPAN = "bench.op"


class Tracer:
    """Records spans and call counts while installed; restores on uninstall."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.n_ops = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _spanned(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.n_ops)
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, make, name):
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__, name)))
        else:
            setattr(owner, attr, make(raw, name))

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned, name)
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted, name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def op_wrapper(self, fn):
        """`fn` as one benchmark operation: a root span per call."""
        spanned = self._spanned(fn, OP_SPAN)

        def op():
            try:
                return spanned()
            finally:
                self.n_ops += 1
        return op

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time and call count,
        over the spans inside benchmark operations."""
        child_time = defaultdict(float)
        inside = []
        for name, t0, t1, parent, _ in self.spans:
            inside.append(inside[parent] if parent >= 0 else name == OP_SPAN)
            if parent >= 0:
                child_time[parent] += t1 - t0
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            if not inside[i]:
                continue
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child_time[i]
            calls[name] += 1
        calls.update(self.counts)
        return total, self_time, calls

    def write(self, path) -> None:
        """All spans as tab-separated text, start/end relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\tworkload\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t"
                         f"{parent}\t{op}\t{self.workload}\n")
