"""fcdsae benchmark: one workload, one process, closed loop with one caller.

    python3 bench/run.py --workload train-ref --seed 42 --seconds 14 --trace 0

Run from the repository root; the package is imported from ./src. The
workloads are described in bench/workloads.py and BENCHMARK.json.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s      import plus the median of three set-ups (input generation and,
               where the workload needs it, reference-model training);
  op_p50_ms    median wall time of one workload operation: a train command,
               a Q8.8 + Q2.30 golden check, one streamed frame, or a
               gen-data + eval pair;
  peak_rss_mb  peak resident memory of the process.
Times are scaled to a reference host speed (see hostspeed.py); the times as
measured are in the diagnostics. --trace 1 spends half the time untraced and
half traced, reports the per-layer split of the traced operations and the
tracing overhead, and writes every span to .bench-out/trace-<workload>.tsv.gz.

Either way every output is checked. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line before
it holds the environment, computed counts, accuracy, error rate, output
digests and other diagnostics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench-out"
SETUPS = 3

# per-layer metric -> (span names summed, what is summed, unit); every value
# is per benchmark operation, the unit op_p50_ms times
PER_LAYER = {
    "dataset.generate_synthetic_s": (["dataset.generate_synthetic"], "total", "s"),
    "dataset.write_csv_s": (["dataset.write_csv"], "total", "s"),
    "dataset.parse_csv_s": (["dataset.parse_csv"], "total", "s"),
    "dataset.label_s": (["dataset.label"], "total", "s"),
    "dataset.split_s": (["dataset.split"], "total", "s"),
    "dataset.standardize_s": (["dataset.Standardizer.fit",
                               "dataset.Standardizer.transform_matrix"],
                              "total", "s"),
    "network.forward_s": (["network.forward"], "total", "s"),
    "network.forward.calls": (["network.forward"], "calls", "count"),
    "network.backward_s": (["network.backward"], "total", "s"),
    "network.adam_step_s": (["network.adam_step"], "total", "s"),
    "network.mse_loss_s": (["network.mse_loss"], "total", "s"),
    "network.load_model_s": (["network.load_model"], "total", "s"),
    "network.save_model_s": (["network.save_model"], "total", "s"),
    "sparsity.average_activation_s": (["sparsity.average_activation"], "total", "s"),
    "sparsity.total_loss_s": (["sparsity.total_loss"], "total", "s"),
    "sparsity.penalty_gradient_s": (["sparsity.penalty_gradient"], "total", "s"),
    "sparsity.kl_divergence.calls": (["sparsity.kl_divergence"], "calls", "count"),
    "trainer.train_s": (["trainer.train"], "total", "s"),
    "trainer.train.self_s": (["trainer.train"], "self", "s"),
    "trainer.predict_batch_s": (["trainer.predict_batch"], "total", "s"),
    "trainer.evaluate_total_loss_s": (["trainer.evaluate_total_loss"], "total", "s"),
    "quantized.frame_from_features_s": (["quantized.frame_from_features"],
                                        "total", "s"),
    "quantized.q_forward_s": (["quantized.q_forward"], "total", "s"),
    "quantized.q_forward.calls": (["quantized.q_forward"], "calls", "count"),
    "quantized.evaluate_quantized.self_s": (["quantized.evaluate_quantized"],
                                            "self", "s"),
    "quantized.dump_frames.self_s": (["quantized.dump_frames"], "self", "s"),
    "quantized.quantize_model_s": (["quantized.quantize_model"], "total", "s"),
    "quantized.save_qmodel_s": (["quantized.save_qmodel"], "total", "s"),
    "quantized.load_qmodel_s": (["quantized.load_qmodel"], "total", "s"),
    "metrics.confusion_s": (["metrics.confusion"], "total", "s"),
    "metrics.metric_block_s": (["metrics.metric_block"], "total", "s"),
    "cli.main.self_s": (["cli.main"], "self", "s"),
    "bench.op_s": (["bench.op"], "total", "s"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        p.error("--seed must be in [0, 2**32)")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def blas_threads() -> str:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads(),
            "seed": seed}


def measure(wl, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
    """Closed loop: run ops back to back until `seconds` have elapsed; each
    op's output is recorded and digested outside its timed interval.
    Returns the op durations at reference host speed and as measured."""
    op = tracer.op_wrapper(wl.op) if tracer else wl.op
    intervals = []
    gc.collect()  # every run starts timing from the same heap state
    with HostSpeed(wl.op_kernel) as speed:
        start = perf_counter()
        while True:
            try:
                result, t0, t1, net = speed.interval(op)
                intervals.append((t0, t1, net))
                wl.record(result)
            except Exception:
                t1 = perf_counter()
                wl.attempted += wl.items_per_op
                wl.fail(wl.items_per_op, traceback.format_exc(limit=3))
            if t1 - start >= seconds:
                break
    return speed.scale(intervals), [net for _, _, net in intervals]


def timed_setups(wl) -> list[float]:
    with HostSpeed(wl.setup_kernel) as speed:
        intervals = [speed.interval(wl.setup)[1:] for _ in range(SETUPS)]
    return speed.scale(intervals)


def percentiles_ms(durations: list[float]) -> dict:
    """Median plus the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    ds = sorted(durations)
    out = {"n": len(ds), "p50": statistics.median(ds) * 1e3}
    for name, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(ds) * (1 - q) >= 10:
            out[name] = ds[min(len(ds) - 1, math.ceil(q * len(ds)) - 1)] * 1e3
    return out


def layer_metrics(tracer, speed: float, untraced: list[float],
                  traced: list[float]) -> dict:
    """Per-op layer figures; times scaled by `speed`, the traced ops' factor
    from measured to reference host speed."""
    total, self_time, calls = tracer.totals()
    sums = {"total": total, "self": self_time, "calls": calls}
    n = max(tracer.n_ops, 1)
    out = {}
    for metric, (names, kind, unit) in PER_LAYER.items():
        value = sum(sums[kind].get(name, 0) for name in names) / n
        out[metric] = {"value": value * speed if unit == "s" else value,
                       "unit": unit}
    overhead = statistics.median(traced) - statistics.median(untraced)
    out["trace_overhead"] = {"value": overhead * 1e3, "unit": "ms"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fcdsae" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no fcdsae source tree (src/fcdsae, "
              "tests/oracles.py)", file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fcdsae.cli  # noqa: F401  (the import is part of set-up)
    from spans import Tracer
    from workloads import WORKLOADS, load_oracle
    import_s = perf_counter() - t0

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload](args.seed, load_oracle(ROOT))

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)  # CLI paths stay relative, so outputs are path-independent
    try:
        setup_runs = timed_setups(wl)
        if args.trace:
            untraced, _ = measure(wl, args.seconds / 2)
            tracer = Tracer(args.workload)
            tracer.install()
            try:
                durations, raw = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            durations, raw = measure(wl, args.seconds)
        if durations:
            wl.check()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)

    if not durations:
        print("error: no operation succeeded:\n" + "\n".join(wl.problems),
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(tracer, sum(durations) / sum(raw),
                                untraced, durations)
        tracer.write(OUT_DIR / f"trace-{args.workload}.tsv.gz")
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_runs),
                        "unit": "s"},
            "op_p50_ms": {"value": statistics.median(durations) * 1e3,
                          "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    diagnostics = {
        "workload": args.workload, "trace": args.trace,
        "env": environment(args.seed),
        "computed": wl.computed_counts(),
        "op": wl.unit, "op_ms": percentiles_ms(durations),
        "op_ms_as_measured": percentiles_ms(raw),
        "host_speed": sum(raw) / sum(durations),
        "items_per_s_as_measured": wl.items_per_op * len(raw) / sum(raw),
        "import_s": import_s, "setup_runs_s": setup_runs,
        "accuracy": wl.accuracy,
        "error_rate": wl.failed / max(wl.attempted, 1),
        "digests": wl.digests, "problems": wl.problems,
    } | wl.extra()
    print(json.dumps(diagnostics))
    failed = min(wl.failed, wl.attempted)
    print(json.dumps({"correct": failed == 0, "attempted": wl.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
