"""The four benchmark workloads.

Each workload drives fcdsae from outside: through `fcdsae.cli.main`
in-process where a command exists, through the public module functions
where none does. Functions are looked up on their module at call time, so
the traced run's wrappers see every call.

A workload has four methods:
  setup()  builds its inputs from the seed (repeated; the last one is kept);
  op()     one timed operation, closed loop with one caller;
  record() checks and digests what op() produced, outside the timed region;
  check()  the untimed correctness gates, once after the timed loop.
It counts attempted and failed operations, each one CLI command or one
frame. At seed 42 every digest must equal the frozen reference below; at
other seeds every op must reproduce the first op's digests, and the digests
are printed so two commits can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from pathlib import Path
from time import perf_counter

import hostspeed
from fcdsae import cli, dataset, network, quantized, trainer
from fcdsae.quantized import INPUT_FORMAT, SCALE_FORMAT, QFormat

REFERENCE_N = 36363
REFERENCE_SEED = 42
EPOCHS = 15
BATCH = 64
STREAM_N = 20000
GOLDEN_FORMATS = (QFormat.parse("Q8.8"), QFormat.parse("Q2.30"))
SATURATING_FORMAT = QFormat.parse("Q3.5")
ORACLE_SAMPLE = 1000

# Outputs of the frozen reference run (seed 42) at the commit that defined
# this benchmark. A change that moves any of them changed results.
EXPECTED_42 = {
    "float_accuracy": "0.9181",
    "Q8.8 accuracy": "0.9183",
    "Q2.30 accuracy": "0.9181",
    "Q8.8 saturations": "0",
    "Q2.30 saturations": "0",
    "Q3.5 saturations by layer": "0 0 109 0",
    "data.csv": "9342a5a9e520a9e5a176a4ae61325e6887197fee37100f8e5017452bb7f7d8dc",
    "model.txt": "7a190a65b07b71f92f1c2022c579f4c381637797d2741f53c897a2f9fa8cb28f",
    "report.txt": "e495df033753a66cf04a9f78fc52c57a94dfccccf5d3c325053e96b3ad31a3d5",
    "reference model.txt":
        "a3c2d298af65113d93786d9b79ed52b550fe1d7db78b9bc750f314727df05ef8",
    "model-Q8.8.qtxt":
        "fb81f0a45a3df213473882ab2ae68bdb58c58296dfe784d99bd53ac7cd5fe965",
    "model-Q2.30.qtxt":
        "302a0da61a3727af71a7c030c8c7cf298d56b96199be69c4b117d0aad76ab408",
    "Q8.8 frames": "8cf82a17defa6f428b11446839e0fabceec472a9ec6ef0ebebc37f72c5a8764b",
    "Q2.30 frames": "e29fb5a35d8e7648f456a15c3cc27dd460e50d5bf273900a34dd5b0e51499206",
    "Q3.5 frames": "c0971b079f8ad4766e9ef01cea2dba428f3e0b7ddc0bb8e3cfb7622554b96242",
    "stream frames":
        "493ddfcffa83be67df7c39d765ac2c80ce9de0ba4ed2473f60ddb88a0d348109",
    "gen-data stdout":
        "503393d22977b4874a1d818e12a64fc01a2cf1ead187ab3e39c37117995997bd",
    "eval stdout": "8d0d49904249b722e37c4604ec114ed7594b253aefd69e9300a4e76e3058fd43",
}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    return sha256(Path(path).read_bytes())


_ACCURACY_LINE = re.compile(r"^Accuracy\s+([0-9.]+)$", re.MULTILINE)


def table_accuracy(text: str) -> str:
    """The 4-decimal accuracy of a metric table (report.txt or eval output)."""
    m = _ACCURACY_LINE.search(text)
    return m.group(1) if m else "missing"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def load_oracle(root: Path):
    """tests/oracles.scalar_q_forward: the independent scalar interpreter."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "fcdsae_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scalar_q_forward


class Workload:
    name = ""
    unit = ""          # what one op is, for the diagnostics
    items_per_op = 1   # operations (CLI commands or frames) in one op
    # calibration kernels (see hostspeed) matching the op's and the set-up's work
    op_kernel = staticmethod(hostspeed.training_step)
    setup_kernel = staticmethod(hostspeed.training_step)

    def __init__(self, seed: int, oracle):
        self.seed = seed
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.accuracy = float("nan")

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def expect(self, key: str, got: str, n: int) -> None:
        """At seed 42, compare against the frozen reference; always record."""
        self.digests[key] = got
        want = EXPECTED_42.get(key)
        if self.seed == REFERENCE_SEED and want is not None and got != want:
            self.fail(n, f"{key}: got {got}, frozen reference {want}")

    def agree(self, key: str, got: str, n: int) -> None:
        """Every op of a run must reproduce the first op's output."""
        first = self.digests.setdefault(key, got)
        if got != first:
            self.fail(n, f"{key}: op output {got} differs from first {first}")

    def computed_counts(self) -> dict:
        return {}

    def extra(self) -> dict:
        return {}


class _ReferenceModel:
    """Set-up shared by the workloads that need the reference model: data at
    the seed, a 3:1 split, 15 epochs of training, model.txt round trip."""

    def build_reference(self):
        records = dataset.generate_synthetic(REFERENCE_N, self.seed)
        data = dataset.split([dataset.label(r) for r in records], seed=self.seed)
        params, std, report = trainer.train(
            trainer.TrainConfig(seed=self.seed), data)
        network.save_model(params, "model.txt", standardizer=std)
        self.params, self.std = network.load_model("model.txt")
        self.float_accuracy = f"{report.final_metrics.accuracy:.4f}"
        return data

    def check_reference(self):
        self.attempted += 1
        self.expect("float_accuracy", self.float_accuracy, 1)
        self.expect("reference model.txt", file_sha256("model.txt"), 1)


class TrainRef(Workload):
    """`fcdsae train` on the reference CSV: 15 epochs, batch 64."""

    name = "train-ref"
    unit = "train command"
    setup_kernel = staticmethod(hostspeed.csv_rows)

    def setup(self):
        records = dataset.generate_synthetic(REFERENCE_N, self.seed)
        dataset.write_csv(records, "data.csv")

    def op(self):
        return run_cli(["train", "--data", "data.csv", "--seed", str(self.seed),
                        "--epochs", str(EPOCHS), "--batch", str(BATCH),
                        "--out-model", "model.txt", "--out-report", "report.txt"])

    def record(self, result):
        code, out = result
        self.attempted += 1
        if code != 0:
            self.fail(1, f"train exited {code}: {out[-300:]}")
            return
        report = Path("report.txt").read_text()
        self.accuracy = float(table_accuracy(report))
        self.agree("model.txt", file_sha256("model.txt"), 1)
        self.agree("report.txt", sha256(report), 1)
        self.agree("float_accuracy", table_accuracy(report), 1)

    def check(self):
        self.attempted += 1
        self.expect("data.csv", file_sha256("data.csv"), 1)
        for key in ("model.txt", "report.txt", "float_accuracy"):
            if key in self.digests:
                self.expect(key, self.digests[key], 1)

    def computed_counts(self):
        n_train = (3 * REFERENCE_N) // 4
        batches = -(-n_train // BATCH)
        return {"train_rows": n_train, "batches_per_epoch": batches,
                "adam_steps": batches * EPOCHS}


class GoldenBatch(_ReferenceModel, Workload):
    """The hardware check: per format, quantize the reference model, evaluate
    the 9,091 test frames, dump them."""

    name = "golden-batch"
    unit = "golden check (Q8.8 and Q2.30)"
    op_kernel = staticmethod(hostspeed.fixed_point_frame)

    def setup(self):
        data = self.build_reference()
        self.test = data.test
        self.frames = [quantized.frame_from_features(e.features)
                       for e in self.test]
        self.items_per_op = 2 * len(GOLDEN_FORMATS) * len(self.frames)
        self.format_seconds, self.format_frames = {}, {}

    def op(self):
        out = []
        for fmt in GOLDEN_FORMATS:
            t0 = perf_counter()
            qm = quantized.quantize_model(self.params, self.std, fmt)
            result = quantized.evaluate_quantized(qm, self.test)
            dump = quantized.dump_frames(qm, self.frames)
            out.append((qm, result, dump, perf_counter() - t0))
        return out

    def record(self, result):
        n = len(self.frames)
        self.attempted += len(result) * 2 * n
        for qm, qresult, dump, seconds in result:
            fmt = str(qm.fmt)
            self.format_seconds[fmt] = self.format_seconds.get(fmt, 0.0) + seconds
            self.format_frames[fmt] = self.format_frames.get(fmt, 0) + 2 * n
            self.agree(f"{fmt} accuracy", f"{qresult.metrics.accuracy:.4f}", n)
            self.agree(f"{fmt} saturations", str(qm.saturation_count), n)
            self.agree(f"{fmt} frames", sha256(dump), n)
        self.accuracy = result[0][1].metrics.accuracy
        self.last = result

    def check(self):
        self.check_reference()
        n = len(self.frames)
        sample = random.Random(self.seed).sample(range(n), min(ORACLE_SAMPLE, n))
        for qm, _, dump, _ in self.last:
            fmt = str(qm.fmt)
            for key in (f"{fmt} accuracy", f"{fmt} saturations", f"{fmt} frames"):
                self.expect(key, self.digests[key], n)
            quantized.save_qmodel(qm, f"model-{fmt}.qtxt")
            self.attempted += 1
            self.expect(f"model-{fmt}.qtxt", file_sha256(f"model-{fmt}.qtxt"), 1)
            self.check_oracle(qm, dump, sample)
        # saturating format, untimed. At seed 42 its 109 L1 saturations are
        # all negative, so ReLU hides them from the output words; a missing
        # positive clamp shows in the Q2.30 words, which saturate both ways
        qm = quantized.quantize_model(self.params, self.std, SATURATING_FORMAT)
        dump = quantized.dump_frames(qm, self.frames)
        self.attempted += n
        self.expect(f"{SATURATING_FORMAT} frames", sha256(dump), n)
        self.attempted += 1
        self.expect(f"{SATURATING_FORMAT} saturations by layer",
                    " ".join(map(str, layer_saturations(qm, self.frames))), 1)
        self.check_oracle(qm, dump, sample)

    def check_oracle(self, qm, dump, sample):
        lines = dump.splitlines()
        bad = 0
        for i in sample:
            words, _ = self.oracle(qm, self.frames[i])
            if lines[i] != " ".join(str(w) for w in self.frames[i] + words):
                bad += 1
        if bad:
            self.fail(bad, f"{qm.fmt}: {bad} of {len(sample)} sampled frames "
                           "differ from the scalar oracle")

    def computed_counts(self):
        return frame_counts(self.params) | {"frames_per_format": len(self.frames)}

    def extra(self):
        """Frames through eval + dump per second, each format on its own
        (not scaled to the reference host speed)."""
        return {f"{fmt}_frames_per_s_as_measured": self.format_frames[fmt] / seconds
                for fmt, seconds in self.format_seconds.items()}


class StreamInfer(_ReferenceModel, Workload):
    """Held-out raw rows, one frame per call: frame_from_features then
    q_forward at Q8.8."""

    name = "stream-infer"
    unit = "frame"
    op_kernel = staticmethod(hostspeed.fixed_point_frame)

    def setup(self):
        self.build_reference()
        self.qm = quantized.quantize_model(self.params, self.std,
                                           GOLDEN_FORMATS[0])
        # held-out generator seed differs from the training seed
        held_out = dataset.generate_synthetic(STREAM_N, self.seed + 1)
        self.rows = [[float(v) for v in dataset.record_features(r)]
                     for r in held_out]
        self.labels = [dataset.label_for_hfr(r.hfr) for r in held_out]
        self.outputs = []
        self.next = 0

    def op(self):
        row = self.rows[self.next % STREAM_N]
        self.next += 1
        return quantized.q_forward(self.qm, quantized.frame_from_features(row))

    def record(self, result):
        self.outputs.append(result)

    def check(self):
        self.check_reference()
        frames = [quantized.frame_from_features(row) for row in self.rows]
        expected = [self.oracle(self.qm, frame) for frame in frames]
        self.attempted += len(self.outputs)
        bad = sum(tuple(got) != expected[i % STREAM_N]
                  for i, got in enumerate(self.outputs))
        if bad:
            self.fail(bad, f"{bad} of {len(self.outputs)} frames differ from "
                           "the scalar oracle")
        # one full pass over the rows, finished untimed if the timed loop
        # stopped early, so the digest and accuracy cover every row
        first = self.outputs[:STREAM_N] + [
            quantized.q_forward(self.qm, frame)
            for frame in frames[len(self.outputs):]]
        self.accuracy = sum(pred == y for (_, pred), y
                            in zip(first, self.labels)) / STREAM_N
        self.attempted += 1
        self.expect("stream frames", sha256("\n".join(
            " ".join(map(str, frame + words))
            for frame, (words, _) in zip(frames, first))), 1)

    def computed_counts(self):
        return frame_counts(self.params)


class IngestEval(_ReferenceModel, Workload):
    """`fcdsae gen-data --n 36363` then `fcdsae eval --model` on that CSV."""

    name = "ingest-eval"
    unit = "gen-data + eval"
    items_per_op = 2
    op_kernel = staticmethod(hostspeed.csv_rows)

    def setup(self):
        self.build_reference()

    def op(self):
        gen = run_cli(["gen-data", "--n", str(REFERENCE_N),
                       "--seed", str(self.seed), "--out", "data.csv"])
        return gen, run_cli(["eval", "--model", "model.txt", "--data", "data.csv"])

    def record(self, result):
        self.attempted += 2
        for what, (code, out) in zip(("gen-data", "eval"), result):
            if code != 0:
                self.fail(1, f"{what} exited {code}: {out[-300:]}")
                return
            self.agree(f"{what} stdout", sha256(out), 1)
        self.agree("data.csv", file_sha256("data.csv"), 1)
        self.accuracy = float(table_accuracy(result[1][1]))

    def check(self):
        self.check_reference()
        for key in ("data.csv", "gen-data stdout", "eval stdout"):
            if key in self.digests:
                self.expect(key, self.digests[key], 1)


def layer_saturations(qm, frames) -> list[int]:
    """Words clamped to the compute format's range per engine stage
    (standardization, L0, L1, L2), counted over all frames. Recomputed here
    from the quantized model's words, independently of q_forward."""
    f, lo, hi = qm.fmt.frac_bits, qm.fmt.raw_min, qm.fmt.raw_max

    def rounded(acc, shift):  # round half away from zero
        q = (abs(acc) + (1 << (shift - 1))) >> shift
        return q if acc >= 0 else -q

    counts = [0] * (1 + len(qm.weights))
    std_shift = INPUT_FORMAT.frac_bits + SCALE_FORMAT.frac_bits - f
    for frame in frames:
        acts = []
        for x, m, s in zip(frame, qm.std_mean, qm.std_invstd):
            y = rounded((x - m) * s, std_shift)
            counts[0] += not lo <= y <= hi
            acts.append(min(max(y, lo), hi))
        for layer, (w_layer, b_layer) in enumerate(zip(qm.weights, qm.biases), 1):
            nxt = []
            for row, b in zip(w_layer, b_layer):
                y = rounded((b << f) + sum(w * a for w, a in zip(row, acts)), f)
                counts[layer] += not lo <= y <= hi
                nxt.append(max(min(max(y, lo), hi), 0))
            acts = nxt
    return counts


def frame_counts(params) -> dict:
    """Arithmetic per frame of the fixed-point engine, from the topology."""
    topo = params.topology
    macs = sum(a * b for a, b in zip(topo[:-1], topo[1:]))
    return {"macs_per_frame": macs,
            "std_multiplies_per_frame": topo[0],
            "requantizes_per_frame": sum(topo)}


WORKLOADS = {w.name: w for w in (TrainRef, GoldenBatch, StreamInfer, IngestEval)}
