"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them)."""

import contextlib
import time

import numpy as np
import pytest

from fcdsae import dataset, network, quantized, sparsity, trainer
from fcdsae.cli import main as cli_main
from fcdsae.metrics import confusion, metric_block
from fcdsae.quantized import QFormat, dump_frames, frame_from_features

from oracles import (assert_grads_close, backward, bayes_accuracy,
                     fd_gradients, random_network, recount_metrics,
                     scalar_dump_frames, scalar_q_forward)
from test_quantized import random_model_and_frame


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def test_criterion_1_gradient_fidelity():
    with criterion(1, "analytic gradients match finite differences"):
        t0 = time.perf_counter()
        for net_seed in range(20):
            rng = np.random.default_rng(1000 + net_seed)
            params = random_network((4, 5, 3), seed=net_seed)
            batch = rng.normal(size=(int(rng.integers(1, 9)), 4))
            targets = np.eye(3)[rng.integers(0, 3, size=batch.shape[0])]
            for psi in (0.0, 1e-3, 1e-1):
                acts = network.forward(params, batch)
                summaries = [sparsity.average_activation(a) for a in acts[1:-1]]
                sgrads = None
                if psi > 0:
                    sgrads = [sparsity.penalty_gradient(s, 0.05, psi,
                                                        batch.shape[0])
                              for s in summaries]
                analytic = backward(acts, params, targets, sgrads)
                numeric = fd_gradients(params, batch, targets, 0.05, psi)
                assert_grads_close(analytic, numeric,
                                   rel_tol=1e-4, abs_floor=1e-7)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_kl_correctness():
    with criterion(2, "KL divergence value, identity, and non-negativity"):
        assert sparsity.kl_divergence(0.05, 0.5) == pytest.approx(0.494632,
                                                                  abs=1e-6)
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            xi = float(rng.uniform(1e-4, 1 - 1e-4))
            xi_k = float(rng.uniform(1e-4, 1 - 1e-4))
            assert sparsity.kl_divergence(xi, xi_k) >= 0.0
            assert sparsity.kl_divergence(xi, xi) == 0.0


def test_criterion_3_reference_run(reference_data, reference_run):
    with criterion(3, "reference run: accuracy >= 0.90 and within 0.005 of "
                      "the Bayes rule, recall == accuracy"):
        assert len(reference_data.train) == 27272
        assert len(reference_data.test) == 9091
        _, _, report = reference_run
        assert "topology: 10-32-16-3" in report.format_text()
        assert report.config.lr == 0.001
        assert len(report.train_accuracy) <= 15
        assert report.final_metrics.accuracy >= 0.90
        # the generator's noise caps any classifier near 0.918; the paper's
        # 92% comes from bench data this generator only stands in for
        test_rows = reference_data.test.features[:, 0].astype(int) - 1
        bayes = bayes_accuracy(42, 36363, 0.2, test_rows)
        assert abs(report.final_metrics.accuracy - bayes) <= 0.005, bayes
        assert report.final_metrics.recall == pytest.approx(
            report.final_metrics.accuracy, abs=1e-12)
        # coarse monotonicity of the total loss early in training
        assert report.j_total[0] > report.j_total[1] > report.j_total[2]


def test_criterion_4_quantization_degradation(reference_data, reference_run):
    with criterion(4, "Q8.8 within 3.0 points of float, Q2.30 within 0.1"):
        params, std, report = reference_run
        float_acc = report.final_metrics.accuracy
        for fmt_str, bound in [("Q8.8", 0.03), ("Q2.30", 0.001)]:
            qm = quantized.quantize_model(params, std, QFormat.parse(fmt_str))
            result = quantized.evaluate_quantized(qm, reference_data.test)
            delta = float_acc - result.metrics.accuracy
            assert abs(delta) <= bound, f"{fmt_str}: delta {delta}"


def test_criterion_5_golden_model_bit_exactness():
    with criterion(5, "q_forward matches the scalar oracle on 1000 pairs"):
        rng = np.random.default_rng(55)
        frames = []
        qm_last = None
        for _ in range(1000):
            qm, frame = random_model_and_frame(rng)
            assert quantized.q_forward(qm, frame) == scalar_q_forward(qm, frame)
            qm_last = qm
        width = qm_last.weights[0].shape[1]
        frames = [frame_from_features(rng.normal(0, 20, width))
                  for _ in range(50)]
        assert dump_frames(qm_last, frames) == scalar_dump_frames(qm_last, frames)


def test_criterion_6_metrics_oracle():
    with criterion(6, "metric_block equals brute-force recount, mse = 1-acc"):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            trues = rng.integers(0, 3, size=n).tolist()
            preds = rng.integers(0, 3, size=n).tolist()
            block = metric_block(confusion(trues, preds))
            acc, prec, rec, f1 = recount_metrics(trues, preds)
            assert (block.accuracy, block.precision, block.recall,
                    block.f1) == (acc, prec, rec, f1)
            assert block.mse == 1.0 - acc


def test_criterion_7_label_boundaries():
    with criterion(7, "HFR class thresholds exact at the boundaries"):
        assert dataset.label_for_hfr(88.5) == 0
        assert dataset.label_for_hfr(89.0) == 1
        assert dataset.label_for_hfr(90.99) == 1
        assert dataset.label_for_hfr(91.0) == 2


def test_criterion_8_pipeline_determinism(tmp_path, monkeypatch):
    with criterion(8, "two identical pipeline runs are byte-identical"):
        outputs = []
        # identical invocations (relative paths) from two fresh directories
        for run_dir in ("run1", "run2"):
            d = tmp_path / run_dir
            d.mkdir()
            monkeypatch.chdir(d)
            assert cli_main(["gen-data", "--n", "1200", "--seed", "42",
                             "--out", "data.csv"]) == 0
            assert cli_main(["train", "--data", "data.csv", "--seed", "42",
                             "--epochs", "3", "--out-model", "model.txt",
                             "--out-report", "report.txt"]) == 0
            assert cli_main(["quantize", "--model", "model.txt",
                             "--format", "Q8.8", "--out", "model.qtxt"]) == 0
            assert cli_main(["eval", "--qmodel", "model.qtxt",
                             "--data", "data.csv",
                             "--out-confusion", "cm.csv"]) == 0
            qm = quantized.load_qmodel(d / "model.qtxt")
            examples = dataset.Examples.from_matrix(
                dataset.parse_csv(d / "data.csv"))
            frames = [frame_from_features(f) for f in examples.features[:20]]
            (d / "frames.txt").write_text(dump_frames(qm, frames))
            outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]


def test_criterion_9_sparsity_effect(reference_run, reference_run_no_sparsity):
    with criterion(9, "sparsity penalty lowers mean hidden activation"):
        _, _, with_pen = reference_run
        _, _, without = reference_run_no_sparsity
        assert with_pen.mean_hidden_activation <= without.mean_hidden_activation
        # with psi=0 the total loss is bit-identical to the plain MSE
        assert without.j_total == without.mse
