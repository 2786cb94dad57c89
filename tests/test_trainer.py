import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fcdsae import DomainError, dataset, network, sparsity, trainer
from fcdsae.network import LayerParams, NetworkParams
from fcdsae.trainer import TrainConfig, predict_batch, train

from oracles import random_network, reference_train

B = trainer._EVAL_ROWS


def tiny_data(n=12, seed=0):
    examples = dataset.Examples.from_matrix(dataset.synthetic_matrix(n, seed))
    return dataset.split(examples, seed=seed)


class TestConfig:
    @pytest.mark.parametrize("kw", [dict(max_epochs=0), dict(batch_size=0),
                                    dict(lr=0.0),
                                    dict(lr=float("nan")), dict(lr=float("inf")),
                                    dict(psi=1e306), dict(xi=0.0), dict(xi=1.0),
                                    dict(psi=-1.0), dict(psi=float("nan")),
                                    dict(psi=float("inf"))])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            TrainConfig(**kw)

    def test_psi_bound_counts_hidden_units(self):
        """2 * psi * 48 units * -log(CLAMP_EPS) is finite at 1.35e305, not
        at 1.4e305 (the sparsity penalty and the MSE could then overflow J);
        a bound counting fewer units would accept both."""
        TrainConfig(psi=1.35e305)
        with pytest.raises(DomainError, match="psi too large"):
            TrainConfig(psi=1.4e305)


class TestTrain:
    def test_single_epoch_report_length(self):
        cfg = TrainConfig(max_epochs=1, batch_size=4, seed=1)
        _, _, report = train(cfg, tiny_data())
        assert len(report.train_accuracy) == 1
        assert len(report.val_accuracy) == 1
        assert len(report.j_total) == 1

    def test_runs_exactly_max_epochs(self, small_data):
        cfg = TrainConfig(max_epochs=5, seed=2)
        _, _, report = train(cfg, small_data)
        assert len(report.train_accuracy) == 5

    def test_best_epoch_indexes_max_val_accuracy(self, small_data):
        cfg = TrainConfig(max_epochs=6, seed=3)
        _, _, report = train(cfg, small_data)
        best = report.best_epoch
        assert report.val_accuracy[best] == max(report.val_accuracy)
        assert best == report.val_accuracy.index(max(report.val_accuracy))

    def test_deterministic(self, small_data):
        cfg = TrainConfig(max_epochs=3, seed=4)
        p1, s1, r1 = train(cfg, small_data)
        p2, s2, r2 = train(cfg, small_data)
        for la, lb in zip(p1.layers, p2.layers):
            npt.assert_array_equal(la.weights, lb.weights)
            npt.assert_array_equal(la.biases, lb.biases)
        assert r1.val_accuracy == r2.val_accuracy
        assert r1.format_text() == r2.format_text()

    def test_serialize_load_evaluate_round_trip(self, small_data, tmp_path):
        cfg = TrainConfig(max_epochs=3, seed=5)
        params, std, report = train(cfg, small_data)
        path = tmp_path / "model.txt"
        network.save_model(params, path, standardizer=std)
        loaded, std2 = network.load_model(path)
        x = std2.transform_matrix(small_data.test.features)
        acc = float(np.mean(predict_batch(loaded, x) == small_data.test.labels))
        assert acc == report.final_metrics.accuracy

    @pytest.mark.parametrize("psi", [0.0, 1e-3])
    def test_divergence_names_epoch_and_batch(self, small_data, psi):
        cfg = TrainConfig(lr=1e300, max_epochs=2, psi=psi)
        with pytest.raises(FloatingPointError) as exc:
            with np.errstate(all="ignore"):
                train(cfg, small_data)
        assert str(exc.value) == ("training diverged: non-finite loss at "
                                  "epoch 1, batch 1")

    def test_divergence_raises_without_warnings(self, small_data):
        """Called directly, train silences numpy's overflow warnings itself:
        with warnings as errors, only its FloatingPointError comes out."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="training diverged"):
                train(TrainConfig(lr=1e300, max_epochs=2), small_data)

    def test_rejected_adam_step_names_epoch_and_batch(self, small_data,
                                                      monkeypatch):
        """A non-finite gradient under a finite loss: Adam rejects the step
        and train names where."""
        backward, calls = network.backward, []

        def nan_on_third_step(*args, out):
            backward(*args, out=out)
            calls.append(None)
            if len(calls) == 3:
                out.layers[1].biases[0] = np.nan
        monkeypatch.setattr(network, "backward", nan_on_third_step)
        with pytest.raises(FloatingPointError) as exc:
            train(TrainConfig(max_epochs=1), small_data)
        assert str(exc.value) == (
            "training diverged at epoch 1, batch 2: non-finite gradient in "
            "layer 1; update rejected")

    def test_scores_each_epoch_once(self, monkeypatch):
        """Each epoch evaluates both partitions, one network.forward per
        row block, and the report is the best epoch's own evaluation: no
        pass over the test rows follows the loop."""
        data = tiny_data(9000, seed=9)
        cfg = TrainConfig(max_epochs=3, batch_size=256, seed=9)
        forward, calls = network.forward, []

        def counted(p, batch):
            calls.append(len(batch))
            return forward(p, batch)
        monkeypatch.setattr(network, "forward", counted)
        _, _, report = train(cfg, data)
        n_train, n_test = len(data.train), len(data.test)
        assert n_test >= 2 * B
        steps = len(range(0, n_train, cfg.batch_size))
        blocks = n_train // B + n_test // B
        assert len(calls) == cfg.max_epochs * (steps + blocks)
        assert report.final_metrics.accuracy == \
            report.val_accuracy[report.best_epoch]

    def test_empty_partition_rejected(self):
        data = tiny_data()
        with pytest.raises(DomainError):
            train(TrainConfig(max_epochs=1),
                  dataset.SplitDataset(train=[], test=data.test))


def _short_batches(seed, psi):
    """small_data at batch 7, which ends every epoch on a short batch."""
    return lambda small: (small, TrainConfig(batch_size=7, max_epochs=3,
                                             seed=seed, psi=psi))


# id -> f(small_data) returning (data, config). The oracle evaluates each
# partition in one forward pass, the trainer in _EVAL_ROWS-row blocks: the
# last case has several blocks per partition.
REFERENCE_CASES = {f"{seed}-{psi}": _short_batches(seed, psi)
                   for seed in (3, 11) for psi in (0.0, 1e-3)}
REFERENCE_CASES["several-eval-blocks"] = lambda small: (
    tiny_data(8 * B + 108, seed=5), TrainConfig(max_epochs=2, seed=5))


class TestReferenceTrain:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_bit_equal_to_per_tensor_loop(self, small_data, case):
        data, cfg = REFERENCE_CASES[case](small_data)
        assert len(data.train) % cfg.batch_size  # a short last batch
        assert case != "several-eval-blocks" or len(data.test) >= 2 * B
        params, _, report = train(cfg, data)
        ref_layers, ref_report = reference_train(cfg, data)
        got = [t.tobytes() for l in params.layers for t in (l.weights, l.biases)]
        assert got == [t.tobytes() for layer in ref_layers for t in layer]
        assert report.format_text() == ref_report.format_text()
        assert report.j_total == ref_report.j_total


class TestEvalBlocks:
    """predict_batch and evaluate_total_loss run network.forward over row
    blocks and must give the bits of one forward pass over every row."""

    def case(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, network.DEFAULT_TOPOLOGY[0]))
        return (random_network(network.DEFAULT_TOPOLOGY, n), x,
                trainer.one_hot(rng.integers(0, 3, n)))

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B - 1, 2 * B,
                                   2 * B + 1, 5 * B + 3])
    def test_bit_equal_to_one_forward_pass(self, n, monkeypatch):
        params, x, targets = self.case(n)
        cfg = TrainConfig()
        acts = network.forward(params, x)
        want_preds = np.argmax(acts[-1], axis=1)
        want_mse = network.mse_loss(acts[-1], targets)
        means = [sparsity.average_activation(h) for h in acts[1:-1]]

        forward, blocks = network.forward, []

        def counted(p, batch):
            blocks.append(len(batch))
            return forward(p, batch)
        monkeypatch.setattr(network, "forward", counted)
        preds, mse, j, mean = trainer.evaluate_total_loss(params, x, targets,
                                                          cfg)
        assert preds.tobytes() == want_preds.tobytes()
        assert mse.hex() == want_mse.hex()
        assert j.hex() == sparsity.total_loss(want_mse, means, cfg.xi,
                                              cfg.psi).hex()
        assert mean.hex() == float(np.concatenate(means).mean()).hex()
        assert predict_batch(params, x).tobytes() == want_preds.tobytes()
        # every block has at least B rows and the last takes the remainder
        k = max(n // B, 1)
        assert blocks == 2 * ([B] * (k - 1) + [n - B * (k - 1)])

    @pytest.mark.parametrize("evaluate", [
        lambda p, x, t: trainer.evaluate_total_loss(p, x, t, TrainConfig()),
        lambda p, x, t: predict_batch(p, x)],
        ids=["evaluate_total_loss", "predict_batch"])
    def test_memory_bounded_by_block(self, evaluate):
        """Under tracemalloc, which sees numpy's buffers. One forward pass
        over all 40,000 rows would peak at about 16 MiB."""
        case = self.case(40_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate(*case)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("case", ["hidden-inf-output-finite",
                                      "nan-in-first-block", "nan-in-last-block"])
    def test_non_finite_row_refused_alike(self, case):
        """A row with a non-finite value in any layer has no class, and both
        evaluations count it. In the 10-2-2-3 network 10 * 1e308 is inf in
        the first hidden layer, the -1 weights make it -inf, and ReLU makes
        that 0, so its outputs are finite. A NaN in the first block is also
        in the column sums carried into the next block."""
        if case == "hidden-inf-output-finite":
            params = NetworkParams([
                LayerParams(np.full((2, 10), 10.0), np.zeros(2)),
                LayerParams(np.full((2, 2), -1.0), np.zeros(2)),
                LayerParams(np.ones((3, 2)), np.zeros(3))])
            x = np.zeros((1, 10))
            x[0, 0] = 1e308
        else:
            params, x, _ = self.case(2 * B + 1)
            x[0 if case == "nan-in-first-block" else -1, 3] = np.nan
        targets = trainer.one_hot(np.zeros(len(x), dtype=int))
        with pytest.raises(DomainError) as by_predict:
            predict_batch(params, x)
        with pytest.raises(DomainError) as by_loss:
            trainer.evaluate_total_loss(params, x, targets, TrainConfig())
        assert str(by_predict.value) == str(by_loss.value) == \
            f"non-finite output on 1 of {len(x)} rows"

    def test_empty_set_rejected(self):
        params, x, targets = self.case(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="empty batch"):
                trainer.evaluate_total_loss(params, x, targets, TrainConfig())
            assert predict_batch(params, x).shape == (0,)


class TestPredict:
    def out_params(self, outputs):
        """Network computing a constant: zero weights, biases = outputs."""
        return NetworkParams(
            [LayerParams(np.zeros((3, 10)), np.array(outputs, float))])

    def predict(self, outputs):
        return predict_batch(self.out_params(outputs), np.zeros((2, 10)))

    def test_clear_argmax(self):
        npt.assert_array_equal(self.predict([0.9, 0.1, 0.0]), [0, 0])

    def test_all_zero_tie(self):
        npt.assert_array_equal(self.predict([0.0, 0.0, 0.0]), [0, 0])

    def test_tie_break_lowest(self):
        npt.assert_array_equal(self.predict([0.1, 0.5, 0.5]), [1, 1])


class TestReportFormat:
    def test_epochs_csv_shape(self, small_data):
        cfg = TrainConfig(max_epochs=2, seed=6)
        _, _, report = train(cfg, small_data)
        lines = report.format_text().split("epoch trajectory\n")[1].splitlines()
        assert lines[0] == "epoch,train_acc,val_acc,mse"
        assert len(lines) == 3

    def test_text_report_contents(self, small_data):
        cfg = TrainConfig(max_epochs=2, seed=6)
        _, _, report = train(cfg, small_data)
        text = report.format_text()
        assert "10-32-16-3" in text
        assert "Accuracy" in text
        assert "confusion matrix" in text
