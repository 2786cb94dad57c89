import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fcdsae import dataset, network, trainer
from fcdsae.errors import DomainError
from fcdsae.network import LayerParams, NetworkParams
from fcdsae.sparsity import SparsityConfig
from fcdsae.trainer import TrainConfig, predict_batch, train

from oracles import reference_train


def tiny_data(n=12, seed=0):
    records = dataset.generate_synthetic(n, seed)
    return dataset.split([dataset.label(r) for r in records], seed=seed)


class TestConfig:
    @pytest.mark.parametrize("kw", [dict(max_epochs=0), dict(batch_size=0),
                                    dict(lr=0.0),
                                    dict(topology=(5, 32, 3)),
                                    dict(topology=(10, 32, 2)),
                                    dict(topology=(10, 3)),
                                    dict(lr=float("nan")), dict(lr=float("inf")),
                                    dict(sparsity=SparsityConfig(psi=1e306))])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            TrainConfig(**kw)

    def test_psi_bound_counts_hidden_units(self):
        """2 * psi * 48 units * -log(CLAMP_EPS) is finite at 1e305, not at
        1e306 (the sparsity penalty and the MSE could then overflow J)."""
        TrainConfig(sparsity=SparsityConfig(psi=1e305))
        with pytest.raises(DomainError, match="psi too large"):
            TrainConfig(topology=(10, 3000, 3),
                        sparsity=SparsityConfig(psi=1e305))


class TestTrain:
    def test_single_epoch_report_length(self):
        cfg = TrainConfig(max_epochs=1, batch_size=4, seed=1)
        _, _, report = train(cfg, tiny_data())
        assert report.epochs_run == 1
        assert len(report.val_accuracy) == 1
        assert len(report.j_total) == 1

    def test_runs_exactly_max_epochs(self, small_data):
        cfg = TrainConfig(max_epochs=5, seed=2)
        _, _, report = train(cfg, small_data)
        assert report.epochs_run == 5

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
        y = np.array([e.class_label for e in small_data.test])
        acc = float(np.mean(predict_batch(loaded, x) == y))
        assert acc == report.final_metrics.accuracy

    @pytest.mark.parametrize("psi", [0.0, 1e-3])
    def test_divergence_names_epoch_and_batch(self, small_data, psi):
        cfg = TrainConfig(lr=1e300, max_epochs=2,
                          sparsity=SparsityConfig(psi=psi))
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

        def nan_on_third_step(*args, **kwargs):
            grads = backward(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                grads.layers[1].biases[0] = np.nan
            return grads
        monkeypatch.setattr(network, "backward", nan_on_third_step)
        with pytest.raises(FloatingPointError) as exc:
            train(TrainConfig(max_epochs=1), small_data)
        assert str(exc.value) == (
            "training diverged at epoch 1, batch 2: non-finite gradient in "
            "layer 1; update rejected")

    def test_empty_partition_rejected(self):
        data = tiny_data()
        with pytest.raises(DomainError):
            train(TrainConfig(max_epochs=1),
                  dataset.SplitDataset(train=[], test=data.test))


class TestReferenceTrain:
    @pytest.mark.parametrize("psi", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_bit_equal_to_per_tensor_loop(self, small_data, psi, seed):
        cfg = TrainConfig(batch_size=7, max_epochs=3, seed=seed,
                          sparsity=SparsityConfig(psi=psi))
        assert len(small_data.train) % cfg.batch_size  # a short last batch
        params, _, report = train(cfg, small_data)
        ref_layers, ref_report = reference_train(cfg, small_data)
        assert len(params.layers) == len(ref_layers)
        for layer, (w, b) in zip(params.layers, ref_layers):
            assert layer.weights.tobytes() == w.tobytes()
            assert layer.biases.tobytes() == b.tobytes()
        assert report.format_text() == ref_report.format_text()


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
        lines = report.epochs_csv().strip().splitlines()
        assert lines[0] == "epoch,train_acc,val_acc,mse"
        assert len(lines) == 3

    def test_text_report_contents(self, small_data):
        cfg = TrainConfig(max_epochs=2, seed=6)
        _, _, report = train(cfg, small_data)
        text = report.format_text()
        assert "10-32-16-3" in text
        assert "Accuracy" in text
        assert "confusion matrix" in text
