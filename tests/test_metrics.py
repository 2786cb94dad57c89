import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from fcdsae import DomainError
from fcdsae.metrics import confusion, confusion_csv, metric_block

from oracles import recount_metrics

labels = st.lists(st.integers(0, 2), min_size=1, max_size=200)


# each label sequence as a list and as numpy int arrays of two widths
SEQUENCE_TYPES = [list, np.array, lambda x: np.array(x, np.int32)]


class TestConfusion:
    def test_perfect(self):
        for as_seq in SEQUENCE_TYPES:
            cm = confusion(as_seq([0, 1, 2]), as_seq([0, 1, 2]))
            npt.assert_array_equal(cm, np.eye(3, dtype=int))

    def test_hand_count(self):
        for as_seq in SEQUENCE_TYPES:
            cm = confusion(as_seq([0, 0, 1]), as_seq([1, 0, 1]))
            npt.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 0, 0]])
            assert cm.dtype == np.int64

    def test_empty(self):
        for cm in (confusion([], []),
                   confusion(np.array([], int), np.array([], int))):
            npt.assert_array_equal(cm, np.zeros((3, 3)))

    def test_out_of_range(self):
        # the error names the first bad pair
        for trues, preds, first_bad in [
                ([0, 3], [0, 0], "true=3, pred=0"),
                ([0, 1, 2], [0, 3, 1], "true=1, pred=3"),
                ([1, 2, 0], [2, -1, 3], "true=2, pred=-1"),
                ([0, 1], [0.5, 1], "true=0, pred=0.5")]:
            for as_seq in (list, np.array):
                with pytest.raises(DomainError,
                                   match=f"out of range: {first_bad}$"):
                    confusion(as_seq(trues), as_seq(preds))

    def test_length_mismatch(self):
        for as_seq in SEQUENCE_TYPES:
            with pytest.raises(DomainError):
                confusion(as_seq([0, 1]), as_seq([0]))

    def test_csv_bytes(self):
        """The `eval --out-confusion` file and the report's matrix block."""
        cm = np.array([[8, 2, 0], [1, 9, 0], [0, 0, 10]])
        assert confusion_csv(cm) == ("true\\pred,0,1,2\n0,8,2,0\n"
                                     "1,1,9,0\n2,0,0,10\n")


class TestMetricBlock:
    def test_perfect_classifier(self):
        block = metric_block(np.diag([5, 5, 5]))
        assert block.accuracy == block.precision == block.recall == block.f1 == 1.0
        assert block.mse == 0.0

    def test_hand_matrix(self):
        block = metric_block(np.array([[8, 2, 0], [1, 9, 0], [0, 0, 10]]))
        assert block.accuracy == pytest.approx(27 / 30)
        assert block.recall == pytest.approx(0.9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            metric_block(np.zeros((3, 3), dtype=int))

    def test_zero_predicted_support_precision(self):
        # nothing ever predicted as class 2
        block = metric_block(np.array([[5, 0, 0], [0, 5, 0], [5, 0, 0]]))
        assert 0.0 <= block.precision <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(labels, labels)
    def test_weighted_recall_equals_accuracy(self, trues, preds):
        n = min(len(trues), len(preds))
        trues, preds = trues[:n], preds[:n]
        if n == 0:
            return
        block = metric_block(confusion(trues, preds))
        assert block.recall == pytest.approx(block.accuracy, abs=1e-12)
        assert block.mse == 1.0 - block.accuracy

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 1000))
    def test_matches_brute_force_recount(self, seed, n):
        rng = np.random.default_rng(seed)
        trues = rng.integers(0, 3, size=n).tolist()
        preds = rng.integers(0, 3, size=n).tolist()
        block = metric_block(confusion(trues, preds))
        assert (block.accuracy, block.precision, block.recall,
                block.f1) == recount_metrics(trues, preds)
        assert block.mse == 1.0 - block.accuracy

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=9, max_size=9),
           st.sets(st.integers(0, 2), max_size=2),
           st.sets(st.integers(0, 2), max_size=2))
    def test_count_matrix_matches_recount(self, values, zero_rows, zero_cols):
        """Any (3, 3) counts, classes of zero support (an all-zero row) or
        zero predicted (an all-zero column) included, give the recount's
        bits: the floats behind the frozen report and eval digests."""
        counts = np.array(values, np.int64).reshape(3, 3)
        counts[sorted(zero_rows), :] = 0
        counts[:, sorted(zero_cols)] = 0
        assume(counts.sum() > 0)
        trues = np.repeat(np.arange(9) // 3, counts.ravel()).tolist()
        preds = np.repeat(np.arange(9) % 3, counts.ravel()).tolist()
        block = metric_block(counts)
        assert (block.accuracy, block.precision, block.recall,
                block.f1) == recount_metrics(trues, preds)
        assert block.mse == 1.0 - block.accuracy

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        trues = rng.integers(0, 3, size=100)
        preds = rng.integers(0, 3, size=100)
        a = metric_block(confusion(trues.tolist(), preds.tolist()))
        perm = rng.permutation(100)
        b = metric_block(confusion(trues[perm].tolist(), preds[perm].tolist()))
        assert a == b

    def test_table_format(self):
        block = metric_block(np.diag([5, 5, 5]))
        table = block.format_table()
        for name in ["Accuracy", "Precision", "Recall", "F1-Score", "MSE"]:
            assert name in table
