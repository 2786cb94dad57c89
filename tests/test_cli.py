import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fcdsae import dataset, network, quantized
from fcdsae.cli import main
from fcdsae.dataset import Standardizer
from fcdsae.quantized import QFormat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code, _, _ = run(capsys, "gen-data", "--n", "400", "--seed", "5",
                     "--out", str(path))
    assert code == 0
    return path


@pytest.fixture()
def trained_model(tmp_path, small_csv, capsys):
    model = tmp_path / "model.txt"
    code, _, _ = run(capsys, "train", "--data", str(small_csv),
                     "--epochs", "2", "--out-model", str(model))
    assert code == 0
    return model


class TestGenData:
    def test_writes_rows_and_distribution(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, _ = run(capsys, "gen-data", "--n", "100", "--seed", "1",
                              "--out", str(out))
        assert code == 0
        assert "class distribution" in stdout
        assert len(out.read_text().splitlines()) == 101

    def test_n_zero_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-data", "--n", "0", "--seed", "1",
                           "--out", str(tmp_path / "d.csv"))
        assert code == 1

    def test_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen-data", "--n", "50", "--seed", "9", "--out", str(a))
        run(capsys, "gen-data", "--n", "50", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("message", [
        "Unable to allocate 78.2 PiB for an array with shape "
        "(1000000000000000, 11) and data type float64", ""],
        ids=["numpy", "bare"])
    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys,
                                               monkeypatch, message):
        def synthetic_matrix(n, seed):
            raise MemoryError(message)
        monkeypatch.setattr(dataset, "synthetic_matrix", synthetic_matrix)
        code, _, err = run(capsys, "gen-data", "--n", "1000000000000000",
                           "--out", str(tmp_path / "d.csv"))
        want = f"out of memory: {message}" if message else "out of memory"
        assert (code, err) == (2, f"error: {want}\n")

    def test_unwritable_path(self, capsys):
        code, _, _ = run(capsys, "gen-data", "--n", "5", "--seed", "1",
                         "--out", "/nonexistent/dir/d.csv")
        assert code == 2


class TestTrain:
    def test_prints_metric_block(self, tmp_path, small_csv, capsys):
        model = tmp_path / "m.txt"
        report = tmp_path / "r.txt"
        code, stdout, _ = run(capsys, "train", "--data", str(small_csv),
                              "--epochs", "2", "--out-model", str(model),
                              "--out-report", str(report))
        assert code == 0
        assert "Accuracy" in stdout
        assert model.exists()
        assert "# reproducibility:" in report.read_text()

    def test_defaults_are_the_trainer_defaults(self, tmp_path, small_csv,
                                               capsys):
        report = tmp_path / "r.txt"
        code, _, _ = run(capsys, "train", "--data", str(small_csv),
                         "--out-model", str(tmp_path / "m.txt"),
                         "--out-report", str(report))
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[2:4] == [
            "lr: 0.001  batch_size: 64  max_epochs: 15  seed: 42",
            "sparsity: xi=0.05 psi=0.001 clamp_eps=1e-06"]

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--data", str(tmp_path / "no.csv"),
                         "--out-model", str(tmp_path / "m.txt"))
        assert code == 2

    def test_zero_epochs_usage_error(self, tmp_path, small_csv, capsys):
        code, _, _ = run(capsys, "train", "--data", str(small_csv),
                         "--epochs", "0", "--out-model", str(tmp_path / "m.txt"))
        assert code == 1


class TestQuantize:
    def test_writes_qmodel(self, tmp_path, trained_model, capsys):
        out = tmp_path / "m.qtxt"
        code, stdout, _ = run(capsys, "quantize", "--model", str(trained_model),
                              "--format", "Q8.8", "--out", str(out))
        assert code == 0
        assert "saturated" in stdout
        assert out.read_text().startswith("FCDSAE-Q 1\nQ 16 8\n")

    def test_bad_format_string(self, tmp_path, trained_model, capsys):
        code, _, _ = run(capsys, "quantize", "--model", str(trained_model),
                         "--format", "Q0.16", "--out", str(tmp_path / "m.qtxt"))
        assert code == 1

    def test_round_trip_matches_memory(self, tmp_path, trained_model, capsys):
        from fcdsae import network, quantized
        from fcdsae.quantized import QFormat

        out = tmp_path / "m.qtxt"
        run(capsys, "quantize", "--model", str(trained_model),
            "--format", "Q8.8", "--out", str(out))
        params, std = network.load_model(trained_model)
        qm = quantized.quantize_model(params, std, QFormat(16, 8))
        loaded = quantized.load_qmodel(out)
        assert [w.tolist() for w in loaded.weights] \
            == [w.tolist() for w in qm.weights]
        assert loaded.std_mean.tolist() == qm.std_mean.tolist()


class TestEval:
    def test_float_eval(self, tmp_path, small_csv, trained_model, capsys):
        code, stdout, _ = run(capsys, "eval", "--model", str(trained_model),
                              "--data", str(small_csv))
        assert code == 0
        assert "Accuracy" in stdout

    def test_quantized_eval(self, tmp_path, small_csv, trained_model, capsys):
        qpath = tmp_path / "m.qtxt"
        run(capsys, "quantize", "--model", str(trained_model),
            "--format", "Q8.8", "--out", str(qpath))
        code, stdout, _ = run(capsys, "eval", "--qmodel", str(qpath),
                              "--data", str(small_csv))
        assert code == 0
        assert "quantized accuracy" in stdout

    def test_bad_feature_count(self, tmp_path, trained_model, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,Power,HFR\n1,2,88\n")
        code, _, _ = run(capsys, "eval", "--model", str(trained_model),
                         "--data", str(bad))
        assert code == 2


class TestInfer:
    ROW = "1,24.2,222.4,363.8,83,68.5,165.5,0.44,145.6,28.6"

    @pytest.fixture()
    def qmodel(self, tmp_path, trained_model, capsys):
        qpath = tmp_path / "m.qtxt"
        run(capsys, "quantize", "--model", str(trained_model),
            "--format", "Q8.8", "--out", str(qpath))
        return qpath

    def test_table_row(self, qmodel, capsys):
        code, stdout, _ = run(capsys, "infer", "--qmodel", str(qmodel),
                              "--row", self.ROW)
        assert code == 0
        assert stdout.startswith("class: ")
        assert int(stdout.splitlines()[0].split()[1]) in (0, 1, 2)
        assert len(stdout.splitlines()[1].split()) == 5  # "output words:" + 3

    def test_wrong_arity(self, qmodel, capsys):
        code, _, _ = run(capsys, "infer", "--qmodel", str(qmodel),
                         "--row", "1,2,3")
        assert code == 1

    def test_deterministic(self, qmodel, capsys):
        _, out1, _ = run(capsys, "infer", "--qmodel", str(qmodel),
                         "--row", self.ROW)
        _, out2, _ = run(capsys, "infer", "--qmodel", str(qmodel),
                         "--row", self.ROW)
        assert out1 == out2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        out = tmp_path / "d.csv"
        # the config may also supply every required flag; argparse accepts
        # `--config=FILE` and abbreviations too, and each must apply the file
        for spelling in (["--config", str(conf)], [f"--config={conf}"],
                         ["--conf", str(conf)]):
            for values, explicit in (({"n": 30, "seed": 3}, ["--out", str(out)]),
                                     ({"n": 30, "out": str(out)}, [])):
                conf.write_text(json.dumps(values))
                code, stdout, _ = run(capsys, *spelling, "gen-data", *explicit)
                assert code == 0, spelling
                assert f"seed={values.get('seed', 42)}" in stdout
                assert len(out.read_text().splitlines()) == 31
                out.unlink()

    def test_explicit_flag_wins(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 30, "seed": 7}))
        want = tmp_path / "want.csv"
        assert run(capsys, "gen-data", "--n", "10", "--seed", "5",
                   "--out", str(want))[0] == 0
        # every spelling argparse accepts: separate value, `=`, abbreviated
        for explicit in (["--n", "10", "--seed", "5"], ["--n=10", "--seed=5"],
                         ["--n", "10", "--se", "5"]):
            out = tmp_path / "d.csv"
            code, _, _ = run(capsys, "--config", str(conf), "gen-data",
                             *explicit, "--out", str(out))
            assert code == 0
            assert out.read_bytes() == want.read_bytes(), explicit

    def test_non_scalar_value_names_the_key(self, tmp_path, capsys, monkeypatch):
        """A JSON null, boolean, array or object has no flag spelling: a
        usage error naming its key, not a file named `None` or `True`."""
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "conf.json"
        for value in ("null", "true", "[1]", '{"a": 1}'):
            conf.write_text('{"n": 5, "out": %s}' % value)
            code, _, err = run(capsys, "--config", str(conf), "gen-data")
            assert code == 1 and "'out'" in err, value
        assert list(tmp_path.iterdir()) == [conf]

    def test_missing_config(self, tmp_path, capsys):
        code, _, _ = run(capsys, "--config", str(tmp_path / "no.json"),
                         "gen-data", "--n", "5", "--out", str(tmp_path / "d.csv"))
        assert code == 1


ROW = "1,24.2,222.4,363.8,83,68.5,165.5,0.44,145.6,28.6"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A 20-row data.csv, a model.txt trained on it and its Q8.8 model.qtxt."""
    tmp = tmp_path_factory.mktemp("saved")
    files = SimpleNamespace(data=str(tmp / "data.csv"),
                            model=str(tmp / "model.txt"),
                            qmodel=str(tmp / "model.qtxt"))
    assert main(["gen-data", "--n", "20", "--seed", "3",
                 "--out", files.data]) == 0
    assert main(["train", "--data", files.data, "--epochs", "1",
                 "--out-model", files.model]) == 0
    assert main(["quantize", "--model", files.model,
                 "--out", files.qmodel]) == 0
    return files


def _edited(src, dst, line, words):
    """Copy src to dst with one line replaced (None cuts the file there)."""
    lines = Path(src).read_text().splitlines()
    lines[line:] = [] if words is None else [words] + lines[line + 1:]
    dst.write_text("\n".join(lines) + "\n")
    return str(dst)


def _words(path, line):
    return Path(path).read_text().splitlines()[line].split()


def _model(tmp, topology):
    path = tmp / "m.txt"
    n_in = topology[0]
    network.save_model(network.init_network(topology, seed=1), path,
                       Standardizer(mean=np.zeros(n_in), std=np.ones(n_in)))
    return str(path)


def _qmodel(tmp, topology):
    path = tmp / "m.qtxt"
    params, std = network.load_model(_model(tmp, topology))
    quantized.save_qmodel(quantized.quantize_model(params, std, QFormat()), path)
    return str(path)


def _wide_qmodel(tmp, hidden):
    """A 10-hidden-3 model.qtxt of zero words."""
    path = tmp / "m.qtxt"
    quantized.save_qmodel(quantized.QuantizedModel(
        fmt=QFormat(), weights=[np.zeros((hidden, 10), np.int64),
                                np.zeros((3, hidden), np.int64)],
        biases=[np.zeros(hidden, np.int64), np.zeros(3, np.int64)],
        std_mean=np.zeros(10, np.int64), std_invstd=np.zeros(10, np.int64)), path)
    return str(path)


def _write(path, content):
    path.write_bytes(content)
    return str(path)


# id -> f(saved files, tmp dir) returning (argv, exit code). model.txt lines
# are: magic, STDMEAN, STDSTD, LAYER 10 32, weight rows...; model.qtxt lines
# are: magic, Q, QIN, QSCALE, STDMEAN, STDINVSTD, LAYER 10 32, weight rows...
MALFORMED = {
    "model-cut-mid-layer": lambda s, tmp: (
        ["eval", "--model", _edited(s.model, tmp / "m.txt", 9, None),
         "--data", s.data], 2),
    "model-header-only": lambda s, tmp: (
        ["eval", "--model", _edited(s.model, tmp / "m.txt", 3, None),
         "--data", s.data], 2),
    "model-stdstd-zero": lambda s, tmp: (
        ["quantize", "--model",
         _edited(s.model, tmp / "m.txt", 2, "STDSTD" + " 0" * 10),
         "--out", str(tmp / "out.qtxt")], 2),
    "model-nan-weight": lambda s, tmp: (
        ["eval", "--model", _edited(s.model, tmp / "m.txt", 4, " ".join(
            ["nan"] + _words(s.model, 4)[1:])),
         "--data", s.data], 2),
    "model-four-inputs": lambda s, tmp: (
        ["eval", "--model", _model(tmp, (4, 4, 3)), "--data", s.data], 2),
    "model-10-4-2-eval": lambda s, tmp: (
        ["eval", "--model", _model(tmp, (10, 4, 2)), "--data", s.data], 2),
    "model-10-4-2-quantize": lambda s, tmp: (
        ["quantize", "--model", _model(tmp, (10, 4, 2)),
         "--out", str(tmp / "out.qtxt")], 2),
    "qmodel-10-4-2-eval": lambda s, tmp: (
        ["eval", "--qmodel", _qmodel(tmp, (10, 4, 2)), "--data", s.data], 2),
    "qmodel-10-4-2-infer": lambda s, tmp: (
        ["infer", "--qmodel", _qmodel(tmp, (10, 4, 2)), "--row", ROW], 2),
    "qmodel-fan-in-32769-eval": lambda s, tmp: (
        ["eval", "--qmodel", _wide_qmodel(tmp, 32769), "--data", s.data], 2),
    "qmodel-fan-in-32769-infer": lambda s, tmp: (
        ["infer", "--qmodel", _wide_qmodel(tmp, 32769), "--row", ROW], 2),
    "qmodel-header-only": lambda s, tmp: (
        ["infer", "--qmodel", _edited(s.qmodel, tmp / "m.qtxt", 6, None),
         "--row", ROW], 2),
    "qmodel-cut-mid-layer": lambda s, tmp: (
        ["infer", "--qmodel", _edited(s.qmodel, tmp / "m.qtxt", 12, None),
         "--row", ROW], 2),
    "qmodel-stdmean-9-words": lambda s, tmp: (
        ["infer", "--qmodel", _edited(s.qmodel, tmp / "m.qtxt", 4, " ".join(
            _words(s.qmodel, 4)[:-1])),
         "--row", ROW], 2),
    "qmodel-qin-16-8": lambda s, tmp: (
        ["infer", "--qmodel", _edited(s.qmodel, tmp / "m.qtxt", 2, "QIN 16 8"),
         "--row", ROW], 2),
    "qmodel-word-out-of-range": lambda s, tmp: (
        ["eval", "--qmodel", _edited(s.qmodel, tmp / "m.qtxt", 7, " ".join(
            ["99999999999"] + _words(s.qmodel, 7)[1:])),
         "--data", s.data], 2),
    "qmodel-word-beyond-int64": lambda s, tmp: (
        ["eval", "--qmodel", _edited(s.qmodel, tmp / "m.qtxt", 7, " ".join(
            ["99999999999999999999"] + _words(s.qmodel, 7)[1:])),
         "--data", s.data], 2),
    "infer-row-nan": lambda s, tmp: (
        ["infer", "--qmodel", s.qmodel, "--row", ROW.replace("24.2", "nan")], 1),
    "infer-row-inf": lambda s, tmp: (
        ["infer", "--qmodel", s.qmodel, "--row", ROW.replace("24.2", "-inf")], 1),
    "csv-inf-cell": lambda s, tmp: (
        ["eval", "--qmodel", s.qmodel, "--data", _write(
            tmp / "d.csv", Path(s.data).read_bytes().replace(b"\n1,", b"\ninf,"))],
        2),
    "csv-not-utf8": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", _write(tmp / "d.csv", b"\xff\n")],
        2),
    "csv-body-byte-a0": lambda s, tmp: (  # NBSP in latin-1, not UTF-8
        ["eval", "--model", s.model, "--data", _write(
            tmp / "d.csv",
            Path(s.data).read_bytes().replace(b"\n1,", b"\n1\xa0,"))], 2),
    "csv-long-header-cell": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", _write(
            tmp / "d.csv", b"x" * 200_000 + Path(s.data).read_bytes()[1:])], 2),
    "csv-long-data-cell": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", _write(
            tmp / "d.csv", Path(s.data).read_bytes().replace(
                b"\n1,", b"\n" + b"x" * 200_000 + b","))], 2),
    "train-lr-nan": lambda s, tmp: (
        ["train", "--data", s.data, "--lr", "nan",
         "--out-model", str(tmp / "m.txt")], 1),
    "train-psi-inf": lambda s, tmp: (
        ["train", "--data", s.data, "--psi", "inf",
         "--out-model", str(tmp / "m.txt")], 1),
    "train-lr-1e300": lambda s, tmp: (
        ["train", "--data", s.data, "--lr", "1e300",
         "--out-model", str(tmp / "m.txt")], 1),
    "config-list": lambda s, tmp: (
        ["--config", _write(tmp / "c.json", b"[1, 2]"), "gen-data",
         "--n", "5", "--out", str(tmp / "d.csv")], 1),
    "config-scalar": lambda s, tmp: (
        ["--config", _write(tmp / "c.json", b"3"), "gen-data",
         "--n", "5", "--out", str(tmp / "d.csv")], 1),
    "config-null-value": lambda s, tmp: (
        ["--config", _write(tmp / "c.json", b'{"out": null}'), "gen-data",
         "--n", "5"], 1),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_a_one_line_error(case, saved, tmp_path, capsys):
    """Every malformed input exits 1 (usage) or 2 (data) with a one-line
    `error:` message; an exception or a warning escaping main fails the
    test."""
    argv, expected = MALFORMED[case](saved, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv)
    assert code == expected
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_huge_finite_values_saturate_silently(saved, tmp_path, capsys):
    """A finite 1e305 in a CSV cell or in --row saturates its frame word:
    exit 0, nothing on stderr, and no numpy warning."""
    data = _write(tmp_path / "d.csv",
                  Path(saved.data).read_bytes().replace(b"\n1,", b"\n1e305,"))
    row = ROW.replace("24.2", "-1e305")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["eval", "--qmodel", saved.qmodel, "--data", data],
                     ["infer", "--qmodel", saved.qmodel, "--row", row]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, "")
