import codecs
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fcdsae
from fcdsae import dataset, network, quantized
from fcdsae.cli import main
from fcdsae.dataset import Standardizer
from fcdsae.quantized import QFormat

from oracles import random_network


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestGenData:
    def test_writes_rows_and_distribution(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, _ = run(capsys, "gen-data", "--n", "100", "--seed", "1",
                              "--out", str(out))
        assert code == 0
        assert "class distribution" in stdout
        assert len(out.read_text().splitlines()) == 101

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


class TestTrain:
    def test_prints_metric_block(self, saved, tmp_path, capsys):
        model = tmp_path / "m.txt"
        report = tmp_path / "r.txt"
        code, stdout, _ = run(capsys, "train", "--data", saved.data,
                              "--epochs", "1", "--out-model", str(model),
                              "--out-report", str(report))
        assert code == 0
        assert "Accuracy" in stdout
        assert model.read_bytes() == Path(saved.model).read_bytes()
        assert "# reproducibility:" in report.read_text()

    def test_defaults_are_the_trainer_defaults(self, saved, tmp_path, capsys):
        report = tmp_path / "r.txt"
        code, _, _ = run(capsys, "train", "--data", saved.data,
                         "--out-model", str(tmp_path / "m.txt"),
                         "--out-report", str(report))
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[2:4] == [
            "lr: 0.001  batch_size: 64  max_epochs: 15  seed: 42",
            "sparsity: xi=0.05 psi=0.001 clamp_eps=1e-06"]

    @pytest.mark.skipif(sys.platform == "win32", reason="os.mkfifo is POSIX")
    def test_unwritable_report_leaves_a_fifo_model(self, saved, tmp_path,
                                                   capsys):
        """A FIFO as --out-model gets the whole model and is not removed
        when the report cannot be written."""
        fifo, got = tmp_path / "m.fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code, stdout, err = run(capsys, "train", "--data", saved.data,
                                "--epochs", "1", "--out-model", str(fifo),
                                "--out-report", str(tmp_path / "missing" / "r.txt"))
        reader.join(timeout=60)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert got == [Path(saved.model).read_bytes()] and fifo.is_fifo()


class TestQuantize:
    def test_writes_qmodel(self, saved, tmp_path, capsys):
        out = tmp_path / "m.qtxt"
        code, stdout, _ = run(capsys, "quantize", "--model", saved.model,
                              "--format", "Q8.8", "--out", str(out))
        assert code == 0
        assert "saturated" in stdout
        assert out.read_text().startswith("FCDSAE-Q 1\nQ 16 8\n")

    def test_round_trip_matches_memory(self, saved):
        params, std = network.load_model(saved.model)
        qm = quantized.quantize_model(params, std, QFormat(16, 8))
        loaded = quantized.load_qmodel(saved.qmodel)
        assert [w.tolist() for w in loaded.weights] \
            == [w.tolist() for w in qm.weights]
        assert loaded.std_mean.tolist() == qm.std_mean.tolist()


class TestEval:
    def test_float_eval(self, saved, capsys):
        code, stdout, _ = run(capsys, "eval", "--model", saved.model,
                              "--data", saved.data)
        assert code == 0
        assert "Accuracy" in stdout

    def test_quantized_eval(self, saved, capsys):
        code, stdout, _ = run(capsys, "eval", "--qmodel", saved.qmodel,
                              "--data", saved.data)
        assert code == 0
        assert "quantized accuracy" in stdout


class TestInfer:
    def test_table_row(self, saved, capsys):
        code, stdout, _ = run(capsys, "infer", "--qmodel", saved.qmodel,
                              "--row", ROW)
        assert code == 0
        assert stdout.startswith("class: ")
        assert int(stdout.splitlines()[0].split()[1]) in (0, 1, 2)
        assert len(stdout.splitlines()[1].split()) == 5  # "output words:" + 3

    def test_deterministic(self, saved, capsys):
        _, out1, _ = run(capsys, "infer", "--qmodel", saved.qmodel, "--row", ROW)
        _, out2, _ = run(capsys, "infer", "--qmodel", saved.qmodel, "--row", ROW)
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

    def test_value_may_start_with_a_dash(self, tmp_path, capsys, monkeypatch):
        """A config value goes in as one `--key=value` word, as `--out=-x.csv`
        does on the command line, so argparse does not read it as a flag."""
        monkeypatch.chdir(tmp_path)
        Path("conf.json").write_text(json.dumps({"n": 5, "out": "-x.csv"}))
        code, _, _ = run(capsys, "--config", "conf.json", "gen-data")
        assert code == 0
        assert len(Path("-x.csv").read_text().splitlines()) == 6


def _edited(src, dst, line, words):
    """Copy src to dst with one line replaced (None cuts the file there)."""
    lines = Path(src).read_text().splitlines()
    lines[line:] = [] if words is None else [words] + lines[line + 1:]
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(dst)


def _words(path, line):
    return Path(path).read_text().splitlines()[line].split()


def _std(n_in):
    return Standardizer(mean=np.zeros(n_in), std=np.ones(n_in))


def _model(tmp, topology):
    path = tmp / "m.txt"
    network.save_model(random_network(topology, seed=1), path,
                       _std(topology[0]))
    return str(path)


def _qmodel(tmp, topology):
    """The Q8.8 model.qtxt of the network `_model` writes."""
    path = tmp / "m.qtxt"
    quantized.save_qmodel(quantized.quantize_model(
        random_network(topology, seed=1), _std(topology[0]), QFormat(16, 8)),
        path)
    return str(path)


def _wide_qmodel(tmp, hidden):
    """A 10-hidden-3 model.qtxt of zero words."""
    path = tmp / "m.qtxt"
    quantized.save_qmodel(quantized.QuantizedModel(
        fmt=QFormat(16, 8), weights=[np.zeros((hidden, 10), np.int64),
                                np.zeros((3, hidden), np.int64)],
        biases=[np.zeros(hidden, np.int64), np.zeros(3, np.int64)],
        std_mean=np.zeros(10, np.int64), std_invstd=np.zeros(10, np.int64)), path)
    return str(path)


def _write(path, content):
    path.write_bytes(content)
    return str(path)


def _first_rows(src, dst, n):
    """Copy a data CSV keeping its header and first n rows."""
    lines = Path(src).read_bytes().split(b"\r\n")
    return _write(dst, b"\r\n".join(lines[:n + 1] + [b""]))


def _first_row(src, dst, column, cell, row=1):
    """Copy a data CSV with the first (or the `row`th) data row's `column`
    cell set to `cell`."""
    lines = Path(src).read_bytes().split(b"\r\n")
    cells = lines[row].split(b",")
    cells[dataset.COLUMNS.index(column)] = cell
    lines[row] = b",".join(cells)
    return _write(dst, b"\r\n".join(lines))


def _link(src, dst):
    """A hard link dst to src: no symlink resolves it to src."""
    os.link(src, dst)
    return str(dst)


def _directory(path):
    """A directory holding an empty directory `keep`."""
    (path / "keep").mkdir(parents=True)
    return str(path)


def _missing(path):
    return f"[Errno 2] No such file or directory: {str(path)!r}\n"


def _not_utf8(path, line, byte):
    return f"{path} line {line}: not UTF-8 text (byte {byte:#04x})\n"


def _off_shape(path, line, read):
    """A model file of another topology than 10-32-16-3: its loader names
    the line, the LAYER line expected there and the one read."""
    return f"{path} line {line}: expected 'LAYER 10 32', read '{read}'\n"


def _unencodable(flag, path, encoding=sys.getfilesystemencoding()):
    """A file flag holding a path the file system's encoding cannot encode:
    refused before any file is read or written."""
    return (f"{flag}: cannot encode {ascii(path)} in the file system's "
            f"encoding ({encoding})\n")


def _same_file(out, other):
    return f"{out} and {other} name the same file\n"


def _quantize_as(fmt, message=None):
    """A quantize of the saved model at --format `fmt`, a usage error; by
    default `fmt` does not read as Qi.f."""
    message = message or f"bad Q-format string {fmt!r}, expected 'Qi.f'\n"
    return lambda s, tmp: (["quantize", "--model", s.model, "--format", fmt,
                            "--out", str(tmp / "out.qtxt")], 1, message)


def _infer_row(row):
    """An infer of the saved model at a --row that is not ten finite numbers."""
    return lambda s, tmp: (
        ["infer", "--qmodel", s.qmodel, "--row", row], 1,
        f"--row contains a value that is not a finite number: {row!r}\n")


def _bad_last_cell(s, tmp):
    """A gen-data CSV whose last cell is \\xe9."""
    raw = Path(s.data).read_bytes()
    path = _write(tmp / "d.csv", raw[:raw.rindex(b",") + 1] + b"\xe9\r\n")
    return (["eval", "--qmodel", s.qmodel, "--data", path], 2,
            _not_utf8(path, 21, 0xe9))  # header + 20 rows


def _bad_qmodel_line(s, tmp):
    """A .qtxt whose second line is \\xff."""
    lines = Path(s.qmodel).read_bytes().split(b"\n")
    path = _write(tmp / "m.qtxt", b"\n".join([lines[0], b"\xff"] + lines[2:]))
    return ["infer", "--qmodel", path, "--row", ROW], 2, _not_utf8(path, 2, 0xff)


def _bad_weight_row(s, tmp):
    """A model.txt with \\xc3 appended to its first weight row."""
    lines = Path(s.model).read_bytes().split(b"\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith(b"LAYER")) + 1
    lines[i] += b"\xc3"
    path = _write(tmp / "m.txt", b"\n".join(lines))
    return (["eval", "--model", path, "--data", s.data], 2,
            _not_utf8(path, 5, 0xc3))


def _cr_only_csv(s, tmp):
    """A gen-data CSV with CR line ends and \\xff opening line 3."""
    lines = Path(s.data).read_bytes().split(b"\r\n")
    lines[2] = b"\xff" + lines[2]
    path = _write(tmp / "d.csv", b"\r".join(lines))
    return (["eval", "--model", s.model, "--data", path], 2,
            _not_utf8(path, 3, 0xff))


def _cr_only_model(s, tmp):
    """A model.txt with CR line ends and \\xff opening line 3."""
    lines = Path(s.model).read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path = _write(tmp / "m.txt", b"\r".join(lines))
    return (["eval", "--model", path, "--data", s.data], 2,
            _not_utf8(path, 3, 0xff))


# id -> f(saved files, tmp dir) returning (argv, exit code, message): stderr
# is the one line `error: ` + message. A message without its "\n" is the
# line's head only, where the tail is not the program's; its row says why.
# model.txt lines are: magic, STDMEAN, STDSTD, LAYER 10 32, weight rows...;
# model.qtxt lines are: magic, Q, QIN, QSCALE, STDMEAN, STDINVSTD,
# LAYER 10 32, weight rows...
MALFORMED = {
    "model-cut-mid-layer": lambda s, tmp: (
        ["eval", "--model", (m := _edited(s.model, tmp / "m.txt", 9, None)),
         "--data", s.data], 2, f"{m} line 9: file ends, expected 10 weights\n"),
    "model-cut-after-first-bias": lambda s, tmp: (
        ["eval", "--model", (m := _edited(s.model, tmp / "m.txt", 38, None)),
         "--data", s.data], 2,
        f"{m} line 38: file ends, expected 'LAYER 32 16'\n"),
    "model-header-only": lambda s, tmp: (
        ["eval", "--model", (m := _edited(s.model, tmp / "m.txt", 3, None)),
         "--data", s.data], 2,
        f"{m} line 3: file ends, expected 'LAYER 10 32'\n"),
    "model-stdstd-zero": lambda s, tmp: (
        ["quantize", "--model",
         (m := _edited(s.model, tmp / "m.txt", 2, "STDSTD" + " 0" * 10)),
         "--out", str(tmp / "out.qtxt")], 2,
        f"{m}: every STDSTD value must be > 0\n"),
    "model-nan-weight": lambda s, tmp: (
        ["eval", "--model", (m := _edited(s.model, tmp / "m.txt", 4, " ".join(
            ["nan"] + _words(s.model, 4)[1:]))),
         "--data", s.data], 2, f"{m} line 5: non-finite value 'nan'\n"),
    "model-weight-row-1e308": lambda s, tmp: (  # x @ W.T overflows
        ["eval", "--model", (m := _edited(s.model, tmp / "m.txt", 4,
                                          " ".join(["1e308"] * 10))),
         "--data", s.data], 2,
        # head only: how many rows overflow follows the trained weights
        f"{m} on {s.data}: non-finite output on "),
    "model-four-inputs": lambda s, tmp: (
        ["eval", "--model", (m := _model(tmp, (4, 4, 3))), "--data", s.data], 2,
        _off_shape(m, 4, "LAYER 4 4")),
    "model-10-4-2-eval": lambda s, tmp: (
        ["eval", "--model", (m := _model(tmp, (10, 4, 2))), "--data", s.data], 2,
        _off_shape(m, 4, "LAYER 10 4")),
    "model-10-4-2-quantize": lambda s, tmp: (
        ["quantize", "--model", (m := _model(tmp, (10, 4, 2))),
         "--out", str(tmp / "out.qtxt")], 2, _off_shape(m, 4, "LAYER 10 4")),
    "eval-model-empty-path": lambda s, tmp: (
        ["eval", "--model", "", "--data", s.data], 2, _missing("")),
    "eval-qmodel-given-float-model": lambda s, tmp: (
        ["eval", "--qmodel", s.model, "--data", s.data], 2,
        f"{s.model}: missing 'FCDSAE-Q 1' header\n"),
    "qmodel-10-4-2-eval": lambda s, tmp: (
        ["eval", "--qmodel", (q := _qmodel(tmp, (10, 4, 2))), "--data", s.data],
        2, _off_shape(q, 7, "LAYER 10 4")),
    "qmodel-10-4-2-infer": lambda s, tmp: (
        ["infer", "--qmodel", (q := _qmodel(tmp, (10, 4, 2))), "--row", ROW], 2,
        _off_shape(q, 7, "LAYER 10 4")),
    "qmodel-fan-in-32769-eval": lambda s, tmp: (
        ["eval", "--qmodel", (q := _wide_qmodel(tmp, 32769)), "--data", s.data],
        2, _off_shape(q, 7, "LAYER 10 32769")),
    "qmodel-fan-in-32769-infer": lambda s, tmp: (
        ["infer", "--qmodel", (q := _wide_qmodel(tmp, 32769)), "--row", ROW], 2,
        _off_shape(q, 7, "LAYER 10 32769")),
    "qmodel-header-only": lambda s, tmp: (
        ["infer", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 6, None)),
         "--row", ROW], 2, f"{q} line 6: file ends, expected 'LAYER 10 32'\n"),
    "qmodel-cut-mid-layer": lambda s, tmp: (
        ["infer", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 12, None)),
         "--row", ROW], 2, f"{q} line 12: file ends, expected 10 weights\n"),
    "qmodel-stdmean-9-words": lambda s, tmp: (
        ["infer", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 4, " ".join(
            _words(s.qmodel, 4)[:-1]))),
         "--row", ROW], 2, f"{q}: STDMEAN has 9 values, expected 10\n"),
    "qmodel-qin-16-8": lambda s, tmp: (
        ["infer", "--qmodel",
         (q := _edited(s.qmodel, tmp / "m.qtxt", 2, "QIN 16 8")), "--row", ROW],
        2, f"{q}: QIN must be 32 18 (Q18.14), the engine's fixed format\n"),
    "qmodel-q-40-8": lambda s, tmp: (  # wider than 32 bits
        ["eval", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 1, "Q 40 8")),
         "--data", s.data], 2,
        f"{q}: Q record: total_bits must be in [2,32], got 40\n"),
    "qmodel-q-8-8": lambda s, tmp: (  # no fractional bit
        ["eval", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 1, "Q 8 8")),
         "--data", s.data], 2,
        f"{q}: Q record: integer_bits must be in [1, total_bits), got 8\n"),
    "qmodel-word-out-of-range": lambda s, tmp: (
        ["eval", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 7, " ".join(
            ["99999999999"] + _words(s.qmodel, 7)[1:]))),
         "--data", s.data], 2, f"{q}: layer 0 weight word 99999999999 is "
                               "outside the Q8.8 range [-32768, 32767]\n"),
    "qmodel-stdinvstd-negative": lambda s, tmp: (  # quantize writes 1 / std > 0
        ["eval", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 5, " ".join(
            ["STDINVSTD", "-" + (w := _words(s.qmodel, 5)[1])]
            + _words(s.qmodel, 5)[2:]))),
         "--data", s.data], 2, f"{q}: STDINVSTD word -{w} is negative\n"),
    "qmodel-word-beyond-int64": lambda s, tmp: (
        ["eval", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 7, " ".join(
            ["99999999999999999999"] + _words(s.qmodel, 7)[1:]))),
         "--data", s.data], 2, f"{q}: layer 0 weight word 99999999999999999999 "
                               "is outside the Q8.8 range [-32768, 32767]\n"),
    "infer-row-three-values": lambda s, tmp: (
        ["infer", "--qmodel", s.qmodel, "--row", "1,2,3"], 1,
        "--row needs exactly 10 values, got 3\n"),
    "infer-row-nan": _infer_row(ROW.replace("24.2", "nan")),
    "infer-row-inf": _infer_row(ROW.replace("24.2", "-inf")),
    "infer-row-underscore": _infer_row("1_0" + ROW[1:]),
    "infer-row-arabic-indic": _infer_row("\u0663" + ROW[1:]),
    "csv-inf-cell": lambda s, tmp: (
        ["eval", "--qmodel", s.qmodel, "--data", (d := _write(
            tmp / "d.csv", Path(s.data).read_bytes().replace(b"\n1,", b"\ninf,")))],
        2, f"{d} row 2, column 't': not a finite number 'inf'\n"),
    "csv-underscore-cell": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", (d := _write(
            tmp / "d.csv", Path(s.data).read_bytes().replace(b"\n1,", b"\n1_0,")))],
        2, f"{d} row 2, column 't': not a finite number '1_0'\n"),
    "csv-arabic-indic-cell": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", (d := _write(
            tmp / "d.csv", Path(s.data).read_bytes().replace(
                b"\n1,", "\n\u0663,".encode())))],
        2, f"{d} row 2, column 't': not a finite number '\u0663'\n"),
    "csv-header-three-columns": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", (d := _write(
            tmp / "d.csv", b"t,Power,HFR\n1,2,88\n"))], 2,
        f"{d}: header mismatch; missing columns ['CurrD', 'StaVol', 'Var', "
        "'WaterTempOut', 'H2PressIn', 'HCPPower', 'AirPressIn', 'AirFlow']\n"),
    "csv-missing-train": lambda s, tmp: (
        ["train", "--data", str(tmp / "no.csv"),
         "--out-model", str(tmp / "m.txt")], 2, _missing(tmp / "no.csv")),
    "csv-not-utf8": lambda s, tmp: (
        ["eval", "--model", s.model,
         "--data", (d := _write(tmp / "d.csv", b"\xff\n"))], 2,
        _not_utf8(d, 1, 0xff)),
    "csv-last-cell-e9": _bad_last_cell,
    "qmodel-line-2-ff": _bad_qmodel_line,
    "model-weight-row-c3": _bad_weight_row,
    "csv-cr-only-line-3-ff": _cr_only_csv,
    "model-cr-only-line-3-ff": _cr_only_model,
    "csv-body-byte-a0": lambda s, tmp: (  # NBSP in latin-1, not UTF-8
        ["eval", "--model", s.model, "--data", (d := _write(
            tmp / "d.csv",
            Path(s.data).read_bytes().replace(b"\n1,", b"\n1\xa0,")))], 2,
        _not_utf8(d, 2, 0xa0)),
    "csv-long-header-cell": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", (d := _write(
            tmp / "d.csv", b"x" * 200_000 + Path(s.data).read_bytes()[1:]))], 2,
        f"{d} line 1: field larger than field limit (131072)\n"),
    "csv-long-data-cell": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", (d := _write(
            tmp / "d.csv", Path(s.data).read_bytes().replace(
                b"\n1,", b"\n" + b"x" * 200_000 + b",")))], 2,
        f"{d} line 2: field larger than field limit (131072)\n"),
    "train-zero-epochs": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "0",
         "--out-model", str(tmp / "m.txt")], 1,
        "max_epochs must be >= 1, got 0\n"),
    "train-negative-seed": lambda s, tmp: (
        ["train", "--data", s.data, "--seed", "-1",
         "--out-model", str(tmp / "m.txt")], 1,
        "argument --seed: must be >= 0, got -1\n"),
    "train-lr-nan": lambda s, tmp: (
        ["train", "--data", s.data, "--lr", "nan",
         "--out-model", str(tmp / "m.txt")], 1,
        "argument --lr: invalid number value: 'nan'\n"),
    "train-psi-inf": lambda s, tmp: (
        ["train", "--data", s.data, "--psi", "inf",
         "--out-model", str(tmp / "m.txt")], 1,
        "argument --psi: invalid number value: 'inf'\n"),
    "train-lr-1e300": lambda s, tmp: (  # diverges at the default epochs
        ["train", "--data", s.data, "--lr", "1e300",
         "--out-model", str(tmp / "m.txt")], 1,
        "training diverged at epoch 1: non-finite output on 15 of 15 rows\n"),
    # the report is written after the model: a report that cannot be
    # written takes the model with it, and a model that cannot be written
    # stops before the report
    "train-report-missing-dir": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1",
         "--out-model", str(tmp / "m.txt"),
         "--out-report", str(tmp / "missing" / "r.txt")], 2,
        _missing(tmp / "missing" / "r.txt")),
    "train-report-unencodable": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1",
         "--out-model", str(tmp / "m.txt"),
         "--out-report", (r := str(tmp / "\ud800.txt"))], 2,
        _unencodable("--out-report", r)),
    "eval-data-unencodable": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", (d := str(tmp / "\ud800.csv"))],
        2, _unencodable("--data", d)),
    "config-out-unencodable": lambda s, tmp: (  # JSON can hold a lone surrogate
        ["--config", _write(tmp / "c.json", b'{"n": 5, "out": "\\ud800.csv"}'),
         "gen-data"], 2, _unencodable("--out", "\ud800.csv")),
    "train-report-empty-path": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1",
         "--out-model", str(tmp / "m.txt"), "--out-report", ""], 2, _missing("")),
    "train-model-missing-dir": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1",
         "--out-model", str(tmp / "missing" / "m.txt"),
         "--out-report", str(tmp / "r.txt")], 2,
        _missing(tmp / "missing" / "m.txt")),
    # an output naming an input or another output, in any spelling, or a
    # hard link to one, is a usage error before anything is read
    "train-report-names-model": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1", "--out-model", "m.txt",
         "--out-report", "m.txt"], 1, _same_file("--out-model", "--out-report")),
    "train-report-names-model-dot": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1", "--out-model", "m.txt",
         "--out-report", "./m.txt"], 1, _same_file("--out-model", "--out-report")),
    "train-model-names-data": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1", "--out-model", s.data], 1,
        _same_file("--out-model", "--data")),
    "train-report-names-data": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1", "--out-model",
         str(tmp / "new.txt"), "--out-report", s.data], 1,
        _same_file("--out-report", "--data")),
    "quantize-out-names-model": lambda s, tmp: (
        ["quantize", "--model", s.model, "--out", s.model], 1,
        _same_file("--out", "--model")),
    "eval-confusion-names-data": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", s.data,
         "--out-confusion", s.data], 1, _same_file("--out-confusion", "--data")),
    "eval-confusion-names-model": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", s.data,
         "--out-confusion", s.model], 1, _same_file("--out-confusion", "--model")),
    "eval-confusion-hard-linked-to-data": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", s.data,
         "--out-confusion", _link(s.data, tmp / "h.csv")], 1,
        _same_file("--out-confusion", "--data")),
    "gen-data-out-names-config": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"n": 8}')), "gen-data",
         "--out", c], 1, _same_file("--out", "--config")),
    "gen-data-out-names-config-eq": lambda s, tmp: (
        ["--config=" + (c := _write(tmp / "c.json", b'{"n": 8}')), "gen-data",
         "--out", c], 1, _same_file("--out", "--config")),
    "gen-data-out-names-config-abbrev": lambda s, tmp: (
        ["--conf", (c := _write(tmp / "c.json", b'{"n": 8}')), "gen-data",
         "--out", c], 1, _same_file("--out", "--config")),
    # the confusion CSV is written before the metric table is printed, so
    # an output that cannot be opened prints no result
    "eval-model-confusion-missing-dir": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", s.data,
         "--out-confusion", str(tmp / "missing" / "cm.csv")], 2,
        _missing(tmp / "missing" / "cm.csv")),
    "eval-qmodel-confusion-missing-dir": lambda s, tmp: (
        ["eval", "--qmodel", s.qmodel, "--data", s.data,
         "--out-confusion", str(tmp / "missing" / "cm.csv")], 2,
        _missing(tmp / "missing" / "cm.csv")),
    "eval-confusion-empty-path": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", s.data, "--out-confusion", ""],
        2, _missing("")),
    "format-zero-integer-bits": _quantize_as(
        "Q0.16", "integer_bits must be in [1, total_bits), got 0\n"),
    "format-plus-sign": _quantize_as("Q+8.8"),
    "format-leading-space": _quantize_as("Q 8.8"),
    "format-space-before-dot": _quantize_as("Q8 .8"),
    "format-arabic-indic-digits": _quantize_as("Q\u0668.\u0668"),
    "format-underscore": _quantize_as("Q8_0.8"),  # Q80.8: too wide anyway
    "format-underscore-as-q12.4": _quantize_as("Q1_2.4"),
    "format-5000-digits": _quantize_as("Q" + "9" * 5000 + ".8"),
    # a config value no flag can take, and a file json cannot read, are
    # usage errors naming the config file; the bad values name their key
    "config-missing": lambda s, tmp: (
        ["--config", str(tmp / "no.json"), "gen-data", "--n", "5",
         "--out", str(tmp / "d.csv")], 1,
        "cannot read config file: " + _missing(tmp / "no.json")),
    "config-list": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b"[1, 2]")), "gen-data",
         "--n", "5", "--out", str(tmp / "d.csv")], 1,
        f"config file {c} must hold a JSON object\n"),
    "config-scalar": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b"3")), "gen-data",
         "--n", "5", "--out", str(tmp / "d.csv")], 1,
        f"config file {c} must hold a JSON object\n"),
    "config-null-value": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"out": null}')), "gen-data",
         "--n", "5"], 1, f"config {c}: 'out' is not a number or NUL-free string\n"),
    "config-true-value": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"n": 5, "out": true}')),
         "gen-data"], 1, f"config {c}: 'out' is not a number or NUL-free string\n"),
    "config-list-value": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"n": 5, "out": [1]}')),
         "gen-data"], 1, f"config {c}: 'out' is not a number or NUL-free string\n"),
    "config-object-value": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"n": 5, "out": {"a": 1}}')),
         "gen-data"], 1, f"config {c}: 'out' is not a number or NUL-free string\n"),
    "config-nul-in-out": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"n": 5, "out": "a\\u0000b"}')),
         "gen-data"], 1, f"config {c}: 'out' is not a number or NUL-free string\n"),
    "config-nul-in-data": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"data": "a\\u0000b"}')),
         "eval", "--model", s.model], 1,
        f"config {c}: 'data' is not a number or NUL-free string\n"),
    "config-nul-in-key": lambda s, tmp: (  # the word would be --out=a\0b=1
        ["--config", (c := _write(tmp / "c.json", b'{"n": 5, "out=a\\u0000b": 1}')),
         "gen-data"], 1,
        f"config {c}: 'out=a\\x00b' is not a number or NUL-free string\n"),
    "config-nested-100000": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"n": '
                                  + b"[" * 100_000 + b"]" * 100_000 + b"}")),
         "gen-data", "--out", str(tmp / "d.csv")], 1,
        # head only: the tail is Python's RecursionError text
        f"bad config file {c}: "),
    "config-not-json": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b"{n: 5}")), "gen-data",
         "--out", str(tmp / "d.csv")], 1,
        f"bad config file {c}: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)\n"),
    "config-not-utf8": lambda s, tmp: (
        ["--config", (c := _write(tmp / "c.json", b'{"n": 5, "out": "\xff"}')),
         "gen-data"], 1, f"bad config file {c}: 'utf-8' codec can't decode "
                         "byte 0xff in position 17: invalid start byte\n"),
    "config-negative-seed": lambda s, tmp: (
        ["--config", _write(tmp / "c.json", b'{"seed": -3}'), "gen-data",
         "--n", "5", "--out", str(tmp / "d.csv")], 1,
        "argument --seed: must be >= 0, got -3\n"),
    "config-confusion-empty-path": lambda s, tmp: (
        ["--config", _write(tmp / "c.json", b'{"out-confusion": ""}'), "eval",
         "--qmodel", s.qmodel, "--data", s.data], 2, _missing("")),
    "gen-data-n-zero": lambda s, tmp: (
        ["gen-data", "--n", "0", "--seed", "1", "--out", str(tmp / "d.csv")], 1,
        "n must be >= 1, got 0\n"),
    "gen-data-out-missing-dir": lambda s, tmp: (
        ["gen-data", "--n", "5", "--seed", "1",
         "--out", str(tmp / "missing" / "d.csv")], 2,
        _missing(tmp / "missing" / "d.csv")),
    "gen-data-out-directory": lambda s, tmp: (  # and leaves it as it was
        ["gen-data", "--n", "5", "--out", (d := _directory(tmp / "d"))], 2,
        f"[Errno 21] Is a directory: {d!r}\n"),
    "gen-data-negative-seed": lambda s, tmp: (
        ["gen-data", "--n", "5", "--seed", "-3", "--out", str(tmp / "d.csv")], 1,
        "argument --seed: must be >= 0, got -3\n"),
    "train-batch-underscore": lambda s, tmp: (  # int() reads 10
        ["train", "--data", s.data, "--batch=1_0",
         "--out-model", str(tmp / "m.txt")], 1,
        "argument --batch: invalid integer value: '1_0'\n"),
    "train-lr-arabic-indic": lambda s, tmp: (  # float() reads 3.0
        ["train", "--data", s.data, "--lr=\u0663",
         "--out-model", str(tmp / "m.txt")], 1,
        "argument --lr: invalid number value: '\u0663'\n"),
    "gen-data-n-arabic-indic": lambda s, tmp: (
        ["gen-data", "--n", "\u0663", "--out", str(tmp / "d.csv")], 1,
        "argument --n: invalid integer value: '\u0663'\n"),
    "config-epochs-underscore": lambda s, tmp: (
        ["--config", _write(tmp / "c.json", b'{"epochs": "1_5"}'), "train",
         "--data", s.data, "--out-model", str(tmp / "m.txt")], 1,
        "argument --epochs: invalid integer value: '1_5'\n"),
    "gen-data-n-beyond-numpy": lambda s, tmp: (  # a ValueError in numpy
        ["gen-data", "--n", "100000000000000000000",
         "--out", str(tmp / "d.csv")], 2,
        "out of memory: 100000000000000000000 rows of 11 values do not fit\n"),
    # data faults found after parsing, the labels and the split, name the CSV
    "csv-hfr-negative-eval-model": lambda s, tmp: (
        ["eval", "--model", s.model,
         "--data", (d := _first_row(s.data, tmp / "d.csv", "HFR", b"-1"))], 2,
        f"{d}: HFR must be finite and positive, got -1.0\n"),
    "csv-hfr-negative-eval-qmodel": lambda s, tmp: (
        ["eval", "--qmodel", s.qmodel,
         "--data", (d := _first_row(s.data, tmp / "d.csv", "HFR", b"-1"))], 2,
        f"{d}: HFR must be finite and positive, got -1.0\n"),
    "csv-hfr-negative-train": lambda s, tmp: (
        ["train", "--data", (d := _first_row(s.data, tmp / "d.csv", "HFR", b"-1")),
         "--out-model", str(tmp / "m.txt")], 2,
        f"{d}: HFR must be finite and positive, got -1.0\n"),
    "csv-three-rows-train": lambda s, tmp: (
        ["train", "--data", (d := _first_rows(s.data, tmp / "d.csv", 3)),
         "--out-model", str(tmp / "m.txt")], 2,
        f"{d}: need at least 4 examples to split 3:1, got 3\n"),
    # a value near 1e308: the first row is in the training partition at the
    # default seed, so train's std overflows, and under eval so does its
    # standardized value
    "csv-hcppower-1e308-train": lambda s, tmp: (
        ["train", "--data",
         (d := _first_row(s.data, tmp / "d.csv", "HCPPower", b"1e308")),
         "--out-model", str(tmp / "m.txt")], 2,
        f"{d}: column 'HCPPower': mean or std overflows float64\n"),
    "csv-hcppower-1e308-eval-model": lambda s, tmp: (
        ["eval", "--model", s.model,
         "--data", (d := _first_row(s.data, tmp / "d.csv", "HCPPower", b"1e308"))],
        2, f"{s.model} on {d}: non-finite output on 1 of 20 rows\n"),
    # the second row is in the test partition: train's std is finite, and
    # the row's standardized value overflows in the per-epoch evaluation
    "csv-hcppower-1e308-test-partition": lambda s, tmp: (
        ["train", "--data",
         (d := _first_row(s.data, tmp / "d.csv", "HCPPower", b"1e308", row=2)),
         "--epochs", "1", "--out-model", str(tmp / "m.txt"),
         "--out-report", str(tmp / "r.txt")], 2,
        f"{d}: non-finite output on 1 of 5 rows\n"),
    # one Adam step at this rate, then the training rows evaluate to inf/NaN
    "train-last-step-diverges": lambda s, tmp: (
        ["train", "--data", s.data, "--epochs", "1", "--lr", "1e300",
         "--out-model", str(tmp / "m.txt"),
         "--out-report", str(tmp / "r.txt")], 1,
        "training diverged at epoch 1: non-finite output on 15 of 15 rows\n"),
}


def _tree(*dirs):
    """Every path under `dirs` -> its bytes, or None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes()
            for d in dirs for p in Path(d).rglob("*")}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_a_one_line_error(case, saved, tmp_path, capsys,
                                             monkeypatch):
    """Every malformed input exits 1 (usage) or 2 (data) with its one
    `error:` line on stderr and nothing on stdout, and leaves every path
    under tmp_path and the saved files as they were: no output is left
    behind and no input is written. An exception (a traceback) or a warning
    escaping main fails the test."""
    monkeypatch.chdir(tmp_path)  # a relative output lands where it is seen
    argv, expected, message = MALFORMED[case](saved, tmp_path)
    before = _tree(tmp_path, Path(saved.data).parent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (expected, "")
    want = "error: " + message
    assert err[:len(want)] == want
    assert err.count("\n") == 1 and err.endswith("\n")  # so err is the line
    assert _tree(tmp_path, Path(saved.data).parent) == before


def _refusal(case, saved, tmp_path, capsys):
    """Run MALFORMED[case]: its exit code, stderr and the path it passes
    after the flag its id opens with (csv-: --data, config-: --config)."""
    flag = {"csv": "--data", "config": "--config", "model": "--model",
            "qmodel": "--qmodel"}[case.split("-")[0]]
    argv, _, _ = MALFORMED[case](saved, tmp_path)
    code, _, err = run(capsys, *argv)
    return code, err, argv[argv.index(flag) + 1]


# The tests below check, for a family of MALFORMED rows, that the pinned
# line is built from the command line: it names the file the row passes.

@pytest.mark.parametrize("case", [
    "csv-hfr-negative-eval-model", "csv-hfr-negative-eval-qmodel",
    "csv-hfr-negative-train", "csv-three-rows-train",
    "csv-hcppower-1e308-train", "csv-hcppower-1e308-test-partition"])
def test_data_fault_names_the_file(case, saved, tmp_path, capsys):
    code, err, path = _refusal(case, saved, tmp_path, capsys)
    assert code == 2 and err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("case", [
    "config-nul-in-out", "config-nul-in-data", "config-nul-in-key",
    "config-nested-100000", "config-not-json", "config-not-utf8"])
def test_config_fault_names_the_file(case, saved, tmp_path, capsys):
    code, err, path = _refusal(case, saved, tmp_path, capsys)
    assert code == 1 and err.startswith((f"error: config {path}: ",
                                         f"error: bad config file {path}: "))


@pytest.mark.parametrize("case", ["qmodel-q-40-8", "qmodel-q-8-8"])
def test_bad_q_record_names_the_file(case, saved, tmp_path, capsys):
    code, err, path = _refusal(case, saved, tmp_path, capsys)
    assert code == 2 and err.startswith(f"error: {path}: Q record: ")


@pytest.mark.parametrize("case", [
    "model-four-inputs", "model-10-4-2-eval", "model-10-4-2-quantize",
    "qmodel-10-4-2-eval", "qmodel-10-4-2-infer",
    "qmodel-fan-in-32769-eval", "qmodel-fan-in-32769-infer"])
def test_off_shape_model_is_refused_by_its_loader(case, saved, tmp_path, capsys):
    code, err, path = _refusal(case, saved, tmp_path, capsys)
    assert code == 2 and err.startswith(f"error: {path} line ")
    assert ": expected 'LAYER 10 32', read 'LAYER " in err


@pytest.mark.parametrize("case", [
    "csv-not-utf8", "csv-last-cell-e9", "qmodel-line-2-ff",
    "model-weight-row-c3", "csv-cr-only-line-3-ff", "model-cr-only-line-3-ff"])
def test_file_not_utf8_names_the_file_and_line(case, saved, tmp_path, capsys):
    code, err, path = _refusal(case, saved, tmp_path, capsys)
    assert code == 2 and err.startswith(f"error: {path} line ")
    assert ": not UTF-8 text (byte 0x" in err


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


# a child interpreter that imports this fcdsae, as the tests do
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(fcdsae.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
# the C locale with UTF-8 mode off: the locale encoding is ASCII
C_LOCALE = dict(CHILD_ENV, PYTHONUTF8="0", LC_ALL="C")


def _child(script, cwd, env, *flags):
    """Run `script`, ASCII source, in a new interpreter in `cwd`."""
    return subprocess.run([sys.executable, *flags, "-c", script], cwd=cwd,
                          env=env, capture_output=True, encoding="utf-8",
                          errors="backslashreplace", timeout=300)


def _main_in_child(argv, cwd):
    """cli.main(argv) in a child under C_LOCALE: (exit code, stderr)."""
    done = _child("import sys; from fcdsae.cli import main; "
                  f"sys.exit(main({ascii(argv)}))", cwd, C_LOCALE)
    return done.returncode, done.stderr


@pytest.fixture(scope="module")
def c_locale(tmp_path_factory):
    """Skips the test if a child under C_LOCALE still reports UTF-8 as its
    locale encoding."""
    done = _child("import locale; print(locale.getpreferredencoding(False))",
                  tmp_path_factory.getbasetemp(), C_LOCALE)
    if codecs.lookup(done.stdout.strip()).name == "utf-8":
        pytest.skip("the C locale's encoding is UTF-8 on this system")


# id -> f(saved files, tmp dir) returning (argv, exit code, message), as in
# MALFORMED but with whole messages only: the same under the C locale as
# under UTF-8, since every file is read and written as UTF-8, except that a
# path the file system's encoding cannot encode is a data error
C_LOCALE_CASES = {
    "qmodel-arabic-indic-word": lambda s, tmp: (
        ["infer", "--qmodel", (q := _edited(s.qmodel, tmp / "m.qtxt", 7, " ".join(
            ["\u0663"] + _words(s.qmodel, 7)[1:]))), "--row", ROW],
        2, f"{q} line 8: '\\u0663' is not a plain ASCII number\n"),
    "csv-nbsp-row": lambda s, tmp: (
        ["eval", "--model", s.model, "--data", _write(
            tmp / "d.csv", Path(s.data).read_bytes().replace(
                b"\r\n1,", "\r\n\u00a0\r\n1,".encode()))], 0, None),
    "config-non-ascii-out": lambda s, tmp: (
        ["--config", _write(tmp / "c.json", '{"out": "\u00e9.csv"}'.encode()),
         "gen-data", "--n", "5"], 2, _unencodable("--out", "\u00e9.csv", "ascii")),
    "out-non-ascii": lambda s, tmp: (
        ["gen-data", "--n", "5", "--out", "\u00e9.csv"], 2,
        _unencodable("--out", "\u00e9.csv", "ascii")),
}


@pytest.mark.parametrize("case", C_LOCALE_CASES)
def test_c_locale_reads_and_writes_utf8(case, c_locale, saved, tmp_path):
    argv, expected, message = C_LOCALE_CASES[case](saved, tmp_path)
    code, err = _main_in_child(argv, tmp_path)
    assert (code, err) == (expected, f"error: {message}" if expected else "")


def test_no_text_file_uses_the_default_encoding(tmp_path):
    """The five commands, with every text file the CLI opens (a config, a
    report, a confusion CSV and a CSV the row reader decodes), under
    EncodingWarning as an error: an open without an encoding fails."""
    runs = [["--config", "c.json", "gen-data", "--out", "d.csv"],
            ["train", "--data", "d.csv", "--epochs", "1", "--out-model",
             "m.txt", "--out-report", "r.txt"],
            ["quantize", "--model", "m.txt", "--out", "m.qtxt"],
            ["eval", "--model", "m.txt", "--data", "nbsp.csv"],
            ["eval", "--qmodel", "m.qtxt", "--data", "d.csv",
             "--out-confusion", "cm.csv"],
            ["infer", "--qmodel", "m.qtxt", "--row", ROW]]
    (tmp_path / "c.json").write_text('{"n": 200}', encoding="utf-8")
    script = f"""
import sys
from pathlib import Path
from fcdsae.cli import main
for argv in {runs!r}:
    if argv[0] == "eval" and argv[-1] == "nbsp.csv":
        Path("nbsp.csv").write_bytes(Path("d.csv").read_bytes() + b"\\xc2\\xa0\\r\\n")
    if main(argv):
        sys.exit(f"{{argv}} failed")
"""
    done = _child(script, tmp_path, CHILD_ENV, "-X", "warn_default_encoding",
                  "-W", "error::EncodingWarning")
    assert done.returncode == 0, done.stderr


def _limited(argv, limit, cwd):
    """cli.main(argv) in a child whose files may not grow past `limit`
    bytes (RLIMIT_FSIZE, SIGXFSZ ignored): (exit code, stderr)."""
    done = _child("import resource, signal, sys; from fcdsae.cli import main; "
                  "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
                  "resource.setrlimit(resource.RLIMIT_FSIZE, "
                  f"({limit}, {limit})); sys.exit(main({ascii(argv)}))",
                  cwd, CHILD_ENV)
    return done.returncode, done.stderr


# id -> f(saved files, output path) returning (argv, file size limit): each
# output is larger than its limit
OVER_LIMIT = {
    "gen-data": lambda s, out: (["gen-data", "--n", "5000", "--out", out], 64 << 10),
    "train": lambda s, out: (["train", "--data", s.data, "--epochs", "1",
                              "--out-model", out], 8 << 10),
    "quantize": lambda s, out: (["quantize", "--model", s.model, "--out", out],
                                1 << 10),
    "eval-confusion": lambda s, out: (["eval", "--model", s.model, "--data", s.data,
                                       "--out-confusion", out], 16),
}


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_FSIZE is POSIX")
@pytest.mark.parametrize("case", OVER_LIMIT)
def test_failed_write_leaves_no_file(case, saved, tmp_path):
    """A write that fails part way (here: the file size limit) exits 2 with
    one `error:` line and removes what it wrote."""
    out = tmp_path / "out"
    argv, limit = OVER_LIMIT[case](saved, str(out))
    code, err = _limited(argv, limit, tmp_path)
    assert (code, err) == (2, "error: [Errno 27] File too large\n")
    assert not out.exists()
