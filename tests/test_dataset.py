import math
import os
import stat
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from fcdsae import DomainError, ParseError, dataset
from fcdsae.dataset import (Examples, LabeledExample, SensorRecord,
                            Standardizer, generate_synthetic, label_for_hfr,
                            labels_for_hfr, parse_csv, split, write_csv)

from oracles import reader_parse_csv, synthetic_draws, synthetic_hfr

TABLE_ROW_1 = "1,24.2,222.4,363.8,83,68.5,165.5,0.44,145.6,28.6,88.5"
HEADER = ",".join(dataset.COLUMNS)
QUOTED_NEWLINE_HEADER = HEADER[:-len("HFR")] + '"HFR\n"'
# subnormals, signed zeros, integers, extremes, and both sides of each
# switch between `%.12g`'s fixed and exponent notations (1e-5 and 1e12)
SPECIAL_FLOATS = [5e-324, -5e-324, 1.1e-308, 0.0, -0.0, 1.0, -7.0, 88.0,
                  2.0 ** 53, 1e300, -1e300, 1e-300, 1e-5, -1e-5, 9.99999999999e-6,
                  9.999999999995e-6, 1e12, -1e12, 999999999999.0, 999999999999.5,
                  1e12 - 0.25, 0.1, 1 / 3]


def _traced(f):
    """f() and, under tracemalloc (which sees numpy's buffers), its peak
    and its live result in bytes, both above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, live - base


def _row(cells=tuple(TABLE_ROW_1.split(",")), **edits):
    """TABLE_ROW_1 with the cells at the given column indexes replaced."""
    return ",".join(edits.get(f"c{i}", c) for i, c in enumerate(cells))


@st.composite
def csv_texts(draw):
    """CSV files that the fast path and the row reader may disagree on:
    odd cells, padding (control characters and newlines too) and quotes,
    blank, whitespace-only and commas-only lines, mixed line ends, and
    files 10, 11 or 12 cells wide, and a header holding a quoted newline."""
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("%.12g".__mod__),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["1_5", "#1.5", "nan", "infinity", "-inf", "0x1", "",
                         "1e400", "1e-320", "-0", ".5", "5.", "+1", "1d5"]))
    pad = st.sampled_from(["", "", " ", "  ", "\t", "\x0b", "\x1c", "\x1f",
                           "\u2003", "\n", '"'])
    cell = st.tuples(pad, number, pad, st.booleans()).map(
        lambda t: f'"{t[0]}{t[1]}"{t[2]}' if t[3] else "".join(t[:3]))
    width = draw(st.sampled_from([11, 11, 11, 10, 12]))
    row = st.one_of(
        st.lists(cell, min_size=width, max_size=width).map(",".join),
        st.lists(cell, min_size=1, max_size=13).map(",".join),
        st.sampled_from(["", "   ", "\t", ",,,,,,,,,,", " , "]))
    end = st.sampled_from(["\n", "\r\n", "\r"])
    rows = draw(st.lists(st.tuples(row, end), max_size=6))
    header = draw(st.sampled_from([HEADER, ", ".join(dataset.COLUMNS),
                                   QUOTED_NEWLINE_HEADER]))
    return header + draw(end) + "".join(r + e for r, e in rows)


class TestParseCsv:
    def test_table_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "\n" + TABLE_ROW_1 + "\n")
        m = parse_csv(path)
        assert m.shape == (1, 11)
        assert m[0, -1] == 88.5
        assert m[0, 1] == 24.2
        assert m[0, 9] == 28.6

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        row = TABLE_ROW_1.replace("24.2", "abc")
        path.write_text(HEADER + "\n" + row + "\n")
        with pytest.raises(ParseError, match=r"row 2.*'Power'"):
            parse_csv(path)

    def test_header_only(self, tmp_path):
        """The header alone, then blank lines, then whitespace-only lines."""
        path = tmp_path / "d.csv"
        for body in ["", "\r\n\n", "  \n\t\r\n \n"]:
            path.write_text(HEADER + "\n" + body)
            # loadtxt warns on a blank body; parse_csv must not pass that on
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ParseError, match="no data rows"):
                    parse_csv(path)
            assert caught == [], body

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,Power,HFR\n1,2,88\n")
        with pytest.raises(ParseError, match="missing columns"):
            parse_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            parse_csv(path)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    @example(HEADER + "\r\n" + _row(c0='"1"', c1=' "24.2"', c4="  83 ") + "\r\n")
    @example(HEADER + "\r\n" + _row(c2='"222.4" ', c5="\t68.5") + "\n")
    @example(f"{HEADER}\n\n{TABLE_ROW_1}\n   \n,,,,,,,,,,\r\n{TABLE_ROW_1}\n")
    @example(HEADER + "\n" + _row(c1="1_5") + "\n")
    @example(HEADER + "\n" + _row(c1="#1.5") + "\n")
    @example(HEADER + "\n" + _row(c10="nan") + "\n")
    @example(HEADER + "\n" + _row(c3="infinity") + "\n")
    @example(HEADER + "\n" + _row(c0="0x1") + "\n")
    @example(HEADER + "\n" + _row(c0="\x1c1") + "\n")
    @example(f"{HEADER}\n" + "1,2,3,4,5,6,7,8,9,10\n" * 3)
    @example(f"{HEADER}\n" + f"{TABLE_ROW_1},1\n" * 3)
    @example(f"{HEADER}\n")
    @example(f"{HEADER}\r\n\r\n")
    @example(f"{HEADER}\r\n\r\n{TABLE_ROW_1}\r\n")
    @example(HEADER + "\n" + _row(c1="\u00a024.2", c3="363.8\u2003") + "\n")
    @example(HEADER + "\n" + _row(c10="88.5\u00a0") + "\n" + TABLE_ROW_1 + "\n")
    @example(QUOTED_NEWLINE_HEADER + "\r\n" + TABLE_ROW_1 + "\r\n")
    @example(QUOTED_NEWLINE_HEADER + "\r\n" + _row(c0='1"') + "\r\n")
    @example(f"{HEADER}\r{TABLE_ROW_1}\n{TABLE_ROW_1}\n")
    def test_fast_path_matches_row_reader(self, text):
        """The same matrix, bit for bit, or the same ParseError message as
        the row-by-row reader, with no numpy warning."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode())
            try:
                want = np.array(reader_parse_csv(path))
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    parse_csv(path)
                assert str(got.value) == str(exc)
                return
            got = parse_csv(path)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_well_formed_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        write_csv(dataset.synthetic_matrix(200, 1), path)

        def row_reader(*args):
            raise AssertionError("fell back to the row-by-row reader")
        monkeypatch.setattr(dataset, "_parse_rows", row_reader)
        assert parse_csv(path).shape == (200, 11)

    def test_round_trip(self, tmp_path):
        records = generate_synthetic(50, 3)
        path = tmp_path / "d.csv"
        write_csv(records, path)
        back = parse_csv(path)
        assert back.shape == (50, 11)
        npt.assert_allclose(back[:, -1], [r.hfr for r in records], rtol=1e-11)


class TestWriteCsv:
    def test_bytes_and_round_trip(self, tmp_path):
        records = [
            SensorRecord(1.0, 1e-05, 123456789012.0, -0.0, 1e16, 1 / 3,
                         24.2, 0.44, 145.6, 100.0, 88.5),
            # records may hold numpy floats
            SensorRecord(*np.array([2.0, 1e-300, 1.5e-7, 0.1, 2 ** 53, -5.25,
                                    1234567890123.0, 7.0, 0.0, 28.6, 91.0])),
        ]
        path = tmp_path / "d.csv"
        write_csv(records, path)
        assert path.read_bytes() == (
            HEADER + "\r\n"
            "1,1e-05,123456789012,-0,1e+16,0.333333333333,24.2,0.44,145.6,"
            "100,88.5\r\n"
            "2,1e-300,1.5e-07,0.1,9.00719925474e+15,-5.25,1.23456789012e+12,"
            "7,0,28.6,91\r\n").encode()
        back = parse_csv(path)
        # 12 significant digits: a relative error of at most 5e-12
        npt.assert_allclose(back, records, rtol=5e-12)
        assert math.copysign(1.0, back[0, 3]) == -1.0

    @pytest.mark.parametrize("kind", ["float", "numpy", "int"])
    def test_records_give_the_matrix_bytes(self, tmp_path, kind):
        m = dataset.synthetic_matrix(5000, 3)
        if kind == "int":
            m = np.rint(m * 1000)
        rows = {"float": m.tolist(), "numpy": list(m),
                "int": m.astype(np.int64).tolist()}[kind]
        write_csv([SensorRecord._make(r) for r in rows], tmp_path / "r.csv")
        write_csv(m, tmp_path / "m.csv")
        assert (tmp_path / "r.csv").read_bytes() == \
            (tmp_path / "m.csv").read_bytes()

    @pytest.mark.parametrize("widths", [[10], [12], [10, 12], [11, 12, 11],
                                        (3, 10), (11,), (2, 12)])
    def test_wrong_width_fails_before_the_file_opens(self, tmp_path, widths):
        """A list gives 30 records cycling through its widths; a tuple is
        the shape of a matrix."""
        rows = np.zeros(widths) if isinstance(widths, tuple) else [
            list(range(widths[i % len(widths)])) for i in range(30)]
        with pytest.raises(DomainError, match=r"not (\(N, )?11"):
            write_csv(rows, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    @settings(max_examples=30, deadline=None)
    @given(pool=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1),
           n=st.sampled_from([0, 1, 4095, 4096, 4097, 8193]), seed=st.integers(0))
    def test_bytes_are_the_str_spec(self, pool, n, seed):
        """Formatting as bytes gives the bytes of the str template: `%.12g`
        per value, CRLF per row, encoded as ASCII, across block ends."""
        m = np.random.default_rng(seed).choice(pool, size=(n, len(dataset.COLUMNS)))
        row = ",".join(["%.12g"] * len(dataset.COLUMNS)) + "\r\n"
        spec = HEADER + "\r\n" + (row * n) % tuple(m.ravel().tolist())
        with tempfile.TemporaryDirectory() as tmp:
            write_csv(m, Path(tmp) / "d.csv")
            assert (Path(tmp) / "d.csv").read_bytes() == spec.encode("ascii")

    def test_records_convert_without_a_coercion_cache(self, tmp_path):
        """36,363 records: np.asarray over them peaked at 9.9 MB, 6.7 of
        them a cache beside the 3.2 MB matrix; one fromiter over their
        values peaks at 5.6 MB, with the 4,096-row formatting block."""
        records = generate_synthetic(36363, 42)
        _, peak, _ = _traced(lambda: write_csv(records, tmp_path / "d.csv"))
        assert peak < 7.7e6


def _failing(n):
    """n 10-byte chunks, then the error a write past the size limit raises."""
    yield from [b"x" * 10] * n
    raise OSError(27, "File too large")


def _fifo_reader(fifo, got):
    """A started thread that appends everything read from `fifo` to `got`."""
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    return reader


class TestWriteFiles:
    def test_failed_write_removes_the_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        with pytest.raises(OSError, match="File too large"):
            dataset.write_files([(path, _failing(3))])
        assert not path.exists()

    def test_symlink_loses_the_file_it_names(self, tmp_path):
        target, link = tmp_path / "t", tmp_path / "l"
        link.symlink_to(target)
        with pytest.raises(OSError, match="File too large"):
            dataset.write_files([(link, _failing(3))])
        assert link.is_symlink() and not target.exists()

    @pytest.mark.skipif(sys.platform == "win32", reason="os.mkfifo is POSIX")
    def test_fifo_is_left(self, tmp_path):
        """A FIFO is not removed: its reader gets what was written before
        the error, and the FIFO stays."""
        fifo, got = tmp_path / "p", []
        os.mkfifo(fifo)
        reader = _fifo_reader(fifo, got)
        with pytest.raises(OSError, match="File too large"):
            dataset.write_files([(fifo, _failing(2))])
        reader.join(timeout=60)
        assert got == [b"x" * 20] and stat.S_ISFIFO(fifo.stat().st_mode)

    def test_failed_open_removes_the_outputs_before_it(self, tmp_path):
        """The first output is complete when the second fails to open; it
        goes, and the path that failed to open is left as it was."""
        first, second = tmp_path / "a", tmp_path / "d"
        second.mkdir()
        with pytest.raises(OSError):  # IsADirectoryError, on Windows PermissionError
            dataset.write_files([(first, [b"done"]), (second, [b"never"])])
        assert not first.exists() and second.is_dir()

    def test_failed_write_removes_every_output(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        with pytest.raises(OSError, match="File too large"):
            dataset.write_files([(first, [b"done"]), (second, _failing(2))])
        assert not first.exists() and not second.exists()

    @pytest.mark.skipif(sys.platform == "win32", reason="os.mkfifo is POSIX")
    def test_fifo_before_a_failed_output_is_left(self, tmp_path):
        fifo, got = tmp_path / "p", []
        os.mkfifo(fifo)
        reader = _fifo_reader(fifo, got)
        with pytest.raises(FileNotFoundError):
            dataset.write_files([(fifo, [b"done"]),
                                 (tmp_path / "missing" / "b", [b"never"])])
        reader.join(timeout=60)
        assert got == [b"done"] and stat.S_ISFIFO(fifo.stat().st_mode)


class TestLabel:
    @pytest.mark.parametrize("hfr,expected", [
        (88.5, 0), (89.0, 1), (90.99, 1), (91.0, 2), (85.0, 0), (95.0, 2),
        (float(np.nextafter(89.0, 0.0)), 0), (float(np.nextafter(89.0, 99.0)), 1),
        (float(np.nextafter(91.0, 0.0)), 1), (float(np.nextafter(91.0, 99.0)), 2),
    ])
    def test_thresholds(self, hfr, expected):
        assert label_for_hfr(hfr) == expected
        assert labels_for_hfr(np.array([hfr])).tolist() == [expected]

    @given(st.floats(0.001, 1000.0))
    def test_total_function(self, hfr):
        assert label_for_hfr(hfr) in (0, 1, 2)

    def test_invalid_hfr(self):
        with pytest.raises(DomainError):
            label_for_hfr(float("nan"))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_array_rule_rejects_like_scalar(self, bad):
        with pytest.raises(DomainError) as want:
            label_for_hfr(bad)
        with pytest.raises(DomainError) as got:
            labels_for_hfr(np.array([90.0, bad, 88.0]))
        assert str(got.value) == str(want.value)


def matrix_from_columns(columns):
    return np.array(columns, float).T


class TestStandardizer:
    def test_population_std(self):
        cols = [[1.0, 2.0, 3.0]] * 10
        std = Standardizer.fit(matrix_from_columns(cols))
        npt.assert_allclose(std.mean, 2.0)
        npt.assert_allclose(std.std, math.sqrt(2.0 / 3.0))
        z = std.transform_matrix(np.full(10, 1.0))
        npt.assert_allclose(z, -1.2247, rtol=1e-4)

    def test_zero_variance_passthrough(self):
        cols = [[5.0, 5.0, 5.0]] * 10
        std = Standardizer.fit(matrix_from_columns(cols))
        npt.assert_allclose(std.std, 1.0)
        npt.assert_array_equal(std.transform_matrix(np.full(10, 5.0)), 0.0)

    def test_refit_of_standardized_is_identity(self):
        rng = np.random.default_rng(0)
        cols = [list(rng.normal(size=30)) for _ in range(10)]
        x = matrix_from_columns(cols)
        std = Standardizer.fit(x)
        z = std.transform_matrix(x)
        restd = Standardizer.fit(z)
        npt.assert_allclose(restd.mean, 0.0, atol=1e-12)
        npt.assert_allclose(restd.std, 1.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Standardizer.fit(np.empty((0, 10)))


class TestSplit:
    def make(self, n):
        return [LabeledExample(features=np.full(10, float(i)), class_label=0)
                for i in range(n)]

    def test_reference_sizes(self):
        data = split(self.make(36363), seed=42)
        assert len(data.train) == 27272
        assert len(data.test) == 9091

    def test_smallest(self):
        data = split(self.make(4), seed=0)
        assert len(data.train) == 3 and len(data.test) == 1

    def test_too_small(self):
        with pytest.raises(DomainError):
            split(self.make(3), seed=0)

    def test_deterministic(self):
        a = split(self.make(100), seed=5)
        b = split(self.make(100), seed=5)
        for ea, eb in zip(a.train, b.train):
            npt.assert_array_equal(ea.features, eb.features)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 500), st.integers(0, 10_000))
    def test_partition_properties(self, n, seed):
        data = split(self.make(n), seed=seed)
        assert len(data.train) == (3 * n) // 4
        assert len(data.train) + len(data.test) == n
        ids = sorted(int(e.features[0]) for e in [*data.train, *data.test])
        assert ids == list(range(n))  # disjoint and exhaustive

    def test_list_equals_examples(self):
        n, seed = 36363, 42
        rows = [dataset.label(r) for r in generate_synthetic(n, seed)]
        want = split(Examples.from_matrix(dataset.synthetic_matrix(n, seed)),
                     seed=seed)
        got = split(rows, seed=seed)
        for g, w in ((got.train, want.train), (got.test, want.test)):
            assert g.features.tobytes() == w.features.tobytes()
            assert g.labels.tobytes() == w.labels.tobytes()

    def test_ragged_list_rejected(self):
        rows = self.make(8)
        rows[5] = LabeledExample(np.zeros(9), 0)
        with pytest.raises(ValueError):
            split(rows, seed=0)

    def test_list_makes_no_per_row_views(self):
        """36,363 examples: np.stack's one-row views peaked at 9.1 MB; one
        np.array over the rows peaks at 6.7 MB (the 3.2 MB matrix, then
        its two partitions)."""
        rows = [dataset.label(r) for r in generate_synthetic(36363, 42)]
        _, peak, _ = _traced(lambda: split(rows, seed=42))
        assert peak < 7.9e6


class TestExamples:
    def test_iteration_matches_per_row_split(self):
        """Examples from the matrix path iterate as the per-row split of
        labeled records did: same order, features and classes."""
        n, seed = 36363, 42
        rows = [dataset.label(r) for r in generate_synthetic(n, seed)]
        order = np.random.default_rng(seed).permutation(n)
        n_train = (3 * n) // 4
        data = split(Examples.from_matrix(dataset.synthetic_matrix(n, seed)),
                     seed=seed)
        for part, idx in ((data.train, order[:n_train]),
                          (data.test, order[n_train:])):
            got = list(part)
            assert [e.class_label for e in got] == [
                rows[i].class_label for i in idx]
            assert np.stack([e.features for e in got]).tobytes() == \
                np.stack([rows[i].features for i in idx]).tobytes()


class TestGenerateSynthetic:
    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            generate_synthetic(0, 1)

    def test_deterministic(self):
        a = generate_synthetic(200, 9)
        b = generate_synthetic(200, 9)
        assert [r.hfr for r in a] == [r.hfr for r in b]

    def test_records_hold_the_matrix_as_python_floats(self):
        records = generate_synthetic(300, 5)
        assert {type(v) for r in records for v in r} == {float}
        assert np.array(records).tobytes() == \
            dataset.synthetic_matrix(300, 5).tobytes()

    def test_no_nested_list_beside_the_records(self):
        """36,363 records: the nested list of all rows peaked at 5.5 MB
        above the live records; row by row, only the 3.2 MB matrix is."""
        _, peak, live = _traced(lambda: generate_synthetic(36363, 42))
        assert peak - live < 4.3e6

    def test_reference_class_shares(self, reference_data):
        counts = np.bincount(np.concatenate(
            [reference_data.train.labels, reference_data.test.labels]),
            minlength=3)
        assert counts.sum() == 36363
        assert (counts >= 0.15 * 36363).all()

    def test_features_within_ten_percent(self):
        for r in generate_synthetic(500, 4):
            for col, value in [("Power", r.power), ("CurrD", r.current_density),
                               ("StaVol", r.stack_voltage),
                               ("HCPPower", r.hcp_power)]:
                base = dataset.BASE_VALUES[col]
                assert 0.9 * base <= value <= 1.1 * base

    def test_bayes_oracle_redraws_the_generator(self):
        # bayes_accuracy scores its own redraws, so they must be the
        # generator's: same features and, once clipped, the same HFR
        records = generate_synthetic(300, 13)
        feats, _, hfr = synthetic_draws(13, 300, 0.2)
        npt.assert_array_equal(feats, [r[1:-1] for r in records])
        npt.assert_allclose(np.clip(hfr, 85.0, 95.0),
                            [r.hfr for r in records], rtol=0, atol=1e-12)

    def test_zero_noise_reproducible_from_features(self, monkeypatch):
        # with sigma forced to 0, HFR must equal an independent re-evaluation
        # of the frozen formula from the stored features
        monkeypatch.setattr(dataset, "_NOISE_SIGMA", 0.0)
        for r in generate_synthetic(300, 11):
            def z(value, base):
                return (value - base) / (0.1 * base / math.sqrt(3.0))

            expected = synthetic_hfr(
                z(r.power, 24.2), z(r.air_flow, 28.6),
                z(r.water_temp_out, 68.5), z(r.h2_pressure_in, 165.5))
            assert r.hfr == expected

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    @pytest.mark.parametrize("n", [1, 36363])
    @pytest.mark.parametrize("seed", [42, 7, 201])
    def test_hfr_column_is_the_scalar_spec(self, seed, n, sigma, monkeypatch):
        """The array formula gives the bytes of a per-row loop over the
        scalar spec, fed the stored features and the generator's noise:
        the fixed 0.2, and 0, which isolates the formula."""
        monkeypatch.setattr(dataset, "_NOISE_SIGMA", sigma)
        m = dataset.synthetic_matrix(n, seed)
        rng = np.random.default_rng(seed)
        for col in dataset.FEATURE_COLUMNS:  # the feature draws come first
            base = dataset.BASE_VALUES[col]
            rng.uniform(0.9 * base, 1.1 * base, size=n)
        noise = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
        cols = [dataset.COLUMNS.index(c)
                for c in ("Power", "AirFlow", "WaterTempOut", "H2PressIn")]
        bases = [dataset.BASE_VALUES[dataset.COLUMNS[j]] for j in cols]
        want = [synthetic_hfr(*((row[j] - b) / (0.1 * b / math.sqrt(3.0))
                                for j, b in zip(cols, bases)), noise=e)
                for row, e in zip(m.tolist(), noise.tolist())]
        assert m[:, -1].tobytes() == np.array(want).tobytes()
