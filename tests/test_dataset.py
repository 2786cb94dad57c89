import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from fcdsae import dataset
from fcdsae.dataset import (LabeledExample, SensorRecord, Standardizer,
                            generate_synthetic, label_for_hfr, parse_csv,
                            split, synthetic_hfr, write_csv)
from fcdsae.errors import DomainError, ParseError

from oracles import synthetic_draws

TABLE_ROW_1 = "1,24.2,222.4,363.8,83,68.5,165.5,0.44,145.6,28.6,88.5"
HEADER = ",".join(dataset.COLUMNS)


class TestParseCsv:
    def test_table_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "\n" + TABLE_ROW_1 + "\n")
        records = parse_csv(path)
        assert len(records) == 1
        assert records[0].hfr == 88.5
        assert records[0].power == 24.2
        assert records[0].air_flow == 28.6

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        row = TABLE_ROW_1.replace("24.2", "abc")
        path.write_text(HEADER + "\n" + row + "\n")
        with pytest.raises(ParseError, match=r"row 2.*'Power'"):
            parse_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "\n")
        assert parse_csv(path) == []

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

    def test_round_trip(self, tmp_path):
        records = generate_synthetic(50, 3)
        path = tmp_path / "d.csv"
        write_csv(records, path)
        back = parse_csv(path)
        assert len(back) == 50
        npt.assert_allclose([r.hfr for r in back], [r.hfr for r in records],
                            rtol=1e-11)


class TestWriteCsv:
    def test_bytes_and_round_trip(self, tmp_path):
        records = [
            SensorRecord(1.0, 1e-05, 123456789012.0, -0.0, 1e16, 1 / 3,
                         24.2, 0.44, 145.6, 100.0, 88.5),
            # the generator's records hold numpy floats
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
        assert math.copysign(1.0, back[0].stack_voltage) == -1.0


class TestLabel:
    @pytest.mark.parametrize("hfr,expected", [
        (88.5, 0), (89.0, 1), (90.99, 1), (91.0, 2), (85.0, 0), (95.0, 2),
    ])
    def test_thresholds(self, hfr, expected):
        assert label_for_hfr(hfr) == expected

    @given(st.floats(0.001, 1000.0))
    def test_total_function(self, hfr):
        assert label_for_hfr(hfr) in (0, 1, 2)

    def test_invalid_hfr(self):
        with pytest.raises(DomainError):
            label_for_hfr(float("nan"))


def examples_from_columns(columns):
    """Build LabeledExamples whose feature matrix is the given columns."""
    x = np.array(columns, float).T
    return [LabeledExample(features=row, class_label=0) for row in x]


class TestStandardizer:
    def test_population_std(self):
        cols = [[1.0, 2.0, 3.0]] * 10
        std = Standardizer.fit(examples_from_columns(cols))
        npt.assert_allclose(std.mean, 2.0)
        npt.assert_allclose(std.std, math.sqrt(2.0 / 3.0))
        z = std.transform(np.full(10, 1.0))
        npt.assert_allclose(z, -1.2247, rtol=1e-4)

    def test_zero_variance_passthrough(self):
        cols = [[5.0, 5.0, 5.0]] * 10
        std = Standardizer.fit(examples_from_columns(cols))
        npt.assert_allclose(std.std, 1.0)
        npt.assert_array_equal(std.transform(np.full(10, 5.0)), 0.0)

    def test_refit_of_standardized_is_identity(self):
        rng = np.random.default_rng(0)
        cols = [list(rng.normal(size=30)) for _ in range(10)]
        examples = examples_from_columns(cols)
        std = Standardizer.fit(examples)
        z = std.transform_matrix(examples)
        restd = Standardizer.fit(
            [LabeledExample(features=row, class_label=0) for row in z])
        npt.assert_allclose(restd.mean, 0.0, atol=1e-12)
        npt.assert_allclose(restd.std, 1.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Standardizer.fit([])


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
        ids = sorted(int(e.features[0]) for e in data.train + data.test)
        assert ids == list(range(n))  # disjoint and exhaustive


class TestGenerateSynthetic:
    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            generate_synthetic(0, 1)

    def test_deterministic(self):
        a = generate_synthetic(200, 9)
        b = generate_synthetic(200, 9)
        assert [r.hfr for r in a] == [r.hfr for r in b]

    def test_reference_class_shares(self, reference_data):
        counts = np.bincount(
            [e.class_label for e in reference_data.train + reference_data.test],
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

    def test_zero_noise_reproducible_from_features(self):
        # with sigma forced to 0, HFR must equal an independent re-evaluation
        # of the frozen formula from the stored features
        for r in generate_synthetic(300, 11, noise_sigma=0.0):
            def z(value, base):
                return (value - base) / (0.1 * base / math.sqrt(3.0))

            expected = synthetic_hfr(
                z(r.power, 24.2), z(r.air_flow, 28.6),
                z(r.water_temp_out, 68.5), z(r.h2_pressure_in, 165.5))
            assert r.hfr == pytest.approx(expected, abs=1e-12)
