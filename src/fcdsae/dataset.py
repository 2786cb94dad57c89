"""Sensor-record ingestion, HFR class labeling, standardization, 3:1 split,
and the deterministic synthetic generator standing in for the bench dataset."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fcdsae.errors import DomainError, ParseError

COLUMNS = ["t", "Power", "CurrD", "StaVol", "Var", "WaterTempOut",
           "H2PressIn", "HCPPower", "AirPressIn", "AirFlow", "HFR"]
FEATURE_COLUMNS = COLUMNS[1:-1]
N_FEATURES = 10

# class thresholds on HFR in milliohms
CLASS1_LOW = 89.0
CLASS2_LOW = 91.0

# reference operating point: one bench record per feature column, used as the
# center of the synthetic generator's +-10% uniform draws
BASE_VALUES = {
    "Power": 24.2, "CurrD": 222.4, "StaVol": 363.8, "Var": 83.0,
    "WaterTempOut": 68.5, "H2PressIn": 165.5, "HCPPower": 0.44,
    "AirPressIn": 145.6, "AirFlow": 28.6,
}


class SensorRecord(NamedTuple):
    """One timestamped bench row: 10 features plus the HFR target, in CSV
    column order."""

    t: float
    power: float
    current_density: float
    stack_voltage: float
    cell_voltage_variance: float
    water_temp_out: float
    h2_pressure_in: float
    hcp_power: float
    air_pressure_in: float
    air_flow: float
    hfr: float


def record_features(record: SensorRecord) -> np.ndarray:
    """The 10 network input values in canonical column order (t first; the
    schema carries 9 named sensor channels, so t fills the tenth slot). A
    raw 10-value vector passes through unchanged."""
    return np.array(record[:N_FEATURES])


@dataclass(frozen=True)
class LabeledExample:
    """Feature vector (unstandardized, canonical order) and its class."""

    features: np.ndarray
    class_label: int


def label_for_hfr(hfr: float) -> int:
    """Class 0: HFR < 89; class 1: 89 <= HFR < 91; class 2: HFR >= 91."""
    if not math.isfinite(hfr) or hfr <= 0:
        raise DomainError(f"HFR must be finite and positive, got {hfr}")
    if hfr < CLASS1_LOW:
        return 0
    if hfr < CLASS2_LOW:
        return 1
    return 2


def label(record: SensorRecord) -> LabeledExample:
    return LabeledExample(features=record_features(record),
                          class_label=label_for_hfr(record.hfr))


def parse_csv(path) -> list[SensorRecord]:
    """Read a canonical-header CSV into SensorRecords, order preserved."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header != COLUMNS:
            missing = [c for c in COLUMNS if c not in header]
            raise ParseError(
                f"{path}: header mismatch; missing columns {missing}"
                if missing else f"{path}: header order must be {COLUMNS}"
            )
        records = []
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(COLUMNS):
                raise ParseError(
                    f"{path} row {row_num}: expected {len(COLUMNS)} cells, "
                    f"got {len(row)}"
                )
            vals = []
            for col_name, cell in zip(COLUMNS, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(f"{path} row {row_num}, column "
                                     f"{col_name!r}: not a finite number {cell!r}")
                vals.append(value)
            records.append(SensorRecord(*vals))
        return records


def write_csv(records: list[SensorRecord], path) -> None:
    """Write records in the canonical CSV layout: %.12g values, CRLF ends."""
    row = ",".join(["%.12g"] * len(COLUMNS)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\r\n")
        fh.writelines(row % tuple(r) for r in records)


@dataclass
class Standardizer:
    """Per-feature mean and population standard deviation, fitted on the
    training partition only. Zero-variance columns store std = 1."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, examples: list[LabeledExample]) -> "Standardizer":
        if not examples:
            raise DomainError("cannot fit a standardizer on an empty set")
        x = np.stack([e.features for e in examples])
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population std (ddof=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std

    def transform_matrix(self, examples: list[LabeledExample]) -> np.ndarray:
        return self.transform(np.stack([e.features for e in examples]))


@dataclass
class SplitDataset:
    """Disjoint, exhaustive 3:1 train/test partition, seeded permutation."""

    train: list[LabeledExample]
    test: list[LabeledExample]


def split(examples: list[LabeledExample], seed: int) -> SplitDataset:
    """Seeded uniform permutation; first floor(0.75*N) examples train."""
    n = len(examples)
    if n < 4:
        raise DomainError(f"need at least 4 examples to split 3:1, got {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = (3 * n) // 4
    train = [examples[i] for i in order[:n_train]]
    test = [examples[i] for i in order[n_train:]]
    return SplitDataset(train=train, test=test)


# coefficients of the frozen synthetic HFR formula
_HFR_CENTER = 90.0
_NOISE_SIGMA = 0.2
_HFR_LOW, _HFR_HIGH = 85.0, 95.0


def synthetic_hfr(z_power: float, z_airflow: float, z_watertemp: float,
                  z_h2press: float, noise: float = 0.0) -> float:
    """The generator's HFR signal as a smooth function of standardized
    features, plus optional additive noise, clipped to the plausible band."""
    sig = (_HFR_CENTER
           + 1.3 * math.tanh(1.2 * z_power - 0.8 * z_airflow)
           + 0.7 * math.tanh(z_watertemp + 0.5 * z_h2press))
    return float(min(max(sig + noise, _HFR_LOW), _HFR_HIGH))


def generate_synthetic(n: int, seed: int,
                       noise_sigma: float = _NOISE_SIGMA) -> list[SensorRecord]:
    """Deterministic synthetic bench data: features uniform within +-10% of
    the reference operating point, HFR from the frozen smooth formula."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    feats = {}
    for col in FEATURE_COLUMNS:
        base = BASE_VALUES[col]
        feats[col] = rng.uniform(0.9 * base, 1.1 * base, size=n)
    noise = rng.normal(0.0, noise_sigma, size=n) if noise_sigma > 0 else np.zeros(n)

    def z(col):
        base = BASE_VALUES[col]
        # uniform on [0.9b, 1.1b]: mean b, population std 0.1*b/sqrt(3)
        return (feats[col] - base) / (0.1 * base / math.sqrt(3.0))

    z_power, z_airflow = z("Power"), z("AirFlow")
    z_watertemp, z_h2press = z("WaterTempOut"), z("H2PressIn")
    records = []
    for i in range(n):
        hfr = synthetic_hfr(z_power[i], z_airflow[i], z_watertemp[i],
                            z_h2press[i], noise[i])
        records.append(SensorRecord(
            float(i + 1), *(feats[col][i] for col in FEATURE_COLUMNS), hfr))
    return records
