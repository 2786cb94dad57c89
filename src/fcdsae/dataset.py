"""Sensor-record ingestion, HFR class labeling, standardization, 3:1 split,
and the deterministic synthetic generator standing in for the bench dataset.

Data moves as arrays: an (N, 11) CSV-order matrix, then `Examples`. The
per-row `SensorRecord`, `LabeledExample`, `record_features`, `label` and
`generate_synthetic` are adapters kept for the benchmark's workloads."""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

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


# one timestamped bench row: 10 features plus the HFR target, in CSV order
SensorRecord = namedtuple("SensorRecord", [
    "t", "power", "current_density", "stack_voltage", "cell_voltage_variance",
    "water_temp_out", "h2_pressure_in", "hcp_power", "air_pressure_in",
    "air_flow", "hfr"])


def record_features(record: SensorRecord) -> np.ndarray:
    """The 10 network input values in canonical column order (t first; the
    schema carries 9 named sensor channels, so t fills the tenth slot). A
    raw 10-value vector passes through unchanged."""
    return np.array(record[:N_FEATURES])


# feature vector (unstandardized, canonical order) and its class
LabeledExample = namedtuple("LabeledExample", ["features", "class_label"])


def label_for_hfr(hfr: float) -> int:
    """Class 0: HFR < 89; class 1: 89 <= HFR < 91; class 2: HFR >= 91."""
    if not math.isfinite(hfr) or hfr <= 0:
        raise DomainError(f"HFR must be finite and positive, got {hfr}")
    if hfr < CLASS1_LOW:
        return 0
    if hfr < CLASS2_LOW:
        return 1
    return 2


def labels_for_hfr(hfr) -> np.ndarray:
    """`label_for_hfr` over an array: the same classes and the same error."""
    hfr = np.asarray(hfr, dtype=np.float64)
    bad = ~(np.isfinite(hfr) & (hfr > 0))
    if bad.any():
        raise DomainError(f"HFR must be finite and positive, got {hfr[bad][0]}")
    return np.searchsorted([CLASS1_LOW, CLASS2_LOW], hfr, side="right")


def label(record: SensorRecord) -> LabeledExample:
    return LabeledExample(features=record_features(record),
                          class_label=label_for_hfr(record.hfr))


@dataclass(frozen=True, eq=False)
class Examples:
    """N examples as columns: (N, 10) unstandardized features in canonical
    order and their (N,) int classes. Iterating yields LabeledExamples."""

    features: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Examples":
        """The features and HFR classes of an (N, 11) CSV-order matrix."""
        return cls(np.ascontiguousarray(m[:, :N_FEATURES]),
                   labels_for_hfr(m[:, -1]))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return map(LabeledExample, self.features, self.labels.tolist())


def parse_csv(path) -> np.ndarray:
    """Read a canonical-header CSV into an (N, 11) float64 matrix, order
    preserved. np.loadtxt reads the body; unless that gives 11 finite
    columns, the row-by-row reader reads it again, so the values are
    float()'s and a ParseError names the row and column either way."""
    with open(path, "rb") as fh:
        raw = fh.read()

    def text():  # decoded as open(path, newline="") does, a block at a time
        return io.TextIOWrapper(io.BytesIO(raw), newline="")

    header = next(_csv_rows(path, text()), None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if header != COLUMNS:
        missing = [c for c in COLUMNS if c not in header]
        raise ParseError(
            f"{path}: header mismatch; missing columns {missing}"
            if missing else f"{path}: header order must be {COLUMNS}"
        )
    # loadtxt reads the raw bytes past the first b"\n" only where csv and
    # float() read the same: ASCII (loadtxt reads a lone \xa0 byte as latin-1
    # NBSP), no U+001C-U+001F (loadtxt strips them, float() rejects them),
    # no quote or lone \r in line 1 (csv would run the header past it).
    line1 = raw.partition(b"\n")[0]
    if (raw.isascii() and b'"' not in line1 and b"\r" not in line1[:-1]
            and not any(c in raw for c in b"\x1c\x1d\x1e\x1f")):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                m = np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2,
                               comments=None, quotechar='"', skiprows=1)
            if m.shape[1] == len(COLUMNS) and np.isfinite(m).all():
                return m
        except (ValueError, UserWarning):
            pass
    rows = _csv_rows(path, text())
    next(rows)
    return _parse_rows(path, rows)


def _csv_rows(path, text):
    """csv.reader's rows. Its csv.Error, such as a cell over the field size
    limit, becomes a ParseError naming the line."""
    reader = csv.reader(text)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path} line {reader.line_num}: {exc}") from None


def _parse_rows(path, reader) -> np.ndarray:
    """The row-by-row reader: csv cells through float(), checked per cell."""
    rows = []
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
        rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


def write_csv(rows, path) -> None:
    """Write an (N, 11) matrix, or SensorRecords, in the canonical CSV
    layout: %.12g values, CRLF ends."""
    m = np.asarray(rows, dtype=np.float64)
    row = ",".join(["%.12g"] * len(COLUMNS)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\r\n")
        for start in range(0, len(m), 4096):  # bounds the temporary strings
            block = m[start:start + 4096]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


@dataclass
class Standardizer:
    """Per-feature mean and population standard deviation, fitted on the
    training partition only. Zero-variance columns store std = 1."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features) -> "Standardizer":
        x = np.asarray(features, dtype=np.float64)
        if not len(x):
            raise DomainError("cannot fit a standardizer on an empty set")
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population std (ddof=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform_matrix(self, features) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


@dataclass
class SplitDataset:
    """Disjoint, exhaustive 3:1 train/test partition, seeded permutation."""

    train: Examples
    test: Examples


def split(examples, seed: int) -> SplitDataset:
    """Seeded uniform permutation; first floor(0.75*N) examples train.
    `examples` is an Examples, or a list of LabeledExamples (adapter)."""
    n = len(examples)
    if n < 4:
        raise DomainError(f"need at least 4 examples to split 3:1, got {n}")
    if not isinstance(examples, Examples):
        examples = Examples(np.stack([e.features for e in examples]),
                            np.array([e.class_label for e in examples]))
    order = np.random.default_rng(seed).permutation(n)
    x, y = examples.features, examples.labels
    train, test = order[:(3 * n) // 4], order[(3 * n) // 4:]
    return SplitDataset(Examples(x[train], y[train]), Examples(x[test], y[test]))


# coefficients of the frozen synthetic HFR formula
_HFR_CENTER = 90.0
_NOISE_SIGMA = 0.2
_HFR_LOW, _HFR_HIGH = 85.0, 95.0


def synthetic_matrix(n: int, seed: int,
                     noise_sigma: float = _NOISE_SIGMA) -> np.ndarray:
    """Deterministic synthetic bench data as an (N, 11) CSV-order matrix:
    t = 1..n, features uniform within +-10% of the reference operating
    point, HFR from the frozen smooth formula."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    m = np.empty((n, len(COLUMNS)))
    m[:, 0] = np.arange(1, n + 1)
    for j, col in enumerate(FEATURE_COLUMNS, start=1):
        base = BASE_VALUES[col]
        m[:, j] = rng.uniform(0.9 * base, 1.1 * base, size=n)
    noise = rng.normal(0.0, noise_sigma, size=n) if noise_sigma > 0 else np.zeros(n)

    def z(col):
        base = BASE_VALUES[col]
        # uniform on [0.9b, 1.1b]: mean b, population std 0.1*b/sqrt(3)
        return (m[:, COLUMNS.index(col)] - base) / (0.1 * base / math.sqrt(3.0))

    def tanh(x):  # math.tanh per value: np.tanh differs in the last ulp
        return np.fromiter(map(math.tanh, x.tolist()), np.float64, n)

    # tests/oracles.synthetic_hfr is this formula on scalars
    sig = (_HFR_CENTER + 1.3 * tanh(1.2 * z("Power") - 0.8 * z("AirFlow"))
           + 0.7 * tanh(z("WaterTempOut") + 0.5 * z("H2PressIn")))
    m[:, -1] = np.minimum(np.maximum(sig + noise, _HFR_LOW), _HFR_HIGH)
    return m


def generate_synthetic(n: int, seed: int,
                       noise_sigma: float = _NOISE_SIGMA) -> list[SensorRecord]:
    """`synthetic_matrix` as SensorRecords (adapter)."""
    return [SensorRecord(*row)
            for row in synthetic_matrix(n, seed, noise_sigma).tolist()]
