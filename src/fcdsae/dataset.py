"""Sensor-record ingestion, HFR class labeling, standardization, 3:1 split,
and the deterministic synthetic generator standing in for the bench dataset.

Data moves as arrays: an (N, 11) CSV-order matrix, then `Examples`. The
per-row `SensorRecord`, `LabeledExample`, `record_features`, `label` and
`generate_synthetic` are adapters kept for the benchmark's workloads."""

import bisect
import csv
import io
import math
import os
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

import numpy as np

from fcdsae import DomainError, ParseError

COLUMNS = ["t", "Power", "CurrD", "StaVol", "Var", "WaterTempOut",
           "H2PressIn", "HCPPower", "AirPressIn", "AirFlow", "HFR"]
FEATURE_COLUMNS = COLUMNS[1:-1]
N_FEATURES = 10

# HFR in milliohms where classes 1 and 2 begin
CLASS_LOWS = (89.0, 91.0)

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
    return bisect.bisect_right(CLASS_LOWS, hfr)


def labels_for_hfr(hfr: np.ndarray) -> np.ndarray:
    """`label_for_hfr` over a float64 array: same classes, same error."""
    bad = ~(np.isfinite(hfr) & (hfr > 0))
    if bad.any():
        raise DomainError(f"HFR must be finite and positive, got {hfr[bad][0]}")
    return np.searchsorted(CLASS_LOWS, hfr, side="right")


def label(record: SensorRecord) -> LabeledExample:
    return LabeledExample(record_features(record), label_for_hfr(record.hfr))


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


def plain(word: str) -> str:
    """`word` if it is ASCII without `_`, else a DomainError: Python reads
    `1_0` as 10 and `\u0663` as 3, where C's strtod reads `1_0` as 1."""
    if "_" in word or not word.isascii():
        raise DomainError(f"{word!r} is not a plain ASCII number")
    return word


def number(word: str) -> float:
    """`float(plain(word))`, or a DomainError unless that is finite."""
    value = float(plain(word))
    if not math.isfinite(value):
        raise DomainError(f"non-finite value {word!r}")
    return value


def decode(path, raw: bytes) -> str:
    """`raw`, the bytes of `path`, as UTF-8 text, or a ParseError naming a line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \r\n, \r or \n, as both readers split them
        line = len((raw[:exc.start] + b".").splitlines())
        raise ParseError(f"{path} line {line}: not UTF-8 text "
                         f"(byte {raw[exc.start]:#04x})") from None


def parse_csv(path) -> np.ndarray:
    """Read a canonical-header CSV into an (N, 11) float64 matrix, order
    preserved. np.loadtxt reads the body of a file in write_csv's layout;
    unless that gives 11 finite columns, and for any other file, the
    row-by-row reader reads it, so the values are float()'s and a
    ParseError names the row and column either way."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # loadtxt reads only where csv and float() read the same: write_csv's
    # header line then a row (loadtxt warns on a blank body), ASCII (it reads
    # a lone \xa0 byte as latin-1 NBSP), no U+001C-U+001F (it strips them)
    head = ",".join(COLUMNS).encode()
    if (raw.startswith((head + b"\r\n", head + b"\n")) and raw.isascii()
            and not any(c in raw for c in b"\x1c\x1d\x1e\x1f")
            and raw[len(head):len(head) + 3].strip()):  # never copies the body
        try:
            m = np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2,
                           comments=None, quotechar='"', skiprows=1)
            if m.shape[1] == len(COLUMNS) and np.isfinite(m).all():
                return m
        except ValueError:
            pass
    # lines as open(path, encoding="utf-8", newline="") splits them
    reader = csv.reader(io.StringIO(decode(path, raw), newline=""))
    try:
        return _parse_rows(path, reader)
    except csv.Error as exc:  # such as a cell over the field size limit
        raise ParseError(f"{path} line {reader.line_num}: {exc}") from None


def _parse_rows(path, reader) -> np.ndarray:
    """The row-by-row reader: the header, then csv cells through number()."""
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if header != COLUMNS:
        missing = [c for c in COLUMNS if c not in header]
        raise ParseError(f"{path}: header mismatch; missing columns {missing}"
                         if missing else f"{path}: header order must be {COLUMNS}")
    rows = []
    for row_num, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(COLUMNS):
            raise ParseError(f"{path} row {row_num}: expected {len(COLUMNS)} "
                             f"cells, got {len(row)}")
        vals = []
        for col_name, cell in zip(COLUMNS, row):
            try:
                vals.append(number(cell))
            except ValueError:
                raise ParseError(f"{path} row {row_num}, column {col_name!r}: "
                                 f"not a finite number {cell!r}") from None
        rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


def write_csv(rows, path) -> None:
    """Write an (N, 11) matrix, or SensorRecords, in the canonical CSV
    layout: %.12g values, CRLF ends. Any other shape, or a record of other
    than 11 values, is a DomainError, raised before the file is opened."""
    if not isinstance(rows, np.ndarray):  # one pass, no per-record arrays
        if bad := {len(r) for r in rows} - {len(COLUMNS)}:
            raise DomainError(f"a record has {min(bad)} values, not {len(COLUMNS)}")
        rows = np.fromiter(chain.from_iterable(rows), np.float64,
                           len(rows) * len(COLUMNS)).reshape(-1, len(COLUMNS))
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != len(COLUMNS):
        raise DomainError(f"a matrix has shape {m.shape}, not (N, {len(COLUMNS)})")
    row = b",".join([b"%.12g"] * len(COLUMNS)) + b"\r\n"
    blocks = (m[i:i + 4096] for i in range(0, len(m), 4096))  # bounds the bytes
    write_files([(path, chain([",".join(COLUMNS).encode("ascii") + b"\r\n"], (
        (row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)))])


def write_files(outputs) -> None:
    """Write each (path, chunks) pair in order: the package's one write open.
    An error removes every file opened so far, complete ones too, and raises."""
    opened = []
    try:
        for path, chunks in outputs:
            with open(path, "wb") as fh:  # a path that fails to open is kept
                opened.append(path)
                fh.writelines(chunks)
    except BaseException:
        for path in opened:
            if os.path.isfile(path):  # never a device or a FIFO; through a symlink
                os.remove(os.path.realpath(path))
        raise


@dataclass
class Standardizer:
    """Per-feature mean and population standard deviation, fitted on the
    training partition only. Zero-variance columns store std = 1."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        if not len(features):
            raise DomainError("cannot fit a standardizer on an empty set")
        mean = features.mean(axis=0)
        std = features.std(axis=0)  # population std (ddof=0)
        if (bad := ~(np.isfinite(mean) & np.isfinite(std))).any():  # near 1e308
            raise DomainError(f"column {COLUMNS[bad.argmax()]!r}: mean or std "
                              "overflows float64")
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    @np.errstate(over="ignore")  # past float64 is inf, which evaluations refuse
    def transform_matrix(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


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
        examples = Examples(np.array([e.features for e in examples]),
                            np.array([e.class_label for e in examples]))
    order = np.random.default_rng(seed).permutation(n)
    x, y = examples.features, examples.labels
    train, test = order[:(3 * n) // 4], order[(3 * n) // 4:]
    return SplitDataset(Examples(x[train], y[train]), Examples(x[test], y[test]))


# coefficients of the frozen synthetic HFR formula
_HFR_CENTER = 90.0
_NOISE_SIGMA = 0.2
_HFR_LOW, _HFR_HIGH = 85.0, 95.0


def synthetic_matrix(n: int, seed: int) -> np.ndarray:
    """Deterministic synthetic bench data as an (N, 11) CSV-order matrix:
    t = 1..n, features uniform within +-10% of the reference operating
    point, HFR from the frozen smooth formula plus N(0, 0.2^2) noise."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n * len(COLUMNS) * 8 > np.iinfo(np.intp).max:  # numpy raises ValueError
        raise MemoryError(f"{n} rows of {len(COLUMNS)} values do not fit")
    rng = np.random.default_rng(seed)
    m = np.empty((n, len(COLUMNS)))
    m[:, 0] = np.arange(1, n + 1)
    for j, col in enumerate(FEATURE_COLUMNS, start=1):
        base = BASE_VALUES[col]
        m[:, j] = rng.uniform(0.9 * base, 1.1 * base, size=n)
    noise = rng.normal(0.0, _NOISE_SIGMA, size=n)

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


def generate_synthetic(n: int, seed: int) -> list[SensorRecord]:
    """`synthetic_matrix` as SensorRecords (adapter)."""
    return [SensorRecord._make(row.tolist()) for row in synthetic_matrix(n, seed)]
