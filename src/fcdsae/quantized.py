"""Bit-exact fixed-point inference engine: Q-format quantization with
saturating arithmetic, model quantization, and the streaming-frame path that
mirrors the deployed accelerator word-for-word.

Per-layer products accumulate in a double-width value and are re-quantized
(round half away from zero, then saturate) back to the compute format after
each layer. One engine computes these words: `q_forward_batch` runs N frames
at once, its matrix products as float64 matmuls on weight limbs whose sums
are exact integers, and `q_forward` is the same engine on one frame. Its
docstring gives the bounds that keep it exact. The readable spec it is
tested against is the scalar interpreter in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fcdsae import modelfile
from fcdsae.errors import DimensionError, DomainError, FrameError, ParseError

QMODEL_MAGIC = "FCDSAE-Q 1"


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: total_bits words, integer_bits of range
    (sign included), the rest fractional."""

    total_bits: int = 16
    integer_bits: int = 8

    def __post_init__(self):
        if not 2 <= self.total_bits <= 32:
            raise DomainError(f"total_bits must be in [2,32], got {self.total_bits}")
        if not 1 <= self.integer_bits < self.total_bits:
            raise DomainError(
                f"integer_bits must be in [1, total_bits), got {self.integer_bits}"
            )

    @property
    def frac_bits(self) -> int:
        return self.total_bits - self.integer_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min * 2.0 ** -self.frac_bits

    @property
    def max_value(self) -> float:
        return self.raw_max * 2.0 ** -self.frac_bits

    def __str__(self) -> str:
        return f"Q{self.integer_bits}.{self.frac_bits}"

    @classmethod
    def parse(cls, text: str) -> "QFormat":
        """Parse 'Qi.f' (e.g. 'Q8.8') into a format descriptor."""
        if not text.startswith("Q") or "." not in text:
            raise DomainError(f"bad Q-format string {text!r}, expected 'Qi.f'")
        try:
            i_str, f_str = text[1:].split(".", 1)
            i, f = int(i_str), int(f_str)
        except ValueError:
            raise DomainError(f"bad Q-format string {text!r}") from None
        return cls(total_bits=i + f, integer_bits=i)


# sensor words and standardization means ride a fixed wide input format so
# raw bench values (hundreds of volts/kPa, timestamps in the tens of
# thousands) never saturate regardless of the compute format under study
INPUT_FORMAT = QFormat(total_bits=32, integer_bits=18)
# inverse-std scale factors span ~1e-4 .. ~40, so they get more fraction
SCALE_FORMAT = QFormat(total_bits=32, integer_bits=8)


def quantize(x, fmt: QFormat) -> np.ndarray:
    """Round half away from zero to the nearest representable raw word,
    saturating at the format's range bounds: clamp, then floor(|s| + 0.5),
    then the sign. x is a float or an array; the result is int64 words of
    the same shape. Values too large to scale (1e305, infinities) saturate
    without a warning."""
    with np.errstate(over="ignore"):
        scaled = np.asarray(x, np.float64) * float(1 << fmt.frac_bits)
    scaled = np.minimum(np.maximum(scaled, fmt.raw_min), fmt.raw_max)
    if np.isnan(scaled).any():
        raise DomainError("cannot quantize NaN")
    return np.copysign(np.floor(np.abs(scaled) + 0.5), scaled).astype(np.int64)


# the widest layer the engine keeps exact; see q_forward_batch
_MAX_FAN_IN = 1 << 15


@dataclass(frozen=True)
class QuantizedModel:
    """Integer-word network plus quantized standardization constants.

    The word fields are lists of Python ints and are never changed after
    construction: the engine builds its arrays from them once, on first
    use.
    """

    fmt: QFormat
    weights: list[list[list[int]]]   # per layer: fan_out rows of fan_in words
    biases: list[list[int]]          # per layer: fan_out words
    std_mean: list[int]              # INPUT_FORMAT words
    std_invstd: list[int]            # SCALE_FORMAT words
    saturation_count: int = 0

    @property
    def input_width(self) -> int:
        return len(self.weights[0][0])

    @cached_property
    def _arrays(self):
        """int64 mean and invstd, and per layer the float64 weight limbs
        (fan_in x fan_out, lowest first), their width and the int64 bias at
        the accumulator scale. DimensionError past the fan_in bound."""
        bits = self.fmt.total_bits
        layers = []
        for i, (w_layer, b_layer) in enumerate(zip(self.weights, self.biases)):
            w = np.array(w_layer, np.int64).T
            if len(w) > _MAX_FAN_IN:
                raise DimensionError(f"layer {i} has fan_in {len(w)}; the "
                                     f"engine is exact up to {_MAX_FAN_IN}")
            k = 53 - (bits - 1) - (len(w) - 1).bit_length()  # ceil(log2 fan_in)
            top = 0 if k >= bits else k * (-(-bits // k) - 1)
            limbs = [(w >> s) & ((1 << k) - 1) for s in range(0, top, k)]
            layers.append(([limb.astype(np.float64) for limb in limbs + [w >> top]],
                           k, np.array(b_layer, np.int64) << self.fmt.frac_bits))
        return (np.array(self.std_mean, np.int64),
                np.array(self.std_invstd, np.int64), layers)


def quantize_model(params, std, fmt: QFormat = QFormat()) -> QuantizedModel:
    """Quantize every weight, bias, and standardizer constant; values beyond
    the representable range saturate and are tallied, never rejected."""
    saturated = 0

    def q(values, f: QFormat) -> list:
        nonlocal saturated
        values = np.asarray(values, np.float64)
        saturated += int(np.count_nonzero((values < f.min_value)
                                          | (values > f.max_value)))
        return quantize(values, f).tolist()

    with np.errstate(over="ignore"):  # a subnormal std saturates its scale
        invstd = 1.0 / np.asarray(std.std, np.float64)
    return QuantizedModel(
        fmt=fmt, weights=[q(layer.weights, fmt) for layer in params.layers],
        biases=[q(layer.biases, fmt) for layer in params.layers],
        std_mean=q(std.mean, INPUT_FORMAT), std_invstd=q(invstd, SCALE_FORMAT),
        saturation_count=saturated)


def frame_from_features(features) -> list[int]:
    """Quantize one row of raw sensor values into input-format words,
    canonical column order."""
    return quantize(features, INPUT_FORMAT).tolist()


def _rows(rows, width: int, dtype=None) -> np.ndarray:
    """rows as an (N, width) array; FrameError for anything else."""
    try:
        x = np.array(rows, dtype=dtype)
    except ValueError as exc:  # ragged rows, or a non-numeric value
        raise FrameError(f"frames are not equal-length rows of numbers: {exc}") \
            from None
    if len(x) and x.shape[1:] != (width,):
        raise FrameError(f"frames of shape {x.shape}, model expects {width} "
                         "words per frame")
    return x.reshape(len(x), width)


def _frames(frames, width: int) -> np.ndarray:
    """frames as an (N, width) int64 array of Q18.14 words; FrameError for
    anything else, floats (integral ones included) and strings too."""
    x = _rows(frames, width)
    if x.size:
        if x.dtype.kind not in "iu":
            raise FrameError(f"frame words must be {INPUT_FORMAT} integers, "
                             f"got {x.dtype} values")
        if x.min() < INPUT_FORMAT.raw_min or x.max() > INPUT_FORMAT.raw_max:
            raise FrameError(f"frame word outside the {INPUT_FORMAT} range "
                             f"[{INPUT_FORMAT.raw_min}, {INPUT_FORMAT.raw_max}]")
    return x.astype(np.int64, copy=False)


def _requantize(acc: np.ndarray, shift: int, fmt: QFormat) -> np.ndarray:
    """Scale accumulators with |acc| < 2^63 down by 2^shift, rounding half
    away from zero, and saturate into fmt's raw range. Rounding works on
    the magnitude and adds nothing before shifting, so it cannot overflow;
    shift >= 1 (38 - f or f)."""
    m = np.abs(acc)
    q = (m >> shift) + ((m >> (shift - 1)) & 1)
    return np.minimum(np.maximum(np.where(acc < 0, -q, q), fmt.raw_min),
                      fmt.raw_max)


_BLOCK = 1024


def q_forward_batch(qm: QuantizedModel, frames) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point forward pass over N frames: returns the (N, outputs)
    int64 output words and the (N,) argmax classes (lowest index on ties).

    Standardization, matrix products, bias adds, and ReLU all run on raw
    integer words; each layer's double-width accumulator is re-quantized to
    the compute format before the next layer. Every step is exact for
    formats of 2 to 32 bits. The model's words lie in their formats'
    ranges (`quantize_model` saturates them, `load_qmodel` checks them);
    frames and fan_in are checked here.
    - frame words and means are Q18.14 and scales Q8.24, so
      |x - mean| * |invstd| <= (2^32 - 1) * 2^31 < 2^63 in int64;
    - a layer of fan_in n <= 2^15 in a B-bit format splits each weight into
      limbs of k = 53 - (B - 1) - ceil(log2 n) >= 7 bits: one limb if k >= B,
      else L = ceil(B / k), the low ones (w >> kj) & (2^k - 1), the top one
      the signed w >> K, K = k(L - 1). With |a| <= 2^(B-1) and |limb| < 2^k,
      every partial sum of a float64 a @ limb is an integer below
      n * 2^(B-1) * (2^k - 1) < 2^53, exact in any order, FMA or not;
    - in int64, the lowest sum takes the bias at the accumulator scale
      (|b * 2^f| <= 2^62) and each higher one the carry from below,
      c_j = s_j + (c_{j-1} >> k), whose low k bits join the remainder R < 2^K;
    - the top carry is clamped to +-2^(62-K) before acc = top * 2^K + R
      (< 2^63). A clamped top means |acc| > 2^62 before and > 2^62 - 2^K
      after; as K <= 30, both saturate every format of up to 32 bits;
    - rounding works on the magnitude and adds nothing before shifting.
    """
    x = _frames(frames, qm.input_width)
    mean, invstd, layers = qm._arrays
    fmt, f = qm.fmt, qm.fmt.frac_bits
    # z = (x - mean) * invstd, exact product at 2^-(in_f + scale_f), then
    # rounded into the compute format
    std_shift = INPUT_FORMAT.frac_bits + SCALE_FORMAT.frac_bits - f
    words = np.empty((len(x), len(qm.biases[-1])), np.int64)
    # blocks keep each temporary small enough to stay in cache
    for start in range(0, len(x), _BLOCK):
        acts = _requantize((x[start:start + _BLOCK] - mean) * invstd,
                           std_shift, fmt)
        for limbs, k, b_scaled in layers:
            a = acts.astype(np.float64)
            acc, rem, low_bits = (a @ limbs[0]).astype(np.int64) + b_scaled, 0, 0
            for limb in limbs[1:]:
                rem += (acc & ((1 << k) - 1)) << low_bits
                acc = (a @ limb).astype(np.int64) + (acc >> k)
                low_bits += k
            bound = 1 << (62 - low_bits)
            acc = np.minimum(np.maximum(acc, -bound), bound)
            acts = np.maximum(_requantize((acc << low_bits) + rem, f, fmt), 0)
        words[start:start + _BLOCK] = acts
    return words, np.argmax(words, axis=1)


def q_forward(qm: QuantizedModel, frame) -> tuple[list[int], int]:
    """`q_forward_batch` on one frame: its output words and class."""
    words, preds = q_forward_batch(qm, [frame])
    return words[0].tolist(), int(preds[0])


@dataclass
class QuantEvalResult:
    metrics: "MetricBlock"
    confusion: "ConfusionMatrix"


def evaluate_quantized(qm: QuantizedModel, examples) -> QuantEvalResult:
    """Metric block and confusion matrix of the fixed-point path over a
    `dataset.Examples`."""
    from fcdsae.metrics import confusion, metric_block

    features = _rows(examples.features, qm.input_width, np.float64)
    _, preds = q_forward_batch(qm, quantize(features, INPUT_FORMAT))
    cm = confusion(examples.labels, preds)
    return QuantEvalResult(metrics=metric_block(cm), confusion=cm)


def dump_frames(qm: QuantizedModel, frames: list[list[int]]) -> str:
    """One line per frame: 10 input words then 3 output words, decimal.
    Byte-comparable across implementations."""
    x = _frames(frames, qm.input_width)
    words, _ = q_forward_batch(qm, x)
    table = np.hstack([x, words])
    line = " ".join(["%d"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


_QTAGS = ("Q", "QIN", "QSCALE", "STDMEAN", "STDINVSTD")


def _format_words(fmt: QFormat) -> list[int]:
    return [fmt.total_bits, fmt.integer_bits]


def save_qmodel(qm: QuantizedModel, path) -> None:
    records = [("Q", _format_words(qm.fmt)), ("QIN", _format_words(INPUT_FORMAT)),
               ("QSCALE", _format_words(SCALE_FORMAT)),
               ("STDMEAN", qm.std_mean), ("STDINVSTD", qm.std_invstd)]
    modelfile.write(path, QMODEL_MAGIC, records, zip(qm.weights, qm.biases), str)


def _check_words(path, what: str, words, fmt: QFormat) -> None:
    for w in words:
        if not fmt.raw_min <= w <= fmt.raw_max:
            raise ParseError(f"{path}: {what} word {w} is outside the {fmt} "
                             f"range [{fmt.raw_min}, {fmt.raw_max}]")


def load_qmodel(path) -> QuantizedModel:
    records, layers = modelfile.read(path, QMODEL_MAGIC, _QTAGS, int)
    missing = [tag for tag in _QTAGS if tag not in records]
    if missing:
        raise ParseError(f"{path}: missing records {missing}")
    for tag, fixed in (("QIN", INPUT_FORMAT), ("QSCALE", SCALE_FORMAT)):
        if records[tag] != _format_words(fixed):
            raise ParseError(f"{path}: {tag} must be {fixed.total_bits} "
                             f"{fixed.integer_bits} ({fixed}), the engine's "
                             "fixed format")
    if len(records["Q"]) != 2:
        raise ParseError(f"{path}: Q record must be '<total_bits> <integer_bits>'")
    try:
        fmt = QFormat(*records["Q"])
    except DomainError as exc:
        raise ParseError(f"{path}: Q record: {exc}") from None
    width = len(layers[0][0][0])
    for tag, word_fmt in (("STDMEAN", INPUT_FORMAT), ("STDINVSTD", SCALE_FORMAT)):
        if len(records[tag]) != width:
            raise ParseError(f"{path}: {tag} has {len(records[tag])} words, "
                             f"the input width is {width}")
        _check_words(path, tag, records[tag], word_fmt)
    for i, (rows, biases) in enumerate(layers):
        _check_words(path, f"layer {i} weight", (w for r in rows for w in r), fmt)
        _check_words(path, f"layer {i} bias", biases, fmt)
    return QuantizedModel(fmt=fmt, weights=[rows for rows, _ in layers],
                          biases=[biases for _, biases in layers],
                          std_mean=records["STDMEAN"],
                          std_invstd=records["STDINVSTD"])
