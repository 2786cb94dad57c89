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

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fcdsae import DomainError, ParseError, metrics, modelfile
from fcdsae.dataset import N_FEATURES, write_files
from fcdsae.network import DEFAULT_TOPOLOGY

QMODEL_MAGIC = "FCDSAE-Q 1"


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: total_bits words, integer_bits of range
    (sign included), the rest fractional."""

    total_bits: int
    integer_bits: int

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

    def __str__(self) -> str:
        return f"Q{self.integer_bits}.{self.frac_bits}"

    @classmethod
    def parse(cls, text: str) -> "QFormat":
        """Parse 'Qi.f' (e.g. 'Q8.8'), i and f in ASCII digits, into a
        format descriptor."""
        # at most 9 digits each, so int() never meets its digit limit
        match = re.fullmatch(r"Q([0-9]{1,9})\.([0-9]{1,9})", text)
        if match is None:
            raise DomainError(f"bad Q-format string {text!r}, expected 'Qi.f'")
        i, f = map(int, match.groups())
        return cls(total_bits=i + f, integer_bits=i)


# sensor words and standardization means ride a fixed wide Q18.14 format,
# whatever the compute format; its largest word is 131,071.99994, so gen-data's
# t saturates from row 131,072 on (README "Fixed-point semantics")
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

    The word fields are int64 arrays, never changed after construction; the
    engine derives its weight limbs from them once, on first use.
    """

    fmt: QFormat
    weights: list[np.ndarray]        # per layer: (fan_out, fan_in) words
    biases: list[np.ndarray]         # per layer: (fan_out,) words
    std_mean: np.ndarray             # INPUT_FORMAT words
    std_invstd: np.ndarray           # SCALE_FORMAT words
    saturation_count: int = 0

    @cached_property
    def _layers(self):
        """Per layer the float64 weight limbs (fan_in x fan_out, lowest
        first), their width and the int64 bias at the accumulator scale.
        DomainError past the fan_in bound."""
        bits = self.fmt.total_bits
        layers = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = w.T
            if len(w) > _MAX_FAN_IN:
                raise DomainError(f"layer {i} has fan_in {len(w)}; the "
                                  f"engine is exact up to {_MAX_FAN_IN}")
            k = 53 - (bits - 1) - (len(w) - 1).bit_length()  # ceil(log2 fan_in)
            top = k * ((bits - 1) // k)  # K: the largest multiple of k below B
            limbs = [(w >> s) & ((1 << k) - 1) for s in range(0, top, k)]
            layers.append(([limb.astype(np.float64) for limb in limbs + [w >> top]],
                           k, b << self.fmt.frac_bits))
        return layers


@np.errstate(over="ignore")  # huge values and 1 / a subnormal std saturate
def quantize_model(params, std, fmt: QFormat) -> QuantizedModel:
    """Quantize every float64 weight, bias, and standardizer constant;
    values beyond the representable range saturate and are tallied, never
    rejected."""
    saturated = 0

    def q(values, f: QFormat) -> np.ndarray:
        nonlocal saturated
        # scaling by 2^f is exact, or overflows to +-inf; NaN counts nowhere
        scaled = values * float(1 << f.frac_bits)
        saturated += int(np.count_nonzero((scaled < f.raw_min)
                                          | (scaled > f.raw_max)))
        return quantize(values, f)

    invstd = 1.0 / std.std
    return QuantizedModel(
        fmt=fmt, weights=[q(layer.weights, fmt) for layer in params.layers],
        biases=[q(layer.biases, fmt) for layer in params.layers],
        std_mean=q(std.mean, INPUT_FORMAT), std_invstd=q(invstd, SCALE_FORMAT),
        saturation_count=saturated)


def frame_from_features(features) -> list[int]:
    """Quantize one row of raw sensor values into input-format words,
    canonical column order."""
    return quantize(features, INPUT_FORMAT).tolist()


def _frames(frames, width: int) -> np.ndarray:
    """frames as an (N, width) int64 array of Q18.14 words; DomainError for
    anything else, floats (integral ones included) and strings too."""
    try:
        x = np.asarray(frames)
    except ValueError as exc:  # ragged rows
        raise DomainError(f"frames are not equal-length rows: {exc}") from None
    if len(x) and x.shape[1:] != (width,):
        raise DomainError(f"frames of shape {x.shape}, model expects {width} "
                          "words per frame")
    x = x.reshape(len(x), width)
    if x.size:
        if x.dtype.kind not in "iu":
            raise DomainError(f"frame words must be {INPUT_FORMAT} integers, "
                              f"got {x.dtype} values")
        if x.min() < INPUT_FORMAT.raw_min or x.max() > INPUT_FORMAT.raw_max:
            raise DomainError(f"frame word outside the {INPUT_FORMAT} range "
                              f"[{INPUT_FORMAT.raw_min}, {INPUT_FORMAT.raw_max}]")
    return x.astype(np.int64, copy=False)


def _requantize(acc: np.ndarray, shift: int, fmt: QFormat) -> np.ndarray:
    """Scale accumulators with |acc| < 2^63 down by 2^shift, rounding half
    away from zero, and saturate into fmt's raw range; rewrites acc and
    returns it. Rounding works on the magnitude and adds nothing before
    shifting, so it cannot overflow; shift >= 1 (38 - f or f)."""
    sign = acc >> 63  # 0 or -1, and (m ^ sign) - sign is +-m
    np.abs(acc, out=acc)
    half = acc >> (shift - 1)
    half &= 1
    acc >>= shift
    acc += half
    acc ^= sign
    acc -= sign
    np.maximum(acc, fmt.raw_min, out=acc)
    return np.minimum(acc, fmt.raw_max, out=acc)


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
      L = ceil(B / k) limbs of k = 53 - (B - 1) - ceil(log2 n) >= 7 bits:
      the low ones (w >> kj) & (2^k - 1), the top one the signed w >> K,
      K = k(L - 1). With |a| <= 2^(B-1) and |limb| < 2^k,
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
    x = _frames(frames, qm.weights[0].shape[1])
    mean, invstd, layers = qm.std_mean, qm.std_invstd, qm._layers
    fmt, f = qm.fmt, qm.fmt.frac_bits
    # z = (x - mean) * invstd, exact product at 2^-(in_f + scale_f), then
    # rounded into the compute format
    std_shift = INPUT_FORMAT.frac_bits + SCALE_FORMAT.frac_bits - f
    words = np.empty((len(x), len(qm.biases[-1])), np.int64)
    # blocks keep temporaries cache-sized; each stage rewrites the array the
    # one before it made rather than allocate per operation, but never x (a
    # caller's int64 frames, uncopied) nor the model's limbs and biases
    for start in range(0, len(x), _BLOCK):
        z = x[start:start + _BLOCK] - mean
        z *= invstd
        acts = _requantize(z, std_shift, fmt)
        for limbs, k, b_scaled in layers:
            a = acts.astype(np.float64)
            acc, rem, low_bits = (a @ limbs[0]).astype(np.int64), 0, 0
            acc += b_scaled
            for limb in limbs[1:]:
                rem += (acc & ((1 << k) - 1)) << low_bits
                acc >>= k
                acc += (a @ limb).astype(np.int64)
                low_bits += k
            bound = 1 << (62 - low_bits)
            np.maximum(acc, -bound, out=acc)
            np.minimum(acc, bound, out=acc)
            acc <<= low_bits
            acc += rem
            acts = np.maximum(_requantize(acc, f, fmt), 0, out=acc)
        words[start:start + _BLOCK] = acts
    return words, np.argmax(words, axis=1)


def q_forward(qm: QuantizedModel, frame) -> tuple[list[int], int]:
    """`q_forward_batch` on one frame: its output words and class."""
    words, preds = q_forward_batch(qm, [frame])
    return words[0].tolist(), int(preds[0])


@dataclass
class QuantEvalResult:
    metrics: metrics.MetricBlock
    confusion: np.ndarray  # (3, 3) counts, true class by row


def evaluate_quantized(qm: QuantizedModel, examples) -> QuantEvalResult:
    """Metric block and confusion matrix of the fixed-point path over a
    `dataset.Examples`."""
    _, preds = q_forward_batch(qm, quantize(examples.features, INPUT_FORMAT))
    cm = metrics.confusion(examples.labels, preds)
    return QuantEvalResult(metrics=metrics.metric_block(cm), confusion=cm)


def dump_frames(qm: QuantizedModel, frames: list[list[int]]) -> str:
    """One line per frame: 10 input words then 3 output words, decimal.
    Byte-comparable across implementations."""
    x = _frames(frames, qm.weights[0].shape[1])
    words, _ = q_forward_batch(qm, x)
    table = np.hstack([x, words])
    line = b" ".join([b"%d"] * table.shape[1]) + b"\n"
    return ((line * len(table)) % tuple(table.ravel().tolist())).decode("ascii")


_QTAGS = {"Q": 2, "QIN": 2, "QSCALE": 2, "STDMEAN": N_FEATURES,
          "STDINVSTD": N_FEATURES}


def _format_words(fmt: QFormat) -> list[int]:
    return [fmt.total_bits, fmt.integer_bits]


def save_qmodel(qm: QuantizedModel, path) -> None:
    records = [("Q", _format_words(qm.fmt)), ("QIN", _format_words(INPUT_FORMAT)),
               ("QSCALE", _format_words(SCALE_FORMAT)),
               ("STDMEAN", qm.std_mean), ("STDINVSTD", qm.std_invstd)]
    write_files([(path, [modelfile.encode(QMODEL_MAGIC, records,
                                          zip(qm.weights, qm.biases), str)])])


def _check_words(path, what: str, words, fmt: QFormat) -> np.ndarray:
    """A record's int words as int64; ParseError names the first outside fmt."""
    a = np.array(words, dtype=object)
    bad = (a < fmt.raw_min) | (a > fmt.raw_max)
    if bad.any():
        raise ParseError(f"{path}: {what} word {a[bad][0]} is outside the "
                         f"{fmt} range [{fmt.raw_min}, {fmt.raw_max}]")
    return a.astype(np.int64)


def load_qmodel(path) -> QuantizedModel:
    records, layers = modelfile.read(path, QMODEL_MAGIC, _QTAGS,
                                     DEFAULT_TOPOLOGY, int)
    for tag, fixed in (("QIN", INPUT_FORMAT), ("QSCALE", SCALE_FORMAT)):
        if records[tag] != _format_words(fixed):
            raise ParseError(f"{path}: {tag} must be {fixed.total_bits} "
                             f"{fixed.integer_bits} ({fixed}), the engine's "
                             "fixed format")
    try:
        fmt = QFormat(*records["Q"])
    except DomainError as exc:
        raise ParseError(f"{path}: Q record: {exc}") from None
    for tag, word_fmt in (("STDMEAN", INPUT_FORMAT), ("STDINVSTD", SCALE_FORMAT)):
        records[tag] = _check_words(path, tag, records[tag], word_fmt)
    if (invstd := records["STDINVSTD"]).min() < 0:  # 1 / std, and std > 0
        raise ParseError(f"{path}: STDINVSTD word {invstd.min()} is negative")
    weights, biases = [], []
    for i, (rows, b) in enumerate(layers):
        weights.append(_check_words(path, f"layer {i} weight", rows, fmt))
        biases.append(_check_words(path, f"layer {i} bias", b, fmt))
    return QuantizedModel(fmt=fmt, weights=weights, biases=biases,
                          std_mean=records["STDMEAN"],
                          std_invstd=records["STDINVSTD"])
