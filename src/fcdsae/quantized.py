"""Bit-exact fixed-point inference engine: Q-format quantization with
saturating arithmetic, model quantization, and the streaming-frame path that
mirrors the deployed accelerator word-for-word.

All raw words are Python ints, so every arithmetic step is exact regardless
of format width. Per-layer products accumulate in a double-width value and
are re-quantized (round half away from zero, then saturate) back to the
compute format after each layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from fcdsae import modelfile
from fcdsae.errors import DomainError, FrameError, ParseError

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


def quantize(x: float, fmt: QFormat) -> int:
    """Round half away from zero to the nearest representable raw word,
    saturating at the format's range bounds (infinities included)."""
    scaled = min(max(float(x) * (1 << fmt.frac_bits), fmt.raw_min), fmt.raw_max)
    raw = int(math.floor(abs(scaled) + 0.5))
    return -raw if scaled < 0 else raw


def dequantize(raw: int, fmt: QFormat) -> float:
    return raw * 2.0 ** -fmt.frac_bits


def requantize(acc: int, shift: int, fmt: QFormat) -> int:
    """Scale an exact accumulator down by 2^shift (round half away from
    zero) and saturate into fmt's raw range."""
    if shift > 0:
        half = 1 << (shift - 1)
        if acc >= 0:
            acc = (acc + half) >> shift
        else:
            acc = -((-acc + half) >> shift)
    return min(max(acc, fmt.raw_min), fmt.raw_max)


@dataclass
class QuantizedModel:
    """Integer-word network plus quantized standardization constants."""

    fmt: QFormat
    weights: list[list[list[int]]]   # per layer: fan_out rows of fan_in words
    biases: list[list[int]]          # per layer: fan_out words
    std_mean: list[int]              # INPUT_FORMAT words
    std_invstd: list[int]            # SCALE_FORMAT words
    saturation_count: int = 0

    @property
    def input_width(self) -> int:
        return len(self.weights[0][0])


def quantize_model(params, std, fmt: QFormat = QFormat()) -> QuantizedModel:
    """Quantize every weight, bias, and standardizer constant; values beyond
    the representable range saturate and are tallied, never rejected."""
    saturated = 0

    def q(x: float, f: QFormat) -> int:
        nonlocal saturated
        if x > f.max_value or x < f.min_value:
            saturated += 1
        return quantize(x, f)

    weights, biases = [], []
    for layer in params.layers:
        weights.append([[q(w, fmt) for w in row] for row in layer.weights])
        biases.append([q(b, fmt) for b in layer.biases])
    std_mean = [q(m, INPUT_FORMAT) for m in std.mean]
    std_invstd = [q(1.0 / float(s), SCALE_FORMAT) for s in std.std]
    return QuantizedModel(fmt=fmt, weights=weights, biases=biases,
                          std_mean=std_mean, std_invstd=std_invstd,
                          saturation_count=saturated)


def frame_from_features(features) -> list[int]:
    """Quantize one row of raw sensor values into input-format words,
    canonical column order."""
    return [quantize(float(x), INPUT_FORMAT) for x in features]


def q_forward(qm: QuantizedModel, frame: list[int]) -> tuple[list[int], int]:
    """Fixed-point forward pass over one frame.

    Standardization, matrix-vector products, bias adds, and ReLU all run on
    raw integer words; each layer's double-width accumulator is re-quantized
    to the compute format before the next layer. Returns the three output
    words and the argmax class (lowest index on ties).
    """
    if len(frame) != qm.input_width:
        raise FrameError(
            f"frame has {len(frame)} words, model expects {qm.input_width}"
        )
    f = qm.fmt.frac_bits
    # z = (x - mean) * invstd, exact product at 2^-(in_f + scale_f), then
    # rounded into the compute format
    std_shift = INPUT_FORMAT.frac_bits + SCALE_FORMAT.frac_bits - f
    acts = [
        requantize((x - m) * s, std_shift, qm.fmt)
        for x, m, s in zip(frame, qm.std_mean, qm.std_invstd)
    ]
    for w_layer, b_layer in zip(qm.weights, qm.biases):
        nxt = []
        for row, b in zip(w_layer, b_layer):
            acc = b << f  # bias at the accumulator's 2^-2f scale
            for w, a in zip(row, acts):
                acc += w * a
            y = requantize(acc, f, qm.fmt)
            nxt.append(y if y > 0 else 0)
        acts = nxt
    pred = max(range(len(acts)), key=lambda i: (acts[i], -i))
    return acts, pred


@dataclass
class QuantEvalResult:
    metrics: "MetricBlock"
    confusion: "ConfusionMatrix"
    accuracy_delta: float | None = None


def evaluate_quantized(qm: QuantizedModel, examples,
                       float_accuracy: float | None = None) -> QuantEvalResult:
    """Metric block of the fixed-point path over labeled examples, plus the
    accuracy delta against the float path when its accuracy is supplied."""
    from fcdsae.metrics import confusion, metric_block

    preds = [q_forward(qm, frame_from_features(ex.features))[1]
             for ex in examples]
    cm = confusion([ex.class_label for ex in examples], preds)
    block = metric_block(cm)
    delta = None if float_accuracy is None else float_accuracy - block.accuracy
    return QuantEvalResult(metrics=block, confusion=cm, accuracy_delta=delta)


def dump_frames(qm: QuantizedModel, frames: list[list[int]]) -> str:
    """One line per frame: 10 input words then 3 output words, decimal.
    Byte-comparable across implementations."""
    lines = []
    for frame in frames:
        outs, _ = q_forward(qm, frame)
        lines.append(" ".join(str(w) for w in list(frame) + outs))
    return "\n".join(lines) + "\n"


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
