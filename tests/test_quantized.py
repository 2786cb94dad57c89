import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fcdsae import DomainError, network, quantized
from fcdsae.cli import build_parser
from fcdsae.dataset import Examples, Standardizer
from fcdsae.network import LayerParams, NetworkParams
from fcdsae.quantized import (INPUT_FORMAT, SCALE_FORMAT, QFormat,
                              QuantizedModel, dump_frames,
                              evaluate_quantized, frame_from_features,
                              q_forward, q_forward_batch, quantize,
                              quantize_model)

from oracles import (assert_engine_matches_oracle, dequantize, model_words,
                     random_format, random_model, random_network,
                     scalar_quantize)

Q88 = QFormat(16, 8)
# every total_bits from 2 to 32 with integer bits 1, middle and total - 1,
# plus the fixed input and scale formats
FORMATS = [INPUT_FORMAT, SCALE_FORMAT] + [
    QFormat(total, integer) for total in range(2, 33)
    for integer in sorted({1, (total + 1) // 2, total - 1})]


def value_range(fmt):
    """The smallest and the largest value a format represents."""
    return dequantize(fmt.raw_min, fmt), dequantize(fmt.raw_max, fmt)


class TestQFormat:
    def test_defaults(self):
        """The CLI's --format default, Q8.8, is the one default format."""
        args = build_parser().parse_args(["quantize", "--model", "m",
                                          "--out", "q"])
        fmt = QFormat.parse(args.format)
        assert fmt.total_bits == 16 and fmt.integer_bits == 8
        assert fmt.frac_bits == 8
        assert value_range(fmt) == (-128.0, 127.99609375)

    def test_parse(self):
        fmt = QFormat.parse("Q8.8")
        assert fmt == Q88
        assert QFormat.parse("Q2.30").frac_bits == 30

    @pytest.mark.parametrize("text", ["Q0.16", "8.8", "Q8", "Qx.y", "Q1.40"])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            QFormat.parse(text)

    @pytest.mark.parametrize("kw", [dict(total_bits=1, integer_bits=1),
                                    dict(total_bits=33, integer_bits=8),
                                    dict(total_bits=16, integer_bits=16),
                                    dict(total_bits=16, integer_bits=0)])
    def test_invalid_format(self, kw):
        with pytest.raises(DomainError):
            QFormat(**kw)


class TestQuantizeScalar:
    def test_exactly_representable(self):
        assert quantize(0.5, Q88) == 128
        assert dequantize(128, Q88) == 0.5

    def test_saturation(self):
        assert quantize(200.0, Q88) == 32767
        assert dequantize(32767, Q88) == 127.99609375
        assert quantize(-200.0, Q88) == -32768

    def test_rounding(self):
        assert quantize(0.003, Q88) == 1  # 0.768 rounds to 1
        assert dequantize(1, Q88) == 0.00390625

    def test_half_away_from_zero(self):
        # 0.5 LSB ties round away from zero in both signs
        assert quantize(3 * 2.0**-9, Q88) == 2
        assert quantize(-3 * 2.0**-9, Q88) == -2

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError):
            quantize(float("nan"), Q88)
        examples = Examples(np.array([[0.0, float("nan"), 0.0]]), np.array([0]))
        with pytest.raises(DomainError):
            evaluate_quantized(identity_model(), examples)

    def test_huge_values_saturate_silently(self):
        inf = float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fmt in (INPUT_FORMAT, QFormat(32, 2)):
                words = quantize([1e305, -1e305, inf, -inf], fmt).tolist()
                assert words == [fmt.raw_max, fmt.raw_min] * 2

    @given(st.floats(-200.0, 200.0))
    def test_roundtrip_error_bound(self, x):
        fmt = Q88
        rt = dequantize(quantize(x, fmt), fmt)
        lo, hi = value_range(fmt)
        if lo <= x <= hi:
            assert abs(rt - x) <= 2.0**-9 + 1e-12
        else:
            assert rt == (hi if x > 0 else lo)

    @given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
    def test_monotone(self, a, b):
        if a > b:
            a, b = b, a
        assert quantize(a, Q88) <= quantize(b, Q88)

    @given(st.floats(-300.0, 300.0))
    def test_idempotent(self, x):
        once = dequantize(quantize(x, Q88), Q88)
        assert quantize(once, Q88) == quantize(x, Q88)


@st.composite
def format_and_values(draw):
    """A format and values at its edges: exact ties +-(k + 1/2) 2^-f, +-0.0,
    subnormals, infinities, the range ends and one ulp past them, and any
    other float but NaN."""
    fmt = draw(st.sampled_from(FORMATS))
    inf = float("inf")
    lsb = 2.0 ** -fmt.frac_bits
    span = 1 << fmt.total_bits
    lo, hi = value_range(fmt)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, inf, -inf,
             hi, lo, math.nextafter(hi, inf), math.nextafter(lo, -inf)]
    value = st.one_of(
        st.sampled_from(edges),
        st.integers(-span, span).map(lambda k: (k + 0.5) * lsb),
        st.floats(2 * lo, 2 * hi),
        st.floats(allow_nan=False))
    return fmt, draw(st.lists(value, min_size=1, max_size=16))


def oracle_words(values, fmt):
    """scalar_quantize over a nested sequence of values, same nesting."""
    if np.ndim(values):
        return [oracle_words(v, fmt) for v in values]
    return scalar_quantize(values, fmt)


class TestQuantizeOracle:
    """The array quantizer against oracles.scalar_quantize, element by
    element."""

    @given(format_and_values())
    def test_matches_scalar_quantize(self, case):
        fmt, values = case
        expected = [scalar_quantize(v, fmt) for v in values]
        assert quantize(np.array(values), fmt).tolist() == expected
        assert [int(quantize(v, fmt)) for v in values] == expected

    def test_quantize_model_matches_oracle(self):
        """Words and saturation_count of quantize_model against a
        per-element pass of the oracle, on scaled random networks with a
        random standardizer: some values lie beyond every format's range,
        and each range end is met exactly and missed by one ulp."""
        rng = np.random.default_rng(31)
        for seed in range(30):
            fmt = FORMATS[int(rng.integers(len(FORMATS)))]
            params = random_network((10, 8, 4, 3), seed)
            for layer in params.layers:
                layer.weights *= 10.0 ** rng.uniform(-1, 3)
                layer.biases *= 10.0 ** rng.uniform(-1, 3)
            std = Standardizer(mean=rng.normal(0, 10.0 ** rng.uniform(0, 6), 10),
                               std=10.0 ** rng.uniform(-9, 3, 10))
            for values, f in ((params.layers[0].weights[0], fmt),
                              (params.layers[1].biases, fmt),
                              (std.mean, INPUT_FORMAT)):
                lo, hi = value_range(f)
                values[:4] = [lo, hi, np.nextafter(lo, -np.inf),
                              np.nextafter(hi, np.inf)]
            qm = quantize_model(params, std, fmt)
            words = model_words(qm)
            assert all(w.dtype == np.int64 for w in words)
            tensors = [(layer.weights, fmt) for layer in params.layers] + [
                (layer.biases, fmt) for layer in params.layers] + [
                (std.mean, INPUT_FORMAT),
                ([1.0 / s for s in std.std.tolist()], SCALE_FORMAT)]
            assert [w.tolist() for w in words] \
                == [oracle_words(t, f) for t, f in tensors]
            assert qm.saturation_count == sum(
                not value_range(f)[0] <= v <= value_range(f)[1]
                for t, f in tensors for v in np.ravel(t).tolist())


def identity_model(width=3, fmt=Q88):
    params = NetworkParams([LayerParams(np.eye(width), np.zeros(width))])
    std = Standardizer(mean=np.zeros(width), std=np.ones(width))
    return quantize_model(params, std, fmt)


class TestQuantizeModel:
    def test_all_zero(self):
        params = NetworkParams([LayerParams(np.zeros((3, 3)), np.zeros(3))])
        std = Standardizer(mean=np.zeros(3), std=np.ones(3))
        qm = quantize_model(params, std, Q88)
        assert all(w == 0 for row in qm.weights[0] for w in row)
        assert qm.saturation_count == 0

    def test_identity_diagonal(self):
        qm = identity_model()
        for j in range(3):
            assert qm.weights[0][j][j] == 256

    def test_saturation_counted(self):
        params = NetworkParams([LayerParams(np.array([[300.0]]), np.zeros(1))])
        std = Standardizer(mean=np.zeros(1), std=np.ones(1))
        qm = quantize_model(params, std, Q88)
        assert qm.saturation_count >= 1
        assert qm.weights[0][0][0] == 32767

    def test_subnormal_std_saturates_silently(self):
        params = NetworkParams([LayerParams(np.zeros((1, 2)), np.zeros(1))])
        std = Standardizer(mean=np.zeros(2), std=np.array([1e-320, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qm = quantize_model(params, std, Q88)
        assert qm.std_invstd.tolist() == [SCALE_FORMAT.raw_max,
                                          1 << SCALE_FORMAT.frac_bits]
        assert qm.saturation_count == 1


class TestQForward:
    def test_all_zero(self):
        params = NetworkParams([LayerParams(np.zeros((3, 3)), np.zeros(3))])
        std = Standardizer(mean=np.zeros(3), std=np.ones(3))
        qm = quantize_model(params, std, Q88)
        outs, pred = q_forward(qm, [0, 0, 0])
        assert outs == [0, 0, 0] and pred == 0

    def test_identity_passthrough(self):
        qm = identity_model()
        frame = frame_from_features([0.5, 0.0, 0.0])
        outs, pred = q_forward(qm, frame)
        assert outs[0] == 128
        assert pred == 0

    def test_tie_break_lowest_index(self):
        qm = identity_model()
        outs, pred = q_forward(qm, frame_from_features([0.25, 0.25, 0.25]))
        assert outs[0] == outs[1] == outs[2]
        assert pred == 0

    def test_bad_frame_length(self):
        """Wrong word counts, ragged batches, words outside Q18.14 and words
        that are not integers (integral floats included) raise DomainError
        through both the one-frame and the batch entry points."""
        qm = identity_model()
        lo, hi = INPUT_FORMAT.raw_min, INPUT_FORMAT.raw_max
        for frame in ([0, 0], [0, 0, 0, 0], [0, hi + 1, 0], [0, 0, lo - 1],
                      [2**70, 0, 0], [0, -2**70, 0], [8192.7, 0, 0],
                      [8192.0, 0, 0], ["8192", "0", "0"]):
            with pytest.raises(DomainError):
                q_forward(qm, frame)
            with pytest.raises(DomainError):
                dump_frames(qm, [[0, 0, 0], frame])


class TestWideningError:
    def test_more_frac_bits_never_worse(self, reference_run):
        params, std, _ = reference_run
        x = np.array([e for e in range(10)], float)
        acts = network.forward(params, std.transform_matrix(x).reshape(1, -1))
        float_out = acts[-1][0]
        frame = frame_from_features(x)
        prev_err = None
        for frac in [4, 8, 12, 16, 20, 24]:
            fmt = QFormat(8 + frac, 8)
            qm = quantize_model(params, std, fmt)
            outs, _ = q_forward(qm, frame)
            vals = [dequantize(w, fmt) for w in outs]
            err = max(abs(v - f) for v, f in zip(vals, float_out))
            if prev_err is not None:
                assert err <= prev_err + 1e-12
            prev_err = err


class TestFilesAndDumps:
    def test_frame_dump_shape(self):
        qm = identity_model()
        text = dump_frames(qm, [frame_from_features([1.0, 2.0, 3.0])])
        assert type(text) is str and type(dump_frames(qm, [])) is str
        words = text.strip().split()
        assert len(words) == 6
        assert all(w.lstrip("-").isdigit() for w in words)
        assert text.count("\n") == 1
        assert dump_frames(qm, []) == ""


def range_end_model(rng, fmt, widths):
    """Every word at or next to its format's bounds, or 0 or +-1."""
    def words(f, shape):
        return rng.choice([f.raw_min, f.raw_min + 1, -1, 0, 1, f.raw_max - 1,
                           f.raw_max], size=shape)
    return QuantizedModel(
        fmt=fmt, weights=[words(fmt, (n_out, n_in))
                          for n_in, n_out in zip(widths[:-1], widths[1:])],
        biases=[words(fmt, n_out) for n_out in widths[1:]],
        std_mean=words(INPUT_FORMAT, widths[0]),
        std_invstd=words(SCALE_FORMAT, widths[0]))


def limb_layout(total_bits, fan_in):
    """The engine's documented limb width and count for one layer."""
    k = 53 - (total_bits - 1) - math.ceil(math.log2(fan_in))
    return k, 1 if k >= total_bits else math.ceil(total_bits / k)


def limb_fan_ins(total_bits):
    """fan_in 1, and both sides of each point up to 2^15 where the limb
    count changes or a layer of more than one limb changes limb width."""
    def layout(fan_in):
        k, count = limb_layout(total_bits, fan_in)
        return count, count > 1 and k
    fan_ins = {1}
    for c in range(15):
        if layout(1 << c) != layout((1 << c) + 1):
            fan_ins |= {1 << c, (1 << c) + 1}
    return sorted(fan_ins)


def limb_stress_model(rng, fmt, fan_in, sign):
    """A one-layer model and one frame: fan_in odd activations of one sign
    at the end of the range the input path reaches, and weights whose low
    limbs are all full (w = -1 mod 2^K, K the bits below the top limb).
    Columns: the widest such weight of the activations' sign, whose
    accumulator can pass the top clamp; and two of -1 with the first weight
    tuned so the accumulator sits just below and on a rounding edge, where
    a limb sum that is off by one changes the word. Each bias brings its
    word to 1 or 2 where the range allows it."""
    bits, f = fmt.total_bits, fmt.frac_bits
    k, count = limb_layout(bits, fan_in)
    low_bits = k * (count - 1)
    # the frame word x standardizes to the activation x >> shift exactly
    shift = max(0, 8 - f)
    end = min(fmt.raw_max, INPUT_FORMAT.raw_max >> shift)
    a = sign * (end - 2 * rng.integers(0, min(8, end // 2 + 1), fan_in))
    acts = a.tolist()
    rest = sum(acts[1:])
    widest = fmt.raw_max if sign > 0 else fmt.raw_min + (1 << low_bits) - 1
    columns = [([widest] * fan_in, widest * sum(acts))]
    for edge in (-1, 0):  # the accumulator mod 2^f: 2^(f-1) - 1 and 2^(f-1)
        w0 = ((1 << f >> 1) + edge + rest) * pow(acts[0], -1, 1 << f) % (1 << f)
        columns.append(([w0] + [-1] * (fan_in - 1), w0 * acts[0] - rest))
    qm = QuantizedModel(
        fmt=fmt, weights=[np.array([w for w, _ in columns])],
        biases=[np.array([min(max(1 - (acc >> f), fmt.raw_min), fmt.raw_max)
                          for _, acc in columns])],
        std_mean=np.zeros(fan_in, np.int64),
        std_invstd=np.full(fan_in, 1 << (38 - f - shift)))
    return qm, a << shift


class TestBatchEngine:
    """Every engine entry point against the scalar oracle, frame by frame,
    through oracles.assert_engine_matches_oracle."""

    def test_random_models_and_saturating_frames(self):
        rng = np.random.default_rng(404)
        inf = float("inf")
        for _ in range(300):
            widths = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 4)))]
            qm = random_model(rng, widths + [3])
            n_in = widths[0]
            rows = [*rng.normal(0, 20, (6, n_in)), *rng.normal(0, 1e4, (2, n_in)),
                    [inf] * n_in, [-inf] * n_in, [1e12, -1e12] * n_in]
            frames = [frame_from_features(row[:n_in]) for row in rows]
            assert_engine_matches_oracle(qm, frames)

    def test_range_end_words_every_width(self):
        rng = np.random.default_rng(2032)
        lo, hi = INPUT_FORMAT.raw_min, INPUT_FORMAT.raw_max
        for total in range(2, 33):
            for integer in sorted({1, (total + 1) // 2, total - 1}):
                qm = range_end_model(rng, QFormat(total, integer), (10, 16, 8, 3))
                frames = rng.choice([lo, lo + 1, -1, 0, 1, hi - 1, hi],
                                    size=(12, 10)).tolist()
                assert_engine_matches_oracle(qm, frames)

    def test_limb_sums_near_the_float64_bound(self):
        """Every total_bits with integer bits 1 and total - 1, at each
        fan_in where the limb layout changes, activations of alternating
        sign: the low limb sums of a multi-limb layer come within about a
        factor 2 of 2^53 wherever the input path reaches the range end."""
        rng = np.random.default_rng(53)
        for total in range(2, 33):
            for fmt in {QFormat(total, 1), QFormat(total, total - 1)}:
                for i, fan_in in enumerate(limb_fan_ins(total)):
                    qm, frame = limb_stress_model(rng, fmt, fan_in, (-1) ** i)
                    assert_engine_matches_oracle(qm, [frame])

    @pytest.mark.parametrize("fmt, fan_in, width, count", [
        (Q88, 32, 33, 1), (QFormat(32, 2), 32, 17, 2),
        (QFormat(32, 1), 1 << 15, 7, 5)])
    def test_documented_limb_layout(self, fmt, fan_in, width, count):
        """One limb for Q8.8 at the reference widths, two of 17 bits for
        Q2.30, five of 7 bits for 32-bit words at the fan_in bound; the
        limbs add back up to the weights."""
        row = ([fmt.raw_min, -1, 0, 1, fmt.raw_max] * fan_in)[:fan_in]
        qm = QuantizedModel(fmt=fmt, weights=[np.array([row])],
                            biases=[np.zeros(1, np.int64)],
                            std_mean=np.zeros(fan_in, np.int64),
                            std_invstd=np.zeros(fan_in, np.int64))
        limbs, k, _ = qm._layers[0]
        assert (k, len(limbs)) == (width, count) == limb_layout(fmt.total_bits,
                                                                fan_in)
        assert all(limb.dtype == np.float64 for limb in limbs)
        rebuilt = sum(limb.astype(np.int64) << (k * j)
                      for j, limb in enumerate(limbs))
        assert rebuilt[:, 0].tolist() == row

    def test_fan_in_bound(self):
        """At fan_in 2^15, 32-bit weights of -1 (every low 7-bit limb full),
        the lowest bias and standardized inputs of -2^31 put each low limb
        sum at -(2^53 - 2^46); the engine refuses a wider layer."""
        fmt = QFormat(32, 1)
        for fan_in in (1 << 15, (1 << 15) + 1):
            qm = QuantizedModel(fmt=fmt, weights=[np.full((1, fan_in), -1)],
                                biases=[np.array([fmt.raw_min])],
                                std_mean=np.full(fan_in, INPUT_FORMAT.raw_max),
                                std_invstd=np.full(fan_in, SCALE_FORMAT.raw_max))
            frames = [[INPUT_FORMAT.raw_min] * fan_in]
            if fan_in > 1 << 15:
                with pytest.raises(DomainError):
                    q_forward_batch(qm, frames)
                with pytest.raises(DomainError):
                    q_forward(qm, frames[0])
            else:
                assert_engine_matches_oracle(qm, frames)


def block_frames(rng, n_in):
    """Two full engine blocks and a partial one of Q18.14 frame words, as an
    int64 array: mostly sensor-scale rows, some far out of range."""
    n = 2 * quantized._BLOCK + 3
    spread = np.where(rng.random((n, 1)) < 0.9, 20.0, 1e4)
    return quantize(rng.normal(0, 1, (n, n_in)) * spread, INPUT_FORMAT)


class TestBlocks:
    def test_every_block_matches_the_oracle(self):
        """At random 2..32-bit formats, every entry point gives the scalar
        oracle's words at the first and last frame of every block and at a
        seeded sample."""
        rng = np.random.default_rng(1023)
        for _ in range(6):
            qm = random_model(rng, (10, 32, 16, 3), random_format(rng))
            frames = block_frames(rng, 10)
            n, block = len(frames), quantized._BLOCK
            rows = {i for s in range(0, n, block)
                    for i in (s, min(s + block, n) - 1)}
            rows |= set(rng.choice(n, 24, replace=False).tolist())
            assert_engine_matches_oracle(qm, frames, sorted(rows))

    @pytest.mark.parametrize("fmt", [Q88, QFormat(32, 2), QFormat(2, 1)])
    def test_engine_writes_to_no_input(self, fmt):
        """q_forward_batch, dump_frames and evaluate_quantized leave the
        caller's int64 frames, the model's words and its cached limbs and
        biases as they were, and a second call gives the same words."""
        rng = np.random.default_rng(fmt.total_bits)
        qm = random_model(rng, (10, 32, 16, 3), fmt)
        frames = block_frames(rng, 10)
        examples = Examples(frames * 2.0**-INPUT_FORMAT.frac_bits,
                            rng.integers(0, 3, len(frames)))

        def snapshot():
            cached = [a for limbs, _, b in qm._layers for a in limbs + [b]]
            return [a.copy() for a in [frames, examples.features]
                    + model_words(qm) + cached]

        before = snapshot()
        runs = [(q_forward_batch(qm, frames)[0], dump_frames(qm, frames),
                 evaluate_quantized(qm, examples).confusion) for _ in range(2)]
        assert all(np.array_equal(a, b) for a, b in
                   zip(before, snapshot(), strict=True))
        (words, dump, cm), (words2, dump2, cm2) = runs
        assert np.array_equal(words, words2) and dump == dump2
        assert np.array_equal(cm, cm2)
