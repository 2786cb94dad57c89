import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcdsae import ParseError, modelfile, network, quantized
from fcdsae.dataset import N_FEATURES, Standardizer
from fcdsae.network import DEFAULT_TOPOLOGY, MODEL_MAGIC
from fcdsae.quantized import QMODEL_MAGIC, QFormat

from oracles import model_words, random_model, random_network

KINDS = ["model", "qmodel"]
LOADERS = {"model": network.load_model, "qmodel": quantized.load_qmodel}


def _saved_texts():
    """model.txt and Q8.8 model.qtxt text of a 10-32-16-3 network."""
    params = random_network(DEFAULT_TOPOLOGY, seed=3)
    std = Standardizer(mean=np.linspace(-2.0, 30.0, N_FEATURES),
                       std=np.linspace(0.25, 10.0, N_FEATURES))
    with tempfile.TemporaryDirectory() as tmp:
        model, qmodel = Path(tmp, "m.txt"), Path(tmp, "m.qtxt")
        network.save_model(params, model, standardizer=std)
        quantized.save_qmodel(quantized.quantize_model(params, std, QFormat(16, 8)),
                              qmodel)
        return {"model": model.read_text(), "qmodel": qmodel.read_text()}


SAVED = _saved_texts()


def load_and_use(text, kind):
    """Load `text` as a model.txt or model.qtxt and run what loads. Returns
    False if the loader refused it with ParseError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m")
        path.write_text(text)
        try:
            loaded = LOADERS[kind](path)
        except ParseError:
            return False
    if kind == "qmodel":
        words, _ = quantized.q_forward(loaded, [0] * loaded.weights[0].shape[1])
        assert all(loaded.fmt.raw_min <= w <= loaded.fmt.raw_max for w in words)
    else:
        params, std = loaded
        network.forward(params, np.zeros((1, params.topology[0])))
        quantized.quantize_model(params, std, QFormat(32, 2))
    return True


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip(tmp_path, kind):
    """A saved model loads back exactly: every float to the bit, every word
    as an int64 with its format. A 0 STDINVSTD word, which quantize_model
    writes for a std of 2^25 or more, loads."""
    rng = np.random.default_rng(5)
    path = tmp_path / "m"
    if kind == "model":
        params = random_network(DEFAULT_TOPOLOGY, seed=11)
        std = Standardizer(mean=rng.normal(0, 30, N_FEATURES),
                           std=rng.uniform(1e-3, 30, N_FEATURES))
        network.save_model(params, path, std)
        back, back_std = network.load_model(path)
        want, got = ([t for l in p.layers for t in (l.weights, l.biases)]
                     + [s.mean, s.std] for p, s in ((params, std), (back, back_std)))
    else:
        qm = random_model(rng, DEFAULT_TOPOLOGY)
        invstd = qm.std_invstd.copy()
        invstd[3] = 0
        qm = dataclasses.replace(qm, std_invstd=invstd)
        quantized.save_qmodel(qm, path)
        back = quantized.load_qmodel(path)
        assert back.fmt == qm.fmt
        want, got = model_words(qm), model_words(back)
    assert [(a.dtype, a.tobytes()) for a in got] \
        == [(a.dtype, a.tobytes()) for a in want]


@pytest.mark.parametrize("kind", KINDS)
def test_truncated_at_every_line(kind):
    """Only the complete file loads: a file cut anywhere else, right after
    a bias row included, is a ParseError."""
    lines = SAVED[kind].splitlines()
    for cut in range(len(lines) + 1):
        complete = cut == len(lines)
        assert load_and_use("\n".join(lines[:cut]) + "\n", kind) == complete


TOKENS = st.sampled_from(["", "0", "-1", "1.5", "nan", "inf", "-inf", "1e999",
                          "1e-320", "99999999999", "99999999999999999999",
                          "abc", "LAYER", "BIAS", "STDMEAN", "STDSTD", "Q",
                          "QIN", "32 16", "10"])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_mutated_token_loads_or_raises_parse_error(kind, data):
    lines = [ln.split() for ln in SAVED[kind].splitlines()]
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    ascii_text = st.text(st.characters(min_codepoint=9, max_codepoint=126),
                         max_size=4)
    lines[row][col] = data.draw(TOKENS | ascii_text)
    load_and_use("\n".join(" ".join(ln) for ln in lines) + "\n", kind)


FIRST_WORD = r"(?<=LAYER 10 32\n)\S+"  # of the first weight row
END = "expected the end of the file after the last layer ('LAYER 16 3')"
RECORDS = {"model": ["STDMEAN", "STDSTD"],
           "qmodel": ["Q", "QIN", "QSCALE", "STDMEAN", "STDINVSTD"]}


def _both(name, edits, line, message):
    """The rows `name-model` and `name-qmodel` of a fault at `line` of
    model.txt; model.qtxt has three more header records, so its line is
    three further on."""
    return {f"{name}-{kind}": (kind, edits, f" line {line + 3 * (kind == 'qmodel')}"
                                            f": {message}") for kind in KINDS}


# family -> id -> (format, edits, message): the saved file of that format,
# with each (pattern, replacement) of `edits` applied once by re.sub in
# multi-line mode, is a ParseError whose whole text is the file's path,
# then `message`. Each family runs under its own test below, with the name
# and ids it has had since before the table. model.txt lines are: magic,
# STDMEAN, STDSTD, LAYER 10 32 (line 4), its 32 weight rows, BIAS, the bias
# row, LAYER 32 16 (39), ..., LAYER 16 3 (58), ..., the last bias row (63).
FAULTS = {
    "magic": {
        "model": ("model", [(r"\A.*", QMODEL_MAGIC)],
                  ": missing 'FCDSAE 1' header"),
        "qmodel": ("qmodel", [(r"\A.*", MODEL_MAGIC)],
                   ": missing 'FCDSAE-Q 1' header"),
    },
    "grammar": {
        "fan-in-mismatch": ("model", [("^LAYER 32 16$", "LAYER 4 16")],
                            " line 39: expected 'LAYER 32 16', read 'LAYER 4 16'"),
        "fan-out-zero": ("model", [("^LAYER 16 3$", "LAYER 16 0")],
                         " line 58: expected 'LAYER 16 3', read 'LAYER 16 0'"),
        "duplicate-record": ("model", [("^STDSTD", "STDMEAN")],
                             " line 3: unknown or duplicate record 'STDMEAN'"),
        "unknown-record": ("model", [("^STDSTD", "STDDEV")],
                           " line 3: unknown or duplicate record 'STDDEV'"),
        "short-bias-row": ("model", [("^BIAS\n", "BIAS\n1\n")],
                           " line 38: expected 32 values, got 1"),
    },
    # the loaders read only 10-32-16-3; a file of another topology reads
    # the same up to the first layer line it differs in, bar the record
    # widths, which are checked only once the grammar holds
    "topology": {
        **_both("shallower", [("^LAYER 32 16$", "LAYER 32 3")], 39,
                "expected 'LAYER 32 16', read 'LAYER 32 3'"),
        **_both("deeper", [(r"\Z", "LAYER 3 3\n1 0 0\n0 1 0\n0 0 1\nBIAS\n"
                                   "0 0 0\n")], 64, f"{END}, read 'LAYER 3 3'"),
        **_both("swapped-widths", [("^LAYER 10 32$", "LAYER 10 16")], 4,
                "expected 'LAYER 10 32', read 'LAYER 10 16'"),
        **_both("four-inputs", [("^LAYER 10 32$", "LAYER 4 32")], 4,
                "expected 'LAYER 10 32', read 'LAYER 4 32'"),
        **_both("words-after-last-bias-row", [(r"\Z", "0 1\n")], 64,
                f"{END}, read '0 1'"),
    },
    # a missing record is named only once the grammar holds: with a short
    # last bias row as well, the short row is the fault
    "records": {
        **{f"{kind}-no-{tag.lower()}": (
            kind, [(f"^{tag} .*\n", "")], f": missing records ['{tag}']")
           for kind, tags in RECORDS.items() for tag in tags},
        **{f"{kind}-no-{tag.lower()}-short-last-row": (
            kind, [(f"^{tag} .*\n", ""), (r"^.*\n\Z", "1\n")],
            f" line {62 + 3 * (kind == 'qmodel')}: expected 3 values, got 1")
           for kind, tags in RECORDS.items() for tag in tags},
    },
    # a standardizer record one value short, a format record one too long
    "widths": {
        f"{kind}-{tag.lower()}": (
            kind, [(f"^({tag} .*) \\S+$", r"\1") if got < want
                   else (f"^{tag} .*", r"\g<0> 0")],
            f": {tag} has {got} values, expected {want}")
        for kind, tag, got, want in [
            ("model", "STDMEAN", 9, 10), ("model", "STDSTD", 9, 10),
            ("qmodel", "STDMEAN", 9, 10), ("qmodel", "STDINVSTD", 9, 10),
            ("qmodel", "Q", 3, 2), ("qmodel", "QIN", 3, 2)]},
    "beyond-int64": {
        "qmodel": ("qmodel", [(FIRST_WORD, "-99999999999999999999")],
                   ": layer 0 weight word -99999999999999999999 is outside "
                   "the Q8.8 range [-32768, 32767]"),
    },
    # quantize_model writes 1 / std, and std > 0
    "stdinvstd": {
        word: ("qmodel", [(r"(?<=\nSTDINVSTD )\S+", word)],
               f": STDINVSTD word {word} is negative")
        for word in ["-1", "-2147483648"]},
    # Python reads int("1_0") as 10, int("\u0663") as 3 and float("1_0.5")
    # as 10.5, where C's strtol reads 1_0 as 1
    "words": {
        f"{kind}-{name}": (kind, [(FIRST_WORD, word)],
                           f" line {line}: {word!r} is not a plain ASCII number")
        for kind, name, word, line in [
            ("qmodel", "underscore", "1_0", 8),
            ("qmodel", "arabic-indic-digit", "\u0663", 8),
            ("model", "underscore", "1_0.5", 5),
            ("model", "arabic-indic-digit", "\u0663.5", 5)]},
    # str.split() also splits on U+001C-U+001F and Unicode spaces, where a C
    # reader splitting on space and tab sees one word; int() and float()
    # strip a glued vertical tab or form feed, where strtol and strtod stop
    "separators": {
        "qmodel-unit-separator": ("qmodel", [(FIRST_WORD + " ", "1\x1f")],
                                  " line 8: expected 10 values, got 9"),
        "model-em-space": ("model", [(FIRST_WORD + " ", "1\u2003")],
                           " line 5: expected 10 values, got 9"),
        "qmodel-vertical-tab": ("qmodel", [(FIRST_WORD + " ", "1\x0b ")],
                                " line 8: '1\\x0b' is not printable ASCII"),
        "model-form-feed": ("model", [(FIRST_WORD + " ", "1\x0c ")],
                            " line 5: '1\\x0c' is not printable ASCII"),
    },
}


def assert_fault(tmp_path, row):
    kind, edits, message = row
    text = SAVED[kind]
    for pattern, replacement in edits:
        text, count = re.subn(pattern, replacement, text, count=1, flags=re.M)
        assert count == 1, pattern
    path = tmp_path / "m"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        LOADERS[kind](path)
    assert str(exc.value) == f"{path}{message}"


def _family(name):
    """The test of each row of FAULTS[name]."""
    @pytest.mark.parametrize("case", FAULTS[name])
    def test(tmp_path, case):
        assert_fault(tmp_path, FAULTS[name][case])
    return test


test_magic_line_names_the_format = _family("magic")
test_grammar_fault_names_the_line = _family("grammar")
test_wrong_topology_names_the_expected_layer = _family("topology")
test_record_width_names_both_counts = _family("widths")
test_stdinvstd_word_is_not_negative = _family("stdinvstd")
test_non_ascii_or_underscore_word_rejected = _family("words")
test_only_space_and_tab_separate_words = _family("separators")


@pytest.mark.parametrize("kind", KINDS)
def test_every_header_record_required(tmp_path, kind):
    for row in FAULTS["records"].values():
        if row[0] == kind:
            assert_fault(tmp_path, row)


def test_word_beyond_int64_is_named(tmp_path):
    assert_fault(tmp_path, FAULTS["beyond-int64"]["qmodel"])


@pytest.mark.parametrize("kind", KINDS)
def test_crlf_and_tabs_read_the_same_words(tmp_path, kind):
    """CRLF ends a line as LF does, and a tab separates words as a space
    does."""
    text = SAVED[kind]
    tags = ({"Q": 2, "QIN": 2, "QSCALE": 2, "STDMEAN": N_FEATURES,
             "STDINVSTD": N_FEATURES}
            if kind == "qmodel" else {"STDMEAN": N_FEATURES, "STDSTD": N_FEATURES})
    magic = text.splitlines()[0]
    plain, crlf, tabs = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    plain.write_text(text)
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    tabs.write_text(text.replace(" ", "\t"))
    want = modelfile.read(plain, magic, tags, DEFAULT_TOPOLOGY, str)
    for path in (crlf, tabs):
        assert modelfile.read(path, magic, tags, DEFAULT_TOPOLOGY, str) == want
        assert load_and_use(path.read_text(), kind)


def test_blank_lines_ignored(tmp_path):
    plain, spaced = tmp_path / "a.qtxt", tmp_path / "b.qtxt"
    plain.write_text(SAVED["qmodel"])
    spaced.write_text("\n" + SAVED["qmodel"].replace("\n", "\n\n"))
    a, b = quantized.load_qmodel(spaced), quantized.load_qmodel(plain)
    assert a.fmt == b.fmt
    assert all(np.array_equal(x, y) for x, y in zip(
        model_words(a), model_words(b), strict=True))
