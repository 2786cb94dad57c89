import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcdsae import ParseError, modelfile, network, quantized
from fcdsae.dataset import N_FEATURES, Standardizer
from fcdsae.network import DEFAULT_TOPOLOGY
from fcdsae.quantized import QFormat

from oracles import random_network


def _saved_texts(topology=DEFAULT_TOPOLOGY):
    """model.txt and Q8.8 model.qtxt text of a network of `topology`."""
    params = random_network(topology, seed=3)
    std = Standardizer(mean=np.linspace(-2.0, 30.0, topology[0]),
                       std=np.linspace(0.25, 10.0, topology[0]))
    with tempfile.TemporaryDirectory() as tmp:
        model, qmodel = Path(tmp, "m.txt"), Path(tmp, "m.qtxt")
        network.save_model(params, model, standardizer=std)
        quantized.save_qmodel(quantized.quantize_model(params, std, QFormat(16, 8)),
                              qmodel)
        return model.read_text(), qmodel.read_text()


MODEL_TEXT, QMODEL_TEXT = _saved_texts()


def load_and_use(text, qmodel):
    """Load `text` as a model.txt or model.qtxt and run what loads. Returns
    False if the loader refused it with ParseError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m")
        path.write_text(text)
        try:
            if qmodel:
                qm = quantized.load_qmodel(path)
            else:
                params, std = network.load_model(path)
        except ParseError:
            return False
    if qmodel:
        words, _ = quantized.q_forward(qm, [0] * qm.weights[0].shape[1])
        assert all(qm.fmt.raw_min <= w <= qm.fmt.raw_max for w in words)
    else:
        network.forward(params, np.zeros((1, params.topology[0])))
        quantized.quantize_model(params, std, QFormat(32, 2))
    return True


@pytest.mark.parametrize("qmodel", [False, True], ids=["model", "qmodel"])
def test_truncated_at_every_line(qmodel):
    """Only the complete file loads: a file cut anywhere else, right after
    a bias row included, is a ParseError."""
    lines = (QMODEL_TEXT if qmodel else MODEL_TEXT).splitlines()
    for cut in range(len(lines) + 1):
        complete = cut == len(lines)
        assert load_and_use("\n".join(lines[:cut]) + "\n", qmodel) == complete


TOKENS = st.sampled_from(["", "0", "-1", "1.5", "nan", "inf", "-inf", "1e999",
                          "1e-320", "99999999999", "99999999999999999999",
                          "abc", "LAYER", "BIAS", "STDMEAN", "STDSTD", "Q",
                          "QIN", "32 16", "10"])


@pytest.mark.parametrize("qmodel", [False, True], ids=["model", "qmodel"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_mutated_token_loads_or_raises_parse_error(qmodel, data):
    text = QMODEL_TEXT if qmodel else MODEL_TEXT
    lines = [ln.split() for ln in text.splitlines()]
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    ascii_text = st.text(st.characters(min_codepoint=9, max_codepoint=126),
                         max_size=4)
    lines[row][col] = data.draw(TOKENS | ascii_text)
    load_and_use("\n".join(" ".join(ln) for ln in lines) + "\n", qmodel)


@pytest.mark.parametrize("old,new,match", [
    ("LAYER 32 16", "LAYER 4 16",
     "line 39: expected 'LAYER 32 16', read 'LAYER 4 16'"),
    ("LAYER 16 3", "LAYER 16 0",
     "line 58: expected 'LAYER 16 3', read 'LAYER 16 0'"),
    ("STDSTD", "STDMEAN", "line 3: unknown or duplicate record 'STDMEAN'"),
    ("STDSTD", "STDDEV", "line 3: unknown or duplicate record 'STDDEV'"),
    ("\nBIAS\n", "\nBIAS\n1\n", "line 38: expected 32 values, got 1"),
], ids=["fan-in-mismatch", "fan-out-zero", "duplicate-record", "unknown-record",
        "short-bias-row"])
def test_grammar_fault_names_the_line(tmp_path, old, new, match):
    path = tmp_path / "m.txt"
    assert old in MODEL_TEXT
    path.write_text(MODEL_TEXT.replace(old, new, 1))
    with pytest.raises(ParseError, match=match):
        network.load_model(path)


END = "the end of the file after the last layer ('LAYER 16 3')"
# id -> (topology of the saved network, lines appended to its file, the
# line read where the loader expects another, what it expects there)
WRONG_TOPOLOGY = {
    "shallower": ((10, 32, 3), "", "LAYER 32 3", "'LAYER 32 16'"),
    "deeper": (DEFAULT_TOPOLOGY, "LAYER 3 3\n1 0 0\n0 1 0\n0 0 1\nBIAS\n0 0 0\n",
               "LAYER 3 3", END),
    "swapped-widths": ((10, 16, 32, 3), "", "LAYER 10 16", "'LAYER 10 32'"),
    "four-inputs": ((4, 32, 16, 3), "", "LAYER 4 32", "'LAYER 10 32'"),
    "words-after-last-bias-row": (DEFAULT_TOPOLOGY, "0 1\n", "0 1", END),
}


@pytest.mark.parametrize("qmodel", [False, True], ids=["model", "qmodel"])
@pytest.mark.parametrize("case", WRONG_TOPOLOGY)
def test_wrong_topology_names_the_expected_layer(tmp_path, case, qmodel):
    """Both loaders read only 10-32-16-3: a file of any other topology is a
    ParseError naming the line, what the loader expected there and what
    it read."""
    topology, extra, read, expected = WRONG_TOPOLOGY[case]
    text = _saved_texts(topology)[qmodel] + extra
    path = tmp_path / "m"
    path.write_text(text)
    line = text.splitlines().index(read) + 1
    load = quantized.load_qmodel if qmodel else network.load_model
    with pytest.raises(ParseError) as exc:
        load(path)
    assert str(exc.value) == f"{path} line {line}: expected {expected}, read {read!r}"


@pytest.mark.parametrize("qmodel", [False, True], ids=["model", "qmodel"])
def test_every_header_record_required(tmp_path, qmodel):
    """A file without one of its header records is a ParseError naming it,
    raised only once the grammar holds: with a short last bias row as well,
    the short row is the fault reported."""
    lines = (QMODEL_TEXT if qmodel else MODEL_TEXT).splitlines()
    load = quantized.load_qmodel if qmodel else network.load_model
    path = tmp_path / "m"
    n_records = next(i for i, ln in enumerate(lines) if ln.startswith("LAYER")) - 1
    assert n_records == (5 if qmodel else 2)
    for i in range(1, n_records + 1):
        kept = lines[:i] + lines[i + 1:]
        path.write_text("\n".join(kept) + "\n")
        tag = lines[i].split()[0]
        with pytest.raises(ParseError, match=rf"missing records \['{tag}'\]"):
            load(path)
        path.write_text("\n".join(kept[:-1] + ["1"]) + "\n")
        with pytest.raises(ParseError, match="expected 3 values, got 1"):
            load(path)


@pytest.mark.parametrize("qmodel, tag, got, want", [
    (False, "STDMEAN", 9, 10), (False, "STDSTD", 9, 10), (True, "STDMEAN", 9, 10),
    (True, "STDINVSTD", 9, 10), (True, "Q", 3, 2), (True, "QIN", 3, 2),
], ids=["model-stdmean", "model-stdstd", "qmodel-stdmean", "qmodel-stdinvstd",
        "qmodel-q", "qmodel-qin"])
def test_record_width_names_both_counts(tmp_path, qmodel, tag, got, want):
    """A standardizer record one value short of the input width, or a
    format record with a third value, is a ParseError naming the record,
    its value count and the count expected."""
    lines = (QMODEL_TEXT if qmodel else MODEL_TEXT).splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.split()[0] == tag)
    words = lines[i].split()
    lines[i] = " ".join(words[:-1] if got < want else words + ["0"])
    path = tmp_path / "m"
    path.write_text("\n".join(lines) + "\n")
    load = quantized.load_qmodel if qmodel else network.load_model
    with pytest.raises(ParseError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: {tag} has {got} values, expected {want}"


def test_word_beyond_int64_is_named(tmp_path):
    """A word no int64 holds is named like any other out-of-range word."""
    lines = QMODEL_TEXT.splitlines()
    row = lines.index("LAYER 10 32") + 1
    lines[row] = " ".join(["-99999999999999999999"] + lines[row].split()[1:])
    path = tmp_path / "m.qtxt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="layer 0 weight word -99999999999999999999 "):
        quantized.load_qmodel(path)


@pytest.mark.parametrize("qmodel, word", [
    (True, "1_0"), (True, "\u0663"), (False, "1_0.5"), (False, "\u0663.5"),
], ids=["qmodel-underscore", "qmodel-arabic-indic-digit", "model-underscore",
        "model-arabic-indic-digit"])
def test_non_ascii_or_underscore_word_rejected(tmp_path, qmodel, word):
    """Python reads int("1_0") as 10, int("\u0663") as 3 and float("1_0.5")
    as 10.5, where C's strtol reads 1_0 as 1: both loaders refuse such a
    word, naming its line."""
    lines = (QMODEL_TEXT if qmodel else MODEL_TEXT).splitlines()
    row = lines.index("LAYER 10 32") + 1
    lines[row] = " ".join([word] + lines[row].split()[1:])
    path = tmp_path / "m"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    load = quantized.load_qmodel if qmodel else network.load_model
    with pytest.raises(ParseError, match=rf"line {row + 1}: '{word}' is not a "
                                         "plain ASCII number"):
        load(path)


@pytest.mark.parametrize("qmodel, separator, error", [
    (True, "\x1f", "expected 10 values, got 9"),
    (False, "\u2003", "expected 10 values, got 9"),
    (True, "\x0b ", r"'[^']+\\x0b' is not printable ASCII"),
    (False, "\x0c ", r"'[^']+\\x0c' is not printable ASCII"),
], ids=["qmodel-unit-separator", "model-em-space", "qmodel-vertical-tab",
        "model-form-feed"])
def test_only_space_and_tab_separate_words(tmp_path, qmodel, separator, error):
    """str.split() also splits on U+001C-U+001F and Unicode spaces, where a
    C reader splitting on space and tab sees one word: a weight row with
    such a separator is a short row, named by its line. int() and float()
    strip a vertical tab or form feed glued to a word, where C's strtol and
    strtod stop at it: such a word is refused, named by its line."""
    lines = (QMODEL_TEXT if qmodel else MODEL_TEXT).splitlines()
    row = lines.index("LAYER 10 32") + 1
    lines[row] = lines[row].replace(" ", separator, 1)
    path = tmp_path / "m"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    load = quantized.load_qmodel if qmodel else network.load_model
    with pytest.raises(ParseError, match=rf"line {row + 1}: {error}"):
        load(path)


@pytest.mark.parametrize("qmodel", [False, True], ids=["model", "qmodel"])
def test_crlf_and_tabs_read_the_same_words(tmp_path, qmodel):
    """CRLF ends a line as LF does, and a tab separates words as a space
    does."""
    text = QMODEL_TEXT if qmodel else MODEL_TEXT
    tags = ({"Q": 2, "QIN": 2, "QSCALE": 2, "STDMEAN": N_FEATURES,
             "STDINVSTD": N_FEATURES}
            if qmodel else {"STDMEAN": N_FEATURES, "STDSTD": N_FEATURES})
    magic = text.splitlines()[0]
    plain, crlf, tabs = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    plain.write_text(text)
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    tabs.write_text(text.replace(" ", "\t"))
    want = modelfile.read(plain, magic, tags, DEFAULT_TOPOLOGY, str)
    for path in (crlf, tabs):
        assert modelfile.read(path, magic, tags, DEFAULT_TOPOLOGY, str) == want
        assert load_and_use(path.read_text(), qmodel)


def test_blank_lines_ignored(tmp_path):
    plain, spaced = tmp_path / "a.qtxt", tmp_path / "b.qtxt"
    plain.write_text(QMODEL_TEXT)
    spaced.write_text("\n" + QMODEL_TEXT.replace("\n", "\n\n"))
    a, b = quantized.load_qmodel(spaced), quantized.load_qmodel(plain)
    assert a.fmt == b.fmt
    assert all(np.array_equal(x, y) for x, y in zip(
        a.weights + a.biases + [a.std_mean, a.std_invstd],
        b.weights + b.biases + [b.std_mean, b.std_invstd], strict=True))
