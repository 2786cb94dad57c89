"""The plain-text grammar of both model files: a magic line, tagged header
records (`TAG v1 v2 ...`), then per layer `LAYER <fan_in> <fan_out>`, fan_out
weight rows, `BIAS` and the bias row. Blank lines are ignored. Callers pass
the value formatter or parser and check the meaning of what they read."""

from __future__ import annotations

import re

from fcdsae.dataset import decode, plain
from fcdsae.errors import ParseError

# positive layer sizes below 10^9, in ASCII digits
_LAYER = re.compile(r"LAYER ([1-9][0-9]{0,8}) ([1-9][0-9]{0,8})")


def write(path, magic: str, records, layers, fmt) -> None:
    """Write `records` ((tag, values) pairs, in order) and `layers` ((weight
    rows, biases) pairs), each value rendered by `fmt`."""
    lines = [magic]
    lines += [" ".join([tag, *map(fmt, values)]) for tag, values in records]
    for rows, biases in layers:
        lines.append(f"LAYER {len(rows[0])} {len(rows)}")
        lines += [" ".join(map(fmt, row)) for row in rows]
        lines += ["BIAS", " ".join(map(fmt, biases))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read(path, magic: str, tags, parse):
    """Returns ({tag: values}, [(weight rows, biases)]). `tags` maps each
    header record, required exactly once, to its value count, None for the
    input width (the first fan_in); `parse` turns a word into a value or
    raises ValueError. Words are split on space and tab and are printable
    ASCII without `_`, as C reads them. Grammar faults, then missing
    records, then record widths raise ParseError."""
    with open(path, "rb") as fh:  # lines end as in text mode: \r\n, \r or \n
        text = decode(path, fh.read())
    lines = [(n, words) for n, ln in enumerate(re.split(r"\r\n?|\n", text), 1)
             if (words := re.findall(r"[^ \t]+", ln))]
    if not lines or lines[0][1] != magic.split():
        raise ParseError(f"{path}: missing '{magic}' header")
    pending = iter(lines[1:])

    def fail(n, message):
        raise ParseError(f"{path} line {n}: {message}")

    def values(n, words, count=None):
        if count is not None and len(words) != count:
            fail(n, f"expected {count} values, got {len(words)}")
        for w in words:
            if not w.isprintable():  # int() and float() strip \v and \f
                fail(n, f"{w!r} is not printable ASCII")
        try:
            return [parse(plain(w)) for w in words]
        except ValueError as exc:
            fail(n, str(exc))

    def next_line(expected):
        line = next(pending, None)
        if line is None:
            fail(lines[-1][0], f"file ends, expected {expected}")
        return line

    records, layers = {}, []
    line = next(pending, None)
    while line is not None and line[1][0] != "LAYER":
        n, (tag, *words) = line
        if tag not in tags or tag in records:
            fail(n, f"unknown or duplicate record {tag!r}")
        records[tag] = values(n, words)
        line = next(pending, None)
    if line is None:
        fail(lines[-1][0], "file ends before the first LAYER")
    while line is not None:
        n, head = line
        match = _LAYER.fullmatch(" ".join(head))
        if match is None:
            fail(n, "expected 'LAYER <fan_in> <fan_out>' with positive sizes")
        fan_in, fan_out = map(int, match.groups())
        if layers and fan_in != len(layers[-1][1]):
            fail(n, f"fan_in {fan_in} does not match the previous layer's "
                    f"fan_out {len(layers[-1][1])}")
        rows = [values(*next_line(f"{fan_in} weights"), fan_in)
                for _ in range(fan_out)]
        n, words = next_line("BIAS")
        if words != ["BIAS"]:
            fail(n, "expected BIAS line")
        layers.append((rows, values(*next_line(f"{fan_out} biases"), fan_out)))
        line = next(pending, None)
    missing = [tag for tag in tags if tag not in records]
    if missing:
        raise ParseError(f"{path}: missing records {missing}")
    for tag, count in tags.items():
        count = len(layers[0][0][0]) if count is None else count
        if len(records[tag]) != count:
            raise ParseError(f"{path}: {tag} has {len(records[tag])} values, "
                             f"expected {count}")
    return records, layers
