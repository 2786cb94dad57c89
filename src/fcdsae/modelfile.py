"""The plain-text grammar of both model files: a magic line, tagged header
records (`TAG v1 v2 ...`), then for each layer of the reader's topology
`LAYER <fan_in> <fan_out>`, fan_out weight rows, `BIAS` and the bias row,
then the end of the file. Blank lines are ignored. Callers pass the value
formatter or parser and check the meaning of what they read."""

import re

from fcdsae import ParseError
from fcdsae.dataset import decode, plain


def encode(magic: str, records, layers, fmt) -> bytes:
    """The file of `records` ((tag, values) pairs, in order) and `layers`
    ((weight rows, biases) pairs), each value rendered by `fmt`."""
    lines = [magic]
    lines += [" ".join([tag, *map(fmt, values)]) for tag, values in records]
    for rows, biases in layers:
        lines.append(f"LAYER {len(rows[0])} {len(rows)}")
        lines += [" ".join(map(fmt, row)) for row in rows]
        lines += ["BIAS", " ".join(map(fmt, biases))]
    return "\n".join(lines).encode() + b"\n"


def read(path, magic: str, tags, topology, parse):
    """Returns ({tag: values}, [(weight rows, biases)]). `tags` maps each
    header record, required exactly once, to its value count; `topology`
    gives the layer sizes; `parse` turns a word into a value or raises
    ValueError. Words are split on space and tab and are printable ASCII
    without `_`, as C reads them. Grammar faults, then missing records,
    then record widths raise ParseError."""
    with open(path, "rb") as fh:  # lines end as in text mode: \r\n, \r or \n
        text = decode(path, fh.read())
    lines = [(n, words) for n, ln in enumerate(re.split(r"\r\n?|\n", text), 1)
             if (words := re.findall(r"[^ \t]+", ln))]
    if not lines or lines[0][1] != magic.split():
        raise ParseError(f"{path}: missing '{magic}' header")

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

    body = lines[1:]
    end = next((i for i, (_, w) in enumerate(body) if w[0] == "LAYER"), len(body))
    records, layers, pending = {}, [], iter(body[end:])
    for n, (tag, *words) in body[:end]:
        if tag not in tags or tag in records:
            fail(n, f"unknown or duplicate record {tag!r}")
        records[tag] = values(n, words)
    for fan_in, fan_out in zip(topology, topology[1:]):
        head = f"LAYER {fan_in} {fan_out}"
        n, words = next_line(repr(head))
        if words != head.split():
            fail(n, f"expected {head!r}, read {' '.join(words)!r}")
        rows = [values(*next_line(f"{fan_in} weights"), fan_in)
                for _ in range(fan_out)]
        n, words = next_line("BIAS")
        if words != ["BIAS"]:
            fail(n, "expected BIAS line")
        layers.append((rows, values(*next_line(f"{fan_out} biases"), fan_out)))
    for n, words in pending:  # the first line left over is the fault
        fail(n, f"expected the end of the file after the last layer "
                f"({head!r}), read {' '.join(words)!r}")
    missing = [tag for tag in tags if tag not in records]
    if missing:
        raise ParseError(f"{path}: missing records {missing}")
    for tag, count in tags.items():
        if len(records[tag]) != count:
            raise ParseError(f"{path}: {tag} has {len(records[tag])} values, "
                             f"expected {count}")
    return records, layers
