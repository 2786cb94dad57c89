"""Command-line entry point: gen-data, train, quantize, eval, infer.

Exit codes: 0 success, 1 usage/validation error, 2 I/O or data error.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from fcdsae import (DomainError, ParseError, dataset, metrics, network,
                    quantized, trainer)
from fcdsae.trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise DomainError(message)


def integer(text: str) -> int:
    """The type of the integer flags: a plain ASCII integer, as the data
    files take numbers, so `1_0` and `\u0663` are usage errors."""
    return int(dataset.plain(text))


def seed(text: str) -> int:
    """The type of --seed: numpy seeds its generators with integers >= 0."""
    if (value := integer(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="fcdsae", description=__doc__)
    parser.add_argument("--config", help="JSON file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic sensor CSV")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--seed", type=seed, default=42)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the classifier on a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=seed, default=42)
    p.add_argument("--epochs", type=integer, default=TrainConfig.max_epochs)
    p.add_argument("--lr", type=dataset.number, default=TrainConfig.lr)
    p.add_argument("--batch", type=integer, default=TrainConfig.batch_size)
    p.add_argument("--xi", type=dataset.number, default=TrainConfig.xi)
    p.add_argument("--psi", type=dataset.number, default=TrainConfig.psi)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-report")

    p = sub.add_parser("quantize", help="quantize a trained model file")
    p.add_argument("--model", required=True)
    p.add_argument("--format", default="Q8.8", help="compute format, e.g. Q8.8")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a float or quantized model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model")
    group.add_argument("--qmodel")
    p.add_argument("--data", required=True)
    p.add_argument("--out-confusion", help="write the confusion matrix CSV here")

    p = sub.add_parser("infer", help="single-frame fixed-point prediction")
    p.add_argument("--qmodel", required=True)
    p.add_argument("--row", required=True,
                   help="comma-separated 10 raw feature values")
    return parser


def _repro_line(args) -> str:
    keys = sorted(k for k in vars(args) if k not in ("command", "config"))
    params = " ".join(f"{k}={getattr(args, k)}" for k in keys)
    return f"# reproducibility: command={args.command} {params}"


def _cmd_gen_data(args) -> None:
    m = dataset.synthetic_matrix(args.n, args.seed)
    dataset.write_csv(m, args.out)
    counts = np.bincount(dataset.labels_for_hfr(m[:, -1]),
                         minlength=metrics.N_CLASSES)
    print(f"wrote {len(m)} records to {args.out}")
    print("class distribution: " +
          " ".join(f"{c}:{counts[c]} ({counts[c] / len(m):.1%})"
                   for c in range(metrics.N_CLASSES)))


@contextmanager
def _data_errors(path):
    """A DomainError inside, a value the data cannot take (an HFR, the split,
    the standardizer, an output), is a data error naming `path`."""
    try:
        yield
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _cmd_train(args) -> None:
    cfg = TrainConfig(lr=args.lr, batch_size=args.batch, max_epochs=args.epochs,
                      seed=args.seed, xi=args.xi, psi=args.psi)
    with _data_errors(args.data):
        examples = dataset.Examples.from_matrix(dataset.parse_csv(args.data))
        params, std, report = trainer.train(cfg, dataset.split(examples, args.seed))
    outputs = [(args.out_model, [network.model_bytes(params, std)])]
    if args.out_report is not None:
        text = report.format_text() + _repro_line(args) + "\n"
        outputs.append((args.out_report, [text.encode()]))
    dataset.write_files(outputs)  # a train that fails leaves no model behind
    print(report.final_metrics.format_table())
    print(f"best epoch: {report.best_epoch + 1} of {report.config.max_epochs}")
    print(f"model written to {args.out_model}")


def _cmd_quantize(args) -> None:
    fmt = quantized.QFormat.parse(args.format)
    params, std = network.load_model(args.model)
    qm = quantized.quantize_model(params, std, fmt)
    quantized.save_qmodel(qm, args.out)
    print(f"quantized to {fmt}; saturated values: {qm.saturation_count}")
    print(f"quantized model written to {args.out}")


def _cmd_eval(args) -> None:
    with _data_errors(args.data):
        examples = dataset.Examples.from_matrix(dataset.parse_csv(args.data))
    if args.model is not None:
        params, std = network.load_model(args.model)
        with _data_errors(f"{args.model} on {args.data}"):
            preds = trainer.predict_batch(params,
                                          std.transform_matrix(examples.features))
        cm = metrics.confusion(examples.labels, preds)
        block = metrics.metric_block(cm)
    else:
        qm = quantized.load_qmodel(args.qmodel)
        result = quantized.evaluate_quantized(qm, examples)
        cm, block = result.confusion, result.metrics
    if args.out_confusion is not None:  # first, so a failed write prints no result
        dataset.write_files([(args.out_confusion,
                              [metrics.confusion_csv(cm).encode()])])
    print(block.format_table())
    if args.qmodel is not None:
        print(f"quantized accuracy: {block.accuracy:.4f}")


def _cmd_infer(args) -> None:
    parts = args.row.split(",")
    if len(parts) != dataset.N_FEATURES:
        raise DomainError(f"--row needs exactly {dataset.N_FEATURES} values, "
                          f"got {len(parts)}")
    try:
        values = [dataset.number(p) for p in parts]
    except ValueError:
        raise DomainError(f"--row contains a value that is not a finite "
                          f"number: {args.row!r}")
    qm = quantized.load_qmodel(args.qmodel)
    outs, pred = quantized.q_forward(qm, quantized.frame_from_features(values))
    print(f"class: {pred}")
    print("output words: " + " ".join(str(w) for w in outs))


def _check_paths(args) -> None:
    """A usage error if an output flag names an input or another output:
    one existing file (a hard link too), or one path once links resolve."""
    flags = [f for f in ("out", "out_model", "out_report", "out_confusion",
                         "data", "model", "qmodel", "config")
             if getattr(args, f, None)]
    for f in flags:  # before realpath and open, whose error names no path
        try:
            os.fsencode(path := getattr(args, f))
        except UnicodeEncodeError as exc:
            raise ParseError(f"--{f.replace('_', '-')}: cannot encode {path!a} "
                             f"in the file system's encoding ({exc.encoding})")
    for f, g in combinations(flags, 2):  # outputs first: if either is one, f is
        a, b = getattr(args, f), getattr(args, g)
        if f.startswith("out") and (
                os.path.samefile(a, b) if os.path.exists(a) and os.path.exists(b)
                else os.path.realpath(a) == os.path.realpath(b)):
            raise DomainError(f"--{f} and --{g} name the same file".replace("_", "-"))


_COMMANDS = {"gen-data": _cmd_gen_data, "train": _cmd_train,
             "quantize": _cmd_quantize, "eval": _cmd_eval, "infer": _cmd_infer}


def _apply_config_defaults(argv: list[str]) -> list[str]:
    """--config FILE supplies values for flags not given explicitly: they go
    right after the subcommand, and argparse keeps a flag's last value, so
    an explicit flag wins in any spelling. argparse finds --config itself,
    so `--config=FILE` and abbreviations such as `--conf FILE` apply too."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, unknown = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    path = known.config
    try:
        with open(path, encoding="utf-8") as fh:
            conf = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}")
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, too deep
        raise DomainError(f"bad config file {path}: {exc}")
    if not isinstance(conf, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    for key, value in conf.items():  # no flag or path can hold a NUL byte
        if (value is None or isinstance(value, (bool, list, dict))
                or "\0" in f"{key}{value}"):
            raise DomainError(f"config {path}: {key!r} is not a number or NUL-free string")
    out = [f"--config={path}"] + unknown + known.rest  # kept for _check_paths
    k = next((j for j, a in enumerate(out) if a in _COMMANDS), len(out)) + 1
    # one `--key=value` word, so a value may start with `-`
    out[k:k] = [f"--{str(key).replace('_', '-')}={value}"
                for key, value in conf.items()]
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_apply_config_defaults(argv))
        _check_paths(args)
        _COMMANDS[args.command](args)
        print(_repro_line(args))
        return EXIT_OK
    except (DomainError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's message names the array's size
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
