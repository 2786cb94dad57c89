"""Command-line entry point: gen-data, train, quantize, eval, infer.

Exit codes: 0 success, 1 usage/validation error, 2 I/O or data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from fcdsae import dataset, metrics, network, quantized, trainer
from fcdsae.errors import DimensionError, DomainError, FrameError, ParseError
from fcdsae.quantized import QFormat
from fcdsae.sparsity import SparsityConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fcdsae", description=__doc__)
    parser.add_argument("--config", help="JSON file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic sensor CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the classifier on a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epochs", type=int, default=trainer.TrainConfig.max_epochs)
    p.add_argument("--lr", type=float, default=trainer.TrainConfig.lr)
    p.add_argument("--batch", type=int, default=trainer.TrainConfig.batch_size)
    p.add_argument("--xi", type=float, default=SparsityConfig.xi)
    p.add_argument("--psi", type=float, default=SparsityConfig.psi)
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


def _cmd_gen_data(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    m = dataset.synthetic_matrix(args.n, args.seed)
    dataset.write_csv(m, args.out)
    counts = np.bincount(dataset.labels_for_hfr(m[:, -1]), minlength=3)
    print(f"wrote {len(m)} records to {args.out}")
    print("class distribution: " +
          " ".join(f"{c}:{counts[c]} ({counts[c] / len(m):.1%})"
                   for c in range(3)))
    print(_repro_line(args))
    return EXIT_OK


def _load_examples(path) -> dataset.Examples:
    return dataset.Examples.from_matrix(dataset.parse_csv(path))


def _cmd_train(args) -> int:
    cfg = trainer.TrainConfig(
        lr=args.lr, batch_size=args.batch, max_epochs=args.epochs,
        seed=args.seed, sparsity=SparsityConfig(xi=args.xi, psi=args.psi))
    examples = _load_examples(args.data)
    data = dataset.split(examples, seed=args.seed)
    params, std, report = trainer.train(cfg, data)
    network.save_model(params, args.out_model, standardizer=std)
    if args.out_report:
        with open(args.out_report, "w") as fh:
            fh.write(report.format_text())
            fh.write(_repro_line(args) + "\n")
    print(report.final_metrics.format_table())
    print(f"best epoch: {report.best_epoch + 1} of {report.epochs_run}")
    print(f"model written to {args.out_model}")
    print(_repro_line(args))
    return EXIT_OK


def _check_topology(path, n_inputs: int, n_outputs: int) -> None:
    """The loaders read any topology; the commands serve only 10->...->3."""
    if (n_inputs, n_outputs) != (dataset.N_FEATURES, metrics.N_CLASSES):
        raise ParseError(f"{path}: model maps {n_inputs} inputs to "
                         f"{n_outputs} outputs, not 10 to 3")


def _load_model(path):
    params, std = network.load_model(path)
    _check_topology(path, params.topology[0], params.topology[-1])
    return params, std


def _load_qmodel(path):
    qm = quantized.load_qmodel(path)
    _check_topology(path, qm.input_width, len(qm.biases[-1]))
    return qm


def _cmd_quantize(args) -> int:
    fmt = QFormat.parse(args.format)
    params, std = _load_model(args.model)
    qm = quantized.quantize_model(params, std, fmt)
    quantized.save_qmodel(qm, args.out)
    print(f"quantized to {fmt}; saturated values: {qm.saturation_count}")
    print(f"quantized model written to {args.out}")
    print(_repro_line(args))
    return EXIT_OK


def _cmd_eval(args) -> int:
    examples = _load_examples(args.data)
    if args.model:
        params, std = _load_model(args.model)
        preds = trainer.predict_batch(params,
                                      std.transform_matrix(examples.features))
        cm = metrics.confusion(examples.labels, preds)
        print(metrics.metric_block(cm).format_table())
    else:
        qm = _load_qmodel(args.qmodel)
        result = quantized.evaluate_quantized(qm, examples)
        cm = result.confusion
        print(result.metrics.format_table())
        print(f"quantized accuracy: {result.metrics.accuracy:.4f}")
    if args.out_confusion:
        with open(args.out_confusion, "w") as fh:
            fh.write(cm.to_csv())
    print(_repro_line(args))
    return EXIT_OK


def _cmd_infer(args) -> int:
    parts = args.row.split(",")
    if len(parts) != 10:
        raise UsageError(f"--row needs exactly 10 values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"--row contains a non-numeric value: {args.row!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"--row contains a non-finite value: {args.row!r}")
    qm = _load_qmodel(args.qmodel)
    frame = quantized.frame_from_features(values)
    outs, pred = quantized.q_forward(qm, frame)
    print(f"class: {pred}")
    print("output words: " + " ".join(str(w) for w in outs))
    print(_repro_line(args))
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "quantize": _cmd_quantize,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
}


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
        with open(path) as fh:
            conf = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"bad config file {path}: {exc}")
    if not isinstance(conf, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for key, value in conf.items():
        if value is None or isinstance(value, (bool, list, dict)):
            raise UsageError(f"config {path}: {key!r} is not a number or string")
    out = unknown + known.rest
    k = next((j for j, a in enumerate(out) if a in _COMMANDS), len(out)) + 1
    out[k:k] = [a for key, value in conf.items()
                for a in ("--" + str(key).replace("_", "-"), str(value))]
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _apply_config_defaults(argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, DomainError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FrameError, DimensionError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's message names the array's size
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
