"""Rebuild the golden model files in this directory: the seed-42 reference
model, trained the way the benchmark trains it (synthetic_matrix,
Examples.from_matrix, split, train), quantized at Q8.8, Q2.30 and Q3.5.

    PYTHONPATH=src python tests/golden/make_golden.py

The float model's bytes depend on the BLAS kernel, but its quantized words
came out the same under every OpenBLAS kernel measured (ROADMAP), so these
files are the portable half of the golden model."""

from pathlib import Path

from fcdsae import dataset, quantized, trainer
from fcdsae.quantized import QFormat

SEED, N = 42, 36363
FORMATS = ("Q8.8", "Q2.30", "Q3.5")


def main():
    examples = dataset.Examples.from_matrix(dataset.synthetic_matrix(N, SEED))
    data = dataset.split(examples, seed=SEED)
    params, std, _ = trainer.train(trainer.TrainConfig(seed=SEED), data)
    for fmt in FORMATS:
        qm = quantized.quantize_model(params, std, QFormat.parse(fmt))
        path = Path(__file__).parent / f"model-{fmt}.qtxt"
        quantized.save_qmodel(qm, path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
