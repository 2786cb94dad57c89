"""Portable golden vectors: the committed seed-42 model files in
tests/golden and the frame dumps they give must match the benchmark's
frozen digests on any machine.

Nothing here trains. Generating, labeling, splitting and quantizing the
features use no BLAS, and the engine's limb sums are exact in any order,
so these bytes hold whatever kernel numpy runs on. tests/golden/
make_golden.py rebuilds the model files."""

import ast
import hashlib
import random
from pathlib import Path

import pytest

from fcdsae import dataset
from fcdsae.quantized import INPUT_FORMAT, dump_frames, load_qmodel, quantize

from oracles import scalar_q_forward

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).parent.parent / "bench" / "workloads.py"
SEED, N = 42, 36363


def frozen_digests() -> dict:
    """EXPECTED_42 from the benchmark's source, read without importing it."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "EXPECTED_42" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no EXPECTED_42 in {WORKLOADS}")


EXPECTED = frozen_digests()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def test_frames():
    """The seed-42 test partition as Q18.14 input words, one row a frame."""
    examples = dataset.Examples.from_matrix(dataset.synthetic_matrix(N, SEED))
    return quantize(dataset.split(examples, seed=SEED).test.features,
                    INPUT_FORMAT)


@pytest.mark.parametrize("fmt", ["Q8.8", "Q2.30"])
def test_model_file_is_the_frozen_one(fmt):
    path = GOLDEN / f"model-{fmt}.qtxt"
    assert sha256(path.read_bytes()) == EXPECTED[f"model-{fmt}.qtxt"]


@pytest.mark.parametrize("fmt", ["Q8.8", "Q2.30", "Q3.5"])
def test_frame_dump_is_the_frozen_one(fmt, test_frames):
    """The dump of every test frame has the frozen digest, and a sample of
    its lines is what the scalar interpreter computes."""
    qm = load_qmodel(GOLDEN / f"model-{fmt}.qtxt")
    assert len(test_frames) == 9091
    dump = dump_frames(qm, test_frames)
    assert sha256(dump.encode()) == EXPECTED[f"{fmt} frames"]
    lines = dump.splitlines()
    for i in random.Random(SEED).sample(range(len(lines)), 20):
        frame = test_frames[i].tolist()
        words, _ = scalar_q_forward(qm, frame)
        assert lines[i] == " ".join(map(str, frame + words))
