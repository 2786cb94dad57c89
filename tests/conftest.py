import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples, and keeps no example database: a
# failure, or a branch a draw reaches, repeats on the next run
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

from fcdsae import dataset, trainer

REFERENCE_N = 36363
REFERENCE_SEED = 42


def _split_synthetic(n, seed):
    """The 3:1 split at `seed` of `synthetic_matrix(n, seed)`, built with
    the array API the commands use."""
    examples = dataset.Examples.from_matrix(dataset.synthetic_matrix(n, seed))
    return dataset.split(examples, seed=seed)


@pytest.fixture(scope="session")
def reference_data():
    return _split_synthetic(REFERENCE_N, REFERENCE_SEED)


@pytest.fixture(scope="session")
def reference_run(reference_data):
    """Frozen reference training run: defaults, seed 42, psi=1e-3."""
    cfg = trainer.TrainConfig(seed=REFERENCE_SEED)
    return trainer.train(cfg, reference_data)


@pytest.fixture(scope="session")
def reference_run_no_sparsity(reference_data):
    cfg = trainer.TrainConfig(seed=REFERENCE_SEED, psi=0.0)
    return trainer.train(cfg, reference_data)


@pytest.fixture(scope="session")
def small_data():
    """Quick 600-record dataset for trainer unit tests."""
    return _split_synthetic(600, 7)
