import numpy as np
import pytest


@pytest.fixture
def rng():
    from riimpute import RngStream

    return RngStream(20260808, 0)


def make_incomplete(target, covariates, missing_idx):
    """Set the given target indices to NaN and wrap in an IncompleteDataset."""
    from riimpute import IncompleteDataset

    target = np.asarray(target, dtype=float).copy()
    target[np.asarray(missing_idx)] = np.nan
    return IncompleteDataset(target, covariates)
