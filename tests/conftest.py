import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, so they cannot flake,
# and a fixed budget keeps the suite's run time steady.  MORSEPEAK_HYPOTHESIS
# picks the profile: "tier1" (the default) or "thorough", ten times the
# examples, for a longer run of chosen tests.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.register_profile("thorough", derandomize=True, deadline=None,
                          max_examples=1000, database=None)
settings.load_profile(os.environ.get("MORSEPEAK_HYPOTHESIS", "tier1"))

from morsepeak import MorseSet, extract_critical_points

E1_SAMPLES = [(0, 0), (1, 3), (2, 1), (3, 5), (4, 0.5), (5, 2), (6, 0)]


@pytest.fixture
def e1() -> MorseSet:
    return extract_critical_points(E1_SAMPLES)[0]


@pytest.fixture
def lone_peak() -> MorseSet:
    return MorseSet.build([(1, 4)], [(0, 0), (2, 0)])


@pytest.fixture
def mirrored_pair() -> tuple[MorseSet, MorseSet]:
    f = MorseSet.build([(1, 5), (3, 3)], [(0, 0), (2, 1), (4, 0)])
    g = MorseSet.build([(3, 5), (1, 3)], [(0, 0), (2, 1), (4, 0)])
    return f, g


@pytest.fixture(params=[ValueError("Maximum allowed dimension exceeded"),
                        MemoryError("Unable to allocate 1.46 TiB for an array")],
                ids=["dimension", "memory"])
def failing_draws(request, monkeypatch):
    """Every uniform draw of ``np.random.default_rng`` raises what numpy
    raises when 2k + 1 points pass its largest dimension or the memory, so a
    huge peak count fails as it would, without allocating anything."""
    real = np.random.default_rng

    class Generator:
        def __init__(self, seed):
            self.integers = real(seed).integers

        def uniform(self, *args):
            raise request.param

    monkeypatch.setattr(np.random, "default_rng", Generator)
