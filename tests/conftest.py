"""Shared fixtures: the five-agent benchmark formation in the plane.

Three leaders sit at (1,0), (0,1), (0,-1); two followers complete the
reference at (-1,0) and (-2,0). EXACT_WEIGHTS is an equilibrium stress for
this framework with zero residual up to roundoff; ROUNDED_STRESS is the
same matrix with entries rounded to three decimals, kept to exercise how
the checks respond to transcribed data.
"""

import json
import os

import numpy as np
import pytest

from affinesim import (
    Configuration,
    Framework,
    Graph,
    LeaderPartition,
    ScenarioSpec,
    StressMatrix,
    assemble_stress,
    partition_stress,
)

REFERENCE_POSITIONS = [(1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (-2.0, 0.0)]
EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
LEADERS = (1, 2, 3)
FOLLOWER_START = [(-4.0, 3.0), (-3.0, -2.0)]
FOLLOWER_TARGETS = [(-1.0, 0.0), (-2.0, 0.0)]

EXACT_WEIGHTS = {
    (1, 2): 0.292,
    (1, 3): 0.292,
    (1, 4): -0.292,
    (2, 3): -0.3545,
    (2, 4): 0.542,
    (2, 5): -0.125,
    (3, 4): 0.542,
    (3, 5): -0.125,
    (4, 5): 0.5,
}

# Entrywise 3-decimal rounding of the exact stress matrix.
ROUNDED_STRESS = np.array(
    [
        [0.292, -0.292, -0.292, 0.292, 0.0],
        [-0.292, 0.354, 0.354, -0.542, 0.125],
        [-0.292, 0.354, 0.354, -0.542, 0.125],
        [0.292, -0.542, -0.542, 1.292, -0.5],
        [0.0, 0.125, 0.125, -0.5, 0.25],
    ]
)

# Frozen spectrum of the negated follower block, from the characteristic
# polynomial of [[1.292, -0.5], [-0.5, 0.25]].
MU_MIN = -1.4931087175765156
MU_MAX = -0.048891282423484395


@pytest.fixture
def reference():
    return Configuration(REFERENCE_POSITIONS)


@pytest.fixture
def graph():
    return Graph(5, EDGES)


@pytest.fixture
def framework(graph, reference):
    return Framework(graph, reference)


@pytest.fixture
def partition():
    return LeaderPartition.from_leaders(LEADERS, 5)


@pytest.fixture
def exact_stress(graph):
    return assemble_stress(graph, EXACT_WEIGHTS)


@pytest.fixture
def rounded_stress():
    return StressMatrix(ROUNDED_STRESS)


@pytest.fixture
def blocks(exact_stress, partition):
    return partition_stress(exact_stress, partition)


@pytest.fixture
def benchmark_scenario(framework, partition):
    return ScenarioSpec(
        framework=framework,
        partition=partition,
        law="stationary",
        T=1.0,
        initial_followers=FOLLOWER_START,
        weights=EXACT_WEIGHTS,
        budget=2000,
        tolerance=1e-9,
    )


def write_stress(stress, path):
    """Write a stress matrix file, the format fileio.load_stress reads."""
    path.write_text(json.dumps({"n": stress.n, "entries": stress.entries.tolist()}))


def write_benchmark_files(directory):
    """Write framework/weights/scenario JSON files for CLI tests."""
    framework_data = {
        "d": 2,
        "positions": [list(p) for p in REFERENCE_POSITIONS],
        "edges": [list(e) for e in EDGES],
        "leaders": list(LEADERS),
    }
    with open(directory / "framework.json", "w") as fh:
        json.dump(framework_data, fh)
    with open(directory / "weights.json", "w") as fh:
        json.dump({"edges": [[i, j, w] for (i, j), w in sorted(EXACT_WEIGHTS.items())]}, fh)
    scenario = {
        "framework": "framework.json",
        "law": "stationary",
        "T": 1.0,
        "initial_followers": [list(p) for p in FOLLOWER_START],
        "weights": "weights.json",
        "budget": 2000,
        "tolerance": 1e-9,
    }
    with open(directory / "scenario.json", "w") as fh:
        json.dump(scenario, fh)
    return directory / "scenario.json"


def count_forks(monkeypatch, fail_at=None):
    """The os.fork calls of this process, by pid; the call numbered fail_at
    raises OSError instead of forking."""
    started = []
    fork = os.fork

    def counted():
        started.append(os.getpid())
        if len(started) == fail_at:
            raise OSError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return started


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
