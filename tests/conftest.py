"""Shared fixtures: small deterministic graphs and machines."""

import numpy as np
import pytest
from hypothesis import settings

from repro.graph.build import add_random_weights, from_edges
from repro.graph.generators import (
    generate_rmat,
    generate_road,
    generate_social,
    generate_web,
)
from repro.sim.machine import Machine
from repro.sim.device import K40

# Tier-1 gates, it does not fuzz: the same examples on every run, and no
# example database to pin a rare draw into one working copy.  The CI
# ``fuzz`` job runs the property tests under random seeds instead
# (``--hypothesis-profile=fuzz`` wins over the profile loaded here).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def path_graph():
    """0-1-2-...-9 undirected path."""
    edges = [(i, i + 1) for i in range(9)]
    return from_edges(10, edges)


@pytest.fixture(scope="session")
def star_graph():
    """Hub 0 connected to 1..15."""
    return from_edges(16, [(0, i) for i in range(1, 16)])


@pytest.fixture(scope="session")
def two_components_graph():
    """A triangle {0,1,2} and a path 3-4-5, disconnected."""
    return from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])


@pytest.fixture(scope="session")
def small_rmat():
    """~1k-vertex rmat graph, the workhorse correctness graph."""
    return generate_rmat(10, 8, seed=42)


@pytest.fixture(scope="session")
def small_social():
    return generate_social(512, 12, seed=7)


@pytest.fixture(scope="session")
def small_web():
    return generate_web(768, 10, seed=7)


@pytest.fixture(scope="session")
def small_road():
    return generate_road(24, 24, seed=7)


@pytest.fixture(scope="session")
def weighted_rmat(small_rmat):
    return add_random_weights(small_rmat, 1, 64, seed=3)


@pytest.fixture
def machine2():
    return Machine(2, spec=K40, scale=64.0)


@pytest.fixture
def machine4():
    return Machine(4, spec=K40, scale=64.0)


@pytest.fixture(params=[1, 2, 3, 4])
def any_machine(request):
    """Machines with 1-4 GPUs, for correctness sweeps."""
    return Machine(request.param, spec=K40, scale=64.0)
