"""Fixtures shared by the test modules."""

import pytest

from flipiet.search import rauzy_graph_build


@pytest.fixture(scope="session")
def rauzy_graph():
    """rauzy_graph(n, require_flips=True): the Rauzy graph, built once per
    test session for each (n, require_flips).  Tests only read it."""
    graphs = {}

    def graph(n, require_flips=True):
        if (n, require_flips) not in graphs:
            graphs[n, require_flips] = rauzy_graph_build(n, require_flips)
        return graphs[n, require_flips]

    return graph
