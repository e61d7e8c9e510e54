"""Checks of LayerGraph's consumer index, shared by the graph tests.

``LayerGraph.consumers_of`` builds a tensor -> consumers index on its
first call; ``add_node``, ``remove_node`` and ``replace_input`` keep it
current while ``GraphBuilder._insert_splits`` and the passes edit the
graph, and ``validate`` drops it. :func:`checked_at_validate` checks the
index as the edit left it, just before ``validate`` drops it: at the end
of ``finalize`` and of every pass.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.graph import LayerGraph

#: The instance attributes of every graph outside an edit.
GRAPH_KEYS = frozenset({"name", "nodes", "tensors", "_producer", "_node_index"})


def scanned_consumers(graph: LayerGraph) -> dict:
    """``[n for n in graph.nodes if t in n.inputs]`` for every tensor ``t``,
    gathered in one walk of the node list."""
    out = {t: [] for t in graph.tensors}
    for node in graph.nodes:
        for t in set(node.inputs):
            out[t].append(node)
    return out


def assert_index_matches_scan(graph: LayerGraph) -> int:
    """Assert ``consumers_of`` and ``index_of`` against a scan of the node
    list, for every tensor and node; returns the number of tensors checked.

    Lists of nodes compare element by element, and nodes compare by
    identity, so equal lists hold the same node objects in the same order.
    """
    expected = scanned_consumers(graph)
    for t, consumers in expected.items():
        assert graph.consumers_of(t) == consumers, t
    for i, node in enumerate(graph.nodes):
        assert graph.index_of(node.name) == i, node.name
    return len(expected)


@contextlib.contextmanager
def checked_at_validate():
    """Run :func:`assert_index_matches_scan` at the start of every
    ``LayerGraph.validate`` call; yields the list of tensor counts checked,
    one entry per call."""
    checked = []
    validate = LayerGraph.validate

    def checking_validate(graph):
        checked.append(assert_index_matches_scan(graph))
        validate(graph)

    with mock.patch.object(LayerGraph, "validate", checking_validate):
        yield checked
