"""Graph serialization: lossless JSON and pickle round-trips, versioning,
files."""

import gc
import json
import pickle
from dataclasses import fields

import pytest

from repro.errors import GraphError
from repro.graph import (
    Node,
    Sweep,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.models import build_model
from repro.models.registry import MODEL_BUILDERS
from repro.passes import apply_scenario
from repro.passes.scenarios import SCENARIO_ORDER
from repro.sweep.cache import GraphCache
from repro.tensors import TensorSpec
from tests.consumer_index import GRAPH_KEYS

NODE_FIELDS = tuple(f.name for f in fields(Node))


def assert_graphs_equal(a, b):
    """Every spec (in order) and every field of every node (in order)."""
    assert a.name == b.name
    assert list(a.tensors.items()) == list(b.tensors.items())
    assert [n.name for n in a.nodes] == [n.name for n in b.nodes]
    for na, nb in zip(a.nodes, b.nodes):
        for name in NODE_FIELDS:
            assert getattr(na, name) == getattr(nb, name), (na.name, name)


class TestRoundTrip:
    @pytest.mark.parametrize("model", ["tiny_cnn", "tiny_densenet", "tiny_resnet"])
    def test_baseline_roundtrip(self, model):
        g = build_model(model, batch=4)
        assert_graphs_equal(g, graph_from_dict(graph_to_dict(g)))

    @pytest.mark.parametrize("scenario", ["rcf", "bnff", "bnff_icf"])
    def test_restructured_roundtrip(self, scenario):
        g, _ = apply_scenario(build_model("tiny_densenet", batch=4), scenario)
        assert_graphs_equal(g, graph_from_dict(graph_to_dict(g)))

    def test_json_serializable(self):
        g = build_model("tiny_cnn", batch=4)
        text = json.dumps(graph_to_dict(g))
        assert_graphs_equal(g, graph_from_dict(json.loads(text)))

    def test_file_roundtrip(self, tmp_path):
        g, _ = apply_scenario(build_model("tiny_cnn", batch=4), "bnff")
        path = tmp_path / "graph.json"
        save_graph(g, str(path))
        assert_graphs_equal(g, load_graph(str(path)))

    def test_loaded_graph_simulates_identically(self):
        from repro.hw import SKYLAKE_2S
        from repro.perf import simulate

        g = build_model("densenet121", batch=16)
        g2 = graph_from_dict(graph_to_dict(g))
        assert (simulate(g, SKYLAKE_2S).total_time_s
                == simulate(g2, SKYLAKE_2S).total_time_s)

    def test_loaded_graph_executes_identically(self):
        import numpy as np

        from repro.train import GraphExecutor, synthetic_batch

        g, _ = apply_scenario(build_model("tiny_cnn", batch=4), "bnff")
        g2 = graph_from_dict(graph_to_dict(g))
        x, y = synthetic_batch(4, (3, 16, 16), 10, seed=0)
        l1 = GraphExecutor(g, seed=1).forward(x, y)
        l2 = GraphExecutor(g2, seed=1).forward(x, y)
        assert l1 == l2


class TestVersioning:
    def test_unknown_schema_rejected(self):
        g = build_model("tiny_cnn", batch=4)
        data = graph_to_dict(g)
        data["schema"] = 99
        with pytest.raises(GraphError):
            graph_from_dict(data)

    def test_invalid_graph_rejected_on_load(self):
        g = build_model("tiny_cnn", batch=4)
        data = graph_to_dict(g)
        # Corrupt: node referencing a missing tensor.
        data["nodes"][1]["inputs"] = ["missing_tensor"]
        with pytest.raises(GraphError):
            graph_from_dict(data)


def pickled(graph):
    return pickle.loads(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))


class TestPickle:
    """The disk tier's graph payload: ``LayerGraph.__reduce__`` columns."""

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_round_trip_keeps_every_field(self, model):
        cache = GraphCache()
        for precision in ("fp32", "fp16", "bf16"):
            for scenario in SCENARIO_ORDER:
                g = cache.scenario_graph(model, 2, scenario, precision)
                loaded = pickled(g)
                assert_graphs_equal(g, loaded)
                assert loaded._producer == g._producer
                assert loaded._node_index.keys() == g._node_index.keys()
                assert all(loaded._node_index[n.name] is n
                           for n in loaded.nodes)
                assert set(vars(loaded)) == GRAPH_KEYS

    def test_payload_fields_are_the_dataclass_fields(self):
        """A field added to a class later is written, not silently
        dropped from the disk tier."""
        g = build_model("tiny_cnn", batch=2)
        _, (_, spec_fields, _, node_fields, _, sweep_fields, _) = \
            g.__reduce__()
        assert spec_fields == tuple(f.name for f in fields(TensorSpec))
        assert node_fields == NODE_FIELDS
        assert sweep_fields == tuple(f.name for f in fields(Sweep))

    def test_payload_for_other_fields_does_not_load(self):
        g = build_model("tiny_cnn", batch=2)
        restore, args = g.__reduce__()
        args = list(args)
        args[5] = args[5][:-1]  # a sweep table written without ``note``
        with pytest.raises(pickle.UnpicklingError):
            restore(*args)

    def test_first_pickle_leaves_no_objects_behind(self):
        """Pickling reads fields without materializing a ``__dict__`` on
        any node, sweep or spec of the (cached) graph."""
        warm_up, _ = apply_scenario(build_model("tiny_densenet", batch=2),
                                    "bnff_icf")
        pickle.dumps(warm_up, protocol=pickle.HIGHEST_PROTOCOL)  # first use
        g, _ = apply_scenario(build_model("densenet121", batch=2),
                              "bnff_icf")
        gc.collect()
        gc.collect()  # and whatever the first pass's finalizers left
        before = len(gc.get_objects())
        pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL)
        gc.collect()
        assert len(gc.get_objects()) == before
