"""LayerGraph: an ordered, validated DAG of nodes over named tensors."""

from __future__ import annotations

import pickle
from bisect import insort
from collections import deque
from dataclasses import fields
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Collection, Dict, Iterable, List, Optional, Sequence

from repro.errors import GraphError
from repro.graph.node import Node, OpKind
from repro.graph.sweeps import Sweep
from repro.tensors.tensor_spec import TensorSpec

#: The fields a pickled graph writes one column for, per class, in
#: declaration order (see :meth:`LayerGraph.__reduce__`).
_SPEC_FIELDS = tuple(f.name for f in fields(TensorSpec))
_NODE_FIELDS = tuple(f.name for f in fields(Node))
_SWEEP_FIELDS = tuple(f.name for f in fields(Sweep))
#: Positions of the two ledger columns among :data:`_NODE_FIELDS`.
_LEDGERS = (_NODE_FIELDS.index("fwd_sweeps"),
            _NODE_FIELDS.index("bwd_sweeps"))


class LayerGraph:
    """Ordered DAG of :class:`~repro.graph.node.Node` over named tensors.

    Nodes are stored in topological (execution) order — the forward schedule
    is the node list, the backward schedule its reverse, exactly how the
    sequential frameworks the paper instruments execute. Restructuring
    passes mutate nodes/edges in place but must keep the order topological;
    :meth:`validate` checks the invariants and is called by every pass and
    test.

    Consumers are indexed only while a graph is being edited. The first
    :meth:`consumers_of` call builds a tensor -> consumers index;
    :meth:`add_node`, :meth:`remove_node` and :meth:`replace_input` keep
    it current, and :meth:`validate` (the end of ``finalize`` and of
    every pass) drops it, so no validated, cloned, cached or pickled
    graph carries it. Passes therefore rewire an edge only through
    :meth:`replace_input` and never assign ``node.inputs``: an assignment
    while the index is live would leave it stale.
    """

    #: tensor -> its consumer nodes, in node order; ``None`` when not
    #: built. Set on the instance by :meth:`consumers_of`, deleted by
    #: :meth:`validate`.
    _consumers: Optional[Dict[str, List[Node]]] = None

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: List[Node] = []
        self.tensors: Dict[str, TensorSpec] = {}
        self._producer: Dict[str, str] = {}  # tensor -> node name
        self._node_index: Dict[str, Node] = {}

    # -- construction --------------------------------------------------------
    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        if spec.name in self.tensors:
            raise GraphError(f"duplicate tensor {spec.name!r}")
        self.tensors[spec.name] = spec
        return spec

    def add_node(self, node: Node, position: Optional[int] = None) -> Node:
        """Append (or insert) a node; inputs must already have producers
        unless they are graph inputs (DATA outputs or WEIGHT tensors)."""
        if node.name in self._node_index:
            raise GraphError(f"duplicate node {node.name!r}")
        for t in node.inputs:
            if t not in self.tensors:
                raise GraphError(f"{node.name}: unknown input tensor {t!r}")
        for t in node.outputs:
            if t not in self.tensors:
                raise GraphError(f"{node.name}: unknown output tensor {t!r}")
            if t in self._producer:
                raise GraphError(
                    f"{node.name}: tensor {t!r} already produced by "
                    f"{self._producer[t]!r}"
                )
            self._producer[t] = node.name
        if position is None:
            self.nodes.append(node)
        else:
            self.nodes.insert(position, node)
        self._node_index[node.name] = node
        if self._consumers is not None:
            for t in dict.fromkeys(node.inputs):
                self._index_consumer(t, node)
        return node

    def remove_node(self, name: str) -> Node:
        """Remove a node; its outputs lose their producer (caller rewires)."""
        node = self.node(name)
        self.nodes.remove(node)
        del self._node_index[name]
        for t in node.outputs:
            self._producer.pop(t, None)
        if self._consumers is not None:
            for t in dict.fromkeys(node.inputs):
                self._consumers[t].remove(node)
        return node

    def replace_input(self, node: Node, old: str, new: str) -> None:
        """Rewire every *old* input of *node* to *new*.

        The one way a pass changes an edge: it keeps the consumer index
        current, where assigning ``node.inputs`` would not.
        """
        if old not in node.inputs:
            raise GraphError(f"{node.name}: {old!r} is not an input")
        self.tensor(new)  # raises on an unknown tensor
        node.inputs = [new if t == old else t for t in node.inputs]
        if self._consumers is not None:
            self._consumers[old].remove(node)
            if node not in self._consumers.get(new, ()):
                self._index_consumer(new, node)

    def _index_consumer(self, tensor: str, node: Node) -> None:
        """Enter *node* among *tensor*'s indexed consumers, in node order."""
        consumers = self._consumers.setdefault(tensor, [])
        if consumers:
            insort(consumers, node, key=self.nodes.index)
        else:
            consumers.append(node)

    # -- queries -------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self._node_index[name]
        except KeyError:
            raise GraphError(f"no node named {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._node_index

    def tensor(self, name: str) -> TensorSpec:
        try:
            return self.tensors[name]
        except KeyError:
            raise GraphError(f"no tensor named {name!r}") from None

    def producer_of(self, tensor: str) -> Optional[Node]:
        name = self._producer.get(tensor)
        return self._node_index[name] if name else None

    def consumers_of(self, tensor: str) -> List[Node]:
        """The nodes reading *tensor* (ghosts included), in node order.

        The first call builds the consumer index that later calls read,
        until :meth:`validate` drops it.
        """
        if self._consumers is None:
            self._consumers = {}
            for node in self.nodes:
                for t in dict.fromkeys(node.inputs):
                    self._consumers.setdefault(t, []).append(node)
        return list(self._consumers.get(tensor, ()))

    def index_of(self, name: str) -> int:
        return self.nodes.index(self.node(name))

    def nodes_of_kind(self, *kinds: OpKind) -> List[Node]:
        wanted = set(kinds)
        return [n for n in self.nodes if n.kind in wanted]

    def feature_tensors(self) -> Iterable[TensorSpec]:
        from repro.tensors.tensor_spec import TensorKind

        return (t for t in self.tensors.values() if t.kind == TensorKind.FEATURE)

    # -- invariants ------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError` on failure.

        * every node input is produced by an earlier node, or is a weight /
          parameter tensor with no producer;
        * every sweep in every ledger references a known tensor;
        * node order is topological.

        It also ends the edit: it first drops the consumer index, if
        :meth:`consumers_of` built one, so a graph leaving ``finalize`` or
        a pass carries exactly the attributes it was built with.
        """
        from repro.tensors.tensor_spec import TensorKind

        if self._consumers is not None:
            del self._consumers
        seen: set = set()
        for node in self.nodes:
            for t in node.inputs:
                spec = self.tensor(t)
                producer = self._producer.get(t)
                if producer is None:
                    if spec.kind == TensorKind.FEATURE:
                        raise GraphError(
                            f"{node.name}: feature input {t!r} has no producer"
                        )
                elif t not in seen:
                    raise GraphError(
                        f"{node.name}: input {t!r} produced by {producer!r} "
                        f"which has not executed yet (order not topological)"
                    )
            for t in node.outputs:
                seen.add(t)
            for sweep in list(node.fwd_sweeps) + list(node.bwd_sweeps):
                if sweep.tensor not in self.tensors:
                    raise GraphError(
                        f"{node.name}: sweep references unknown tensor "
                        f"{sweep.tensor!r}"
                    )

    # -- summaries ---------------------------------------------------------------
    def sweep_count(self) -> int:
        return sum(len(n.fwd_sweeps) + len(n.bwd_sweeps) for n in self.nodes)

    def clone(self) -> "LayerGraph":
        """Deep-enough copy: nodes, ledgers and attribute lists are fresh,
        specs shared (immutable). Attribute values are scalars and lists
        of names, so copying each list copies everything mutable."""
        g = LayerGraph(self.name)
        g.tensors = dict(self.tensors)
        g._producer = dict(self._producer)
        for node in self.nodes:
            clone = Node(
                name=node.name,
                kind=node.kind,
                inputs=list(node.inputs),
                outputs=list(node.outputs),
                attrs={k: list(v) if isinstance(v, list) else v
                       for k, v in node.attrs.items()},
                fwd_sweeps=list(node.fwd_sweeps),
                bwd_sweeps=list(node.bwd_sweeps),
                fwd_invocations=node.fwd_invocations,
                bwd_invocations=node.bwd_invocations,
                fused_from=list(node.fused_from),
                region=node.region,
            )
            g.nodes.append(clone)
            g._node_index[clone.name] = clone
        return g

    def __reduce__(self):
        """Pickle as columns: one list per field of the tensor specs, of
        the nodes and of one flat sweep table.

        A node's two ledger columns hold its ledger lengths; the table
        holds every forward ledger in node order, then every backward
        one. Fields are read with ``attrgetter``: reading ``__dict__``
        (as pickling an object does) would make every node, sweep and
        spec carry a dict for as long as the graph lives. The producer
        map and node index are derived on load, and the consumer index
        is never written.
        """
        node_columns = _columns(self.nodes, _NODE_FIELDS)
        sweeps: List[Sweep] = []
        for i in _LEDGERS:
            sweeps.extend(chain.from_iterable(node_columns[i]))
            node_columns[i] = list(map(len, node_columns[i]))
        return (_restore_graph, (
            self.name,
            _SPEC_FIELDS, _columns(self.tensors.values(), _SPEC_FIELDS),
            _NODE_FIELDS, node_columns,
            _SWEEP_FIELDS, _columns(sweeps, _SWEEP_FIELDS),
        ))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LayerGraph({self.name}: {len(self.nodes)} nodes, "
            f"{len(self.tensors)} tensors)"
        )


def _columns(objs: Collection, names: Sequence[str]) -> List[list]:
    """One list of field values per name, in the order of *objs*."""
    return [list(map(attrgetter(name), objs)) for name in names]


def _rebuild(cls: type, names: Sequence[str], columns: List[list]) -> list:
    """Dataclass instances of *cls* with each named field set from its
    column.

    No constructor runs, so the values are trusted as written, as by
    any unpickling. Attribute assignment stores into the instances'
    attribute slots without giving them a ``__dict__``; a frozen class
    needs ``object.__setattr__``, which costs about twice the builtin.
    """
    objs = list(map(object.__new__, repeat(cls, len(columns[0]))))
    setattr_ = (object.__setattr__ if cls.__dataclass_params__.frozen
                else setattr)
    for name, column in zip(names, columns):
        # An empty deque drains the map in C, one call per instance.
        deque(map(setattr_, objs, repeat(name), column), maxlen=0)
    return objs


def _restore_graph(name: str, spec_fields: tuple, spec_columns: List[list],
                   node_fields: tuple, node_columns: List[list],
                   sweep_fields: tuple, sweep_columns: List[list]
                   ) -> LayerGraph:
    """Unpickle a :class:`LayerGraph` from the columns
    :meth:`LayerGraph.__reduce__` wrote."""
    if (spec_fields, node_fields, sweep_fields) != (
            _SPEC_FIELDS, _NODE_FIELDS, _SWEEP_FIELDS):
        # Written for other dataclass fields: a miss, never a graph
        # whose objects lack (or carry stale) attributes.
        raise pickle.UnpicklingError("graph payload fields do not match")
    sweeps = iter(_rebuild(Sweep, sweep_fields, sweep_columns))
    node_columns = list(node_columns)
    for i in _LEDGERS:
        node_columns[i] = [list(islice(sweeps, n)) for n in node_columns[i]]
    nodes = _rebuild(Node, node_fields, node_columns)
    specs = _rebuild(TensorSpec, spec_fields, spec_columns)
    g = LayerGraph.__new__(LayerGraph)
    g.name = name
    g.nodes = nodes
    g.tensors = {spec.name: spec for spec in specs}
    g._producer = {t: node.name for node in nodes for t in node.outputs}
    g._node_index = {node.name: node for node in nodes}
    return g
