"""Operational circuits: systems, tests, directed-acyclic wiring, classical
conditioning edges, validation, and the canonical JSON interchange format.

A circuit is a DAG of test nodes. Each node carries one event per outcome;
wires connect output ports to input ports of matching systems. Unwired
ports form the open boundary (a circuit declared ``closed`` must not have
any). Classical conditioning is an explicit edge: the sampled outcome of a
source node selects which subset of the target's events is admissible. The
reserved source label ``@input`` selects on the per-step classical input
instead of another node's outcome.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import jsonio
from .linalg import MAX_DIM, tensor_product
from .quantum import COMPLETENESS_TOL, KrausSet, Normalisation, SignatureError, normalisation

INPUT_SOURCE = "@input"

_THEORIES = ("quantum", "classical", "trivial")


class CircuitError(ValueError):
    """Raised for malformed circuit documents or invalid wiring."""


@dataclass(frozen=True)
class System:
    label: str
    dim: int
    theory: str = "quantum"

    def __post_init__(self):
        if self.theory not in _THEORIES:
            raise CircuitError(f"unknown theory {self.theory!r} for system {self.label}")
        if self.dim < 1 or (self.theory == "trivial" and self.dim != 1):
            raise CircuitError(f"bad dimension {self.dim} for {self.theory} system {self.label}")


@dataclass(frozen=True)
class Event:
    """One outcome of a test: an outcome label plus its Kraus operator(s)."""

    outcome: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise CircuitError(f"event {self.outcome!r} has no operators")
        object.__setattr__(self, "operators", ops)

    @property
    def is_atomic(self) -> bool:
        return len(self.operators) == 1


@dataclass(frozen=True)
class Condition:
    """Classical edge: source node outcome -> admissible event indices."""

    source: str
    outcome_map: dict[str, tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(
            self,
            "outcome_map",
            {str(k): tuple(int(i) for i in v) for k, v in self.outcome_map.items()},
        )


@dataclass(frozen=True)
class TestNode:
    __test__ = False  # not a pytest class

    label: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    events: tuple[Event, ...]
    condition: Condition | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            raise CircuitError(f"node {self.label!r} has no events")
        labels = [e.outcome for e in self.events]
        if len(set(labels)) != len(labels):
            raise CircuitError(f"node {self.label!r} has duplicate outcome labels")

    def event_index(self, outcome: str) -> int:
        for i, e in enumerate(self.events):
            if e.outcome == outcome:
                return i
        raise KeyError(f"node {self.label!r} has no outcome {outcome!r}")


@dataclass(frozen=True)
class WireSpec:
    from_node: str
    from_port: int
    to_node: str
    to_port: int


@dataclass
class Circuit:
    name: str
    systems: dict[str, System]
    nodes: list[TestNode]
    wires: list[WireSpec]
    closed: bool = False

    def node(self, label: str) -> TestNode:
        for n in self.nodes:
            if n.label == label:
                return n
        raise KeyError(f"no node {label!r}")

    def node_index(self, label: str) -> int:
        for i, n in enumerate(self.nodes):
            if n.label == label:
                return i
        raise KeyError(f"no node {label!r}")


@dataclass(frozen=True)
class WireInfo:
    """A resolved wire, including synthesized boundary wires.

    ``src``/``dst`` are (node index, port) pairs; None marks the circuit
    boundary (missing src: circuit input, missing dst: circuit output).
    """

    index: int
    system: str
    dim: int
    theory: str
    src: tuple[int, int] | None
    dst: tuple[int, int] | None


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    is_closed: bool = False
    node_count: int = 0
    # (node index, admissible event subset) pairs whose operators sum to
    # the identity within the tolerance
    deterministic: set[tuple[int, tuple[int, ...]]] = field(default_factory=set)
    # The graph ``layout`` builds on, complete only when the report is ok:
    # (node, output port) -> (node, input port) per wire, each node's DAG
    # parents with conditioning sources included, each node's conditioning
    # source node (None for ``@input`` and for no condition), and the
    # topological order, None when validation stopped early or found a cycle.
    wiring: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    predecessors: list[set[int]] = field(default_factory=list)
    sources: list[int | None] = field(default_factory=list)
    topo_order: list[int] | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        status = "OK" if self.ok else "INVALID"
        lines = [f"{status}: {self.node_count} nodes, {'closed' if self.is_closed else 'open'}"]
        lines += [f"  - {e}" for e in self.errors]
        return "\n".join(lines)


@dataclass
class CircuitLayout:
    """Derived wiring structure of a validated circuit."""

    circuit: Circuit
    wires: list[WireInfo]
    node_in_wires: list[list[int]]
    node_out_wires: list[list[int]]
    input_wires: list[int]
    output_wires: list[int]
    topo_order: list[int]
    predecessors: list[set[int]]   # DAG parents, conditioning included
    sources: list[int | None]      # conditioning source node; None: ``@input`` or no condition
    deterministic: frozenset[tuple[int, tuple[int, ...]]]  # from ``validate_dag``
    # (node index, incoming wire order) -> contraction plan; see foliation._apply_slice
    plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(self.wires[w].dim for w in self.input_wires)

    @property
    def output_dims(self) -> tuple[int, ...]:
        return tuple(self.wires[w].dim for w in self.output_wires)

    def all_quantum(self) -> bool:
        return all(w.theory in ("quantum", "trivial") for w in self.wires)


def _node_port_dims(circuit: Circuit, node: TestNode) -> tuple[int, int]:
    d_in = prod(circuit.systems[s].dim for s in node.inputs) if node.inputs else 1
    d_out = prod(circuit.systems[s].dim for s in node.outputs) if node.outputs else 1
    return d_out, d_in


def validate_dag(circuit: Circuit, *, tol: float = COMPLETENESS_TOL) -> ValidationReport:
    """Check wiring, typing, acyclicity, test normalization and closure.

    All violations are collected in the report. ``tol`` is the slack on
    the trace-nonincreasing test normalization; one ``normalisation`` run
    per admissible event subset also decides, at the same tolerance, whether
    the subset is deterministic (``report.deterministic``). Only a ``tol``
    that is not finite and >= 0 raises (ValueError, from that run).
    The report also keeps the wiring graph and its topological order.
    """
    report = ValidationReport(node_count=len(circuit.nodes))
    errors = report.errors
    labels = [n.label for n in circuit.nodes]
    if len(set(labels)) != len(labels):
        errors.append("duplicate node labels")
        return report
    index = {lbl: i for i, lbl in enumerate(labels)}

    for n in circuit.nodes:
        for s in n.inputs + n.outputs:
            if s not in circuit.systems:
                errors.append(f"unknown system {s!r} on node {n.label!r}")
    if errors:
        return report

    # Port occupancy and wire typing.
    in_taken: set[tuple[int, int]] = set()
    wiring = report.wiring
    preds = report.predecessors = [set() for _ in circuit.nodes]
    for w in circuit.wires:
        if w.from_node not in index or w.to_node not in index:
            errors.append(f"wire references unknown node: {w.from_node}->{w.to_node}")
            continue
        fi, ti = index[w.from_node], index[w.to_node]
        preds[ti].add(fi)
        f_node, t_node = circuit.nodes[fi], circuit.nodes[ti]
        if not (0 <= w.from_port < len(f_node.outputs)):
            errors.append(f"wire from {w.from_node}.{w.from_port}: no such output port")
            continue
        if not (0 <= w.to_port < len(t_node.inputs)):
            errors.append(f"wire to {w.to_node}.{w.to_port}: no such input port")
            continue
        s_from = circuit.systems[f_node.outputs[w.from_port]]
        s_to = circuit.systems[t_node.inputs[w.to_port]]
        if s_from.dim != s_to.dim or s_from.theory != s_to.theory:
            errors.append(
                f"dimension mismatch on wire {w.from_node}.{w.from_port}->{w.to_node}.{w.to_port}: "
                f"{s_from.label}(dim {s_from.dim}, {s_from.theory}) vs "
                f"{s_to.label}(dim {s_to.dim}, {s_to.theory})"
            )
        if (fi, w.from_port) in wiring:
            errors.append(f"output port {w.from_node}.{w.from_port} wired twice")
        if (ti, w.to_port) in in_taken:
            errors.append(f"input port {w.to_node}.{w.to_port} wired twice")
        wiring[(fi, w.from_port)] = (ti, w.to_port)
        in_taken.add((ti, w.to_port))

    # Event operator shapes and test normalization.
    for node_index, n in enumerate(circuit.nodes):
        d_out, d_in = _node_port_dims(circuit, n)
        bad_shape = False
        for e in n.events:
            for k in e.operators:
                if k.shape != (d_out, d_in):
                    errors.append(
                        f"node {n.label!r} event {e.outcome!r}: operator shape {k.shape} "
                        f"!= ({d_out}, {d_in})"
                    )
                    bad_shape = True
        if bad_shape:
            continue
        quantum_ports = all(
            circuit.systems[s].theory in ("quantum", "trivial") for s in n.inputs + n.outputs
        )
        if not quantum_ports:
            continue
        subsets: list[tuple[str, tuple[int, ...]]] = []
        if n.condition is None:
            subsets.append(("", tuple(range(len(n.events)))))
        else:
            for key, idxs in n.condition.outcome_map.items():
                if any(i < 0 or i >= len(n.events) for i in idxs):
                    errors.append(f"node {n.label!r}: condition map for {key!r} is out of range")
                elif not idxs:
                    errors.append(f"node {n.label!r}: empty event subset for outcome {key!r}")
                else:
                    subsets.append((key, idxs))
        verdicts: dict[tuple[int, ...], Normalisation] = {}
        for key, idxs in subsets:
            if idxs not in verdicts:
                verdicts[idxs] = normalisation([k for i in idxs for k in n.events[i].operators], tol)
            verdict = verdicts[idxs]
            ctx = f" (conditioned on {key!r})" if key else ""
            if not verdict.finite:
                errors.append(f"node {n.label!r}{ctx}: sum K^dag K is not finite "
                              "(a non-finite or overflowing operator entry)")
            elif verdict.excess is not None:
                errors.append(f"node {n.label!r}{ctx} is trace-increasing: "
                              f"sigma_max - 1 = {verdict.excess:.3g}")
            elif verdict.deterministic:
                report.deterministic.add((node_index, idxs))

    # Conditioning sources.
    report.sources = [None] * len(circuit.nodes)
    for i, n in enumerate(circuit.nodes):
        if n.condition is None or n.condition.source == INPUT_SOURCE:
            continue
        if n.condition.source not in index:
            errors.append(f"node {n.label!r} conditioned on unknown node {n.condition.source!r}")
            continue
        src = circuit.nodes[index[n.condition.source]]
        missing = [e.outcome for e in src.events if e.outcome not in n.condition.outcome_map]
        if missing:
            errors.append(
                f"node {n.label!r}: condition map misses source outcomes {missing}"
            )
        report.sources[i] = index[n.condition.source]
        preds[i].add(report.sources[i])

    # Acyclicity over wires + conditioning edges.
    report.topo_order = _topo_sort(preds)
    if report.topo_order is None:
        errors.append("cycle detected in wiring/conditioning graph")

    dangling = [
        f"{n.label}.{p}"
        for i, n in enumerate(circuit.nodes)
        for kind, ports, taken in (("in", n.inputs, in_taken), ("out", n.outputs, wiring))
        for p in range(len(ports))
        if (i, p) not in taken
    ]
    report.is_closed = not dangling
    if circuit.closed and dangling:
        errors.append(f"declared closed but has dangling ports: {', '.join(dangling)}")
    return report


def _topo_sort(preds: list[set[int]], pick=lambda ready: 0) -> list[int] | None:
    """Kahn's algorithm; None if cyclic. The nodes ready to go are kept in
    ascending order, and ``pick`` gives the position of the next one, by
    default the smallest index."""
    succs: list[list[int]] = [[] for _ in preds]
    for b, parents in enumerate(preds):
        for a in parents:
            succs[a].append(b)
    indeg = [len(parents) for parents in preds]
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order: list[int] = []
    while ready:
        i = ready.pop(pick(ready))
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                bisect.insort(ready, j)
    return order if len(order) == len(preds) else None


def layout(circuit: Circuit) -> CircuitLayout:
    """Resolve wires (including the open boundary) on the graph that
    ``validate_dag`` found.

    Raises CircuitError if validation fails.
    """
    report = validate_dag(circuit)
    if not report.ok:
        raise CircuitError("invalid circuit:\n" + str(report))

    node_in: list[list[int]] = [[-1] * len(n.inputs) for n in circuit.nodes]
    node_out: list[list[int]] = [[-1] * len(n.outputs) for n in circuit.nodes]
    wires: list[WireInfo] = []

    def add_wire(system: str, src, dst) -> int:
        s = circuit.systems[system]
        w = WireInfo(len(wires), system, s.dim, s.theory, src, dst)
        wires.append(w)
        if src:
            node_out[src[0]][src[1]] = w.index
        if dst:
            node_in[dst[0]][dst[1]] = w.index
        return w.index

    # Canonical wire order: input boundary, internal (sorted by source), output boundary.
    wired_inputs = set(report.wiring.values())
    input_wires = [add_wire(s, None, (i, p)) for i, n in enumerate(circuit.nodes)
                   for p, s in enumerate(n.inputs) if (i, p) not in wired_inputs]
    for src, dst in sorted(report.wiring.items()):
        add_wire(circuit.nodes[src[0]].outputs[src[1]], src, dst)
    output_wires = [add_wire(s, (i, p), None) for i, n in enumerate(circuit.nodes)
                    for p, s in enumerate(n.outputs) if (i, p) not in report.wiring]

    return CircuitLayout(
        circuit=circuit,
        wires=wires,
        node_in_wires=node_in,
        node_out_wires=node_out,
        input_wires=input_wires,
        output_wires=output_wires,
        topo_order=report.topo_order,
        predecessors=report.predecessors,
        sources=report.sources,
        deterministic=frozenset(report.deterministic),
    )


def connected_components(circuit: Circuit) -> list[set[str]]:
    """Partition of node labels under undirected wire + conditioning links.

    Outcome distributions of distinct components factorize downstream.
    """
    parent = list(range(len(circuit.nodes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    index = {n.label: i for i, n in enumerate(circuit.nodes)}
    for w in circuit.wires:
        union(index[w.from_node], index[w.to_node])
    for n in circuit.nodes:
        if n.condition and n.condition.source != INPUT_SOURCE:
            union(index[n.condition.source], index[n.label])
    groups: dict[int, set[str]] = {}
    for n, i in index.items():
        groups.setdefault(find(i), set()).add(n)
    return sorted(groups.values(), key=lambda g: min(index[x] for x in g))


def _pairwise(t1: KrausSet, t2: KrausSet, product, sep: str) -> tuple[tuple, tuple]:
    """Every ``product(k1, k2)`` of the two sets' Kraus operators, with its
    label: an atomic side's label drops out, otherwise ``l1 + sep + l2``;
    when two labels clash, every label is prefixed with its position."""
    ops, labels = [], []
    for k1, l1 in zip(t1.operators, t1.outcome_labels):
        for k2, l2 in zip(t2.operators, t2.outcome_labels):
            ops.append(product(k1, k2))
            labels.append(l1 if t2.is_atomic else (l2 if t1.is_atomic else f"{l1}{sep}{l2}"))
    if len(set(labels)) != len(labels):
        labels = [f"{i}:{l}" for i, l in enumerate(labels)]
    return tuple(ops), tuple(labels)


def compose_sequential(t1: KrausSet, t2: KrausSet) -> KrausSet:
    """First t1, then t2; Kraus operators are all products K2 K1."""
    if t1.out_dim != t2.in_dim:
        raise SignatureError(
            f"cannot compose: first outputs dim {t1.out_dim}, second expects {t2.in_dim}"
        )
    ops, labels = _pairwise(t1, t2, lambda k1, k2: k2 @ k1, ">")
    return KrausSet(ops, labels, in_dims=t1.in_dims, out_dims=t2.out_dims)


def compose_parallel(t1: KrausSet, t2: KrausSet, *, max_dim: int = MAX_DIM) -> KrausSet:
    """Tensor composition; Kraus operators are all pairwise products k1 (x) k2."""
    ops, labels = _pairwise(t1, t2, lambda k1, k2: tensor_product(k1, k2, max_dim=max_dim), ",")
    return KrausSet(ops, labels, in_dims=t1.in_dims + t2.in_dims, out_dims=t1.out_dims + t2.out_dims)


# --- JSON interchange -------------------------------------------------------

def circuit_to_dict(circuit: Circuit) -> dict:
    doc = {
        "name": circuit.name,
        "systems": [
            {"label": s.label, "dim": s.dim, "theory": s.theory}
            for s in circuit.systems.values()
        ],
        "nodes": [],
        "wires": [
            {"from": [w.from_node, w.from_port], "to": [w.to_node, w.to_port]}
            for w in sorted(
                circuit.wires,
                key=lambda w: (circuit.node_index(w.from_node), w.from_port),
            )
        ],
        "closed": circuit.closed,
    }
    for n in circuit.nodes:
        node_doc = {
            "label": n.label,
            "inputs": list(n.inputs),
            "outputs": list(n.outputs),
            "events": [
                {"outcome": e.outcome, "kraus": [jsonio.encode_matrix(k) for k in e.operators]}
                for e in n.events
            ],
        }
        if n.condition is not None:
            node_doc["condition"] = {
                "source": n.condition.source,
                "map": {k: list(v) for k, v in n.condition.outcome_map.items()},
            }
        doc["nodes"].append(node_doc)
    return doc


def _integer(value, field: str) -> int:
    """A JSON integer field, such as a dimension, port index or bind
    position; booleans, fractions and strings are malformed."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _label(value, field: str) -> str:
    """A JSON string field, such as a label, outcome, port name or
    condition source; an integer stands for its decimal text."""
    if type(value) is int:
        return str(value)
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, got {value!r}")
    return value


def _boolean(value, field: str) -> bool:
    """A JSON boolean field, such as ``closed``; a number or string that
    Python would read as true is malformed."""
    if type(value) is not bool:
        raise TypeError(f"{field} must be a boolean, got {value!r}")
    return value


def circuit_from_dict(doc: dict) -> Circuit:
    try:
        systems = [System(_label(s["label"], "system label"), _integer(s["dim"], "dim"),
                          s.get("theory", "quantum"))
                   for s in doc["systems"]]
        nodes = []
        for nd in doc["nodes"]:
            events = tuple(
                Event(_label(ev["outcome"], "outcome"),
                      tuple(jsonio.decode_matrix(m) for m in ev["kraus"]))
                for ev in nd["events"]
            )
            cond = None
            if nd.get("condition"):
                outcome_map = nd["condition"]["map"]
                if not isinstance(outcome_map, dict):
                    raise TypeError(f"condition map must be an object, got {outcome_map!r}")
                cond = Condition(_label(nd["condition"]["source"], "condition source"),
                                 {k: tuple(_integer(i, "event index") for i in v)
                                  for k, v in outcome_map.items()})
            nodes.append(TestNode(_label(nd["label"], "node label"),
                                  tuple(_label(s, "port name") for s in nd.get("inputs", ())),
                                  tuple(_label(s, "port name") for s in nd.get("outputs", ())),
                                  events, cond))
        wires = [
            WireSpec(_label(w["from"][0], "wire node"), _integer(w["from"][1], "port index"),
                     _label(w["to"][0], "wire node"), _integer(w["to"][1], "port index"))
            for w in doc.get("wires", ())
        ]
        return Circuit(_label(doc.get("name", "circuit"), "name"), {s.label: s for s in systems},
                       nodes, wires, _boolean(doc.get("closed", False), "closed"))
    except CircuitError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CircuitError(f"malformed circuit document: {exc}") from exc


def serialize_circuit(circuit: Circuit) -> str:
    return jsonio.dumps(circuit_to_dict(circuit), indent=2) + "\n"


def _json_object(text: str) -> dict | None:
    """The JSON object a document holds, or None for a line-DSL document."""
    if not text.lstrip().startswith("{"):
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitError(f"JSON syntax error at line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc


def _decode_circuit(text: str, doc: dict | None = None) -> Circuit:
    """Build a circuit from JSON (or the line DSL) without validating it;
    ``layout`` validates before anything runs on it. ``doc`` is the JSON
    object of ``text`` when the caller has read it already."""
    doc = _json_object(text) if doc is None else doc
    if doc is not None:
        return circuit_from_dict(doc)
    from .dsl import parse_dsl

    return parse_dsl(text)


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit from JSON (or the line DSL) and validate it.

    Raises CircuitError with a description of every violation found.
    """
    circuit = _decode_circuit(text)
    layout(circuit)
    return circuit
