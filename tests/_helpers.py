"""Shared helpers for the test-suite."""

from __future__ import annotations

import numpy as np

from onticsim import gallery
from onticsim.circuit import Circuit, CircuitLayout, Event, System, TestNode, WireSpec
from onticsim.foliation import admissible_events
from onticsim.linalg import haar_unitary
from onticsim.random_circuits import random_circuit


def any_assignment(lay: CircuitLayout, classical_input: str = "0") -> dict[str, str]:
    """First admissible outcome for every free-choice node, topologically."""
    chosen: dict[str, str] = {}
    labels: dict[str, str] = {}
    for i in lay.topo_order:
        node = lay.circuit.nodes[i]
        idxs = admissible_events(node, labels, classical_input)
        labels[node.label] = node.events[idxs[0]].outcome
        if len(idxs) > 1:
            chosen[node.label] = node.events[idxs[0]].outcome
    return chosen


#: A chain length deeper than the interpreter's default recursion limit of
#: 1000 frames.
DEEP_CHAIN = 1200


def closed_chain(gates: int, seed: int = 0) -> Circuit:
    """A qubit prepared in |0>, ``gates`` Haar-random unitaries in a row,
    then a two-outcome computational-basis measurement."""
    rng = np.random.default_rng(seed)
    systems = {"q": System("q", 2)}
    prep = TestNode("prep", (), ("q",), (Event("0", (np.array([[1.0], [0.0]]),)),))
    gate_nodes = [TestNode(f"u{i}", ("q",), ("q",), (Event("0", (haar_unitary(2, rng),)),))
                  for i in range(gates)]
    measure = TestNode("m", ("q",), (), (Event("0", (np.array([[1.0, 0.0]]),)),
                                         Event("1", (np.array([[0.0, 1.0]]),))))
    nodes = [prep, *gate_nodes, measure]
    wires = [WireSpec(a.label, 0, b.label, 0) for a, b in zip(nodes, nodes[1:])]
    return Circuit("chain", systems, nodes, wires, closed=True)


def graph_cases(count: int = 300, seed: int = 2012) -> list[Circuit]:
    """Every gallery circuit, ``count`` random circuits with conditioning,
    and each random circuit again with its node list shuffled, so that node
    order and topological order differ."""
    programs = (gallery.conditioned_step_program(), gallery.merge_split_program())
    cases = [gallery.conditioned_step(), gallery.conditioned_step_closed(), gallery.bell_pair(),
             gallery.bloch_axes(), *(step.circuit for p in programs for step in p.steps)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = random_circuit(rng)
        shuffled = [c.nodes[i] for i in rng.permutation(len(c.nodes))]
        cases += [c, Circuit(c.name, c.systems, shuffled, c.wires, c.closed)]
    return cases
