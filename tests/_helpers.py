"""Shared helpers for the test-suite."""

from __future__ import annotations

from onticsim.circuit import CircuitLayout
from onticsim.foliation import admissible_events


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
