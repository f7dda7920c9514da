"""Shared helpers for the test-suite."""

from __future__ import annotations

from collections import ChainMap
from collections.abc import Mapping
from math import prod
from typing import NamedTuple

import numpy as np

from onticsim import foliation, gallery
from onticsim.circuit import (INPUT_SOURCE, Circuit, CircuitLayout, Condition, Event, System,
                              TestNode, WireSpec)
from onticsim.foliation import _COLUMNS, FoliationError, MissingOutcomeError, _reorder, admissible_events
from onticsim.linalg import haar_unitary
from onticsim.random_circuits import random_circuit


def any_assignment(lay: CircuitLayout, classical_input: str = "0") -> dict[str, str]:
    """First admissible outcome for every free-choice node, topologically."""
    chosen: dict[str, str] = {}
    fired: dict[int, int] = {}
    for i in lay.topo_order:
        node = lay.circuit.nodes[i]
        idxs = admissible_events(lay, i, fired, classical_input)
        fired[i] = idxs[0]
        if len(idxs) > 1:
            chosen[node.label] = node.events[idxs[0]].outcome
    return chosen


def label_admissible_events(node: TestNode, known: Mapping[str, str],
                            classical_input: str) -> tuple[int, ...]:
    """The condition lookup keyed by labels, as it stood before the source's
    event index was read: admissible event indices of ``node``, reading its
    condition from the step's classical input (``@input``) or from ``known``
    outcomes (node label -> outcome label)."""
    if node.condition is None:
        return tuple(range(len(node.events)))
    if node.condition.source == INPUT_SOURCE:
        source_outcome = classical_input
    else:
        source_outcome = known.get(node.condition.source)
    if source_outcome is None:
        raise MissingOutcomeError(
            f"node {node.label!r} is conditioned on {node.condition.source!r} "
            "but that outcome is not available"
        )
    try:
        return node.condition.outcome_map[source_outcome]
    except KeyError:
        raise FoliationError(
            f"node {node.label!r}: no conditioning entry for source outcome {source_outcome!r}"
        ) from None


def oracle_compose(fol, first: int, stop: int, resolved: Mapping[int, int],
                   max_dim: int) -> np.ndarray:
    """``foliation._compose`` as it stood before it planned its pass: the
    kernel (``foliation._apply_slice``, read at call time) run node by node
    on leaf ``first``'s identity basis, every cap and atomicity check made
    where the walk meets it."""
    lay = fol.layout
    in_dims = fol.leaf_dims(first)
    d_in = prod(in_dims)
    if d_in > max_dim:
        raise FoliationError(f"leaf dimension exceeds cap {max_dim}")
    state = np.eye(d_in, dtype=complex).reshape(*in_dims, d_in)
    order = [*fol.leaves[first], _COLUMNS]
    for s in range(first, stop):
        if s > first and prod(fol.leaf_dims(s)) > max_dim:
            raise FoliationError(f"leaf dimension exceeds cap {max_dim}")
        for i in fol.slices[s]:
            node = lay.circuit.nodes[i]
            event = node.events[resolved[i]]
            if not event.is_atomic:
                raise FoliationError(
                    f"node {node.label!r} outcome {event.outcome!r} is not atomic; "
                    "operator compilation needs single-Kraus events"
                )
            state, order = foliation._apply_slice(state, order, lay, [i], resolved)
            if state.size > max_dim * max_dim:
                raise FoliationError(f"slice operator exceeds dimension cap {max_dim}")
    return _reorder(state, order, [*fol.leaves[stop], _COLUMNS]).reshape(-1, d_in)


class SliceCandidates(NamedTuple):
    cands: list[dict[int, int]]  # node index -> event index, every node of the slice
    deterministic: bool          # every admissible subset sums to the identity
    events: np.ndarray           # (candidates, slice nodes) event indices, in run order


def slice_candidates(plan, lay: CircuitLayout, chosen: dict[int, int],
                     classical_input: str) -> SliceCandidates:
    """All joint outcome choices of a slice (an ``engine._SlicePlan``),
    honoring conditioning, and whether the slice is deterministic: the
    sampler's candidates as they stood before they grew from the condition
    tables, read from ``admissible_events`` one partial candidate at a time.

    ``chosen`` maps the node index of each node fired before the slice to
    its event index. Each candidate maps node index -> event index for every
    node of the slice, forced singletons included. Nodes grow in
    topological order, so a source inside the slice is already in the
    partial candidate. The slice is deterministic when every admissible
    event subset met on the way is one that validation recorded as summing
    to the identity.
    """
    candidates: list[dict[int, int]] = [{}]
    deterministic = True
    for i in plan.node_indices:
        subsets = [admissible_events(lay, i, ChainMap(cand, chosen), classical_input)
                   for cand in candidates]
        deterministic = deterministic and all((i, a) in lay.deterministic for a in subsets)
        candidates = [{**cand, i: idx} for cand, a in zip(candidates, subsets) for idx in a]
    events = np.array([[cand[i] for i in plan.node_indices] for cand in candidates], dtype=np.intp)
    return SliceCandidates(candidates, deterministic,
                           events.reshape(len(candidates), len(plan.node_indices)))


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


def reprepare_chain(k: int) -> Circuit:
    """A qubit prepared in |+>, ``k`` two-outcome measure-and-reprepare
    nodes (|+><0| and |+><1|), then a measurement of <+|: 2 ** k histories,
    each of probability 2 ** -k."""
    plus = np.full((2, 1), np.sqrt(0.5))
    systems = {"q": System("q", 2)}
    nodes = [TestNode("prep", (), ("q",), (Event("0", (plus,)),))]
    nodes += [TestNode(f"m{j}", ("q",), ("q",), tuple(Event(str(b), (plus @ np.eye(2)[b:b + 1],))
                                                      for b in range(2)))
              for j in range(k)]
    nodes.append(TestNode("end", ("q",), (), (Event("0", (plus.T,)),)))
    wires = [WireSpec(a.label, 0, b.label, 0) for a, b in zip(nodes, nodes[1:])]
    return Circuit("reprepare", systems, nodes, wires, closed=True)


def overlap_variant(c: Circuit) -> Circuit | None:
    """``c`` with its first node that is conditioned on another node
    admitting, under the source's last outcome, the events of its first
    outcome in reverse order, so that one event is admitted under two
    source outcomes; None if no node is conditioned on another node."""
    for k, n in enumerate(c.nodes):
        if n.condition is not None and n.condition.source != INPUT_SOURCE:
            first, *_, last = n.condition.outcome_map
            outcome_map = {**n.condition.outcome_map, last: n.condition.outcome_map[first][::-1]}
            node = TestNode(n.label, n.inputs, n.outputs, n.events,
                            Condition(n.condition.source, outcome_map))
            return Circuit(f"{c.name}-overlap", c.systems, [*c.nodes[:k], node, *c.nodes[k + 1:]],
                           c.wires, c.closed)
    return None


def graph_cases(count: int = 300, seed: int = 2012) -> list[Circuit]:
    """Every gallery circuit, ``count`` random circuits with conditioning,
    each random circuit again with its node list shuffled, so that node
    order and topological order differ, and then the overlap variants
    (``overlap_variant``) of the first 20 random cases that have one."""
    programs = (gallery.conditioned_step_program(), gallery.merge_split_program())
    cases = [gallery.conditioned_step(), gallery.conditioned_step_closed(), gallery.bell_pair(),
             gallery.bloch_axes(), *(step.circuit for p in programs for step in p.steps)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = random_circuit(rng)
        shuffled = [c.nodes[i] for i in rng.permutation(len(c.nodes))]
        cases += [c, Circuit(c.name, c.systems, shuffled, c.wires, c.closed)]
    variants = [v for v in map(overlap_variant, cases[len(cases) - 2 * count:]) if v is not None]
    return cases + variants[:20]
