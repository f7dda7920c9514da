"""Foliation of circuits into ordered slices and their compilation to
operators.

A foliation covers the circuit's wires with an ordered sequence of global
cuts (leaves); the nodes between two adjacent cuts form a slice. A slice is
applied by one kernel, ``_apply_slice``: it contracts each firing event's
Kraus operator into a tensor with one axis per wire, node by node in
topological order, while wires the slice does not touch ride along as
untouched axes. Each (node index, incoming wire order) pair is planned
once, on the ``CircuitLayout``, by ``_plan``: the transpose that puts the
node's input axes first, d_in, the output shape, the next order and
whether the order stacks states on a leading batch axis. The kernel then
does what ``np.tensordot`` does, on the same operands, so its bits are
``tensordot``'s. The trajectory engine runs it on stacks of state tensors,
each row contracted as a state of its own.

Operator compilation runs the same contractions in one pass over a range
of slices, on the identity basis of the range's first leaf, then
transposes the result into the last leaf's wire order: over one slice
this is ``compile_slice``'s operator, over every slice
``compile_history``'s, for fixed outcomes. A foliation plans each range's
pass once, from ``_plan``'s node plans: the node sequence with each
node's contraction, the leaf and tensor sizes the caps are checked
against, and the final transpose. Outcomes are resolved from a table per
layout and classical input. Every foliation of a circuit compiles to the
same history operator, which is the invariance the test-suite pins down.

Strategies: ``asap`` and ``alap`` are longest-path schedules, one pass
over the topological order each. ``asap`` puts a node in the slice one
past its latest wire predecessor's, and no earlier than its conditioning
source's slice: a conditioned node may share its source's slice,
composing through the trivial system inside one leaf. ``alap`` puts a
node as many slices before the last as the longest path from it to a
sink, counting wire and conditioning edges alike, so conditioning
sources fire strictly earlier and every classical edge crosses a cut.
``random`` groups a random linear extension into random
consecutive slices, which may bury wires inside a slice; the kernel
contracts such internal chains in turn.

Whatever the strategy, ``foliate`` lists each slice's nodes in the
layout's topological order, which is the order the kernel runs them in.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .circuit import Circuit, CircuitLayout, CircuitError, _topo_sort, layout as circuit_layout
from .linalg import MAX_DIM, is_contraction


class FoliationError(CircuitError):
    pass


class MissingOutcomeError(FoliationError):
    """A probabilistic node has no outcome in the given assignment."""


@dataclass
class Foliation:
    layout: CircuitLayout
    slices: list[list[int]]      # node indices per slice, in the layout's topological order
    leaves: list[list[int]]      # wire indices per cut; len(slices) + 1 entries
    strategy: str = "given"
    # (first slice, stop) -> the planned pass; see _compose
    passes: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def circuit(self) -> Circuit:
        return self.layout.circuit

    def slice_labels(self) -> list[list[str]]:
        return [[self.circuit.nodes[i].label for i in s] for s in self.slices]

    def leaf_dims(self, i: int) -> tuple[int, ...]:
        return tuple(self.layout.wires[w].dim for w in self.leaves[i])


def _leaves_for_slices(lay: CircuitLayout, slices: list[list[int]]) -> list[list[int]]:
    slice_of = {n: s for s, grp in enumerate(slices) for n in grp}
    leaves: list[list[int]] = [[] for _ in range(len(slices) + 1)]
    for w in lay.wires:  # a wire lies on every cut after its source fires, up to its sink's
        fire = slice_of[w.src[0]] if w.src else -1
        consume = slice_of[w.dst[0]] if w.dst else len(slices)
        for i in range(fire + 1, consume + 1):
            leaves[i].append(w.index)
    return leaves


def _check_slices(lay: CircuitLayout, slices: list[list[int]]) -> None:
    seen = [n for grp in slices for n in grp]
    if sorted(seen) != list(range(len(lay.circuit.nodes))):
        raise FoliationError("slices must partition the circuit's nodes")
    slice_of = {n: s for s, grp in enumerate(slices) for n in grp}
    for w in lay.wires:
        if w.src and w.dst and slice_of[w.src[0]] > slice_of[w.dst[0]]:
            raise FoliationError(
                f"wire {w.index} runs backwards across slices "
                f"({lay.circuit.nodes[w.src[0]].label} -> {lay.circuit.nodes[w.dst[0]].label})"
            )
    # Every wire parent passed above, so a later predecessor is a
    # conditioning source.
    for i, node in enumerate(lay.circuit.nodes):
        if any(slice_of[p] > slice_of[i] for p in lay.predecessors[i]):
            raise FoliationError(
                f"conditioning source {node.condition.source} fires after {node.label}"
            )


def foliate(circuit, strategy: str = "asap", *, slices=None, rng=None) -> Foliation:
    """Build a foliation of a validated circuit.

    ``slices`` (lists of node labels) is required for strategy "given";
    ``rng`` for strategy "random".
    """
    lay = circuit if isinstance(circuit, CircuitLayout) else circuit_layout(circuit)
    if strategy == "given":
        if slices is None:
            raise FoliationError("strategy 'given' needs explicit slices")
        index = {node.label: i for i, node in enumerate(lay.circuit.nodes)}
        try:
            idx_slices = [[index[lbl] for lbl in grp] for grp in slices]
        except KeyError as exc:
            raise FoliationError(f"no node {exc.args[0]!r}") from None
    elif strategy == "asap":
        idx_slices = _asap_slices(lay)
    elif strategy == "alap":
        idx_slices = _alap_slices(lay)
    elif strategy == "random":
        if rng is None:
            raise FoliationError("strategy 'random' needs an rng")
        idx_slices = _random_slices(lay, rng)
    else:
        raise FoliationError(f"unknown foliation strategy {strategy!r}")
    rank = {i: r for r, i in enumerate(lay.topo_order)}
    idx_slices = [sorted(grp, key=rank.__getitem__) for grp in idx_slices if grp]
    _check_slices(lay, idx_slices)
    return Foliation(lay, idx_slices, _leaves_for_slices(lay, idx_slices), strategy)


def _by_level(level: list[int]) -> list[list[int]]:
    """Slice ``k`` holds the nodes of level ``k``, in node order."""
    slices: list[list[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for i, lv in enumerate(level):
        slices[lv].append(i)
    return slices


def _asap_slices(lay: CircuitLayout) -> list[list[int]]:
    # One level past the latest wire parent, and no earlier than the
    # conditioning source. ``predecessors`` holds both kinds of parent; a
    # wire parent's own "+ 1" term always dominates its plain one.
    level = [0] * len(lay.circuit.nodes)
    for i in lay.topo_order:
        wire_preds = [lay.wires[w].src[0] for w in lay.node_in_wires[i] if lay.wires[w].src]
        level[i] = max([level[p] for p in lay.predecessors[i]]
                       + [level[p] + 1 for p in wire_preds], default=0)
    return _by_level(level)


def _alap_slices(lay: CircuitLayout) -> list[list[int]]:
    # Height above the sinks over wire and conditioning edges alike.
    height = [0] * len(lay.circuit.nodes)
    for i in reversed(lay.topo_order):
        for p in lay.predecessors[i]:
            height[p] = max(height[p], height[i] + 1)
    top = max(height, default=0)
    return _by_level([top - h for h in height])


def _random_slices(lay: CircuitLayout, rng: np.random.Generator) -> list[list[int]]:
    # A uniform pick from the ready nodes, in ascending order, so that a
    # given rng yields the same linear extension whatever order the nodes
    # became ready in.
    order = _topo_sort(lay.predecessors, lambda ready: int(rng.integers(len(ready))))
    slices: list[list[int]] = [[]]
    for i in order:
        if slices[-1] and rng.random() < 0.5:
            slices.append([])
        slices[-1].append(i)
    return slices


# --- outcome resolution ------------------------------------------------------

def admissible_events(lay: CircuitLayout, i: int, ev: Mapping[int, int],
                      classical_input: str) -> tuple[int, ...]:
    """Admissible event indices of node ``i``: every event when it has no
    condition, else the condition's entry for its source's outcome. That
    outcome is the step's classical input for ``@input``, else the event
    that the source node fired, ``ev[source]`` (``ev`` maps node index ->
    event index; sources run first). Raises FoliationError for an outcome
    the condition has no entry for."""
    node = lay.circuit.nodes[i]
    if node.condition is None:
        return tuple(range(len(node.events)))
    source = lay.sources[i]
    outcome = (classical_input if source is None
               else lay.circuit.nodes[source].events[ev[source]].outcome)
    try:
        return node.condition.outcome_map[outcome]
    except KeyError:
        raise FoliationError(
            f"node {node.label!r}: no conditioning entry for source outcome {outcome!r}"
        ) from None


def _resolution(lay: CircuitLayout, classical_input: str) -> dict:
    """``resolve_assignment``'s table under one classical input: node label
    -> (node index, outcome -> event index, source node, admissible subset
    per source event), in topological order. Built once per layout and
    input from ``admissible_events``, as a function of that key alone."""
    table = lay.resolutions.get(classical_input)
    if table is None:
        table = {}
        for i in lay.topo_order:
            node, u = lay.circuit.nodes[i], lay.sources[i]
            fired = range(len(lay.circuit.nodes[u].events)) if u is not None else [0]
            try:
                subsets = [admissible_events(lay, i, {u: e}, classical_input) for e in fired]
            except FoliationError:  # no entry for this classical input: raised if reached
                subsets = None
            table[node.label] = (i, {ev.outcome: j for j, ev in enumerate(node.events)}, u, subsets)
        lay.resolutions[classical_input] = table
    return table


def resolve_assignment(
    lay: CircuitLayout, outcomes: dict[str, str] | None, classical_input: str = "0"
) -> dict[int, int]:
    """Complete an outcome assignment (label -> outcome) into an event index per node index.

    Nodes whose admissible subset is a singleton resolve automatically;
    every genuine choice must be present in ``outcomes``. Raises
    MissingOutcomeError otherwise, and FoliationError for an outcome keyed
    by a label that is no node of the circuit.
    """
    outcomes = dict(outcomes or {})
    table = _resolution(lay, classical_input)
    for label in outcomes:
        if label not in table:
            raise FoliationError(f"no node {label!r}")
    resolved: dict[int, int] = {}
    for label, (i, events, u, subsets) in table.items():
        if subsets is None:  # the lookup's own error
            admissible_events(lay, i, resolved, classical_input)
        admissible = subsets[0 if u is None else resolved[u]]
        if label in outcomes:
            try:
                idx = events[outcomes[label]]
            except (KeyError, TypeError):
                raise FoliationError(f"node {label!r} has no outcome {outcomes[label]!r}") from None
            if idx not in admissible:
                raise FoliationError(
                    f"outcome {outcomes[label]!r} of node {label!r} conflicts with its conditioning"
                )
        elif len(admissible) == 1:
            idx = admissible[0]
        else:
            raise MissingOutcomeError(
                f"node {label!r} needs an outcome (choices: "
                f"{[lay.circuit.nodes[i].events[j].outcome for j in admissible]})"
            )
        resolved[i] = idx
    return resolved


# --- compilation -------------------------------------------------------------

#: The batch axis of a batch of state tensors, named in their wire order as
#: if it were a wire. It leads the order, and the kernel treats it as a
#: stack axis.
_BATCH = -1

#: The basis axis of ``_compose``'s identity basis, named likewise. It
#: ends the order, and the kernel contracts it as more columns.
_COLUMNS = -2


def _plan(lay: CircuitLayout, i: int, order: tuple) -> tuple:
    """Node ``i``'s contraction plan for the incoming wire order ``order``:
    the transpose that puts its input axes first (after a leading
    ``_BATCH`` axis), its operator's shape by wire, d_in, the output shape,
    the next order and whether the order stacks states. Kept on the layout;
    a function of its key alone, so racing threads store equal plans."""
    plan = lay.plans.get((i, order))
    if plan is None:
        in_wires, out_wires = lay.node_in_wires[i], lay.node_out_wires[i]
        lead = [0] if order[:1] == (_BATCH,) else []
        rest = [a for a, w in enumerate(order) if w not in in_wires][len(lead):]
        nxt = (*order[:len(lead)], *out_wires, *(order[a] for a in rest))
        op_shape = tuple(lay.wires[w].dim for w in (*out_wires, *in_wires))
        shape = tuple(-1 if w < 0 else lay.wires[w].dim for w in nxt)
        plan = lay.plans[i, order] = (lead + [order.index(w) for w in in_wires] + rest,
                                      op_shape, prod(op_shape[len(out_wires):]), shape, nxt,
                                      bool(lead))
    return plan


def _apply_slice(state: np.ndarray, order: Sequence[int], lay: CircuitLayout,
                 node_indices: list[int], events: Mapping[int, int]) -> tuple[np.ndarray, tuple]:
    """Apply one slice's events to a state tensor indexed by wire order:
    node ``i`` fires its event ``events[i]`` (an event index).

    A leading ``_BATCH`` axis is a stack axis: each row is contracted as a
    state of its own, by one ``np.matmul`` over the stack, and the axis
    stays first. matmul makes one BLAS call per row on the operands
    ``np.dot`` gets for that row alone, so every row's bits are those of a
    lone state. With one input dimension they are not, and such stacks are
    contracted row by row.
    """
    order = tuple(order)
    for i in node_indices:
        axes, op_shape, d_in, shape, order, stacked = _plan(lay, i, order)
        op = lay.circuit.nodes[i].events[events[i]].operators[0]
        # np.tensordot(op.reshape(op_shape), state, (input axes, their positions))
        # is this transpose, reshape and np.dot of the same operands, the operator
        # through the same two reshapes (they set its strides, hence the BLAS call;
        # a C-contiguous operator has those strides already).
        if not op.flags.c_contiguous:
            op = op.reshape(op_shape).reshape(-1, d_in)
        if not stacked:
            state = np.dot(op, state.transpose(axes).reshape(d_in, -1)).reshape(shape)
        elif d_in > 1:
            state = np.matmul(op, state.transpose(axes).reshape(len(state), d_in, -1)).reshape(shape)
        else:
            rows = state.transpose(axes).reshape(len(state), d_in, -1)
            state = np.stack([np.dot(op, row) for row in rows]).reshape(shape)
    return state, order


def _reorder(state: np.ndarray, order: Sequence[int], target: Sequence[int]) -> np.ndarray:
    if tuple(order) == tuple(target):
        return state
    axes = [order.index(w) for w in target]
    return state.transpose(axes)


def _plan_pass(fol: Foliation, first: int, stop: int) -> tuple:
    """The kernel's pass over slices ``first .. stop - 1``, from ``_plan``'s
    node plans: the identity basis's shape (the first leaf's dims, then
    d_in); per node in run order its index, axes, op_shape, d_in, output
    shape, the largest leaf to check before it and its tensor's size; the
    transpose into the last leaf's order (None if in it already); the
    largest leaf and tensor. Kept on the foliation, a function of the range."""
    order = (*fol.leaves[first], _COLUMNS)
    d0 = prod(fol.leaf_dims(first))
    leaves = [prod(fol.leaf_dims(s)) for s in range(first, stop)]
    steps, leaf = [], d0
    for s in range(first, stop):
        leaf = max(leaf, leaves[s - first])
        for i in fol.slices[s]:
            axes, op_shape, d_in, shape, order, _ = _plan(fol.layout, i, order)
            size = prod(d for d in shape if d > 0) * d0
            steps.append((i, axes, op_shape, d_in, shape, leaf, size))
            leaf = 0
    target = (*fol.leaves[stop], _COLUMNS)
    final = None if order == target else [order.index(w) for w in target]
    plan = fol.passes[first, stop] = ((*fol.leaf_dims(first), d0), steps, final, max([d0, *leaves]),
                                      max((step[-1] for step in steps), default=0))
    return plan


def _compose(fol: Foliation, first: int, stop: int, resolved: Mapping[int, int],
             max_dim: int) -> np.ndarray:
    """Operator of slices ``first .. stop - 1``: leaf ``first`` -> leaf ``stop``,
    node ``i`` firing its event ``resolved[i]`` (an event index).

    One loop over the range's planned pass, on leaf ``first``'s identity
    basis, basis axis last, so column j is the slices applied to the j-th
    basis vector; each node is ``_apply_slice``'s contraction. A pass that
    breaks a cap checks each leaf before its slice and each tensor after its
    node, so it raises where the node-by-node walk did.
    """
    in_shape, steps, final, leaf_max, size_max = (fol.passes.get((first, stop))
                                                  or _plan_pass(fol, first, stop))
    checked = leaf_max > max_dim or size_max > max_dim * max_dim
    nodes = fol.circuit.nodes
    state = np.eye(in_shape[-1], dtype=complex).reshape(in_shape)
    for i, axes, op_shape, d_in, shape, leaf, size in steps:
        if checked and leaf > max_dim:
            raise FoliationError(f"leaf dimension exceeds cap {max_dim}")
        event = nodes[i].events[resolved[i]]
        if len(event.operators) != 1:
            raise FoliationError(f"node {nodes[i].label!r} outcome {event.outcome!r} is not atomic; "
                                 "operator compilation needs single-Kraus events")
        op = event.operators[0]
        if not op.flags.c_contiguous:
            op = op.reshape(op_shape).reshape(-1, d_in)
        state = np.dot(op, state.transpose(axes).reshape(d_in, -1)).reshape(shape)
        if checked and size > max_dim * max_dim:
            raise FoliationError(f"slice operator exceeds dimension cap {max_dim}")
    if checked:  # what is left to break the cap is a leaf after the last node
        raise FoliationError(f"leaf dimension exceeds cap {max_dim}")
    return (state if final is None else state.transpose(final)).reshape(-1, in_shape[-1])


def compile_slice(fol: Foliation, slice_index: int, outcomes: dict[str, str] | None = None, *,
                  classical_input: str = "0", max_dim: int = MAX_DIM) -> np.ndarray:
    """Operator of one slice, leaf ``slice_index`` -> ``slice_index + 1``: the
    pass over it alone, for the outcomes that ``resolve_assignment`` completes."""
    if not 0 <= slice_index < len(fol.slices):
        raise FoliationError(f"slice index {slice_index} is out of range: the foliation has "
                             f"{len(fol.slices)} slices, 0 .. {len(fol.slices) - 1}")
    resolved = resolve_assignment(fol.layout, outcomes, classical_input)
    return _compose(fol, slice_index, slice_index + 1, resolved, max_dim)


@dataclass(frozen=True)
class HistoryOperator:
    """A history's operator, leaf 0 -> last leaf, over ``factor_count`` slices."""

    operator: np.ndarray
    factor_count: int

    def contraction_check(self) -> tuple[bool, float]:
        return is_contraction(self.operator)


def compile_history(fol: Foliation, outcomes: dict[str, str] | None = None, *,
                    classical_input: str = "0", max_dim: int = MAX_DIM) -> HistoryOperator:
    """Compile the full circuit operator for one complete outcome assignment.

    One kernel pass over every slice, on leaf 0's identity basis, so the
    cap bounds what the pass holds: each leaf a slice starts from has at
    most ``max_dim`` dimensions, and each in-slice tensor times leaf 0's
    dimension at most ``max_dim ** 2`` entries.
    """
    resolved = resolve_assignment(fol.layout, outcomes, classical_input)
    return HistoryOperator(_compose(fol, 0, len(fol.slices), resolved, max_dim), len(fol.slices))
