"""Stochastic trajectory engine: sampling outcome histories through
programs of circuits, exhaustive history enumeration, and the seeded
counter-based RNG streams that make parallel runs reproducible.

A program is an ordered list of circuits; each circuit is one macro time
step, fed the previous step's output wires (positionally, or through an
explicit bind map) plus a per-step classical input that ``@input``-
conditioned nodes read. Within a step, outcomes are drawn slice by slice
along the circuit's eager foliation: the joint outcome F of a slice is
drawn with probability ||O_F w||^2 / ||w||^2, the state is renormalized,
and the product of the conditional weights equals the squared norm of the
history operator applied to the initial state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import jsonio
from .circuit import (
    Circuit,
    CircuitError,
    CircuitLayout,
    _decode_circuit,
    _integer,
    _json_object,
    _label,
    circuit_from_dict,
    circuit_to_dict,
    layout as circuit_layout,
)
from .foliation import (
    Foliation,
    _BATCH,
    _apply_slice,
    _compose,
    _reorder,
    admissible_events,
    foliate,
)
from .linalg import MAX_DIM, TAU_NORM

#: Leaf dimension up to which per-slice candidate operators are precompiled.
FAST_PATH_MAX_DIM = 256

#: Branch weights below this are treated as impossible and removed from the
#: sampling support, so conditional probabilities never divide by ~0.
ZERO_BRANCH = 1e-14

DEFAULT_HISTORY_CAP = 200_000


class EngineError(CircuitError):
    pass


class HistoryCapExceeded(EngineError):
    pass


def trajectory_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based stream for one trajectory: independent per index."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --- programs ----------------------------------------------------------------

@dataclass
class ProgramStep:
    circuit: Circuit
    bind: list[tuple[int, int]] | None = None  # (prev output position, this input position)


@dataclass
class Program:
    name: str
    steps: list[ProgramStep]
    initial_state: np.ndarray | None = None

    @classmethod
    def single(cls, circuit: Circuit, initial_state=None) -> "Program":
        state = None if initial_state is None else np.asarray(initial_state, dtype=complex)
        return cls(circuit.name, [ProgramStep(circuit)], state)


def program_from_dict(doc: dict, *, base_dir: Path | None = None) -> Program:
    try:
        steps = []
        for sd in doc["steps"]:
            if "circuit" in sd:
                circ = circuit_from_dict(sd["circuit"])
            elif "circuit_file" in sd:
                path = Path(sd["circuit_file"])
                if base_dir is not None and not path.is_absolute():
                    path = base_dir / path
                circ = _decode_circuit(path.read_text())
            else:
                raise CircuitError("program step needs 'circuit' or 'circuit_file'")
            bind = ([(_integer(a, "bind position"), _integer(b, "bind position"))
                     for a, b in sd["bind"]] if sd.get("bind") is not None else None)
            steps.append(ProgramStep(circ, bind))
        if not steps:
            raise CircuitError("malformed program document: no steps")
        init = None
        if doc.get("initial_state") is not None:
            init = jsonio.decode_vector(doc["initial_state"])
        name = _label(doc.get("name", "program"), "name")
    except CircuitError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CircuitError(f"malformed program document: {exc}") from exc
    return Program(name, steps, init)


def program_to_dict(program: Program) -> dict:
    doc: dict = {"kind": "program", "name": program.name, "steps": []}
    if program.initial_state is not None:
        doc["initial_state"] = jsonio.encode_vector(program.initial_state)
    for step in program.steps:
        sd: dict = {"circuit": circuit_to_dict(step.circuit)}
        if step.bind is not None:
            sd["bind"] = [list(p) for p in step.bind]
        doc["steps"].append(sd)
    return doc


def load_run_spec(path) -> Program:
    """Load a circuit or program file; circuits become one-step programs.
    Each document, the file and every ``circuit_file``, is parsed once.

    Circuits are decoded, not validated: ``compile_program`` validates each
    step once.
    """
    path = Path(path)
    text = path.read_text()
    doc = _json_object(text)
    if doc is not None and (doc.get("kind") == "program" or "steps" in doc):
        return program_from_dict(doc, base_dir=path.parent)
    return Program.single(_decode_circuit(text, doc))


# --- compiled execution plan --------------------------------------------------

@dataclass
class _SlicePlan:
    node_indices: list[int]           # the foliation's slice, in run order
    out_dims: tuple[int, ...]
    fast: bool
    columns: slice                    # the slice's columns in ``CompiledStep.run``
    # Columns of the nodes whose condition reads from outside the slice (or
    # @input), in run order: their admissible event subsets make up the
    # context key.
    key_columns: tuple[int, ...]
    # context key -> _Branches, filled on first use
    branches: dict = field(default_factory=dict)


@dataclass
class _Branches:
    """A slice's joint outcome choices in one context, and what follows from
    them: each candidate is a row of event indices, in the order that the
    node walk of ``_node_children`` makes a row's children. Every field is a
    function of the context key alone, so threads that race to fill one
    store equal values."""

    events: np.ndarray                 # (candidates, slice nodes) event indices, in run order
    deterministic: bool                # every admissible subset sums to the identity
    stacked: np.ndarray | None = None  # fast path: (1, candidates, d_out, d_in) operators


@dataclass
class CompiledStep:
    layout: CircuitLayout
    foliation: Foliation
    slices: list[_SlicePlan]
    # (previous output position, input position) pairs, checked once by
    # ``compile_program``; the identity on the first step, whose input is
    # the initial state.
    bind: list[tuple[int, int]]
    run: list[int]  # the step's nodes in run order: its slices in turn, as foliated
    # classical input -> ``_condition_tables``, filled on first use
    conditions: dict = field(default_factory=dict)


def compile_program(program: Program, *, max_dim: int = MAX_DIM) -> list[CompiledStep]:
    compiled = []
    prev_out: tuple[int, ...] | None = None
    for t, step in enumerate(program.steps):
        lay = circuit_layout(step.circuit)
        if not lay.all_quantum():
            raise EngineError(
                f"step {t}: the trajectory engine runs quantum wires only; classical "
                "information enters through conditioning edges and @input"
            )
        for n in step.circuit.nodes:
            for e in n.events:
                if not e.is_atomic:
                    raise EngineError(
                        f"step {t}: node {n.label!r} outcome {e.outcome!r} is not atomic; "
                        "ontic evolution needs single-Kraus events"
                    )
        in_dims = lay.input_dims
        if prev_out is None:
            if step.bind is not None:
                raise EngineError(f"step {t}: the first step takes no bind map; its inputs "
                                  "are the initial state")
            bind = [(i, i) for i in range(len(in_dims))]
        else:
            bind = _bind_pairs(step.bind, len(prev_out), len(in_dims), t)
            for a, b in bind:
                if prev_out[a] != in_dims[b]:
                    raise EngineError(
                        f"step {t}: bind maps a dim-{prev_out[a]} output onto a "
                        f"dim-{in_dims[b]} input"
                    )
        fol = foliate(lay, "asap")
        # Leaf 0 and the last leaf are the boundary.
        if any(prod(fol.leaf_dims(s)) > max_dim for s in range(len(fol.leaves))):
            raise EngineError(f"step {t}: leaf dimension exceeds cap {max_dim}")
        plans, a = [], 0
        for s, members in enumerate(fol.slices):
            fast = (
                prod(fol.leaf_dims(s)) <= FAST_PATH_MAX_DIM
                and prod(fol.leaf_dims(s + 1)) <= FAST_PATH_MAX_DIM
            )
            key_columns = tuple(a + j for j, i in enumerate(members)
                                if lay.circuit.nodes[i].condition is not None
                                and lay.sources[i] not in members)
            plans.append(_SlicePlan(members, fol.leaf_dims(s + 1), fast,
                                    slice(a, a + len(members)), key_columns))
            a += len(members)
        compiled.append(CompiledStep(lay, fol, plans, bind, [i for s in fol.slices for i in s]))
        prev_out = lay.output_dims
    return compiled


def _bind_pairs(bind, n_out: int, n_in: int, t: int) -> list[tuple[int, int]]:
    if bind is None:
        if n_out != n_in:
            raise EngineError(
                f"step {t}: previous step exposes {n_out} wires but this one expects "
                f"{n_in}; declare an explicit bind map"
            )
        return [(i, i) for i in range(n_out)]
    if sorted(a for a, _ in bind) != list(range(n_out)) or sorted(b for _, b in bind) != list(range(n_in)):
        raise EngineError(f"step {t}: bind must be a bijection between boundary wires")
    return bind


# --- the history tree ------------------------------------------------------------

class _Conditions(NamedTuple):
    """A step's condition tables under one classical input, over the columns
    of ``step.run``: the one record of which events a node admits, for the
    sampler and the enumerator alike. Column c's admissible events are
    ``subsets[c][subset[c, e]]``, where e is the event index in column
    ``source[c]``: the event its source fired, or, for a node with no fired
    source, its own column, whose row is constant (so -1, before the node
    runs, reads it too)."""

    source: np.ndarray                  # (columns,)
    subset: np.ndarray                  # (columns, most events) subset id per source event
    subsets: list[list[tuple[int, ...]]]  # per column, its distinct admissible subsets
    subset_events: list[np.ndarray]     # per column, (subsets, most events) its subsets, -1 padded
    free: np.ndarray                    # (columns, most events) more than one event admissible

    def subset_ids(self, cols, ev: np.ndarray, offset: int = 0) -> np.ndarray:
        """The subset id of column(s) ``cols`` in each row of event indices
        ``ev``, whose step columns start at ``offset``."""
        return self.subset[cols, ev[:, offset + self.source[cols]]]

    def free_mask(self, ev: np.ndarray, offset: int = 0) -> np.ndarray:
        """Each row's free mask over the step's columns (see ``subset_ids``)."""
        return self.free[np.arange(len(self.source)), ev[:, offset + self.source]]


def _condition_tables(step: CompiledStep, classical_input: str) -> _Conditions:
    """The step's ``_Conditions``, from ``admissible_events`` under every
    event of each node's source. Built once per step and classical input,
    as a function of that key alone."""
    tables = step.conditions.get(classical_input)
    if tables is None:
        lay = step.layout
        width = max((len(node.events) for node in lay.circuit.nodes), default=1)
        source = np.arange(len(step.run))
        subset = np.zeros((len(step.run), width), dtype=np.intp)
        free = np.zeros((len(step.run), width), dtype=bool)
        all_subsets, padded = [], []
        for c, i in enumerate(step.run):
            u = lay.sources[i]  # None: the lookup reads no fired event
            if u is not None:
                source[c] = step.run.index(u)
            by_event = [admissible_events(lay, i, {u: e}, classical_input)
                        for e in (range(len(lay.circuit.nodes[u].events)) if u is not None else [0])]
            subsets = list(dict.fromkeys(by_event))
            subset[c, :len(by_event)] = [subsets.index(a) for a in by_event]
            free[c] = [len(subsets[j]) > 1 for j in subset[c]]
            all_subsets.append(subsets)
            padded.append(np.array([a + (-1,) * (width - len(a)) for a in subsets]))
        tables = step.conditions[classical_input] = _Conditions(source, subset, all_subsets,
                                                                padded, free)
    return tables


def _node_events(c: int, ev: np.ndarray, tables: _Conditions, offset: int = 0):
    """One level of the history tree as event rows: the children of the
    rows ``ev`` of event indices at the node of the step's column ``c``,
    column ``offset + c`` of ``ev``. A row's children are its admissible
    events in the order its condition lists them, parent-major. Returns each
    child's parent row and the children's event indices."""
    admitted = tables.subset_events[c][tables.subset_ids(c, ev, offset)]
    parent, j = np.nonzero(admitted >= 0)
    child_ev = ev[parent]
    child_ev[:, offset + c] = admitted[parent, j]
    return parent, child_ev


def _node_children(step: CompiledStep, c: int, x: np.ndarray, order: list[int], ev: np.ndarray,
                   tables: _Conditions, offset: int = 0):
    """The children of a stack of histories (states ``x`` on a leading
    ``_BATCH`` axis in wire order ``order``) at the node of column ``c``,
    as (states, wire order, event indices); see ``_node_events``. The one
    place that applies a node: each event is applied to all of its rows by
    one stacked ``_apply_slice`` call, which contracts each row alone."""
    i = step.run[c]
    parent, child_ev = _node_events(c, ev, tables, offset)
    events = child_ev[:, offset + c]
    distinct = np.unique(events).tolist()
    out = None
    for e in distinct:
        dest = slice(None) if len(distinct) == 1 else np.flatnonzero(events == e)
        rows = parent[dest]
        y, out_order = _apply_slice(x if len(rows) == len(x) else x[rows], order, step.layout,
                                    [i], {i: e})
        if len(distinct) == 1:  # one event for every child: no copy
            return y, list(out_order), child_ev
        if out is None:
            out = np.empty((len(child_ev), *y.shape[1:]), dtype=y.dtype)
        out[dest] = y
    return out, list(out_order), child_ev


def _slice_candidates(step: CompiledStep, plan: _SlicePlan, ev: np.ndarray,
                      tables: _Conditions) -> _Branches:
    """A slice's joint outcome choices in the context of ``ev``, one path's
    event indices over ``step.run`` (-1 before a node runs), grown node by
    node by ``_node_events``, so in the order of the tree walk's children.
    The slice is deterministic when validation recorded every admissible
    event subset met on the way as summing to the identity."""
    deterministic = True
    for c in range(plan.columns.start, plan.columns.stop):
        deterministic = deterministic and all(
            (step.run[c], tables.subsets[c][j]) in step.layout.deterministic
            for j in set(tables.subset_ids(c, ev).tolist()))
        _, ev = _node_events(c, ev, tables)
    return _Branches(ev[:, plan.columns], deterministic)


def _stacked_operators(step: CompiledStep, s: int, branches: _Branches) -> np.ndarray:
    """The fast path's slice operators of each candidate, stacked to
    broadcast over a batch."""
    if branches.stacked is None:
        nodes = step.slices[s].node_indices
        mats = [_compose(step.foliation, s, s + 1, dict(zip(nodes, row)), MAX_DIM)
                for row in branches.events.tolist()]
        branches.stacked = np.stack(mats)[None] if mats else np.zeros((1, 0, 1, 1), dtype=complex)
    return branches.stacked


# --- trajectories --------------------------------------------------------------

#: Trajectories sampled together by one call of the batch kernel, and
#: histories enumerated together as one chunk. The size bounds memory; it
#: never changes the output.
BATCH_SIZE = 1024

@dataclass
class TrajectoryStep:
    classical_input: str
    outcomes: dict[str, str]          # free choices only (admissible sets > 1)
    weight: float                     # ||O w||^2 conditional on the past
    state: np.ndarray | None = None   # normalized post-step state, output-wire order


@dataclass
class Trajectory:
    seed: int
    index: int
    steps: list[TrajectoryStep]
    probability: float
    final_state: np.ndarray
    state_dims: list[tuple[int, ...]] = field(default_factory=list)

    def outcome_items(self) -> list[tuple[str, str]]:
        """Flat (node, outcome) pairs; step-prefixed for multi-step programs."""
        multi = len(self.steps) > 1
        return [(f"{t}:{k}" if multi else k, v)
                for t, step in enumerate(self.steps) for k, v in step.outcomes.items()]


def _initial_tensor(program: Program, compiled: list[CompiledStep], omega0) -> np.ndarray:
    dims = compiled[0].layout.input_dims
    total = prod(dims)
    if omega0 is None:
        omega0 = program.initial_state
    if omega0 is None:
        if total != 1:
            raise EngineError(
                f"program starts on open wires of total dimension {total}; "
                "provide an initial state"
            )
        omega0 = np.ones(1, dtype=complex)
    omega0 = np.asarray(omega0, dtype=complex).reshape(-1)
    if omega0.size != total:
        raise EngineError(f"initial state has dim {omega0.size}, program expects {total}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the check
        normalized = abs(np.linalg.norm(omega0) - 1.0) <= TAU_NORM
    if not normalized:
        raise EngineError("initial state is not normalized")
    return omega0.reshape(dims)


_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a*b, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    return a_hi * b_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + (mid >> _SHIFT32), a * b


def _trajectory_uniforms(seed: int, start: int, n: int, count: int) -> np.ndarray:
    """Row r holds ``trajectory_rng(seed, start + r).random(count)``, bit for bit.

    numpy's Philox4x64-10 keyed by (seed, index), evaluated for all rows at
    once. Block b of a stream is the cipher of counter (b + 1, 0, 0, 0)
    (numpy increments the counter before the first block) and yields four
    64-bit words in order; each uniform is ``(word >> 11) * 2**-53``. The
    128-bit products of the rounds are assembled from 32-bit halves in
    uint64 arithmetic, which wraps modulo 2**64 as the cipher needs.
    """
    blocks = -(-count // 4)
    k0 = np.full((n, 1), seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    k1 = np.arange(start, start + n, dtype=np.uint64)[:, None]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (n, blocks))
    c1 = c2 = c3 = np.zeros((n, blocks), dtype=np.uint64)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=2).reshape(n, 4 * blocks)[:, :count]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _groups(path: np.ndarray, n_paths: int) -> list[tuple[int, np.ndarray | slice]]:
    """(path id, rows) for each of the path ids 0 .. n_paths - 1, all of
    which occur; rows is ``slice(None)`` while a single path holds them all."""
    if n_paths == 1:
        return [(0, slice(None))]
    order = np.argsort(path, kind="stable")
    bounds = np.searchsorted(path[order], np.arange(n_paths + 1)).tolist()
    return [(p, order[bounds[p]:bounds[p + 1]]) for p in range(n_paths)]


def _pick_branches(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of (finite, nonnegative) branch weights, the inverse-CDF pick
    for uniform ``u`` among the branches heavier than ZERO_BRANCH."""
    cum = np.add.accumulate(weights * (weights > ZERO_BRANCH), axis=1)
    if 0.0 in cum[:, -1].tolist():
        raise EngineError("all outcome branches of a slice have zero weight")
    # Not counting the last column clips the pick to the last branch.
    return np.add.reduce(cum[:, :-1] <= u[:, None] * cum[:, -1:], axis=1)


def _norms(x: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a stack, ``np.vdot(row, row).real``
    bit for bit (both read a row in C order), from one stacked product."""
    rows = x.reshape(len(x), 1, -1)
    return np.matmul(rows.conj(), rows.transpose(0, 2, 1)).real.reshape(len(x))


#: The longest inner dimension one gemm of ``_contract_rows`` is given.
#: OpenBLAS 0.3.31 cuts a longer one into blocks, and its threaded and
#: serial gemm cut it differently (seen at two threads for 128 < d_in <
#: 255), so a row's bits would depend on whether its product ran threaded,
#: that is, on how many rows share it.
_GEMM_DEPTH = 128


def _contract_rows(x: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """Each row of ``x`` (m, d_in) under every operator of a (1, k, d_out,
    d_in) stack, as (m, k * d_out): one row-oriented gemm per ``_GEMM_DEPTH``
    columns of ``x``, summed in column order. A row's bits then do not
    depend on which other rows share the product, a BLAS property that
    ``test_gemm_rows_keep_their_bits`` pins. A single row would go through
    gemv, which does not keep them, so it is padded to two."""
    if len(x) == 1:
        return _contract_rows(x.repeat(2, axis=0), stacked)[:1]
    ops = stacked.reshape(-1, stacked.shape[-1])
    out = x[:, :_GEMM_DEPTH] @ ops[:, :_GEMM_DEPTH].T
    for a in range(_GEMM_DEPTH, ops.shape[1], _GEMM_DEPTH):
        out += x[:, a:a + _GEMM_DEPTH] @ ops[:, a:a + _GEMM_DEPTH].T
    return out


def _sample_slices(step: CompiledStep, state: np.ndarray, classical_input: str,
                   uniforms: np.ndarray):
    """The batch kernel: sample every slice of one circuit step for a batch.

    ``state`` is (n, d) on the step's input wires in canonical order;
    ``uniforms`` is (n, len(step.slices)), one draw per slice. Rows that
    made the same choices so far share an integer path id, and each path is
    a row of event indices over ``step.run``. A slice's rows are grouped by
    context key, read from the step's condition tables, whichever path
    brought them there (a slice with no key columns has one key): each
    group's candidates are looked up once, and its picks, normalisation and
    weight check run once. The fast path contracts a group's rows with all
    its candidates' operators in one gemm per ``_GEMM_DEPTH`` columns,
    padding a single row to two; a row's bits then do not depend on its
    batch, by a BLAS property that ``test_gemm_rows_keep_their_bits`` pins
    (see ``_contract_rows``). The tensor path walks the slice node by node
    over the group's rows with ``_node_children``, the enumerator's kernel:
    every row has the key's candidates as its children, in their order, and
    each row is contracted alone. New path ids number the (old path, picked
    candidate) pairs in order. Returns (path id per row, event indices and
    free mask per path over ``step.run``, (n, d_out) normalized states in
    output-wire order, step weight per row).
    """
    lay = step.layout
    tables = _condition_tables(step, classical_input)
    n = len(state)
    state = state.reshape((n, *lay.input_dims))
    order = [_BATCH, *lay.input_wires]
    path = np.zeros(n, dtype=np.intp)
    ev = np.full((1, len(step.run)), -1, dtype=np.intp)  # per path; -1 before a node runs
    weight = np.ones(n)
    for s, plan in enumerate(step.slices):
        # each path's context key, as subset ids of the key columns, numbered
        # in order of first appearance
        cols = list(plan.key_columns)
        if cols:
            keys: dict[tuple[int, ...], int] = {}
            code = np.array([keys.setdefault(ids, len(keys)) for ids in map(
                tuple, tables.subset_ids(cols, ev).tolist())], dtype=np.intp)
        else:
            keys, code = {(): 0}, np.zeros(len(ev), dtype=np.intp)
        pick = np.empty(n, dtype=np.intp)
        out, w = np.empty((n, prod(plan.out_dims)), dtype=complex), np.empty(n)
        if plan.fast:
            x_all = _reorder(state, order, [_BATCH, *step.foliation.leaves[s]]).reshape(n, -1)
            out_order, out_shape = [_BATCH, *step.foliation.leaves[s + 1]], plan.out_dims
        cand_events = []
        for (ids, g), (_, rows) in zip(keys.items(), _groups(code[path], len(keys))):
            key = tuple([tables.subsets[c][j] for c, j in zip(cols, ids)])
            branches = plan.branches.get(key)
            if branches is None:  # any path with the key: the key alone fixes the candidates
                p = code.tolist().index(g)
                branches = plan.branches[key] = _slice_candidates(step, plan, ev[p:p + 1], tables)
            u = uniforms[rows, s]
            m, k = len(u), len(branches.events)
            if plan.fast:
                amps = _contract_rows(x_all[rows], _stacked_operators(step, s, branches))
                amps = amps.reshape(m * k, -1)
                weights = np.empty(m * k)
                for a in range(0, m * k, 256):  # a conjugated copy of 256 rows at a time, same bits
                    block = amps[a:a + 256]
                    weights[a:a + 256] = np.einsum("ij,ij->i", block.conj(), block).real
                weights, amps = weights.reshape(m, k), amps.reshape(m, k, -1)
            else:
                x, out_order, e = state[rows], order, ev[path[rows]]
                for c in range(plan.columns.start, plan.columns.stop):
                    x, out_order, e = _node_children(step, c, x, out_order, e, tables)
                out_shape = x.shape[1:]
                weights, amps = _norms(x).reshape(m, k), x.reshape(m, k, -1)
            idx = _pick_branches(weights, u)
            _check_slice_total(branches, weights)
            pos = np.arange(m)
            w_rows = weights[pos, idx]
            out[rows], w[rows], pick[rows] = amps[pos, idx] / np.sqrt(w_rows)[:, None], w_rows, idx
            cand_events.append(branches.events)
        # New path ids in (old path, pick) order; each new path extends its
        # old one by the picked candidate of the old path's context key.
        k_max = max(len(e) for e in cand_events)
        pairs, path = np.unique(path * k_max + pick, return_inverse=True)
        parent, cand = np.divmod(pairs, k_max)
        picked = np.zeros((len(cand_events), k_max, len(plan.node_indices)), dtype=np.intp)
        for g, e in enumerate(cand_events):
            picked[g, :len(e)] = e
        ev = ev[parent]
        ev[:, plan.columns] = picked[code[parent], cand]
        state, order = out.reshape((n, *out_shape)), out_order
        weight = weight * w
    state = _reorder(state, order, [_BATCH, *lay.output_wires]).reshape(n, -1)
    return path, ev, tables.free_mask(ev), state, weight


def _check_slice_total(branches: _Branches, weights: np.ndarray) -> None:
    """Deterministic coarse-graining must conserve total branch weight.
    ``weights`` holds one row of branch weights per trajectory."""
    if branches.deterministic:
        totals = np.add.reduce(weights, axis=1)
        failed = np.abs(totals - 1.0) > 1e-6  # a NaN total compares False and passes
        if failed.any():
            raise EngineError(
                f"slice outcome weights sum to {float(totals[failed.argmax()]):.9f} for a "
                "deterministic test (inconsistent events)"
            )


def _apply_bind(state: np.ndarray, bind: list[tuple[int, int]]) -> np.ndarray:
    """Route a step's output tensor onto the next step's inputs along the
    step's checked bind pairs; axes before the wire axes (a batch axis)
    stay in front."""
    lead = state.ndim - len(bind)
    axes = [0] * len(bind)
    for a, b in bind:
        axes[b] = lead + a
    return state.transpose([*range(lead), *axes])


@dataclass
class TrajectoryBatch:
    """Trajectories ``start .. start + n - 1`` of one seeded run, as arrays.

    Row r's history, the record ``enumerate_histories`` walks too, is row
    ``path[r]`` of ``events`` and ``free`` over the columns of ``_walk``:
    each node's event index, and whether it had more than one admissible
    event. ``states`` holds one (n, d) array of normalized post-step states
    per step when states are stored, else only the final one.
    """

    start: int
    path: np.ndarray           # (n,) row index into ``events`` and ``free``
    events: np.ndarray         # (paths, columns) event indices
    free: np.ndarray           # (paths, columns) free mask
    weights: list[np.ndarray]  # per step: (n,) conditional weights
    probability: np.ndarray    # (n,)
    states: list[np.ndarray]


def _sample_batch(compiled: list[CompiledStep], state0: np.ndarray, inputs: list[str],
                  uniforms: np.ndarray, start: int, store_states: bool) -> TrajectoryBatch:
    n = len(uniforms)
    state = state0.reshape(1, -1).repeat(n, axis=0)
    dims = compiled[0].layout.input_dims
    path = np.zeros(n, dtype=np.intp)
    events, free = np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0), dtype=bool)
    prob = np.ones(n)
    weights, states = [], []
    col = 0
    for t, step in enumerate(compiled):
        state = _apply_bind(state.reshape((n, *dims)), step.bind).reshape(n, -1)
        step_path, step_events, step_free, state, weight = _sample_slices(
            step, state, inputs[t], uniforms[:, col:col + len(step.slices)]
        )
        col += len(step.slices)
        dims = step.layout.output_dims
        prob = prob * weight  # step weights multiply in step order
        weights.append(weight)
        ids, path = np.unique(path * len(step_events) + step_path, return_inverse=True)
        before, now = np.divmod(ids, len(step_events))
        events = np.concatenate([events[before], step_events[now]], axis=1)
        free = np.concatenate([free[before], step_free[now]], axis=1)
        if store_states:
            states.append(state)
    return TrajectoryBatch(start, path, events, free, weights, prob,
                           states if store_states else [state])


def _padded_inputs(inputs, compiled: list[CompiledStep]) -> list[str]:
    """One classical input per step, missing ones "0". Surplus inputs raise,
    and so does an input that an ``@input``-conditioned node has no entry
    for, when the step's condition tables are built."""
    inputs = list(inputs) if inputs else []
    if len(inputs) > len(compiled):
        raise EngineError(f"got {len(inputs)} classical inputs for a {len(compiled)}-step program")
    inputs += ["0"] * (len(compiled) - len(inputs))
    for step, classical_input in zip(compiled, inputs):
        _condition_tables(step, classical_input)
    return inputs


def sample_batches(program: Program, indices: range, seed: int = 0, *, omega0=None,
                   inputs: list[str] | None = None, store_states: bool = False,
                   compiled: list[CompiledStep]) -> Iterator[TrajectoryBatch]:
    """Trajectories ``indices``, a range of step 1, in batches of at most
    ``BATCH_SIZE``: the one path from a program to sampled trajectories.

    Trajectory i draws its uniforms from ``trajectory_rng(seed, i)``, so it
    is the same bit for bit whatever batch or range holds it. Surplus
    inputs, an input that an ``@input``-conditioned node has no entry for,
    and a bad initial state raise here, before any batch.
    """
    if indices.step != 1 or indices.start < 0 or indices.stop > 2 ** 64:  # a stream key is a uint64
        raise EngineError(f"trajectory indices must be a range of step 1 in 0 .. 2**64, "
                          f"got {indices}")
    inputs = _padded_inputs(inputs, compiled)
    state0 = _initial_tensor(program, compiled, omega0)
    slices = sum(len(step.slices) for step in compiled)
    return (_sample_batch(compiled, state0, inputs,
                          _trajectory_uniforms(seed, start, min(BATCH_SIZE, indices.stop - start),
                                               slices),
                          start, store_states)
            for start in indices[::BATCH_SIZE])


def _run(program: Program | Circuit, indices: range, seed: int, omega0, inputs: list[str] | None,
         store_states: bool, compiled: list[CompiledStep] | None, max_dim: int) -> list[Trajectory]:
    """Trajectories ``indices``, sampled by ``sample_batches``, as ``Trajectory`` objects."""
    if isinstance(program, Circuit):
        program = Program.single(program)
    if compiled is None:
        compiled = compile_program(program, max_dim=max_dim)
    inputs = _padded_inputs(inputs, compiled)
    dims = [step.layout.output_dims for step in compiled]
    # A step's own outcomes are labelled as the history of a one-step program.
    bounds = [0, *itertools.accumulate(len(step.run) for step in compiled)]
    labels = [_history_labels(_walk([step]), tuple, lambda k: functools.partial(map, dict))
              for step in compiled]
    result = []
    for batch in sample_batches(program, indices, seed, omega0=omega0, inputs=inputs,
                                store_states=store_states, compiled=compiled):
        outcomes = list(zip(*(label(batch.events[:, a:b], batch.free[:, a:b])
                              for label, a, b in zip(labels, bounds, bounds[1:]))))
        weights = [w.tolist() for w in batch.weights]
        for r, (p, prob) in enumerate(zip(batch.path.tolist(), batch.probability.tolist())):
            steps = [TrajectoryStep(inputs[t], dict(step_outcomes), weights[t][r],
                                    batch.states[t][r].copy() if store_states else None)
                     for t, step_outcomes in enumerate(outcomes[p])]
            # With stored states the last step's copy is the final state; a row
            # view would keep the whole batch array alive.
            final = steps[-1].state if store_states else batch.states[-1][r]
            result.append(Trajectory(seed, batch.start + r, steps, prob, final, list(dims)))
    return result


def run_trajectory(
    program: Program | Circuit,
    omega0=None,
    inputs: list[str] | None = None,
    seed: int = 0,
    *,
    index: int = 0,
    store_states: bool = False,
    compiled: list[CompiledStep] | None = None,
    max_dim: int = MAX_DIM,
) -> Trajectory:
    """Sample trajectory ``index``: one full outcome history through a program.

    Identical (program, seed, index) always reproduce the same trajectory.
    The product of step weights equals the squared norm of the compiled
    history operator applied to the initial state.
    """
    return _run(program, range(index, index + 1), seed, omega0, inputs, store_states,
                compiled, max_dim)[0]


def run_trajectories(
    program: Program | Circuit,
    count: int,
    seed: int = 0,
    *,
    omega0=None,
    inputs: list[str] | None = None,
    store_states: bool = False,
    compiled: list[CompiledStep] | None = None,
    max_dim: int = MAX_DIM,
) -> list[Trajectory]:
    """Sample trajectories 0 .. count - 1 with per-index RNG streams.

    Trajectory i equals ``run_trajectory(program, omega0, inputs, seed,
    index=i)`` field by field and bit for bit; trajectories are sampled
    ``BATCH_SIZE`` at a time, and the batch size never changes a result.
    """
    return _run(program, range(count), seed, omega0, inputs, store_states, compiled, max_dim)


# --- exhaustive enumeration -----------------------------------------------------

def _history_count(compiled: list[CompiledStep], inputs: list[str]) -> int:
    """The number of histories, from the condition tables alone: a step's
    are counted up its forest of conditioning edges, and steps multiply."""
    total = 1
    for step, classical_input in zip(compiled, inputs):
        lay = step.layout
        tables = _condition_tables(step, classical_input)
        # ways[i][e]: how the nodes hanging on node i can fire once i fired e;
        # the last entry is the step root's
        ways = [[1] * len(node.events) for node in lay.circuit.nodes] + [[1]]
        for c in reversed(range(len(step.run))):  # sources run first
            i = step.run[c]
            source = -1 if lay.sources[i] is None else lay.sources[i]
            for u, j in enumerate(tables.subset[c, :len(ways[source])].tolist()):
                ways[source][u] *= sum(ways[i][e] for e in tables.subsets[c][j])
        total *= ways[-1][0]
    return total


def _walk(compiled: list[CompiledStep]) -> list[tuple[str, list[str]]]:
    """A history record's columns, (node label, its events' outcomes), one
    per node of each step in run order; ``t:``-prefixed in multi-step programs."""
    multi = len(compiled) > 1
    return [(f"{t}:{n.label}" if multi else n.label, [e.outcome for e in n.events])
            for t, step in enumerate(compiled)
            for n in map(step.layout.circuit.nodes.__getitem__, step.run)]


def _history_chunks(program: Program | Circuit, omega0=None, inputs: list[str] | None = None, *,
                    cap: int = DEFAULT_HISTORY_CAP, max_dim: int = MAX_DIM):
    """``enumerate_histories`` as arrays: ``(walk, chunks)``. Every check,
    HistoryCapExceeded's included, is made first; the histories are counted
    from the condition tables, with no linear algebra.

    The tree has one level per node in each step's run order, and one column
    of ``walk = _walk(compiled)``. It is walked level by level over chunks
    of at most ``BATCH_SIZE`` histories, depth first over chunks, so memory
    is bounded by ``BATCH_SIZE`` and the depth of the tree. A chunk's states
    are stacked on a leading ``_BATCH`` axis, and ``_node_children`` makes
    each level, reading admissibility from the steps' condition tables: one
    stacked ``_apply_slice`` call applies an event to every row that admits
    it, with the bits of a walk one history at a time. ``chunks`` yields, in
    history order and pieces of at most 256 rows, the event indices per
    column, the free mask (see ``TrajectoryBatch``), read from the same
    tables at the leaf, and probabilities.
    """
    if isinstance(program, Circuit):
        program = Program.single(program)
    compiled = compile_program(program, max_dim=max_dim)
    inputs = _padded_inputs(inputs, compiled)
    state0 = _initial_tensor(program, compiled, omega0)
    if _history_count(compiled, inputs) > cap:
        raise HistoryCapExceeded(f"more than {cap} histories")
    walk = _walk(compiled)
    offsets = [0, *itertools.accumulate(len(step.run) for step in compiled)]
    tables = [_condition_tables(step, classical_input)
              for step, classical_input in zip(compiled, inputs)]
    kind = np.min_scalar_type(-max((len(o) for _, o in walk), default=1))  # holds -1 and every event

    def chunks():
        # Chunks still to walk, the next one last: (step, nodes of the step
        # applied, wire order, stacked states, event indices).
        stack = [(0, 0, [_BATCH, *compiled[0].layout.input_wires], state0[None],
                  np.full((1, len(walk)), -1, dtype=kind))]
        while stack:
            t, k, order, x, ev = stack.pop()
            step = compiled[t]
            if k < len(step.run):
                x, order, ev = _node_children(step, k, x, order, ev, tables[t], offsets[t])
                split = len(x) > BATCH_SIZE  # then pieces are copies: none keeps the others alive
                for a in reversed(range(0, len(x), BATCH_SIZE)):
                    rows = slice(a, a + BATCH_SIZE)
                    stack.append((t, k + 1, order, *(v[rows].copy() if split else v[rows]
                                                     for v in (x, ev))))
                continue
            x = _reorder(x, order, [_BATCH, *step.layout.output_wires])
            if t + 1 < len(compiled):
                nxt = compiled[t + 1]
                stack.append((t + 1, 0, [_BATCH, *nxt.layout.input_wires], _apply_bind(x, nxt.bind),
                              ev))
                continue
            free = np.concatenate([tab.free_mask(ev, a) for tab, a in zip(tables, offsets)], axis=1)
            p = _norms(x)
            for a in range(0, len(p), 256):  # small pieces keep a consumer's texts small
                yield ev[a:a + 256], free[a:a + 256], p[a:a + 256]

    return walk, chunks()


def _history_labels(walk, item, join):
    """A function of a chunk's (event indices, free mask) giving its rows'
    labels: ``join(k)`` maps the tuples of k items of rows' free choices, in
    walk order, to their labels. An item, ``item((label, outcome))``, is
    made once per (column, event). Rows are grouped by an integer code of
    their packed free mask."""
    table = functools.cache(lambda c: np.fromiter(
        (item((walk[c][0], outcome)) for outcome in walk[c][1]), dtype=object))

    def labels(ev: np.ndarray, free: np.ndarray) -> list:
        cols = np.flatnonzero(free.any(axis=0))
        code, first = np.zeros(len(ev), dtype=np.int64), [0]
        for byte in np.packbits(free[:, cols], axis=1).T:  # compacted byte by byte: no overflow
            _, first, code = np.unique(code * 256 + byte, return_index=True, return_inverse=True)
        out, order = [], []
        for g, rows in _groups(code, len(first)):
            parts = [table(c)[ev[rows, c]].tolist() for c in cols[free[first[g], cols]].tolist()]
            out += join(len(parts))(zip(*parts) if parts else [()] * len(ev[rows]))
            order.append(rows)
        if len(order) > 1:  # back to row order
            out = list(map(out.__getitem__, np.argsort(np.concatenate(order)).tolist()))
        return out

    return labels


def enumerate_histories(
    program: Program | Circuit,
    omega0=None,
    inputs: list[str] | None = None,
    *,
    cap: int = DEFAULT_HISTORY_CAP,
    max_dim: int = MAX_DIM,
) -> list[tuple[tuple[tuple[str, str], ...], float]]:
    """All outcome histories with their exact probabilities ||Omega w0||^2,
    depth first (see ``_history_chunks``).

    A node's children in the history tree are its admissible events. A
    history is the record a ``TrajectoryBatch`` row holds, keyed at the leaf
    by ``_history_labels`` as ``run`` labels its outcomes. Raises
    HistoryCapExceeded when the count passes ``cap``, before any linear
    algebra.
    """
    walk, chunks = _history_chunks(program, omega0, inputs, cap=cap, max_dim=max_dim)
    keys = _history_labels(walk, tuple, lambda k: list)
    return [history for ev, free, p in chunks for history in zip(keys(ev, free), p.tolist())]
