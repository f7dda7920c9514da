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

import json
from dataclasses import dataclass, field
from math import prod
from pathlib import Path

import numpy as np

from . import jsonio
from .circuit import (
    Circuit,
    CircuitError,
    CircuitLayout,
    INPUT_SOURCE,
    _decode_circuit,
    circuit_from_dict,
    layout as circuit_layout,
)
from .foliation import (
    Foliation,
    admissible_event_indices,
    compile_history,
    compile_slice,
    foliate,
)
from .linalg import MAX_DIM
from .quantum import COMPLETENESS_TOL, gram_identity_defect

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
        bind = [tuple(p) for p in sd["bind"]] if sd.get("bind") else None
        steps.append(ProgramStep(circ, bind))
    init = None
    if doc.get("initial_state") is not None:
        init = jsonio.decode_vector(doc["initial_state"])
    return Program(str(doc.get("name", "program")), steps, init)


def load_run_spec(path) -> Program:
    """Load a circuit or program file; circuits become one-step programs.

    Circuits are decoded, not validated: ``compile_program`` validates each
    step once.
    """
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if doc.get("kind") == "program" or "steps" in doc:
            return program_from_dict(doc, base_dir=path.parent)
    return Program.single(_decode_circuit(text))


# --- compiled execution plan --------------------------------------------------

@dataclass
class _SlicePlan:
    node_indices: list[int]           # topo order within the slice
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    fast: bool
    # fast path: context key -> (outcome label updates, stacked operators)
    compiled: dict = field(default_factory=dict)
    det_cache: dict = field(default_factory=dict)


@dataclass
class CompiledStep:
    layout: CircuitLayout
    foliation: Foliation
    slices: list[_SlicePlan]
    bind: list[tuple[int, int]] | None


def compile_program(program: Program, *, max_dim: int = MAX_DIM,
                    fast_dim: int = FAST_PATH_MAX_DIM) -> list[CompiledStep]:
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
        if prod(lay.input_dims) > max_dim or prod(lay.output_dims) > max_dim:
            raise EngineError(f"step {t}: boundary dimension exceeds cap {max_dim}")
        in_dims = lay.input_dims
        if prev_out is not None:
            bound = _bind_pairs(step.bind, len(prev_out), len(in_dims), t)
            for a, b in bound:
                if prev_out[a] != in_dims[b]:
                    raise EngineError(
                        f"step {t}: bind maps a dim-{prev_out[a]} output onto a "
                        f"dim-{in_dims[b]} input"
                    )
        fol = foliate(lay, "asap")
        plans = []
        for s, members in enumerate(fol.slices):
            topo_members = [i for i in lay.topo_order if i in members]
            fast = (
                prod(fol.leaf_dims(s)) <= fast_dim
                and prod(fol.leaf_dims(s + 1)) <= fast_dim
            )
            plans.append(_SlicePlan(topo_members, fol.leaf_dims(s), fol.leaf_dims(s + 1), fast))
        compiled.append(CompiledStep(lay, fol, plans, step.bind))
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
    pairs = [(int(a), int(b)) for a, b in bind]
    if sorted(a for a, _ in pairs) != list(range(n_out)) or sorted(b for _, b in pairs) != list(range(n_in)):
        raise EngineError(f"step {t}: bind must be a bijection between boundary wires")
    return pairs


# --- slice candidates ---------------------------------------------------------

def _slice_candidates(plan: _SlicePlan, lay: CircuitLayout, chosen: dict[str, str],
                      classical_input: str) -> list[dict[str, str]]:
    """All joint outcome choices of a slice, honoring conditioning.

    Each candidate maps node label -> outcome label for every node of the
    slice (including forced singletons, which are not free choices).
    """
    candidates: list[dict[str, str]] = [{}]
    for i in plan.node_indices:
        node = lay.circuit.nodes[i]
        grown = []
        for cand in candidates:
            if node.condition is None:
                src_outcome = None
            elif node.condition.source == INPUT_SOURCE:
                src_outcome = classical_input
            else:
                src_outcome = cand.get(node.condition.source, chosen.get(node.condition.source))
            for idx in admissible_event_indices(node, src_outcome):
                nxt = dict(cand)
                nxt[node.label] = node.events[idx].outcome
                grown.append(nxt)
        candidates = grown
    return candidates


def _context_key(plan: _SlicePlan, lay: CircuitLayout, chosen: dict[str, str],
                 classical_input: str) -> tuple:
    members = {lay.circuit.nodes[i].label for i in plan.node_indices}
    key = []
    for i in plan.node_indices:
        node = lay.circuit.nodes[i]
        if node.condition is None:
            continue
        if node.condition.source == INPUT_SOURCE:
            key.append((INPUT_SOURCE, classical_input))
        elif node.condition.source not in members:
            key.append((node.condition.source, chosen[node.condition.source]))
    return tuple(key)


def _compiled_candidates(step: CompiledStep, s: int, key: tuple, chosen: dict[str, str],
                         classical_input: str):
    """(candidate outcome dicts, stacked slice operators) on the fast path."""
    plan = step.slices[s]
    hit = plan.compiled.get(key)
    if hit is not None:
        return hit
    cands = _slice_candidates(plan, step.layout, chosen, classical_input)
    mats = []
    for cand in cands:
        resolved_full = dict(chosen)
        resolved_full.update(cand)
        # compile_slice needs event indices for the slice's nodes only.
        resolved_idx = {
            lbl: step.layout.circuit.node(lbl).event_index(out)
            for lbl, out in resolved_full.items()
        }
        mats.append(compile_slice(step.foliation, s, resolved=resolved_idx))
    stacked = np.stack(mats) if mats else np.zeros((0, 1, 1), dtype=complex)
    plan.compiled[key] = (cands, stacked)
    return cands, stacked


# --- tensor-path application --------------------------------------------------

def _apply_nodes_tensor(state: np.ndarray, order: list[int], lay: CircuitLayout,
                        node_indices: list[int], events: dict[str, str]) -> tuple[np.ndarray, list[int]]:
    """Apply one slice's events to a state tensor indexed by wire order."""
    dims_of = {w.index: w.dim for w in lay.wires}
    for i in node_indices:
        node = lay.circuit.nodes[i]
        op = node.events[node.event_index(events[node.label])].operators[0]
        in_wires = lay.node_in_wires[i]
        out_wires = lay.node_out_wires[i]
        out_dims = tuple(dims_of[w] for w in out_wires)
        in_dims = tuple(dims_of[w] for w in in_wires)
        k = op.reshape(out_dims + in_dims)
        pos = [order.index(w) for w in in_wires]
        state = np.tensordot(k, state, axes=(list(range(len(out_dims), k.ndim)), pos))
        order = list(out_wires) + [w for w in order if w not in in_wires]
    return state, order


def _reorder_tensor(state: np.ndarray, order: list[int], target: list[int]) -> np.ndarray:
    if order == target:
        return state
    axes = [order.index(w) for w in target]
    return state.transpose(axes)


# --- trajectories --------------------------------------------------------------

@dataclass
class TrajectoryStep:
    classical_input: str
    outcomes: dict[str, str]          # free choices only (admissible sets > 1)
    weight: float                     # ||O w||^2 conditional on the past
    state: np.ndarray | None = None   # normalized post-step state, output-wire order
    operator: np.ndarray | None = None


@dataclass
class Trajectory:
    seed: int
    index: int
    steps: list[TrajectoryStep]
    probability: float
    final_state: np.ndarray
    state_dims: list[tuple[int, ...]] = field(default_factory=list)

    def outcome_items(self) -> list[tuple[str, str]]:
        items: list[tuple[str, str]] = []
        for t, s in enumerate(self.steps):
            items += [(f"{t}:{k}" if len(self.steps) > 1 else k, v) for k, v in s.outcomes.items()]
        return items


def _initial_tensor(program: Program, compiled: list[CompiledStep], omega0) -> tuple[np.ndarray, list[int]]:
    lay0 = compiled[0].layout
    dims = lay0.input_dims
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
    if abs(np.linalg.norm(omega0) - 1.0) > 1e-9:
        raise EngineError("initial state is not normalized")
    return omega0.reshape(dims), list(lay0.input_wires)


def _free_choices(plan: _SlicePlan, lay: CircuitLayout, cand: dict[str, str],
                  chosen: dict[str, str], classical_input: str) -> dict[str, str]:
    free = {}
    for i in plan.node_indices:
        node = lay.circuit.nodes[i]
        if node.condition is None:
            src = None
        elif node.condition.source == INPUT_SOURCE:
            src = classical_input
        else:
            src = cand.get(node.condition.source, chosen.get(node.condition.source))
        if len(admissible_event_indices(node, src)) > 1:
            free[node.label] = cand[node.label]
    return free


def sample_step(step: CompiledStep, omega: np.ndarray, classical_input: str,
                rng: np.random.Generator) -> tuple[dict[str, str], np.ndarray, float]:
    """Sample one circuit step: (free outcomes, normalized next state, weight).

    ``omega`` is a flat normalized vector on the step's input wires in
    canonical order; the result state is on the output wires likewise.
    """
    lay = step.layout
    chosen: dict[str, str] = {}
    free: dict[str, str] = {}
    weight = 1.0
    state = omega.reshape(lay.input_dims)
    order = list(lay.input_wires)
    for s, plan in enumerate(step.slices):
        key = _context_key(plan, lay, chosen, classical_input)
        if plan.fast:
            cands, stacked = _compiled_candidates(step, s, key, chosen, classical_input)
            flat = _reorder_tensor(state, order, list(step.foliation.leaves[s])).reshape(-1)
            amps = stacked @ flat
            weights = np.einsum("ij,ij->i", amps.conj(), amps).real
            idx = _draw(weights, rng)
            cand = cands[idx]
            w = float(weights[idx])
            state = (amps[idx] / np.sqrt(w)).reshape(plan.out_dims)
            order = list(step.foliation.leaves[s + 1])
        else:
            cands = _slice_candidates(plan, lay, chosen, classical_input)
            results = []
            weights_list = []
            for cand_i in cands:
                t, o = _apply_nodes_tensor(state, order, lay, plan.node_indices, cand_i)
                results.append((t, o))
                weights_list.append(float(np.real(np.vdot(t, t))))
            weights = np.array(weights_list)
            idx = _draw(weights, rng)
            cand = cands[idx]
            w = float(weights[idx])
            state, order = results[idx]
            state = state / np.sqrt(w)
        _check_slice_total(plan, lay, key, cands, chosen, weights, classical_input)
        free.update(_free_choices(plan, lay, cand, chosen, classical_input))
        chosen.update(cand)
        weight *= w
    state = _reorder_tensor(state, order, list(lay.output_wires))
    return free, state.reshape(-1), weight


def _draw(weights: np.ndarray, rng: np.random.Generator) -> int:
    support = weights > ZERO_BRANCH
    if not support.any():
        raise EngineError("all outcome branches of a slice have zero weight")
    w = np.where(support, weights, 0.0)
    cum = np.cumsum(w)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right").clip(0, len(w) - 1))


def _check_slice_total(plan, lay, key, cands, chosen, weights, classical_input) -> None:
    """Deterministic coarse-graining must conserve total branch weight.

    A slice is deterministic when, along every candidate branch, each of
    its nodes' admissible event subsets sums to the identity.
    """
    det = plan.det_cache.get(key)
    if det is None:
        det = True
        members = {lay.circuit.nodes[i].label for i in plan.node_indices}
        for i in plan.node_indices:
            node = lay.circuit.nodes[i]
            if node.condition is None:
                contexts = {None}
            elif node.condition.source == INPUT_SOURCE:
                contexts = {classical_input}
            elif node.condition.source in members:
                contexts = {cand[node.condition.source] for cand in cands}
            else:
                contexts = {chosen[node.condition.source]}
            for src in contexts:
                idxs = admissible_event_indices(node, src)
                ops = [k for j in idxs for k in node.events[j].operators]
                if gram_identity_defect(ops) > COMPLETENESS_TOL:
                    det = False
                    break
            if not det:
                break
        plan.det_cache[key] = det
    if det and abs(float(weights.sum()) - 1.0) > 1e-6:
        raise EngineError(
            f"slice outcome weights sum to {float(weights.sum()):.9f} for a "
            "deterministic test (inconsistent events)"
        )


def _apply_bind(state: np.ndarray, bind: list[tuple[int, int]] | None,
                n_out: int, n_in: int, t: int) -> np.ndarray:
    pairs = _bind_pairs(bind, n_out, n_in, t)
    axes = [0] * n_in
    for a, b in pairs:
        axes[b] = a
    return state.transpose(axes) if n_in else state


def run_trajectory(
    program: Program | Circuit,
    omega0=None,
    inputs: list[str] | None = None,
    seed: int = 0,
    *,
    index: int = 0,
    store_states: bool = False,
    store_operators: bool = False,
    compiled: list[CompiledStep] | None = None,
    max_dim: int = MAX_DIM,
) -> Trajectory:
    """Sample one full outcome history through a program.

    Identical (program, seed, index) always reproduce the same trajectory.
    The product of step weights equals the squared norm of the compiled
    history operator applied to the initial state.
    """
    if isinstance(program, Circuit):
        program = Program.single(program)
    if compiled is None:
        compiled = compile_program(program, max_dim=max_dim)
    inputs = list(inputs) if inputs else []
    if len(inputs) < len(compiled):
        inputs += ["0"] * (len(compiled) - len(inputs))
    rng = trajectory_rng(seed, index)
    state_t, order = _initial_tensor(program, compiled, omega0)
    state = state_t.reshape(-1)
    steps: list[TrajectoryStep] = []
    dims_log: list[tuple[int, ...]] = []
    prob = 1.0
    prev_dims: tuple[int, ...] | None = None
    for t, step in enumerate(compiled):
        if prev_dims is not None:
            state = _apply_bind(
                state.reshape(prev_dims), step.bind,
                len(prev_dims), len(step.layout.input_dims), t,
            ).reshape(-1)
        free, state, weight = sample_step(step, state, inputs[t], rng)
        prob *= weight
        rec = TrajectoryStep(inputs[t], free, weight)
        if store_states:
            rec.state = state.copy()
        if store_operators:
            chosen = dict(free)
            rec.operator = compile_history(
                step.foliation, chosen, classical_input=inputs[t], max_dim=max_dim
            ).operator
        steps.append(rec)
        prev_dims = step.layout.output_dims
        dims_log.append(step.layout.output_dims)
    return Trajectory(seed, index, steps, prob, state, dims_log)


def run_trajectories(program, count: int, seed: int = 0, **kwargs) -> list[Trajectory]:
    """Sample ``count`` independent trajectories with per-index RNG streams."""
    if isinstance(program, Circuit):
        program = Program.single(program)
    compiled = kwargs.pop("compiled", None) or compile_program(
        program, max_dim=kwargs.get("max_dim", MAX_DIM)
    )
    return [
        run_trajectory(program, seed=seed, index=i, compiled=compiled, **kwargs)
        for i in range(count)
    ]


# --- exhaustive enumeration -----------------------------------------------------

def enumerate_histories(
    program: Program | Circuit,
    omega0=None,
    inputs: list[str] | None = None,
    *,
    cap: int = DEFAULT_HISTORY_CAP,
    max_dim: int = MAX_DIM,
) -> list[tuple[tuple[tuple[str, str], ...], float]]:
    """All outcome histories with their exact probabilities ||Omega w0||^2.

    History keys are ((node, outcome), ...) over free choices, prefixed by
    the step index for multi-step programs. Raises HistoryCapExceeded when
    the combinatorial count passes ``cap``.
    """
    if isinstance(program, Circuit):
        program = Program.single(program)
    compiled = compile_program(program, max_dim=max_dim)
    inputs = list(inputs) if inputs else []
    if len(inputs) < len(compiled):
        inputs += ["0"] * (len(compiled) - len(inputs))
    state0, _ = _initial_tensor(program, compiled, omega0)
    results: list[tuple[tuple[tuple[str, str], ...], float]] = []
    count = [0]

    def recurse_step(t: int, state: np.ndarray, key: tuple):
        if t == len(compiled):
            results.append((key, float(np.real(np.vdot(state, state)))))
            count[0] += 1
            if count[0] > cap:
                raise HistoryCapExceeded(f"more than {cap} histories")
            return
        step = compiled[t]
        lay = step.layout
        prefix = f"{t}:" if len(compiled) > 1 else ""

        def recurse_slice(s: int, st: np.ndarray, order: list[int], chosen: dict, k: tuple):
            if s == len(step.slices):
                st = _reorder_tensor(st, order, list(lay.output_wires))
                nxt = st
                if t + 1 < len(compiled):
                    nxt = _apply_bind(
                        st, compiled[t + 1].bind, len(lay.output_dims),
                        len(compiled[t + 1].layout.input_dims), t + 1,
                    )
                recurse_step(t + 1, nxt, k)
                return
            plan = step.slices[s]
            for cand in _slice_candidates(plan, lay, chosen, inputs[t]):
                out_t, out_order = _apply_nodes_tensor(st, order, lay, plan.node_indices, cand)
                free = _free_choices(plan, lay, cand, chosen, inputs[t])
                new_chosen = dict(chosen)
                new_chosen.update(cand)
                new_key = k + tuple((prefix + n, o) for n, o in free.items())
                recurse_slice(s + 1, out_t, out_order, new_chosen, new_key)

        recurse_slice(0, state, list(lay.input_wires), {}, key)

    recurse_step(0, state0, ())
    return results


def history_distribution(histories) -> dict[tuple, float]:
    return {key: p for key, p in histories}
