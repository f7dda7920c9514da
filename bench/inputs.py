"""Seeded workload inputs, generated by the benchmark's own code.

Nothing here calls ``onticsim.random_circuits``, ``onticsim.gallery`` or
``onticsim.linalg``, so a change to those modules cannot change what a
workload feeds the program. Circuits are written in the documented JSON
interchange format (complex scalars as ``[re, im]``, matrices row-major).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

#: Fixed stream for the parts of an input that set how much work it is (the
#: exact-law circuit shapes) or that must not depend on ``--seed`` (the dense
#: 12-qubit layer, whose perturbed copy is a verdict that fails every run).
FIXED_STREAM = 20120658

TRACE_EXCESS = 1e-6  # trace increase of a verdict node: 100x COMPLETENESS_TOL


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, stream]))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def isometry(d_in: int, d_out: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
    q, _ = np.linalg.qr(z)
    return q


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def encode_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


# --- cold-12q: brickwork layers, then one dense unitary ----------------------

N_QUBITS = 12
DENSE_DIM = 2 ** N_QUBITS


@dataclass
class Gate:
    qubits: tuple[int, int]
    unitary: np.ndarray


@dataclass
class TwelveQubitInputs:
    layers: list[list[Gate]]      # four brickwork layers of 2-qubit gates
    dense: np.ndarray             # DENSE_DIM x DENSE_DIM unitary, qubit order q0..q11


def brickwork_layers(seed: int, n_layers: int = 4) -> list[list[Gate]]:
    rng = rng_for(seed, 12)
    layers = []
    for t in range(n_layers):
        off = t % 2
        layers.append([
            Gate(((a + off) % N_QUBITS, (a + off + 1) % N_QUBITS), haar_unitary(4, rng))
            for a in range(0, N_QUBITS, 2)
        ])
    return layers


def dense_phase_dft(dim: int = DENSE_DIM, block: int = 32) -> np.ndarray:
    """diag(phases) . DFT . diag(phases), built by row blocks.

    Every entry has modulus 1/sqrt(dim), so the layer is as dense as a
    unitary gets. Row blocks of 32 keep the build's temporaries near 5 MiB,
    so the build's peak memory is one matrix and the peak RSS of a run is
    set by onticsim, not by the benchmark's set-up.
    """
    rng = rng_for(FIXED_STREAM, DENSE_DIM)
    left = np.exp(2j * np.pi * rng.random(dim)) / np.sqrt(dim)
    right = np.exp(2j * np.pi * rng.random(dim))
    k = np.arange(dim)
    roots = np.exp(-2j * np.pi * k / dim)  # DFT entry (j, k) is roots[j*k mod dim]
    u = np.empty((dim, dim), dtype=complex)
    for a in range(0, dim, block):
        rows = k[a:a + block]
        np.take(roots, np.outer(rows, k) % dim, out=u[a:a + block])
        u[a:a + block] *= left[a:a + block, None] * right[None, :]
    return u


def twelve_qubit_inputs(seed: int) -> TwelveQubitInputs:
    return TwelveQubitInputs(brickwork_layers(seed), dense_phase_dft())


def trace_increasing_unitary(d: int) -> np.ndarray:
    """U . diag(sqrt(1 + TRACE_EXCESS), 1, ..., 1) for a fixed unitary U."""
    k = haar_unitary(d, rng_for(FIXED_STREAM, d))
    k[:, 0] *= np.sqrt(1.0 + TRACE_EXCESS)
    return k


# --- exact-law: random complete-test circuits with conditioning -------------

@dataclass
class NodeShape:
    consumes: list[int]            # indices into the running list of wires
    out_dims: list[int]
    outcomes: int                  # per conditioning branch
    source: int | None             # conditioning source node, or None


@dataclass
class CircuitShape:
    wire_dims: list[int]                     # every wire ever created, in creation order
    wire_src: list[tuple[int, int] | None]   # (producing node, port), None for a circuit input
    nodes: list[NodeShape]

    @property
    def history_count(self) -> int:
        return prod(n.outcomes for n in self.nodes)


def circuit_shape(rng: np.random.Generator, n_nodes: int, cut_budget: int,
                  dims=(2, 3)) -> CircuitShape:
    """Grow a DAG forward within a running cut-dimension budget."""
    wire_dims: list[int] = []
    wire_src: list[tuple[int, int] | None] = []
    open_wires: list[int] = []
    for _ in range(int(rng.integers(1, 3))):
        wire_dims.append(int(rng.choice(dims)))
        wire_src.append(None)
        open_wires.append(len(wire_dims) - 1)
    nodes: list[NodeShape] = []
    for k in range(n_nodes):
        last = k == n_nodes - 1
        n_take = min(2, len(open_wires)) if last else int(rng.integers(0, min(2, len(open_wires)) + 1))
        picks = sorted(rng.choice(len(open_wires), size=n_take, replace=False).tolist()) if n_take else []
        consumes = [open_wires[i] for i in picks]
        open_wires = [w for i, w in enumerate(open_wires) if i not in picks]
        d_in = prod(wire_dims[w] for w in consumes)
        out_dims: list[int] = []
        for _ in range(0 if last else int(rng.integers(0, 3))):
            dim = int(rng.choice(dims))
            if prod(wire_dims[w] for w in open_wires) * prod(out_dims) * dim > cut_budget:
                break
            out_dims.append(dim)
        outcomes = int(rng.integers(1, 4))
        while prod(out_dims) * outcomes < d_in:
            outcomes += 1
        sources = [i for i, n in enumerate(nodes) if n.outcomes > 1 and n.source is None]
        source = sources[int(rng.integers(len(sources)))] if sources and rng.random() < 0.4 else None
        for port, dim in enumerate(out_dims):
            wire_dims.append(dim)
            wire_src.append((k, port))
            open_wires.append(len(wire_dims) - 1)
        nodes.append(NodeShape(consumes, out_dims, outcomes, source))
    return CircuitShape(wire_dims, wire_src, nodes)


def exact_law_shapes(count: int, n_nodes=(6, 9), cut_budget: int = 72,
                     histories=(150, 1500)) -> list[CircuitShape]:
    """Circuit shapes from the fixed stream: every seed enumerates equal work."""
    rng = rng_for(FIXED_STREAM, 1)
    shapes = []
    while len(shapes) < count:
        shape = circuit_shape(rng, int(rng.integers(n_nodes[0], n_nodes[1] + 1)), cut_budget)
        if histories[0] <= shape.history_count <= histories[1]:
            shapes.append(shape)
    return shapes


def circuit_doc(shape: CircuitShape, name: str, rng: np.random.Generator) -> tuple[dict, list[int]]:
    """Circuit document with seeded complete tests; also its input dims.

    A node with ``o`` outcomes per branch is an isometry from its input
    into ``o`` copies of its output, split into ``o`` Kraus blocks, so each
    branch sums to the identity and the law of histories sums to one.
    """
    systems = [{"label": f"s{w}", "dim": d, "theory": "quantum"} for w, d in enumerate(shape.wire_dims)]
    nodes, wires = [], []
    input_dims = []
    for k, node in enumerate(shape.nodes):
        d_in = prod(shape.wire_dims[w] for w in node.consumes)
        d_out = prod(node.out_dims)
        branches = [None]
        if node.source is not None:
            branches = [ev["outcome"] for ev in nodes[node.source]["events"]]
        events, cond_map = [], {}
        for b in branches:
            v = isometry(d_in, d_out * node.outcomes, rng)
            start = len(events)
            prefix = "" if b is None else f"{b}:"
            events += [
                {"outcome": f"{prefix}{i}", "kraus": [encode_matrix(v[i * d_out:(i + 1) * d_out])]}
                for i in range(node.outcomes)
            ]
            if b is not None:
                cond_map[b] = list(range(start, len(events)))
        inputs = []
        for port, w in enumerate(node.consumes):
            inputs.append(f"s{w}")
            if shape.wire_src[w] is None:
                input_dims.append(shape.wire_dims[w])
            else:
                src, src_port = shape.wire_src[w]
                wires.append({"from": [f"n{src}", src_port], "to": [f"n{k}", port]})
        outputs = [f"s{w}" for w, src in enumerate(shape.wire_src) if src and src[0] == k]
        doc = {"label": f"n{k}", "inputs": inputs, "outputs": outputs, "events": events}
        if node.source is not None:
            doc["condition"] = {"source": f"n{node.source}", "map": cond_map}
        nodes.append(doc)
    return {"name": name, "systems": systems, "nodes": nodes, "wires": wires, "closed": False}, input_dims


def write_exact_law_files(seed: int, shapes: list[CircuitShape], directory: Path) -> list[Path]:
    """One program file per shape, each naming its circuit file.

    The circuit sits in a file of its own so that loading the program
    parses (and validates) it the way a user's circuit file is.
    """
    rng = rng_for(seed, 3)
    paths = []
    for i, shape in enumerate(shapes):
        circuit, input_dims = circuit_doc(shape, f"law-{i:02d}", rng)
        (directory / f"law-{i:02d}.circuit.json").write_text(json.dumps(circuit))
        program = {
            "kind": "program",
            "name": f"law-{i:02d}",
            "initial_state": encode_vector(haar_state(prod(input_dims), rng)),
            "steps": [{"circuit_file": f"law-{i:02d}.circuit.json"}],
        }
        path = directory / f"law-{i:02d}.program.json"
        path.write_text(json.dumps(program))
        paths.append(path)
    return paths
