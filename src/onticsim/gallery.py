"""Builders for the example circuits shipped with the package.

These serve three purposes: executable documentation, golden files for the
test-suite, and CLI demo inputs. ``write_gallery`` regenerates the JSON
files under ``circuits/``.
"""

from __future__ import annotations

from math import sqrt
from pathlib import Path

import numpy as np

from . import jsonio
from .circuit import Circuit, Condition, Event, System, TestNode, WireSpec, circuit_to_dict
from .dsl import effect_events, measure_events
from .engine import Program, ProgramStep, program_to_dict
from .linalg import GATES


def _ket(*amps) -> np.ndarray:
    v = np.array(amps, dtype=complex).reshape(-1, 1)
    return v / np.linalg.norm(v)


def _bra(v) -> np.ndarray:
    return np.asarray(v, dtype=complex).conj().reshape(1, -1)


_BELL = [
    _ket(1, 0, 0, 1),
    _ket(1, 0, 0, -1),
    _ket(0, 1, 1, 0),
    _ket(0, 1, -1, 0),
]


def conditioned_step() -> Circuit:
    """Nine-node single-step circuit with three classical conditioning edges.

    An effect test on A selects which state is re-prepared on D; a two-
    outcome test on BC conditions the deterministic interaction on DE; a
    one-qubit test on F selects which two-qubit effect basis reads out NO.
    The open boundary maps ABC (dim 8) to M (dim 2), and the sampled
    outcome record is the tuple (alpha, E, V, Lambda).
    """
    systems = {
        lbl: System(lbl, 2) for lbl in ["A", "B", "C", "D", "E", "F", "G", "H", "L", "M", "N", "O"]
    }
    u_e = GATES["CNOT"] @ np.kron(GATES["H"], np.eye(2))
    p0 = np.kron(np.diag([1, 0]).astype(complex), np.eye(2))
    p1 = np.kron(np.diag([0, 1]).astype(complex), np.eye(2))
    bell_effects = tuple(
        Event(f"0:{j}", (_bra(_BELL[j]),)) for j in range(4)
    ) + tuple(Event(f"1:{e.outcome}", e.operators) for e in effect_events(4))
    nodes = [
        TestNode("alpha", ("A",), (), effect_events(2)),
        TestNode(
            "psi", (), ("D",),
            (Event("0", (_ket(1, 1),)), Event("1", (_ket(1, -1),))),
            Condition("alpha", {"0": (0,), "1": (1,)}),
        ),
        TestNode(
            "E", ("B", "C"), ("E", "F"),
            (Event("0", (p0 @ u_e,)), Event("1", (p1 @ u_e,))),
        ),
        TestNode(
            "R", ("D", "E"), ("G", "H"),
            (Event("0", (GATES["CNOT"],)),
             Event("1", (np.kron(GATES["Z"], GATES["X"]) @ GATES["SWAP"],))),
            Condition("E", {"0": (0,), "1": (1,)}),
        ),
        TestNode(
            "V", ("F",), ("L",),
            (Event("0", (np.outer([1, 0], [1, 0]) @ GATES["H"],)),
             Event("1", (np.outer([0, 1], [0, 1]).astype(complex) @ GATES["H"],))),
        ),
        TestNode(
            "A", ("G",), ("M",),
            (Event("0", (GATES["H"],)), Event("1", (np.eye(2, dtype=complex),))),
            Condition("@input", {"0": (0,), "1": (1,)}),
        ),
        TestNode("B", ("H",), ("N",), (Event("0", (GATES["S"],)),)),
        TestNode("C", ("L",), ("O",), (Event("0", (GATES["H"],)),)),
        TestNode(
            "Lambda", ("N", "O"), (), bell_effects,
            Condition("V", {"0": (0, 1, 2, 3), "1": (4, 5, 6, 7)}),
        ),
    ]
    wires = [
        WireSpec("psi", 0, "R", 0),
        WireSpec("E", 0, "R", 1),
        WireSpec("E", 1, "V", 0),
        WireSpec("R", 0, "A", 0),
        WireSpec("R", 1, "B", 0),
        WireSpec("V", 0, "C", 0),
        WireSpec("B", 0, "Lambda", 0),
        WireSpec("C", 0, "Lambda", 1),
    ]
    return Circuit("conditioned-step", systems, nodes, wires, closed=False)


def conditioned_step_closed() -> Circuit:
    """The nine-node circuit closed by an entangled source and a final readout."""
    base = conditioned_step()
    ghz = _ket(1, 0, 0, 0, 0, 0, 0, 1)
    nodes = [
        TestNode("source", (), ("A", "B", "C"), (Event("0", (ghz,)),)),
        *base.nodes,
        TestNode("readout", ("M",), (), effect_events(2)),
    ]
    wires = [
        WireSpec("source", 0, "alpha", 0),
        WireSpec("source", 1, "E", 0),
        WireSpec("source", 2, "E", 1),
        *base.wires,
        WireSpec("A", 0, "readout", 0),
    ]
    return Circuit("conditioned-step-closed", base.systems, nodes, wires, closed=True)


def conditioned_step_program() -> Program:
    """One-step program: the open nine-node circuit fed an entangled state."""
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / sqrt(2)
    return Program("conditioned-step-run", [ProgramStep(conditioned_step())], ghz)


def bell_pair() -> Circuit:
    """Closed two-qubit demo: prepare a Bell pair, read out both sides."""
    systems = {"A1": System("A1", 2), "A2": System("A2", 2)}
    nodes = [
        TestNode("pair", (), ("A1", "A2"), (Event("0", (_ket(1, 0, 0, 1),)),)),
        TestNode("left", ("A1",), (), effect_events(2)),
        TestNode("right", ("A2",), (), effect_events(2)),
    ]
    wires = [WireSpec("pair", 0, "left", 0), WireSpec("pair", 1, "right", 0)]
    return Circuit("bell-pair", systems, nodes, wires, closed=True)


BELL_PAIR_DSL = """\
# Prepare a Bell pair and read out both qubits in the computational basis.
circuit bell-pair closed
sys A1 : q2
sys A2 : q2
node pair : -> A1 A2 = kraus(0: [0.7071067811865476, 0, 0, 0.7071067811865476])
node left : A1 -> = effect
node right : A2 -> = effect
wire pair.0 -> left.0
wire pair.1 -> right.0
"""


def merge_split_program() -> Program:
    """Three macro steps: separate preparations, an entangling interaction,
    then local readouts that keep the wires.

    The finest-factorization timeline is two singletons, one merged block,
    then two singletons again.
    """
    q = {"Q1": System("Q1", 2), "Q2": System("Q2", 2)}
    prepare = Circuit(
        "prepare",
        dict(q),
        [
            TestNode("p1", (), ("Q1",), (Event("0", (_ket(1, 1),)),)),
            TestNode("p2", (), ("Q2",), (Event("0", (_ket(1, 0),)),)),
        ],
        [],
    )
    interact = Circuit(
        "interact",
        dict(q),
        [TestNode("join", ("Q1", "Q2"), ("Q1", "Q2"), (Event("0", (GATES["CNOT"],)),))],
        [],
    )
    readout = Circuit(
        "readout",
        dict(q),
        [
            TestNode("m1", ("Q1",), ("Q1",), measure_events(2)),
            TestNode("m2", ("Q2",), ("Q2",), measure_events(2)),
        ],
        [],
    )
    return Program("merge-split", [ProgramStep(prepare), ProgramStep(interact), ProgramStep(readout)])


def bloch_axes() -> Circuit:
    """Three qubit preparations along the x, y and z axes of the Bloch ball."""
    systems = {lbl: System(lbl, 2) for lbl in ("QX", "QY", "QZ")}
    nodes = [
        TestNode("plus", (), ("QX",), (Event("0", (_ket(1, 1),)),)),
        TestNode("front", (), ("QY",), (Event("0", (_ket(1, 1j),)),)),
        TestNode("up", (), ("QZ",), (Event("0", (_ket(1, 0),)),)),
    ]
    return Circuit("bloch-axes", systems, nodes, [], closed=False)


GALLERY = {
    "conditioned_step.json": lambda: circuit_to_dict(conditioned_step()),
    "conditioned_step_closed.json": lambda: circuit_to_dict(conditioned_step_closed()),
    "conditioned_step_program.json": lambda: program_to_dict(conditioned_step_program()),
    "bell_pair.json": lambda: circuit_to_dict(bell_pair()),
    "merge_split.json": lambda: program_to_dict(merge_split_program()),
    "bloch_axes.json": lambda: circuit_to_dict(bloch_axes()),
}


def write_gallery(directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in GALLERY.items():
        path = directory / name
        path.write_text(jsonio.dumps(build(), indent=2) + "\n")
        written.append(path)
    dsl_path = directory / "bell_pair.opt"
    dsl_path.write_text(BELL_PAIR_DSL)
    written.append(dsl_path)
    return written
