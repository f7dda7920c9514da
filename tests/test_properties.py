"""Property tests of the document path and of whole circuits.

Documents: mutated circuit and program files go through ``cli.main``
in-process under every file command. Each run must end in a documented
exit code with a diagnosis, never in a traceback, and a document that
``validate`` rejects must not run.

Circuits: ``random_circuits.random_circuit`` with drawn seeds and shapes.
History operators agree under every foliation strategy (the given one
runs one node per slice), enumerated laws sum to one, each sampled
probability is the squared norm of its history operator on the initial
state, and ``run`` output does not depend on the batch size. The sampler
runs with its fast path on and off, so the slice kernel is exercised on
the enumeration path and on the tensor path. Drawn circuits and programs
also survive a JSON round trip byte for byte.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onticsim import engine, gallery, jsonio
from onticsim.circuit import layout, parse_circuit, serialize_circuit
from onticsim.cli import main
from onticsim.engine import (Program, ProgramStep, enumerate_histories, program_from_dict,
                             program_to_dict, run_trajectories)
from onticsim.foliation import admissible_events, compile_history, foliate
from onticsim.random_circuits import random_circuit

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"
JSON_FILES = sorted(gallery.GALLERY)
DELETE = "<delete>"
COMMANDS = (("validate",), ("run", "--trajectories", "5"), ("enumerate",), ("classify",))


def _shipped(name: str) -> str:
    path = CIRCUITS / name
    if path.is_file():
        return path.read_text()
    if name == "bell_pair.opt":
        return gallery.BELL_PAIR_DSL
    return json.dumps(gallery.GALLERY[name]())


def _kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _paths(value, prefix=()):
    """Every field of a JSON document, as a key path. Of a numeric array
    (a matrix, a vector, a bind map) only the first item is visited, so
    matrix entries do not drown the structure."""
    if prefix:
        yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list) and value:
        numeric = all(isinstance(x, (list, int, float)) for x in value)
        for index, item in enumerate(value[:1] if numeric else value):
            yield from _paths(item, prefix + (index,))


def _field(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


#: Replacement values by JSON type (``_kind``).
_JSON_VALUES = {
    "NoneType": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-2, 5) | st.sampled_from([2.5, -1.0, 0.0, 1e308]),
    "str": st.sampled_from(["", "0", "Q1", "@input", "two"]),
    "list": (st.lists(st.integers(-1, 3), max_size=3)
             | st.lists(st.sampled_from(["0", "Q1", "A"]), max_size=2)
             | st.sampled_from([[[0, 1]], [["Q1"]], [{}]])),
    "dict": st.sampled_from([{}, {"a": 1}, {"0": [0]}]),
}


@st.composite
def json_mutations(draw):
    """A shipped JSON file, one of its fields, and either ``DELETE`` or a
    value of another JSON type to put in that field's place."""
    name = draw(st.sampled_from(JSON_FILES))
    doc = json.loads(_shipped(name))
    path = draw(st.sampled_from(list(_paths(doc))))
    kinds = sorted(k for k in _JSON_VALUES if k != _kind(_field(doc, path)))
    value = draw(st.just(DELETE) | st.sampled_from(kinds).flatmap(_JSON_VALUES.get))
    return name, path, value


_DSL_TOKENS = st.sampled_from([
    "", "A1", "A3", "q2", "q0", "c2", "t1", "x2", ":", "->", "=", "#", "pair.0", "left.1",
    "pair.x", "effect", "measure", "state(1)", "unitary(H)", "kraus(0:", "[1,", "0])", "closed",
    "cond", "on", "map", "0:0", "q\N{SUPERSCRIPT TWO}", "state(-1)",
])


@st.composite
def dsl_mutations(draw):
    """``bell_pair.opt`` with one line dropped, cut short, or with one of
    its tokens replaced."""
    lines = _shipped("bell_pair.opt").splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["drop", "cut", "token"]))
    if action == "drop":
        del lines[i]
    elif action == "cut":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_DSL_TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _keeps_json_type(path: tuple, value) -> bool:
    """False when ``value`` in the field at ``path`` breaks a JSON type the
    decoder must enforce: ``closed`` is a boolean, and an operator or state
    entry a number or an [re, im] pair of numbers. Booleans are not
    numbers."""
    def number(x):
        return type(x) in (int, float)

    if value == DELETE:
        return True
    if path[-1] == "closed":
        return type(value) is bool
    for name, depth in (("kraus", 3), ("initial_state", 1)):
        if name in path:
            below = len(path) - path.index(name) - 1
            if below == depth:
                return number(value) or (isinstance(value, list) and len(value) == 2
                                         and all(map(number, value)))
            if below == depth + 1:
                return number(value)
    return True


def _check_document(path: Path) -> None:
    codes = {}
    for command, *options in COMMANDS:
        code, err = _main([command, str(path), *options])
        assert code in (0, 1, 2), (command, code, err)
        assert "Traceback" not in err, (command, err)
        if code == 1:
            diagnosed = err.startswith(("error: ", "invalid: ", "INVALID")) or (
                command == "validate" and re.search(r"^step \d+: INVALID", err, re.M))
            assert diagnosed, (command, err)
        codes[command] = code
    if codes["validate"] != 0:
        assert codes["run"] != 0, "validate rejects a document that run accepts"


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("documents")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(mutation=json_mutations())
# A port name that is a list, and a condition map that is a list.
@example(mutation=("merge_split.json", ("steps", 0, "circuit", "nodes", 0, "outputs"), [["Q1"]]))
@example(mutation=("conditioned_step.json", ("nodes", 1, "condition", "map"), [[0], [1]]))
# Bind maps that are not lists of integer pairs.
@example(mutation=("merge_split.json", ("steps", 1, "bind"), [[0], [1]]))
@example(mutation=("merge_split.json", ("steps", 1, "bind"), [["a", 0], [1, 1]]))
@example(mutation=("merge_split.json", ("steps", 1, "bind"), {"0": 0}))
# A program without steps.
@example(mutation=("conditioned_step_program.json", ("steps", 0), DELETE))
# Values the decoder used to coerce.
@example(mutation=("bell_pair.json", ("systems", 0, "dim"), 2.5))
@example(mutation=("bell_pair.json", ("systems", 0, "dim"), True))
@example(mutation=("bell_pair.json", ("nodes", 1, "events", 0, "outcome"), {"a": 1}))
# ``closed`` read with ``bool()``, and booleans read as the numbers 1 and 0.
@example(mutation=("bloch_axes.json", ("closed",), "no"))
@example(mutation=("bell_pair.json", ("nodes", 1, "events", 0, "kraus", 0, 0, 0), True))
@example(mutation=("bell_pair.json", ("nodes", 1, "events", 0, "kraus", 0, 0, 0, 0), True))
@example(mutation=("conditioned_step_program.json", ("initial_state", 0, 1), False))
def test_mutated_json_document(work, mutation):
    name, path, value = mutation
    doc = json.loads(_shipped(name))
    parent = _field(doc, path[:-1])
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    target = work / "doc.json"
    target.write_text(json.dumps(doc))
    _check_document(target)
    if not _keeps_json_type(path, value):
        code, err = _main(["validate", str(target)])
        assert code == 1 and err.startswith("invalid: malformed "), err


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(text=dsl_mutations())
# A dimension that ``str.isdigit`` accepts and ``int`` cannot read.
@example(text=gallery.BELL_PAIR_DSL.replace("A2 : q2", "A2 : q\N{SUPERSCRIPT TWO}"))
def test_mutated_dsl_document(work, text):
    target = work / "doc.opt"
    target.write_text(text)
    _check_document(target)


# --- whole circuits -------------------------------------------------------------

#: Criterion 1's tolerance on history operators, and criterion 2's on the
#: total probability.
INVARIANCE_TOL = 1e-10
NORMALIZATION_TOL = 1e-9
#: ``engine.FAST_PATH_MAX_DIM`` values: the default, and 0, which sends every
#: slice down the tensor path.
FAST_PATH_DIMS = (engine.FAST_PATH_MAX_DIM, 0)


@st.composite
def random_circuits(draw):
    """A random circuit, and a normalized initial state for its open inputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = random_circuit(rng, n_nodes=draw(st.sampled_from([(2, 4), (4, 8)])),
                             max_total_dim=draw(st.sampled_from([16, 64])))
    d = int(np.prod(layout(circuit).input_dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return circuit, v / np.linalg.norm(v)


def _random_outcomes(lay, rng) -> dict[str, str]:
    """One admissible outcome per node, drawn in topological order."""
    fired: dict[int, int] = {}
    for i in lay.topo_order:
        idxs = admissible_events(lay, i, fired, "0")
        fired[i] = idxs[int(rng.integers(len(idxs)))]
    return {lay.circuit.nodes[i].label: lay.circuit.nodes[i].events[e].outcome
            for i, e in fired.items()}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=random_circuits(), seed=st.integers(0, 2**16))
def test_history_operator_is_foliation_invariant(case, seed):
    circuit, _ = case
    lay = layout(circuit)
    rng = np.random.default_rng(seed)
    outcomes = _random_outcomes(lay, rng)
    reference = compile_history(foliate(lay, "asap"), outcomes).operator
    one_per_slice = [[lay.circuit.nodes[i].label] for i in lay.topo_order]
    others = [foliate(lay, "alap"), foliate(lay, "given", slices=one_per_slice)]
    others += [foliate(lay, "random", rng=rng) for _ in range(3)]
    for fol in others:
        got = compile_history(fol, outcomes).operator
        assert np.abs(got - reference).max() < INVARIANCE_TOL, (fol.strategy, fol.slices)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=random_circuits())
def test_enumerated_law_sums_to_one(case):
    circuit, omega0 = case
    total = sum(p for _, p in enumerate_histories(circuit, omega0))
    assert abs(total - 1) < NORMALIZATION_TOL


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=random_circuits(), seed=st.integers(0, 2**16))
def test_sampled_probability_is_the_history_norm(case, seed):
    circuit, omega0 = case
    fol = foliate(layout(circuit), "asap")
    for fast_dim in FAST_PATH_DIMS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "FAST_PATH_MAX_DIM", fast_dim)
            trajectories = run_trajectories(circuit, 8, seed, omega0=omega0)
        for traj in trajectories:
            op = compile_history(fol, traj.steps[0].outcomes).operator
            assert abs(np.linalg.norm(op @ omega0) ** 2 - traj.probability) < 1e-12


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(case=random_circuits(), seed=st.integers(0, 2**16))
def test_run_bytes_do_not_depend_on_batch_size(work, case, seed):
    circuit, omega0 = case
    target = work / "program.json"
    target.write_text(json.dumps(program_to_dict(Program.single(circuit, omega0))))
    out = work / "run.jsonl"
    argv = ["run", str(target), "--trajectories", "20", "--seed", str(seed), "--store-states",
            "--out", str(out)]
    for fast_dim in FAST_PATH_DIMS:
        runs = set()
        for batch_size in (1, 7, 1024):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "FAST_PATH_MAX_DIM", fast_dim)
                mp.setattr(engine, "BATCH_SIZE", batch_size)
                assert _main(argv) == (0, "")
            runs.add(out.read_bytes())
        assert len(runs) == 1, fast_dim


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=random_circuits())
def test_circuit_json_round_trip_is_byte_stable(case):
    circuit, _ = case
    text = serialize_circuit(circuit)
    assert serialize_circuit(parse_circuit(text)) == text


@st.composite
def random_programs(draw):
    """One to three drawn circuits as steps, each later step with a drawn
    bind over its input wires, and the first step's initial state or none."""
    cases = draw(st.lists(random_circuits(), min_size=1, max_size=3))
    steps = []
    for t, (circuit, _) in enumerate(cases):
        n_in = len(layout(circuit).input_dims)
        perm = draw(st.permutations(range(n_in)))
        steps.append(ProgramStep(circuit, list(enumerate(perm)) if t and n_in else None))
    initial = cases[0][1] if draw(st.booleans()) else None
    return Program(draw(st.sampled_from(["p", "two words"])), steps, initial)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(program=random_programs())
def test_program_dict_round_trip_is_byte_stable(program):
    text = jsonio.dumps(program_to_dict(program))
    assert jsonio.dumps(program_to_dict(program_from_dict(json.loads(text)))) == text
