"""The sampler and the enumerator label a history alike: every sampled
trajectory, in memory and as a ``run`` record, is a key of the exact law,
with its pairs in the key's order and its probability."""

import json
from pathlib import Path

import numpy as np
import pytest

from onticsim import jsonio
from onticsim.circuit import layout
from onticsim.cli import main
from onticsim.engine import enumerate_histories, load_run_spec, program_to_dict, run_trajectories
from onticsim.linalg import haar_state
from test_engine import walk_cases

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"
SHIPPED = sorted(p.name for p in CIRCUITS.iterdir()) if CIRCUITS.is_dir() else []


def assert_keys_of(law, histories, name):
    """Each (outcome pairs, probability) of ``histories`` is a key of ``law``
    with the key's probability within 1e-12."""
    exact = dict(law)
    assert len(exact) == len(law), name
    for items, p in histories:
        key = tuple(map(tuple, items))
        assert key in exact, (name, key)
        assert abs(p - exact[key]) <= 1e-12, (name, key)


def assert_labelled_alike(program, omega0, inputs, path, tmp_path):
    """Trajectories sampled in memory and the records ``onticsim run`` writes
    for ``path`` (a program file of ``program`` and ``omega0`` is written
    when ``path`` is None) are keys of ``enumerate_histories``."""
    law = enumerate_histories(program, omega0, inputs)
    trajectories = run_trajectories(program, 64, seed=11, omega0=omega0, inputs=inputs)
    assert_keys_of(law, [(t.outcome_items(), t.probability) for t in trajectories], program.name)
    if path is None:
        doc = program_to_dict(program)
        if omega0 is not None:
            doc["initial_state"] = jsonio.encode_vector(omega0)
        path = tmp_path / "program.json"
        path.write_text(jsonio.dumps(doc))
    out = tmp_path / "run.jsonl"
    argv = ["run", str(path), "--trajectories", "64", "--seed", "11", "--out", str(out)]
    assert main(argv + (["--inputs", ",".join(inputs)] if inputs else [])) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 64
    assert_keys_of(law, [(r["outcomes"], r["probability"]) for r in records], program.name)
    return law


@pytest.mark.parametrize("inputs", [None, ["1"]])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_files(name, inputs, tmp_path):
    """A file that starts on open wires and names no initial state runs on a
    Haar-random one. ``merge_split.json`` has three steps, so its labels
    carry the ``t:`` prefix."""
    program = load_run_spec(CIRCUITS / name)
    d = int(np.prod(layout(program.steps[0].circuit).input_dims))
    fed = d > 1 and program.initial_state is None
    omega0 = haar_state(d, np.random.default_rng(d)) if fed else None
    law = assert_labelled_alike(program, omega0, inputs, None if fed else CIRCUITS / name,
                                tmp_path)
    labels = [label for key, _ in law for label, _ in key]
    if len(program.steps) > 1:
        steps = tuple(f"{t}:" for t in range(len(program.steps)))
        assert labels and all(label.startswith(steps) for label in labels)


def test_graph_cases_and_programs(tmp_path):
    """Every ``_helpers.graph_cases()`` circuit on a Haar-random state, and
    the multi-step programs, each written as a program file for ``run``."""
    for program, omega0, inputs in walk_cases():
        assert_labelled_alike(program, omega0, inputs, None, tmp_path)
