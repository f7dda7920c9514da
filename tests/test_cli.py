import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _helpers import DEEP_CHAIN, closed_chain, reprepare_chain
from onticsim import cli, gallery
from onticsim.circuit import serialize_circuit
from onticsim.cli import main
from onticsim.engine import DEFAULT_HISTORY_CAP, HistoryCapExceeded, enumerate_histories

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"


@pytest.fixture(scope="module")
def circuits_dir(tmp_path_factory):
    if CIRCUITS.is_dir():
        return CIRCUITS
    tmp = tmp_path_factory.mktemp("circuits")
    gallery.write_gallery(tmp)
    return tmp


def test_shipped_files_match_builders(circuits_dir, tmp_path):
    regenerated = gallery.write_gallery(tmp_path)
    for path in regenerated:
        shipped = circuits_dir / path.name
        assert shipped.read_text() == path.read_text(), f"{path.name} drifted"


class TestValidate:
    def test_valid_file_exits_zero(self, circuits_dir, capsys):
        assert main(["validate", str(circuits_dir / "conditioned_step.json")]) == 0
        assert "OK" in capsys.readouterr().err

    def test_closed_file(self, circuits_dir, capsys):
        assert main(["validate", str(circuits_dir / "conditioned_step_closed.json")]) == 0
        assert "closed" in capsys.readouterr().err

    def test_dsl_file(self, circuits_dir):
        assert main(["validate", str(circuits_dir / "bell_pair.opt")]) == 0

    def test_cyclic_file_exits_one(self, tmp_path, capsys):
        doc = {
            "name": "loop",
            "systems": [{"label": "A", "dim": 2, "theory": "quantum"}],
            "nodes": [{
                "label": "u", "inputs": ["A"], "outputs": ["A"],
                "events": [{"outcome": "0", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}],
            }],
            "wires": [{"from": ["u", 0], "to": ["u", 0]}],
            "closed": True,
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/file.json"]) == 2

    def test_tolerance_sets_the_normalisation_slack(self, circuits_dir, tmp_path, capsys):
        doc = json.loads((circuits_dir / "bell_pair.json").read_text())
        event = next(n for n in doc["nodes"] if n["label"] == "left")["events"][0]
        scale = np.sqrt(1 + 1e-6)  # outcome-0 projector becomes trace-increasing by 1e-6
        event["kraus"] = [[[[re * scale, im * scale] for re, im in row] for row in m]
                          for m in event["kraus"]]
        path = tmp_path / "excess.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "sigma_max - 1 = 1e-06" in capsys.readouterr().err
        assert main(["validate", str(path), "--tolerance", "1e-5"]) == 0
        assert "OK" in capsys.readouterr().err
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid circuit:")
        assert main(["validate", str(circuits_dir / "bell_pair.json"), "--tolerance", "0"]) == 0

    def test_malformed_file_exits_one_everywhere(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"broken": ')
        for command in ("run", "enumerate", "classify"):
            assert main([command, str(bad)]) == 1
            assert "error" in capsys.readouterr().err

    def test_undecodable_file_exits_one_everywhere(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"not": "utf-8"}')
        for command in ("run", "enumerate", "classify", "validate"):
            assert main([command, str(bad)]) == 1
            assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("name, report", [
        ("bell_pair.json", "OK: 3 nodes, closed\n"),
        ("bell_pair.opt", "OK: 3 nodes, closed\n"),
        ("bloch_axes.json", "OK: 3 nodes, open\n"),
        ("conditioned_step.json", "OK: 9 nodes, open\n"),
        ("conditioned_step_closed.json", "OK: 11 nodes, closed\n"),
        # A one-step program reports as its circuit does.
        ("conditioned_step_program.json", "OK: 9 nodes, open\n"),
    ])
    def test_shipped_file_report(self, name, report, circuits_dir, capsys):
        assert main(["validate", str(circuits_dir / name)]) == 0
        assert capsys.readouterr().err == report

    def test_program_reports_each_step(self, circuits_dir, capsys):
        assert main(["validate", str(circuits_dir / "merge_split.json")]) == 0
        assert capsys.readouterr().err == (
            "step 0: OK: 2 nodes, open\nstep 1: OK: 1 nodes, open\nstep 2: OK: 2 nodes, open\n")

    def test_invalid_program_step_exits_one(self, circuits_dir, tmp_path, capsys):
        doc = json.loads((circuits_dir / "merge_split.json").read_text())
        doc["steps"][1]["circuit"]["wires"] = [{"from": ["join", 0], "to": ["join", 0]}]
        path = tmp_path / "cyclic_step.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("step 0: OK: 2 nodes, open\nstep 1: INVALID: 1 nodes, open\n")
        assert "cycle" in err and err.endswith("step 2: OK: 2 nodes, open\n")

    def test_bind_is_checked_by_run(self, circuits_dir, tmp_path, capsys):
        doc = json.loads((circuits_dir / "merge_split.json").read_text())
        for bind in ([[0, 0], [1, 0]], []):  # an empty map is not an omitted one
            doc["steps"][1]["bind"] = bind
            path = tmp_path / "bad_bind.json"
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path)]) == 0
            capsys.readouterr()
            assert main(["run", str(path)]) == 1
            assert capsys.readouterr().err == "error: step 1: bind must be a bijection between boundary wires\n"

    @pytest.mark.parametrize("bind", [[[5, 7]], []])
    def test_bind_on_the_first_step_is_refused_by_run(self, bind, circuits_dir, tmp_path, capsys):
        doc = json.loads((circuits_dir / "merge_split.json").read_text())
        doc["steps"][0]["bind"] = bind
        path = tmp_path / "first_bind.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.jsonl"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr() == ("", (
            "error: step 0: the first step takes no bind map; its inputs are the initial state\n"
        ) * 2)
        assert not out.exists()


def _malformed(case: str, circuits_dir: Path) -> dict:
    bell = str(circuits_dir / "bell_pair.json")
    if case == "program without steps":
        return {"kind": "program"}
    if case == "initial state not a list":
        return {"kind": "program", "steps": [{"circuit_file": bell}], "initial_state": "abc"}
    doc = json.loads(Path(bell).read_text())
    if case == "kraus entry not a matrix":
        doc["nodes"][0]["events"][0]["kraus"][0] = "oops"
    else:  # "dimension not a number"
        doc["systems"][0]["dim"] = "two"
    return doc


@pytest.mark.parametrize("command", ["run", "enumerate", "classify", "validate"])
@pytest.mark.parametrize("case", ["program without steps", "initial state not a list",
                                  "kraus entry not a matrix", "dimension not a number"])
def test_malformed_document_gives_one_error_line(command, case, circuits_dir, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed(case, circuits_dir)))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    prefix = "invalid: " if command == "validate" else "error: "
    assert captured.err.startswith(prefix + "malformed "), captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


FIELD_CASES = {
    # Shapes that raised a traceback.
    "port name is a list": ("merge_split.json", ("steps", 0, "circuit", "nodes", 0, "outputs"),
                            [["Q1"]], "circuit document: port name must be a string, got ['Q1']"),
    "condition map is a list": ("conditioned_step.json", ("nodes", 1, "condition", "map"),
                                [[0], [1]], "circuit document: condition map must be an object"),
    "bind pair too short": ("merge_split.json", ("steps", 1, "bind"), [[0], [1]],
                            "program document: not enough values to unpack"),
    "bind position a string": ("merge_split.json", ("steps", 1, "bind"), [["a", 0], [1, 1]],
                               "program document: bind position must be an integer, got 'a'"),
    "bind an object": ("merge_split.json", ("steps", 1, "bind"), {"0": 0},
                       "program document: not enough values to unpack"),
    "no steps": ("merge_split.json", ("steps",), [], "program document: no steps"),
    # Values the decoder coerced.
    "dim a fraction": ("bell_pair.json", ("systems", 0, "dim"), 2.5,
                       "circuit document: dim must be an integer, got 2.5"),
    "dim a boolean": ("bell_pair.json", ("systems", 0, "dim"), True,
                      "circuit document: dim must be an integer, got True"),
    "dim a string": ("bell_pair.json", ("systems", 0, "dim"), "2",
                     "circuit document: dim must be an integer, got '2'"),
    "port index a string": ("bell_pair.json", ("wires", 0, "from", 1), "0",
                            "circuit document: port index must be an integer, got '0'"),
    "port index a fraction": ("bell_pair.json", ("wires", 0, "to", 1), 0.0,
                              "circuit document: port index must be an integer, got 0.0"),
    "outcome an object": ("bell_pair.json", ("nodes", 1, "events", 0, "outcome"), {"a": 1},
                          "circuit document: outcome must be a string, got {'a': 1}"),
    "outcome a boolean": ("bell_pair.json", ("nodes", 1, "events", 0, "outcome"), False,
                          "circuit document: outcome must be a string, got False"),
    "node label a fraction": ("bell_pair.json", ("nodes", 0, "label"), 1.5,
                              "circuit document: node label must be a string, got 1.5"),
    "port name null": ("bell_pair.json", ("nodes", 0, "outputs", 0), None,
                       "circuit document: port name must be a string, got None"),
    "event index a fraction": ("conditioned_step.json", ("nodes", 1, "condition", "map", "0", 0),
                               0.0, "circuit document: event index must be an integer, got 0.0"),
    "closed a string": ("bloch_axes.json", ("closed",), "no",
                        "circuit document: closed must be a boolean, got 'no'"),
    "closed a number": ("bell_pair.json", ("closed",), 1,
                        "circuit document: closed must be a boolean, got 1"),
    "kraus entry a boolean": ("bell_pair.json", ("nodes", 1, "events", 0, "kraus", 0, 0, 0), True,
                              "circuit document: not a complex scalar: True"),
    "kraus part a boolean": ("bell_pair.json", ("nodes", 1, "events", 0, "kraus", 0, 0, 0, 0),
                             True, "circuit document: not a complex scalar: [True, 0.0]"),
    "state entry a boolean": ("conditioned_step_program.json", ("initial_state", 0, 1), False,
                              "program document: not a complex scalar: [0.70710678"),
    # Integers that raised OverflowError.
    "kraus entry beyond float range": ("bell_pair.json", ("nodes", 1, "events", 0, "kraus", 0, 0, 0),
                                       10 ** 400, "circuit document: complex scalar out of float "
                                       "range: 100000000000000000...0000000000000000000"),
    "kraus part beyond float range": ("bell_pair.json",
                                      ("nodes", 1, "events", 0, "kraus", 0, 0, 0, 1), -10 ** 400,
                                      "circuit document: complex scalar out of float range: [1.0, "
                                      "-10000000000000000...0000000000000000000]"),
    "state entry beyond float range": ("conditioned_step_program.json", ("initial_state", 0, 1),
                                       10 ** 400, "program document: complex scalar out of float "
                                       "range: [0.7071067811865475, 100000000000000000...000000"),
}


def _with_field(circuits_dir: Path, name: str, path: tuple, value) -> dict:
    doc = json.loads((circuits_dir / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("command", ["run", "enumerate", "classify", "validate"])
@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_malformed_field_gives_one_error_line(command, case, circuits_dir, tmp_path, capsys):
    name, field, value, message = FIELD_CASES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with_field(circuits_dir, name, field, value)))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    prefix = "invalid: " if command == "validate" else "error: "
    assert captured.err.startswith(prefix + "malformed " + message), captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert "Traceback" not in captured.err


def test_integer_labels_read_as_text(circuits_dir, tmp_path, capsys):
    """An integer outcome, label or port name stands for its decimal text,
    so such a file runs as the shipped one does."""
    doc = json.loads((circuits_dir / "bell_pair.json").read_text())
    doc["systems"][0]["label"] = 7
    doc["nodes"][0]["outputs"][0] = 7
    doc["nodes"][1]["inputs"][0] = 7
    for event in doc["nodes"][1]["events"]:
        event["outcome"] = int(event["outcome"])
    path = tmp_path / "integers.json"
    path.write_text(json.dumps(doc))
    argv = ["--trajectories", "20", "--seed", "3"]
    assert main(["run", str(path), *argv]) == 0
    renamed = capsys.readouterr().out
    assert main(["run", str(circuits_dir / "bell_pair.json"), *argv]) == 0
    assert renamed == capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "enumerate", "classify", "validate"])
def test_json_syntax_error_reads_the_same_everywhere(command, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "systems": }')
    assert main([command, str(path)]) == 1
    prefix = "invalid: " if command == "validate" else "error: "
    assert capsys.readouterr().err == prefix + "JSON syntax error at line 1, col 26: Expecting value\n"


@pytest.mark.parametrize("command", ["run", "enumerate", "classify", "validate"])
def test_each_document_parsed_once(command, circuits_dir, tmp_path, monkeypatch):
    loads, parsed = json.loads, []
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    circuit = circuits_dir / "bell_pair.json"
    assert main([command, str(circuit)]) == 0
    assert parsed == [circuit.read_text()]
    prog = {"kind": "program", "name": "two-files",
            "steps": [{"circuit_file": str(circuit)},
                      {"circuit_file": str(circuits_dir / "bell_pair.opt")}]}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(prog))
    parsed.clear()
    assert main([command, str(path)]) == 0
    assert parsed == [path.read_text(), circuit.read_text()]


@pytest.mark.parametrize("command", ["run", "classify"])
def test_overflowing_kraus_entry_is_named(command, circuits_dir, tmp_path, capsys):
    doc = json.loads((circuits_dir / "conditioned_step_program.json").read_text())
    doc["steps"][0]["circuit"]["nodes"][3]["events"][0]["kraus"][0][0][0] = [1e308, 0.0]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "node 'R'" in err and "not finite" in err
    assert "zero weight" not in err and "Warning" not in err


def test_overflowing_initial_state_prints_one_line(circuits_dir, tmp_path):
    """An initial-state entry of 1e308 overflows the norm; the one line on
    stderr is the verdict, with no numpy warning before it. A subprocess,
    because pytest would capture the warning."""
    doc = json.loads((circuits_dir / "conditioned_step_program.json").read_text())
    doc["initial_state"][0] = [1e308, 0.0]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "onticsim.cli", "run", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: initial state is not normalized\n"


@pytest.mark.parametrize("fmt", ["jsonl", "json"])
def test_bad_initial_state_refused_before_output(fmt, circuits_dir, tmp_path, capsys):
    doc = json.loads((circuits_dir / "conditioned_step_program.json").read_text())
    doc["initial_state"][0] = [2, 0]
    path = tmp_path / "unnormalized.json"
    path.write_text(json.dumps(doc))
    args = ["run", str(path), "--trajectories", "5", "--format", fmt]
    out = tmp_path / "out"
    for extra in ([], ["--out", str(out)]):
        assert main(args + extra) == 1
        assert capsys.readouterr() == ("", "error: initial state is not normalized\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "bell_pair.json", "--trajectories", "-3"],
    ["bench-memory", "--trials", "0"],
    ["bench-memory", "--copies", "x"],
    ["bench-memory", "--dims", "2,"],
    ["bench-memory", "--copies", "0"],
    ["bench-memory", "--dims", "1"],
    # A strategy name is checked before any row is written.
    ["bench-memory", "--strategies", "nope"],
    ["bench-memory", "--strategies", ","],
    ["bench-memory", "--strategies", "sic_estimate,"],
    ["bench-memory", "--strategies", "sic_estimate,Sic_estimate"],
    # A tolerance that is not finite and >= 0 would accept a trace-increasing node.
    ["validate", "bell_pair.json", "--tolerance", "nan"],
    ["validate", "bell_pair.json", "--tolerance", "inf"],
    ["validate", "bell_pair.json", "--tolerance", "-1"],
    ["validate", "bell_pair.json", "--tolerance", "x"],
    # Each subcommand takes only the options it reads.
    ["enumerate", "bell_pair.json", "--seed", "1"],
    ["bench-memory", "--max-dim", "5"],
    # A cap below 1 admits no leaf.
    *([command, "bell_pair.json", "--max-dim", cap]
      for command in ("run", "enumerate", "classify") for cap in ("0", "-1", "x")),
])
def test_bad_argument_is_a_usage_error(argv, circuits_dir, capsys):
    argv = [str(circuits_dir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "Traceback" not in captured.err


GROW_DSL = """circuit grow closed
sys A : q2
sys B : q2
sys C : q2
node prep : -> A B C = state(0)
node read : A B C -> = effect
wire prep.0 -> read.0
wire prep.1 -> read.1
wire prep.2 -> read.2
"""


@pytest.mark.parametrize("command", ["run", "enumerate", "classify"])
def test_max_dim_caps_internal_leaves(command, tmp_path, capsys):
    """Both boundary leaves are 1-dim; the leaf between the two nodes is 8-dim."""
    path = tmp_path / "grow.opt"
    path.write_text(GROW_DSL)
    assert main([command, str(path), "--max-dim", "8"]) == 0
    capsys.readouterr()
    assert main([command, str(path), "--max-dim", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step 0: leaf dimension exceeds cap 4\n"


@pytest.mark.parametrize("argv, given", [
    (["run", "conditioned_step_program.json", "--inputs", "1,0,1,1"], 4),
    (["run", "conditioned_step_program.json", "--inputs", "1,0", "--format", "json"], 2),
    (["enumerate", "bell_pair.json", "--inputs", "5,6"], 2),
    (["enumerate", "bell_pair.json", "--inputs", "5,6", "--format", "csv"], 2),
])
def test_surplus_inputs_refused(argv, given, circuits_dir, tmp_path, capsys):
    command, name, *options = argv
    args = [command, str(circuits_dir / name), *options]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: got {given} classical inputs for a 1-step program\n"
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--trajectories", "5"],
    ["run", "--trajectories", "5", "--format", "json"],
    ["run", "--trajectories", "0"],
    ["enumerate"],
    ["enumerate", "--format", "csv"],
])
def test_unmapped_input_refused_before_output(argv, circuits_dir, tmp_path, capsys):
    """Node A reads @input, and its condition has no entry for 7."""
    command, *options = argv
    args = [command, str(circuits_dir / "conditioned_step_program.json"), "--inputs", "7", *options]
    out = tmp_path / "out"
    for extra in ([], ["--out", str(out)]):
        assert main(args + extra) == 1
        assert capsys.readouterr() == (
            "", "error: node 'A': no conditioning entry for source outcome '7'\n")
    assert not out.exists()


class TestRun:
    def test_replay_is_byte_identical(self, circuits_dir, tmp_path):
        args = [
            "run", str(circuits_dir / "conditioned_step_program.json"),
            "--seed", "42", "--trajectories", "50",
        ]
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_trajectories_empty_output(self, circuits_dir, capsys):
        assert main([
            "run", str(circuits_dir / "bell_pair.json"),
            "--trajectories", "0",
        ]) == 0
        assert capsys.readouterr().out == ""

    def test_frequencies_match_enumeration(self, circuits_dir, tmp_path):
        out = tmp_path / "runs.jsonl"
        assert main([
            "run", str(circuits_dir / "conditioned_step_program.json"),
            "--seed", "7", "--trajectories", "4000", "--out", str(out),
        ]) == 0
        counts = {}
        lines = out.read_text().splitlines()
        assert len(lines) == 4000
        for line in lines:
            rec = json.loads(line)
            key = tuple(tuple(kv) for kv in rec["outcomes"])
            counts[key] = counts.get(key, 0) + 1
            assert 0.0 <= rec["probability"] <= 1.0
        exact = {
            tuple(tuple(kv) for kv in key): p
            for key, p in enumerate_histories(gallery.conditioned_step_program())
        }
        tv = 0.5 * sum(abs(counts.get(k, 0) / 4000 - p) for k, p in exact.items())
        tv += 0.5 * sum(c / 4000 for k, c in counts.items() if k not in exact)
        assert tv < 0.05

    def test_json_format_is_single_document(self, circuits_dir, capsys):
        assert main([
            "run", str(circuits_dir / "bell_pair.json"),
            "--trajectories", "3", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, list) and len(doc) == 3

    def test_run_accepts_dsl_circuit(self, circuits_dir, capsys):
        assert main([
            "run", str(circuits_dir / "bell_pair.opt"), "--trajectories", "2",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        outcomes = dict(tuple(kv) for kv in rec["outcomes"])
        assert outcomes["left"] == outcomes["right"]  # Bell correlations

    def test_program_with_circuit_file_reference(self, circuits_dir, tmp_path, capsys):
        prog = {
            "kind": "program",
            "name": "by-reference",
            "steps": [{"circuit_file": str(circuits_dir / "bell_pair.json")}],
        }
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(prog))
        assert main(["run", str(path), "--trajectories", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize("command", ["run", "enumerate"])
    def test_each_circuit_file_validated_once(self, command, circuits_dir, tmp_path, monkeypatch):
        from onticsim import circuit

        validated = []
        validate_dag = circuit.validate_dag

        def counting(c, **kwargs):
            validated.append(c.name)
            return validate_dag(c, **kwargs)

        monkeypatch.setattr(circuit, "validate_dag", counting)
        prog = {
            "kind": "program",
            "name": "two-files",
            "steps": [{"circuit_file": str(circuits_dir / "bell_pair.json")},
                      {"circuit_file": str(circuits_dir / "bell_pair.opt")}],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(prog))
        assert main([command, str(path)]) == 0
        assert len(validated) == 2

    @pytest.mark.parametrize("fmt", ["jsonl", "json"])
    def test_sampling_error_ends_output_at_last_complete_batch(self, fmt, circuits_dir,
                                                               tmp_path, monkeypatch, capsys):
        from onticsim import engine

        args = ["run", str(circuits_dir / "conditioned_step_program.json"),
                "--trajectories", "10", "--seed", "3", "--format", fmt]
        full = tmp_path / "full"
        assert main(args + ["--out", str(full)]) == 0
        batches = []
        sample_batch, check = engine._sample_batch, engine._check_slice_total

        def counting_batch(*a, **kw):
            batches.append(None)
            return sample_batch(*a, **kw)

        def failing_check(branches, weights):
            if len(batches) == 2:
                raise engine.EngineError("slice outcome weights sum to 0.5")
            check(branches, weights)

        monkeypatch.setattr(engine, "BATCH_SIZE", 4)
        monkeypatch.setattr(engine, "_sample_batch", counting_batch)
        monkeypatch.setattr(engine, "_check_slice_total", failing_check)
        cut = tmp_path / "cut"
        assert main(args + ["--out", str(cut)]) == 1
        assert capsys.readouterr().err == "error: slice outcome weights sum to 0.5\n"
        assert len(batches) == 2
        if fmt == "jsonl":
            assert cut.read_text().splitlines() == full.read_text().splitlines()[:4]
        else:
            text = cut.read_text()
            assert full.read_text().startswith(text) and '"index": 3' in text
            assert '"index": 4' not in text

    def test_final_state_stored_on_request(self, circuits_dir, capsys):
        assert main([
            "run", str(circuits_dir / "conditioned_step_program.json"),
            "--trajectories", "1", "--store-states",
        ]) == 0
        rec = json.loads(capsys.readouterr().out)
        amps = np.array([complex(re, im) for re, im in rec["final_state"]])
        assert abs(np.linalg.norm(amps) - 1) < 1e-9


class TestEnumerate:
    def test_total_probability_one(self, circuits_dir, capsys):
        assert main(["enumerate", str(circuits_dir / "conditioned_step_program.json")]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert abs(doc["total_probability"] - 1) < 1e-9
        assert len(doc["histories"]) == 32

    @pytest.mark.parametrize("name", ["conditioned_step_closed.json", "conditioned_step_program.json",
                                      "merge_split.json"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_total_probability_is_a_left_to_right_fold(self, circuits_dir, capsys, name, fmt):
        """The total is the written probabilities added one by one in
        record order, in the document and in the summary line."""
        assert main(["enumerate", str(circuits_dir / name), "--format", fmt]) == 0
        captured = capsys.readouterr()
        if fmt == "json":
            doc = json.loads(captured.out)
            probabilities = [h["probability"] for h in doc["histories"]]
        else:
            probabilities = [float(p) for _, p in list(csv.reader(io.StringIO(captured.out)))[1:]]
        total = 0.0
        for p in probabilities:
            total += p
        if fmt == "json":
            assert doc["total_probability"] == total
        assert captured.err == f"{len(probabilities)} histories, total probability {total:.12f}\n"

    def test_csv_format(self, circuits_dir, capsys):
        assert main([
            "enumerate", str(circuits_dir / "bell_pair.json"), "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "outcomes,probability"
        assert len(lines) == 5  # header + 4 joint outcomes

    def test_csv_quotes_a_label_with_a_comma(self, tmp_path, capsys):
        doc = json.loads(serialize_circuit(closed_chain(1)))
        assert doc["nodes"][-1]["label"] == doc["wires"][-1]["to"][0] == "m"
        doc["nodes"][-1]["label"] = doc["wires"][-1]["to"][0] = "a,b"
        path = tmp_path / "comma.json"
        path.write_text(json.dumps(doc))
        assert main(["enumerate", str(path), "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[1].startswith('"a,b=0",')
        law = enumerate_histories(closed_chain(1))
        assert list(csv.reader(io.StringIO(text))) == [
            ["outcomes", "probability"], *([f"a,b={o}", f"{p:.17g}"] for ((_, o),), p in law)
        ]

    def test_csv_bytes_match_csv_writer(self, tmp_path, capsys):
        doc = json.loads(serialize_circuit(reprepare_chain(3)))
        names = {"m0": "a,b", "m1": 'say "hi"', "m2": "two\nlines"}
        for node in doc["nodes"]:
            node["label"] = names.get(node["label"], node["label"])
        for wire in doc["wires"]:
            for end in (wire["from"], wire["to"]):
                end[0] = names.get(end[0], end[0])
        path = tmp_path / "quotes.json"
        path.write_text(json.dumps(doc))
        assert main(["enumerate", str(path), "--format", "csv"]) == 0
        want = io.StringIO()
        rows = csv.writer(want, lineterminator="\n")
        rows.writerow(["outcomes", "probability"])
        law = enumerate_histories(reprepare_chain(3))
        rows.writerows((";".join(f"{names[label]}={o}" for label, o in key), f"{p:.17g}")
                       for key, p in law)
        assert capsys.readouterr().out == want.getvalue()
        assert '"a,b=0;say ""hi""=0;two\nlines=0",' in want.getvalue()

    def test_deep_chain(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(serialize_circuit(closed_chain(DEEP_CHAIN)))
        assert main(["enumerate", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [h["outcomes"] for h in doc["histories"]] == [[["m", "0"]], [["m", "1"]]]
        assert abs(doc["total_probability"] - 1) < 1e-9


class TestClassify:
    def test_merge_split_timeline(self, circuits_dir, capsys):
        assert main(["classify", str(circuits_dir / "merge_split.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["partition"] for entry in doc] == [[[0], [1]], [[0, 1]], [[0], [1]]]
        assert all(abs(p - 1) < 1e-8 for entry in doc for p in entry["purities"])

    def test_matches_library_call(self, circuits_dir, capsys):
        from onticsim.engine import run_trajectory
        from onticsim.individuation import classify_timeline

        assert main(["classify", str(circuits_dir / "merge_split.json"), "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        traj = run_trajectory(gallery.merge_split_program(), seed=5, store_states=True)
        expected = classify_timeline(traj)
        assert [entry["partition"] for entry in doc] == [p.block_lists() for p in expected]

    def test_no_shipped_circuit_raises(self, circuits_dir, tmp_path, capsys):
        # A closed circuit ends on a scalar state, which has the empty partition.
        for path in sorted(circuits_dir.iterdir()):
            code = main(["classify", str(path), "--out", str(tmp_path / "out")])
            assert code in (0, 1), path.name


class TestBenchMemory:
    def test_csv_structure_and_bound_column(self, capsys):
        assert main([
            "bench-memory", "--strategies", "optimal_covariant_qubit",
            "--copies", "1", "--dims", "2", "--trials", "2000",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "strategy,M,d,trials,mean_fidelity,std_error,bound"
        fields = lines[1].split(",")
        assert fields[0] == "optimal_covariant_qubit"
        assert fields[6] == "0.666667"
        mean = float(fields[4])
        assert abs(mean - 2 / 3) < 0.03

    def test_unsupported_combination_warns_and_skips(self, capsys):
        assert main([
            "bench-memory", "--strategies", "sic_estimate",
            "--copies", "1", "--dims", "5", "--trials", "100",
        ]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines[1].startswith("sic_estimate,1,5,0,,,")

    def test_deterministic_given_seed(self, capsys):
        args = [
            "bench-memory", "--strategies", "random_vn_repeat",
            "--copies", "2", "--dims", "2", "--trials", "1000", "--seed", "3",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestStreaming:
    """Documents are written record by record, so the memory a command
    needs does not grow with the number of records it writes."""

    @staticmethod
    def _peak(argv: list[str]) -> int:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_run_json_document_streams(self, circuits_dir, tmp_path):
        argv = ["run", str(circuits_dir / "conditioned_step_program.json"), "--format", "json",
                "--store-states", "--out", str(tmp_path / "runs.json"), "--trajectories"]
        assert main(argv + ["10"]) == 0  # first use: imports and caches
        small = self._peak(argv + ["2000"])
        large = self._peak(argv + ["20000"])
        assert large < 1.5 * small, (small, large)
        doc = json.loads((tmp_path / "runs.json").read_text())
        assert [rec["index"] for rec in doc] == list(range(20000))

    def test_enumerate_document_streams(self, tmp_path):
        """The real enumerator on chains of 2 ** 13 and 2 ** 16 histories:
        the law is written chunk by chunk, never held whole."""
        out = tmp_path / "law.json"
        peaks = []
        for k in (2, 13, 16):  # the first use imports and fills caches
            path = tmp_path / f"chain-{k}.json"
            path.write_text(serialize_circuit(reprepare_chain(k)))
            peaks.append(self._peak(["enumerate", str(path), "--out", str(out)]))
        assert peaks[2] < 1.5 * peaks[1], peaks[1:]
        doc = json.loads(out.read_text())
        assert len(doc["histories"]) == 2 ** 16
        assert doc["histories"][7]["outcomes"] == [[f"m{j}", "0"] for j in range(13)] + [
            [f"m{j}", "1"] for j in range(13, 16)]
        assert doc["histories"][7]["probability"] == pytest.approx(2.0 ** -16, rel=1e-12)

    def test_over_cap_enumerate_writes_nothing(self, tmp_path, capsys):
        """The cap is checked before the output is opened, at the count
        ``enumerate_histories`` raises at: ``cap`` histories pass and
        ``cap + 1`` raise."""
        law = enumerate_histories(reprepare_chain(3), cap=8)
        assert len(law) == 8
        with pytest.raises(HistoryCapExceeded, match="^more than 7 histories$"):
            enumerate_histories(reprepare_chain(3), cap=7)
        path, out = tmp_path / "chain.json", tmp_path / "law.json"
        path.write_text(serialize_circuit(reprepare_chain(18)))
        assert 2 ** 18 > DEFAULT_HISTORY_CAP
        assert main(["enumerate", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: more than {DEFAULT_HISTORY_CAP} histories\n"
        assert not out.exists()
