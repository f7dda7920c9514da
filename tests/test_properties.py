"""Property tests of the document path: mutated circuit and program files
go through ``cli.main`` in-process under every file command. Each run must
end in a documented exit code with a diagnosis, never in a traceback, and
a document that ``validate`` rejects must not run."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onticsim import gallery
from onticsim.cli import main

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


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(text=dsl_mutations())
# A dimension that ``str.isdigit`` accepts and ``int`` cannot read.
@example(text=gallery.BELL_PAIR_DSL.replace("A2 : q2", "A2 : q\N{SUPERSCRIPT TWO}"))
def test_mutated_dsl_document(work, text):
    target = work / "doc.opt"
    target.write_text(text)
    _check_document(target)
