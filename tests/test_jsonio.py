import io
import json

import numpy as np
import pytest

from onticsim import jsonio

DOC = {
    "name": "café \"q\"\n",
    "flat": [1, 2.5, True, None],
    "mixed": ["u", 0],
    "nested": [[0.1, -0.0], [], {}],
    "scalars": [np.int64(3), np.float64(1e300), False],
}


@pytest.mark.parametrize("indent", [None, 2])
def test_dump_writes_the_bytes_of_dumps(indent):
    stream = io.StringIO()
    jsonio.dump(DOC, stream, indent=indent)
    assert stream.getvalue() == jsonio.dumps(DOC, indent=indent)
    assert json.loads(stream.getvalue())["name"] == DOC["name"]


def test_strings_are_encoded_as_json_encodes_them():
    for text in ["", "plain", "café", "tab\tquote\"back\\slash", " \U0001f600"]:
        assert jsonio.dumps(text) == json.dumps(text)


@pytest.mark.parametrize("indent", [None, 2])
def test_iterator_of_records_matches_the_list(indent):
    records = [{"outcomes": [["a", "0"]], "probability": 0.5}, {"outcomes": [], "probability": 1.0}]
    stream = io.StringIO()
    jsonio.dump({"histories": iter(records)}, stream, indent=indent)
    assert stream.getvalue() == jsonio.dumps({"histories": records}, indent=indent)


def test_empty_iterator_is_an_empty_array():
    assert jsonio.dumps(iter([]), indent=2) == "[]"
    assert jsonio.dumps({"a": (x for x in ())}, indent=2) == '{\n  "a": []\n}'


def test_iterator_items_are_taken_one_at_a_time():
    stream = io.StringIO()
    seen = []

    def records():
        for i in range(3):
            seen.append(stream.getvalue())  # what was written before item i is made
            yield {"i": i}

    jsonio.dump(records(), stream)
    assert seen == ["[", '[{"i": 0}', '[{"i": 0}, {"i": 1}']


def test_non_finite_and_unknown_values_are_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dumps([float("nan")])
    with pytest.raises(TypeError, match="ndarray"):
        jsonio.dumps(np.zeros(2))
