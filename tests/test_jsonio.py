import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from onticsim import jsonio

DOC = {
    "name": "café \"q\"\n",
    "flat": [1, 2.5, True, None],
    "mixed": ["u", 0],
    "nested": [[0.1, -0.0], [], {}],
    "scalars": [np.int64(3), np.float64(1e300), False],
}


@pytest.mark.parametrize("indent", [None, 2])
def test_dumps_reads_back_as_the_document(indent):
    doc = json.loads(jsonio.dumps(DOC, indent=indent))
    assert doc["name"] == DOC["name"] and doc["nested"] == [[0.1, -0.0], [], {}]
    assert doc["scalars"] == [3, 1e300, False]


def test_strings_are_encoded_as_json_encodes_them():
    for text in ["", "plain", "café", "tab\tquote\"back\\slash", " \U0001f600"]:
        assert jsonio.dumps(text) == json.dumps(text)


def test_non_finite_and_unknown_values_are_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dumps([float("nan")])
    with pytest.raises(TypeError, match="ndarray"):
        jsonio.dumps(np.zeros(2))


@pytest.mark.parametrize("entry", [10 ** 400, -10 ** 400, [0, 10 ** 400], [10 ** 309, 1.5]])
def test_integers_beyond_float_range_are_refused(entry):
    """``complex`` raises OverflowError for them; the decoder raises the
    ValueError every loader reports as a malformed document."""
    for decode, doc in ((jsonio.decode_matrix, [[1, entry]]), (jsonio.decode_vector, [entry])):
        with pytest.raises(ValueError, match=r"^complex scalar out of float range: .*10+\.\.\.0+"):
            decode(doc)
    assert jsonio.decode_vector([10 ** 308, [0, -(10 ** 308)]]).tolist() == [1e308, -1e308j]


# --- RecordWriter ----------------------------------------------------------------

STATES = np.array([[1.0, 0.5j], [-0.0, 1 / 3 - 2j]])
RECORDS = [  # (index, outcome pairs, probability)
    (0, [("a", "0"), ("b", "1")], 0.25),
    (1, [], 1.0),
    (2, [("a\"b", "é"), ("☃", "x\\y")], 1 / 3),
]


def _outcomes(writer, items) -> str:
    """The outcomes text of one record, from its pairs' texts."""
    text, = writer.joiner(len(items))([tuple(map(writer.pair, items))])
    return text


def _written(records, indent, key, states=False) -> list[str]:
    """The writer's ``write`` calls for ``records`` (index, pairs, probability)."""
    writer = jsonio.RecordWriter(("seed", "index"), ("final_state",) if states else (),
                                 indent=indent, key=key)
    texts = writer.vectors(STATES[[i % 2 for i, _, _ in records]])
    calls = []
    texts = writer.format(
        [_outcomes(writer, pairs) for _, pairs, _ in records], [p for _, _, p in records],
        head=([7] * len(records), [i for i, _, _ in records]), tail=(texts,) if states else ())
    writer.write(calls.append, ([text] for text in texts), total_probability=1.0)
    return calls


def _expected(records, indent, key, states=False) -> str:
    docs = []
    for i, pairs, p in records:
        doc = {"seed": 7, "index": i, "outcomes": [list(kv) for kv in pairs], "probability": p}
        if states:
            doc["final_state"] = jsonio.encode_vector(STATES[i % 2])
        docs.append(doc)
    return jsonio.dumps(docs if key is None else {key: docs, "total_probability": 1.0},
                        indent=indent)


@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("key", [None, "histories"])
@pytest.mark.parametrize("states", [False, True])
@pytest.mark.parametrize("count", [0, 1, 3])
def test_record_writer_bytes_equal_dumps(indent, key, states, count):
    """0 records, 1 record, an empty outcome list, and labels that need
    escaping (a quote, a backslash, non-ASCII) write the bytes of ``dumps``,
    each record whole in its own ``write``."""
    calls = _written(RECORDS[:count], indent, key, states)
    assert "".join(calls) == _expected(RECORDS[:count], indent, key, states)
    assert [c.count('"probability"') for c in calls if '"probability"' in c] == [1] * count


def test_record_text_is_the_jsonl_line():
    writer = jsonio.RecordWriter(("seed", "index"))
    for i, pairs, p in RECORDS:
        record = {"seed": 7, "index": i, "outcomes": pairs, "probability": p}
        assert writer.format([_outcomes(writer, pairs)], [p], head=([7], [i])) == [jsonio.dumps(record)]


@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("states", [False, True])
def test_records_share_body_texts(indent, states):
    """Records that share a body (outcomes, probability and tail) by
    ``body_of`` have the bytes of records given each its own copy."""
    writer = jsonio.RecordWriter(("seed", "index"), ("final_state",) if states else (),
                                 indent=indent)
    outcomes = [_outcomes(writer, pairs) for _, pairs, _ in RECORDS]
    probabilities = [p for _, _, p in RECORDS]
    tail = (writer.vectors(STATES[[0, 1, 0]]),) if states else ()
    body_of = [2, 0, 2, 1, 2]
    head = ([7] * len(body_of), range(10, 10 + len(body_of)))
    shared = writer.format(outcomes, probabilities, head=head, tail=tail, body_of=body_of)
    copied = writer.format([outcomes[b] for b in body_of], [probabilities[b] for b in body_of],
                           head=head, tail=tuple([col[b] for b in body_of] for col in tail))
    assert shared == copied and len(shared) == len(body_of)


def test_records_are_written_as_they_are_made():
    writer = jsonio.RecordWriter(indent=2)
    out = io.StringIO()
    seen = []

    def records():
        for i in range(3):
            seen.append(out.getvalue())  # what was written before record i is made
            yield writer.format([_outcomes(writer, [("n", str(i))])], [0.5])

    writer.write(out.write, records())
    assert seen[0] == "" and seen[1].endswith("0.5\n  }") and seen[2].count('"n"') == 2
    assert json.loads(out.getvalue())[2] == {"outcomes": [["n", "2"]], "probability": 0.5}


def test_batch_probabilities_are_written_as_format_float_writes_them():
    """One batch mixes integral and non-integral probabilities; each record
    picks its own number format."""
    probabilities = EDGES + [0.1, -2.5, 1 / 3]
    writer = jsonio.RecordWriter(indent=2, key="histories")
    texts = writer.format(["[]"] * len(probabilities), probabilities)
    assert texts == [jsonio.dumps({"outcomes": [], "probability": p}, indent=2, level=2)
                     for p in probabilities]


@pytest.mark.parametrize("indent, key", [(None, None), (2, None), (2, "histories")])
def test_joiner_makes_the_outcomes_text_from_pair_texts(indent, key):
    writer = jsonio.RecordWriter(indent=indent, key=key)
    for items in ([], [("a", "0")], [("a\"b", "é"), ("☃", "x\\y"), ("c", "1")]):
        rows = [tuple(map(writer.pair, items))] * 2
        text = jsonio.dumps([list(kv) for kv in items], indent=indent, level=writer.level + 1)
        assert list(writer.joiner(len(items))(rows)) == [text] * 2


def test_pair_cache_is_bounded():
    writer = jsonio.RecordWriter(indent=2, key="histories")
    n = 3 * writer.PAIR_CACHE
    for i in range(n):
        items = [("a", str(i % 3)), ("b", "x"), ("c", str(i))]
        text = _outcomes(writer, items)
    assert writer.pair.cache_info().currsize <= writer.PAIR_CACHE
    assert text == jsonio.dumps([list(kv) for kv in items], indent=2, level=3)


def test_non_finite_probability_is_rejected():
    writer = jsonio.RecordWriter()
    with pytest.raises(ValueError, match="^non-finite float in JSON output$"):
        writer.format(["[]", "[]"], [0.5, float("nan")])


# --- format_vectors ----------------------------------------------------------------

EDGES = [-0.0, 0.0, 1.0, 9999999999999998.0, 1e16, -1e16, 2.0**53, 5e-324, 1e308, -1e308]
FLOATS = hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4).map(lambda d: 2 * d)),
                    elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(parts=FLOATS, indent=st.sampled_from([None, 2]), level=st.integers(0, 3))
@example(parts=np.array([EDGES]), indent=None, level=0)
@example(parts=np.array([[v, 0.5] for v in EDGES]), indent=2, level=2)
@example(parts=np.array([[v, -v] for v in EDGES]), indent=None, level=0)
def test_format_vectors_matches_format_float(parts, indent, level):
    texts = jsonio.format_vectors(parts.view(complex), indent, level)
    assert len(texts) == len(parts)
    for text, row in zip(texts, parts.tolist()):
        assert text == jsonio.dumps(jsonio.encode_vector(np.array(row).view(complex)),
                                    indent=indent, level=level)
        if indent is None:
            pairs = (f"[{jsonio.format_float(a)}, {jsonio.format_float(b)}]"
                     for a, b in zip(row[::2], row[1::2]))
            assert text == "[" + ", ".join(pairs) + "]"


@settings(max_examples=60, deadline=None)
@given(parts=FLOATS, bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.data())
def test_format_vectors_rejects_any_non_finite_entry(parts, bad, where):
    parts = parts.copy()
    parts.flat[where.draw(st.integers(0, parts.size - 1))] = bad
    with pytest.raises(ValueError, match="^non-finite float in JSON output$"):
        jsonio.format_vectors(parts.view(complex))
