"""Shared JSON encoding: complex scalars as [re, im] pairs, matrices as
row-major nested arrays, and deterministic float formatting (17 significant
digits) so equal data always yields equal bytes. ``dumps`` serializes any
document; ``RecordWriter`` and ``format_vectors`` make the same bytes for
batches of the CLI's outcome records and of state vectors, from templates.
"""

from __future__ import annotations

import functools
import math
import reprlib
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(m) -> list[list[list[float]]]:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[encode_complex(z) for z in row] for row in m]


def encode_vector(v) -> list[list[float]]:
    return [encode_complex(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def _is_number(obj) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _decode_scalar(obj) -> complex:
    """A number, or an [re, im] pair of numbers; a JSON boolean is neither,
    and an integer beyond float range is refused."""
    try:
        if _is_number(obj):
            return complex(obj)
        if isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj)):
            return complex(obj[0], obj[1])
    except OverflowError:
        raise ValueError(f"complex scalar out of float range: {reprlib.repr(obj)}") from None
    raise ValueError(f"not a complex scalar: {reprlib.repr(obj)}")


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix must be a nonempty nested list")
    rows = []
    for row in obj:
        if not isinstance(row, list) or not row:
            raise ValueError("matrix rows must be nonempty lists")
        rows.append([_decode_scalar(x) for x in row])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    return np.array(rows, dtype=complex)


def decode_vector(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise ValueError("vector must be a list")
    return np.array([_decode_scalar(x) for x in obj], dtype=complex)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in JSON output")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _integral(x: np.ndarray) -> np.ndarray:
    """Where ``format_float`` writes an entry of ``x`` as ``%.1f``: the
    integral ones below 1e16. Raises for a non-finite entry."""
    if not np.isfinite(x).all():
        raise ValueError("non-finite float in JSON output")
    return (x == np.trunc(x)) & (np.abs(x) < 1e16)


def format_vectors(states, indent: int | None = None, level: int = 0) -> list[str]:
    """``dumps(encode_vector(row), indent=indent, level=level)`` for each row
    of an (n, d) complex array: one ``%`` template per pattern of entries
    that ``format_float`` writes as integers."""
    parts = np.ascontiguousarray(states, dtype=complex).view(np.float64)
    integral = _integral(parts)
    _, kinds, which = np.unique(np.packbits(integral, axis=1), axis=0, return_index=True,
                                return_inverse=True)
    first, pad, end = _breaks(indent, level)
    specs = [["%.1f" if i else "%.17g" for i in row] for row in integral[kinds].tolist()]
    templates = [f"[{first}{pad.join(map('[{}, {}]'.format, s[::2], s[1::2]))}{end}]" for s in specs]
    return [templates[k] % tuple(row.tolist()) for k, row in zip(which.reshape(-1).tolist(), parts)]


def dumps(obj, *, indent: int | None = None, level: int = 0) -> str:
    """Serialize with canonical float formatting, indented as if ``level``
    deep in a document; keys keep insertion order."""
    out: list[str] = []
    _emit(obj, out.append, indent, level)
    return "".join(out)


class RecordWriter:
    """Records ``{*head, "outcomes": [[label, outcome], ...], "probability": p,
    *tail}`` with the bytes ``dumps`` gives them in the document that ``write``
    makes: a top-level array, or with ``key`` the first member of a top-level
    object. ``format`` makes a batch of records, each from one ``%`` template
    over JSON texts (or ints). Each distinct pair's text is made once, in a
    bounded cache, so memory does not grow with the document."""

    PAIR_CACHE = 256

    def __init__(self, head=(), tail=(), *, indent: int | None = None, key: str | None = None):
        self.indent, self.key = indent, key
        self.level = level = 1 if key is None else 2
        first, pad, end = _breaks(indent, level)
        keys = (*head, "outcomes", "probability", *tail)
        template = "{" + first + pad.join(f"{_encode_str(k)}: %s" for k in keys) + end + "}"
        # by whether the probability is integral
        self._templates = tuple(template.replace('"probability": %s', f'"probability": {spec}')
                                for spec in ("%.17g", "%.1f"))
        self._list = _breaks(indent, level + 1)
        self.pair = functools.lru_cache(self.PAIR_CACHE)(  # the text of a (label, outcome) pair
            lambda kv: dumps(list(kv), indent=indent, level=level + 2))

    def joiner(self, k: int):
        """The outcomes texts of rows of ``k`` pair texts each."""
        first, pad, end = self._list
        wrap = f"[{first}%s{end}]" if k else "[]%s"  # the empty list has no breaks
        return lambda rows: map(wrap.__mod__, map(pad.join, rows))

    def vectors(self, states) -> list[str]:
        """The text of ``encode_vector(row)`` as a tail value, for each row of ``states``."""
        return format_vectors(states, self.indent, self.level + 1)

    def format(self, outcomes, probabilities, head=(), tail=()) -> list[str]:
        """The texts of a batch of records, one per ``outcomes`` text and
        probability, with the values of each ``head`` and ``tail`` column. A
        probability is written as ``format_float`` writes it, checked once."""
        p = np.asarray(probabilities, dtype=np.float64)
        templates = self._templates
        return [templates[i] % row
                for i, row in zip(_integral(p).tolist(), zip(*head, outcomes, p.tolist(), *tail))]

    def write(self, write, batches, **members) -> None:
        """Write the document of the record texts in ``batches``, one ``write``
        per batch as it comes; with ``key``, ``members`` (a function: its
        value once the records are written) follow the records in the object."""
        records = _Texts(batches)
        _emit(records if self.key is None else {self.key: records, **members}, write, self.indent, 0)


class _Texts:
    """An array whose items come as batches of JSON texts, written as they come."""

    def __init__(self, batches):
        self.batches = batches


def _emit(obj, write, indent: int | None, level: int) -> None:
    if isinstance(obj, str):
        write(_encode_str(obj))
    elif isinstance(obj, (float, np.floating)):
        write(format_float(float(obj)))
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif obj is None:
        write("null")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, dict):
        first, pad, end = _breaks(indent, level)
        for i, (k, v) in enumerate(obj.items()):
            write((pad if i else "{" + first) + _encode_str(str(k)) + ": ")
            _emit(v, write, indent, level + 1)
        write(end + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        # Flat numeric pairs ([re, im]) stay on one line even when indenting.
        flat = all(isinstance(x, (int, float, bool)) or x is None for x in obj)
        first, pad, end = ("", ", ", "") if flat else _breaks(indent, level)
        for i, v in enumerate(obj):
            write(pad if i else "[" + first)
            _emit(v, write, indent, level + 1)
        write(end + "]" if obj else "[]")
    elif isinstance(obj, _Texts):
        first, pad, end = _breaks(indent, level)
        sep = "[" + first
        for batch in filter(None, obj.batches):
            write(sep)
            write(pad.join(batch))
            sep = pad
        write(end + "]" if sep == pad else "[]")
    elif callable(obj):  # a value made when its turn to be written comes
        _emit(obj(), write, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _breaks(indent: int | None, level: int) -> tuple[str, str, str]:
    """What goes before a container's first item, between items, and before
    its closing bracket."""
    if indent is None:
        return "", ", ", ""
    inner = "\n" + " " * (indent * (level + 1))
    return inner, "," + inner, "\n" + " " * (indent * level)
