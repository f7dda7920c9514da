"""Shared JSON encoding: complex scalars as [re, im] pairs, matrices as
row-major nested arrays, and one canonical writer, ``_emit``, with
deterministic float formatting (17 significant digits) so equal data always
yields equal bytes. ``dumps`` collects the writer's text into a string;
``dump`` hands it to a stream as it is made and writes an array given as an
iterator item by item, so a document never has to sit in memory whole.
``dumps_vector`` formats one state vector for the JSON Lines hot path.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
    """A number, or an [re, im] pair of numbers; a JSON boolean is neither."""
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj)):
        return complex(obj[0], obj[1])
    raise ValueError(f"not a complex scalar: {obj!r}")


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


def dumps_vector(v) -> str:
    """``dumps(encode_vector(v))``, formatted without the nested lists."""
    parts = np.ascontiguousarray(v, dtype=complex).reshape(-1).view(np.float64).tolist()
    return "[" + ", ".join(
        f"[{format_float(re)}, {format_float(im)}]" for re, im in zip(parts[::2], parts[1::2])
    ) + "]"


def dumps(obj, *, indent: int | None = None) -> str:
    """Serialize with canonical float formatting; keys keep insertion order."""
    out: list[str] = []
    _emit(obj, out.append, indent, 0)
    return "".join(out)


def dump(obj, stream, *, indent: int | None = None) -> None:
    """Write the bytes of ``dumps(obj, indent=indent)`` to ``stream`` as they
    are made, taking an iterator's items one at a time."""
    _emit(obj, stream.write, indent, 0)


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
        write("{")
        for i, (k, v) in enumerate(obj.items()):
            write(pad if i else first)
            write(_encode_str(str(k)))
            write(": ")
            _emit(v, write, indent, level + 1)
        write(end + "}" if obj else "}")
    elif isinstance(obj, (list, tuple, Iterator)):
        # Flat numeric pairs ([re, im]) stay on one line even when indenting;
        # an iterator's items are not known ahead, so each gets its own line.
        flat = isinstance(obj, (list, tuple)) and all(
            isinstance(x, (int, float, bool)) or x is None for x in obj)
        first, pad, end = ("", ", ", "") if flat else _breaks(indent, level)
        write("[")
        i = -1
        for i, v in enumerate(obj):
            write(pad if i else first)
            _emit(v, write, indent, level + 1)
        write(end + "]" if i >= 0 else "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _breaks(indent: int | None, level: int) -> tuple[str, str, str]:
    """What goes before a container's first item, between items, and before
    its closing bracket."""
    if indent is None:
        return "", ", ", ""
    inner = "\n" + " " * (indent * (level + 1))
    return inner, "," + inner, "\n" + " " * (indent * level)
