"""Shared JSON encoding: complex scalars as [re, im] pairs, matrices as
row-major nested arrays, and a canonical emitter with deterministic float
formatting (17 significant digits) so equal data always yields equal bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(m) -> list[list[list[float]]]:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[encode_complex(z) for z in row] for row in m]


def encode_vector(v) -> list[list[float]]:
    return [encode_complex(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def _decode_scalar(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(isinstance(x, (int, float)) for x in obj):
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
    _emit(obj, out, indent, 0)
    return "".join(out)


def _emit(obj, out: list[str], indent: int | None, level: int) -> None:
    pad = ", " if indent is None else ",\n" + " " * (indent * (level + 1))
    first = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad if i else first)
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out, indent, level + 1)
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # Flat numeric pairs ([re, im]) stay on one line even when indenting.
        flat = all(isinstance(x, (int, float, bool)) or x is None for x in seq)
        out.append("[")
        for i, v in enumerate(seq):
            if flat:
                out.append(", " if i else "")
            else:
                out.append(pad if i else first)
            _emit(v, out, indent, level + 1)
        out.append(("" if flat else end) + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
