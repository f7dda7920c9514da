"""A thin line-oriented description language for circuits.

It desugars to the JSON interchange structures; JSON remains the canonical
format. One declaration per line:

    circuit bell closed
    sys A : q2
    node P : -> A A = kraus(0: [[0.70710678,0],[0,0],[0,0],[0.70710678,0]])
    node M : A -> A = measure
    wire P.0 -> M.0
    cond R on E map 0:0; 1:1

System kinds: ``q`` quantum, ``c`` classical, ``t`` trivial, followed by the
dimension. Event specs: ``unitary(H)`` / ``unitary([[...]])`` with a named
gate or an explicit matrix, ``state(j)`` / ``state([amps])``, ``measure``
(computational von Neumann test, wire kept), ``effect`` (computational
effect test, wire consumed), or ``kraus(label: [[...]], ...; label2: ...)``
with complex entries written like ``0.5``, ``1j`` or ``0.3-0.2j``.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .circuit import Circuit, CircuitError, Condition, Event, System, TestNode, WireSpec
from .linalg import GATES, MAX_DIM


class DslError(CircuitError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at bracket depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_scalar(tok: str, line_no: int) -> complex:
    try:
        return complex(tok.replace(" ", ""))
    except ValueError:
        raise DslError(line_no, f"bad complex literal {tok!r}") from None


def _parse_matrix(text: str, line_no: int) -> np.ndarray:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DslError(line_no, f"expected a matrix literal, got {text!r}")
    body = text[1:-1].strip()
    rows = _split_top(body, ",")
    if rows and rows[0].strip().startswith("["):
        data = []
        for row in rows:
            row = row.strip()
            if not (row.startswith("[") and row.endswith("]")):
                raise DslError(line_no, f"bad matrix row {row!r}")
            data.append([_parse_scalar(t, line_no) for t in _split_top(row[1:-1], ",") if t.strip()])
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise DslError(line_no, "ragged matrix literal")
        return np.array(data, dtype=complex)
    # Flat list: a vector, returned as a column.
    vec = [_parse_scalar(t, line_no) for t in rows if t.strip()]
    return np.array(vec, dtype=complex).reshape(-1, 1)


def _basis_state(dim: int, j: int) -> np.ndarray:
    if not 0 <= j < dim:
        raise IndexError(j)
    return _unit(dim, 1, j, 0)


def _unit(rows: int, cols: int, r: int, c: int) -> np.ndarray:
    """A zero matrix with a single 1 at (r, c), on an array of its own."""
    m = np.zeros((rows, cols), dtype=complex)
    m[r, c] = 1
    return m


def _check_entries(entries: int, spec: str, line_no: int) -> None:
    """Refuse a spec whose operators, built from its port dimensions alone,
    would hold more than ``MAX_DIM ** 2`` entries in all."""
    if entries > MAX_DIM ** 2:
        raise DslError(line_no, f"{spec} would hold {entries} operator entries, "
                                f"more than the cap of {MAX_DIM ** 2}")


def measure_events(d: int) -> tuple[Event, ...]:
    """The ``measure`` spec: the computational von Neumann test, wire kept."""
    return tuple(Event(str(j), (_unit(d, d, j, j),)) for j in range(d))


def effect_events(d: int) -> tuple[Event, ...]:
    """The ``effect`` spec: the computational effect test, wire consumed."""
    return tuple(Event(str(j), (_unit(1, d, 0, j),)) for j in range(d))


def _parse_events(spec: str, d_in: int, d_out: int, line_no: int) -> tuple[Event, ...]:
    spec = spec.strip()
    if spec == "measure":
        if d_in != d_out:
            raise DslError(line_no, "measure needs matching input/output dimensions")
        _check_entries(d_in ** 3, spec, line_no)
        return measure_events(d_in)
    if spec == "effect":
        if d_out != 1:
            raise DslError(line_no, "effect nodes must have no output ports")
        _check_entries(d_in ** 2, spec, line_no)
        return effect_events(d_in)
    if "(" not in spec or not spec.endswith(")"):
        raise DslError(line_no, f"unrecognized event spec {spec!r}")
    head, body = spec.split("(", 1)
    head, body = head.strip(), body[:-1].strip()
    if head == "unitary":
        mat = GATES.get(body) if body in GATES else _parse_matrix(body, line_no)
        if mat.shape != (d_out, d_in):
            raise DslError(line_no, f"unitary shape {mat.shape} does not fit ports ({d_out},{d_in})")
        return (Event("0", (mat,)),)
    if head == "state":
        if d_in != 1:
            raise DslError(line_no, "state nodes must have no input ports")
        if body.startswith("["):
            vec = _parse_matrix(body, line_no).reshape(-1, 1)
        else:
            _check_entries(d_out, spec, line_no)
            try:
                vec = _basis_state(d_out, int(body))
            except (ValueError, IndexError):
                raise DslError(line_no, f"bad basis index {body!r}") from None
        if vec.shape != (d_out, 1):
            raise DslError(line_no, f"state of dim {vec.shape[0]} does not fit port dim {d_out}")
        return (Event("0", (vec,)),)
    if head == "kraus":
        events = []
        for i, part in enumerate(_split_top(body, ";")):
            part = part.strip()
            if not part:
                continue
            if ":" in part.split("[", 1)[0]:
                label, rest = part.split(":", 1)
                label = label.strip()
            else:
                label, rest = str(i), part
            mats = tuple(
                _parse_matrix(m.strip(), line_no)
                for m in _split_top(rest, ",")
                if m.strip().startswith("[")
            )
            if not mats:
                raise DslError(line_no, f"event {label!r} has no matrices")
            events.append(Event(label, mats))
        return tuple(events)
    raise DslError(line_no, f"unrecognized event spec {head!r}")


def parse_dsl(text: str) -> Circuit:
    name = "circuit"
    closed = False
    systems: dict[str, System] = {}
    nodes: list[TestNode] = []
    wires: list[WireSpec] = []
    conds: list[tuple[int, str, str, str]] = []  # line, target, source, map text

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, _, rest = line.partition(" ")
        rest = rest.strip()
        if kw == "circuit":
            parts = rest.split()
            if not parts:
                raise DslError(line_no, "circuit needs a name")
            name = parts[0]
            closed = "closed" in parts[1:]
        elif kw == "sys":
            if ":" not in rest:
                raise DslError(line_no, "expected `sys LABEL : KINDdim`")
            label, kind = (p.strip() for p in rest.split(":", 1))
            theory = {"q": "quantum", "c": "classical", "t": "trivial"}.get(kind[:1])
            if theory is None or not kind[1:].isdecimal():  # what int() reads
                raise DslError(line_no, f"bad system kind {kind!r} (want e.g. q2, c3, t1)")
            systems[label] = System(label, int(kind[1:]), theory)
        elif kw == "node":
            if ":" not in rest or "=" not in rest:
                raise DslError(line_no, "expected `node LABEL : INS -> OUTS = SPEC`")
            label, rest2 = (p.strip() for p in rest.split(":", 1))
            eq_parts = _split_top(rest2, "=")
            if len(eq_parts) < 2:
                raise DslError(line_no, "node declaration needs `= SPEC`")
            sig, spec = eq_parts[0].strip(), "=".join(eq_parts[1:]).strip()
            if "->" not in sig:
                raise DslError(line_no, "node signature needs `->`")
            ins_txt, outs_txt = (p.strip() for p in sig.split("->", 1))
            ins = tuple(ins_txt.split()) if ins_txt else ()
            outs = tuple(outs_txt.split()) if outs_txt else ()
            for s in ins + outs:
                if s not in systems:
                    raise DslError(line_no, f"unknown system {s!r}")
            d_in = prod(systems[s].dim for s in ins) if ins else 1
            d_out = prod(systems[s].dim for s in outs) if outs else 1
            nodes.append(TestNode(label, ins, outs, _parse_events(spec, d_in, d_out, line_no)))
        elif kw == "wire":
            if "->" not in rest:
                raise DslError(line_no, "expected `wire N.p -> M.q`")
            lhs, rhs = (p.strip() for p in rest.split("->", 1))
            try:
                fn, fp = lhs.rsplit(".", 1)
                tn, tp = rhs.rsplit(".", 1)
                wires.append(WireSpec(fn.strip(), int(fp), tn.strip(), int(tp)))
            except ValueError:
                raise DslError(line_no, f"bad wire endpoints {rest!r}") from None
        elif kw == "cond":
            parts = rest.split(" on ", 1)
            if len(parts) != 2:
                raise DslError(line_no, "expected `cond TARGET on SOURCE [map ...]`")
            target = parts[0].strip()
            src_rest = parts[1].strip()
            if " map " in src_rest:
                source, map_txt = (p.strip() for p in src_rest.split(" map ", 1))
            elif src_rest.endswith(" map"):
                raise DslError(line_no, "empty condition map")
            else:
                source, map_txt = src_rest, ""
            conds.append((line_no, target, source, map_txt))
        else:
            raise DslError(line_no, f"unknown declaration {kw!r}")

    node_by_label = {n.label: i for i, n in enumerate(nodes)}
    for line_no, target, source, map_txt in conds:
        if target not in node_by_label:
            raise DslError(line_no, f"unknown node {target!r}")
        tgt = nodes[node_by_label[target]]
        if map_txt:
            outcome_map: dict[str, tuple[int, ...]] = {}
            for entry in map_txt.split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                if ":" not in entry:
                    raise DslError(line_no, f"bad map entry {entry!r}")
                key, idxs = entry.split(":", 1)
                try:
                    outcome_map[key.strip()] = tuple(int(t) for t in idxs.replace(",", " ").split())
                except ValueError:
                    raise DslError(line_no, f"bad event indices in {entry!r}") from None
        else:
            # Default: source outcome i selects the target's i-th event.
            if source == "@input":
                raise DslError(line_no, "conditioning on @input needs an explicit map")
            if source not in node_by_label:
                raise DslError(line_no, f"unknown node {source!r}")
            src = nodes[node_by_label[source]]
            if len(src.events) != len(tgt.events):
                raise DslError(
                    line_no,
                    f"cond {target} on {source}: event counts differ "
                    f"({len(tgt.events)} vs {len(src.events)}); give an explicit map",
                )
            outcome_map = {e.outcome: (i,) for i, e in enumerate(src.events)}
        nodes[node_by_label[target]] = TestNode(
            tgt.label, tgt.inputs, tgt.outputs, tgt.events, Condition(source, outcome_map)
        )
    return Circuit(name, systems, nodes, wires, closed)
