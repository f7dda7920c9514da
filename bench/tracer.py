"""Spans around calls into onticsim's public functions, recorded from outside.

The tracer replaces a function by a timing wrapper in every loaded onticsim
module that holds it (``from .engine import compile_program`` binds the
same object in ``cli``), so the package's own internal calls are traced
too, with no file of the package changed. A span is the tuple
``(id, name, start, end, parent, note)``, appended when the call returns;
``parent`` is the enclosing span's id (-1 at the top). Spans stay in
memory until the run writes them out. They are tuples of atoms, which the
garbage collector stops scanning, so a long trace does not slow the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _recall_note(strategy, m, d, trials, *args, **kwargs):
    return {"strategy": strategy, "trials": int(trials)}


#: (module, function, note-maker or None). The span is named
#: ``<layer>.<function>``, the layer being the module (``dsl`` counts as
#: ``circuit``). ``linalg`` and ``classical`` do no measurable work on the
#: benchmark's paths and are not traced.
TRACED = [
    ("cli", "main", None),
    ("circuit", "parse_circuit", None),
    ("circuit", "circuit_from_dict", None),
    ("circuit", "validate_dag", None),
    ("circuit", "layout", None),
    ("dsl", "parse_dsl", None),
    ("quantum", "gram_top_eigenvalue", None),
    ("quantum", "gram_identity_defect", None),
    ("foliation", "foliate", None),
    ("foliation", "compile_slice", None),
    ("foliation", "compile_history", None),
    ("engine", "load_run_spec", None),
    ("engine", "compile_program", None),
    ("engine", "run_trajectory", None),
    ("engine", "enumerate_histories", None),
    ("jsonio", "dumps", None),
    ("jsonio", "encode_vector", None),
    ("jsonio", "decode_matrix", None),
    ("jsonio", "decode_vector", None),
    ("measurement", "mean_recall_fidelity", _recall_note),
    ("measurement", "covariant_qubit_frame", None),
    ("measurement", "build_sic", None),
    ("individuation", "classify_timeline", None),
    ("individuation", "finest_factorization", None),
]

LAYERS = ("cli", "circuit", "quantum", "foliation", "engine", "jsonio", "measurement", "individuation")


def _layer(module: str) -> str:
    return "circuit" if module == "dsl" else module


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, note):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            detail = note(*args, **kwargs) if note else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, detail))

        return traced

    def install(self) -> None:
        owners = {m: importlib.import_module(f"onticsim.{m}") for m, _, _ in TRACED}
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("onticsim.")]
        for mod_name, fn_name, note in TRACED:
            original = getattr(owners[mod_name], fn_name)
            wrapper = self._wrap(original, f"{_layer(mod_name)}.{fn_name}", note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "note"],
                                    "spans": self.spans}))

    def layer_metrics(self, rounds: int, traced_s: float) -> dict:
        """Per-layer metrics, in seconds (or calls) per round unless named
        otherwise. ``traced_s`` is the traced rounds' total timed seconds."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        traj_us = []
        trials = defaultdict(int)
        trial_s = defaultdict(float)
        for span_id, name, start, end, _, note in self.spans:
            dur = end - start
            self_s[name.split(".")[0]] += dur - child[span_id]
            total_s[name] += dur
            calls[name] += 1
            if name == "engine.run_trajectory":
                traj_us.append(dur * 1e6)
            if note is not None:
                trials[note["strategy"]] += note["trials"]
                trial_s[note["strategy"]] += dur

        def rate(strategy: str) -> float:
            return trials[strategy] / trial_s[strategy] if trial_s[strategy] else 0.0

        out = {f"{layer}.self_s": self_s[layer] / rounds for layer in LAYERS}
        for name in ("circuit.parse_circuit", "circuit.validate_dag", "circuit.layout",
                     "quantum.gram_top_eigenvalue", "foliation.foliate", "foliation.compile_slice",
                     "foliation.compile_history", "engine.compile_program", "engine.run_trajectory",
                     "engine.enumerate_histories", "jsonio.dumps", "individuation.classify_timeline",
                     "individuation.finest_factorization", "measurement.covariant_qubit_frame"):
            out[f"{name}_s"] = total_s[name] / rounds
        out["quantum.gram_top_eigenvalue_calls"] = calls["quantum.gram_top_eigenvalue"] / rounds
        out["foliation.compile_slice_calls"] = calls["foliation.compile_slice"] / rounds
        out["engine.run_trajectory_us"] = statistics.median(traj_us) if traj_us else 0.0
        out["measurement.covariant_trials_per_s"] = rate("optimal_covariant_qubit")
        out["measurement.sic_trials_per_s"] = rate("sic_estimate")
        out["measurement.vn_trials_per_s"] = rate("random_vn_repeat")
        out["bench.traced_coverage"] = sum(self_s[layer] for layer in LAYERS) / traced_s
        return out
