"""The four workloads: set-up, one round of operations, and output checks.

Every round of a workload runs the same operations on the same inputs, so
rounds are interchangeable and a run's rates are totals over its rounds,
in calibrated reference seconds (see ``calibration``).
Only calls into onticsim sit inside the timers; reading outputs back and
checking them happens outside, so traced layer times add up to the timed
total. Checks compare against computations made apart from the code under
test (the benchmark's own state-vector evolution, operators composed from
``compile_history`` under several foliations, analytic recall bounds) or
against required properties (normalisation, byte-identical reruns).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

DATA = Path(__file__).resolve().parent / "data"


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def run_cli(argv: list[str]) -> float:
    """``onticsim.cli.main`` in-process, its diagnostics kept off the
    terminal; returns its wall time."""
    from onticsim import cli

    diagnostics = io.StringIO()
    with contextlib.redirect_stderr(diagnostics):
        code, seconds = timed(cli.main, argv)
    if code != 0:
        raise RuntimeError(f"onticsim {' '.join(argv)} exited with {code}: {diagnostics.getvalue()}")
    return seconds


def digest(path: Path) -> str:
    """SHA-256 of a file, read in chunks so the benchmark's own memory
    stays out of peak RSS."""
    with path.open("rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class Workload:
    """One workload. ``setup`` is timed several times. ``run_round`` calls
    ``pause`` after each operation; it calibrates and returns the scale
    (``calibration.scale``) that turns the operation's measured seconds into
    reference seconds. A round returns a dict holding at least ``time``
    (seconds inside onticsim), ``ref_time`` (the same in reference
    seconds), ``attempted`` and ``failed``."""

    name = ""
    KERNEL = "interpreter"  # the calibration kernel (see ``calibration``)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        pass

    def run_round(self, pause) -> dict:
        raise NotImplementedError

    def check(self, rounds: list[dict]) -> list[str]:
        raise NotImplementedError

    def metrics(self, rounds: list[dict]) -> dict[str, float]:
        """``primary_per_s`` and ``secondary_per_s`` (see README)."""
        raise NotImplementedError


def _rate(rounds, count_key, ref_time_key) -> float:
    """Count per reference second over all rounds."""
    return sum(r[count_key] for r in rounds) / sum(r[ref_time_key] for r in rounds)


# --- sample-jsonl --------------------------------------------------------------

class SampleJsonl(Workload):
    """``onticsim run`` to JSONL: the conditioned step (conditioning edges,
    ``@input``), then the three-step merge/split program with states."""

    name = "sample-jsonl"
    RUNS = (  # (program file, trajectories, store states)
        ("conditioned_step_program.json", 2000, False),
        ("merge_split.json", 1000, True),
    )
    PROB_TOL = 1e-9

    def run_round(self, pause) -> dict:
        out = {"time": 0.0, "ref_time": 0.0, "attempted": 0, "failed": 0, "digests": []}
        for i, (fname, count, states) in enumerate(self.RUNS):
            path = self.work / f"run-{i}.jsonl"
            argv = ["run", str(DATA / fname), "--trajectories", str(count),
                    "--seed", str(self.seed), "--out", str(path)]
            seconds = run_cli(argv + (["--store-states"] if states else []))
            ref = seconds * pause()
            out["time"] += seconds
            out["ref_time"] += ref
            out[f"ref_time_{i}"] = ref
            out["attempted"] += count
            out["digests"].append(digest(path))
        out["stored"] = self.RUNS[1][1]
        return out

    def metrics(self, rounds):
        return {
            "primary_per_s": _rate(rounds, "attempted", "ref_time"),
            "secondary_per_s": _rate(rounds, "stored", "ref_time_1"),
        }

    def check(self, rounds):
        from onticsim.engine import enumerate_histories, load_run_spec

        errors = []
        if any(r["digests"] != rounds[0]["digests"] for r in rounds):
            errors.append("a rerun with the same seed wrote different bytes")
        for i, (fname, count, states) in enumerate(self.RUNS):
            program = load_run_spec(DATA / fname)
            records = [json.loads(line) for line in (self.work / f"run-{i}.jsonl").read_text().splitlines()]
            if [r["index"] for r in records] != list(range(count)):
                errors.append(f"{fname}: records are not trajectories 0..{count - 1} in order")
                continue
            amplitude = {}
            for r in records:
                key = tuple(tuple(kv) for kv in r["outcomes"])
                if key not in amplitude:
                    amplitude[key] = [history_state(program, r["outcomes"], s) for s in ("asap", "alap")]
                for psi in amplitude[key]:
                    p = float(np.vdot(psi, psi).real)
                    if abs(r["probability"] - p) > self.PROB_TOL:
                        errors.append(f"{fname} #{r['index']}: probability {r['probability']} != ||O_F w0||^2 = {p}")
                        break
                    if states:
                        final = np.array([complex(*z) for z in r["final_state"]])
                        if np.abs(final - psi / math.sqrt(p)).max() > self.PROB_TOL:
                            errors.append(f"{fname} #{r['index']}: final state differs from O_F w0 / ||O_F w0||")
                            break
            law = {tuple(sorted(k)): p for k, p in enumerate_histories(program)}
            if abs(sum(law.values()) - 1.0) > self.PROB_TOL:
                errors.append(f"{fname}: enumerated law sums to {sum(law.values())}")
            counts = Counter(tuple(sorted(tuple(kv) for kv in r["outcomes"])) for r in records)
            tv = 0.5 * sum(abs(counts.get(k, 0) / count - p) for k, p in law.items())
            tv += 0.5 * sum(c / count for k, c in counts.items() if k not in law)
            bound = tv_bound(len(law), count)
            if tv > bound:
                errors.append(f"{fname}: total variation {tv:.4f} from the exact law exceeds {bound:.4f}")
        return errors


def tv_bound(k: int, n: int, failure: float = 1e-6) -> float:
    """A bound the empirical total variation of n draws over k outcomes
    exceeds with probability below ``failure``: E[TV] <= sqrt(k/n)/2, plus
    McDiarmid's deviation sqrt(ln(1/failure)/(2n))."""
    return 0.5 * math.sqrt(k / n) + math.sqrt(math.log(1 / failure) / (2 * n))


def history_state(program, outcome_items, strategy: str) -> np.ndarray:
    """O_F w0 for one recorded history: per step the ``compile_history``
    operator under ``strategy``, with the documented positional bind
    between steps."""
    from onticsim.circuit import layout
    from onticsim.foliation import compile_history, foliate

    multi = len(program.steps) > 1
    chosen = [{} for _ in program.steps]
    for key, value in outcome_items:
        t, label = key.split(":", 1) if multi else (0, key)
        chosen[int(t)][label] = value
    psi = np.ones(1, dtype=complex) if program.initial_state is None else program.initial_state
    dims = None
    for t, step in enumerate(program.steps):
        lay = layout(step.circuit)
        if dims is not None:
            pairs = step.bind or [(i, i) for i in range(len(dims))]
            axes = [a for a, b in sorted(pairs, key=lambda ab: ab[1])]
            psi = psi.reshape(dims).transpose(axes).reshape(-1)
        psi = compile_history(foliate(lay, strategy), chosen[t]).operator @ psi
        dims = lay.output_dims
    return psi


# --- cold-12q ------------------------------------------------------------------

class Cold12q(Workload):
    """Compile and sample a freshly built 12-qubit, 5-step program, classify
    its timeline, and ask ``validate_dag`` for two verdicts on
    trace-increasing nodes (d = 257 and the perturbed dense layer)."""

    name = "cold-12q"
    KERNEL = "memory"
    STATE_TOL = 1e-9
    PURITY_TOL = 1e-8

    def setup(self) -> None:
        self.inputs = inputs.twelve_qubit_inputs(self.seed)
        self.verdict_257 = inputs.trace_increasing_unitary(257)

    def program(self):
        """Fresh onticsim objects over the generated operators: nothing a
        previous round validated or compiled is reused."""
        from onticsim.circuit import Circuit, Event, System, TestNode
        from onticsim.engine import Program, ProgramStep

        systems = {f"q{i}": System(f"q{i}", 2) for i in range(inputs.N_QUBITS)}
        circuits = []
        for t, layer in enumerate(self.inputs.layers):
            nodes = []
            for g in layer:
                wires = tuple(f"q{i}" for i in g.qubits)
                nodes.append(TestNode("u{}_{}".format(*g.qubits), wires, wires, (Event("0", (g.unitary,)),)))
            circuits.append(Circuit(f"layer{t}", dict(systems), nodes, []))
        circuits.append(self.dense_circuit())
        # With no internal wires, a step's boundary order is its nodes' port
        # order; bind each qubit of one step to the same qubit of the next.
        steps = [ProgramStep(circuits[0])]
        for prev, cur in zip(circuits, circuits[1:]):
            outs = [s for n in prev.nodes for s in n.outputs]
            ins = [s for n in cur.nodes for s in n.inputs]
            steps.append(ProgramStep(cur, [(outs.index(s), b) for b, s in enumerate(ins)]))
        return Program("cold-12q", steps)

    def dense_circuit(self):
        from onticsim.circuit import Circuit, Event, System, TestNode

        systems = {f"q{i}": System(f"q{i}", 2) for i in range(inputs.N_QUBITS)}
        node = TestNode("dense", tuple(systems), tuple(systems), (Event("0", (self.inputs.dense,)),))
        return Circuit("dense", systems, [node], [])

    def run_round(self, pause) -> dict:
        from onticsim.circuit import Circuit, Event, System, TestNode, validate_dag
        from onticsim.engine import compile_program, run_trajectory
        from onticsim.individuation import classify_timeline

        program = self.program()
        psi0 = np.zeros(inputs.DENSE_DIM, dtype=complex)
        psi0[0] = 1.0
        start = perf_counter()
        compiled = compile_program(program)  # validates, so the unperturbed layer is accepted here
        traj = run_trajectory(program, omega0=psi0, seed=self.seed, compiled=compiled, store_states=True)
        cold_s = perf_counter() - start
        cold_ref = cold_s * pause()
        timeline, classify_s = timed(classify_timeline, traj)
        classify_ref = classify_s * pause()

        node = TestNode("k", ("a",), ("a",), (Event("0", (self.verdict_257,)),))
        small = Circuit("verdict-257", {"a": System("a", 257)}, [node], [])
        report_257, v257_s = timed(validate_dag, small)
        # Perturb the dense layer in place and restore it exactly: a copy
        # would add 256 MiB of the benchmark's own to peak RSS.
        dense = self.inputs.dense
        column = dense[:, 0].copy()
        dense[:, 0] *= math.sqrt(1.0 + inputs.TRACE_EXCESS)
        try:
            report_4096, v4096_s = timed(validate_dag, self.dense_circuit())
        finally:
            dense[:, 0] = column
        verdict_ref = (v257_s + v4096_s) * pause()
        return {
            "time": cold_s + classify_s + v257_s + v4096_s,
            "ref_time": cold_ref + classify_ref + verdict_ref,
            "cold_ref": cold_ref,
            "classify_ref": classify_ref,
            "trajectories": 1,
            "attempted": 4,
            "failed": int(report_257.ok) + int(report_4096.ok),
            "trajectory": traj,
            "timeline": timeline,
        }

    def metrics(self, rounds):
        return {
            "primary_per_s": _rate(rounds, "trajectories", "cold_ref"),
            "secondary_per_s": _rate(rounds, "trajectories", "classify_ref"),
        }

    def check(self, rounds):
        expected = self.evolve()
        errors = []
        for r in rounds:
            traj, timeline = r["trajectory"], r["timeline"]
            if abs(traj.probability - 1.0) > self.STATE_TOL:
                errors.append(f"probability {traj.probability} != 1")
            if np.abs(traj.final_state - expected).max() > self.STATE_TOL:
                errors.append("final state differs from the dense state-vector evolution")
            sizes = [sorted(len(b) for b in p.blocks) for p in timeline]
            if sizes != [[2] * 6] + [[12]] * 4:
                errors.append(f"timeline block sizes {sizes} break the brickwork light cone")
            if any(abs(p - 1.0) > self.PURITY_TOL for part in timeline for p in part.purities):
                errors.append("a block of the timeline is not pure")
        return errors

    def evolve(self) -> np.ndarray:
        """|0...0> through the generated unitaries, one qubit per tensor axis."""
        n = inputs.N_QUBITS
        psi = np.zeros((2,) * n, dtype=complex)
        psi[(0,) * n] = 1.0
        for layer in self.inputs.layers:
            for g in layer:
                i, j = g.qubits
                psi = np.tensordot(g.unitary.reshape(2, 2, 2, 2), psi, axes=([2, 3], [i, j]))
                psi = np.moveaxis(psi, [0, 1], [i, j])
        return self.inputs.dense @ psi.reshape(-1)


# --- exact-law -----------------------------------------------------------------

class ExactLaw(Workload):
    """``onticsim enumerate`` on seeded complete-test circuits, then
    ``compile_history`` for a sample of histories under several foliations."""

    name = "exact-law"
    CIRCUITS = 8
    SAMPLE = 8            # histories per circuit compiled under every foliation
    RANDOM_FOLIATIONS = 4
    SUM_TOL = 1e-9
    OPERATOR_TOL = 1e-10

    def setup(self) -> None:
        from onticsim.engine import load_run_spec

        shapes = inputs.exact_law_shapes(self.CIRCUITS)
        self.paths = inputs.write_exact_law_files(self.seed, shapes, self.work)
        self.programs = [load_run_spec(p) for p in self.paths]
        self.samples = None

    def run_round(self, pause) -> dict:
        from onticsim.circuit import layout
        from onticsim.foliation import compile_history, foliate

        out = {"enum_s": 0.0, "hist_s": 0.0, "enum_ref": 0.0, "hist_ref": 0.0, "histories": 0,
               "ops": 0, "digests": [], "deviation": 0.0, "mismatch": 0.0}
        first = self.samples is None
        if first:
            self.samples, self.history_count, self.law_errors = [], 0, []
            sample_rng = inputs.rng_for(self.seed, 4)
        for path in self.paths:
            target = path.with_suffix(".law.json")
            seconds = run_cli(["enumerate", str(path), "--out", str(target)])
            out["enum_s"] += seconds
            out["enum_ref"] += seconds * pause()
            out["digests"].append(digest(target))
            if first:  # one document at a time, to keep peak RSS onticsim's
                self.read_law(target, sample_rng)
        out["histories"] = self.history_count
        # Random slicings come from the fixed stream: how many slices a
        # foliation has sets the cost of compiling it.
        rng = inputs.rng_for(inputs.FIXED_STREAM, 5)
        for program, sample in zip(self.programs, self.samples):
            circuit, w0 = program.steps[0].circuit, program.initial_state
            start = perf_counter()
            lay = layout(circuit)
            fols = [foliate(lay, "asap"), foliate(lay, "alap")]
            fols += [foliate(lay, "random", rng=rng) for _ in range(self.RANDOM_FOLIATIONS)]
            out["hist_s"] += perf_counter() - start
            for h in sample:
                outcomes = dict(tuple(kv) for kv in h["outcomes"])
                ops = []
                for fol in fols:
                    op, seconds = timed(compile_history, fol, outcomes)
                    out["hist_s"] += seconds
                    ops.append(op.operator)
                out["ops"] += len(ops)
                out["deviation"] = max(out["deviation"], max(np.abs(o - ops[0]).max() for o in ops))
                p = float(np.linalg.norm(ops[0] @ w0) ** 2)
                out["mismatch"] = max(out["mismatch"], abs(p - h["probability"]))
        out["hist_ref"] = out["hist_s"] * pause()
        out["time"] = out["enum_s"] + out["hist_s"]
        out["ref_time"] = out["enum_ref"] + out["hist_ref"]
        out["attempted"] = out["histories"] + out["ops"]
        out["failed"] = 0
        return out

    def read_law(self, path: Path, rng) -> None:
        """Check that an enumerated law sums to one, count its histories
        and draw the sample that ``compile_history`` replays."""
        doc = json.loads(path.read_text())
        histories = doc["histories"]
        total = math.fsum(h["probability"] for h in histories)
        if abs(total - 1.0) > self.SUM_TOL or abs(doc["total_probability"] - 1.0) > self.SUM_TOL:
            self.law_errors.append(f"{path.name}: history probabilities sum to {total}")
        self.history_count += len(histories)
        self.samples.append([histories[int(j)] for j in rng.choice(len(histories), self.SAMPLE, replace=False)])

    def metrics(self, rounds):
        return {
            "primary_per_s": _rate(rounds, "histories", "enum_ref"),
            "secondary_per_s": _rate(rounds, "ops", "hist_ref"),
        }

    def check(self, rounds):
        errors = list(self.law_errors)
        if any(r["digests"] != rounds[0]["digests"] for r in rounds):
            errors.append("a rerun of enumerate wrote different bytes")
        deviation = max(r["deviation"] for r in rounds)
        if deviation > self.OPERATOR_TOL:
            errors.append(f"foliations disagree on a history operator by {deviation:.3g}")
        mismatch = max(r["mismatch"] for r in rounds)
        if mismatch > self.SUM_TOL:
            errors.append(f"||O_F w0||^2 differs from the enumerated probability by {mismatch:.3g}")
        return errors


# --- recall-sweep --------------------------------------------------------------

class RecallSweep(Workload):
    """``onticsim bench-memory``: the default strategies at d=2 and the
    symmetric-frame estimate at d=3, M = 1, 2, 3."""

    name = "recall-sweep"
    SWEEPS = (  # (extra arguments, trials per cell)
        (["--dims", "2"], 8000),
        (["--strategies", "sic_estimate", "--dims", "3"], 8000),
    )
    COVARIANT_SE = 5.0    # "a few" standard errors around (M+1)/(M+2)
    CAP_SE = 3.0

    def run_round(self, pause) -> dict:
        out = {"time": 0.0, "ref_time": 0.0, "attempted": 0, "failed": 0, "digests": []}
        for i, (extra, trials) in enumerate(self.SWEEPS):
            fresh_process_caches()
            path = self.work / f"sweep-{i}.csv"
            seconds = run_cli(["bench-memory", *extra, "--copies", "1,2,3", "--trials", str(trials),
                               "--seed", str(self.seed), "--out", str(path)])
            ref = seconds * pause()
            out["time"] += seconds
            out["ref_time"] += ref
            out[f"ref_time_{i}"] = ref
            out[f"trials_{i}"] = sum(int(row["trials"]) for row in self.rows(i))
            out["attempted"] += out[f"trials_{i}"]
            out["digests"].append(digest(path))
        return out

    def rows(self, i: int) -> list[dict]:
        return list(csv.DictReader(io.StringIO((self.work / f"sweep-{i}.csv").read_text())))

    def metrics(self, rounds):
        return {
            "primary_per_s": _rate(rounds, "attempted", "ref_time"),
            "secondary_per_s": _rate(rounds, "trials_1", "ref_time_1"),
        }

    def check(self, rounds):
        errors = []
        if any(r["digests"] != rounds[0]["digests"] for r in rounds):
            errors.append("a rerun of bench-memory wrote different bytes")
        for i, (_, trials) in enumerate(self.SWEEPS):
            rows = self.rows(i)
            if len(rows) != 3 * (3 if i == 0 else 1):
                errors.append(f"sweep {i}: {len(rows)} rows")
            for row in rows:
                m, d = int(row["M"]), int(row["d"])
                if int(row["trials"]) != trials:
                    errors.append(f"{row['strategy']} M={m} d={d}: skipped")
                    continue
                mean, se = float(row["mean_fidelity"]), float(row["std_error"])
                cap = float(Fraction(m + 1, m + d))
                if row["strategy"] == "optimal_covariant_qubit":
                    if abs(mean - (m + 1) / (m + 2)) > self.COVARIANT_SE * se:
                        errors.append(f"covariant M={m}: mean {mean} is not (M+1)/(M+2) within {self.COVARIANT_SE} SE")
                elif mean > cap + self.CAP_SE * se:
                    errors.append(f"{row['strategy']} M={m} d={d}: mean {mean} exceeds the cap {cap:.6f}")
        return errors


def fresh_process_caches() -> None:
    """Empty the package's memo caches, as a new ``onticsim`` process starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith("onticsim."):
            for value in list(vars(module).values()):
                # A traced function hides its cache behind ``__wrapped__``.
                for obj in (value, getattr(value, "__wrapped__", None)):
                    clear = getattr(obj, "cache_clear", None)
                    if callable(clear):
                        clear()
                        break


WORKLOADS = {w.name: w for w in (SampleJsonl, Cold12q, ExactLaw, RecallSweep)}
