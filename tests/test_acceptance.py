"""Acceptance gate: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import itertools
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from _helpers import any_assignment
from onticsim import gallery
from onticsim.circuit import Circuit, Event, System, TestNode, layout
from onticsim.cli import main as cli_main
from onticsim.classical import is_permutation_matrix, is_reversible_markov
from onticsim.engine import (
    Program,
    ProgramStep,
    enumerate_histories,
    run_trajectories,
    run_trajectory,
)
from onticsim.foliation import compile_history, foliate
from onticsim.individuation import (
    classify_timeline,
    count_entanglement_patterns,
    finest_factorization,
    marginal_purity,
)
from onticsim.linalg import haar_state, haar_unitary
from onticsim.measurement import (
    build_sic,
    mean_recall_fidelity,
    recall_fidelity_bound,
    simulate_measurement,
    tomography_linear,
    trace_distance,
)
from onticsim.quantum import KrausSet, dilate
from onticsim.random_circuits import random_circuit

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"


def _report(num: int, desc: str):
    print(f"PASS  criterion {num:2d}: {desc}")


def test_criterion_01_foliation_invariance():
    start = time.perf_counter()
    cases = [layout(gallery.conditioned_step())]
    rng = np.random.default_rng(1001)
    while len(cases) < 51:
        cases.append(layout(random_circuit(rng, n_nodes=(4, 8), max_total_dim=64)))
    for lay in cases:
        outcomes = any_assignment(lay)
        reference = compile_history(foliate(lay, "asap"), outcomes).operator
        others = [foliate(lay, "alap")] + [foliate(lay, "random", rng=rng) for _ in range(10)]
        for fol in others:
            got = compile_history(fol, outcomes).operator
            assert np.abs(got - reference).max() < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"foliation invariance on 51 circuits x 12 foliations ({elapsed:.1f}s)")


def test_criterion_02_history_normalization():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    runs = [
        ("bell_pair", Program.single(gallery.bell_pair()), None),
        ("merge_split", gallery.merge_split_program(), None),
        ("bloch_axes", Program.single(gallery.bloch_axes()), None),
        ("conditioned_step_program", gallery.conditioned_step_program(), None),
        ("conditioned_step_closed", Program.single(gallery.conditioned_step_closed()), None),
        ("conditioned_step(open)", Program.single(gallery.conditioned_step()), ghz),
    ]
    for name, prog, omega0 in runs:
        total = sum(p for _, p in enumerate_histories(prog, omega0=omega0))
        assert abs(total - 1) < 1e-9, f"{name}: sum = {total}"
    _report(2, "history probabilities sum to 1 on every shipped example")


def test_criterion_03_sampler_vs_enumeration():
    start = time.perf_counter()
    prog = gallery.conditioned_step_program()
    exact = dict(enumerate_histories(prog))
    n = 100_000
    counts = Counter()
    for traj in run_trajectories(prog, n, seed=2026):
        counts[tuple(sorted(traj.steps[0].outcomes.items()))] += 1
    exact_sorted = {tuple(sorted(k)): p for k, p in exact.items()}
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - p) for k, p in exact_sorted.items())
    tv += 0.5 * sum(c / n for k, c in counts.items() if k not in exact_sorted)
    elapsed = time.perf_counter() - start
    assert tv < 0.01, f"TV = {tv:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, f"Monte Carlo vs exact law: TV = {tv:.4f} at 1e5 trajectories ({elapsed:.0f}s)")


def test_criterion_04_fidelity_bound():
    start = time.perf_counter()
    trials = 100_000
    for m in (1, 2, 3):
        bound = float(recall_fidelity_bound(m, 2))
        mean, err = mean_recall_fidelity("optimal_covariant_qubit", m, 2, trials, seed=40 + m)
        assert abs(mean - bound) < 0.005, f"covariant M={m}: {mean:.4f} vs {bound:.4f}"
        for strategy in ("sic_estimate", "random_vn_repeat"):
            s_mean, s_err = mean_recall_fidelity(strategy, m, 2, trials, seed=140 + m)
            assert s_mean <= bound + 3 * s_err, (
                f"{strategy} M={m}: {s_mean:.5f} > {bound:.5f} + 3*{s_err:.5f}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(4, f"recall fidelity: covariant hits (M+1)/(M+2), others below ({elapsed:.0f}s)")


def test_criterion_05_sic_condition():
    for d in (2, 3):
        sic = build_sic(d)
        for j in range(d * d):
            for k in range(d * d):
                got = abs(np.vdot(sic.states[j], sic.states[k])) ** 2
                want = (d * (j == k) + 1) / (d + 1)
                assert abs(got - want) < 1e-9
        total = sum(np.outer(s, s.conj()) for s in sic.states) / d
        assert np.abs(total - np.eye(d)).max() < 1e-9
    _report(5, "symmetric frames for d=2,3 satisfy the overlap and sum rules")


def test_criterion_06_tomography():
    rng = np.random.default_rng(606)
    povm = build_sic(2).povm
    distances = []
    for _ in range(100):
        psi = haar_state(2, rng)
        rho = np.outer(psi, psi.conj())
        counts = simulate_measurement(povm, rho, 100_000, rng)
        est = tomography_linear(povm, counts).estimate
        distances.append(trace_distance(est, rho))
        exact = tomography_linear(povm, povm.probabilities(rho) * 1e6).estimate
        assert trace_distance(exact, rho) < 1e-9
    median = float(np.median(distances))
    assert median < 0.02, f"median trace distance {median:.4f}"
    _report(6, f"SIC tomography of 100 pure states: median distance {median:.4f}")


def test_criterion_07_dilation_theorem():
    rng = np.random.default_rng(707)

    def random_test(d, n):
        z = rng.normal(size=(d * n, d)) + 1j * rng.normal(size=(d * n, d))
        q, _ = np.linalg.qr(z)
        return KrausSet(tuple(q[i * d:(i + 1) * d] for i in range(n)))

    for _ in range(25):
        for d in (2, 3):
            ks = random_test(d, int(rng.integers(1, 4)))
            dil = dilate(ks)
            for _ in range(20):
                psi = haar_state(d, rng)
                rho = np.outer(psi, psi.conj())
                for i, k in enumerate(ks.operators):
                    direct = k @ rho @ k.conj().T
                    assert np.abs(dil.branch(rho, i) - direct).max() < 1e-8
    _report(7, "dilated unitary + projective readout reproduces 50 random tests")


def test_criterion_08_classical_opt():
    rng = np.random.default_rng(808)
    for _ in range(10):
        mats = []
        for _ in range(3):
            m = rng.random((4, 4))
            m = m / m.sum(axis=0) * rng.uniform(0.2, 1.0, size=4)
            mats.append(m)
        x = rng.dirichlet(np.ones(4))
        out = mats[2] @ mats[1] @ mats[0] @ x
        brute = np.zeros(4)
        for j0, j1, j2, j3 in itertools.product(range(4), repeat=4):
            brute[j3] += mats[2][j3, j2] * mats[1][j2, j1] * mats[0][j1, j0] * x[j0]
        assert np.abs(out - brute).max() < 1e-12

    for n in (2, 3, 4):
        found = []
        for cols in itertools.product(range(n), repeat=n):
            m = np.zeros((n, n))
            for j, i in enumerate(cols):
                m[i, j] = 1.0
            if is_reversible_markov(m):
                found.append(m)
        assert len(found) == math.factorial(n)
        assert all(is_permutation_matrix(m) for m in found)
        for _ in range(200):
            m = rng.random((n, n))
            m = m / m.sum(axis=0) * rng.uniform(0.2, 1.0, size=n)
            assert not is_reversible_markov(m) or is_permutation_matrix(m)
    _report(8, "substochastic composition exact; reversible maps are permutations")


def test_criterion_09_individuation():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    for block in ([0], [1]):
        assert abs(marginal_purity(bell, (2, 2), block) - 0.5) < 1e-9
    rng = np.random.default_rng(909)
    product = np.kron(haar_state(2, rng), haar_state(2, rng))
    assert finest_factorization(product, (2, 2)).blocks == ((0,), (1,))
    traj = run_trajectory(gallery.merge_split_program(), seed=99, store_states=True)
    timeline = [p.blocks for p in classify_timeline(traj)]
    assert timeline == [((0,), (1,)), ((0, 1),), ((0,), (1,))]
    _report(9, "entangled marginals impure, products split, merge/split timeline exact")


def test_criterion_10_pattern_count():
    def partitions(n, maximum=None):
        if n == 0:
            yield ()
            return
        maximum = maximum or n
        for first in range(min(n, maximum), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    for n in range(1, 11):
        brute = sum(1 for _ in partitions(n)) * math.factorial(n)
        assert count_entanglement_patterns(n) == brute
    _report(10, "entanglement pattern count matches brute-force enumeration to n=10")


def _twelve_qubit_program(rng):
    n_q = 12
    systems = {f"q{i}": System(f"q{i}", 2) for i in range(n_q)}

    def brick_layer(name, offset):
        nodes = []
        for a in range(0, n_q, 2):
            i, j = (a + offset) % n_q, (a + offset + 1) % n_q
            nodes.append(TestNode(
                f"u{i}_{j}", (f"q{i}", f"q{j}"), (f"q{i}", f"q{j}"),
                (Event("0", (haar_unitary(4, rng),)),),
            ))
        return Circuit(name, dict(systems), nodes, [])

    def dense_layer(name):
        dim = 2 ** n_q
        k = np.arange(dim)
        dft = np.exp(-2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
        u = np.exp(2j * np.pi * rng.random(dim))[:, None] * dft \
            * np.exp(2j * np.pi * rng.random(dim))[None, :]
        node = TestNode("global", tuple(systems), tuple(systems), (Event("0", (u,)),))
        return Circuit(name, dict(systems), [node], [])

    steps = [ProgramStep(brick_layer(f"layer{t}", t % 2)) for t in range(4)]
    steps.append(ProgramStep(dense_layer("dense")))

    # Bind boundaries by qubit label (brickwork layers permute the order).
    def boundary_labels(lay, wire_ids, use_dst):
        labels = []
        for w in wire_ids:
            info = lay.wires[w]
            node_idx, port = info.dst if use_dst else info.src
            node = lay.circuit.nodes[node_idx]
            labels.append((node.inputs if use_dst else node.outputs)[port])
        return labels

    lays = [layout(s.circuit) for s in steps]
    for t in range(1, len(steps)):
        outs = boundary_labels(lays[t - 1], lays[t - 1].output_wires, use_dst=False)
        ins = boundary_labels(lays[t], lays[t].input_wires, use_dst=True)
        steps[t].bind = [(outs.index(lbl), i) for i, lbl in enumerate(ins)]
    return Program("bench-12q", steps)


def _current_rss_bytes() -> int:
    """Resident set size of this process: psutil's ``rss``, or resident
    pages times the page size from /proc/self/statm where psutil is absent."""
    try:
        import psutil
    except ImportError:
        statm = Path("/proc/self/statm")
        if not statm.is_file():
            pytest.skip("neither psutil nor /proc/self/statm is available")
        resident_pages = int(statm.read_text().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    return psutil.Process().memory_info().rss


def test_criterion_11_twelve_qubit_performance():
    rng = np.random.default_rng(1111)
    prog = _twelve_qubit_program(rng)
    psi0 = np.zeros(2 ** 12, dtype=complex)
    psi0[0] = 1.0
    start = time.perf_counter()
    traj = run_trajectory(prog, omega0=psi0, seed=12)
    elapsed = time.perf_counter() - start
    rss_gb = _current_rss_bytes() / 1e9
    assert abs(traj.probability - 1) < 1e-9
    assert abs(np.linalg.norm(traj.final_state) - 1) < 1e-9
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    assert rss_gb < 2.0, f"RSS {rss_gb:.2f} GB"
    _report(11, f"12-qubit, 5-step unitary trajectory: {elapsed:.1f}s, {rss_gb:.2f} GB")


def test_criterion_12_run_determinism(tmp_path):
    path = CIRCUITS / "conditioned_step_program.json"
    if not path.is_file():
        target = tmp_path / "circuits"
        gallery.write_gallery(target)
        path = target / "conditioned_step_program.json"
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for out in (out1, out2):
        code = cli_main([
            "run", str(path), "--seed", "31415", "--trajectories", "200",
            "--out", str(out),
        ])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 200
    _report(12, "repeated cmd_run with equal seed is byte-identical")
