import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from _helpers import DEEP_CHAIN, closed_chain, graph_cases, reprepare_chain, slice_candidates
from onticsim import engine, gallery, linalg
from onticsim.circuit import (
    Circuit, CircuitError, Condition, Event, System, TestNode, WireSpec, layout,
)
from onticsim.engine import (
    BATCH_SIZE,
    EngineError,
    HistoryCapExceeded,
    Program,
    ProgramStep,
    _trajectory_uniforms,
    compile_program,
    enumerate_histories,
    run_trajectories,
    run_trajectory,
    trajectory_rng,
)
from onticsim.foliation import FoliationError, admissible_events, compile_history, foliate
from onticsim.linalg import haar_state, haar_unitary
from onticsim.random_circuits import random_circuit


def vn_measure_circuit(name="m"):
    systems = {"Q": System("Q", 2)}
    eye = np.eye(2, dtype=complex)
    node = TestNode("m", ("Q",), ("Q",), (
        Event("0", (np.outer(eye[0], eye[0]),)),
        Event("1", (np.outer(eye[1], eye[1]),)),
    ))
    return Circuit(name, systems, [node], [])


def rand3_program():
    """Three steps, each a Haar two-qubit unitary then a readout of Q1,
    bound to the next step position by position."""
    rng = np.random.default_rng(101)
    ops = [haar_unitary(4, rng) for _ in range(2)]
    systems = {"Q1": System("Q1", 2), "Q2": System("Q2", 2)}
    eye = np.eye(2, dtype=complex)
    meas = lambda lbl, s: TestNode(lbl, (s,), (s,), (
        Event("0", (np.outer(eye[0], eye[0]),)),
        Event("1", (np.outer(eye[1], eye[1]),)),
    ))
    steps = []
    for t in range(3):
        nodes = [
            TestNode("u", ("Q1", "Q2"), ("Q1", "Q2"), (Event("0", (ops[t % 2],)),)),
            meas("m1", "Q1"),
        ]
        wires = [WireSpec("u", 0, "m1", 0)]
        steps.append(ProgramStep(Circuit(f"s{t}", dict(systems), nodes, wires)))
    return Program("rand3", steps), haar_state(4, rng)


def big_leaf_program(unitary_first: bool):
    """Nine qubits, so every leaf has d = 512 and every slice takes the
    tensor path. Slice 0: one-qubit measure-and-rotate nodes m0, m1 and m2
    beside a Haar unitary on the other six qubits. Slice 1: node c on q0,
    conditioned on m0, measures and rotates after outcome 0 and applies a
    Haar unitary after outcome 1, beside a Haar unitary on the other eight.
    The unitaries run first in their slices, or last. Returns the program
    and a Haar initial state."""
    rng = np.random.default_rng(512)
    eye = np.eye(2, dtype=complex)
    readouts = lambda: [Event(str(b), (haar_unitary(2, rng) @ np.outer(eye[b], eye[b]),))
                        for b in range(2)]
    unitary = lambda label, n: TestNode(label, ("q",) * n, ("q",) * n,
                                        (Event("0", (haar_unitary(2 ** n, rng),)),))
    first = [TestNode(f"m{j}", ("q",), ("q",), tuple(readouts())) for j in range(3)]
    u1, u2 = unitary("u1", 6), unitary("u2", 8)
    c = TestNode("c", ("q",), ("q",), (*readouts(), Event("2", (haar_unitary(2, rng),))),
                 Condition("m0", {"0": (0, 1), "1": (2,)}))
    ordered = [u1, *first, u2, c] if unitary_first else [*first, u1, c, u2]
    wires = [WireSpec("m0", 0, "c", 0), WireSpec("m1", 0, "u2", 0), WireSpec("m2", 0, "u2", 1)]
    wires += [WireSpec("u1", j, "u2", 2 + j) for j in range(6)]
    name = "big-leaf-" + ("unitary-first" if unitary_first else "unitary-last")
    circuit = Circuit(name, {"q": System("q", 2)}, ordered, wires)
    return Program.single(circuit), haar_state(512, rng)


class TestSampleStep:
    def test_z_measurement_of_zero_is_deterministic(self):
        prog = Program.single(vn_measure_circuit())
        step = run_trajectory(prog, np.array([1, 0], dtype=complex), store_states=True).steps[0]
        assert step.outcomes == {"m": "0"}
        assert abs(step.weight - 1) < 1e-12
        assert np.allclose(step.state, [1, 0])

    def test_born_rule_frequencies(self):
        prog = Program.single(vn_measure_circuit())
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        n = 40_000
        hits = sum(
            traj.steps[0].outcomes["m"] == "0"
            for traj in run_trajectories(prog, n, seed=3, omega0=plus)
        )
        sigma = 0.5 / np.sqrt(n)
        assert abs(hits / n - 0.5) < 3 * sigma + 1e-9


class TestRunTrajectory:
    def test_unitary_steps_probability_one(self):
        rng = np.random.default_rng(5)
        ops = [haar_unitary(2, rng) for _ in range(4)]
        systems = {"Q": System("Q", 2)}
        steps = [
            ProgramStep(Circuit(
                f"u{t}", dict(systems),
                [TestNode("u", ("Q",), ("Q",), (Event("0", (op,)),))], [],
            ))
            for t, op in enumerate(ops)
        ]
        psi0 = haar_state(2, rng)
        traj = run_trajectory(Program("chain", steps), omega0=psi0, seed=0)
        assert abs(traj.probability - 1) < 1e-12
        expected = ops[3] @ ops[2] @ ops[1] @ ops[0] @ psi0
        assert np.abs(traj.final_state - expected).max() < 1e-10

    def test_repeated_measurement_is_repeatable(self):
        prog = Program(
            "mm", [ProgramStep(vn_measure_circuit("m1")), ProgramStep(vn_measure_circuit("m2"))]
        )
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        hist = dict(enumerate_histories(prog, omega0=plus))
        law = {tuple(v for _, v in k): p for k, p in hist.items()}
        assert abs(law[("0", "0")] - 0.5) < 1e-12
        assert abs(law[("1", "1")] - 0.5) < 1e-12
        assert law.get(("0", "1"), 0.0) < 1e-12
        assert law.get(("1", "0"), 0.0) < 1e-12

    def test_seeded_determinism_across_compilations(self):
        prog = gallery.conditioned_step_program()
        t1 = run_trajectory(prog, seed=9, index=4, store_states=True)
        t2 = run_trajectory(prog, seed=9, index=4, store_states=True)
        assert t1.steps[0].outcomes == t2.steps[0].outcomes
        assert np.array_equal(t1.final_state, t2.final_state)
        assert t1.probability == t2.probability

    def test_final_state_is_the_last_stored_state(self):
        prog = gallery.merge_split_program()
        stored = run_trajectories(prog, 5, seed=5, store_states=True)
        plain = run_trajectories(prog, 5, seed=5)
        for s, p in zip(stored, plain):
            # No second copy, and no view that keeps the batch array alive.
            assert np.shares_memory(s.final_state, s.steps[-1].state)
            assert s.final_state.base is None
            assert s.final_state.tobytes() == p.final_state.tobytes()

    def test_different_indices_differ(self):
        prog = gallery.conditioned_step_program()
        compiled = compile_program(prog)
        outcomes = {
            tuple(run_trajectory(prog, seed=1, index=i, compiled=compiled).steps[0].outcomes.items())
            for i in range(40)
        }
        assert len(outcomes) > 1

    def test_trajectory_weight_equals_history_operator_norm(self):
        prog = gallery.conditioned_step_program()
        lay = layout(prog.steps[0].circuit)
        fol = foliate(lay, "asap")
        compiled = compile_program(prog)
        for i in range(25):
            traj = run_trajectory(prog, seed=21, index=i, compiled=compiled)
            op = compile_history(fol, traj.steps[0].outcomes).operator
            expected = float(np.linalg.norm(op @ prog.initial_state) ** 2)
            assert abs(traj.probability - expected) < 1e-10

    def test_classical_inputs_change_final_state_not_norm(self):
        # The input-selected node acts unitarily on an unmeasured output
        # wire, so it shifts the state but leaves the outcome law alone.
        prog = gallery.conditioned_step_program()
        h0 = dict(enumerate_histories(prog, inputs=["0"]))
        h1 = dict(enumerate_histories(prog, inputs=["1"]))
        assert h0.keys() == h1.keys()
        assert all(abs(h0[k] - h1[k]) < 1e-10 for k in h0)
        t0 = run_trajectory(prog, inputs=["0"], seed=8)
        t1 = run_trajectory(prog, inputs=["1"], seed=8)
        assert t0.steps[0].outcomes == t1.steps[0].outcomes
        assert np.abs(t0.final_state - t1.final_state).max() > 1e-3

    def test_classical_inputs_change_the_law_when_measured(self):
        # Closing the circuit with a readout after the input-selected node
        # makes the distribution input-dependent.
        prog = Program.single(gallery.conditioned_step_closed())
        h0 = dict(enumerate_histories(prog, inputs=["0"]))
        h1 = dict(enumerate_histories(prog, inputs=["1"]))
        assert h0.keys() == h1.keys()
        assert any(abs(h0[k] - h1[k]) > 1e-3 for k in h0)

    def test_store_states_are_normalized(self):
        prog = gallery.merge_split_program()
        traj = run_trajectory(prog, seed=2, store_states=True)
        assert len(traj.steps) == 3
        for step, dims in zip(traj.steps, traj.state_dims):
            assert abs(np.linalg.norm(step.state) - 1) < 1e-9
            assert step.state.size == int(np.prod(dims))

    def test_open_input_needs_initial_state(self):
        prog = Program.single(vn_measure_circuit())
        with pytest.raises(EngineError, match="initial state"):
            run_trajectory(prog, seed=0)

    def test_run_trajectories_matches_indexwise(self):
        prog = gallery.conditioned_step_program()
        batch = run_trajectories(prog, 5, seed=33)
        for i, traj in enumerate(batch):
            solo = run_trajectory(prog, seed=33, index=i)
            assert solo.steps[0].outcomes == traj.steps[0].outcomes


class TestEnumerate:
    def test_single_measurement_two_histories(self):
        prog = Program.single(vn_measure_circuit())
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        hist = enumerate_histories(prog, omega0=plus)
        assert len(hist) == 2
        assert abs(sum(p for _, p in hist) - 1) < 1e-12

    def test_conditioned_step_sums_to_one(self):
        hist = enumerate_histories(gallery.conditioned_step_program())
        assert len(hist) == 32
        assert abs(sum(p for _, p in hist) - 1) < 1e-9

    def test_disconnected_components_factorize(self):
        """Two unwired prepare-measure pairs: the joint law is a product."""
        systems = {"A": System("A", 2), "B": System("B", 2)}
        eye = np.eye(2, dtype=complex)

        def pm(label, sys_label, amps):
            prep = TestNode(
                f"p{label}", (), (sys_label,),
                (Event("0", (np.array(amps, dtype=complex).reshape(2, 1),)),),
            )
            eff = TestNode(f"e{label}", (sys_label,), (), (
                Event("0", (eye[0].reshape(1, 2),)),
                Event("1", (eye[1].reshape(1, 2),)),
            ))
            return [prep, eff], WireSpec(f"p{label}", 0, f"e{label}", 0)

        n1, w1 = pm("1", "A", [np.sqrt(0.3), np.sqrt(0.7)])
        n2, w2 = pm("2", "B", [np.sqrt(0.9), np.sqrt(0.1)])
        c = Circuit("two", systems, n1 + n2, [w1, w2], closed=True)
        law = {tuple(v for _, v in k): p for k, p in enumerate_histories(Program.single(c))}
        marg1 = {o: sum(p for k, p in law.items() if k[0] == o) for o in "01"}
        marg2 = {o: sum(p for k, p in law.items() if k[1] == o) for o in "01"}
        for o1 in "01":
            for o2 in "01":
                assert abs(law[(o1, o2)] - marg1[o1] * marg2[o2]) < 1e-10

    def test_bind_permutation_routes_wires(self):
        """A swapped bind map feeds step 1's wires crosswise into step 2."""
        systems = {"A": System("A", 2), "B": System("B", 2)}
        prep = Circuit(
            "prep", dict(systems),
            [
                TestNode("pa", (), ("A",), (Event("0", (np.array([[1], [0]], dtype=complex),)),)),
                TestNode("pb", (), ("B",), (Event("0", (np.array([[1], [1]], dtype=complex) / np.sqrt(2),)),)),
            ],
            [],
        )
        eye = np.eye(2, dtype=complex)
        meas = Circuit(
            "meas", dict(systems),
            [
                TestNode("m1", ("A",), ("A",), (
                    Event("0", (np.outer(eye[0], eye[0]),)),
                    Event("1", (np.outer(eye[1], eye[1]),)),
                )),
                TestNode("m2", ("B",), ("B",), (
                    Event("0", (np.outer(eye[0], eye[0]),)),
                    Event("1", (np.outer(eye[1], eye[1]),)),
                )),
            ],
            [],
        )
        prog = Program("cross", [ProgramStep(prep), ProgramStep(meas, bind=[(0, 1), (1, 0)])])
        assert [step.bind for step in compile_program(prog)] == [[], [(0, 1), (1, 0)]]
        law = {tuple(v for _, v in k): p for k, p in enumerate_histories(prog)}
        # m1 sees the |+> qubit (uniform), m2 sees |0> (deterministic).
        assert abs(law[("0", "0")] - 0.5) < 1e-12
        assert abs(law[("1", "0")] - 0.5) < 1e-12
        assert law.get(("0", "1"), 0.0) < 1e-12 and law.get(("1", "1"), 0.0) < 1e-12

    def test_event_admitted_through_different_source_outcomes(self):
        """``n``'s event 1 is admissible after either outcome of ``s``, whose
        outcomes alternate along a chunk: each row must still reach its own
        child."""
        rng = np.random.default_rng(5)

        def instrument(label, weight, condition=None):
            return TestNode(label, ("Q",), ("Q",), (
                Event("0", (np.sqrt(weight) * haar_unitary(2, rng),)),
                Event("1", (np.sqrt(1 - weight) * haar_unitary(2, rng),)),
            ), condition)

        nodes = [instrument("f", 0.2), instrument("s", 0.35),
                 instrument("n", 0.6, Condition("s", {"0": (1,), "1": (1, 0)}))]
        wires = [WireSpec("f", 0, "s", 0), WireSpec("s", 0, "n", 0)]
        prog = Program.single(Circuit("overlap", {"Q": System("Q", 2)}, nodes, wires))
        psi0 = haar_state(2, rng)
        law = enumerate_histories(prog, psi0)
        assert [len(key) for key, _ in law] == [2, 3, 3] * 2
        assert law == slice_walk_histories(prog, psi0)

    def test_cap_exceeded(self):
        prog = Program(
            "many", [ProgramStep(vn_measure_circuit(f"m{t}")) for t in range(3)]
        )
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        with pytest.raises(HistoryCapExceeded):
            enumerate_histories(prog, omega0=plus, cap=4)

    def test_monte_carlo_matches_enumeration_on_random_program(self):
        prog, psi0 = rand3_program()
        exact = {k: p for k, p in enumerate_histories(prog, omega0=psi0)}
        n = 30_000
        counts = Counter()
        for traj in run_trajectories(prog, n, seed=77, omega0=psi0):
            key = tuple(
                (f"{t}:{node}" if len(traj.steps) > 1 else node, out)
                for t, s in enumerate(traj.steps)
                for node, out in s.outcomes.items()
            )
            counts[key] += 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / n - p) for k, p in exact.items())
        tv += 0.5 * sum(c / n for k, c in counts.items() if k not in exact)
        assert tv < 0.02

    def test_random_deterministic_circuits_normalize(self):
        """Complete tests (with per-branch complete conditioning) always
        yield a history law summing to one, up to total dimension 64."""
        rng = np.random.default_rng(303)
        checked = 0
        while checked < 10:
            c = random_circuit(rng, n_nodes=(4, 8), max_total_dim=64)
            lay = layout(c)
            dim_in = int(np.prod(lay.input_dims)) if lay.input_dims else 1
            psi0 = haar_state(dim_in, rng) if dim_in > 1 else None
            try:
                hist = enumerate_histories(Program.single(c), omega0=psi0, cap=50_000)
            except HistoryCapExceeded:
                continue
            total = sum(p for _, p in hist)
            assert abs(total - 1) < 1e-9, f"sum = {total}"
            checked += 1

    def test_order_of_independent_nodes_does_not_change_law(self):
        """Swapping the declaration order of causally independent tests
        permutes nothing observable: the joint law is identical."""
        rng = np.random.default_rng(55)
        c = random_circuit(rng, n_nodes=(5, 7))
        lay = layout(c)
        # find two adjacent-in-declaration nodes with no path between them
        import itertools

        def reachable(start, goal, preds):
            frontier, seen = {goal}, set()
            while frontier:
                x = frontier.pop()
                if x == start:
                    return True
                seen.add(x)
                frontier |= preds[x] - seen
            return False

        preds = lay.predecessors
        swap = None
        for i, j in itertools.combinations(range(len(c.nodes)), 2):
            if not reachable(i, j, preds) and not reachable(j, i, preds):
                swap = (i, j)
                break
        if swap is None:
            pytest.skip("random draw produced a totally ordered circuit")
        nodes = list(c.nodes)
        nodes[swap[0]], nodes[swap[1]] = nodes[swap[1]], nodes[swap[0]]
        c2 = Circuit(c.name, c.systems, nodes, c.wires)
        dim_in = int(np.prod(lay.input_dims)) if lay.input_dims else 1
        psi0 = haar_state(dim_in, rng) if dim_in > 1 else None
        law1 = dict(enumerate_histories(Program.single(c), omega0=psi0))
        law2 = dict(enumerate_histories(Program.single(c2), omega0=psi0))
        norm = lambda law: {tuple(sorted(k)): p for k, p in law.items()}
        l1, l2 = norm(law1), norm(law2)
        assert l1.keys() == l2.keys()
        assert all(abs(l1[k] - l2[k]) < 1e-10 for k in l1)


class TestDeepChain:
    def test_enumerate(self):
        law = enumerate_histories(closed_chain(DEEP_CHAIN))
        assert [key for key, _ in law] == [(("m", "0"),), (("m", "1"),)]
        assert abs(sum(p for _, p in law) - 1) < 1e-9

    def test_run_trajectories(self):
        c = closed_chain(DEEP_CHAIN)
        op = compile_history(foliate(c, "asap"), {"m": "0"}).operator
        p0 = float(np.real(np.vdot(op, op)))
        trajs = run_trajectories(c, 20, seed=3)
        assert len(trajs) == 20
        for t in trajs:
            want = p0 if t.outcome_items() == [("m", "0")] else 1 - p0
            assert abs(t.probability - want) < 1e-9


def slice_walk_histories(program, omega0=None, inputs=None, cap=engine.DEFAULT_HISTORY_CAP):
    """``enumerate_histories`` as it stood before the node walk: one tree
    level per slice, whose children are the slice's joint candidates, each
    applied by one ``_apply_slice`` call over the slice's nodes. A key holds
    the nodes with more than one admissible event, in slice order."""
    if isinstance(program, Circuit):
        program = Program.single(program)
    compiled = compile_program(program)
    inputs = engine._padded_inputs(inputs, compiled)
    prefixes = [f"{t}:" if len(compiled) > 1 else "" for t in range(len(compiled))]

    def children(t, s, state, order, chosen, key):
        step = compiled[t]
        lay = step.layout
        if s == len(step.slices):
            state, order = engine._reorder(state, order, list(lay.output_wires)), []
            if t + 1 < len(compiled):
                nxt = compiled[t + 1]
                state = engine._apply_bind(state, nxt.bind)
                order = list(nxt.layout.input_wires)
            yield t + 1, 0, state, order, {}, key
            return
        plan = step.slices[s]
        branches = slice_candidates(plan, lay, chosen, inputs[t])
        for cand in branches.cands:
            out, out_order = engine._apply_slice(state, order, lay, plan.node_indices, cand)
            fired = {**chosen, **cand}
            nodes = [(lay.circuit.nodes[i], fired[i]) for i in plan.node_indices
                     if len(admissible_events(lay, i, fired, inputs[t])) > 1]
            yield (t, s + 1, out, out_order, fired,
                   key + tuple((prefixes[t] + n.label, n.events[e].outcome) for n, e in nodes))

    results = []
    state0 = engine._initial_tensor(program, compiled, omega0)
    stack = [iter([(0, 0, state0, list(compiled[0].layout.input_wires), {}, ())])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        t, _, state, _, _, key = node
        if t < len(compiled):
            stack.append(children(*node))
            continue
        results.append((key, float(np.real(np.vdot(state, state)))))
        if len(results) > cap:
            raise HistoryCapExceeded(f"more than {cap} histories")
    return results


def walk_cases():
    """(program, initial state, inputs) for every graph case and every
    multi-step program, under each classical input they read."""
    cases = []
    for c in graph_cases():
        d = int(np.prod(layout(c).input_dims))
        cases.append((Program.single(c), haar_state(d, np.random.default_rng(d)), None))
    for inputs in (["0"], ["1"]):
        cases.append((gallery.conditioned_step_program(), None, inputs))
    cases.append((gallery.merge_split_program(), None, None))
    cases.append((*rand3_program(), ["1", "0"]))
    cases += [(*big_leaf_program(first), None) for first in (True, False)]
    return cases


def test_table_candidates_equal_the_oracle():
    """The sampler's slice candidates, grown from the condition tables,
    against ``_helpers.slice_candidates``, read from ``admissible_events``:
    the same event rows in the same order, and the same determinism (both
    verdicts occur), in every context reachable under each classical input
    a case accepts."""
    contexts, verdicts = 0, set()
    # the final effect of the reprepare chain sums to less than the identity
    for prog, _, inputs in [*walk_cases(), (Program.single(reprepare_chain(3)), None, None)]:
        compiled = compile_program(prog)
        for classical in ([inputs] if inputs else [None, ["1"]]):
            try:
                classical = engine._padded_inputs(classical, compiled)
            except FoliationError:
                continue
            for step, classical_input in zip(compiled, classical):
                tables = engine._condition_tables(step, classical_input)
                stack = [(0, {})]
                while stack:
                    s, chosen = stack.pop()
                    if s == len(step.slices):
                        continue
                    plan = step.slices[s]
                    want = slice_candidates(plan, step.layout, chosen, classical_input)
                    ev = np.array([[chosen.get(i, -1) for i in step.run]])
                    got = engine._slice_candidates(step, plan, ev, tables)
                    assert np.array_equal(got.events, want.events), prog.name
                    assert got.deterministic == want.deterministic, prog.name
                    stack += [(s + 1, {**chosen, **cand}) for cand in want.cands]
                    contexts += 1
                    verdicts.add(want.deterministic)
    assert contexts > 10_000 and verdicts == {True, False}


class TestNodeWalk:
    """The node walk against the slice walk it replaced: keys, their order
    and the float probabilities are equal, not just close."""

    def test_equals_the_slice_walk(self):
        for prog, omega0, inputs in walk_cases():
            assert enumerate_histories(prog, omega0, inputs) == slice_walk_histories(
                prog, omega0, inputs), prog.name

    def test_deep_chain_equals_the_slice_walk(self):
        c = closed_chain(DEEP_CHAIN)
        assert enumerate_histories(c) == slice_walk_histories(c)

    def test_needs_no_slice_candidates(self, monkeypatch):
        prog = gallery.conditioned_step_program()
        law = slice_walk_histories(prog, inputs=["1"])

        def refuse(*args):
            raise AssertionError("enumeration asked for slice candidates")

        monkeypatch.setattr(engine, "_slice_candidates", refuse)
        assert enumerate_histories(prog, inputs=["1"]) == law

    def test_cap_raised_at_the_same_count(self):
        prog, psi0 = rand3_program()
        law = enumerate_histories(prog, omega0=psi0)
        assert len(enumerate_histories(prog, omega0=psi0, cap=len(law))) == len(law)
        for walk in (enumerate_histories, slice_walk_histories):
            with pytest.raises(HistoryCapExceeded, match=f"more than {len(law) - 1} histories"):
                walk(prog, omega0=psi0, cap=len(law) - 1)


def law_bits(law):
    """A law with each probability as its exact float bits."""
    return [(key, p.hex()) for key, p in law]


def register_program(measurements: int, qubits: int = 9) -> Program:
    """A Haar state on ``qubits`` qubits, then ``measurements`` two-outcome
    tests on its qubits in turn, each with outcomes of equal weight that
    leave the register as it was: 2 ** measurements histories, each
    carrying a 2 ** qubits state to its end."""
    psi = haar_state(2 ** qubits, np.random.default_rng(qubits)).reshape(-1, 1)
    nodes = [TestNode("prep", (), ("q",) * qubits, (Event("0", (psi,)),))]
    half = np.sqrt(0.5) * np.eye(2)
    wires, last = [], [("prep", q) for q in range(qubits)]
    for j in range(measurements):
        nodes.append(TestNode(f"m{j}", ("q",), ("q",), (Event("0", (half,)), Event("1", (half,)))))
        wires.append(WireSpec(*last[j % qubits], f"m{j}", 0))
        last[j % qubits] = (f"m{j}", 0)
    return Program.single(Circuit("register", {"q": System("q", 2)}, nodes, wires))


def working_memory(monkeypatch, size: int, measurements: int) -> int:
    """Bytes ``enumerate_histories`` held at its peak beyond the law it
    returns, with chunks of ``size`` histories."""
    monkeypatch.setattr(engine, "BATCH_SIZE", size)
    prog = register_program(measurements)
    tracemalloc.start()
    try:
        law = enumerate_histories(prog)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(law) == 2 ** measurements
    assert abs(sum(p for _, p in law) - 1) < 1e-9
    return peak - kept


class TestChunks:
    """Enumeration walks chunks of at most ``BATCH_SIZE`` histories. The
    size changes no key, no order and no bit; it bounds memory."""

    @pytest.fixture(scope="class")
    def laws(self):
        """Each walk case and its law at the default size, which
        ``TestNodeWalk`` holds to the slice walk."""
        cases = walk_cases()
        return cases, [law_bits(enumerate_histories(*case)) for case in cases]

    @pytest.mark.parametrize("size", [1, 7, 1024])
    def test_size_changes_no_bit(self, laws, size, monkeypatch):
        monkeypatch.setattr(engine, "BATCH_SIZE", size)
        for case, want in zip(*laws):
            assert law_bits(enumerate_histories(*case)) == want, case[0].name

    @pytest.mark.parametrize("size", [1, 7, 1024])
    def test_deep_chain(self, size, monkeypatch):
        c = closed_chain(DEEP_CHAIN)
        want = law_bits(slice_walk_histories(c))
        monkeypatch.setattr(engine, "BATCH_SIZE", size)
        assert law_bits(enumerate_histories(c)) == want

    def test_memory_is_bounded_by_the_chunk_size(self, monkeypatch):
        """2048 histories of 8 KiB states: a walk holding them all would
        need 16 MiB. The peak grows with the chunk size and barely with
        the number of histories."""
        state_bytes = 2 ** 9 * 16
        small = working_memory(monkeypatch, 8, 9)
        many = working_memory(monkeypatch, 8, 11)
        wide = working_memory(monkeypatch, 32, 11)
        assert many < 2 ** 11 * state_bytes / 4
        assert many < 1.5 * small
        assert wide > 2 * many


class TestEnginePreconditions:
    def test_surplus_inputs_refused(self):
        prog, psi0 = rand3_program()
        message = "got 4 classical inputs for a 3-step program"
        for call in (
            lambda: enumerate_histories(prog, psi0, ["0", "1", "0", "1"]),
            lambda: run_trajectory(prog, psi0, ["0", "1", "0", "1"]),
            lambda: run_trajectories(prog, 3, omega0=psi0, inputs=["0", "1", "0", "1"]),
            lambda: engine.sample_batches(prog, range(3), omega0=psi0, inputs=["0", "1", "0", "1"],
                                          compiled=compile_program(prog)),
        ):
            with pytest.raises(EngineError, match=message):
                call()
        assert len(enumerate_histories(prog, psi0, ["0", "1", "0"])) == 8

    def test_rejects_non_atomic_events(self):
        systems = {"Q": System("Q", 2)}
        eye = np.eye(2, dtype=complex)
        node = TestNode("fuzz", ("Q",), ("Q",), (
            Event("both", (np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1]))),
        ))
        with pytest.raises(EngineError, match="atomic"):
            compile_program(Program.single(Circuit("na", systems, [node], [])))

    def test_rejects_classical_wires(self):
        systems = {"X": System("X", 2, "classical")}
        node = TestNode("id", ("X",), ("X",), (Event("0", (np.eye(2, dtype=complex),)),))
        with pytest.raises(EngineError, match="quantum"):
            compile_program(Program.single(Circuit("cl", systems, [node], [])))

    def test_bind_dimension_checked(self):
        sys2 = {"Q": System("Q", 2)}
        sys3 = {"R": System("R", 3)}
        s1 = Circuit("a", sys2, [TestNode("p", (), ("Q",), (Event("0", (np.array([[1], [0]], dtype=complex),)),))], [])
        s2 = Circuit("b", sys3, [TestNode("e", ("R",), (), (
            Event(str(j), (np.eye(3, dtype=complex)[j].reshape(1, 3),)) for j in range(3)
        ))], [])
        prog = Program("bad", [ProgramStep(s1), ProgramStep(s2)])
        with pytest.raises(EngineError, match="dim"):
            compile_program(prog)

    def test_bind_checked_once_at_compile(self, monkeypatch):
        """Sampling and enumeration route wires along the compiled pairs and
        check no bind again."""
        prog, omega0 = rand3_program()
        calls = []
        check = engine._bind_pairs
        monkeypatch.setattr(engine, "_bind_pairs", lambda *a: calls.append(a) or check(*a))
        compiled = compile_program(prog)
        assert len(calls) == 2
        assert [step.bind for step in compiled] == [[(0, 0), (1, 1)]] * 3
        run_trajectories(prog, 50, seed=1, omega0=omega0, compiled=compiled)
        assert len(calls) == 2
        enumerate_histories(prog, omega0)
        assert len(calls) == 4

    @pytest.mark.parametrize("omega0", [[1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]])
    def test_normalized_initial_state_required(self, omega0):
        prog = Program.single(vn_measure_circuit())
        with pytest.raises(EngineError, match="normalized"):
            run_trajectory(prog, omega0=np.array(omega0), seed=0)


class TestProgramDocument:
    @pytest.mark.parametrize("build", [gallery.conditioned_step_program,
                                       gallery.merge_split_program, rand3_program])
    def test_round_trip(self, build):
        prog = build()
        prog = prog[0] if isinstance(prog, tuple) else prog
        doc = engine.program_to_dict(prog)
        assert engine.program_to_dict(engine.program_from_dict(doc)) == doc

    def test_bind_decoded_once_into_integer_pairs(self):
        prog, _ = rand3_program()
        prog.steps[1].bind = [(1, 0), (0, 1)]
        decoded = engine.program_from_dict(engine.program_to_dict(prog))
        assert decoded.steps[1].bind == [(1, 0), (0, 1)]
        assert engine._bind_pairs(decoded.steps[1].bind, 2, 2, 1) is decoded.steps[1].bind

    @pytest.mark.parametrize("bind", [[[0], [1]], [["a", 0], [1, 1]], {"0": 0}, [[0.0, 0], [1, 1]]])
    def test_malformed_bind(self, bind):
        doc = engine.program_to_dict(rand3_program()[0])
        doc["steps"][1]["bind"] = bind
        with pytest.raises(CircuitError, match="^malformed program document: "):
            engine.program_from_dict(doc)

    def test_program_needs_a_step(self):
        with pytest.raises(CircuitError, match="^malformed program document: no steps$"):
            engine.program_from_dict({"kind": "program", "steps": []})


def large_conditioned_program() -> Program:
    """A d = 512 Haar unitary on a prepared state, a three-outcome readout,
    and a node conditioned on it: the identity after outcome 0, a second
    Haar unitary after outcomes 1 and 2."""
    d = 512
    rng = np.random.default_rng(31)
    eye = np.eye(d, dtype=complex)
    third = np.arange(d) * 3 // d
    readout = tuple(Event(str(j), (np.diag((third == j).astype(complex)),)) for j in range(3))
    nodes = [
        TestNode("prep", (), ("R",), (Event("0", (eye[:, :1],)),)),
        TestNode("u", ("R",), ("R",), (Event("0", (haar_unitary(d, rng),)),)),
        TestNode("m", ("R",), ("R",), readout),
        TestNode("c", ("R",), ("R",), (Event("a", (eye,)), Event("b", (haar_unitary(d, rng),))),
                 Condition("m", {"0": (0,), "1": (1,), "2": (1,)})),
    ]
    wires = [WireSpec("prep", 0, "u", 0), WireSpec("u", 0, "m", 0), WireSpec("m", 0, "c", 0)]
    return Program.single(Circuit("large", {"R": System("R", d)}, nodes, wires))


class TestNormalisationVerdicts:
    def test_one_spectral_run_per_subset_in_compile_none_in_sampling(self, monkeypatch):
        dims = []
        spectrum = linalg._gram_spectrum

        def counted(operators, lower, upper):
            dims.append(np.shape(operators[0])[1])
            return spectrum(operators, lower, upper)

        monkeypatch.setattr(linalg, "_gram_spectrum", counted)
        prog = large_conditioned_program()
        compiled = compile_program(prog)
        # prep, u and m have one event subset each; c has two, one of which
        # two readout outcomes share.
        assert sorted(dims) == [1, 512, 512, 512, 512]
        assert compiled[0].layout.deterministic == {(0, (0,)), (1, (0,)), (2, (0, 1, 2)),
                                                    (3, (0,)), (3, (1,))}
        dims.clear()
        trajs = run_trajectories(prog, 40, seed=1, compiled=compiled)
        run_trajectory(prog, seed=1, index=7, compiled=compiled)
        assert dims == []
        assert {t.steps[0].outcomes["m"] for t in trajs} == {"0", "1", "2"}


def assert_same_trajectory(a, b):
    """Field by field and bit for bit."""
    assert (a.seed, a.index, a.state_dims) == (b.seed, b.index, b.state_dims)
    assert a.probability == b.probability
    assert a.final_state.tobytes() == b.final_state.tobytes()
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert (sa.classical_input, sa.outcomes, sa.weight) == (sb.classical_input, sb.outcomes, sb.weight)
        assert list(sa.outcomes) == list(sb.outcomes)
        assert (sa.state is None) == (sb.state is None)
        if sa.state is not None:
            assert sa.state.tobytes() == sb.state.tobytes()


def zero_branch_program(then_one: np.ndarray) -> Program:
    """Readout ``m`` of a qubit, then ``e``, whose only event after outcome
    1 applies ``then_one``."""
    eye = np.eye(2, dtype=complex)
    p0, p1 = np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1])
    m = TestNode("m", ("Q",), ("Q",), (Event("0", (p0,)), Event("1", (p1,))))
    e = TestNode("e", ("Q",), ("Q",), (Event("a", (eye,)), Event("b", (then_one,))),
                 Condition("m", {"0": (0,), "1": (1,)}))
    return Program.single(Circuit("zb", {"Q": System("Q", 2)}, [m, e], [WireSpec("m", 0, "e", 0)]))


# With seed 27, trajectory 461 is the only one of the first 1000 to read
# outcome 1 from this state.
RARE_ONE = np.array([np.sqrt(0.999), np.sqrt(0.001)], dtype=complex)
RARE_SEED, RARE_INDEX = 27, 461


class TestBatchKernel:
    @pytest.mark.parametrize("case", ["input0", "input1", "merge_split", "rand3"])
    def test_batch_equals_batch_of_one(self, case):
        omega0 = inputs = None
        if case.startswith("input"):
            prog, inputs = gallery.conditioned_step_program(), [case[-1]]
        elif case == "merge_split":
            prog = gallery.merge_split_program()
        else:
            prog, omega0 = rand3_program()
        compiled = compile_program(prog)
        n = 2500  # crosses two batch boundaries
        assert n > 2 * BATCH_SIZE
        batch = run_trajectories(prog, n, seed=19, omega0=omega0, inputs=inputs,
                                 store_states=True, compiled=compiled)
        assert len(batch) == n
        for i, traj in enumerate(batch):
            solo = run_trajectory(prog, omega0, inputs, seed=19, index=i, store_states=True,
                                  compiled=compiled)
            assert_same_trajectory(traj, solo)

    @pytest.mark.parametrize("case", ["input1", "rand3"])
    def test_batches_over_a_range_equal_run_trajectories(self, case, monkeypatch):
        """A range that starts mid-stream and crosses batch boundaries; its
        last batch has one row."""
        omega0 = inputs = None
        if case == "rand3":
            prog, omega0 = rand3_program()
        else:
            prog, inputs = gallery.conditioned_step_program(), ["1"]
        compiled = compile_program(prog)
        want = run_trajectories(prog, 30, seed=19, omega0=omega0, inputs=inputs,
                                store_states=True, compiled=compiled)[5:]
        whole, = engine.sample_batches(prog, range(30), 19, omega0=omega0, inputs=inputs,
                                       compiled=compiled)
        monkeypatch.setattr(engine, "BATCH_SIZE", 8)
        batches = list(engine.sample_batches(prog, range(5, 30), 19, omega0=omega0, inputs=inputs,
                                             store_states=True, compiled=compiled))
        assert [(b.start, len(b.path)) for b in batches] == [(5, 8), (13, 8), (21, 8), (29, 1)]
        labels = engine._history_labels(engine._walk(compiled), tuple, lambda k: list)
        rows = [(b, r, keys[p]) for b in batches
                for keys in [labels(b.events, b.free)] for r, p in enumerate(b.path)]
        assert len(rows) == len(want)
        for (b, r, key), traj in zip(rows, want):
            assert b.start + r == traj.index
            assert list(key) == traj.outcome_items()
            for record in ("events", "free"):
                assert np.array_equal(getattr(b, record)[b.path[r]],
                                      getattr(whole, record)[whole.path[traj.index]])
            assert b.probability[r] == traj.probability
            assert b.states[-1][r].tobytes() == traj.final_state.tobytes()
            for t, step in enumerate(traj.steps):
                assert b.weights[t][r] == step.weight
                assert b.states[t][r].tobytes() == step.state.tobytes()

    @pytest.mark.parametrize("indices", [range(0, 10, 2), range(-1, 3), range(2 ** 64, 2 ** 64 + 1)])
    def test_batches_refuse_a_bad_range(self, indices):
        prog = gallery.conditioned_step_program()
        with pytest.raises(EngineError, match=r"a range of step 1 in 0 \.\. 2\*\*64, got range"):
            engine.sample_batches(prog, indices, compiled=compile_program(prog))

    def test_index_bounds(self):
        prog = gallery.conditioned_step_program()
        last = run_trajectory(prog, seed=3, index=2 ** 64 - 1)
        assert last.index == 2 ** 64 - 1
        with pytest.raises(EngineError, match="trajectory indices must be"):
            run_trajectory(prog, seed=3, index=-1)
        assert run_trajectories(prog, -1) == []

    @pytest.mark.parametrize("inputs", [["0"], ["1"]])
    def test_tensor_path_matches_fast_path(self, inputs, monkeypatch):
        prog = gallery.conditioned_step_program()
        fast = run_trajectories(prog, 1500, seed=4, inputs=inputs, store_states=True)
        monkeypatch.setattr(engine, "FAST_PATH_MAX_DIM", 1)
        tensor = compile_program(prog)
        assert not any(plan.fast for step in tensor for plan in step.slices)
        slow = run_trajectories(prog, 1500, seed=4, inputs=inputs, store_states=True,
                                compiled=tensor)
        for f, s in zip(fast, slow):
            assert f.outcome_items() == s.outcome_items()
            assert abs(f.probability - s.probability) < 1e-12
            assert np.abs(f.final_state - s.final_state).max() < 1e-12
        for i in (0, 1023, 1024, 1499):
            solo = run_trajectory(prog, None, inputs, seed=4, index=i, store_states=True,
                                  compiled=tensor)
            assert_same_trajectory(slow[i], solo)

    @pytest.mark.parametrize("unitary_first", [True, False])
    def test_big_leaf_batch_equals_solo(self, unitary_first):
        """A real d = 512 leaf, no monkeypatching: the tensor path in a batch
        against one row at a time, bit for bit, with at least two rows in
        each key group, and every sampled key a key of the exact law."""
        prog, omega0 = big_leaf_program(unitary_first)
        compiled = compile_program(prog)
        step, = compiled
        assert not any(plan.fast for plan in step.slices)
        runs_first = step.layout.circuit.nodes[step.slices[0].node_indices[0]].label
        assert runs_first == ("u1" if unitary_first else "m0")
        batch = run_trajectories(prog, 48, seed=2, omega0=omega0, store_states=True,
                                 compiled=compiled)
        # slice 1's key groups: c's admissible events follow m0's outcome
        groups = Counter(t.steps[0].outcomes["m0"] for t in batch)
        assert set(groups) == {"0", "1"} and min(groups.values()) >= 2, groups
        assert [len(plan.branches) for plan in step.slices] == [1, 2]
        for i, traj in enumerate(batch):
            solo = run_trajectory(prog, omega0, seed=2, index=i, store_states=True,
                                  compiled=compiled)
            assert_same_trajectory(traj, solo)
        law = dict(enumerate_histories(prog, omega0))
        # slice 0 has 8 candidates; c has 2 events after the 4 with m0 = 0, 1 after the others
        assert len(law) == 4 * 2 + 4 * 1
        for traj in batch:
            key = tuple(traj.outcome_items())
            assert key in law and abs(traj.probability - law[key]) <= 1e-12, key

    def test_tensor_path_applies_each_event_once_per_key(self, monkeypatch):
        """The tensor path walks a slice node by node: within one key group,
        a node's event is applied once, to every row that fires it, not
        once per candidate of the slice."""
        monkeypatch.setattr(engine, "FAST_PATH_MAX_DIM", 1)
        prog = gallery.conditioned_step_program()
        compiled = compile_program(prog)
        step, = compiled
        assert not any(plan.fast for plan in step.slices)
        kernel, applied = engine._apply_slice, Counter()

        def counted(state, order, lay, node_indices, events):
            applied.update((i, events[i]) for i in node_indices)
            return kernel(state, order, lay, node_indices, events)

        monkeypatch.setattr(engine, "_apply_slice", counted)
        batch, = engine.sample_batches(prog, range(1000), 5, inputs=["1"], compiled=compiled)
        groups = {i: len(plan.branches) for plan in step.slices for i in plan.node_indices}
        assert [len(plan.branches) for plan in step.slices] == [1, 2, 1, 2]
        assert applied and all(count <= groups[i] for (i, _), count in applied.items()), applied
        # a whole-candidate walk would apply every node once per candidate
        candidates = sum(len(b.events) * len(plan.node_indices)
                         for plan in step.slices for b in plan.branches.values())
        assert sum(applied.values()) < candidates

    @pytest.mark.parametrize("fast_dim", [256, 1])
    def test_zero_support_on_one_row(self, fast_dim, monkeypatch):
        monkeypatch.setattr(engine, "FAST_PATH_MAX_DIM", fast_dim)
        prog = zero_branch_program(np.outer([1, 0], [1, 0]).astype(complex))
        compiled = compile_program(prog)
        assert all(plan.fast == (fast_dim > 1) for plan in compiled[0].slices)
        message = "all outcome branches of a slice have zero weight"
        run_trajectories(prog, RARE_INDEX, seed=RARE_SEED, omega0=RARE_ONE, compiled=compiled)
        with pytest.raises(EngineError, match=message):
            run_trajectory(prog, RARE_ONE, seed=RARE_SEED, index=RARE_INDEX, compiled=compiled)
        with pytest.raises(EngineError, match=message):
            run_trajectories(prog, 1000, seed=RARE_SEED, omega0=RARE_ONE, compiled=compiled)

    @pytest.mark.parametrize("fast_dim", [256, 1])
    def test_inconsistent_deterministic_slice_on_one_row(self, fast_dim, monkeypatch):
        # Every valid circuit conserves the weight of a deterministic slice,
        # so every (node, subset) pair is recorded deterministic here; the
        # branch after outcome 1 keeps weight 1/4.
        monkeypatch.setattr(engine, "FAST_PATH_MAX_DIM", fast_dim)
        prog = zero_branch_program(0.5 * np.eye(2, dtype=complex))
        compiled = compile_program(prog)
        assert all(plan.fast == (fast_dim > 1) for plan in compiled[0].slices)
        lay = compiled[0].layout
        assert lay.deterministic == {(0, (0, 1)), (1, (0,))}
        # As recorded, the slice after outcome 1 is not deterministic and samples.
        assert len(run_trajectories(prog, 1000, seed=RARE_SEED, omega0=RARE_ONE)) == 1000
        lay.deterministic = frozenset({(0, (0, 1)), (1, (0,)), (1, (1,))})
        message = (r"slice outcome weights sum to 0\.250000000 for a deterministic test "
                   r"\(inconsistent events\)")
        run_trajectories(prog, RARE_INDEX, seed=RARE_SEED, omega0=RARE_ONE, compiled=compiled)
        with pytest.raises(EngineError, match=message):
            run_trajectory(prog, RARE_ONE, seed=RARE_SEED, index=RARE_INDEX, compiled=compiled)
        with pytest.raises(EngineError, match=message):
            run_trajectories(prog, 1000, seed=RARE_SEED, omega0=RARE_ONE, compiled=compiled)

    def test_slice_total_names_the_first_failing_row(self):
        weights = np.array([[0.5, 0.5], [np.nan, 0.0], [0.2, 0.3], [0.1, 0.1]])
        deterministic = engine._Branches([], deterministic=True)
        with pytest.raises(EngineError, match=r"weights sum to 0\.500000000 for a deterministic"):
            engine._check_slice_total(deterministic, weights)
        engine._check_slice_total(deterministic, weights[:2])  # a NaN total passes
        engine._check_slice_total(engine._Branches([], deterministic=False), weights)

    def test_one_fast_contraction_per_context_key(self, monkeypatch):
        """Rows are grouped by context key, not by path: each key a batch
        meets is contracted once, however many paths share it."""
        prog = gallery.conditioned_step_program()
        compiled = compile_program(prog)
        contract, stacks = engine._contract_rows, []

        def counted(x, stacked):
            stacks.append(stacked)
            return contract(x, stacked)

        monkeypatch.setattr(engine, "_contract_rows", counted)
        batch, = engine.sample_batches(prog, range(1000), 5, inputs=["1"], compiled=compiled)
        step, = compiled
        assert all(plan.fast for plan in step.slices)
        keyed = [b.stacked for plan in step.slices for b in plan.branches.values()]
        assert sorted(map(id, stacks)) == sorted(map(id, keyed))
        assert [len(plan.branches) for plan in step.slices] == [1, 2, 1, 2]
        # the paths that enter each slice
        columns = np.cumsum([len(plan.node_indices) for plan in step.slices])[:-1].tolist()
        rows = batch.events[batch.path].tolist()
        assert [len({tuple(r[:a]) for r in rows}) for a in [0, *columns]] == [1, 4, 8, 8]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    @pytest.mark.parametrize("count", [1, 4, 5, 13])
    @pytest.mark.parametrize("n", [1, 2, 1024])
    def test_uniforms_equal_generator_streams(self, seed, count, n):
        start = 3000
        expected = np.array([trajectory_rng(seed, start + i).random(count) for i in range(n)])
        assert np.array_equal(_trajectory_uniforms(seed, start, n, count), expected)

    def test_cold_plan_shared_between_threads(self):
        prog = gallery.conditioned_step_program()
        serial = run_trajectories(prog, 1500, seed=8, store_states=True)
        shared = compile_program(prog)  # never run before the threads start
        results = [None] * 4  # more threads than cores
        barrier = threading.Barrier(len(results))

        def work(k):
            barrier.wait()
            results[k] = run_trajectories(prog, 1500, seed=8, store_states=True, compiled=shared)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for result in results:
            assert len(result) == len(serial)
            for a, b in zip(result, serial):
                assert_same_trajectory(a, b)


def test_gemm_rows_keep_their_bits():
    """The BLAS property that one gemm per context key relies on: a row's
    bits do not depend on which other rows share the product. For every
    d_in and k * d_out from 1 to 256, subsets of 2, 3, 5, 37 and n - 1 rows,
    and a single row, which ``_contract_rows`` pads to two, equal the rows
    of the full product bit for bit. A BLAS build without the property fails
    here, instead of making a sampled trajectory depend on its batch."""
    n = 39
    rng = np.random.default_rng(256)
    x_all = rng.normal(size=(n, 256)) + 1j * rng.normal(size=(n, 256))
    ops_all = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    subsets = [[7, 30], [3, 17, 30], [0, 9, 11, 25, 38], list(range(1, 38)), list(range(n - 1)),
               [20]]
    for d_in in range(1, 257):
        x = np.ascontiguousarray(x_all[:, :d_in])
        for kd in range(1, 257):
            stacked = np.ascontiguousarray(ops_all[:kd, :d_in]).reshape(1, 1, kd, d_in)
            full = engine._contract_rows(x, stacked)
            for rows in subsets:
                part = engine._contract_rows(x[rows], stacked)
                assert part.tobytes() == full[rows].tobytes(), (d_in, kd, len(rows))
