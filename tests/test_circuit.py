import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onticsim import gallery
from _helpers import graph_cases
from onticsim.circuit import (
    INPUT_SOURCE,
    Circuit,
    CircuitError,
    Condition,
    Event,
    System,
    TestNode,
    WireInfo,
    WireSpec,
    _topo_sort,
    circuit_from_dict,
    circuit_to_dict,
    compose_parallel,
    compose_sequential,
    connected_components,
    layout,
    parse_circuit,
    serialize_circuit,
    validate_dag,
)
from onticsim.dsl import DslError, parse_dsl
from onticsim.linalg import haar_state, haar_unitary
from onticsim.quantum import (
    COMPLETENESS_TOL,
    KrausSet,
    SignatureError,
    gram_identity_defect,
    unitary_kraus,
)
from onticsim.random_circuits import random_circuit

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def single_prepare_measure() -> Circuit:
    systems = {"A": System("A", 2)}
    nodes = [
        TestNode("prep", (), ("A",), (Event("0", (np.array([[1], [0]], dtype=complex),)),)),
        TestNode("eff", ("A",), (), (
            Event("0", (np.array([[1, 0]], dtype=complex),)),
            Event("1", (np.array([[0, 1]], dtype=complex),)),
        )),
    ]
    return Circuit("pm", systems, nodes, [WireSpec("prep", 0, "eff", 0)], closed=True)


class TestValidate:
    def test_two_node_closed_ok(self):
        report = validate_dag(single_prepare_measure())
        assert report.ok and report.is_closed

    def test_self_loop_is_cycle(self):
        systems = {"A": System("A", 2)}
        loop = TestNode("u", ("A",), ("A",), (Event("0", (np.eye(2, dtype=complex),)),))
        c = Circuit("loop", systems, [loop], [WireSpec("u", 0, "u", 0)])
        report = validate_dag(c)
        assert not report.ok
        assert any("cycle" in e for e in report.errors)
        assert report.topo_order is None

    def test_dimension_mismatch(self):
        systems = {"A": System("A", 2), "B": System("B", 3)}
        nodes = [
            TestNode("p", (), ("A",), (Event("0", (np.array([[1], [0]], dtype=complex),)),)),
            TestNode("e", ("B",), (), (Event("0", (np.ones((1, 3), dtype=complex) / np.sqrt(3),)),)),
        ]
        c = Circuit("bad", systems, nodes, [WireSpec("p", 0, "e", 0)])
        report = validate_dag(c)
        assert any("dimension mismatch" in e for e in report.errors)

    def test_declared_closed_with_dangling(self):
        c = single_prepare_measure()
        c.wires = []
        c.closed = True
        report = validate_dag(c)
        assert any("dangling" in e for e in report.errors)

    def test_trace_increasing_node(self):
        systems = {"A": System("A", 2)}
        nodes = [TestNode("bad", ("A",), ("A",), (Event("0", (2 * np.eye(2, dtype=complex),)),))]
        report = validate_dag(Circuit("ti", systems, nodes, []))
        assert any("trace-increasing" in e for e in report.errors)

    # d = 4 takes the dense eigvalsh, d = 257 the Lanczos recurrence.
    @pytest.mark.parametrize("dim", [4, 257])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(entry=st.one_of(st.floats(), st.complex_numbers()).filter(lambda x: not abs(x) <= 2))
    @example(entry=1e308)
    @example(entry=float("nan"))
    @example(entry=float("-inf"))
    @example(entry=complex(0.0, 1e308))
    def test_non_finite_gram_invalidates_the_node(self, dim, entry):
        k = np.eye(dim, dtype=complex)
        k[0, 0] = entry
        node = TestNode("k", ("A",), ("A",), (Event("0", (k,)),))
        report = validate_dag(Circuit("big", {"A": System("A", dim)}, [node], []))
        assert not report.ok
        # NaN, an infinity, or an entry whose square overflows every G q.
        if not abs(entry) < 1e300:
            assert report.errors == ["node 'k': sum K^dag K is not finite "
                                     "(a non-finite or overflowing operator entry)"]

    def test_overflowing_entry_of_a_program_node(self):
        circuit = gallery.conditioned_step_program().steps[0].circuit
        r = circuit.node("R")
        k = r.events[0].operators[0].copy()
        k[0, 0] = 1e308
        nodes = [TestNode(n.label, n.inputs, n.outputs, (Event("0", (k,)),), n.condition)
                 if n is r else n for n in circuit.nodes]
        report = validate_dag(Circuit(circuit.name, circuit.systems, nodes, circuit.wires))
        assert not report.ok
        assert any("'R'" in e and "not finite" in e for e in report.errors)

    def test_condition_map_must_cover_source(self):
        base = gallery.conditioned_step()
        psi = base.node("psi")
        broken = TestNode(psi.label, psi.inputs, psi.outputs, psi.events,
                          Condition("alpha", {"0": (0,)}))
        nodes = [broken if n.label == "psi" else n for n in base.nodes]
        report = validate_dag(Circuit(base.name, base.systems, nodes, base.wires))
        assert any("misses source outcomes" in e for e in report.errors)

    def test_nine_node_example_valid_and_ordered(self):
        c = gallery.conditioned_step()
        report = validate_dag(c)
        assert report.ok
        lay = layout(c)
        order = [c.nodes[i].label for i in lay.topo_order]
        assert order == ["alpha", "psi", "E", "R", "V", "A", "B", "C", "Lambda"]
        assert not report.is_closed  # open boundary ABC -> M

    def test_closed_variant_is_closed(self):
        report = validate_dag(gallery.conditioned_step_closed())
        assert report.ok and report.is_closed


def sorting_kahn(n: int, edges: list[tuple[int, int]]) -> list[int] | None:
    """Kahn's algorithm that re-sorts its ready list after every pop."""
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in edges:
        succs[a].append(b)
        indeg[b] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        freed = []
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                freed.append(j)
        ready = sorted(ready + freed)
    return order if len(order) == n else None


def scanning_layout(circuit: Circuit) -> dict:
    """The layout fields built without validation's graph: a label index of
    its own, a scan of every wire for each input port, and a sort of an
    edge list rebuilt from the resolved wires."""
    index = {n.label: i for i, n in enumerate(circuit.nodes)}
    node_in = [[None] * len(n.inputs) for n in circuit.nodes]
    node_out = [[None] * len(n.outputs) for n in circuit.nodes]
    wires: list[WireInfo] = []

    def add_wire(system: str, src, dst) -> int:
        s = circuit.systems[system]
        wires.append(WireInfo(len(wires), system, s.dim, s.theory, src, dst))
        return len(wires) - 1

    input_wires, output_wires = [], []
    for i, n in enumerate(circuit.nodes):
        for p, s in enumerate(n.inputs):
            if not any(w.to_node == n.label and w.to_port == p for w in circuit.wires):
                node_in[i][p] = add_wire(s, None, (i, p))
                input_wires.append(node_in[i][p])
    for w in sorted(circuit.wires, key=lambda w: (index[w.from_node], w.from_port)):
        fi, ti = index[w.from_node], index[w.to_node]
        wi = add_wire(circuit.nodes[fi].outputs[w.from_port], (fi, w.from_port), (ti, w.to_port))
        node_out[fi][w.from_port] = wi
        node_in[ti][w.to_port] = wi
    for i, n in enumerate(circuit.nodes):
        for p, s in enumerate(n.outputs):
            if node_out[i][p] is None:
                node_out[i][p] = add_wire(s, (i, p), None)
                output_wires.append(node_out[i][p])
    edges = [(w.src[0], w.dst[0]) for w in wires if w.src and w.dst]
    preds: list[set[int]] = [set() for _ in circuit.nodes]
    for a, b in edges:
        preds[b].add(a)
    for n in circuit.nodes:
        if n.condition and n.condition.source != INPUT_SOURCE:
            a, b = index[n.condition.source], index[n.label]
            preds[b].add(a)
            edges.append((a, b))
    return {"wires": wires, "node_in_wires": node_in, "node_out_wires": node_out,
            "input_wires": input_wires, "output_wires": output_wires,
            "topo_order": sorting_kahn(len(circuit.nodes), edges), "predecessors": preds}


class TestLayoutOracle:
    def test_layout_equals_scanning_layout(self):
        for c in graph_cases():
            lay, ref = layout(c), scanning_layout(c)
            assert {key: getattr(lay, key) for key in ref} == ref, c.name

    def test_topo_sort_equals_sorting_kahn(self):
        """Random graphs with parallel edges, most acyclic, some cyclic."""
        rng = np.random.default_rng(5)
        cyclic = 0
        for _ in range(300):
            n = int(rng.integers(1, 30))
            rank = rng.permutation(n)  # edges run forward in this hidden order
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
            edges = [(int(rank[a]), int(rank[b])) for a, b in pairs
                     if a < b or rng.random() < 0.01]
            preds = [set() for _ in range(n)]
            for a, b in edges:
                preds[b].add(a)
            order = sorting_kahn(n, edges)
            cyclic += order is None
            assert _topo_sort(preds) == order
        assert 0 < cyclic < 100


def oracle_verdicts(circuit: Circuit) -> dict[tuple[int, tuple[int, ...]], bool]:
    """Whether ``gram_identity_defect`` finds each (node, admissible event
    subset) pair deterministic."""
    verdicts = {}
    for i, n in enumerate(circuit.nodes):
        subsets = n.condition.outcome_map.values() if n.condition else [tuple(range(len(n.events)))]
        for idxs in subsets:
            ops = [k for j in idxs for k in n.events[j].operators]
            verdicts[(i, idxs)] = gram_identity_defect(ops) <= COMPLETENESS_TOL
    return verdicts


def scaled(circuit: Circuit, label: str, scale) -> Circuit:
    """The circuit with every operator of node ``label`` multiplied on the
    right by ``scale`` (a number or a diagonal given as a vector)."""
    nodes = [
        TestNode(n.label, n.inputs, n.outputs,
                 tuple(Event(e.outcome, tuple(k * scale for k in e.operators)) for e in n.events),
                 n.condition) if n.label == label else n
        for n in circuit.nodes
    ]
    return Circuit(circuit.name, circuit.systems, nodes, circuit.wires, circuit.closed)


class TestDeterminismRecord:
    def test_recorded_verdicts_match_the_oracle(self):
        rng = np.random.default_rng(12)
        circuits = [gallery.conditioned_step(), gallery.conditioned_step_closed(),
                    gallery.bell_pair(), gallery.bloch_axes()]
        circuits += [step.circuit for prog in (gallery.conditioned_step_program(),
                                               gallery.merge_split_program()) for step in prog.steps]
        randoms = [random_circuit(rng) for _ in range(20)]
        circuits += randoms
        # Random circuits are complete; shrinking a node's gram by 1e-6 breaks
        # that, by 1e-10 stays within the tolerance.
        for c in randoms:
            label = c.nodes[int(rng.integers(len(c.nodes)))].label
            circuits += [scaled(c, label, np.sqrt(1 - excess)) for excess in (1e-6, 1e-10)]
        # One node at d = 512, where Lanczos decides: unitary, shrunk
        # everywhere, and shrunk along one direction only.
        d = 512
        one = Circuit("u", {"R": System("R", d)},
                      [TestNode("u", ("R",), ("R",), (Event("0", (haar_unitary(d, rng),)),))], [])
        direction = np.ones(d)
        direction[0] = np.sqrt(1 - 1e-6)
        circuits += [one, scaled(one, "u", np.sqrt(1 - 1e-6)), scaled(one, "u", direction)]
        verdicts = []
        for c in circuits:
            report = validate_dag(c)
            assert report.ok
            oracle = oracle_verdicts(c)
            assert report.deterministic == {pair for pair, ok in oracle.items() if ok}
            assert layout(c).deterministic == report.deterministic
            verdicts += oracle.values()
        assert verdicts.count(False) >= 20 and verdicts.count(True) >= 100


class TestParse:
    def test_parse_single_node_json(self):
        text = serialize_circuit(single_prepare_measure())
        c = parse_circuit(text)
        assert [n.label for n in c.nodes] == ["prep", "eff"]

    def test_json_syntax_error_reports_position(self):
        with pytest.raises(CircuitError, match=r"line \d+"):
            parse_circuit("{\n  broken")

    def test_unknown_system(self):
        doc = circuit_to_dict(single_prepare_measure())
        doc["nodes"][0]["outputs"] = ["Z"]
        with pytest.raises(CircuitError, match="unknown system"):
            parse_circuit(json.dumps(doc))

    def test_dimension_mismatch_raises(self):
        doc = circuit_to_dict(single_prepare_measure())
        doc["systems"].append({"label": "B", "dim": 3, "theory": "quantum"})
        doc["nodes"][1]["inputs"] = ["B"]
        doc["nodes"][1]["events"] = [
            {"outcome": "0", "kraus": [[[[1, 0], [0, 0], [0, 0]]]]}
        ]
        with pytest.raises(CircuitError, match="dimension mismatch|shape"):
            parse_circuit(json.dumps(doc))

    def test_round_trip_byte_stable(self):
        c = gallery.conditioned_step()
        text1 = serialize_circuit(c)
        text2 = serialize_circuit(parse_circuit(text1))
        assert text1 == text2

    def test_nine_node_round_trip_preserves_structure(self):
        c = gallery.conditioned_step()
        c2 = circuit_from_dict(circuit_to_dict(c))
        assert [n.label for n in c2.nodes] == [n.label for n in c.nodes]
        assert c2.node("Lambda").condition.outcome_map == {"0": (0, 1, 2, 3), "1": (4, 5, 6, 7)}
        for n in c.nodes:
            for e1, e2 in zip(n.events, c2.node(n.label).events):
                assert e1.outcome == e2.outcome
                for k1, k2 in zip(e1.operators, e2.operators):
                    assert np.allclose(k1, k2, atol=0)


class TestDsl:
    def test_bell_pair_dsl_desugars_to_json_builder(self):
        c = parse_circuit(gallery.BELL_PAIR_DSL)
        ref = gallery.bell_pair()
        assert [n.label for n in c.nodes] == [n.label for n in ref.nodes]
        assert c.closed
        got = c.node("pair").events[0].operators[0]
        want = ref.node("pair").events[0].operators[0]
        assert np.allclose(got, want, atol=1e-12)

    def test_dsl_gates_and_cond(self):
        text = """
circuit demo
sys A : q2
sys B : q2
node m : A -> A = measure
node u : B -> B = kraus(0: [[1,0],[0,1]]; 1: [[0,1],[1,0]])
cond u on m
"""
        c = parse_circuit(text)
        assert c.node("u").condition.source == "m"
        assert c.node("u").condition.outcome_map == {"0": (0,), "1": (1,)}

    def test_dsl_unitary_names(self):
        c = parse_dsl("circuit g\nsys A : q2\nnode h : A -> A = unitary(H)\n")
        assert np.allclose(c.node("h").events[0].operators[0], H)

    def test_dsl_complex_literals(self):
        c = parse_dsl(
            "circuit x\nsys A : q2\nnode p : -> A = state([0.6, 0.8j])\n"
        )
        v = c.node("p").events[0].operators[0].ravel()
        assert np.allclose(v, [0.6, 0.8j])

    def test_dsl_error_carries_line_number(self):
        with pytest.raises(DslError, match="line 3"):
            parse_dsl("circuit x\nsys A : q2\nnode broken\n")

    def test_dsl_unknown_system(self):
        with pytest.raises(DslError, match="unknown system"):
            parse_dsl("circuit x\nnode p : -> A = state(0)\n")

    def test_dsl_dimension_is_decimal(self):
        with pytest.raises(DslError, match="line 2: bad system kind"):
            parse_dsl("circuit x\nsys A : q\N{SUPERSCRIPT TWO}\n")

    @pytest.mark.parametrize("index", ["-1", "2"])
    def test_dsl_basis_index_in_range(self, index):
        with pytest.raises(DslError, match="line 3: bad basis index"):
            parse_dsl(f"circuit x\nsys A : q2\nnode p : -> A = state({index})\n")

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_dsl_basis_operators(self, d):
        """``effect`` reads each basis vector and ``measure`` projects onto
        it, with exact 0s and 1s."""
        c = parse_dsl(f"circuit b\nsys A : q{d}\nnode m : A -> A = measure\n"
                      "node e : A -> = effect\nwire m.0 -> e.0\n")
        eye = np.eye(d)
        for j in range(d):
            assert np.array_equal(c.node("m").events[j].operators[0], np.outer(eye[j], eye[j]))
            assert np.array_equal(c.node("e").events[j].operators[0], eye[j].reshape(1, -1))

    def test_dsl_effect_holds_only_its_operators(self):
        """Each outcome's operator is an array of its own: 128 rows of 128
        complex entries are 0.25 MiB, where row views of one identity per
        outcome kept 32 MiB alive."""
        text = "circuit e\nsys A : q128\nnode m : A -> = effect\n"
        parse_dsl(text)  # first use: imports and caches
        tracemalloc.start()
        try:
            circuit = parse_dsl(text)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        operators = sum(e.operators[0].nbytes for e in circuit.node("m").events)
        assert operators == 128 * 128 * 16
        assert held < 2 * operators, held

    @pytest.mark.parametrize("sig,d", [
        ("A -> A = measure", 257), ("A -> = effect", 4097), ("-> A = state(0)", 4096 ** 2 + 1),
    ])
    def test_dsl_refuses_oversized_operators_before_allocating(self, sig, d):
        """``measure`` holds d**3 entries, ``effect`` d**2 and ``state(j)``
        d: each one past 4096**2 is refused with its line, not built."""
        text = f"circuit big\nsys A : q{d}\nnode n : {sig}\n"
        with pytest.raises(DslError, match="line 3: .* more than the cap of 16777216"):
            parse_dsl(text)  # first use: imports and caches
        tracemalloc.start()
        try:
            with pytest.raises(DslError):
                parse_dsl(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        small = parse_dsl(f"circuit small\nsys A : q16\nnode n : {sig}\n")
        assert small.node("n").events

    def test_dsl_wire_and_effect(self):
        text = """
circuit w closed
sys A : q2
node p : -> A = state(0)
node e : A -> = effect
wire p.0 -> e.0
"""
        assert validate_dag(parse_circuit(text)).is_closed


class TestCompose:
    def test_h_then_h_is_identity(self):
        hh = compose_sequential(unitary_kraus(H), unitary_kraus(H))
        assert hh.is_atomic
        assert np.allclose(hh.operators[0], np.eye(2), atol=1e-12)

    def test_atomicity_preserved(self):
        rng = np.random.default_rng(0)
        a = unitary_kraus(haar_unitary(3, rng))
        b = unitary_kraus(haar_unitary(3, rng))
        assert compose_sequential(a, b).is_atomic
        assert compose_parallel(a, b).is_atomic

    def test_sequential_matches_apply_then_apply_oracle(self):
        rng = np.random.default_rng(1)

        def random_kraus(d, n):
            z = rng.normal(size=(d * n, d)) + 1j * rng.normal(size=(d * n, d))
            q, _ = np.linalg.qr(z)
            return KrausSet(tuple(q[i * d:(i + 1) * d] for i in range(n)))

        t1, t2 = random_kraus(3, 2), random_kraus(3, 3)
        composed = compose_sequential(t1, t2)
        for _ in range(20):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            step = sum(k @ rho @ k.conj().T for k in t1.operators)
            step = sum(k @ step @ k.conj().T for k in t2.operators)
            direct = sum(k @ rho @ k.conj().T for k in composed.operators)
            assert np.allclose(step, direct, atol=1e-11)

    def test_labels_join_and_clash(self):
        eye = np.eye(2, dtype=complex)
        a, b = KrausSet((eye, eye), ("a", "a>b")), KrausSet((eye, eye), ("b>c", "c"))
        u = unitary_kraus(eye)
        assert compose_sequential(u, a).outcome_labels == ("a", "a>b")
        assert compose_parallel(a, u).outcome_labels == ("a", "a>b")
        assert compose_parallel(a, b).outcome_labels == ("a,b>c", "a,c", "a>b,b>c", "a>b,c")
        # "a>b" then "c" and "a" then "b>c" clash, so every label takes its position.
        assert compose_sequential(a, b).outcome_labels == (
            "0:a>b>c", "1:a>c", "2:a>b>b>c", "3:a>b>c")

    def test_sequential_signature_mismatch(self):
        with pytest.raises(SignatureError):
            compose_sequential(unitary_kraus(np.eye(2)), unitary_kraus(np.eye(3)))

    def test_parallel_identity(self):
        par = compose_parallel(unitary_kraus(np.eye(2)), unitary_kraus(np.eye(3)))
        assert np.allclose(par.operators[0], np.eye(6))
        assert par.in_dims == (2, 3)

    def test_parallel_mixed_arity(self):
        x = unitary_kraus(np.array([[0, 1], [1, 0]], dtype=complex))
        prep = KrausSet((np.array([[1], [0]], dtype=complex),))
        par = compose_parallel(x, prep)
        assert par.operators[0].shape == (4, 2)

    def test_parallel_dimension_overflow(self):
        from onticsim.linalg import DimensionError

        big = unitary_kraus(np.eye(64))
        with pytest.raises(DimensionError):
            compose_parallel(big, big, max_dim=512)

    def test_parallel_action_matches_factor_oracle(self):
        rng = np.random.default_rng(2)
        u, v = haar_unitary(2, rng), haar_unitary(3, rng)
        par = compose_parallel(unitary_kraus(u), unitary_kraus(v))
        a, b = haar_state(2, rng), haar_state(3, rng)
        got = par.operators[0] @ np.kron(a, b)
        assert np.allclose(got, np.kron(u @ a, v @ b), atol=1e-12)


class TestComponents:
    def test_two_disjoint_pairs(self):
        systems = {"A": System("A", 2), "B": System("B", 2)}
        prep = lambda lbl, s: TestNode(lbl, (), (s,), (Event("0", (np.array([[1], [0]], dtype=complex),)),))
        eff = lambda lbl, s: TestNode(lbl, (s,), (), (
            Event("0", (np.array([[1, 0]], dtype=complex),)),
            Event("1", (np.array([[0, 1]], dtype=complex),)),
        ))
        c = Circuit(
            "two", systems,
            [prep("p1", "A"), eff("e1", "A"), prep("p2", "B"), eff("e2", "B")],
            [WireSpec("p1", 0, "e1", 0), WireSpec("p2", 0, "e2", 0)],
            closed=True,
        )
        comps = connected_components(c)
        assert [sorted(g) for g in comps] == [["e1", "p1"], ["e2", "p2"]]

    def test_nine_node_is_single_component(self):
        assert len(connected_components(gallery.conditioned_step())) == 1

    def test_matches_union_find_oracle_on_random_circuits(self):
        from onticsim.random_circuits import random_circuit

        rng = np.random.default_rng(77)
        for _ in range(10):
            c = random_circuit(rng)
            comps = connected_components(c)
            # oracle: repeated merging over an explicit adjacency list
            adj = {n.label: set() for n in c.nodes}
            for w in c.wires:
                adj[w.from_node].add(w.to_node)
                adj[w.to_node].add(w.from_node)
            for n in c.nodes:
                if n.condition and n.condition.source != "@input":
                    adj[n.label].add(n.condition.source)
                    adj[n.condition.source].add(n.label)
            seen, groups = set(), []
            for start in adj:
                if start in seen:
                    continue
                stack, group = [start], set()
                while stack:
                    x = stack.pop()
                    if x in group:
                        continue
                    group.add(x)
                    stack.extend(adj[x] - group)
                seen |= group
                groups.append(group)
            assert sorted(map(sorted, comps)) == sorted(map(sorted, groups))
