from math import prod
from pathlib import Path

import numpy as np
import pytest

from _helpers import (DEEP_CHAIN, any_assignment, closed_chain, graph_cases, label_admissible_events,
                      slice_candidates)
from onticsim import engine, foliation, gallery
from onticsim.circuit import (
    INPUT_SOURCE,
    Circuit,
    Condition,
    Event,
    System,
    TestNode,
    WireSpec,
    layout,
)
from onticsim.foliation import (
    FoliationError,
    MissingOutcomeError,
    admissible_events,
    compile_history,
    compile_slice,
    foliate,
    resolve_assignment,
)
from onticsim.linalg import MAX_DIM, haar_state, haar_unitary
from onticsim.random_circuits import random_circuit

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"


def linear_chain(n=3):
    rng = np.random.default_rng(n)
    systems = {f"S{i}": System(f"S{i}", 2) for i in range(n + 1)}
    nodes = [
        TestNode(f"u{i}", (f"S{i}",), (f"S{i+1}",), (Event("0", (haar_unitary(2, rng),)),))
        for i in range(n)
    ]
    wires = [WireSpec(f"u{i}", 0, f"u{i+1}", 0) for i in range(n - 1)]
    return Circuit("chain", systems, nodes, wires)


class TestFoliate:
    @pytest.mark.parametrize("strategy", ["asap", "alap"])
    def test_linear_chain_has_one_slice_per_node(self, strategy):
        fol = foliate(linear_chain(3), strategy)
        assert len(fol.slices) == 3
        assert all(len(s) == 1 for s in fol.slices)

    def test_random_strategy_on_chain(self):
        fol = foliate(linear_chain(3), "random", rng=np.random.default_rng(0))
        assert sum(len(s) for s in fol.slices) == 3

    def test_asap_grouping_on_nine_node_circuit(self):
        """Eager scheduling groups the effect with its conditioned
        re-preparation in the first leaf."""
        fol = foliate(gallery.conditioned_step(), "asap")
        assert fol.slice_labels() == [
            ["alpha", "psi", "E"],
            ["R", "V"],
            ["A", "B", "C"],
            ["Lambda"],
        ]

    def test_alap_peels_first_effect(self):
        """Lazy scheduling keeps conditioning sources strictly earlier, so
        the initial effect gets a leaf of its own."""
        fol = foliate(gallery.conditioned_step(), "alap")
        assert fol.slice_labels()[0] == ["alpha"]
        assert fol.slice_labels()[1] == ["psi", "E"]
        assert ["Lambda"] not in fol.slice_labels()[:-1]

    def test_leaves_cover_wires(self):
        lay = layout(gallery.conditioned_step())
        fol = foliate(lay, "asap")
        covered = {w for leaf in fol.leaves for w in leaf}
        assert covered == {w.index for w in lay.wires}
        assert len(fol.leaves) == len(fol.slices) + 1

    def test_given_strategy_validates(self):
        c = gallery.conditioned_step()
        with pytest.raises(FoliationError):
            foliate(c, "given", slices=[["Lambda"], ["alpha", "psi", "E", "R", "V", "A", "B", "C"]])

    def test_given_strategy_partition_check(self):
        c = gallery.conditioned_step()
        with pytest.raises(FoliationError):
            foliate(c, "given", slices=[["alpha"]])

    def test_given_unknown_label(self):
        with pytest.raises(FoliationError, match="no node 'nope'"):
            foliate(gallery.conditioned_step(), "given", slices=[["nope"]])

    def test_given_conditioning_source_fires_after(self):
        with pytest.raises(FoliationError, match="conditioning source c1 fires after c0"):
            foliate(coin_chain(), "given", slices=[["c0"], ["c1", "c2", "c3"]])

    def test_unknown_outcome(self):
        fol = foliate(gallery.conditioned_step(), "asap")
        with pytest.raises(FoliationError, match="node 'alpha' has no outcome '7'"):
            compile_history(fol, {"alpha": "7", "E": "0", "V": "0", "Lambda": "0:0"})

    def test_unknown_label_in_outcomes(self):
        # A misspelt label is named, not dropped (nor reported as a missing
        # outcome of the node it was meant for).
        fol = foliate(gallery.conditioned_step(), "asap")
        outcomes = {"alpha": "0", "E": "0", "V": "0", "Lambda": "0:0", "Lamda": "1:1"}
        with pytest.raises(FoliationError, match="no node 'Lamda'"):
            compile_history(fol, outcomes)
        del outcomes["Lambda"]
        with pytest.raises(FoliationError, match="no node 'Lamda'"):
            resolve_assignment(fol.layout, outcomes)


def coin_chain() -> Circuit:
    """Four fair coins, each conditioned on the next in node order."""
    half = np.array([[np.sqrt(0.5)]])
    events = (Event("0", (half,)), Event("1", (half,)))
    coins = [TestNode(f"c{k}", (), (), events,
                      Condition(f"c{k + 1}", {"0": (0, 1), "1": (0, 1)}) if k < 3 else None)
             for k in range(4)]
    return Circuit("coins", {}, coins, [])


def _cond_source(lay, i: int) -> int | None:
    node = lay.circuit.nodes[i]
    if node.condition and node.condition.source != INPUT_SOURCE:
        return lay.circuit.node_index(node.condition.source)
    return None


def fixed_point_asap(lay) -> list[list[int]]:
    """Eager slices round by round: the nodes whose wire parents have all
    fired, closed under "fires with its conditioning source"."""
    nodes = lay.circuit.nodes
    wire_preds = [set() for _ in nodes]
    for w in lay.wires:
        if w.src and w.dst:
            wire_preds[w.dst[0]].add(w.src[0])
    fired: set[int] = set()
    slices: list[list[int]] = []
    while len(fired) < len(nodes):
        group = {
            i for i in range(len(nodes))
            if i not in fired and wire_preds[i] <= fired
            and (_cond_source(lay, i) is None or _cond_source(lay, i) in fired)
        }
        changed = True
        while changed:
            changed = False
            for i in range(len(nodes)):
                src = _cond_source(lay, i)
                if (i not in fired and i not in group and wire_preds[i] <= fired
                        and src is not None and src in group):
                    group.add(i)
                    changed = True
        assert group
        slices.append(sorted(group))
        fired |= group
    return slices


def recursive_alap(lay) -> list[list[int]]:
    """Lazy slices from each node's depth above the sinks, by recursion."""
    nodes = lay.circuit.nodes
    succs = [set() for _ in nodes]
    for w in lay.wires:
        if w.src and w.dst:
            succs[w.src[0]].add(w.dst[0])
    for i in range(len(nodes)):
        src = _cond_source(lay, i)
        if src is not None:
            succs[src].add(i)
    rev = [-1] * len(nodes)

    def depth(i: int) -> int:
        if rev[i] < 0:
            rev[i] = 1 + max((depth(j) for j in succs[i]), default=-1)
        return rev[i]

    for i in range(len(nodes)):
        depth(i)
    top = max(rev, default=0)
    slices: list[list[int]] = [[] for _ in range(top + 1)]
    for i, r in enumerate(rev):
        slices[top - r].append(i)
    return [grp for grp in slices if grp]


def scanning_random_slices(lay, rng) -> list[list[int]]:
    """A random linear extension cut at random, with the ready nodes found
    by a scan of every remaining node before each pick."""
    preds = [set(p) for p in lay.predecessors]
    remaining = set(range(len(lay.circuit.nodes)))
    order: list[int] = []
    while remaining:
        ready = sorted(i for i in remaining if preds[i] <= set(order))
        order.append(ready[int(rng.integers(len(ready)))])
        remaining.discard(order[-1])
    slices: list[list[int]] = [[]]
    for i in order:
        if slices[-1] and rng.random() < 0.5:
            slices.append([])
        slices[-1].append(i)
    return slices


def in_topo_order(lay, slices: list[list[int]]) -> list[list[int]]:
    """Each slice sorted by its nodes' rank in the layout's topological order."""
    rank = {i: r for r, i in enumerate(lay.topo_order)}
    return [sorted(grp, key=rank.get) for grp in slices]


def scanning_leaves(lay, slices: list[list[int]]) -> list[list[int]]:
    """Each cut's wires, by a scan of every wire per cut."""
    slice_of = {n: s for s, grp in enumerate(slices) for n in grp}
    fire = {w.index: (slice_of[w.src[0]] if w.src else -1) for w in lay.wires}
    consume = {w.index: (slice_of[w.dst[0]] if w.dst else len(slices)) for w in lay.wires}
    return [[w.index for w in lay.wires if fire[w.index] < i <= consume[w.index]]
            for i in range(len(slices) + 1)]


class TestSchedulingOracles:
    def test_slices_and_leaves_equal_the_oracles(self):
        for c in graph_cases():
            lay = layout(c)
            for strategy, oracle in (("asap", fixed_point_asap), ("alap", recursive_alap)):
                fol = foliate(lay, strategy)
                assert fol.slices == in_topo_order(lay, oracle(lay)), (c.name, strategy)
                assert fol.leaves == scanning_leaves(lay, fol.slices), (c.name, strategy)

    def test_conditioning_chain(self):
        """Each coin is conditioned on the next in node order: asap fires the
        whole chain in one slice, sources first, and alap one coin per slice."""
        lay = layout(coin_chain())
        assert fixed_point_asap(lay) == [[0, 1, 2, 3]]
        assert foliate(lay, "asap").slices == in_topo_order(lay, fixed_point_asap(lay)) == [[3, 2, 1, 0]]
        assert foliate(lay, "alap").slices == recursive_alap(lay) == [[3], [2], [1], [0]]

    def test_random_equals_the_scanning_oracle(self):
        """The same rng gives the oracle's slices and leaves it in the same
        state."""
        for k, c in enumerate(graph_cases()):
            lay = layout(c)
            for seed in range(3):
                rng, oracle_rng = np.random.default_rng([k, seed]), np.random.default_rng([k, seed])
                want = scanning_random_slices(lay, oracle_rng)
                assert foliation._random_slices(lay, rng) == want, (c.name, seed)
                assert rng.random() == oracle_rng.random()
                fol = foliate(lay, "random", rng=np.random.default_rng([k, seed]))
                assert fol.slices == in_topo_order(lay, want), (c.name, seed)


class TestRunOrder:
    """Every strategy lists each slice's nodes in the layout's topological
    order."""

    def test_every_strategy(self):
        for c in graph_cases():
            lay = layout(c)
            rank = {i: r for r, i in enumerate(lay.topo_order)}
            asap = foliate(lay, "asap")
            backwards = [labels[::-1] for labels in asap.slice_labels()]
            fols = [asap, foliate(lay, "alap"), foliate(lay, "given", slices=backwards)]
            fols += [foliate(lay, "random", rng=np.random.default_rng(seed)) for seed in range(4)]
            for fol in fols:
                for grp in fol.slices:
                    ranks = [rank[i] for i in grp]
                    assert ranks == sorted(ranks), (c.name, fol.strategy)
            assert fols[2].slices == asap.slices


def _lookup(fn, *args):
    """``fn(*args)``, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except FoliationError as exc:
        return type(exc), str(exc)


class TestConditionLookup:
    """``admissible_events`` reads the event index a source fired; the
    label-keyed lookup it replaced is the oracle."""

    def test_sources_equal_the_label_lookup(self):
        for c in graph_cases():
            lay = layout(c)
            assert lay.sources == [_cond_source(lay, i) for i in range(len(c.nodes))], c.name

    def test_equals_the_label_lookup(self):
        overlaps = unmapped = 0
        for c in graph_cases():
            lay = layout(c)
            for i, node in enumerate(c.nodes):
                source = lay.sources[i]
                fired = [None] if source is None else range(len(c.nodes[source].events))
                admitted = []
                for u in fired:
                    ev, known = {}, {}
                    if u is not None:
                        ev, known = {source: u}, {c.nodes[source].label: c.nodes[source].events[u].outcome}
                    for classical_input in ("0", "1", "7"):
                        got = _lookup(admissible_events, lay, i, ev, classical_input)
                        want = _lookup(label_admissible_events, node, known, classical_input)
                        assert got == want, (c.name, node.label, u, classical_input)
                        unmapped += isinstance(got[0], type)
                    if u is not None:
                        admitted += got
                overlaps += len(admitted) > len(set(admitted))
        assert overlaps >= 20  # one event admitted under two source outcomes
        assert unmapped > 0  # an @input node without an entry for "7"


class TestDeepChain:
    @pytest.fixture(scope="class")
    def lay(self):
        return layout(closed_chain(DEEP_CHAIN))

    def test_layout(self, lay):
        assert lay.topo_order == list(range(DEEP_CHAIN + 2))
        assert len(lay.wires) == DEEP_CHAIN + 1
        assert lay.input_wires == lay.output_wires == []

    @pytest.mark.parametrize("strategy", ["asap", "alap"])
    def test_one_slice_per_node(self, lay, strategy):
        fol = foliate(lay, strategy)
        assert fol.slices == [[i] for i in range(DEEP_CHAIN + 2)]
        assert fol.leaves == [[]] + [[w] for w in range(DEEP_CHAIN + 1)] + [[]]

    def test_random(self, lay):
        fol = foliate(lay, "random", rng=np.random.default_rng(5))
        assert [i for grp in fol.slices for i in grp] == list(range(DEEP_CHAIN + 2))
        assert 1 < len(fol.slices) < DEEP_CHAIN + 2
        assert fol.leaves == scanning_leaves(lay, fol.slices)

    def test_compile_history(self, lay):
        asap = compile_history(foliate(lay, "asap"), {"m": "0"})
        rand = compile_history(foliate(lay, "random", rng=np.random.default_rng(5)), {"m": "0"})
        assert asap.factor_count == DEEP_CHAIN + 2
        assert asap.operator.shape == rand.operator.shape == (1, 1)
        assert np.abs(asap.operator - rand.operator).max() < 1e-10


class TestCompileSlice:
    def test_identity_padding_with_unitary(self):
        rng = np.random.default_rng(1)
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        systems = {lbl: System(lbl, 2) for lbl in ("A", "B", "A2", "B2")}
        nodes = [
            TestNode("u", ("A",), ("A2",), (Event("0", (u,)),)),
            TestNode("v", ("B",), ("B2",), (Event("0", (v,)),)),
        ]
        c = Circuit("pad", systems, nodes, [])
        fol = foliate(c, "given", slices=[["u"], ["v"]])
        # Slice 0 consumes wire A and pads the untouched wire B with the
        # identity (the cut order may interleave a wire permutation).
        swap = np.kron(np.eye(2), np.eye(2)).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3).reshape(4, 4)
        assert np.allclose(compile_slice(fol, 0, {}), swap @ np.kron(u, np.eye(2)), atol=1e-12)
        full = compile_history(fol, {}).operator
        assert np.allclose(full, np.kron(u, v), atol=1e-12)

    def test_second_leaf_is_pairwise_tensor(self):
        """The {R, V} slice compiles to R^(k) (x) V_l exactly."""
        c = gallery.conditioned_step()
        fol = foliate(c, "asap")
        outcomes = {"alpha": "0", "E": "1", "V": "0", "Lambda": "0:0"}
        op = compile_slice(fol, 1, outcomes)
        r1 = c.node("R").events[1].operators[0]
        v0 = c.node("V").events[0].operators[0]
        assert np.allclose(op, np.kron(r1, v0), atol=1e-12)

    def test_final_leaf_pads_identity_on_output(self):
        c = gallery.conditioned_step()
        fol = foliate(c, "asap")
        outcomes = {"alpha": "0", "E": "0", "V": "1", "Lambda": "1:2"}
        op = compile_slice(fol, 3, outcomes)
        bra = c.node("Lambda").events[6].operators[0]
        # Cut order is (N, O, M), so the readout acts first and M rides along.
        assert np.allclose(op, np.kron(bra, np.eye(2)), atol=1e-12)

    def test_slice_matches_node_by_node_application(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            c = random_circuit(rng, n_nodes=(4, 6))
            lay = layout(c)
            fol = foliate(lay, "asap")
            outcomes = any_assignment(lay)
            psi = haar_state(int(np.prod(fol.leaf_dims(0))) if fol.leaves[0] else 1, rng)
            vec = psi
            for s in range(len(fol.slices)):
                vec = compile_slice(fol, s, outcomes) @ vec
            full = compile_history(fol, any_assignment(lay)).operator @ psi
            assert np.allclose(vec, full, atol=1e-10)

    def test_missing_outcome_raises(self):
        fol = foliate(gallery.conditioned_step(), "asap")
        with pytest.raises(MissingOutcomeError):
            compile_history(fol, {"alpha": "0"})


class TestHandBuiltOracle:
    """Pin compilation against raw-numpy operator products.

    The nine-node circuit's history operator is written out by hand two
    ways: grouped leaf by leaf with identity padding on the surviving
    output wire, and with the first effect peeled off on its own before
    the re-preparation. Both must match the compiler entrywise.
    """

    @pytest.mark.parametrize("i,k,l,j,x", [
        ("0", "0", "0", "0", "0"),
        ("1", "1", "1", "3", "0"),
        ("0", "1", "1", "2", "1"),
        ("1", "0", "0", "1", "1"),
    ])
    def test_two_hand_expansions_match_compiler(self, i, k, l, j, x):
        c = gallery.conditioned_step()

        def op(label, outcome):
            node = c.node(label)
            return node.events[node.event_index(outcome)].operators[0]

        bra_a = op("alpha", i)              # (1, 2)
        ket_psi = op("psi", i)              # (2, 1)
        e_k = op("E", k)                    # (4, 4)
        r_k = op("R", k)                    # (4, 4)
        v_l = op("V", l)                    # (2, 2)
        a_x = op("A", x)                    # (2, 2)
        b_g = op("B", "0")
        c_g = op("C", "0")
        lam = op("Lambda", f"{l}:{j}")      # (1, 4)
        eye2 = np.eye(2)

        # Leaf-by-leaf grouping: effect and re-preparation share a leaf.
        grouped = (
            np.kron(eye2, lam)
            @ np.kron(np.kron(a_x, b_g), c_g)
            @ np.kron(r_k, v_l)
            @ np.kron(ket_psi @ bra_a, e_k)
        )
        # Peel the first effect off on its own leaf instead.
        peeled = (
            np.kron(eye2, lam)
            @ np.kron(np.kron(a_x, b_g), np.eye(2))
            @ np.kron(r_k, c_g @ v_l)
            @ np.kron(ket_psi, e_k)
            @ np.kron(bra_a, np.eye(4))
        )
        assert np.abs(grouped - peeled).max() < 1e-12

        outcomes = {"alpha": i, "E": k, "V": l, "Lambda": f"{l}:{j}"}
        for strategy in ("asap", "alap"):
            fol = foliate(c, strategy)
            compiled = compile_history(fol, outcomes, classical_input=x).operator
            assert np.abs(compiled - grouped).max() < 1e-12


class TestFoliationInvariance:
    def test_nine_node_asap_equals_alap(self):
        c = gallery.conditioned_step()
        lay = layout(c)
        fa, fl = foliate(lay, "asap"), foliate(lay, "alap")
        for outcomes in (
            {"alpha": "0", "E": "0", "V": "0", "Lambda": "0:0"},
            {"alpha": "1", "E": "1", "V": "1", "Lambda": "1:3"},
            {"alpha": "0", "E": "1", "V": "1", "Lambda": "1:0"},
        ):
            for x in ("0", "1"):
                oa = compile_history(fa, outcomes, classical_input=x)
                ol = compile_history(fl, outcomes, classical_input=x)
                assert np.abs(oa.operator - ol.operator).max() < 1e-10

    def test_random_circuits_random_foliations_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            c = random_circuit(rng, n_nodes=(4, 7))
            lay = layout(c)
            outcomes = any_assignment(lay)
            reference = compile_history(foliate(lay, "asap"), outcomes).operator
            for fol in [foliate(lay, "alap")] + [
                foliate(lay, "random", rng=rng) for _ in range(6)
            ]:
                got = compile_history(fol, outcomes).operator
                assert np.abs(got - reference).max() < 1e-10

    def test_identity_circuit_compiles_to_identity(self):
        c = linear_chain(3)
        u = [c.node(f"u{i}").events[0].operators[0] for i in range(3)]
        fol = foliate(c, "alap")
        got = compile_history(fol, {}).operator
        assert np.allclose(got, u[2] @ u[1] @ u[0], atol=1e-12)
        assert got.shape == (2, 2)

    def test_compiled_history_is_contraction(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            c = random_circuit(rng, n_nodes=(4, 7))
            lay = layout(c)
            hop = compile_history(foliate(lay, "asap"), any_assignment(lay))
            ok, sigma = hop.contraction_check()
            assert ok, f"sigma_max = {sigma}"
            assert hop.factor_count == len(foliate(lay, "asap").slices)


# --- the kron-and-permutation oracle -------------------------------------------
#
# An independent construction of a slice operator: each antichain sub-level
# of the slice becomes a Kronecker product of its nodes' Kraus operators and
# an identity on the wires passing through, and dense permutation matrices
# bring the wires into each level's order and finally into the next leaf's.


def _perm_matrix(dims: tuple[int, ...], axes: list[int]) -> np.ndarray:
    """Matrix reordering tensor factors: new position k holds old axis axes[k]."""
    d = prod(dims) if dims else 1
    idx = np.arange(d).reshape(dims if dims else (1,))
    if dims:
        idx = idx.transpose(axes)
    idx = idx.ravel()
    p = np.zeros((d, d))
    p[np.arange(d), idx] = 1.0
    return p


def _micro_levels(lay, members: list[int]) -> list[list[int]]:
    """Antichain sub-levels of a slice under its internal wire order."""
    members_set = set(members)
    inner_preds = {i: set() for i in members}
    for w in lay.wires:
        if w.src and w.dst and w.src[0] in members_set and w.dst[0] in members_set:
            inner_preds[w.dst[0]].add(w.src[0])
    done: set[int] = set()
    levels: list[list[int]] = []
    while len(done) < len(members):
        ready = sorted(i for i in members if i not in done and inner_preds[i] <= done)
        if not ready:
            raise FoliationError("cyclic slice (validation should have caught this)")
        levels.append(ready)
        done |= set(ready)
    return levels


def kron_compile_slice(fol, slice_index: int, resolved, max_dim: int = MAX_DIM) -> np.ndarray:
    """Node ``i`` fires its event ``resolved[i]``."""
    lay = fol.layout
    dims_of = {w.index: w.dim for w in lay.wires}
    order = list(fol.leaves[slice_index])
    if prod(fol.leaf_dims(slice_index)) > max_dim:
        raise FoliationError(f"leaf dimension exceeds cap {max_dim}")
    m = np.eye(prod(dims_of[w] for w in order) if order else 1, dtype=complex)
    for level in _micro_levels(lay, fol.slices[slice_index]):
        consumed: list[int] = []
        ops: list[np.ndarray] = []
        produced: list[int] = []
        for i in level:
            consumed += lay.node_in_wires[i]
            produced += lay.node_out_wires[i]
            ops.append(lay.circuit.nodes[i].events[resolved[i]].operators[0])
        passthrough = [w for w in order if w not in consumed]
        arrangement = consumed + passthrough
        axes = [order.index(w) for w in arrangement]
        perm = _perm_matrix(tuple(dims_of[w] for w in order), axes)
        block = np.eye(1, dtype=complex)
        for op in ops:
            block = np.kron(block, op)
        pass_dim = prod(dims_of[w] for w in passthrough) if passthrough else 1
        block = np.kron(block, np.eye(pass_dim, dtype=complex))
        if block.shape[0] * block.shape[1] > max_dim * max_dim:
            raise FoliationError(f"slice operator exceeds dimension cap {max_dim}")
        m = block @ perm @ m
        order = produced + passthrough
    target = list(fol.leaves[slice_index + 1])
    if sorted(order) != sorted(target):
        raise FoliationError("internal error: slice boundary wires do not match the next leaf")
    axes = [order.index(w) for w in target]
    m = _perm_matrix(tuple(dims_of[w] for w in order), axes) @ m
    return m


def _fast_path_operators(step, classical_input):
    """(slice, candidate, stacked operator) for every candidate of every fast
    slice in every context reachable under ``classical_input``; a candidate
    maps node index -> event index."""
    lay = step.layout
    found = []

    def visit(s, chosen):
        if s == len(step.slices):
            return
        plan = step.slices[s]
        branches = slice_candidates(plan, lay, chosen, classical_input)
        stacked = None
        if plan.fast:
            keyed = engine._Branches(branches.events, branches.deterministic)
            stacked = engine._stacked_operators(step, s, keyed)
        for c, cand in enumerate(branches.cands):
            if stacked is not None:
                found.append((s, cand, stacked[0, c]))
            visit(s + 1, {**chosen, **cand})

    visit(0, {})
    return found


class TestKronOracle:
    """``compile_slice`` runs the slice kernel on an identity basis; the
    oracle builds the same operator from Kronecker products and dense
    permutations."""

    def test_random_circuits_within_rounding(self):
        rng = np.random.default_rng(23)
        multi_level = 0
        for _ in range(30):
            lay = layout(random_circuit(rng, n_nodes=(4, 7)))
            outcomes = any_assignment(lay)
            resolved = resolve_assignment(lay, outcomes)
            fols = [foliate(lay, "asap"), foliate(lay, "alap")]
            fols += [foliate(lay, "random", rng=rng) for _ in range(4)]
            for fol in fols:
                for s in range(len(fol.slices)):
                    multi_level += len(_micro_levels(lay, fol.slices[s])) > 1
                    got = compile_slice(fol, s, outcomes)
                    want = kron_compile_slice(fol, s, resolved)
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() < 1e-12
        assert multi_level > 10

    @pytest.mark.parametrize("name", sorted(p.name for p in CIRCUITS.iterdir()))
    def test_shipped_fast_path_operators_bit_equal(self, name):
        program = engine.load_run_spec(CIRCUITS / name)
        count = 0
        for classical_input in ("0", "1"):
            for step in engine.compile_program(program):
                for s, resolved, op in _fast_path_operators(step, classical_input):
                    assert np.array_equal(op, kron_compile_slice(step.foliation, s, resolved))
                    count += 1
        assert count > 0


class TestDimensionCaps:
    def test_leaf_cap(self):
        fol = foliate(linear_chain(3), "asap")
        assert compile_slice(fol, 0, {}, max_dim=2).shape == (2, 2)
        with pytest.raises(FoliationError, match="leaf dimension exceeds cap 1"):
            compile_slice(fol, 0, {}, max_dim=1)

    def test_intermediate_cap(self):
        """A slice that prepares three qubits and reads them out again has
        1-dim leaves on both sides, but an 8-dim tensor in between."""
        systems = {lbl: System(lbl, 2) for lbl in ("A", "B", "C")}
        ket = np.zeros((8, 1))
        ket[0, 0] = 1.0
        bras = tuple(Event(str(j), (np.eye(8)[j:j + 1],)) for j in range(8))
        nodes = [
            TestNode("prep", (), ("A", "B", "C"), (Event("0", (ket,)),)),
            TestNode("read", ("A", "B", "C"), (), bras),
        ]
        wires = [WireSpec("prep", k, "read", k) for k in range(3)]
        fol = foliate(Circuit("grow", systems, nodes, wires), "given", slices=[["prep", "read"]])
        outcomes = {"read": "0"}
        assert np.array_equal(compile_slice(fol, 0, outcomes, max_dim=3), np.ones((1, 1)))
        with pytest.raises(FoliationError, match="slice operator exceeds dimension cap 2"):
            compile_slice(fol, 0, outcomes, max_dim=2)


def product_compile_history(fol, outcomes, classical_input="0", max_dim=MAX_DIM) -> np.ndarray:
    """The history operator as the product of the slice operators, the
    rightmost acting first: how ``compile_history`` composed slices before
    it ran one pass over all of them."""
    op = np.eye(prod(fol.leaf_dims(0)), dtype=complex)
    for s in range(len(fol.slices)):
        op = compile_slice(fol, s, outcomes, classical_input=classical_input, max_dim=max_dim) @ op
    return op


def readout_then_grow() -> Circuit:
    """Slice 0 reads out the input qubit; slice 1 prepares three qubits and
    reads them out again, so it holds an 8-dim tensor between 1-dim leaves."""
    systems = {lbl: System(lbl, 2) for lbl in ("Q", "A", "B", "C")}
    ket = np.zeros((8, 1))
    ket[0, 0] = 1.0
    nodes = [
        TestNode("in", ("Q",), (), tuple(Event(str(j), (np.eye(2)[j:j + 1],)) for j in range(2))),
        TestNode("prep", (), ("A", "B", "C"), (Event("0", (ket,)),)),
        TestNode("read", ("A", "B", "C"), (), tuple(Event(str(j), (np.eye(8)[j:j + 1],))
                                                  for j in range(8))),
    ]
    wires = [WireSpec("prep", k, "read", k) for k in range(3)]
    return Circuit("readout-then-grow", systems, nodes, wires)


class TestHistoryPass:
    """``compile_history`` runs the kernel once over every slice; the
    product of the slice operators is its oracle."""

    def test_graph_cases_equal_the_product(self):
        cases = graph_cases()
        checked = 0
        for k, c in enumerate(cases):
            lay = layout(c)
            outcomes = any_assignment(lay)
            fols = [foliate(lay, "asap"), foliate(lay, "alap")]
            fols += [foliate(lay, "random", rng=np.random.default_rng([k, seed])) for seed in (0, 1)]
            for fol in fols:
                got = compile_history(fol, outcomes)
                want = product_compile_history(fol, outcomes)
                assert got.operator.shape == want.shape, (c.name, fol.strategy)
                assert np.abs(got.operator - want).max() < 1e-13, (c.name, fol.strategy)
                assert got.factor_count == len(fol.slices)
                checked += 1
        assert checked == 4 * len(cases)

    @pytest.mark.parametrize("strategy", ["asap", "alap", "random"])
    def test_deep_chain_equals_the_product(self, strategy):
        lay = layout(closed_chain(DEEP_CHAIN))
        fol = foliate(lay, strategy, rng=np.random.default_rng(5))
        for outcome in ("0", "1"):
            got = compile_history(fol, {"m": outcome}).operator
            assert np.abs(got - product_compile_history(fol, {"m": outcome})).max() < 1e-13

    def test_cap_bounds_the_tensors_of_the_pass(self):
        """The pass holds slice 1's 8-dim tensor against the 2-dim input
        basis, 16 entries, where the product held 8 per slice operator."""
        fol = foliate(readout_then_grow(), "given", slices=[["in"], ["prep", "read"]])
        outcomes = {"in": "1", "read": "0"}
        want = product_compile_history(fol, outcomes, max_dim=3)
        assert np.array_equal(want, np.array([[0.0, 1.0]]))
        assert np.array_equal(compile_history(fol, outcomes, max_dim=4).operator, want)
        with pytest.raises(FoliationError, match="slice operator exceeds dimension cap 3"):
            compile_history(fol, outcomes, max_dim=3)

    def test_later_leaf_cap(self):
        fol = foliate(readout_then_grow(), "given", slices=[["in", "prep"], ["read"]])
        outcomes = {"in": "0", "read": "0"}
        with pytest.raises(FoliationError, match="leaf dimension exceeds cap 4"):
            compile_history(fol, outcomes, max_dim=4)
        assert compile_history(fol, outcomes, max_dim=8).operator.shape == (1, 2)
