"""The slice kernel against a ``tensordot`` oracle: ``_apply_slice`` as it
stood before contraction plans. The planned kernel hands ``np.dot`` the
operands ``tensordot`` forms, and contracts each row of a stack as a state
of its own, so every operator, law and sampled state must be equal bit for
bit, not just close."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from _helpers import any_assignment, graph_cases, oracle_compose
from test_engine import slice_walk_histories, walk_cases
from onticsim import engine, foliation
from onticsim.circuit import Circuit, Event, TestNode, layout
from onticsim.engine import enumerate_histories, run_trajectories
from onticsim.foliation import (_BATCH, FoliationError, compile_history, compile_slice, foliate,
                                resolve_assignment)
from onticsim.linalg import MAX_DIM


def oracle_apply_slice(state, order, lay, node_indices, events):
    """Apply one slice's events to a state tensor indexed by wire order; a
    leading ``_BATCH`` axis stacks states that are contracted one by one."""
    if list(order[:1]) == [_BATCH]:
        rows = [oracle_apply_slice(row, order[1:], lay, node_indices, events) for row in state]
        return np.stack([row for row, _ in rows]), [_BATCH, *rows[0][1]]
    for i in node_indices:
        op = lay.circuit.nodes[i].events[events[i]].operators[0]
        in_wires = lay.node_in_wires[i]
        out_wires = lay.node_out_wires[i]
        out_dims = tuple(lay.wires[w].dim for w in out_wires)
        in_dims = tuple(lay.wires[w].dim for w in in_wires)
        k = op.reshape(out_dims + in_dims)
        pos = [order.index(w) for w in in_wires]
        state = np.tensordot(k, state, axes=(list(range(len(out_dims), k.ndim)), pos))
        order = list(out_wires) + [w for w in order if w not in in_wires]
    return state, order


def with_oracle(fn, *args, **kwargs):
    """``fn`` run with the oracle in place of the kernel, and operators
    composed by the node-by-node pass over it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foliation, "_apply_slice", oracle_apply_slice)
        mp.setattr(engine, "_apply_slice", oracle_apply_slice)
        mp.setattr(foliation, "_compose", oracle_compose)
        mp.setattr(engine, "_compose", oracle_compose)
        return fn(*args, **kwargs)


def strided(circuit: Circuit) -> Circuit:
    """The same circuit with every operator stored column-major, so that
    the kernel meets operators whose strides are not C order."""
    nodes = [TestNode(n.label, n.inputs, n.outputs,
                      tuple(Event(e.outcome, tuple(np.asfortranarray(k) for k in e.operators))
                            for e in n.events), n.condition)
             for n in circuit.nodes]
    return Circuit(circuit.name, circuit.systems, nodes, circuit.wires, circuit.closed)


def initial_state(circuit: Circuit) -> np.ndarray:
    d = int(np.prod(layout(circuit).input_dims))
    v = np.random.default_rng(d).normal(size=d) + 1j
    return v / np.linalg.norm(v)


CASES = graph_cases()


@pytest.fixture(scope="module")
def cases():
    return [strided(c) for c in CASES[:20]] + CASES


def test_slice_operators_equal_the_oracle(cases):
    planned = 0
    for c in cases:
        lay = layout(c)
        fols = [foliate(lay, "asap"), foliate(lay, "alap")]
        fols += [foliate(lay, "random", rng=np.random.default_rng(seed)) for seed in range(4)]
        outcomes = any_assignment(lay)
        for fol in fols:
            for s in range(len(fol.slices)):
                got = compile_slice(fol, s, outcomes)
                want = with_oracle(compile_slice, fol, s, outcomes)
                assert np.array_equal(got, want), (c.name, fol.strategy, s)
        planned += len(lay.plans)
    assert planned > 0


def test_laws_equal_the_oracle(cases, monkeypatch):
    """The stacked enumeration against the slice walk, one history at a
    time, with the oracle in place of the kernel."""
    kernel, stacked = engine._apply_slice, []

    def counted(state, order, *args):
        stacked.append(list(order[:1]) == [_BATCH])
        return kernel(state, order, *args)

    monkeypatch.setattr(engine, "_apply_slice", counted)
    for c in cases[::6]:
        omega0 = initial_state(c)
        calls = len(stacked)
        law = enumerate_histories(c, omega0)
        assert len(stacked) > calls and all(stacked[calls:]), c.name
        assert law == with_oracle(slice_walk_histories, c, omega0), c.name


def test_stacked_norms_equal_vdot():
    """``engine._norms``, the leaf norms of enumeration and the tensor
    path's weights, against ``np.vdot`` bit for bit: every d from 1 to
    4096, on a stack and on subsets of its rows."""
    rng = np.random.default_rng(4096)
    stack = rng.normal(size=(5, 4096)) + 1j * rng.normal(size=(5, 4096))
    for d in range(1, 4097):
        x = stack[:, :d]
        want = np.array([np.vdot(row, row).real for row in x])
        for rows in (slice(None), slice(1, 3), [4], [0, 2, 3]):
            assert engine._norms(x[rows]).tobytes() == want[rows].tobytes(), (d, rows)


def test_tensor_path_equals_the_oracle(cases, monkeypatch):
    """With the fast path off, every row of every batch goes through the
    kernel."""
    monkeypatch.setattr(engine, "FAST_PATH_MAX_DIM", 0)
    for k, c in enumerate(cases[::12]):
        omega0 = initial_state(c)
        got = run_trajectories(c, 20, seed=k, omega0=omega0, store_states=True)
        want = with_oracle(run_trajectories, c, 20, seed=k, omega0=omega0, store_states=True)
        for a, b in zip(got, want):
            assert a.outcome_items() == b.outcome_items(), c.name
            assert a.probability == b.probability, c.name
            assert np.array_equal(a.final_state, b.final_state), c.name
            assert [s.weight for s in a.steps] == [s.weight for s in b.steps], c.name


def test_plans_are_keyed_by_node_and_incoming_order():
    c = CASES[0]
    lay = layout(c)
    fol = foliate(lay, "asap")
    compile_slice(fol, 0, any_assignment(lay))
    assert lay.plans
    # A stack of states on a leading batch axis.
    events = resolve_assignment(lay, any_assignment(lay))
    x = np.ones((3, *fol.leaf_dims(0)), dtype=complex)
    foliation._apply_slice(x, [_BATCH, *fol.leaves[0]], lay, fol.slices[0], events)
    stacked = 0
    for (i, order), (axes, op_shape, d_in, shape, next_order, is_stack) in lay.plans.items():
        assert isinstance(order, tuple) and isinstance(next_order, tuple)
        assert sorted(axes) == list(range(len(order)))
        lead = int(order[:1] == (_BATCH,))  # the batch axis stays first
        assert is_stack == bool(lead)
        stacked += lead
        assert axes[:lead] == [0] * lead and next_order[:lead] == order[:lead]
        out_wires = tuple(lay.node_out_wires[i])
        assert next_order[lead:lead + len(out_wires)] == out_wires
        assert d_in == int(np.prod([lay.wires[w].dim for w in lay.node_in_wires[i]]))
    assert 0 < stacked < len(lay.plans)
    # A second compile reads the plans it filled and adds none.
    filled = dict(lay.plans)
    compile_slice(fol, 0, any_assignment(lay))
    assert lay.plans == filled


def pass_foliations(lay):
    """``asap``, ``alap`` and four seeded random foliations."""
    fols = [foliate(lay, "asap"), foliate(lay, "alap")]
    return fols + [foliate(lay, "random", rng=np.random.default_rng(seed)) for seed in range(4)]


def pass_ranges(fol):
    """``compile_history``'s range, then each ``compile_slice`` range."""
    return [(0, len(fol.slices))] + [(s, s + 1) for s in range(len(fol.slices))]


def first_events(lay):
    """Each node's first admissible event, under each classical input the
    circuit has an entry for."""
    found = []
    for classical_input in ("0", "1"):
        try:
            found.append(resolve_assignment(lay, any_assignment(lay, classical_input), classical_input))
        except FoliationError:
            pass
    return found


def test_planned_pass_equals_the_node_by_node_pass():
    """``_compose`` runs the pass it planned once per foliation and range;
    ``_helpers.oracle_compose`` walks the same slices node by node through
    the kernel. Every step circuit of ``walk_cases()``, whose graph cases
    are ``graph_cases()``."""
    count = 0
    for c in [step.circuit for program, _, _ in walk_cases() for step in program.steps]:
        lay = layout(c)
        for fol in pass_foliations(lay):
            for resolved in first_events(lay):
                for first, stop in pass_ranges(fol):
                    got = foliation._compose(fol, first, stop, resolved, MAX_DIM)
                    want = oracle_compose(fol, first, stop, resolved, MAX_DIM)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), c.name
                    count += 1
            assert set(fol.passes) == set(pass_ranges(fol))
    assert count > 20000


def non_atomic(c: Circuit, k: int) -> Circuit:
    """``c`` with node ``k``'s first event split into two Kraus operators."""
    n = c.nodes[k]
    half = Event(n.events[0].outcome, tuple(op / np.sqrt(2) for op in n.events[0].operators * 2))
    node = TestNode(n.label, n.inputs, n.outputs, (half, *n.events[1:]), n.condition)
    return Circuit(c.name, c.systems, [*c.nodes[:k], node, *c.nodes[k + 1:]], c.wires, c.closed)


def composed(compose, *args):
    try:
        return compose(*args).tobytes()
    except FoliationError as exc:
        return str(exc)


ERRORS = ("leaf dimension exceeds cap", "slice operator exceeds dimension cap", "is not atomic")


def test_pass_errors_equal_the_node_by_node_pass():
    """Under every cap from 0 to 64, with and without a non-atomic event at
    the first, a middle or the last node: the planned pass raises the text
    the node-by-node walk raises first, or gives its bits."""
    raised = set()
    for c in CASES[::25]:
        for variant in [c, *(non_atomic(c, k) for k in {0, len(c.nodes) // 2, len(c.nodes) - 1})]:
            lay = layout(variant)
            for fol in pass_foliations(lay):
                for resolved in first_events(lay):
                    for first, stop in pass_ranges(fol):
                        for max_dim in (0, 1, 2, 3, 4, 6, 8, 16, 64):
                            args = (fol, first, stop, resolved, max_dim)
                            want = composed(oracle_compose, *args)
                            assert composed(foliation._compose, *args) == want, (c.name, max_dim)
                            raised.update(kind for kind in ERRORS if isinstance(want, str) and kind in want)
    assert raised == set(ERRORS), raised


def test_threads_on_a_cold_foliation_give_the_serial_bits():
    """Eight threads compile on one foliation whose layout has no plan,
    pass or resolution table yet, so that they race to store each."""

    def compile_all(fol):
        outcomes = any_assignment(fol.layout)
        return [compile_history(fol, outcomes).operator.tobytes(),
                *(compile_slice(fol, s, outcomes).tobytes() for s in range(len(fol.slices)))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the caches' fills
    try:
        for k, c in enumerate(CASES[6::10]):
            want = compile_all(foliate(layout(c), "random", rng=np.random.default_rng(k)))
            fol = foliate(layout(c), "random", rng=np.random.default_rng(k))
            start = threading.Barrier(8, timeout=60)

            def raced(_):
                start.wait()
                return compile_all(fol)

            with ThreadPoolExecutor(8) as pool:
                assert all(got == want for got in pool.map(raced, range(8), timeout=120)), c.name
    finally:
        sys.setswitchinterval(interval)
