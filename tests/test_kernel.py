"""The slice kernel against a ``tensordot`` oracle: ``_apply_slice`` as it
stood before contraction plans. The planned kernel hands ``np.dot`` the
operands ``tensordot`` forms, and contracts each row of a stack as a state
of its own, so every operator, law and sampled state must be equal bit for
bit, not just close."""

import numpy as np
import pytest

from _helpers import any_assignment, graph_cases
from test_engine import slice_walk_histories
from onticsim import engine, foliation
from onticsim.circuit import Circuit, Event, TestNode, layout
from onticsim.engine import enumerate_histories, run_trajectories
from onticsim.foliation import _BATCH, compile_slice, foliate, resolve_assignment


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
    """``fn`` run with the oracle in place of the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foliation, "_apply_slice", oracle_apply_slice)
        mp.setattr(engine, "_apply_slice", oracle_apply_slice)
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
