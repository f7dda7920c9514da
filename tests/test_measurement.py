import tracemalloc
from fractions import Fraction
from math import comb, log, sqrt

import numpy as np
import pytest

from onticsim.linalg import bloch_projectors, haar_state
from onticsim.measurement import (
    TRIAL_CHUNK,
    MeasurementError,
    _bloch_of,
    _bloch_qubit,
    _covariant_batch,
    _covariant_picks,
    _dicke_coords,
    _fibonacci_sphere,
    _haar_qubits,
    _haar_states,
    _sic_batch,
    _sic_tables,
    _vn_batch,
    Povm,
    attention_repetition,
    build_sic,
    covariant_frame_mean_fidelity,
    covariant_qubit_frame,
    hermitian_basis,
    is_infocomplete,
    mean_recall_fidelity,
    random_bloch_direction,
    random_vn_qubit,
    recall_fidelity_bound,
    simulate_measurement,
    store_recall_cycle,
    symmetric_dim,
    tomography_linear,
    trace_distance,
)

RNG = np.random.default_rng(404)


def random_pure_rho(d, rng=RNG):
    psi = haar_state(d, rng)
    return psi, np.outer(psi, psi.conj())


def random_povm(d, n, rng=RNG):
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)]
    gs = [m @ m.conj().T for m in mats]
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1 / np.sqrt(w))) @ v.conj().T
    return Povm(tuple(inv_sqrt @ g @ inv_sqrt for g in gs))


class TestSic:
    @pytest.mark.parametrize("d", [2, 3])
    def test_construction_satisfies_overlap_condition(self, d):
        sic = build_sic(d)
        sic.validate()  # raises on violation
        for j in range(d * d):
            for k in range(d * d):
                got = abs(np.vdot(sic.states[j], sic.states[k])) ** 2
                want = (d * (j == k) + 1) / (d + 1)
                assert abs(got - want) < 1e-9

    def test_qubit_diagonal_overlaps_are_one(self):
        sic = build_sic(2)
        for s in sic.states:
            assert abs(abs(np.vdot(s, s)) ** 2 - 1) < 1e-12

    def test_effects_sum_to_identity(self):
        for d in (2, 3):
            povm = build_sic(d).povm
            povm.validate()

    def test_unsupported_dimension(self):
        with pytest.raises(MeasurementError):
            build_sic(4)


class TestInfocomplete:
    def test_qubit_sic_spans_four(self):
        ok, span = is_infocomplete(build_sic(2).povm, 2)
        assert ok and span == 4

    def test_basis_projectors_span_two(self):
        eye = np.eye(2, dtype=complex)
        povm = Povm((np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1])))
        ok, span = is_infocomplete(povm, 2)
        assert not ok and span == 2

    def test_qutrit_sic_spans_nine(self):
        ok, span = is_infocomplete(build_sic(3).povm, 3)
        assert ok and span == 9

    def test_pauli_eigenprojector_union_is_infocomplete(self):
        effects = []
        for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            plus, minus = bloch_projectors(axis)
            effects += [plus / 3, minus / 3]
        povm = Povm(tuple(effects))
        povm.validate()
        ok, span = is_infocomplete(povm, 2)
        # Gram-matrix rank oracle
        gram = np.array(
            [[np.real(np.trace(a.conj().T @ b)) for b in effects] for a in effects]
        )
        assert ok and span == 4
        assert np.linalg.matrix_rank(gram, tol=1e-9) == 4


class TestRandomVn:
    def test_forced_z_direction(self):
        class StubRng:
            def normal(self, size=None):
                return np.array([0.0, 0.0, 1.0])

        povm = random_vn_qubit(StubRng())
        assert np.allclose(povm.effects[0], np.diag([1, 0]), atol=1e-12)
        assert np.allclose(povm.effects[1], np.diag([0, 1]), atol=1e-12)

    def test_projective_pair(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            povm = random_vn_qubit(rng)
            a, b = povm.effects
            assert np.allclose(a + b, np.eye(2), atol=1e-12)
            assert np.abs(a @ b).max() < 1e-12
            assert np.allclose(a @ a, a, atol=1e-12)

    def test_direction_uniformity(self):
        rng = np.random.default_rng(7)
        total = np.zeros(3)
        n = 100_000
        for _ in range(n):
            total += random_bloch_direction(rng)
        assert np.linalg.norm(total / n) < 0.01


class TestSimulateMeasurement:
    def test_sic_on_maximally_mixed_is_uniform(self):
        rng = np.random.default_rng(8)
        povm = build_sic(2).povm
        counts = simulate_measurement(povm, np.eye(2) / 2, 100_000, rng)
        sigma = np.sqrt(100_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 25_000) < 3 * sigma + 1)

    def test_basis_on_plus(self):
        eye = np.eye(2, dtype=complex)
        povm = Povm((np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1])))
        plus = np.array([1, 1]) / np.sqrt(2)
        counts = simulate_measurement(povm, np.outer(plus, plus), 50_000, np.random.default_rng(9))
        assert abs(counts[0] / 50_000 - 0.5) < 3 * (0.5 / np.sqrt(50_000))

    def test_random_povm_matches_born_weights(self):
        rng = np.random.default_rng(10)
        povm = random_povm(3, 5, rng)
        povm.validate()
        _, rho = random_pure_rho(3, rng)
        p = povm.probabilities(rho)
        n = 200_000
        counts = simulate_measurement(povm, rho, n, rng)
        for i in range(5):
            sigma = np.sqrt(max(p[i] * (1 - p[i]) / n, 1e-12))
            assert abs(counts[i] / n - p[i]) < 4 * sigma + 1e-4


class TestTomography:
    def test_noiseless_inversion_is_exact(self):
        rng = np.random.default_rng(11)
        povm = build_sic(2).povm
        for _ in range(20):
            _, rho = random_pure_rho(2, rng)
            probs = povm.probabilities(rho)
            result = tomography_linear(povm, probs * 1_000_000)
            assert trace_distance(result.estimate, rho) < 1e-9

    def test_noiseless_inversion_random_infocomplete(self):
        rng = np.random.default_rng(12)
        povm = random_povm(3, 10, rng)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        result = tomography_linear(povm, povm.probabilities(rho))
        assert trace_distance(result.estimate, rho) < 1e-9

    def test_finite_shots_close(self):
        rng = np.random.default_rng(13)
        povm = build_sic(2).povm
        psi, rho = random_pure_rho(2, rng)
        counts = simulate_measurement(povm, rho, 100_000, rng)
        result = tomography_linear(povm, counts)
        assert trace_distance(result.estimate, rho) < 0.02
        assert result.sample_count == 100_000

    def test_rejects_tomographically_incomplete(self):
        eye = np.eye(2, dtype=complex)
        povm = Povm((np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1])))
        with pytest.raises(MeasurementError, match="informationally complete"):
            tomography_linear(povm, np.array([50, 50]))

    def test_estimate_is_state(self):
        rng = np.random.default_rng(14)
        povm = build_sic(2).povm
        counts = simulate_measurement(povm, np.eye(2) / 2, 30, rng)
        est = tomography_linear(povm, counts).estimate
        ev = np.linalg.eigvalsh(est)
        assert ev.min() > -1e-12 and abs(np.trace(est) - 1) < 1e-9

    def test_hermitian_basis_orthonormal(self):
        for d in (2, 3):
            basis = hermitian_basis(d)
            assert len(basis) == d * d
            for i, a in enumerate(basis):
                assert np.allclose(a, a.conj().T, atol=1e-12)
                for j, b in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    assert abs(np.trace(a @ b).real - want) < 1e-12


class TestAttention:
    def test_single_repetition_no_crash(self):
        result = attention_repetition(
            np.array([1, 0], dtype=complex), 1, build_sic(2).povm, np.random.default_rng(1)
        )
        assert result.sample_count == 1
        assert abs(np.trace(result.estimate) - 1) < 1e-9

    def test_error_decreases_with_repetitions(self):
        rng = np.random.default_rng(15)
        povm = build_sic(2).povm
        medians = []
        for repeats in (1_000, 10_000, 100_000):
            errors = []
            for _ in range(50):
                psi = haar_state(2, rng)
                rho = np.outer(psi, psi.conj())
                est = attention_repetition(psi, repeats, povm, rng).estimate
                errors.append(trace_distance(est, rho))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    def test_rejects_zero_repeats(self):
        with pytest.raises(MeasurementError):
            attention_repetition(np.array([1, 0]), 0, build_sic(2).povm, np.random.default_rng(0))


class TestRecallBound:
    def test_values(self):
        assert recall_fidelity_bound(1, 2) == Fraction(2, 3)
        assert recall_fidelity_bound(1, 3) == Fraction(1, 2)
        assert recall_fidelity_bound(3, 2) == Fraction(4, 5)

    def test_limit_to_one(self):
        assert float(recall_fidelity_bound(10_000, 2)) > 0.999

    def test_symmetric_dim(self):
        assert symmetric_dim(1, 2) == 2
        assert symmetric_dim(3, 2) == 4
        assert symmetric_dim(2, 3) == 6


def reference_frame_arrays(m: int, mesh: int):
    """(spinors, dicke, tighten) built point by point with Python scalars,
    the construction the vectorised frame must reproduce bit for bit."""
    spinors = []
    for direction in _fibonacci_sphere(mesh):
        x, y, z = (float(c) for c in direction)
        norm = sqrt(x * x + y * y + z * z)
        x, y, z = x / norm, y / norm, z / norm
        a = sqrt(max(0.0, (1 + z) / 2))
        b_mag = sqrt(max(0.0, (1 - z) / 2))
        phase = np.exp(1j * np.arctan2(y, x)) if (abs(x) > 0 or abs(y) > 0) else 1.0
        spinors.append(np.array([a, b_mag * phase], dtype=complex))
    ks = np.arange(m + 1)
    binoms = np.sqrt([comb(m, int(k)) for k in ks])
    dicke = np.array([binoms * (s[0] ** (m - ks)) * (s[1] ** ks) for s in spinors])
    ev, vec = np.linalg.eigh((m + 1) / mesh * np.einsum("ia,ib->ab", dicke, dicke.conj()))
    return np.array(spinors), dicke, (vec * (1.0 / np.sqrt(ev))) @ vec.conj().T


class TestCovariantFrame:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_vectorised_build_equals_pointwise(self, m):
        frame = covariant_qubit_frame.__wrapped__(m)  # a fresh build, not the cached one
        spinors, dicke, tighten = reference_frame_arrays(m, frame.mesh_size)
        assert np.array_equal(frame.spinors, spinors)
        assert np.array_equal(frame.dicke, dicke)
        assert np.array_equal(frame.tighten, tighten)

    def test_frame_is_exact_povm_on_symmetric_subspace(self):
        frame = covariant_qubit_frame(2, mesh=600)
        total = frame.weight * np.einsum(
            "ia,ib->ab", frame.dicke @ frame.tighten.T, (frame.dicke @ frame.tighten.T).conj()
        )
        assert np.allclose(total, np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_mean_fidelity_close_to_bound(self, m):
        frame = covariant_qubit_frame(m)
        bound = float(recall_fidelity_bound(m, 2))
        exact = covariant_frame_mean_fidelity(frame)
        assert exact <= bound + 1e-9
        assert bound - exact < 2e-4

    def test_mesh_refinement_converges(self):
        bound = float(recall_fidelity_bound(2, 2))
        gaps = []
        for mesh in (250, 1_000, 4_000):
            frame = covariant_qubit_frame(2, mesh=mesh)
            gaps.append(bound - covariant_frame_mean_fidelity(frame))
        assert gaps[0] > gaps[2]
        assert gaps[2] < 2e-4


class TestStoreRecall:
    def test_single_cycle_runs(self):
        rng = np.random.default_rng(16)
        psi = haar_state(2, rng)
        for strategy in ("optimal_covariant_qubit", "sic_estimate", "random_vn_repeat"):
            recalled, fid = store_recall_cycle(psi, 2, strategy, rng)
            assert abs(np.linalg.norm(recalled) - 1) < 1e-9
            assert 0.0 <= fid <= 1.0

    def test_unknown_strategy(self):
        with pytest.raises(MeasurementError):
            store_recall_cycle(np.array([1, 0]), 1, "telepathy", np.random.default_rng(0))

    def test_dimension_guards(self):
        with pytest.raises(MeasurementError):
            store_recall_cycle(np.ones(3) / np.sqrt(3), 1, "optimal_covariant_qubit",
                               np.random.default_rng(0))
        with pytest.raises(MeasurementError):
            mean_recall_fidelity("sic_estimate", 1, 5, 10)

    @pytest.mark.parametrize("strategy", ["optimal_covariant_qubit", "sic_estimate",
                                          "random_vn_repeat"])
    @pytest.mark.parametrize("m", [0, -2])
    def test_no_copies(self, strategy, m):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(MeasurementError, match="at least one copy"):
            store_recall_cycle(np.array([1, 0]), m, strategy, rng)
        assert rng.bit_generator.state == before
        with pytest.raises(MeasurementError, match="at least one copy"):
            mean_recall_fidelity(strategy, m, 2, 10)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials(self, trials):
        with pytest.raises(MeasurementError, match="at least one trial"):
            mean_recall_fidelity("sic_estimate", 1, 2, trials)

    @pytest.mark.parametrize("psi", [[np.nan, 0], [np.inf, 0], [1, 1]])
    def test_unnormalized_input(self, psi):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(MeasurementError, match="finite and normalized"):
            store_recall_cycle(np.array(psi), 1, "sic_estimate", rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("strategy,d", [
        ("sic_estimate", 2), ("sic_estimate", 3), ("random_vn_repeat", 2),
    ])
    def test_cycle_equals_batch_row(self, strategy, d):
        """A cycle is the batch kernel's row for the same generator state,
        and its fidelity is the one ``mean_recall_fidelity`` averages."""
        states = np.random.default_rng(18)
        for seed in range(200):
            psi = haar_state(d, states)
            cycle, batch = np.random.default_rng(seed), np.random.default_rng(seed)
            recalled, fid = store_recall_cycle(psi, 3, strategy, cycle)
            if strategy == "sic_estimate":
                row = _sic_batch(psi[None], 3, batch)[0]
                batch_fid = abs(np.vdot(psi, row)) ** 2
            else:
                r = _bloch_of(psi[None])
                est = _vn_batch(r, 3, batch)
                row, batch_fid = _bloch_qubit(est[0]), (1 + float(r[0] @ est[0])) / 2
            assert np.array_equal(recalled, row)
            assert cycle.bit_generator.state == batch.bit_generator.state
            assert abs(fid - batch_fid) < 1e-12

    def test_covariant_mean_hits_bound_at_m1(self):
        mean, err = mean_recall_fidelity("optimal_covariant_qubit", 1, 2, 20_000, seed=5)
        assert abs(mean - 2 / 3) < max(4 * err, 0.004)

    def test_suboptimal_strategies_respect_bound(self):
        for strategy in ("sic_estimate", "random_vn_repeat"):
            for m in (1, 2):
                mean, err = mean_recall_fidelity(strategy, m, 2, 20_000, seed=6)
                bound = float(recall_fidelity_bound(m, 2))
                assert mean <= bound + 3 * err

    def test_sic_estimate_disturbs(self):
        mean, err = mean_recall_fidelity("sic_estimate", 1, 2, 20_000, seed=7)
        assert mean < 1 - 10 * err

    def test_qutrit_sic_estimate_below_bound(self):
        mean, err = mean_recall_fidelity("sic_estimate", 1, 3, 10_000, seed=8)
        bound = float(recall_fidelity_bound(1, 3))
        assert mean <= bound + 3 * err

    def test_covariant_sweep_monotone_in_copies(self):
        means = [
            mean_recall_fidelity("optimal_covariant_qubit", m, 2, 20_000, seed=11)[0]
            for m in range(1, 6)
        ]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_batch_consistent_with_single_cycles(self):
        rng = np.random.default_rng(17)
        fids = [
            store_recall_cycle(haar_state(2, rng), 1, "optimal_covariant_qubit", rng)[1]
            for _ in range(4_000)
        ]
        mean_single = float(np.mean(fids))
        mean_batch, err = mean_recall_fidelity("optimal_covariant_qubit", 1, 2, 20_000, seed=9)
        assert abs(mean_single - mean_batch) < 0.02


def cumsum_picks(frame, x, u, chunk=1000):
    """The inverse-CDF rule the prefix-Gram search replaced: every mesh
    probability, their running sum, and a count of the cells below u."""
    picks = []
    for s in range(0, len(u), chunk):
        amps = x[s:s + chunk] @ frame.dicke.conj().T
        cum = np.cumsum(frame.weight * np.abs(amps) ** 2, axis=1)
        picks.append((cum < u[s:s + chunk, None] * cum[:, -1:]).sum(axis=1))
    return np.concatenate(picks).clip(0, frame.mesh_size - 1)


def choice_pick(frame, psi, rng):
    """The single-cycle draw the prefix-Gram search replaced."""
    p = frame.outcome_probabilities(_dicke_coords(psi[0], psi[1], frame.copies))
    p = np.clip(p, 0, None)
    return int(rng.choice(frame.mesh_size, p=p / p.sum()))


class TestCovariantDraw:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_picks_equal_cumsum_rule(self, m):
        frame = covariant_qubit_frame(m)
        rng = np.random.default_rng(100 + m)
        psis = _haar_qubits(100_000, rng)
        x = _dicke_coords(psis[:, 0], psis[:, 1], m) @ frame.tighten.T
        u = rng.random(100_000)
        u[0], u[1] = 0.0, np.nextafter(1.0, 0.0)
        picks = _covariant_picks(frame, x, u)
        assert np.array_equal(picks, cumsum_picks(frame, x, u))
        assert picks[0] == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_single_cycle_equals_choice_rule(self, m):
        frame = covariant_qubit_frame(m)
        states = np.random.default_rng(200 + m)
        new, old = np.random.default_rng(300 + m), np.random.default_rng(300 + m)
        for _ in range(2_000):
            psi = haar_state(2, states)
            recalled, _ = store_recall_cycle(psi, m, "optimal_covariant_qubit", new)
            assert np.array_equal(recalled, frame.spinors[choice_pick(frame, psi, old)])
        assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fidelities_follow_continuous_law(self, m):
        # The continuous covariant measurement gives fidelity density
        # (M+1) F^M, so CDF F^(M+1) (Massar & Popescu 1995). The
        # Dvoretzky-Kiefer-Wolfowitz bound P(D > eps) <= 2 exp(-2 n eps^2)
        # sets eps for a false-alarm rate of 1e-6.
        n = 100_000
        rng = np.random.default_rng(400 + m)
        fids = np.sort(_covariant_batch(_haar_qubits(n, rng), covariant_qubit_frame(m), rng))
        cdf = fids ** (m + 1)
        k = np.arange(1, n + 1)
        ks = max((k / n - cdf).max(), (cdf - (k - 1) / n).max())
        assert ks < sqrt(log(2 / 1e-6) / (2 * n))

    def test_memory_is_bounded(self):
        covariant_qubit_frame.cache_clear()  # count the frame's build too
        tracemalloc.start()
        try:
            mean_recall_fidelity("optimal_covariant_qubit", 3, 2, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestHaarBatch:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 64 - 1])
    def test_batch_equals_loop(self, seed):
        loop, batch = np.random.default_rng(seed), np.random.default_rng(seed)
        states = np.array([haar_state(3, loop) for _ in range(2_000)])
        assert np.array_equal(_haar_states(2_000, 3, batch), states)
        assert batch.bit_generator.state == loop.bit_generator.state


def sic_batch_per_trial(psis, m, rng):
    """The symmetric-frame recall before count classes: the inversion and
    the eigendecomposition of every row."""
    d = psis.shape[1]
    states, pinv, basis = _sic_tables(d)
    probs = np.abs(psis.conj() @ states.T) ** 2 / d
    cum = np.cumsum(probs, axis=1)
    n = psis.shape[0]
    counts = np.zeros((n, d * d))
    for _ in range(m):
        u = rng.random(n)[:, None] * cum[:, -1:]
        picks = (cum < u).sum(axis=1).clip(0, d * d - 1)
        counts[np.arange(n), picks] += 1
    coords = (counts / m) @ pinv.T
    rhos = np.einsum("na,aij->nij", coords, basis)
    rhos = (rhos + np.conj(np.swapaxes(rhos, 1, 2))) / 2
    _, vecs = np.linalg.eigh(rhos)
    return vecs[:, :, -1]


class Replay:
    """Stands in for a generator: each ``random(n)`` returns the next
    planned row of uniforms."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def random(self, n):
        u = np.asarray(next(self.rows), dtype=float)
        assert u.shape == (n,)
        return u


class TestSicClasses:
    """``_sic_batch`` decomposes each distinct count vector once; every
    recalled vector and the generator's next draw keep their bits."""

    @pytest.mark.parametrize("n", [1, 7, TRIAL_CHUNK])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 130])
    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_per_trial_kernel(self, d, m, n):
        psis = _haar_states(n, d, np.random.default_rng(1000 * d + n))
        classes, trials = np.random.default_rng(m), np.random.default_rng(m)
        assert np.array_equal(_sic_batch(psis, m, classes), sic_batch_per_trial(psis, m, trials))
        assert classes.random() == trials.random()

    def test_one_class_in_a_batch_of_two(self):
        """Two rows with the same counts still go through gemm, as the
        per-trial kernel's two rows did."""
        psis = np.repeat(build_sic(2).states[:1], 2, axis=0)
        single = 0
        for seed in range(40):
            top = _sic_batch(psis, 3, np.random.default_rng(seed))
            assert np.array_equal(top, sic_batch_per_trial(psis, 3, np.random.default_rng(seed)))
            single += np.array_equal(top[0], top[1])
        assert single > 0

    def test_counts_past_float_precision_stay_apart(self):
        """At d = 3 and M = 130 a positional key sum_j c_j (M+1)^j exceeds
        2^63, so the counts e_0 + 129 e_8 and e_1 + 129 e_8 would share a float key."""
        psis = np.repeat(build_sic(3).states[:1], 2, axis=0)  # p = 1/3, then 1/12 each
        rows = [[0.0, 0.37]] + [[0.99, 0.99]] * 129  # picks 0 and 1, then 8
        top = _sic_batch(psis, 130, Replay(rows))
        want = sic_batch_per_trial(psis, 130, Replay(rows))
        assert not np.array_equal(want[0], want[1])
        assert np.array_equal(top, want)
