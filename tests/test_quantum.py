import numpy as np
import pytest

from onticsim import linalg
from onticsim.circuit import Circuit, Event, System, TestNode, WireSpec, validate_dag
from onticsim.linalg import haar_state, haar_unitary
from onticsim.quantum import (
    COMPLETENESS_TOL,
    CpMap,
    KrausSet,
    SignatureError,
    apply_atomic,
    born_probability,
    complete_test,
    dilate,
    epistemic_of,
    gram_identity_defect,
    gram_top_eigenvalue,
    holevo_limit,
    is_density_matrix,
    normalisation,
    unitary_kraus,
)

RNG = np.random.default_rng(2024)


def random_density(d, rng=RNG):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def random_complete_kraus(d, n, rng=RNG):
    """n Kraus operators on dim d with sum K^dag K = I (isometry split)."""
    z = rng.normal(size=(d * n, d)) + 1j * rng.normal(size=(d * n, d))
    q, _ = np.linalg.qr(z)
    return KrausSet(tuple(q[i * d:(i + 1) * d, :] for i in range(n)))


class TestKrausSet:
    def test_atomic_and_deterministic_flags(self):
        u = unitary_kraus(np.eye(2))
        assert u.is_atomic and u.is_deterministic
        half = KrausSet((np.eye(2) / np.sqrt(2),))
        assert half.is_atomic and not half.is_deterministic

    def test_rejects_trace_increasing(self):
        with pytest.raises(ValueError):
            KrausSet((2 * np.eye(2),)).validate()

    @pytest.mark.parametrize("d", [2, 257])
    @pytest.mark.parametrize("entry", [1e308, np.nan, np.inf])
    def test_rejects_a_gram_that_is_not_finite(self, d, entry):
        k = np.eye(d, dtype=complex)
        k[0, 0] = entry
        with pytest.raises(ValueError, match="not finite"):
            KrausSet((k,)).validate()
        assert not KrausSet((k,)).is_deterministic

    def test_shape_mismatch(self):
        with pytest.raises(SignatureError):
            KrausSet((np.eye(2), np.eye(3)))

    def test_declared_dims_checked(self):
        with pytest.raises(SignatureError):
            KrausSet((np.eye(4),), in_dims=(2,), out_dims=(2, 2))


class TestApplyAtomic:
    def test_identity(self):
        psi = np.array([1, 0], dtype=complex)
        out, w = apply_atomic(unitary_kraus(np.eye(2)), psi)
        assert np.allclose(out, psi) and abs(w - 1) < 1e-12

    def test_projector_on_plus(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        proj = KrausSet((np.diag([1, 0]).astype(complex),))
        out, w = apply_atomic(proj, plus)
        assert abs(w - 0.5) < 1e-12
        assert np.allclose(out, [1 / np.sqrt(2), 0])

    def test_stepwise_equals_premultiplied(self):
        rng = np.random.default_rng(7)
        ops = [haar_unitary(3, rng) for _ in range(4)]
        psi = haar_state(3, rng)
        stepwise = psi
        for op in ops:
            stepwise, _ = apply_atomic(KrausSet((op,)), stepwise)
        product = ops[3] @ ops[2] @ ops[1] @ ops[0]
        direct, _ = apply_atomic(KrausSet((product,)), psi)
        assert np.abs(stepwise - direct).max() < 1e-10

    def test_rejects_non_atomic(self):
        ks = random_complete_kraus(2, 2)
        with pytest.raises(ValueError):
            apply_atomic(ks, np.array([1, 0]))


class TestEpistemic:
    def test_z_measurement_dephases(self):
        p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
        chan = epistemic_of(KrausSet((p0, p1)))
        rho = random_density(2)
        out = chan(rho)
        assert abs(out[0, 1]) < 1e-12 and abs(out[1, 0]) < 1e-12
        assert np.allclose(np.diag(out), np.diag(rho))

    def test_unitary_channel(self):
        u = haar_unitary(3, np.random.default_rng(1))
        chan = epistemic_of(unitary_kraus(u))
        rho = random_density(3)
        assert np.allclose(chan(rho), u @ rho @ u.conj().T)

    def test_matches_outcome_accumulation_oracle(self):
        ks = random_complete_kraus(3, 3)
        chan = epistemic_of(ks)
        for _ in range(20):
            rho = random_density(3)
            expected = np.zeros((3, 3), dtype=complex)
            for k in ks.operators:  # outcome-by-outcome accumulation
                expected += k @ rho @ k.conj().T
            assert np.allclose(chan(rho), expected, atol=1e-12)

    def test_trace_preserving_iff_deterministic(self):
        assert epistemic_of(random_complete_kraus(2, 2)).is_trace_preserving()
        sub = KrausSet((np.diag([1, 0]).astype(complex),))
        assert not epistemic_of(sub).is_trace_preserving()


class TestBornRule:
    def test_deterministic_preparation(self):
        prep = KrausSet((np.array([[1], [0]], dtype=complex),))
        assert abs(born_probability(prep) - 1) < 1e-12

    def test_subnormalized_preparation(self):
        prep = KrausSet((np.array([[1 / np.sqrt(2)], [0]], dtype=complex),))
        assert abs(born_probability(prep) - 0.5) < 1e-12

    def test_matches_norm_sum_oracle(self):
        rng = np.random.default_rng(3)
        cols = [rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1)) for _ in range(3)]
        total = sum(np.linalg.norm(c) ** 2 for c in cols)
        cols = [c / np.sqrt(2 * total) for c in cols]
        prep = KrausSet(tuple(cols))
        expected = sum(np.linalg.norm(c) ** 2 for c in cols)
        assert abs(born_probability(prep) - expected) < 1e-12

    def test_rejects_nontrivial_input(self):
        with pytest.raises(SignatureError):
            born_probability(unitary_kraus(np.eye(2)))


class TestPurityPreservation:
    def test_atomic_deterministic_keeps_purity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            u = haar_unitary(4, rng)
            psi = haar_state(4, rng)
            out, w = apply_atomic(unitary_kraus(u), psi)
            out = out / np.sqrt(w)
            rho = np.outer(out, out.conj())
            assert abs(np.real(np.trace(rho @ rho)) - 1) < 1e-9


class TestDilation:
    def test_identity_channel(self):
        dil = dilate(unitary_kraus(np.eye(2)))
        assert len(dil.projectors) == 1
        assert np.allclose(dil.unitary, np.eye(2), atol=1e-12)  # trivial ancilla
        rho = random_density(2)
        assert np.allclose(dil.branch(rho, 0), rho, atol=1e-10)

    def test_computational_measurement(self):
        p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
        dil = dilate(KrausSet((p0, p1)))
        for _ in range(20):
            rho = random_density(2)
            for i, k in enumerate((p0, p1)):
                assert np.allclose(dil.branch(rho, i), k @ rho @ k.conj().T, atol=1e-10)

    def test_amplitude_damping(self):
        gamma = 0.5
        k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        ks = KrausSet((k0, k1))
        dil = dilate(ks)
        assert dil.unitary.shape == (4, 4)
        assert np.allclose(dil.unitary @ dil.unitary.conj().T, np.eye(4), atol=1e-10)
        for _ in range(20):
            rho = random_density(2)
            for i, k in enumerate(ks.operators):
                assert np.allclose(dil.branch(rho, i), k @ rho @ k.conj().T, atol=1e-10)

    def test_projectors_complete_orthogonal(self):
        dil = dilate(random_complete_kraus(3, 2))
        total = sum(dil.projectors)
        assert np.allclose(total, np.eye(total.shape[0]), atol=1e-12)
        for i, p in enumerate(dil.projectors):
            for j, q in enumerate(dil.projectors):
                expected = p if i == j else 0 * p
                assert np.allclose(p @ q, expected, atol=1e-12)

    def test_channel_equality_on_random_pure_inputs(self):
        rng = np.random.default_rng(23)
        ks = random_complete_kraus(3, 3, rng)
        dil = dilate(ks)
        worst = 0.0
        for _ in range(100):
            psi = haar_state(3, rng)
            rho = np.outer(psi, psi.conj())
            out_direct = sum(k @ rho @ k.conj().T for k in ks.operators)
            out_dilated = sum(dil.branch(rho, i) for i in range(len(ks.operators)))
            delta = out_direct - out_dilated
            worst = max(worst, 0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())
        assert worst < 1e-8

    def test_requires_deterministic(self):
        sub = KrausSet((np.diag([1, 0]).astype(complex),))
        with pytest.raises(ValueError):
            dilate(sub)
        padded = complete_test(sub)
        assert padded.is_deterministic
        dil = dilate(padded)
        rho = random_density(2)
        assert np.allclose(
            dil.branch(rho, 0), np.diag([rho[0, 0], 0]), atol=1e-10
        )

    def test_reproducible(self):
        ks = random_complete_kraus(2, 2, np.random.default_rng(5))
        assert np.array_equal(dilate(ks).unitary, dilate(ks).unitary)


class TestCompleteTest:
    def test_pads_to_identity(self):
        k = KrausSet((np.diag([0.6, 0.3]).astype(complex),))
        padded = complete_test(k)
        assert padded.is_deterministic
        assert padded.outcome_labels[0] == "0"
        assert any(lbl.startswith("discard") for lbl in padded.outcome_labels[1:])

    def test_deterministic_unchanged(self):
        ks = random_complete_kraus(2, 2)
        assert complete_test(ks) is ks


class TestHolevo:
    @pytest.mark.parametrize("dims,bits", [((2,), 1.0), ((2, 2, 2), 3.0), ((12,), np.log2(12))])
    def test_limits(self, dims, bits):
        assert abs(holevo_limit(dims) - bits) < 1e-12


def test_is_density_matrix():
    assert is_density_matrix(random_density(3))
    assert not is_density_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))
    assert not is_density_matrix(2 * np.eye(2))


def test_cpmap_composition_behaviour():
    u = haar_unitary(2, np.random.default_rng(9))
    chan = CpMap((u,))
    rho = random_density(2)
    assert np.allclose(chan(chan(rho)), (u @ u) @ rho @ (u @ u).conj().T)


def gram_oracle(ops) -> np.ndarray:
    """Eigenvalues of sum K^dag K from the formed matrix."""
    return np.linalg.eigvalsh(sum(k.conj().T @ k for k in ops))


def trace_increasing(d, excess=1e-6, seed=0):
    """U . diag(sqrt(1 + excess), 1, ..., 1): top eigenvalue 1 + excess, rest 1."""
    k = haar_unitary(d, np.random.default_rng(seed))
    k[:, 0] *= np.sqrt(1.0 + excess)
    return k


def phase_dft(d, rng, block=256):
    """diag(left) . DFT . diag(right) with random phases: a unitary whose
    entries all have modulus 1/sqrt(d), built by row blocks without QR."""
    left = np.exp(2j * np.pi * rng.random(d)) / np.sqrt(d)
    right = np.exp(2j * np.pi * rng.random(d))
    k = np.arange(d)
    roots = np.exp(-2j * np.pi * k / d)  # DFT entry (j, k) is roots[j*k mod d]
    u = np.empty((d, d), dtype=complex)
    for a in range(0, d, block):
        u[a:a + block] = roots[np.outer(k[a:a + block], k) % d] * left[a:a + block, None] * right
    return u


@pytest.fixture
def lanczos_steps(monkeypatch):
    """Records each product with sum K^dag K; the dense paths make none."""
    steps = []
    apply_gram = linalg._apply_gram
    monkeypatch.setattr(linalg, "_apply_gram", lambda ops, v: steps.append(1) or apply_gram(ops, v))
    return steps


class TestGramSpectrum:
    """Both sides of the dense/Lanczos switch give the verdict of the dense oracle."""

    @pytest.mark.parametrize("d", [256, 257])
    def test_trace_excess_rejected_on_both_sides_of_the_switch(self, d, lanczos_steps):
        k = trace_increasing(d)
        exact = gram_oracle([k])[-1]
        assert exact > 1 + COMPLETENESS_TOL
        top = gram_top_eigenvalue([k])
        assert 1 + COMPLETENESS_TOL < top <= exact + 1e-12  # a Ritz value never exceeds it
        assert len(lanczos_steps) == (0 if d == 256 else 2)  # Lanczos above 256, no fallback
        with pytest.raises(ValueError, match="- 1 = 1e-06"):
            KrausSet((k,)).validate()

    def test_dense_dft_layer_settles_in_one_step_and_its_excess_in_two(self, lanczos_steps):
        # The row-blocked G v must leave the step counts of the plain product.
        u = phase_dft(4096, np.random.default_rng(25))
        verdict = normalisation([u])
        assert verdict.deterministic and verdict.excess is None
        assert len(lanczos_steps) == 1
        lanczos_steps.clear()
        u[:, 0] *= np.sqrt(1 + 1e-6)  # G = diag(1 + 1e-6, 1, ..., 1), in place: no second copy
        verdict = normalisation([u])
        assert not verdict.deterministic and abs(verdict.excess - 1e-6) < 1e-12
        assert len(lanczos_steps) == 2

    def test_gapless_subnormalised_spectrum_with_one_excess_rejected(self):
        d = 1024
        s = np.sqrt(np.linspace(0.0, 1.0, d))
        s[-1] = np.sqrt(1 + 1e-6)
        k = haar_unitary(d, np.random.default_rng(1)) * s
        assert gram_oracle([k])[-1] > 1 + COMPLETENESS_TOL
        assert gram_top_eigenvalue([k]) > 1 + COMPLETENESS_TOL

    def test_unitary_accepted_with_an_upper_bound(self):
        u = haar_unitary(512, np.random.default_rng(2))
        exact = gram_oracle([u])
        top = gram_top_eigenvalue([u])
        assert exact[-1] - 1e-12 <= top <= 1 + COMPLETENESS_TOL
        defect = gram_identity_defect([u])
        assert np.abs(exact - 1).max() - 1e-12 <= defect <= COMPLETENESS_TOL
        assert unitary_kraus(u).is_deterministic

    def test_complete_two_outcome_set_accepted(self):
        ks = random_complete_kraus(300, 2, np.random.default_rng(3))
        exact = gram_oracle(ks.operators)
        ks.validate()
        assert ks.is_deterministic
        assert epistemic_of(ks).is_trace_preserving()
        assert np.abs(exact - 1).max() - 1e-12 <= ks.completeness_defect() <= COMPLETENESS_TOL

    def test_subnormalised_direction_breaks_determinism(self):
        ks = random_complete_kraus(300, 2, np.random.default_rng(4))
        shrink = np.ones(300)
        shrink[0] = np.sqrt(1 - 1e-6)  # the gram becomes diag(1 - 1e-6, 1, ..., 1)
        sub = KrausSet(tuple(k * shrink for k in ks.operators))
        exact = gram_oracle(sub.operators)
        assert exact[0] < 1 - COMPLETENESS_TOL and exact[-1] <= 1 + COMPLETENESS_TOL
        sub.validate()
        assert not sub.is_deterministic
        assert COMPLETENESS_TOL < sub.completeness_defect() <= np.abs(exact - 1).max() + 1e-12
        assert not epistemic_of(sub).is_trace_preserving()

    def test_noisy_unitary_settles_in_a_few_lanczos_steps(self, lanczos_steps):
        # G - I of size 1e-12, as floating-point unitaries have; the
        # residual alone stays too large for the sqrt(d/p) factor.
        rng = np.random.default_rng(5)
        d = 1024
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T, ord=2)
        k = haar_unitary(d, rng) @ (np.eye(d) + 1e-12 * h)
        assert gram_top_eigenvalue([k]) <= 1 + COMPLETENESS_TOL
        assert gram_identity_defect([k]) <= COMPLETENESS_TOL
        assert len(lanczos_steps) <= 6  # no dense fallback
        assert np.abs(gram_oracle([k]) - 1).max() < 1e-11

    def test_agrees_with_oracle_on_random_small_sets(self):
        rng = np.random.default_rng(6)
        for d, n, scale in [(2, 1, 1.0), (2, 3, 0.7), (3, 2, 1.0), (4, 2, 1 + 1e-7), (5, 4, 0.999)]:
            ks = random_complete_kraus(d, n, rng)
            ops = tuple(scale ** 0.5 * k for k in ks.operators)
            exact = gram_oracle(ops)
            defect = np.abs(exact - 1).max()
            assert abs(gram_identity_defect(ops) - defect) < 1e-12
            assert abs(KrausSet(ops).completeness_defect() - defect) < 1e-12
            assert abs(gram_top_eigenvalue(ops) - exact[-1]) < 1e-12
            for tol in (1e-9, COMPLETENESS_TOL, 1e-3):
                assert CpMap(ops).is_trace_preserving(tol) == (defect <= tol)


def verdict_circuit(d):
    """A chain on one d-dimensional wire: one node per verdict."""
    rng = np.random.default_rng(d)
    shrink = haar_unitary(d, rng)
    shrink[:, 0] *= np.sqrt(1 - 1e-6)
    overflow = haar_unitary(d, rng)
    overflow[0, 0] = 1e308
    nodes = {
        "prep": (np.eye(d, 1, dtype=complex),),
        "unit": (haar_unitary(d, rng),),
        "excess": (trace_increasing(d),),
        "shrink": (shrink,),
        "split": random_complete_kraus(d, 2, rng).operators,
        "noisy": ((1 + 1e-9) * haar_unitary(d, rng),),
        "overflow": (overflow,),
    }
    labels = list(nodes)
    tests = [TestNode(lbl, () if lbl == "prep" else ("R",), ("R",),
                      tuple(Event(str(j), (k,)) for j, k in enumerate(ops)))
             for lbl, ops in nodes.items()]
    wires = [WireSpec(a, 0, b, 0) for a, b in zip(labels, labels[1:])]
    return Circuit("verdicts", {"R": System("R", d)}, tests, wires), nodes


class TestOneVerdict:
    @pytest.mark.parametrize("d", [256, 257])
    def test_validate_dag_agrees_with_the_kraus_set(self, d):
        circuit, nodes = verdict_circuit(d)
        report = validate_dag(circuit)
        for i, (label, ops) in enumerate(nodes.items()):
            errors = [e for e in report.errors if e.startswith(f"node {label!r}")]
            try:
                verdict = KrausSet(ops).validate()
            except ValueError as exc:
                assert len(errors) == 1
                if "not finite" in str(exc):
                    assert "sum K^dag K is not finite" in errors[0]
                else:
                    assert errors[0].split(" - 1 = ")[1] == str(exc).split(" - 1 = ")[1]
            else:
                assert errors == []
                assert verdict.deterministic == KrausSet(ops).is_deterministic
            subset = tuple(range(len(ops)))
            assert ((i, subset) in report.deterministic) == KrausSet(ops).is_deterministic
        assert [e.split("'")[1] for e in report.errors] == ["excess", "overflow"]
        assert report.deterministic == {(0, (0,)), (1, (0,)), (4, (0, 1)), (5, (0,))}

    def test_complete_test_runs_one_spectrum(self, monkeypatch):
        calls = []
        spectra = linalg._gram_spectra
        monkeypatch.setattr(linalg, "_gram_spectra",
                            lambda sets, lower, upper: calls.append(len(sets)) or spectra(sets, lower, upper))
        for k in (KrausSet((np.diag([0.6, 0.3]).astype(complex),)), random_complete_kraus(300, 2)):
            calls.clear()
            complete_test(k)
            assert calls == [1]

    @pytest.mark.parametrize("d", [2, 257])
    @pytest.mark.parametrize("scale,excess,deterministic", [
        (1 + 1.5e-8, 1.5e-8, False), (1 + 0.5e-8, None, True),
        (1 - 0.5e-8, None, True), (1 - 1.5e-8, None, False),
    ])
    def test_verdicts_at_the_tolerance(self, d, scale, excess, deterministic):
        k = np.eye(d, dtype=complex)
        k[0, 0] = np.sqrt(scale)  # G = diag(scale, 1, ..., 1)
        verdict = normalisation([k])
        assert verdict.finite and verdict.deterministic == deterministic
        assert (verdict.excess is None) == (excess is None)
        assert excess is None or abs(verdict.excess - excess) < 1e-12

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        circuit, _ = verdict_circuit(2)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            normalisation([np.eye(2)], tol)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            validate_dag(circuit, tol=tol)
        assert normalisation([np.eye(2)], 0.0).deterministic


@pytest.mark.parametrize("call", [
    lambda: CpMap(()).is_trace_preserving(),
    lambda: epistemic_of([]).is_trace_preserving(),
    lambda: gram_top_eigenvalue([]),
    lambda: gram_identity_defect([np.eye(2), np.eye(3)]),
    lambda: gram_top_eigenvalue([np.eye(300), np.ones((300, 301))]),
    lambda: CpMap((np.ones(2),)).is_trace_preserving(),
])
def test_empty_or_mismatched_operators_are_named(call):
    with pytest.raises(ValueError, match="needs one or more matrices of one input dimension"):
        call()
