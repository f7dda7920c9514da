import itertools
import math

import numpy as np
import pytest

from onticsim.classical import (
    apply_markov,
    compose_markov,
    dephase,
    embed_classical,
    is_classical_state,
    is_permutation_matrix,
    is_reversible_markov,
    is_stochastic,
    is_substochastic,
)
from onticsim.linalg import haar_unitary
from onticsim.quantum import KrausSet, epistemic_of

RNG = np.random.default_rng(55)


def random_substochastic(n, rng=RNG, deterministic=False):
    m = rng.random((n, n))
    m = m / m.sum(axis=0)
    if not deterministic:
        m = m * rng.uniform(0.2, 1.0, size=n)
    return m


class TestApplyMarkov:
    def test_identity(self):
        x = np.array([0.3, 0.7])
        assert np.allclose(apply_markov(np.eye(2), x), x)

    def test_permutation_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(apply_markov(swap, np.array([1.0, 0.0])), [0.0, 1.0])

    def test_chain_matches_path_enumeration(self):
        rng = np.random.default_rng(8)
        mats = [random_substochastic(4, rng) for _ in range(3)]
        x = np.array([0.4, 0.3, 0.2, 0.1])
        out = x
        for m in mats:
            out = apply_markov(m, out)
        # Brute force: sum over all intermediate outcome paths.
        expected = np.zeros(4)
        for j0, j1, j2, j3 in itertools.product(range(4), repeat=4):
            expected[j3] += mats[2][j3, j2] * mats[1][j2, j1] * mats[0][j1, j0] * x[j0]
        assert np.allclose(out, expected, atol=1e-12)

    def test_substochasticity_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = random_substochastic(3, rng)
            x = rng.dirichlet(np.ones(3)) * rng.uniform(0.1, 1.0)
            y = apply_markov(m, x)
            assert is_classical_state(y)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_markov(np.eye(3), np.array([0.5, 0.5]))


class TestComposition:
    def test_composition_substochastic(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_substochastic(4, rng), random_substochastic(4, rng)
            assert is_substochastic(compose_markov(a, b))

    def test_stochastic_composition_stochastic(self):
        rng = np.random.default_rng(3)
        a = random_substochastic(3, rng, deterministic=True)
        b = random_substochastic(3, rng, deterministic=True)
        assert is_stochastic(compose_markov(a, b))


class TestReversibility:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_search_finds_exactly_permutations(self, n):
        """Exhaust all deterministic (0/1 column) maps plus random noise.

        Among the n^n deterministic transition matrices, exactly the n!
        permutations have a substochastic inverse; random substochastic
        matrices never qualify unless they are permutations.
        """
        reversible = []
        for cols in itertools.product(range(n), repeat=n):
            m = np.zeros((n, n))
            for j, i in enumerate(cols):
                m[i, j] = 1.0
            if is_reversible_markov(m):
                reversible.append(cols)
        assert len(reversible) == math.factorial(n)
        for cols in reversible:
            assert len(set(cols)) == n  # a bijection

        rng = np.random.default_rng(n)
        for _ in range(300):
            m = random_substochastic(n, rng)
            assert is_reversible_markov(m) == is_permutation_matrix(m)

    def test_permutation_detector(self):
        assert is_permutation_matrix(np.eye(3)[:, [2, 0, 1]])
        assert not is_permutation_matrix(np.full((2, 2), 0.5))


class TestQuantumClassicalConversion:
    def test_dephase_plus_state(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(dephase(np.outer(plus, plus)), [0.5, 0.5])

    def test_dephase_basis_state(self):
        assert np.allclose(dephase(np.diag([1.0, 0.0])), [1.0, 0.0])

    def test_dephase_random_basis_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = x @ x.conj().T
        rho = rho / np.trace(rho)
        u = haar_unitary(3, rng)
        basis = [u[:, i] for i in range(3)]
        got = dephase(rho, basis)
        expected = [np.real(np.vdot(b, rho @ b)) for b in basis]
        assert np.allclose(got, expected, atol=1e-12)

    def test_dephase_in_haar_bases_matches_einsum_oracle(self):
        """One matrix product, against the three-operand einsum it replaced."""
        rng = np.random.default_rng(64)
        for d in range(2, 65):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = x @ x.conj().T
            rho = rho / np.trace(rho)
            u = haar_unitary(d, rng)
            want = np.real(np.einsum("id,ij,jd->d", u.conj(), rho, u))
            got = dephase(rho, list(u.T))
            assert np.abs(got - np.clip(want, 0.0, None)).max() <= 1e-12, d

    def test_dephase_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            dephase(np.eye(2) / 2, [np.array([1, 0]), np.array([1, 0])])

    def test_embed_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.dirichlet(np.ones(4))
            assert np.allclose(dephase(embed_classical(x)), x, atol=1e-14)

    def test_embed_examples(self):
        assert np.allclose(embed_classical([1.0, 0.0]), np.diag([1, 0]))
        assert np.allclose(embed_classical([0.5, 0.5]), np.eye(2) / 2)

    def test_dephase_after_measurement_channel_idempotent(self):
        """Extracting classical data commutes with the measuring channel."""
        p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
        chan = epistemic_of(KrausSet((p0, p1)))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = x @ x.conj().T
        rho = rho / np.trace(rho)
        assert np.allclose(dephase(chan(rho)), dephase(rho), atol=1e-12)
