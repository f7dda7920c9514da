import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticsim import linalg
from onticsim.linalg import (
    DimensionError,
    SystemShape,
    TAU_NUM,
    bloch_coordinates,
    canonical_phase,
    haar_state,
    haar_unitary,
    is_contraction,
    partial_trace,
    random_isometry,
    schmidt_decompose,
    schmidt_rank,
    states_equal,
    tensor_many,
    tensor_product,
)
from test_quantum import random_complete_kraus

RNG = np.random.default_rng(1234)


def random_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def kron_oracle(a, b):
    """Direct double-loop Kronecker definition."""
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k, j * bc + l] = a[i, j] * b[k, l]
    return out


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_vectors(self):
        zero = np.array([[1], [0]])
        one = np.array([[0], [1]])
        assert np.array_equal(tensor_product(zero, one).ravel(), [0, 1, 0, 0])

    def test_matches_elementwise_definition(self):
        a = random_complex((2, 3))
        b = random_complex((4, 5))
        assert np.allclose(tensor_product(a, b), kron_oracle(a, b), atol=0)

    def test_associative(self):
        a, b, c = random_complex((2, 2)), random_complex((3, 3)), random_complex((2, 2))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.abs(left - right).max() < TAU_NUM

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            tensor_product(np.eye(100), np.eye(100), max_dim=1000)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3), st.integers(2, 3))
    def test_mixed_product_property(self, da, db, dc, dd):
        rng = np.random.default_rng(da * 1000 + db * 100 + dc * 10 + dd)
        a = random_complex((da, dc), rng)
        b = random_complex((db, dd), rng)
        c = random_complex((dc, da), rng)
        d = random_complex((dd, db), rng)
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-9


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(rho, (2, 2), keep=[0]), np.eye(2) / 2, atol=TAU_NUM)

    def test_product_state(self):
        a = random_complex((2, 2))
        a = a @ a.conj().T
        b = random_complex((3, 3))
        b = b @ b.conj().T
        got = partial_trace(np.kron(a, b), (2, 3), keep=[0])
        assert np.allclose(got, a * np.trace(b), atol=1e-10)

    def test_matches_index_sum_oracle(self):
        rho = random_complex((9, 9))
        rho = rho @ rho.conj().T
        # sum_i <i|_B rho |i>_B computed index by index
        expected = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for a in range(3):
                for b in range(3):
                    expected[a, b] += rho[a * 3 + i, b * 3 + i]
        assert np.allclose(partial_trace(rho, (3, 3), keep=[0]), expected, atol=1e-12)

    def test_trace_preserved_and_full_trace(self):
        rho = random_complex((12, 12))
        rho = rho @ rho.conj().T
        reduced = partial_trace(rho, (2, 3, 2), keep=[1])
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-9
        everything = partial_trace(rho, (2, 3, 2), keep=[])
        assert abs(everything[0, 0] - np.trace(rho)) < 1e-9

    def test_keep_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4), (2, 2), keep=[2])


class TestSchmidt:
    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        coeffs, lefts, rights = schmidt_decompose(bell, (2, 2))
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=TAU_NUM)

    def test_product_state_rank_one(self):
        zero = np.array([1, 0])
        plus = np.array([1, 1]) / np.sqrt(2)
        psi = np.kron(zero, plus)
        coeffs, _, _ = schmidt_decompose(psi, (2, 2))
        assert len(coeffs) == 1 and abs(coeffs[0] - 1) < TAU_NUM
        assert schmidt_rank(psi, (2, 2)) == 1

    def test_coefficients_match_marginal_eigenvalues(self):
        psi = haar_state(12, np.random.default_rng(7))
        coeffs, _, _ = schmidt_decompose(psi, (4, 3))
        # Oracle: eigenvalues of the left marginal, computed independently.
        mat = psi.reshape(4, 3)
        marginal = mat @ mat.conj().T
        eigs = np.sort(np.linalg.eigvalsh(marginal))[::-1][:len(coeffs)]
        assert np.allclose(np.sort(coeffs ** 2)[::-1], eigs, atol=1e-10)

    def test_reconstruction_many_random_states(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            da, db = int(rng.integers(2, 13)), int(rng.integers(2, 13))
            psi = haar_state(da * db, rng)
            coeffs, lefts, rights = schmidt_decompose(psi, (da, db))
            rebuilt = sum(
                c * np.kron(l, r) for c, l, r in zip(coeffs, lefts, rights)
            )
            assert states_equal(rebuilt, psi, tol=TAU_NUM)
            assert abs(np.sum(coeffs ** 2) - 1) < TAU_NUM

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.array([1.0, 1.0, 0, 0]), (2, 2))

    def test_requires_bipartition(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.ones(8) / np.sqrt(8), (2, 2, 2))


def power_iteration_sigma(x, iters=500):
    """Independent largest-singular-value estimate."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=x.shape[1])
    v = v / np.linalg.norm(v)
    m = x.conj().T @ x
    for _ in range(iters):
        v = m @ v
        v = v / np.linalg.norm(v)
    return float(np.sqrt(np.real(np.vdot(v, m @ v))))


class TestContraction:
    def test_unitary(self):
        u = haar_unitary(5, np.random.default_rng(2))
        ok, sigma = is_contraction(u)
        assert ok and abs(sigma - 1) < 1e-10

    def test_scaled_identity_fails(self):
        ok, sigma = is_contraction(2 * np.eye(2))
        assert not ok and abs(sigma - 2) < 1e-12

    def test_amplitude_damping_kraus(self):
        gamma = 0.3
        k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]])
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]])
        for k in (k0, k1):
            ok, sigma = is_contraction(k)
            assert ok
            assert abs(sigma - power_iteration_sigma(k)) < 1e-8

    def test_unitary_times_contraction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = haar_unitary(4, rng)
            x = random_complex((4, 4), rng)
            k = x / (np.linalg.norm(x, 2) * (1 + rng.random()))
            assert is_contraction(u @ k)[0]


def svd_sigma(x) -> float:
    """The oracle: the largest singular value from a dense SVD."""
    return float(np.linalg.svd(x, compute_uv=False)[0])


@functools.lru_cache(maxsize=None)
def cached_unitary(d: int) -> np.ndarray:
    return haar_unitary(d, np.random.default_rng(d))


def assert_same_side(ok, sigma, oracle, d, tol=TAU_NUM):
    """The verdict of the SVD oracle; sigma is exact up to d = 256 and,
    above, a bound between the oracle and the threshold 1 + tol."""
    assert ok == (oracle <= 1 + tol)
    if d <= 256:
        assert abs(sigma - oracle) < 1e-12
    elif ok:
        assert oracle - 1e-12 <= sigma <= 1 + tol
    else:
        assert 1 + tol < sigma <= oracle + 1e-12


class TestContractionAgainstSvd:
    @pytest.mark.parametrize("d", [2, 64, 256, 257, 1024])
    @pytest.mark.parametrize("scale", [1 - 1e-6, 1 + 1e-6])
    def test_scaled_unitary(self, d, scale, monkeypatch):
        x = scale * cached_unitary(d)
        shapes = []  # of every matrix a dense numpy.linalg routine is given
        for name in ("eigvalsh", "eigh", "svd", "norm"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, _fn=fn, **kw:
                                shapes.append(np.shape(a)) or _fn(a, *args, **kw))
        tracemalloc.start()
        try:
            ok, sigma = is_contraction(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert ok == (scale < 1)
        assert_same_side(ok, sigma, svd_sigma(x), d)
        if d > 256:  # matrix-free: no d x d decomposition, well under one d x d allocation
            assert all(len(shape) < 2 or max(shape) < d for shape in shapes)
            assert peak < x.nbytes / 2

    @pytest.mark.parametrize("d", [2, 64, 256])
    @pytest.mark.parametrize("scale", [1 + 0.5 * TAU_NUM, 1 + 2 * TAU_NUM])
    def test_tolerance_bounds_sigma_not_its_square(self, d, scale):
        x = scale * cached_unitary(d)
        ok, sigma = is_contraction(x)
        assert ok == (scale < 1 + TAU_NUM)
        assert_same_side(ok, sigma, svd_sigma(x), d)

    @pytest.mark.parametrize("d", [2, 64, 256, 257, 1024])
    def test_random_operators(self, d):
        rng = np.random.default_rng(40 + d)
        g = random_complex((d, d), rng)
        top = svd_sigma(g)
        for target in (0.5, 0.8, 1.25, 2.0):  # the oracle's sigma_max of g * target / top
            ok, sigma = is_contraction(g * (target / top))
            assert ok == (target < 1)
            assert_same_side(ok, sigma, target, d)
        k = g / (top * (1 + rng.random()))
        assert is_contraction(cached_unitary(d) @ k)[0]


def plain_gram_product(ops, v):
    """The oracle: G v as K^dag (K v) over whole operators, one read each."""
    return sum(np.conj(k.T @ np.conj(k @ v)) for k in ops)


def block_rows(k) -> int:
    """Rows per block of a row-major operator, as ``_apply_gram`` takes them."""
    return max(1, linalg._GRAM_BLOCK_BYTES // (16 * k.shape[1]))


class TestBlockedGram:
    """``_apply_gram``, row block by row block, against the plain product."""

    @pytest.mark.parametrize("case", ["switch", "ragged", "whole_blocks", "two_operators", "isometry"])
    def test_agrees_with_the_plain_product(self, case):
        rng = np.random.default_rng(70)
        ops = {
            "switch": lambda: [random_complex((257, 257), rng)],  # the dense/Lanczos switch
            "ragged": lambda: [random_complex((1000, 300), rng)],
            "whole_blocks": lambda: [random_complex((436, 300), rng)],
            "two_operators": lambda: list(random_complete_kraus(300, 2, rng).operators),
            "isometry": lambda: [random_isometry(300, 600, rng)],
        }[case]()
        assert all(k.flags.c_contiguous and len(k) > block_rows(k) for k in ops)
        if case in ("ragged", "whole_blocks"):
            assert (len(ops[0]) % block_rows(ops[0]) == 0) == (case == "whole_blocks")
        v = random_complex(ops[0].shape[1], rng)
        bound = 1e-13 * sum(np.linalg.norm(k, 2) ** 2 for k in ops) * np.linalg.norm(v)
        assert np.linalg.norm(linalg._apply_gram(ops, v) - plain_gram_product(ops, v)) <= bound

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_operator_that_is_not_row_major_is_one_block(self, layout):
        rng = np.random.default_rng(71)
        a = random_complex((600, 300), rng)
        k = np.asfortranarray(a) if layout == "fortran" else a[::2]
        assert not k.flags.c_contiguous and len(k) > block_rows(k)
        v = random_complex(300, rng)
        assert np.array_equal(linalg._apply_gram([k], v), plain_gram_product([k], v))


class TestBloch:
    @pytest.mark.parametrize(
        "state,expected",
        [
            ([1, 0], (0, 0, 1)),
            ([1 / np.sqrt(2), 1 / np.sqrt(2)], (1, 0, 0)),
            ([1 / np.sqrt(2), 1j / np.sqrt(2)], (0, 1, 0)),
        ],
    )
    def test_axes(self, state, expected):
        assert np.allclose(bloch_coordinates(np.array(state)), expected, atol=TAU_NUM)

    def test_unit_length(self):
        psi = haar_state(2, np.random.default_rng(5))
        x, y, z = bloch_coordinates(psi)
        assert abs(x * x + y * y + z * z - 1) < TAU_NUM

    def test_rejects_non_qubit(self):
        with pytest.raises(DimensionError):
            bloch_coordinates(np.ones(3) / np.sqrt(3))


class TestPhase:
    def test_canonical_phase_first_amplitude_real(self):
        psi = haar_state(4, np.random.default_rng(3))
        c = canonical_phase(psi)
        assert abs(c[0].imag) < 1e-12 and c[0].real >= 0
        assert states_equal(c, psi)

    def test_states_equal_up_to_phase(self):
        psi = haar_state(3, np.random.default_rng(4))
        assert states_equal(psi, np.exp(0.7j) * psi)
        assert not states_equal(psi, haar_state(3, np.random.default_rng(5)))


def test_system_shape_product():
    shape = SystemShape((2, 3, 2))
    assert shape.dim == 12 and len(shape) == 3
    with pytest.raises(ValueError):
        SystemShape((0, 2))


def test_tensor_many():
    mats = [random_complex((2, 2)) for _ in range(3)]
    expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.allclose(tensor_many(mats), expected)
