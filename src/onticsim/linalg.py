"""Dense complex linear algebra over finite-dimensional composite systems.

Everything in this module is a pure function over immutable numpy inputs:
tensor products, partial traces, Schmidt decompositions, Bloch coordinates
and ``_gram_spectra``, the one certified check of sum K^dag K behind every
contraction, orthonormal-basis and Kraus-normalisation verdict. All other
modules build on these primitives, the named gates and the shared
numerical tolerances defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

# Shared tolerances. Chosen for double precision with operators up to a few
# thousand dimensions: algebraic identities hold to ~1e-12 there, so these
# leave an order of magnitude of slack.
TAU_NUM = 1e-10     # algebraic identities
TAU_NORM = 1e-9     # state normalization
TAU_RANK = 1e-8     # Schmidt-rank cutoff
TAU_PURE = 1e-8     # purity threshold for factorization checks
TAU_SIC = 1e-9      # pairwise-fidelity check of symmetric frames

#: Default cap on composite dimension (12 qubits). Guards against building
#: dense operators that cannot fit in commodity RAM.
MAX_DIM = 4096


class DimensionError(ValueError):
    """Composite dimension exceeds the configured cap, or shapes mismatch."""


@dataclass(frozen=True)
class SystemShape:
    """Ordered local dimensions of the tensor factors of a composite system."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        if not self.factor_dims or any(d < 1 for d in self.factor_dims):
            raise ValueError(f"factor dims must be positive, got {self.factor_dims}")

    @property
    def dim(self) -> int:
        return prod(self.factor_dims)

    def __len__(self) -> int:
        return len(self.factor_dims)


def as_shape(shape) -> SystemShape:
    """Coerce a SystemShape or a plain sequence of dims to a SystemShape."""
    if isinstance(shape, SystemShape):
        return shape
    return SystemShape(tuple(int(d) for d in shape))


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _as_vector(a) -> np.ndarray:
    v = np.asarray(a, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def tensor_product(a, b, *, max_dim: int = MAX_DIM) -> np.ndarray:
    """Kronecker product of two matrices (vectors are treated as columns)."""
    am, bm = np.atleast_2d(np.asarray(a, dtype=complex)), np.atleast_2d(np.asarray(b, dtype=complex))
    if am.shape[0] * bm.shape[0] > max_dim or am.shape[1] * bm.shape[1] > max_dim:
        raise DimensionError(
            f"tensor product of {am.shape} and {bm.shape} exceeds max dimension {max_dim}"
        )
    return np.kron(am, bm)


def tensor_many(factors, *, max_dim: int = MAX_DIM) -> np.ndarray:
    """Kronecker product of a nonempty sequence of matrices, left to right."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    out = np.atleast_2d(np.asarray(factors[0], dtype=complex))
    for f in factors[1:]:
        out = tensor_product(out, f, max_dim=max_dim)
    return out


def partial_trace(rho, shape, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``keep`` is a set of factor indices; the result is ordered by ascending
    index. The full trace is preserved: Tr(result) == Tr(rho).
    """
    rho = _as_matrix(rho)
    dims = as_shape(shape).factor_dims
    n = len(dims)
    if rho.shape != (prod(dims), prod(dims)):
        raise DimensionError(f"rho shape {rho.shape} inconsistent with factor dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"keep indices {keep} out of range for {n} factors")
    t = rho.reshape(dims + dims)
    # Contract row/column axes of each traced factor, highest index first so
    # the remaining axis numbers stay valid.
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d_keep = prod(dims[k] for k in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


def schmidt_decompose(psi, shape) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Schmidt decomposition of a normalized bipartite vector.

    ``shape`` must describe exactly two blocks (d_left, d_right). Returns
    descending coefficients > TAU_RANK and the matching left/right unit
    vectors, so that psi = sum_i c_i |l_i>|r_i> up to global phase.
    """
    psi = _as_vector(psi)
    dims = as_shape(shape).factor_dims
    if len(dims) != 2:
        raise ValueError(f"need a bipartition, got {len(dims)} blocks")
    if psi.size != prod(dims):
        raise DimensionError(f"vector of dim {psi.size} inconsistent with {dims}")
    if abs(np.linalg.norm(psi) - 1.0) > TAU_NORM:
        raise ValueError(f"input not normalized: |psi| = {np.linalg.norm(psi)}")
    u, s, vh = np.linalg.svd(psi.reshape(dims), full_matrices=False)
    rank = int(np.sum(s > TAU_RANK))
    rank = max(rank, 1)
    coeffs = s[:rank]
    lefts = [u[:, i].copy() for i in range(rank)]
    rights = [vh[i, :].copy() for i in range(rank)]
    return coeffs, lefts, rights


def schmidt_rank(psi, shape) -> int:
    coeffs, _, _ = schmidt_decompose(psi, shape)
    return int(np.sum(coeffs > TAU_RANK))


_DENSE_GRAM_DIM = 256  # above this, spectral checks run matrix-free Lanczos
_LANCZOS_STEPS = 60
_LANCZOS_SEED = 7
_START_FAILURE_PROB = 1e-9  # chance that the random start hides an extreme eigenvector
_GRAM_BLOCK_BYTES = 2**20  # row blocks of K that stay in cache between their two products


def _apply_gram(ops, v: np.ndarray) -> np.ndarray:
    # G v = conj(sum K^T conj(K v)): transposes are views, so no large
    # conjugate matrix is ever materialized. Each row block kb of about
    # 1 MiB is used for kb v and then for kb^T while it is still in cache,
    # so each call reads K from memory once. Row blocks of an operator that
    # is not row-major are strided and slower, so it is one block.
    out = np.zeros(v.shape, dtype=complex)
    for k in ops:
        rows = max(1, _GRAM_BLOCK_BYTES // (16 * k.shape[1])) if k.flags.c_contiguous else len(k)
        for i in range(0, len(k), rows):
            kb = k[i:i + rows]
            out += kb.T @ np.conj(kb @ v)
    return np.conj(out)


def _certified_edge(ritz: np.ndarray, log_norm: float) -> float:
    """Smallest t >= max(ritz) with prod(t - ritz) >= exp(log_norm), by
    bisection; the product grows monotonically above the top Ritz value."""
    lo = float(ritz[-1])
    hi = lo + float(np.exp(log_norm / len(ritz)))  # prod >= (t - max)^k already
    with np.errstate(divide="ignore"):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.log(mid - ritz).sum() >= log_norm:
                hi = mid
            else:
                lo = mid
    return hi


def _lanczos_spectrum(ops, lower: float, upper: float) -> tuple[float, float]:
    """``_gram_spectra`` of one set above d = 256."""
    d = ops[0].shape[1]
    bottom = top = None
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.normal(size=d) + 1j * rng.normal(size=d)
    q /= np.linalg.norm(q)
    log_norm = 0.5 * np.log(d / _START_FAILURE_PROB)  # log of prod beta_j * sqrt(d/p)
    basis = np.empty((_LANCZOS_STEPS, d), dtype=complex)
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(_LANCZOS_STEPS):
        basis[j] = q
        w = _apply_gram(ops, q)
        alpha.append(float(np.vdot(q, w).real))
        done = basis[:j + 1]
        for _ in range(2):  # full reorthogonalisation, twice for stability
            w -= done.T @ (done.conj() @ w)
        b = float(np.linalg.norm(w))
        if not np.isfinite(alpha[-1] + b):
            return np.nan, np.nan
        ritz = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        if top is None and ritz[-1] > upper:
            top = float(ritz[-1])
        if bottom is None and ritz[0] < lower:
            bottom = float(ritz[0])
        with np.errstate(divide="ignore"):  # beta = 0: an exact invariant subspace
            log_norm += np.log(b)
            if top is None and np.log(upper - ritz).sum() >= log_norm:
                top = _certified_edge(ritz, log_norm)
            if bottom is None and np.log(ritz - lower).sum() >= log_norm:
                bottom = -_certified_edge(-ritz[::-1], log_norm)
        if top is not None and bottom is not None:
            return bottom, top
        beta.append(b)
        q = w / b
    gram = sum(k.conj().T @ k for k in ops)
    if not np.isfinite(gram).all():
        return np.nan, np.nan
    w = np.linalg.eigvalsh(gram)
    return (float(w[0]) if bottom is None else bottom), (float(w[-1]) if top is None else top)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite G reads as NaN, below
def _gram_spectra(sets, lower: float, upper: float) -> list[tuple[float, float]]:
    """Bounds (bottom, top) on the extreme eigenvalues of G = sum K^dag K,
    per set of operators K, each resolved until it settles its own side of
    [lower, upper].

    Up to d = 256 both are exact: each set's G is formed, and one dense
    eigvalsh runs on the stacked Gs of each size, which gives the bits of
    one call per G. Above, G is applied as K^dag (K v) in a Lanczos
    recurrence with full reorthogonalisation from a seeded uniformly random
    unit start q1, one set at a time. Each K is applied in row blocks of
    about 1 MiB, each read from memory once per step; an operator that is
    not row-major is one block. After k steps with Ritz values theta_j and
    residual norms beta_j, each side is fixed at its first verdict:

    * out: theta_max > upper (top) or theta_min < lower (bottom). Ritz
      values lie inside [lambda_min, lambda_max], so this verdict is
      certain; the Ritz value is the bound.
    * in: prod_j (upper - theta_j) (top) or prod_j (theta_j - lower)
      (bottom) is at least prod_j beta_j * sqrt(d/p), with p = 1e-9. The
      Lanczos vector q_{k+1} is chi(G) q1 / prod_j beta_j, where
      chi(t) = prod_j (t - theta_j) grows monotonically above theta_max,
      so an eigenvector u with eigenvalue above upper would give
      |<u, q1>| < sqrt(p/d), and P(|<u, q1>|^2 < p/d) <= p for a uniform
      start; likewise below lower. At k = 1 this is
      theta + beta*sqrt(d/p) <= upper. The bound is the point where the
      product reaches that level.

    The recurrence stops once both sides are fixed, so with lower = -inf it
    stops at the top side's verdict. A side that ``_LANCZOS_STEPS`` steps
    leave open takes the exact value from the dense eigvalsh of the formed G.

    Both bounds are NaN when the recurrence or the formed G meets a value
    that is not finite: an operator entry that is NaN or infinite, or one
    such as 1e308 whose square overflows. No verdict holds then, and NaN
    fails every comparison, so callers test for it.
    """
    sets = [[np.asarray(k, dtype=complex) for k in ops] for ops in sets]
    for ops in sets:
        if not ops or any(k.ndim != 2 for k in ops) or len({k.shape[1] for k in ops}) != 1:
            raise ValueError("sum K^dag K needs one or more matrices of one input dimension, "
                             f"got shapes {sorted({k.shape for k in ops})}")
    spectra: list = [(np.nan, np.nan)] * len(sets)
    grams: dict[int, list] = {}  # d -> (set index, G), d <= 256
    for j, ops in enumerate(sets):
        if ops[0].shape[1] > _DENSE_GRAM_DIM:
            spectra[j] = _lanczos_spectrum(ops, lower, upper)
        else:
            grams.setdefault(ops[0].shape[1], []).append((j, sum(k.conj().T @ k for k in ops)))
    for same_size in grams.values():
        stack = np.stack([g for _, g in same_size])
        finite = np.isfinite(stack).all(axis=(1, 2))
        ids = [j for (j, _), ok in zip(same_size, finite) if ok]
        for j, w in zip(ids, np.linalg.eigvalsh(stack if finite.all() else stack[finite])):
            spectra[j] = float(w[0]), float(w[-1])
    return spectra


def is_contraction(x, *, tol: float = TAU_NUM) -> tuple[bool, float]:
    """Whether the largest singular value of ``x`` is <= 1 (within tol).

    Decided as lambda_max(X^dag X) <= (1 + tol)^2 by ``_gram_spectra``;
    returns (verdict, sigma_max). sigma_max is exact up to d = 256 and,
    above, a certified bound on the same side of 1 + tol as the true one.
    """
    x = _as_matrix(x)
    top = _gram_spectra([[x]], -np.inf, (1.0 + tol) ** 2)[0][1] if x.size else 0.0
    return bool(top <= (1.0 + tol) ** 2), float(np.sqrt(max(top, 0.0)))


#: Named gates of the DSL and the gallery; X, Y and Z are the Pauli matrices.
GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}
GATES["CX"] = GATES["CNOT"]


def bloch_coordinates(psi) -> tuple[float, float, float]:
    """(<sx>, <sy>, <sz>) of a normalized qubit state vector."""
    psi = _as_vector(psi)
    if psi.size != 2:
        raise DimensionError(f"Bloch coordinates need a qubit, got dim {psi.size}")
    if abs(np.linalg.norm(psi) - 1.0) > TAU_NORM:
        raise ValueError("input not normalized")
    return tuple(float(np.real(np.vdot(psi, p @ psi))) for p in map(GATES.get, "XYZ"))


def bloch_projectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors onto the +/- eigenstates along a Bloch direction."""
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    op = n[0] * GATES["X"] + n[1] * GATES["Y"] + n[2] * GATES["Z"]
    eye = np.eye(2, dtype=complex)
    return (eye + op) / 2, (eye - op) / 2


def canonical_phase(psi, *, tol: float = TAU_RANK) -> np.ndarray:
    """Rotate the global phase so the first non-negligible amplitude is real >= 0."""
    psi = _as_vector(psi)
    for a in psi:
        if abs(a) > tol:
            return psi * (abs(a) / a)
    return psi.copy()


def states_equal(a, b, *, tol: float = TAU_NUM) -> bool:
    """Equality of two state vectors up to global phase."""
    a, b = _as_vector(a), _as_vector(b)
    if a.shape != b.shape:
        return False
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < tol or nb < tol:
        return na < tol and nb < tol
    return bool(abs(abs(np.vdot(a, b)) / (na * nb) - 1.0) <= tol)


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: normalized complex Gaussian amplitudes."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(d_in: int, d_out: int, rng: np.random.Generator) -> np.ndarray:
    """Random isometry V (d_out x d_in), V^dag V = I. Requires d_out >= d_in.
    V is a C-contiguous copy of the first d_in columns of a Haar unitary, so
    it does not keep the whole unitary alive."""
    if d_out < d_in:
        raise DimensionError(f"no isometry from dim {d_in} into dim {d_out}")
    return np.ascontiguousarray(haar_unitary(d_out, rng)[:, :d_in])
