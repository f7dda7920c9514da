"""Quantum theory as an operational layer: Kraus sets, coarse-graining,
the Born rule for preparations, and the unitary-dilation realization of
deterministic tests.

Conventions: a transformation from an m-dimensional input to an
n-dimensional output is a list of n x m Kraus operators, one per outcome,
trace-nonincreasing overall (sum K^dag K <= I) and deterministic when the
sum equals the identity. States are transformations from the trivial
(1-dimensional) system, i.e. column operators; effects are rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, prod

import numpy as np

from .linalg import TAU_NUM, as_shape

COMPLETENESS_TOL = 1e-8  # rejection threshold on sigma_max(sum K^dag K) - 1


class SignatureError(ValueError):
    """Input/output dimensions of composed transformations do not match."""


@dataclass(frozen=True)
class KrausSet:
    """A typed transformation: one Kraus operator per outcome.

    ``in_dims``/``out_dims`` carry the tensor-factor structure of the input
    and output composite systems; scalar dimensions are their products.
    """

    operators: tuple[np.ndarray, ...]
    outcome_labels: tuple[str, ...] = ()
    in_dims: tuple[int, ...] = ()
    out_dims: tuple[int, ...] = ()

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise ValueError("a transformation needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise SignatureError("all Kraus operators must share one shape")
        object.__setattr__(self, "operators", ops)
        labels = self.outcome_labels or tuple(str(i) for i in range(len(ops)))
        if len(labels) != len(ops):
            raise ValueError("one outcome label per operator")
        object.__setattr__(self, "outcome_labels", tuple(labels))
        in_dims = self.in_dims or (shape[1],)
        out_dims = self.out_dims or (shape[0],)
        if prod(in_dims) != shape[1] or prod(out_dims) != shape[0]:
            raise SignatureError(
                f"declared dims {in_dims}->{out_dims} inconsistent with operator shape {shape}"
            )
        object.__setattr__(self, "in_dims", tuple(in_dims))
        object.__setattr__(self, "out_dims", tuple(out_dims))

    @property
    def in_dim(self) -> int:
        return self.operators[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def is_atomic(self) -> bool:
        return len(self.operators) == 1

    def completeness(self) -> np.ndarray:
        """sum_i K_i^dag K_i."""
        return sum(k.conj().T @ k for k in self.operators)

    def completeness_defect(self) -> float:
        """sigma_max distance of sum K^dag K from the identity (see
        ``gram_identity_defect``)."""
        return gram_identity_defect(self.operators)

    @property
    def is_deterministic(self) -> bool:
        return self.completeness_defect() <= COMPLETENESS_TOL

    def validate(self) -> None:
        """Raise unless trace-nonincreasing: sum K^dag K <= I."""
        top = gram_top_eigenvalue(self.operators)
        if np.isnan(top):
            raise ValueError("sum K^dag K is not finite")
        if top > 1.0 + COMPLETENESS_TOL:
            raise ValueError(
                f"trace-increasing transformation: sigma_max(sum K^dag K) - 1 = {top - 1.0:.3g}"
            )


def unitary_kraus(u, label: str = "0", **dims) -> KrausSet:
    return KrausSet((np.asarray(u, dtype=complex),), (label,), **dims)


_DENSE_GRAM_DIM = 256  # above this, spectral checks run matrix-free Lanczos
_LANCZOS_STEPS = 60
_LANCZOS_SEED = 7
_START_FAILURE_PROB = 1e-9  # chance that the random start hides an extreme eigenvector


def _apply_gram(ops, v: np.ndarray) -> np.ndarray:
    # K^dag u computed as conj(K^T conj(u)): transposes are views, so no
    # large conjugate matrix is ever materialized.
    return sum(np.conj(k.T @ np.conj(k @ v)) for k in ops)


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite G reads as NaN, below
def _gram_spectrum(operators, lower: float, upper: float) -> tuple[float, float]:
    """Bounds (bottom, top) on the extreme eigenvalues of G = sum K^dag K,
    each resolved until it settles its own side of [lower, upper].

    Up to d = 256 both are exact (dense eigvalsh). Above, G is applied as
    K^dag (K v) in a Lanczos recurrence with full reorthogonalisation from
    a seeded uniformly random unit start q1. After k steps with Ritz values
    theta_j and residual norms beta_j, each side is fixed at its first
    verdict:

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
    ops = [np.asarray(k, dtype=complex) for k in operators]
    d = ops[0].shape[1]
    bottom = top = None
    if d > _DENSE_GRAM_DIM:
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


def gram_top_eigenvalue(operators, *, tol: float = COMPLETENESS_TOL) -> float:
    """Largest eigenvalue of G = sum K^dag K, as far as the trace-nonincreasing
    verdict ``lambda_max <= 1 + tol`` needs it.

    The result is on the same side of 1 + tol as lambda_max:

    * d <= 256, or when 60 Lanczos steps settle nothing: the exact
      eigenvalue from a dense eigvalsh of G.
    * d > 256, rejected: the top Ritz value, a certain lower bound on
      lambda_max above 1 + tol.
    * d > 256, accepted: an upper bound on lambda_max, at most 1 + tol. It
      is the point t >= theta_max where prod_j (t - theta_j) reaches
      prod_j beta_j * sqrt(d/p) over the Ritz values theta_j and Lanczos
      residual norms beta_j; after one step, theta + beta*sqrt(d/p). The
      bound is wrong with probability at most p = 1e-9 over the random
      Lanczos start (seeded, so verdicts are reproducible).

    No d x d matrix is formed unless the dense eigvalsh runs.
    """
    return _gram_spectrum(operators, -np.inf, 1.0 + tol)[1]


def gram_identity_defect(operators, *, tol: float = COMPLETENESS_TOL) -> float:
    """Spectral radius of G - I, the distance from determinism, as far as
    the verdict ``defect <= tol`` needs it.

    Same rules as ``gram_top_eigenvalue``, applied to both the top and the
    bottom eigenvalue of G; an acceptance above d = 256 is wrong with
    probability at most 2p.
    """
    bottom, top = _gram_spectrum(operators, 1.0 - tol, 1.0 + tol)
    return max(top - 1.0, 1.0 - bottom)


def apply_atomic(k: KrausSet, psi) -> tuple[np.ndarray, float]:
    """Apply a single-Kraus transformation to a state vector.

    Returns the unnormalized output vector and its squared norm, which is
    the outcome's probability weight when psi is normalized.
    """
    if not k.is_atomic:
        raise ValueError("apply_atomic needs an atomic (single-Kraus) transformation")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != k.in_dim:
        raise SignatureError(f"state dim {psi.size} != input dim {k.in_dim}")
    out = k.operators[0] @ psi
    return out, float(np.real(np.vdot(out, out)))


@dataclass(frozen=True)
class CpMap:
    """Completely positive map rho -> sum_i K_i rho K_i^dag."""

    kraus_operators: tuple[np.ndarray, ...]

    def __call__(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.kraus_operators)

    def is_trace_preserving(self, tol: float = COMPLETENESS_TOL) -> bool:
        return gram_identity_defect(self.kraus_operators, tol=tol) <= tol


def epistemic_of(test) -> CpMap:
    """Coarse-graining of a test: the outcome-sum of all its event maps.

    Accepts a KrausSet or any object exposing per-outcome events with
    ``operators`` (circuit nodes qualify).
    """
    if isinstance(test, KrausSet):
        ops = test.operators
    elif hasattr(test, "events"):
        ops = tuple(np.asarray(k, dtype=complex) for ev in test.events for k in ev.operators)
    else:
        ops = tuple(np.asarray(k, dtype=complex) for k in test)
    return CpMap(ops)


def born_probability(t: KrausSet) -> float:
    """Preparation probability of a transformation from the trivial system.

    Equals the trace of the prepared (sub-normalized) density matrix, i.e.
    sum_i ||k_i||^2 for column Kraus operators.
    """
    if t.in_dim != 1:
        raise SignatureError("Born probability is defined for preparations (trivial input)")
    rho = sum(k @ k.conj().T for k in t.operators)
    return float(np.real(np.trace(rho)))


def is_density_matrix(rho, tol: float = TAU_NUM) -> bool:
    """Hermitian, positive within tolerance, trace <= 1 + tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.linalg.norm(rho - rho.conj().T, ord=2) > 10 * tol:
        return False
    ev = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    return bool(ev.min() >= -10 * tol and np.real(np.trace(rho)) <= 1.0 + 10 * tol)


def complete_test(k: KrausSet) -> KrausSet:
    """Pad a sub-normalized test with explicit discard outcomes.

    Appends operators whose combined gram matrix is I - sum K^dag K, split
    into as few outcomes as the output dimension allows. Deterministic
    tests are returned unchanged.
    """
    k.validate()
    if k.is_deterministic:
        return k
    defect = np.eye(k.in_dim) - k.completeness()
    w, v = np.linalg.eigh((defect + defect.conj().T) / 2)
    cols = [(lam, v[:, i]) for i, lam in enumerate(w) if lam > COMPLETENESS_TOL]
    extra: list[np.ndarray] = []
    for start in range(0, len(cols), k.out_dim):
        chunk = cols[start:start + k.out_dim]
        op = np.zeros((k.out_dim, k.in_dim), dtype=complex)
        for row, (lam, vec) in enumerate(chunk):
            op[row, :] = np.sqrt(lam) * vec.conj()
        extra.append(op)
    labels = k.outcome_labels + tuple(f"discard{d}" for d in range(len(extra)))
    return KrausSet(k.operators + tuple(extra), labels, in_dims=k.in_dims, out_dims=k.out_dims)


@dataclass(frozen=True)
class Dilation:
    """Unitary realization of a deterministic test.

    The test acts as K_i rho K_i^dag = Tr_E[ U (rho x sigma) U^dag (I x P_i) ],
    where sigma is the pure ancilla state on the input environment and
    {P_i} is a complete orthogonal projective readout on the output
    environment E.
    """

    unitary: np.ndarray
    ancilla_state: np.ndarray
    projectors: tuple[np.ndarray, ...]
    in_dims: tuple[int, int]   # (system, ancilla)
    out_dims: tuple[int, int]  # (system, environment)

    def branch(self, rho, i: int) -> np.ndarray:
        """Tr_E[ U (rho x sigma) U^dag (I x P_i) ] for one readout outcome."""
        d_a, d_f = self.in_dims
        d_b, d_e = self.out_dims
        sigma = np.outer(self.ancilla_state, self.ancilla_state.conj())
        big = self.unitary @ np.kron(np.asarray(rho, dtype=complex), sigma) @ self.unitary.conj().T
        big = big @ np.kron(np.eye(d_b), self.projectors[i])
        return np.trace(big.reshape(d_b, d_e, d_b, d_e), axis1=1, axis2=3)


def dilate(k: KrausSet, *, seed: int = 11) -> Dilation:
    """Stinespring-style dilation of a deterministic test.

    Stacks the Kraus operators as the first block-column of a unitary and
    completes the remaining columns by orthonormalization of a fixed-seed
    Gaussian basis, so the construction is reproducible. Sub-normalized
    tests must be completed (see ``complete_test``) first.
    """
    if not k.is_deterministic:
        raise ValueError("dilation needs a deterministic test; pad with complete_test() first")
    d_a, d_b = k.in_dim, k.out_dim
    n = len(k.operators)
    # Environment large enough that d_b * d_e is a multiple of d_a.
    d_e = n
    while (d_b * d_e) % d_a != 0:
        d_e += 1
    total = d_b * d_e
    d_f = total // d_a
    # Column block for ancilla state |0>: U (|a> x |0>) = sum_i (K_i|a>) x |i>.
    block = np.zeros((total, d_a), dtype=complex)
    for i, op in enumerate(k.operators):
        # Row index of |b>|e=i> is b * d_e + i.
        block[i::d_e, :] += op
    u = np.zeros((total, total), dtype=complex)
    u[:, 0::d_f] = block  # columns (a, f=0)
    rng = np.random.default_rng(seed)
    cols = [u[:, a * d_f] for a in range(d_a)]
    while len(cols) < total:
        v = rng.normal(size=total) + 1j * rng.normal(size=total)
        for c in cols:
            v -= c * np.vdot(c, v)
        nv = np.linalg.norm(v)
        if nv < 1e-6:
            continue
        cols.append(v / nv)
    # Place completion columns in the remaining (a, f>0) slots.
    free = [a * d_f + f for a in range(d_a) for f in range(1, d_f)]
    for slot, v in zip(free, cols[d_a:]):
        u[:, slot] = v
    ancilla = np.zeros(d_f, dtype=complex)
    ancilla[0] = 1.0
    # Complete orthogonal readout; outcomes beyond the test's n never fire
    # because the ancilla stays in |0> (they absorb the padding dimensions).
    projectors = tuple(np.diag(np.eye(d_e)[i]).astype(complex) for i in range(d_e))
    return Dilation(u, ancilla, projectors, (d_a, d_f), (d_b, d_e))


def holevo_limit(shape) -> float:
    """Maximal classical information extractable from a system, in bits."""
    return log2(as_shape(shape).dim)
