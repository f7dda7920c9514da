"""Quantum theory as an operational layer: Kraus sets, coarse-graining,
the Born rule for preparations, and the unitary-dilation realization of
deterministic tests.

Conventions: a transformation from an m-dimensional input to an
n-dimensional output is a list of n x m Kraus operators, one per outcome,
trace-nonincreasing overall (sum K^dag K <= I) and deterministic when the
sum equals the identity; ``normalisations`` gives both verdicts on each of
many sets from one call of ``linalg._gram_spectra``. States are transformations from the trivial
(1-dimensional) system, i.e. column operators; effects are rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, prod
from typing import NamedTuple

import numpy as np

from . import linalg
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
        """||sum K^dag K - I||_2, see ``gram_identity_defect``."""
        return gram_identity_defect(self.operators)

    @property
    def is_deterministic(self) -> bool:
        return normalisation(self.operators).deterministic

    def validate(self) -> Normalisation:
        """Raise unless trace-nonincreasing: sum K^dag K <= I. Returns the
        verdicts of the one spectral run, the deterministic one included."""
        verdict = normalisation(self.operators)
        if not verdict.finite:
            raise ValueError("sum K^dag K is not finite")
        if verdict.excess is not None:
            raise ValueError("trace-increasing transformation: "
                             f"sigma_max(sum K^dag K) - 1 = {verdict.excess:.3g}")
        return verdict


def unitary_kraus(u, label: str = "0", **dims) -> KrausSet:
    return KrausSet((np.asarray(u, dtype=complex),), (label,), **dims)


def gram_top_eigenvalue(operators, *, tol: float = COMPLETENESS_TOL) -> float:
    """Largest eigenvalue of G = sum K^dag K, as far as the trace-nonincreasing
    verdict ``lambda_max <= 1 + tol`` needs it, on the same side of 1 + tol
    as lambda_max (``linalg._gram_spectra``): exact up to d = 256 or when
    60 Lanczos steps settle nothing; above, a rejection returns the top Ritz
    value, a certain lower bound, and an acceptance an upper bound that is
    wrong with probability at most p = 1e-9 over the seeded random start.
    No d x d matrix is formed unless the dense eigvalsh runs.
    """
    return linalg._gram_spectra([operators], -np.inf, 1.0 + tol)[0][1]


def gram_identity_defect(operators, *, tol: float = COMPLETENESS_TOL) -> float:
    """Spectral radius of G - I, as far as the verdict ``defect <= tol`` needs
    it: the rules of ``gram_top_eigenvalue`` on both extreme eigenvalues of
    G, so an acceptance above d = 256 is wrong with probability at most 2p."""
    return normalisation(operators, tol).defect


class Normalisation(NamedTuple):
    """Verdicts on a Kraus set from one two-sided spectral run on G."""

    finite: bool           # False when G meets a NaN, infinite or overflowing entry
    excess: float | None   # sigma_max(G) - 1 of a trace-increasing set, else None
    deterministic: bool    # defect <= tol
    defect: float          # ||G - I||_2 as far as that verdict needs it


def check_tolerance(tol: float) -> None:
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")


def normalisations(sets, tol: float = COMPLETENESS_TOL) -> list[Normalisation]:
    """The verdicts on lambda_max(G) <= 1 + tol and ||G - I||_2 <= tol for
    each set of operators, from one ``_gram_spectra`` call; ``tol`` must be
    finite and >= 0."""
    check_tolerance(tol)
    verdicts = []
    for bottom, top in linalg._gram_spectra(sets, 1.0 - tol, 1.0 + tol):
        defect = max(top - 1.0, 1.0 - bottom)
        verdicts.append(Normalisation(not np.isnan(top), top - 1.0 if top > 1.0 + tol else None,
                                      defect <= tol, defect))
    return verdicts


def normalisation(operators, tol: float = COMPLETENESS_TOL) -> Normalisation:
    """``normalisations`` of one set."""
    return normalisations([operators], tol)[0]


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
        return normalisation(self.kraus_operators, tol).deterministic


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
    if k.validate().deterministic:
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
