"""Classical theory as an operational layer: sub-normalized probability
vectors, substochastic Markov matrices, permutation reversibility, and the
quantum<->classical conversions used by conditioning and memory.

Orientation convention, fixed globally: states are column vectors and
transformations act by left multiplication, so "substochastic" means every
column sums to at most 1 (deterministic: exactly 1).
"""

from __future__ import annotations

import numpy as np

from .linalg import TAU_NUM
from .quantum import normalisation

_TOL = 1e-10


def is_classical_state(x, tol: float = _TOL) -> bool:
    """Nonnegative vector with total mass <= 1 + tol."""
    x = np.asarray(x, dtype=float)
    return x.ndim == 1 and bool(np.all(x >= -tol)) and float(x.sum()) <= 1.0 + tol


def is_substochastic(m, tol: float = _TOL) -> bool:
    """Nonnegative matrix whose column sums are all <= 1 + tol."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        return False
    return bool(np.all(m >= -tol)) and bool(np.all(m.sum(axis=0) <= 1.0 + tol))


def is_stochastic(m, tol: float = _TOL) -> bool:
    """Substochastic with every column sum equal to 1 (deterministic)."""
    m = np.asarray(m, dtype=float)
    return is_substochastic(m, tol) and bool(np.all(np.abs(m.sum(axis=0) - 1.0) <= tol))


def apply_markov(m, x) -> np.ndarray:
    """Left-multiply a classical state by a substochastic matrix."""
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.shape[1] != x.shape[0]:
        raise ValueError(f"matrix {m.shape} cannot act on state of dim {x.shape[0]}")
    if not is_substochastic(m):
        raise ValueError("matrix is not substochastic (column convention)")
    if not is_classical_state(x):
        raise ValueError("input is not a sub-normalized probability vector")
    return m @ x


def compose_markov(m2, m1) -> np.ndarray:
    """Sequential composition: first m1, then m2."""
    m2, m1 = np.asarray(m2, dtype=float), np.asarray(m1, dtype=float)
    if m2.shape[1] != m1.shape[0]:
        raise ValueError(f"cannot compose {m1.shape} then {m2.shape}")
    return m2 @ m1


def is_permutation_matrix(m, tol: float = _TOL) -> bool:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    binary = np.all((np.abs(m) <= tol) | (np.abs(m - 1.0) <= tol))
    return bool(
        binary
        and np.all(np.abs(m.sum(axis=0) - 1.0) <= tol)
        and np.all(np.abs(m.sum(axis=1) - 1.0) <= tol)
    )


def is_reversible_markov(m, tol: float = 1e-9) -> bool:
    """Whether a substochastic matrix has a substochastic inverse.

    Exactly the permutation matrices qualify; this check is used by the
    test-suite search that verifies it.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not is_substochastic(m, tol):
        return False
    if abs(np.linalg.det(m)) < tol:
        return False
    return is_substochastic(np.linalg.inv(m), tol)


def dephase(rho, basis=None) -> np.ndarray:
    """Diagonal of a density matrix in an orthonormal basis.

    ``basis`` is a sequence of column vectors (default: computational).
    The result is a classical state summing to Tr(rho).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if basis is None:
        probs = np.real(np.diag(rho)).astype(float)
    else:
        b = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in basis])
        if b.shape != (d, d) or not normalisation([b]).deterministic:  # ||b^dag b - I|| <= 1e-8
            raise ValueError("basis is not orthonormal and complete")
        # <b_d|rho|b_d> for every column d: one matrix product, then a column sum.
        probs = np.real((b.conj() * (rho @ b)).sum(axis=0)).astype(float)
    return np.clip(probs, 0.0, None)


def embed_classical(x) -> np.ndarray:
    """Diagonal density matrix carrying a classical state; inverse of dephase."""
    x = np.asarray(x, dtype=float)
    if not is_classical_state(x, tol=TAU_NUM):
        raise ValueError("input is not a sub-normalized probability vector")
    return np.diag(x).astype(complex)
