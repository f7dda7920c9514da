"""Measurement machinery: informationally complete tests, SIC frames,
random-direction von Neumann measurements, linear-inversion tomography, and
the store-and-recall memory benchmark.

The memory benchmark quantifies how well a pure state can be pushed through
a classical record and back: measure M identical copies, keep only the
classical outcome, re-prepare an estimate. Averaged over uniformly random
pure states the achievable fidelity is capped at (M+1)/(M+d); the covariant
strategy implemented here attains the cap for qubits, while the simpler
estimate-and-reprepare strategies stay below it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .linalg import TAU_NORM, TAU_SIC, bloch_projectors

_STRATEGIES = ("optimal_covariant_qubit", "sic_estimate", "random_vn_repeat")

MESH_POINTS = 4000  # Bloch-sphere discretization of the covariant strategy

#: Haar states ``mean_recall_fidelity`` draws per vectorised batch. The
#: batches set the order of the RNG draws, so seeded means depend on it.
TRIAL_CHUNK = 2000


class MeasurementError(ValueError):
    pass


@dataclass(frozen=True)
class Povm:
    """A discrete observation test: positive effects summing to the identity."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "effects", tuple(np.asarray(e, dtype=complex) for e in self.effects)
        )

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def validate(self, tol: float = 1e-8) -> None:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for e in self.effects:
            if e.shape != (self.dim, self.dim):
                raise MeasurementError("effects must be square and share one dimension")
            if np.linalg.norm(e - e.conj().T, ord=2) > tol:
                raise MeasurementError("effect is not Hermitian")
            ev = np.linalg.eigvalsh((e + e.conj().T) / 2)
            if ev.min() < -tol or ev.max() > 1 + tol:
                raise MeasurementError("effect is not between 0 and I")
            total += e
        if np.linalg.norm(total - np.eye(self.dim), ord=2) > tol:
            raise MeasurementError("effects do not sum to the identity")

    def probabilities(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        p = np.array([float(np.real(np.trace(rho @ e))) for e in self.effects])
        return np.clip(p, 0.0, None)


def is_infocomplete(povm: Povm, d: int | None = None) -> tuple[bool, int]:
    """Whether the effects span the full real space of Hermitian operators.

    Returns (verdict, span dimension); the span must reach d*d.
    """
    d = d or povm.dim
    rows = [np.concatenate([e.real.ravel(), e.imag.ravel()]) for e in povm.effects]
    span = int(np.linalg.matrix_rank(np.array(rows), tol=1e-9))
    return span == d * d, span


@dataclass(frozen=True)
class SicPovm:
    """d^2 pure states with equal pairwise overlap 1/(d+1); effects are the
    projectors scaled by 1/d."""

    states: tuple[np.ndarray, ...]
    d: int

    @property
    def povm(self) -> Povm:
        return Povm(tuple(np.outer(s, s.conj()) / self.d for s in self.states))

    def validate(self, tol: float = TAU_SIC) -> None:
        n = len(self.states)
        if n != self.d * self.d:
            raise MeasurementError(f"need {self.d ** 2} states, got {n}")
        for j in range(n):
            for k in range(n):
                target = (self.d * (j == k) + 1) / (self.d + 1)
                got = abs(np.vdot(self.states[j], self.states[k])) ** 2
                if abs(got - target) > tol:
                    raise MeasurementError(
                        f"overlap |<{j}|{k}>|^2 = {got:.12f}, expected {target:.12f}"
                    )
        total = sum(np.outer(s, s.conj()) for s in self.states) / self.d
        if np.linalg.norm(total - np.eye(self.d), ord=2) > tol:
            raise MeasurementError("scaled projectors do not sum to the identity")


def _bloch_qubit(direction) -> np.ndarray:
    """The qubit state whose Bloch vector points along ``direction``.

    Takes one direction or an array of them, (x, y, z) on the last axis.
    """
    d = np.asarray(direction, dtype=float)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    norm = np.sqrt(x * x + y * y + z * z)
    x, y, z = x / norm, y / norm, z / norm
    a = np.sqrt(np.maximum(0.0, (1 + z) / 2))
    b_mag = np.sqrt(np.maximum(0.0, (1 - z) / 2))
    phase = np.where((np.abs(x) > 0) | (np.abs(y) > 0), np.exp(1j * np.arctan2(y, x)), 1.0)
    return np.stack([a, b_mag * phase], axis=-1).astype(complex)


# Qubit SIC: a regular tetrahedron on the Bloch sphere.
_TETRAHEDRON = (
    (0.0, 0.0, 1.0),
    (2 * sqrt(2) / 3, 0.0, -1 / 3),
    (-sqrt(2) / 3, sqrt(2 / 3), -1 / 3),
    (-sqrt(2) / 3, -sqrt(2 / 3), -1 / 3),
)

# Qutrit fiducial vector; its orbit under the shift/phase (Weyl-Heisenberg)
# group is a symmetric frame. Verified against the overlap condition at
# construction time.
_QUTRIT_FIDUCIAL = np.array([0.0, 1.0, -1.0], dtype=complex) / sqrt(2)


def build_sic(d: int) -> SicPovm:
    """Symmetric informationally complete frame for d = 2 or 3."""
    if d == 2:
        states = tuple(_bloch_qubit(n) for n in _TETRAHEDRON)
    elif d == 3:
        omega = np.exp(2j * np.pi / 3)
        shift = np.roll(np.eye(3, dtype=complex), 1, axis=0)
        phase = np.diag(omega ** np.arange(3))
        states = tuple(
            np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(phase, b) @ _QUTRIT_FIDUCIAL
            for a in range(3)
            for b in range(3)
        )
    else:
        raise MeasurementError(f"no symmetric frame stored for dimension {d}")
    sic = SicPovm(states, d)
    sic.validate()
    return sic


def random_bloch_direction(rng: np.random.Generator) -> np.ndarray:
    v = np.asarray(rng.normal(size=3), dtype=float)
    return v / np.linalg.norm(v)


def random_vn_qubit(rng: np.random.Generator) -> Povm:
    """Projective qubit test along a uniformly random Bloch direction."""
    plus, minus = bloch_projectors(random_bloch_direction(rng))
    return Povm((plus, minus))


def simulate_measurement(povm: Povm, rho, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram of ``shots`` outcomes drawn with probabilities Tr(rho E_i)."""
    p = povm.probabilities(rho)
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise MeasurementError(f"outcome probabilities sum to {total:.9f}")
    return rng.multinomial(shots, p / total)


def histogram_dict(counts) -> dict[str, int]:
    return {str(i): int(c) for i, c in enumerate(counts)}


@lru_cache(maxsize=16)
def hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal (Hilbert-Schmidt) basis of d x d Hermitian matrices."""
    basis = [np.eye(d, dtype=complex) / sqrt(d)]
    for k in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[:k, :k] = np.eye(k)
        m[k, k] = -k
        basis.append(m / sqrt(k * (k + 1)))
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / sqrt(2)
            basis.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / sqrt(2)
            m[j, i] = 1j / sqrt(2)
            basis.append(m)
    return tuple(basis)


@dataclass
class TomographyResult:
    estimate: np.ndarray
    sample_count: int
    residual: float


def _design_matrix(povm: Povm) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    basis = hermitian_basis(povm.dim)
    a = np.array([[float(np.real(np.trace(e @ b))) for b in basis] for e in povm.effects])
    return a, basis


def tomography_linear(povm: Povm, histogram) -> TomographyResult:
    """Least-squares state reconstruction from outcome counts.

    Solves min_x ||A x - f||_2 over the Hermitian coordinate vector x, then
    projects onto the positive trace-one cone by eigenvalue clipping and
    renormalization. With exact probabilities the inversion is exact for
    any informationally complete test.
    """
    ok, span = is_infocomplete(povm)
    if not ok:
        raise MeasurementError(
            f"test is not informationally complete (span {span} < {povm.dim ** 2})"
        )
    counts = np.asarray(histogram, dtype=float).reshape(-1)
    if counts.shape[0] != len(povm.effects):
        raise MeasurementError("histogram length does not match the number of effects")
    n = counts.sum()
    freqs = counts / n if n > 0 else counts
    a, basis = _design_matrix(povm)
    x, *_ = np.linalg.lstsq(a, freqs, rcond=None)
    residual = float(np.linalg.norm(a @ x - freqs))
    rho = sum(c * b for c, b in zip(x, basis))
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0:
        rho_hat = np.eye(povm.dim, dtype=complex) / povm.dim
    else:
        rho_hat = (v * (w / w.sum())) @ v.conj().T
    return TomographyResult(rho_hat, int(n), residual)


def trace_distance(rho, sigma) -> float:
    delta = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2)).sum())


def attention_repetition(psi, repeats: int, povm: Povm, rng: np.random.Generator) -> TomographyResult:
    """Measure ``repeats`` fresh copies of a pure state and reconstruct it.

    Models deliberate re-preparation of the same state into the measurement
    buffer; the reconstruction error shrinks as repeats grow.
    """
    if repeats < 1:
        raise MeasurementError("need at least one repetition")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    rho = np.outer(psi, psi.conj())
    counts = simulate_measurement(povm, rho, repeats, rng)
    return tomography_linear(povm, counts)


# --- store-and-recall benchmark ------------------------------------------------

def recall_fidelity_bound(m: int, d: int) -> Fraction:
    """Optimal mean recall fidelity over uniform pure states: (M+1)/(M+d)."""
    if m < 1 or d < 2:
        raise MeasurementError("need at least one copy and dimension >= 2")
    return Fraction(m + 1, m + d)


def symmetric_dim(m: int, d: int) -> int:
    """Dimension of the symmetric subspace of m copies: C(m+d-1, d-1)."""
    return comb(m + d - 1, d - 1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / n
    phi = np.pi * (1 + sqrt(5)) * k
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@dataclass
class CovariantQubitFrame:
    """Discretized covariant measure-and-reprepare strategy on M qubit copies.

    Effects are (tightened) projectors onto coherent-state M-fold powers on
    a near-uniform Bloch mesh, restricted to the symmetric subspace where
    every M-copy pure power lives. Tightening by A^{-1/2} makes the mesh an
    exact observation test while preserving near-covariance, so the mean
    fidelity converges to the (M+1)/(M+2) cap as the mesh refines.
    """

    copies: int
    directions: np.ndarray      # (n, 3)
    spinors: np.ndarray         # (n, 2)
    dicke: np.ndarray           # (n, M+1) coherent powers in the Dicke basis
    weight: float
    tighten: np.ndarray         # A^{-1/2}
    prefix_gram: np.ndarray     # (n, M+1, M+1): sum over i <= k of conj(w_i) w_i^T

    @property
    def mesh_size(self) -> int:
        return self.directions.shape[0]

    def outcome_probabilities(self, psi_dicke: np.ndarray) -> np.ndarray:
        amps = self.dicke.conj() @ (self.tighten @ psi_dicke)
        return self.weight * np.abs(amps) ** 2


def _dicke_coords(a, b, m: int) -> np.ndarray:
    """Coordinates of (a|0> + b|1>)^(x)M in the Dicke basis, on a new last
    axis; ``a`` and ``b`` may be arrays of amplitudes."""
    ks = np.arange(m + 1)
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    return np.sqrt([comb(m, int(k)) for k in ks]) * (a ** (m - ks)) * (b ** ks)


@lru_cache(maxsize=8)
def covariant_qubit_frame(m: int, mesh: int = MESH_POINTS) -> CovariantQubitFrame:
    dirs = _fibonacci_sphere(mesh)
    spinors = _bloch_qubit(dirs)
    w = _dicke_coords(spinors[:, 0], spinors[:, 1], m)
    c = (m + 1) / mesh
    a_op = c * np.einsum("ia,ib->ab", w, w.conj())
    ev, vec = np.linalg.eigh(a_op)
    tighten = (vec * (1.0 / np.sqrt(ev))) @ vec.conj().T
    prefix_gram = np.cumsum(np.conj(w)[:, :, None] * w[:, None, :], axis=0)
    return CovariantQubitFrame(m, dirs, spinors, w, c, tighten, prefix_gram)


def _covariant_picks(frame: CovariantQubitFrame, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one mesh outcome per row of ``x`` = (T w_psi)^T.

    Outcome i has probability weight * |<w_i, x>|^2, so the cumulative
    probability up to k is the quadratic form weight * x G_k conj(x) with
    G_k = ``prefix_gram[k]``. The pick is the first k whose cumulative
    probability reaches ``u`` times the total, found by bisection: about
    log2(mesh) quadratic forms per row instead of a pass over the mesh.
    A pick past the end (a total lost to rounding) is clipped to the last
    mesh point.
    """
    mesh = frame.mesh_size
    xx = x[:, :, None] * np.conj(x)[:, None, :]

    def cum(k):
        return frame.weight * np.einsum("nab,nab->n", frame.prefix_gram[k], xx).real

    target = u * cum(np.full(x.shape[0], mesh - 1))
    below = np.zeros(x.shape[0], dtype=np.intp)  # count of leading points with cum < target
    step = 1 << (mesh.bit_length() - 1)
    while step:
        probe = below + step
        advance = (probe <= mesh) & (cum(np.minimum(probe, mesh) - 1) < target)
        below = np.where(advance, probe, below)
        step >>= 1
    return np.minimum(below, mesh - 1)


def dicke_isometry(m: int) -> np.ndarray:
    """Embedding of the (m+1)-dim symmetric subspace into m qubits."""
    s = np.zeros((2 ** m, m + 1))
    for idx in range(2 ** m):
        k = bin(idx).count("1")
        s[idx, k] = 1.0
    return s / np.sqrt(s.sum(axis=0))


def symmetric_projector_qubits(m: int) -> np.ndarray:
    s = dicke_isometry(m)
    return s @ s.T


def covariant_frame_mean_fidelity(frame: CovariantQubitFrame) -> float:
    """Exact Haar-mean fidelity of the discretized strategy (no sampling).

    Uses the (M+1)-copy symmetric projector: the Haar average of
    |psi><psi|^(x)(M+1) is P_sym / (M+2), so the mean fidelity is a trace
    against it. Refining the mesh drives this to (M+1)/(M+2).
    """
    m = frame.copies
    s_m = dicke_isometry(m)
    p_sym = symmetric_projector_qubits(m + 1)
    total = np.zeros((2 ** (m + 1), 2 ** (m + 1)), dtype=complex)
    tw = frame.dicke @ frame.tighten.T  # row i equals T @ w_i
    for i in range(frame.mesh_size):
        u = s_m @ tw[i]
        e_full = frame.weight * np.outer(u, u.conj())
        n_proj = np.outer(frame.spinors[i], frame.spinors[i].conj())
        total += np.kron(e_full, n_proj)
    return float(np.real(np.trace(total @ p_sym))) / (m + 2)


def _haar_qubits(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _haar_states(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of ``haar_state(d, rng)``, drawn in one call: the same numbers
    from the same stream, ending at the same generator state.

    The norm is computed as ``np.linalg.norm`` computes it for one vector,
    from dot products of the strided real and imaginary views, so each row
    divides by the same float.
    """
    z = rng.normal(size=(n, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return v / norms[:, None]


def _bloch_of(psis: np.ndarray) -> np.ndarray:
    a, b = psis[:, 0], psis[:, 1]
    return np.column_stack([
        2 * np.real(np.conj(a) * b),
        2 * np.imag(np.conj(a) * b),
        np.abs(a) ** 2 - np.abs(b) ** 2,
    ])


def store_recall_cycle(psi, m: int, strategy: str, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Measure M copies of ``psi``, re-prepare from the classical record.

    Returns (recalled state, fidelity |<psi|psi_hat>|^2). Raises
    MeasurementError for M < 1 or a state that is not finite and normalized,
    before any draw from ``rng``.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(psi) - 1.0) <= TAU_NORM:
        raise MeasurementError("input state must be finite and normalized")
    _check_strategy(strategy, psi.size, m)
    if strategy == "optimal_covariant_qubit":
        frame = covariant_qubit_frame(m)
        recalled = frame.spinors[_covariant_draw(psi[None], frame, rng)[0]]
    elif strategy == "sic_estimate":
        recalled = _sic_batch(psi[None], m, rng)[0]
    else:
        recalled = _bloch_qubit(_vn_batch(_bloch_of(psi[None]), m, rng)[0])
    return recalled, float(np.abs(np.vdot(psi, recalled)) ** 2)


def _check_strategy(strategy: str, d: int, m: int) -> None:
    """The guard of both recall entry points: a known strategy, implemented
    for dimension d, on at least one copy."""
    if m < 1:
        raise MeasurementError(f"need at least one copy, got M = {m}")
    if strategy not in _STRATEGIES:
        raise MeasurementError(f"unknown strategy {strategy!r}; choose from {_STRATEGIES}")
    if strategy == "optimal_covariant_qubit" and d != 2:
        raise MeasurementError("the covariant strategy is implemented for qubits only")
    if strategy == "random_vn_repeat" and d != 2:
        raise MeasurementError("random-direction spin readout is for qubits")
    if strategy == "sic_estimate" and d not in (2, 3):
        raise MeasurementError(f"no symmetric frame stored for dimension {d}")


def mean_recall_fidelity(
    strategy: str, m: int, d: int, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo mean fidelity over Haar-random pure states.

    Returns (mean, standard error). Vectorized per strategy; a fixed seed
    gives reproducible results. Raises MeasurementError for M < 1 or fewer
    than one trial.
    """
    _check_strategy(strategy, d, m)
    if trials < 1:
        raise MeasurementError(f"need at least one trial, got {trials}")
    stream = zlib.crc32(f"{strategy}:{m}:{d}".encode())
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)))
    if strategy == "optimal_covariant_qubit":
        frame = covariant_qubit_frame(m)
    fids = np.empty(trials)
    done = 0
    while done < trials:
        n = min(TRIAL_CHUNK, trials - done)
        if d == 2:
            psis = _haar_qubits(n, rng)
        else:
            psis = _haar_states(n, d, rng)
        if strategy == "optimal_covariant_qubit":
            fids[done:done + n] = _covariant_batch(psis, frame, rng)
        elif strategy == "sic_estimate":
            top = _sic_batch(psis, m, rng)
            fids[done:done + n] = np.abs(np.einsum("ni,ni->n", psis.conj(), top)) ** 2
        else:
            r = _bloch_of(psis)
            fids[done:done + n] = (1 + np.einsum("nj,nj->n", r, _vn_batch(r, m, rng))) / 2
        done += n
    mean = float(fids.mean())
    stderr = float(fids.std(ddof=1) / sqrt(trials)) if trials > 1 else float("nan")
    return mean, stderr


def _covariant_draw(psis: np.ndarray, frame: CovariantQubitFrame,
                    rng: np.random.Generator) -> np.ndarray:
    """The covariant strategy's mesh pick for each row of qubit states
    ``psis``, from one uniform per row."""
    w = _dicke_coords(psis[:, 0], psis[:, 1], frame.copies)
    return _covariant_picks(frame, w @ frame.tighten.T, rng.random(psis.shape[0]))


def _covariant_batch(psis: np.ndarray, frame: CovariantQubitFrame,
                     rng: np.random.Generator) -> np.ndarray:
    picks = _covariant_draw(psis, frame, rng)
    r = _bloch_of(psis)
    return (1 + np.einsum("ij,ij->i", r, frame.directions[picks])) / 2


@lru_cache(maxsize=4)
def _sic_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frame states as rows, pseudo-inverse of the design matrix, Hermitian
    basis) of the d-dimensional symmetric frame, for ``_sic_batch``."""
    sic = build_sic(d)
    a, basis = _design_matrix(sic.povm)
    return np.array(sic.states), np.linalg.pinv(a), np.array(basis)


def _sic_batch(psis: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """The recalled state of each row of ``psis``: the top eigenvector of
    the linear-inversion estimate from m draws of the symmetric frame.

    The estimate depends only on the count vector of the m draws. So the
    inversion and the eigendecomposition run once per distinct count
    vector, at most C(m + d^2 - 1, d^2 - 1) of them, and each row gathers
    its class's eigenvector. The classes are keyed exactly, by the bytes
    of the counts in the narrowest unsigned integer that holds m.
    """
    d = psis.shape[1]
    states, pinv, basis = _sic_tables(d)
    probs = np.abs(psis.conj() @ states.T) ** 2 / d  # (n, d^2)
    cum = np.cumsum(probs, axis=1)
    n = psis.shape[0]
    counts = np.zeros((n, d * d), dtype=np.min_scalar_type(m))
    for _ in range(m):
        u = rng.random(n)[:, None] * cum[:, -1:]
        picks = (cum < u).sum(axis=1).clip(0, d * d - 1)
        counts[np.arange(n), picks] += 1
    keys = counts.view(np.dtype((np.void, counts.itemsize * d * d)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # numpy multiplies a single row by gemv, whose bits differ from those
    # of gemm; a batch of two or more rows keeps at least two.
    first = np.resize(first, max(first.size, min(n, 2)))
    coords = (counts[first] / m) @ pinv.T
    rhos = np.einsum("na,aij->nij", coords, basis)
    rhos = (rhos + np.conj(np.swapaxes(rhos, 1, 2))) / 2
    _, vecs = np.linalg.eigh(rhos)
    return vecs[inverse, :, -1]


def _vn_batch(r: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """The recalled Bloch direction for each row of Bloch vectors ``r``:
    the sum of m signed readouts along uniformly random directions."""
    n = r.shape[0]
    dirs = rng.normal(size=(n, m, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    p_plus = (1 + np.einsum("nj,nmj->nm", r, dirs)) / 2
    signs = np.where(rng.random((n, m)) < p_plus, 1.0, -1.0)
    total = np.einsum("nm,nmj->nj", signs, dirs)
    norms = np.linalg.norm(total, axis=1, keepdims=True)
    degenerate = norms[:, 0] < 1e-12
    if degenerate.any():
        total[degenerate] = rng.normal(size=(int(degenerate.sum()), 3))
        norms = np.linalg.norm(total, axis=1, keepdims=True)
    return total / norms
