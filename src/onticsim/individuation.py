"""Tensor-factorization structure of pure states: which groups of systems
are in a pure state of their own, with no finer split.

A block of systems counts as one individual exactly when its reduced state
is pure and no sub-bipartition of the block factorizes further. Over a
trajectory this yields a timeline of partitions: entangling interactions
merge blocks, and measurements or disentangling steps split them again.
Also counts the distinct ways of entangling N labelled systems:
integer partitions of N times N! orderings.

A block splits across a bipartition A|B exactly when its state there has
Schmidt rank one, i.e. Tr rho_A^2 = 1. The scan reads the rank off an SVD
(``s > TAU_RANK``), but first computes the purity P of the smaller side
(m x m) from one small Gram product. Any state the SVD would call rank one
has 1 - P <= 2 (m - 1) TAU_RANK^2, so a defect above that bound plus a
rounding allowance certifies the bipartition entangled and its SVD is
skipped.

A block is also read through its two-site marginals, one row of pairs at
a time, its anchor's (first system's) row first. A cut the SVD rule calls
rank one leaves the state within trace norm 2 eps of a product,
eps = sqrt(m - 1) TAU_RANK, and partial trace is contractive in trace
norm, so every pair i, j across that cut has
||rho_ij - rho_i (x) rho_j||_1 <= 6 eps. A pair whose deviation is above
that bound plus a rounding allowance is therefore a certified edge: no cut
between its two systems splits. Every cut before C | rest in canonical
order, C the anchor and its certified neighbours, separates an edge, so
that cut is tried first. When it splits, C is irreducible and the rest, a
new block, reads its own anchor's row on its own vector. Otherwise the
other rows are read: when the edges connect the block it is irreducible,
and else the scan skips every bipartition that cuts an edge, sub-blocks
keeping the edges of the block they came from. A state whose blocks split
off one by one thus reads one row per block, not every cross pair. The SVD
still decides every case the bounds cannot settle, so the partitions,
split vectors and purities are those of the SVD-only scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, isqrt, prod, sqrt

import numpy as np

from .linalg import TAU_NORM, TAU_PURE, TAU_RANK, as_shape

MAX_FACTORS = 12  # factorization search is exponential in block size

# Rounding allowance on the computed purity defect 1 - ||G||_F^2 / (Tr G)^2
# of a block of D amplitudes (G = M M^dag, M an m x k reshape, mk = D).
# With unit roundoff u = 2^-53 and Higham's inner-product bound gamma_n ~ n u
# (Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1, 3.6):
# each entry of G is off by at most gamma_{k+2} (|M||M|^dag)_ij, so ||G||_F
# by gamma_{k+2} Tr G; ||G||_F^2 sums m^2 <= D squares and Tr G sums m
# diagonal entries. To first order the defect is off by at most about
# 8 D u, which stays below 1e-6 for every D under 1e9 amplitudes (16 GB of
# complex128). The same allowance absorbs two terms far below it: the SVD's
# own error of ~D u in each singular value it compares with TAU_RANK
# (moving the bound by ~4 (m - 1) TAU_RANK D u), and a trace below 1 by the
# 1e-9 normalisation tolerance (moving it by a factor 1 + 2e-9).
_PURITY_ROUNDING = 1e-6

# Largest d_i d_j whose two-site marginal the pair certificate forms; pairs
# of larger systems certify nothing.
_PAIR_DIM_CAP = 64
_UNIT_ROUNDOFF = 2.0 ** -53


class IndividuationError(ValueError):
    pass


def purity(rho) -> float:
    """Tr(rho^2) of a density matrix; 1 for pure states, 1/d for maximal mixing."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.real(np.trace(rho @ rho)))


@dataclass(frozen=True)
class MindPartition:
    """Finest pure-block partition of the systems at one time step."""

    blocks: tuple[tuple[int, ...], ...]
    purities: tuple[float, ...]
    timestamp: int = 0

    def block_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def _try_split(tensor: np.ndarray, local_n: int, groups: tuple[int, ...] | None = None):
    """First rank-one bipartition of a block, anchored on its first factor.

    Returns (left axes, right axes, left state, right state, labels) or None
    when the block is irreducible; ``labels`` are the axis labels the split
    was found under, None for an axis not yet read. Every bipartition is
    tried at most once, in canonical order (see ``_cuts``).
    """
    for left_axes, labels in _cuts(tensor, groups):
        right_axes = tuple(i for i in range(local_n) if i not in left_axes)
        d_left = prod(tensor.shape[i] for i in left_axes)
        mat = tensor.transpose(left_axes + right_axes).reshape(d_left, -1)
        if _certainly_entangled(mat):
            continue
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        if np.sum(s > TAU_RANK) == 1:
            return left_axes, right_axes, u[:, 0], vh[0, :], labels
    return None


def _cuts(tensor: np.ndarray, groups: tuple[int, ...] | None):
    """The anchored sides of a block's bipartitions in canonical order,
    smallest first, each with the axis labels it was chosen under.

    ``groups`` labels each axis with its component in the graph of
    certified pairs: one label for every axis proves the block irreducible,
    and a bipartition that separates two axes of one component is skipped.
    A block without labels reads its anchor's row first: C, the anchor and
    its certified neighbours, is the first side in canonical order that
    separates no certified pair, so the cut C | rest comes first. When it
    splits, C is irreducible by those edges (labelled as one component) and
    the rest is left unread, to read its own anchor's row on its own
    vector. Otherwise the other rows are read and the scan goes on without
    C.
    """
    n = tensor.ndim
    first = None
    if groups is None:
        first = _anchor_side(tensor)
        if len(first) == n:
            return
        yield first, tuple(0 if i in first else None for i in range(n))
        groups = _pair_groups(tensor, first)
    if len(set(groups)) == 1:
        return
    for size in range(1, n):
        for extra in combinations(range(1, n), size - 1):
            left = (0,) + extra
            if left != first and {groups[i] for i in left}.isdisjoint(
                    groups[i] for i in range(n) if i not in left):
                yield left, groups


def _pair_threshold(size: int, n: int) -> float:
    """Deviation ||rho_ij - rho_i (x) rho_j||_1 above which a pair of systems
    of a block of ``n`` systems and ``size`` amplitudes is a certified edge.

    The bound. Suppose the SVD rule calls a cut A|B of a unit vector psi
    rank one, with i in A and j in B: the Schmidt coefficients after the
    first, at most m - 1 of them (m the dimension of the smaller side), are
    each at most TAU_RANK. The product phi = u_1 (x) v_1 then has
    ||psi psi^dag - phi phi^dag||_1 = 2 sqrt(1 - s_1^2) <= 2 eps with
    eps = sqrt(m - 1) TAU_RANK. Partial trace is contractive in trace norm
    (Nielsen & Chuang, sec. 9.2), so the marginal rho_ij is within 2 eps of
    sigma_i (x) sigma_j, the marginal of phi, and rho_i and rho_j are each
    within 2 eps of sigma_i and sigma_j; unit trace norms make
    rho_i (x) rho_j within 4 eps of sigma_i (x) sigma_j. Hence the
    deviation is at most 6 eps. Every cut of the block has m <= isqrt(size),
    so one threshold serves all of its cuts, and those of its sub-blocks.
    The bound holds for any unit vector of ``size`` amplitudes and ``n``
    systems, so a sub-block that reads its own pairs, on its own vector,
    uses the threshold of its own size and count.
    A NaN deviation exceeds no threshold and certifies nothing.

    The rounding allowance, to first order in u = 2^-53, doubled:
    * Forming the marginal: rho_ij is a Gram product of size / r terms
      (r = d_i d_j <= _PAIR_DIM_CAP), so each entry is off by at most
      gamma_{size/r} (|M||M|^dag)_ab (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., sec. 3.5) and rho_ij by at most
      sqrt(r) (size / r) u <= size u in trace norm. The partial traces are
      contractive, so the deviation is off by at most 3 size u, plus the
      Hermitian eigensolver's r u per eigenvalue, 2 r^2 u in all. The
      marginals are divided by their trace, so the state's 1e-9
      normalisation tolerance only scales eps by 1 + 1e-9.
    * The SVD's error in each singular value it compares with TAU_RANK,
      about size u (as for ``_PURITY_ROUNDING``): eps grows by
      sqrt(m - 1) size u, the bound by 6 sqrt(m) size u.
    * Sub-blocks reuse the edges of their parent instead of forming their
      own marginals. A rank-one split leaves the sub-block's vector within
      trace norm 2 (m - 1) TAU_RANK^2 + 2 size u of the parent's marginal
      (the Schmidt weight it drops, and the SVD's backward error), and the
      deviation moves by at most three times that. A chain of splits is at
      most n long: 6 n (m TAU_RANK^2 + size u).
    The sum is at most (6 sqrt(m) + 6 n + 3) (size + _PAIR_DIM_CAP^2) u
    + 6 n m TAU_RANK^2; for twelve qubits the allowance is 2.3e-10 against
    a bound of 4.8e-7.
    """
    m = isqrt(size)
    rounding = ((6 * sqrt(m) + 6 * n + 3) * (size + _PAIR_DIM_CAP ** 2) * _UNIT_ROUNDOFF
                + 6 * n * m * TAU_RANK ** 2)
    return 6 * sqrt(m - 1) * TAU_RANK + 2 * rounding


def _anchor_side(tensor: np.ndarray) -> tuple[int, ...]:
    """The anchor (axis 0) and every axis that a certified pair joins to it."""
    dims = tensor.shape
    js = [j for j in range(1, tensor.ndim) if dims[0] * dims[j] <= _PAIR_DIM_CAP]
    threshold = _pair_threshold(tensor.size, tensor.ndim)
    return (0,) + tuple(j for j, deviation in zip(js, _pair_deviations(tensor, 0, js))
                        if deviation > threshold)


def _pair_groups(tensor: np.ndarray, anchor_side: tuple[int, ...]) -> tuple[int, ...]:
    """Component label of each axis in the graph of certified pairs, given
    the anchor's row as ``_anchor_side``.

    The other rows are read in order (i, j > i), and only while i and j are
    not already joined. The components do not depend on which pairs were
    skipped.
    """
    n, dims = tensor.ndim, tensor.shape
    threshold = _pair_threshold(tensor.size, n)
    parent = [0 if a in anchor_side else a for a in range(n)]

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(1, n - 1):
        js = [j for j in range(i + 1, n)
              if find(j) != find(i) and dims[i] * dims[j] <= _PAIR_DIM_CAP]
        for j, deviation in zip(js, _pair_deviations(tensor, i, js)):
            if deviation > threshold:
                parent[find(j)] = find(i)
        if len({find(a) for a in range(n)}) == 1:
            break
    return tuple(find(a) for a in range(n))


def _pair_deviations(tensor: np.ndarray, i: int, js: list[int]) -> list[float]:
    """||rho_ij - rho_i (x) rho_j||_1 for each j > i in ``js``, from the
    trace-normalised two-site marginals of ``tensor``; pairs with systems j
    of one dimension are stacked and go through numpy together."""
    di = tensor.shape[i]
    front = np.ascontiguousarray(np.moveaxis(tensor, i, 0))
    deviation = {}
    for dj in {tensor.shape[j] for j in js}:
        group = [j for j in js if tensor.shape[j] == dj]
        mats = np.empty((len(group), di * dj, tensor.size // (di * dj)), dtype=complex)
        for mat, j in zip(mats, group):
            a, b = prod(front.shape[1:j]), prod(front.shape[j + 1:])  # j > i keeps its axis
            mat.reshape(di, dj, a, b)[...] = front.reshape(di, a, dj, b).transpose(0, 2, 1, 3)
        rho = mats @ mats.conj().transpose(0, 2, 1)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        r5 = rho.reshape(-1, di, dj, di, dj)
        rho_i = np.trace(r5, axis1=2, axis2=4)
        rho_j = np.trace(r5, axis1=1, axis2=3)
        product = (rho_i[:, :, None, :, None] * rho_j[:, None, :, None, :]).reshape(rho.shape)
        norms = np.abs(np.linalg.eigvalsh(rho - product)).sum(axis=-1)
        deviation.update(zip(group, norms.tolist()))
    return [deviation[j] for j in js]


def _certainly_entangled(mat: np.ndarray) -> bool:
    """True when the purity of the smaller side proves that the SVD rank
    rule ``np.sum(s > TAU_RANK) == 1`` would not hold for ``mat``.

    With G = M M^dag on the smaller side (m x m) and p_i = s_i^2 / Tr G, the
    normalised purity is P = ||G||_F^2 / (Tr G)^2 = sum p_i^2. If every s_i
    with i >= 2 is at most TAU_RANK, then r = sum_{i>=2} p_i is at most
    (m - 1) TAU_RANK^2 (Tr G = 1 for a unit vector), and the defect
    1 - P = 2 r (1 - r) + sum_{i != j >= 2} p_i p_j <= 2 r - r^2 is at most
    2 (m - 1) TAU_RANK^2. A computed defect above that bound plus the
    rounding allowance therefore rules rank one out; anything else, a NaN
    defect included, is left to the SVD.
    """
    small = mat if mat.shape[0] <= mat.shape[1] else mat.T
    gram = small @ small.conj().T
    m = gram.shape[0]
    defect = 1.0 - np.vdot(gram, gram).real / np.trace(gram).real ** 2
    return defect > 2 * (m - 1) * TAU_RANK ** 2 + _PURITY_ROUNDING


def finest_factorization(psi, shape, *, timestamp: int = 0) -> MindPartition:
    """Split the systems into the finest blocks whose states factorize.

    Recursively peels off any sub-block with Schmidt rank one across its
    bipartition. The factorization of a pure state is unique, so the scan
    order only affects intermediate numerics, not the resulting partition.
    A state with no systems (the scalar a closed circuit ends on, with
    shape ``()``) has the empty partition.
    """
    dims = as_shape(shape).factor_dims if len(shape) else ()
    n = len(dims)
    if n > MAX_FACTORS:
        raise IndividuationError(f"factorization search capped at {MAX_FACTORS} factors")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != prod(dims):
        raise IndividuationError(f"state dim {psi.size} does not match factors {dims}")
    # Written so that a NaN norm fails too.
    if not abs(np.linalg.norm(psi) - 1.0) <= TAU_NORM:
        raise IndividuationError("state must be finite and normalized")

    # Each block carries the labels of its certified components, or None
    # while its pairs are unread (see _cuts).
    final_blocks: list[tuple[int, ...]] = []
    queue = [(tuple(range(n)), psi, None)] if n else []
    while queue:
        block, vec, groups = queue.pop(0)
        if len(block) == 1:
            final_blocks.append(block)
            continue
        split = _try_split(vec.reshape(tuple(dims[i] for i in block)), len(block), groups)
        if split is None:
            final_blocks.append(block)
            continue
        left_axes, right_axes, left, right, labels = split
        for axes, part in ((right_axes, right), (left_axes, left)):
            sub = tuple(labels[i] for i in axes) if labels else (None,)
            queue.insert(0, (tuple(block[i] for i in axes), part, None if None in sub else sub))

    blocks = tuple(sorted(final_blocks, key=lambda b: b[0]))
    psi_t = psi.reshape(dims if dims else (1,))
    purs = tuple(_marginal_purity(psi_t, n, b) for b in blocks)
    for b, p in zip(blocks, purs):
        if p < 1.0 - TAU_PURE:
            raise IndividuationError(
                f"internal error: block {b} has impure marginal ({p:.12f})"
            )
    return MindPartition(blocks, purs, timestamp)


def _marginal_purity(psi_t: np.ndarray, n: int, block: tuple[int, ...]) -> float:
    rest = [i for i in range(n) if i not in block]
    mat = psi_t.transpose(list(block) + rest).reshape(prod(psi_t.shape[i] for i in block), -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return float(np.sum(s ** 4))


def marginal_purity(psi, shape, block) -> float:
    """Tr(rho_block^2) for the reduced state of a block of factors."""
    dims = as_shape(shape).factor_dims
    block = tuple(block)
    # A bool is an int, and 1.0 is in range(3): neither names a factor.
    named = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and i in range(len(dims))
                for i in block)
    if not named or len(set(block)) != len(block):
        raise IndividuationError(f"block {block} must name distinct factors 0..{len(dims) - 1}")
    psi = np.asarray(psi, dtype=complex)
    if psi.size != prod(dims):
        raise IndividuationError(f"state dim {psi.size} does not match factors {dims}")
    psi_t = psi.reshape(dims)
    return _marginal_purity(psi_t, len(dims), block)


def classify_timeline(trajectory, shapes=None) -> list[MindPartition]:
    """Finest factorization of every stored state along a trajectory.

    ``trajectory`` is an engine Trajectory run with store_states=True;
    ``shapes`` optionally overrides the per-step factor dimensions (one
    shape per stored state; defaults to the wire dimensions recorded by
    the engine via ``state_dims``).
    """
    partitions: list[MindPartition] = []
    states = [s.state for s in trajectory.steps]
    if any(s is None for s in states):
        raise IndividuationError("trajectory has no stored states; rerun with store_states=True")
    if shapes is None:
        shapes = getattr(trajectory, "state_dims", None)
    if shapes is None:
        raise IndividuationError("provide shapes: one factor-dimension tuple per step")
    if len(shapes) != len(states):
        raise IndividuationError(f"{len(shapes)} shapes for {len(states)} stored states")
    for t, (state, shape) in enumerate(zip(states, shapes)):
        partitions.append(finest_factorization(state, shape, timestamp=t))
    return partitions


def count_entanglement_patterns(n: int) -> int:
    """Distinct entanglement patterns of n labelled systems: p(n) * n!."""
    if n < 1:
        raise IndividuationError("need at least one system")
    if n > 20:
        raise IndividuationError("pattern count capped at n = 20")
    return _partition_count(n) * factorial(n)


def _partition_count(n: int) -> int:
    """Number of integer partitions of n (dynamic programming)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]
