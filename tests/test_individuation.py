import sys
from itertools import combinations
from math import prod

import numpy as np
import pytest

from onticsim import gallery, individuation
from onticsim.engine import run_trajectory
from onticsim.individuation import (
    IndividuationError,
    classify_timeline,
    count_entanglement_patterns,
    finest_factorization,
    marginal_purity,
    purity,
)
from onticsim.linalg import TAU_RANK, haar_state, haar_unitary, schmidt_decompose

RNG = np.random.default_rng(808)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / np.sqrt(2)


class TestPurity:
    def test_pure_state(self):
        assert abs(purity(np.diag([1.0, 0.0])) - 1) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(np.eye(2) / 2) - 0.5) < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        rho = np.outer(BELL, BELL.conj())
        marginal = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert abs(purity(marginal) - 0.5) < 1e-9

    def test_marginal_purity_helper(self):
        assert abs(marginal_purity(BELL, (2, 2), [0]) - 0.5) < 1e-9
        product = np.kron([1, 0], [1, 1]) / np.sqrt(2)
        assert abs(marginal_purity(product, (2, 2), [1]) - 1.0) < 1e-9

    @pytest.mark.parametrize("block", [(0, 0), (3,), (-1,), (1, 2, 1), (1.0,), (True,)])
    def test_marginal_purity_rejects_a_bad_block(self, block):
        with pytest.raises(IndividuationError, match=rf"block \({block[0]}"):
            marginal_purity(np.kron(BELL, [1, 0]), (2, 2, 2), block)

    def test_marginal_purity_rejects_a_state_of_the_wrong_size(self):
        with pytest.raises(IndividuationError, match="state dim 4 does not match"):
            marginal_purity(BELL, (2, 2, 2), (0,))


class TestFinestFactorization:
    def test_full_product_state(self):
        zero = np.array([1, 0])
        plus = np.array([1, 1]) / np.sqrt(2)
        one = np.array([0, 1])
        psi = np.kron(np.kron(zero, plus), one)
        part = finest_factorization(psi, (2, 2, 2))
        assert part.blocks == ((0,), (1,), (2,))
        assert all(abs(p - 1) < 1e-8 for p in part.purities)

    def test_bell_times_qubit(self):
        psi = np.kron(BELL, [1, 0])
        part = finest_factorization(psi, (2, 2, 2))
        assert part.blocks == ((0, 1), (2,))

    def test_ghz_is_irreducible(self):
        part = finest_factorization(GHZ, (2, 2, 2))
        assert part.blocks == ((0, 1, 2),)
        # Oracle: every bipartition of a GHZ state has Schmidt rank 2.
        coeffs, _, _ = schmidt_decompose(GHZ, (2, 4))
        assert len(coeffs) == 2
        coeffs, _, _ = schmidt_decompose(GHZ, (4, 2))
        assert len(coeffs) == 2
        coeffs, _, _ = schmidt_decompose(
            GHZ.reshape(2, 2, 2).transpose(1, 0, 2).reshape(-1), (2, 4)
        )
        assert len(coeffs) == 2

    def test_interleaved_entanglement(self):
        # Entangle factors 0 and 2, leave 1 alone: blocks {0,2},{1}.
        psi = np.kron(BELL, [1, 0]).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        part = finest_factorization(psi, (2, 2, 2))
        assert part.blocks == ((0, 2), (1,))

    def test_product_of_factorizations_is_union(self):
        rng = np.random.default_rng(5)
        a = haar_state(4, rng)   # an entangled 2-qubit block (generic)
        b = haar_state(2, rng)
        psi = np.kron(a, b)
        part = finest_factorization(psi, (2, 2, 2))
        part_a = finest_factorization(a, (2, 2))
        expected = tuple(part_a.blocks) + ((2,),)
        assert part.blocks == expected

    def test_every_block_is_pure(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = haar_unitary(4, rng)
            psi = np.kron(u @ haar_state(4, rng), haar_state(3, rng))
            part = finest_factorization(psi, (2, 2, 3))
            for p in part.purities:
                assert abs(p - 1) < 1e-8

    def test_entangled_marginal_mixedness_quantified(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = haar_state(6, rng)
            coeffs, _, _ = schmidt_decompose(psi, (2, 3))
            if len(coeffs) < 2:
                continue
            delta = 2 * (coeffs[0] ** 2) * (coeffs[1] ** 2)
            assert marginal_purity(psi, (2, 3), [0]) <= 1 - delta + 1e-9

    def test_normalization_required(self):
        with pytest.raises(IndividuationError):
            finest_factorization(np.ones(4), (2, 2))

    def test_factor_cap(self):
        with pytest.raises(IndividuationError):
            finest_factorization(np.zeros(2 ** 13), (2,) * 13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_state_rejected(self, bad):
        psi = np.kron(BELL, [1, 0]).astype(complex)
        psi[3] = bad
        with pytest.raises(IndividuationError, match="finite"):
            finest_factorization(psi, (2, 2, 2))

    def test_state_with_no_systems_has_empty_partition(self):
        part = finest_factorization(np.array([1j]), (), timestamp=4)
        assert (part.blocks, part.purities, part.timestamp) == ((), (), 4)


def brickwork_state(n, layers, seed, cuts=(), periodic=False):
    """Seeded brickwork of Haar two-qubit gates on n qubits from |0...0>,
    with the qubit axes permuted at the end. A gate on (i, i + 1) is left
    out when i + 1 is in ``cuts``, so the cuts split the chain into blocks.
    A periodic chain is a ring, its odd layers ending on (n - 1, 0), as in
    the cold-12q benchmark."""
    rng = np.random.default_rng(seed)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for layer in range(layers):
        for i in range(layer % 2, n if periodic else n - 1, 2):
            if i + 1 in cuts:
                continue
            pair = (i, (i + 1) % n)
            gate = haar_unitary(4, rng).reshape(2, 2, 2, 2)
            psi = np.tensordot(gate, psi, axes=((2, 3), pair))
            psi = np.moveaxis(psi, (0, 1), pair)
    return psi.transpose(rng.permutation(n)).reshape(-1)


# cuts -> (blocks, float.hex() of each purity) of the seed-2024, four-layer,
# 12-qubit brickwork state. Pins the partition and the purities' bits.
BRICKWORK_GOLDEN = {
    (): (
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),),
        ("0x1.fffffffffffd4p-1",),
    ),
    (4, 9): (
        ((0, 1, 2, 3, 8), (4, 7, 9, 10), (5, 6, 11)),
        ("0x1.fffffffffffecp-1", "0x1.fffffffffffecp-1", "0x1.fffffffffffe8p-1"),
    ),
}


@pytest.mark.parametrize("cuts", sorted(BRICKWORK_GOLDEN))
def test_brickwork_partition_is_pinned(cuts):
    part = finest_factorization(brickwork_state(12, 4, 2024, cuts), (2,) * 12)
    blocks, purities = BRICKWORK_GOLDEN[cuts]
    assert part.blocks == blocks
    assert tuple(p.hex() for p in part.purities) == purities


def svd_try_split(tensor, local_n, groups=None):
    """Oracle scan: one full SVD per anchored bipartition, rank read off the
    singular values, with no purity prefilter and no pair certificate
    (``groups`` is ignored, and no sub-block gets labels)."""
    for size in range(1, local_n):
        for extra in combinations(range(1, local_n), size - 1):
            left_axes = (0,) + extra
            right_axes = tuple(i for i in range(local_n) if i not in left_axes)
            d_left = prod(tensor.shape[i] for i in left_axes)
            mat = tensor.transpose(left_axes + right_axes).reshape(d_left, -1)
            u, s, vh = np.linalg.svd(mat, full_matrices=False)
            if np.sum(s > TAU_RANK) == 1:
                return left_axes, right_axes, u[:, 0], vh[0, :], None
    return None


def haar_blocks(block_dims, rng):
    """Product of one Haar state per block of factor dims, factor axes
    shuffled. Returns (psi, dims, blocks), blocks in the shuffled positions."""
    psi = np.ones(1, dtype=complex)
    owner = []
    for b, bd in enumerate(block_dims):
        psi = np.kron(psi, haar_state(prod(bd), rng))
        owner += [b] * len(bd)
    old_dims = [d for bd in block_dims for d in bd]
    perm = rng.permutation(len(old_dims))
    psi = psi.reshape(old_dims).transpose(perm).reshape(-1)
    dims = tuple(old_dims[a] for a in perm)
    blocks = {}
    for j, a in enumerate(perm):
        blocks.setdefault(owner[a], []).append(j)
    return psi, dims, tuple(sorted(tuple(b) for b in blocks.values()))


def ghz(dims):
    psi = np.zeros(dims, dtype=complex)
    for k in range(min(dims)):
        psi[(k,) * len(dims)] = 1.0
    return psi.reshape(-1) / np.linalg.norm(psi)


# Higuchi-Sudbery state: 4 qubits, every 2|2 cut highly (not maximally) mixed.
_W = np.exp(2j * np.pi / 3)
HIGUCHI_SUDBERY = np.zeros(16, dtype=complex)
for _bits, _amp in [("0011", 1), ("1100", 1), ("1010", _W), ("0101", _W),
                    ("1001", _W ** 2), ("0110", _W ** 2)]:
    HIGUCHI_SUDBERY[int(_bits, 2)] = _amp / np.sqrt(6)

# AME(4, 3): sum_{i,j} |i, j, i + j, i + 2j> (mod 3) / 3, every 2|2 cut maximal.
AME_4_3 = np.zeros((3, 3, 3, 3), dtype=complex)
for _i in range(3):
    for _j in range(3):
        AME_4_3[_i, _j, (_i + _j) % 3, (_i + 2 * _j) % 3] = 1 / 3
AME_4_3 = AME_4_3.reshape(-1)


def schmidt_pair_state(eps, rng):
    """Blocks {0, 1} and {2, 3} (dims 2, 2 | 2, 3) with Schmidt coefficients
    sqrt(1 - eps^2) and eps across them, times a Haar qubit {4}."""
    ua, ub = haar_unitary(4, rng), haar_unitary(6, rng)
    ab = np.sqrt(1 - eps ** 2) * np.kron(ua[:, 0], ub[:, 0]) + eps * np.kron(ua[:, 1], ub[:, 1])
    return np.kron(ab, haar_state(2, rng)), (2, 2, 2, 3, 2)


class TestPrefilterAgainstSvdScan:
    """The purity prefilter only skips bipartitions the SVD would reject, so
    finest_factorization equals the SVD-only scan, purity bits included."""

    @staticmethod
    def oracle(psi, dims, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(individuation, "_try_split", svd_try_split)
            return finest_factorization(psi, dims)

    def check(self, psi, dims, monkeypatch, blocks):
        part = finest_factorization(psi, dims)
        assert part == self.oracle(psi, dims, monkeypatch)
        assert part.blocks == blocks

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2,) * 5, (3, 3, 3), (2, 3, 3, 2)])
    def test_ghz(self, dims, monkeypatch):
        self.check(ghz(dims), dims, monkeypatch, (tuple(range(len(dims))),))

    def test_ghz_beside_a_haar_block(self, monkeypatch):
        psi = np.kron(ghz((2, 2, 2)), haar_state(6, np.random.default_rng(1)))
        self.check(psi, (2, 2, 2, 2, 3), monkeypatch, ((0, 1, 2), (3, 4)))

    @pytest.mark.parametrize("psi, dims", [(HIGUCHI_SUDBERY, (2,) * 4), (AME_4_3, (3,) * 4)])
    def test_ame_like(self, psi, dims, monkeypatch):
        self.check(psi, dims, monkeypatch, ((0, 1, 2, 3),))
        psi2 = np.kron(BELL, psi).reshape((2, 2) + dims).transpose(2, 0, 3, 4, 1, 5).reshape(-1)
        dims2 = (dims[0], 2, dims[1], dims[2], 2, dims[3])
        self.check(psi2, dims2, monkeypatch, ((0, 2, 3, 5), (1, 4)))

    @pytest.mark.parametrize("block_dims", [
        [(2, 2), (2,), (2, 2, 2)],
        [(2,) * 6, (2,) * 4],
        [(3, 2), (2, 3, 2), (3,)],
        [(3, 3), (2,), (2, 3), (2, 2)],
        [(2,), (3,), (2,), (3,)],
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_products_of_haar_blocks(self, block_dims, seed, monkeypatch):
        psi, dims, blocks = haar_blocks(block_dims, np.random.default_rng(seed))
        self.check(psi, dims, monkeypatch, blocks)

    @pytest.mark.parametrize("eps, blocks", [
        (2e-8, ((0, 1, 2, 3), (4,))),
        (5e-9, ((0, 1), (2, 3), (4,))),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_schmidt_coefficient_at_the_rank_cutoff(self, eps, blocks, seed, monkeypatch):
        psi, dims = schmidt_pair_state(eps, np.random.default_rng(seed))
        self.check(psi, dims, monkeypatch, blocks)


class TestPrefilterFires:
    @staticmethod
    def count_scan_svds(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_try_split":
                calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_haar_state_needs_no_scan_svd(self, monkeypatch):
        psi = haar_state(2 ** 10, np.random.default_rng(10))
        calls = self.count_scan_svds(monkeypatch)
        assert finest_factorization(psi, (2,) * 10).blocks == (tuple(range(10)),)
        assert calls == []

    def test_only_the_splitting_bipartition_runs_an_svd(self, monkeypatch):
        # Bell pair on qubits {0, 3}, a Haar 3-qubit block on {1, 2, 4}.
        rng = np.random.default_rng(11)
        psi = np.kron(BELL, haar_state(8, rng)).reshape((2,) * 5).transpose(0, 2, 3, 1, 4)
        calls = self.count_scan_svds(monkeypatch)
        assert finest_factorization(psi, (2,) * 5).blocks == ((0, 3), (1, 2, 4))
        assert len(calls) == 1


def weak_chain_state(n, delta, seed):
    """|0...0> + delta sum_i |1_i 1_{i+1}> on an open chain of n qubits,
    normalised, qubit axes shuffled. Each neighbouring pair deviates from
    a product marginal by about 2 delta in trace norm; every cut separates
    a neighbouring pair, so no cut has Schmidt rank one."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for i in range(n - 1):
        psi[(0,) * i + (1, 1) + (0,) * (n - i - 2)] = delta
    perm = np.random.default_rng(seed).permutation(n)
    return psi.transpose(perm).reshape(-1) / np.linalg.norm(psi)


def pair_deviation_oracle(psi, dims, i, j):
    """||rho_ij - rho_i (x) rho_j||_1 by tensordot and a nuclear norm."""
    t = psi.reshape(dims)
    rest = [a for a in range(len(dims)) if a not in (i, j)]
    rho = np.tensordot(t, t.conj(), axes=(rest, rest))
    rho = rho / np.einsum("abab->", rho).real
    rho_i, rho_j = np.einsum("abcb->ac", rho), np.einsum("abad->bd", rho)
    r = dims[i] * dims[j]
    return np.linalg.norm(rho.reshape(r, r) - np.kron(rho_i, rho_j), "nuc")


class TestPairCertificate:
    """A pair whose two-site marginal is far from a product joins its two
    systems; a block whose pairs connect it needs no scan at all."""

    @staticmethod
    def count_scan_grams(monkeypatch):
        calls = []
        certainly_entangled = individuation._certainly_entangled

        def counting(mat):
            calls.append(mat.shape)
            return certainly_entangled(mat)

        monkeypatch.setattr(individuation, "_certainly_entangled", counting)
        return calls

    @pytest.mark.parametrize("dims", [(2, 3, 2, 2), (3, 2, 2, 3, 2)])
    def test_deviation_matches_a_partial_trace_oracle(self, dims):
        psi = haar_state(prod(dims), np.random.default_rng(len(dims)))
        for i in range(len(dims) - 1):
            js = list(range(i + 1, len(dims)))
            got = individuation._pair_deviations(psi.reshape(dims), i, js)
            want = [pair_deviation_oracle(psi, dims, i, j) for j in js]
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    # Ten qubits keep the oracle's full scan of an irreducible state short.
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_periodic_brickwork_matches_svd_scan(self, depth, seed, monkeypatch):
        psi = brickwork_state(10, depth, seed, periodic=True)
        part = finest_factorization(psi, (2,) * 10)
        assert part == TestPrefilterAgainstSvdScan.oracle(psi, (2,) * 10, monkeypatch)
        assert [len(b) for b in part.blocks] == ([2] * 5 if depth == 1 else [10])

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_cut_brickwork_matches_svd_scan(self, depth, monkeypatch):
        psi = brickwork_state(12, depth, 2024, cuts=(4, 9))
        part = finest_factorization(psi, (2,) * 12)
        assert part == TestPrefilterAgainstSvdScan.oracle(psi, (2,) * 12, monkeypatch)

    @pytest.mark.parametrize("psi", [brickwork_state(12, 4, 3, periodic=True),
                                     haar_state(2 ** 12, np.random.default_rng(12))])
    def test_connected_state_runs_no_gram_and_no_svd(self, psi, monkeypatch):
        grams = self.count_scan_grams(monkeypatch)
        svds = TestPrefilterFires.count_scan_svds(monkeypatch)
        assert finest_factorization(psi, (2,) * 12).blocks == (tuple(range(12)),)
        assert (grams, svds) == ([], [])

    def test_weakly_correlated_chain_is_certified(self, monkeypatch):
        # Neighbouring pairs deviate by about 2e-6, four times the twelve-qubit
        # bound of 4.8e-7: certified. The anchor's row joins only its two
        # chain neighbours, so the cut of those three comes first; its Schmidt
        # weights of 1e-12 are below the purity allowance, so one SVD decides
        # it, and the other rows connect the chain without a further scan.
        psi = weak_chain_state(12, 1e-6, 5)
        expected = TestPrefilterAgainstSvdScan.oracle(psi, (2,) * 12, monkeypatch)
        grams = self.count_scan_grams(monkeypatch)
        svds = TestPrefilterFires.count_scan_svds(monkeypatch)
        assert finest_factorization(psi, (2,) * 12) == expected
        assert expected.blocks == (tuple(range(12)),)
        assert (grams, len(svds)) == ([(8, 512)], 1)

    def test_reducible_state_scans_only_unions_of_components(self, monkeypatch):
        # Six entangled pairs: each of the five splits tries the next pair
        # first, and every other bipartition cuts a certified edge.
        psi = brickwork_state(12, 1, 0, periodic=True)
        grams = self.count_scan_grams(monkeypatch)
        svds = TestPrefilterFires.count_scan_svds(monkeypatch)
        part = finest_factorization(psi, (2,) * 12)
        assert [len(b) for b in part.blocks] == [2] * 6
        assert grams == [(4, 4 ** k) for k in range(5, 0, -1)]
        assert len(svds) == 5

    # Pairs read, by the amplitude count of the vector they are read on. A
    # block reads its anchor's row first; a rank-one split off that row leaves
    # the rest to read its own anchor's row on its own, smaller vector.
    @pytest.mark.parametrize("psi, reads", [
        (brickwork_state(12, 1, 0, periodic=True),
         {4096: 11, 1024: 9, 256: 7, 64: 5, 16: 3, 4: 1}),
        (brickwork_state(12, 4, 2024, cuts=(4, 9)), {4096: 11, 128: 6, 8: 2}),
        (brickwork_state(12, 4, 3, periodic=True), {4096: 11}),
    ])
    def test_pairs_read_per_block(self, psi, reads, monkeypatch):
        counts = {}
        pair_deviations = individuation._pair_deviations

        def counting(tensor, i, js):
            counts[tensor.size] = counts.get(tensor.size, 0) + len(js)
            return pair_deviations(tensor, i, js)

        monkeypatch.setattr(individuation, "_pair_deviations", counting)
        finest_factorization(psi, (2,) * 12)
        assert counts == reads


def chain_beside_bell(seed):
    """weak_chain_state(6, 1e-6, seed) (x) a Bell pair, axes shuffled with a
    chain qubit kept first: the anchor's cut separates neighbours of the
    chain, so it is not rank one. Returns (psi, dims, blocks)."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(7)])
    psi = np.kron(weak_chain_state(6, 1e-6, seed), BELL).reshape((2,) * 8).transpose(perm)
    blocks = tuple(tuple(np.flatnonzero(side).tolist()) for side in (perm < 6, perm >= 6))
    return psi.reshape(-1), (2,) * 8, blocks


def ghz_beside_a_wide_pair(seed):
    """A Haar state of a 9- and an 8-level system (axes 0 and 4), whose pair
    is too large to read, beside a three-qubit GHZ state (axes 1-3): the
    anchor certifies no neighbour and is entangled with axis 4, so its cut
    is not rank one. Returns (psi, dims, blocks)."""
    psi = np.kron(haar_state(72, np.random.default_rng(seed)), ghz((2, 2, 2)))
    psi = psi.reshape(9, 8, 2, 2, 2).transpose(0, 2, 3, 4, 1)
    return psi.reshape(-1), (9, 2, 2, 2, 8), ((0, 4), (1, 2, 3))


class TestAnchorCutFallback:
    """A reducible block whose anchor cut is not rank one reads its other
    rows and scans on: the SVD-only result, and no bipartition tried twice."""

    @pytest.mark.parametrize("make", [chain_beside_bell, ghz_beside_a_wide_pair])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_svd_scan_and_tries_each_cut_once(self, make, seed, monkeypatch):
        psi, dims, blocks = make(seed)
        expected = TestPrefilterAgainstSvdScan.oracle(psi, dims, monkeypatch)
        tried = []
        try_split, certainly_entangled = individuation._try_split, individuation._certainly_entangled

        def recording_split(*args):
            tried.append([])
            return try_split(*args)

        def recording_gram(mat):
            tried[-1].append(sys._getframe(1).f_locals["left_axes"])
            return certainly_entangled(mat)

        monkeypatch.setattr(individuation, "_try_split", recording_split)
        monkeypatch.setattr(individuation, "_certainly_entangled", recording_gram)
        part = finest_factorization(psi, dims)
        assert part == expected
        assert part.blocks == blocks
        assert len(tried[0]) > 1  # the anchor cut did not split
        assert all(len(set(cuts)) == len(cuts) for cuts in tried)


class TestTimeline:
    def test_merge_then_split(self):
        traj = run_trajectory(gallery.merge_split_program(), seed=3, store_states=True)
        parts = classify_timeline(traj)
        assert [p.blocks for p in parts] == [((0,), (1,)), ((0, 1),), ((0,), (1,))]

    def test_local_unitaries_keep_partition_constant(self):
        from onticsim.circuit import Circuit, Event, System, TestNode
        from onticsim.engine import Program, ProgramStep

        rng = np.random.default_rng(8)
        systems = {"Q1": System("Q1", 2), "Q2": System("Q2", 2)}
        steps = []
        for t in range(3):
            nodes = [
                TestNode("u1", ("Q1",), ("Q1",), (Event("0", (haar_unitary(2, rng),)),)),
                TestNode("u2", ("Q2",), ("Q2",), (Event("0", (haar_unitary(2, rng),)),)),
            ]
            steps.append(ProgramStep(Circuit(f"s{t}", dict(systems), nodes, [])))
        psi0 = np.kron(haar_state(2, rng), haar_state(2, rng))
        traj = run_trajectory(Program("local", steps), omega0=psi0, seed=0, store_states=True)
        parts = classify_timeline(traj)
        assert all(p.blocks == ((0,), (1,)) for p in parts)

    def test_matches_recompute_oracle(self):
        rng = np.random.default_rng(9)
        traj = run_trajectory(gallery.merge_split_program(), seed=11, store_states=True)
        for t, part in enumerate(classify_timeline(traj)):
            redo = finest_factorization(traj.steps[t].state, traj.state_dims[t], timestamp=t)
            assert redo.blocks == part.blocks

    def test_non_finite_state_rejected(self):
        traj = run_trajectory(gallery.merge_split_program(), seed=3, store_states=True)
        state = traj.steps[1].state.copy()
        state[0] = np.nan
        traj.steps[1].state = state
        with pytest.raises(IndividuationError, match="finite"):
            classify_timeline(traj)

    @pytest.mark.parametrize("count", [1, 4])
    def test_one_shape_per_stored_state(self, count):
        traj = run_trajectory(gallery.merge_split_program(), seed=3, store_states=True)
        shapes = (traj.state_dims * 2)[:count]
        with pytest.raises(IndividuationError, match=f"{count} shapes for 3 stored states"):
            classify_timeline(traj, shapes=shapes)
        assert len(classify_timeline(traj, shapes=traj.state_dims)) == 3

    def test_needs_stored_states(self):
        traj = run_trajectory(gallery.merge_split_program(), seed=3, store_states=False)
        with pytest.raises(IndividuationError, match="store_states"):
            classify_timeline(traj)


def brute_force_partitions(n):
    """Enumerate integer partitions of n explicitly."""
    def gen(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return sum(1 for _ in gen(n, n))


class TestPatternCount:
    def test_single_system(self):
        assert count_entanglement_patterns(1) == 1

    def test_small_cases_against_brute_force(self):
        import math

        for n in range(1, 11):
            expected = brute_force_partitions(n) * math.factorial(n)
            assert count_entanglement_patterns(n) == expected

    def test_known_values(self):
        assert count_entanglement_patterns(4) == 5 * 24
        assert count_entanglement_patterns(6) == 11 * 720

    def test_bounds(self):
        with pytest.raises(IndividuationError):
            count_entanglement_patterns(0)
        with pytest.raises(IndividuationError):
            count_entanglement_patterns(21)
