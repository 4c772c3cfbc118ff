"""Transition amplitudes, single-particle contraction, and symmetrized
reduced density matrices for identical particles."""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    CompletenessError,
    ConsistencyError,
    DimensionError,
    NormalizationError,
)
from .permanent import determinant, permanent_ryser
from .states import (
    BasisLabel,
    OccupationKey,
    SingleParticleKet,
    Statistics,
    SymmetricKet,
    ket_multiplicities,
    normalization_total,
    occupation_key,
    symmetrize_product,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

def overlap_matrix(
    bras: Sequence[SingleParticleKet], kets: Sequence[SingleParticleKet]
) -> np.ndarray:
    """Matrix A with A[i, j] = <bra_i|ket_j>.

    The basis labels of all kets on both sides become the columns of one
    dense amplitude array per side, and A is their product B^* K^T.
    """
    columns: Dict[BasisLabel, int] = {}
    for ket in (*bras, *kets):
        for label in ket.labels():
            columns.setdefault(label, len(columns))

    def dense(side: Sequence[SingleParticleKet]) -> np.ndarray:
        out = np.zeros((len(side), len(columns)), dtype=complex)
        for i, ket in enumerate(side):
            for label, amp in ket.items():
                out[i, columns[label]] = amp
        return out

    return dense(bras).conj() @ dense(kets).T


def transition_amplitude(
    bras: Sequence[SingleParticleKet],
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> complex:
    """Amplitude <bra_1,...,bra_N | ket_1,...,ket_N> between symmetrized states.

    Bosons: perm(A) / (N! * Nf(bras) * Nf(kets)) with A the overlap matrix,
    its permanent from :func:`permanent.permanent_ryser` (so N <= 30), and
    Nf the multiplicity normalization of :func:`normalization_total`.
    Kets over any labels are accepted; for configured detector modes
    :func:`fold.fold_amplitude` gives the same value in polynomial time.
    Fermions: det(A), i.e. the same pattern with all multiplicities one;
    :func:`fold.fermion_amplitude` gives it from spin-block minors.
    Both sides carry the combinatorial normalization, so the value is the
    physical inner product whenever the distinct constituents are
    orthogonal.
    """
    if len(bras) != len(kets):
        raise ConsistencyError(
            f"bra and ket lists differ in length ({len(bras)} vs {len(kets)})"
        )
    n = len(kets)
    if n == 0:
        raise ConsistencyError("at least one particle is required")
    a = overlap_matrix(bras, kets)
    if statistics is Statistics.FERMION:
        return determinant(a)
    norm_bra = normalization_total(ket_multiplicities(bras), n)
    norm_ket = normalization_total(ket_multiplicities(kets), n)
    return permanent_ryser(a) / (math.factorial(n) * norm_bra * norm_ket)


def contract_single(
    bra: SingleParticleKet,
    kets: Sequence[SingleParticleKet],
) -> SymmetricKet:
    """Contraction of a single-particle bra on a symmetrized product state.

    Returns the (N-1)-particle state sum_i <bra|ket_i> |ket_1,..,(ket_i),..>
    with the i-th ket removed; each term carries the subsystem
    symmetrization normalization.  The output is generally unnormalized.
    Bosonic only.
    """
    n = len(kets)
    if n == 0:
        raise ConsistencyError("at least one ket is required")
    total: Dict[OccupationKey, complex] = {}
    for i in range(n):
        coeff = bra.inner(kets[i])
        if abs(coeff) <= TOL.pruning:
            continue
        rest = list(kets[:i]) + list(kets[i + 1 :])
        if rest:
            term = symmetrize_product(rest, Statistics.BOSON)
            for key, value in term.items():
                total[key] = total.get(key, 0j) + coeff * value
        else:
            total[()] = total.get((), 0j) + coeff
    return SymmetricKet(n - 1, Statistics.BOSON, total)


class DensityMatrix:
    """Hermitian PSD operator on an orthonormal occupation-key basis."""

    __slots__ = ("basis", "entries", "n_particles")

    def __init__(
        self,
        basis: Sequence[OccupationKey],
        entries,
    ):
        basis = [occupation_key(k) for k in basis]
        if len(set(basis)) != len(basis):
            raise ConsistencyError("density matrix basis contains duplicates")
        m = np.asarray(entries, dtype=complex)
        if m.shape != (len(basis), len(basis)):
            raise DimensionError(
                f"entries shape {m.shape} does not match basis size {len(basis)}"
            )
        order = sorted(range(len(basis)), key=lambda i: basis[i])
        self.basis: List[OccupationKey] = [basis[i] for i in order]
        self.entries = m[np.ix_(order, order)]
        lengths = {len(k) for k in self.basis}
        if len(lengths) > 1:
            raise ConsistencyError("basis mixes different particle numbers")
        self.n_particles = lengths.pop() if lengths else 0
        m = self.entries
        if m.size == 0:
            raise ConsistencyError("density matrix cannot be empty")
        if np.abs(m - m.conj().T).max() > TOL.normalization:
            raise ConsistencyError("density matrix is not Hermitian")
        evs = np.linalg.eigvalsh(m)
        if evs.min() < -TOL.normalization:
            raise ConsistencyError(
                f"density matrix has negative eigenvalue {evs.min():.3e}"
            )
        tr = self.trace
        if tr < -TOL.normalization or tr > 1.0 + TOL.normalization:
            raise ConsistencyError(f"density matrix trace {tr!r} outside [0, 1]")

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @property
    def purity(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2))

    def eigenvalues(self) -> np.ndarray:
        """Ascending real eigenvalues."""
        return np.linalg.eigvalsh(self.entries)

    def __repr__(self):
        return (
            f"DensityMatrix(dim={len(self.basis)}, n={self.n_particles}, "
            f"trace={self.trace:.6g})"
        )


def pure_to_density(
    psi: SymmetricKet,
) -> DensityMatrix:
    """Rank-1 projector |psi><psi| of a normalized state."""
    n = psi.norm()
    if abs(n - 1.0) > TOL.normalization:
        raise NormalizationError(f"pure_to_density needs a unit ket, norm = {n!r}")
    basis = sorted(psi.keys())
    v = np.array([psi.amplitude(k) for k in basis], dtype=complex)
    return DensityMatrix(basis, np.outer(v, v.conj()))


def convex_mixture(
    terms: Sequence[Tuple[float, DensityMatrix]],
) -> DensityMatrix:
    """Convex combination sum_a p_a rho_a over a merged basis."""
    if not terms:
        raise ConsistencyError("mixture requires at least one term")
    keys = sorted({k for _, dm in terms for k in dm.basis})
    index = {k: i for i, k in enumerate(keys)}
    out = np.zeros((len(keys), len(keys)), dtype=complex)
    for weight, dm in terms:
        if weight < -TOL.comparison:
            raise ConsistencyError("mixture weights must be nonnegative")
        ix = [index[k] for k in dm.basis]
        out[np.ix_(ix, ix)] += weight * dm.entries
    return DensityMatrix(keys, out)


def _contraction_weight(sub: Counter, full: Counter) -> float:
    """Squared contraction coefficient prod_b C(n_b, m_b), 0 if sub > full."""
    w = 1.0
    for label, m in sub.items():
        n = full.get(label, 0)
        if m > n:
            return 0.0
        w *= math.comb(n, m)
    return w


def symmetrized_partial_trace(
    rho: DensityMatrix,
    subsystem_basis: Sequence[OccupationKey],
) -> DensityMatrix:
    """Partial trace over a symmetrized subsystem basis.

    ``subsystem_basis`` lists n-particle occupation keys whose projector
    sum must resolve the identity on the support of ``rho`` (checked, with
    the worst deficit reported).  Returns the (N - n)-particle reduced
    density matrix; the trace is preserved.  Bosonic occupation counting.
    """
    basis = [occupation_key(k) for k in subsystem_basis]
    if not basis:
        raise ConsistencyError("subsystem basis must not be empty")
    if len(set(basis)) != len(basis):
        raise ConsistencyError("subsystem basis contains duplicates")
    sizes = {len(k) for k in basis}
    if len(sizes) != 1:
        raise ConsistencyError("subsystem basis mixes particle numbers")
    n_sub = sizes.pop()
    if n_sub > rho.n_particles:
        raise ConsistencyError(
            f"subsystem of {n_sub} particles exceeds state of {rho.n_particles}"
        )
    sub_counts = [Counter(k) for k in basis]
    full_counts = [Counter(k) for k in rho.basis]

    # completeness: sum_m prod_b C(n_b, m_b) must be 1 on every support key
    worst = 0.0
    for fc in full_counts:
        s = sum(_contraction_weight(sc, fc) for sc in sub_counts)
        worst = max(worst, abs(s - 1.0))
    if worst > TOL.comparison:
        raise CompletenessError(
            "subsystem basis does not resolve the identity on the state "
            f"support (deficit norm {worst:.3e})"
        )

    reduced: Dict[Tuple[OccupationKey, OccupationKey], complex] = {}
    remainder_keys = set()
    dim = len(rho.basis)
    for i in range(dim):
        ci = full_counts[i]
        for j in range(dim):
            value = rho.entries[i, j]
            if value == 0:
                continue
            cj = full_counts[j]
            for sc, sub_key in zip(sub_counts, basis):
                wi = _contraction_weight(sc, ci)
                if wi == 0.0:
                    continue
                wj = _contraction_weight(sc, cj)
                if wj == 0.0:
                    continue
                ri = _subtract_key(ci, sc)
                rj = _subtract_key(cj, sc)
                remainder_keys.add(ri)
                remainder_keys.add(rj)
                prev = reduced.get((ri, rj), 0j)
                reduced[(ri, rj)] = prev + math.sqrt(wi * wj) * value

    keys = sorted(remainder_keys)
    if not keys:
        keys = [()]
    index = {k: i for i, k in enumerate(keys)}
    out = np.zeros((len(keys), len(keys)), dtype=complex)
    for (ri, rj), value in reduced.items():
        out[index[ri], index[rj]] = value
    return DensityMatrix(keys, out)


def _subtract_key(full: Counter, sub: Counter) -> OccupationKey:
    rest: List = []
    for label, n in full.items():
        m = n - sub.get(label, 0)
        rest.extend([label] * m)
    return occupation_key(rest)
