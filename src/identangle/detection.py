"""Detector projection of boson ensembles and coherence-based separability.

An ensemble of N bosons with pseudospins meets two distinguishable
detectors L and R.  Projecting the symmetrized state onto the detector
subspace and grouping outcomes by the number q of particles found at L
(particle-number superselection) yields a sector decomposition whose
weighted entanglement is the postselected "entanglement of particles".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import DensityMatrix, pure_to_density, symmetrized_partial_trace
from .errors import (
    BoundsError,
    ConsistencyError,
    SectorError,
    SizeLimitError,
)
from .measures import ModeSplit, entropy_bits, mode_split_matrix
from .states import (
    REMAINDER_LABEL,
    OccupationKey,
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
    SymmetricKet,
    mode_ket,
    occupation_key,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

#: a block's unnormalized norm^2 reaches N! when all its modes coincide,
#: and 171! overflows a double
PROJECTION_SIZE_LIMIT = 170

MEASURES = ("entropy", "concurrence")


def coherence(mode: SpatialMode) -> float:
    """Spatial coherence 2*cos(theta)*sin(theta) of a mode in the {L, R} basis."""
    return mode.coherence()


@dataclass(frozen=True)
class ParticleEnsemble:
    """N bosons ordered spin-up first: modes[:n_up] are up, the rest down."""

    n_up: int
    modes: Tuple[SpatialMode, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ConsistencyError("ensemble must contain at least one particle")
        if not 0 <= self.n_up <= len(self.modes):
            raise ConsistencyError(
                f"n_up = {self.n_up} outside [0, {len(self.modes)}]"
            )

    @property
    def n_total(self) -> int:
        return len(self.modes)

    def spins(self) -> Tuple[Spin, ...]:
        return tuple(
            Spin.UP if j < self.n_up else Spin.DOWN for j in range(self.n_total)
        )

    def kets(self, tol: Tolerances = DEFAULT_TOLERANCES) -> List[SingleParticleKet]:
        return [
            mode_ket(mode, spin, tol=tol)
            for mode, spin in zip(self.modes, self.spins())
        ]

    def coherences(self) -> Tuple[float, ...]:
        return tuple(m.coherence() for m in self.modes)


@dataclass(frozen=True)
class DetectionMatrixSpec:
    """Detection outcome with alpha spin-up and beta spin-down particles at L."""

    alpha: int
    beta: int


@dataclass(frozen=True)
class Sector:
    """One superselection sector: q particles at L with probability p."""

    q: int
    probability: float
    state: SymmetricKet


@dataclass(frozen=True)
class SectorDecomposition:
    """Projection outcome grouped by the particle number q found at L."""

    sectors: Tuple[Sector, ...]
    leak_probability: float

    def probabilities(self) -> Dict[int, float]:
        return {s.q: s.probability for s in self.sectors}

    def sector(self, q: int) -> Sector:
        for s in self.sectors:
            if s.q == q:
                return s
        raise SectorError(f"sector q = {q} is empty or absent")


def detection_key(ensemble: ParticleEnsemble, spec: DetectionMatrixSpec) -> OccupationKey:
    """Occupation key of the detector outcome |L^a up, L^b down, R...>."""
    n, total = ensemble.n_up, ensemble.n_total
    if not 0 <= spec.alpha <= n:
        raise BoundsError(f"alpha = {spec.alpha} outside [0, {n}]")
    if not 0 <= spec.beta <= total - n:
        raise BoundsError(f"beta = {spec.beta} outside [0, {total - n}]")
    labels = (
        [("L", Spin.UP)] * spec.alpha
        + [("L", Spin.DOWN)] * spec.beta
        + [("R", Spin.UP)] * (n - spec.alpha)
        + [("R", Spin.DOWN)] * (total - n - spec.beta)
    )
    return occupation_key(labels)


def build_detection_matrix(
    ensemble: ParticleEnsemble, spec: DetectionMatrixSpec
) -> np.ndarray:
    """Overlap matrix A with A[j, k] = <detector bra j | particle ket k>.

    Rows run over the outcome bras in the order L-up (alpha), L-down (beta),
    R-up, R-down; columns over the input kets (ups first).  Spin-mismatched
    entries vanish, so the matrix splits into the block pattern
    [[C_a, 0, S_(n-a), 0], [0, C_b, 0, S_(N-n-b)]] up to a row ordering.
    """
    total = ensemble.n_total
    a = np.zeros((total, total), dtype=complex)
    spins = ensemble.spins()
    # the canonical key order is the row order above
    for j, (side, bra_spin) in enumerate(detection_key(ensemble, spec)):
        for k, (mode, ket_spin) in enumerate(zip(ensemble.modes, spins)):
            if bra_spin is not ket_spin:
                continue
            sin_phi = math.sin(mode.phi)
            if side == "L":
                a[j, k] = sin_phi * math.cos(mode.theta)
            else:
                a[j, k] = (
                    sin_phi
                    * math.sin(mode.theta)
                    * complex(math.cos(mode.omega), math.sin(mode.omega))
                )
    return a


def _detector_block(
    kets: Sequence[SingleParticleKet], spin: Spin, tol: Tolerances
) -> Tuple[np.ndarray, float, float]:
    """Detector amplitudes of one spin block, with its detected and leaked weights.

    The block state a'(k_1) ... a'(k_n)|vac> over the modes (L, R, chi) has
    amplitude sqrt(a_L! a_R! a_chi!) times the coefficient of
    x^a_L y^a_R z^a_chi in prod_k (c_k x + s_k y + r_k z), a_chi = n - a_L - a_R.
    Returns the normalized amplitudes B[a] of the outcomes a_L = a, a_R = n - a,
    their total weight, and the weight of the outcomes with a_chi > 0.
    """
    n = len(kets)
    coeffs = np.zeros((n + 1, n + 1), dtype=complex)
    coeffs[0, 0] = 1.0
    for ket in kets:
        c = ket.amplitude(("L", spin))
        s = ket.amplitude(("R", spin))
        r = ket.amplitude((REMAINDER_LABEL, spin))
        nxt = r * coeffs
        nxt[1:, :] += c * coeffs[:-1, :]
        nxt[:, 1:] += s * coeffs[:, :-1]
        coeffs = nxt
    a = np.arange(n + 1)
    # a_chi, clipped to 0 where a_L + a_R > n and the coefficients vanish
    a_chi = np.clip(n - np.add.outer(a, a), 0, None)
    root_fact = np.sqrt([float(math.factorial(k)) for k in a])
    amps = coeffs * np.outer(root_fact, root_fact) * root_fact[a_chi]
    weights = np.abs(amps) ** 2
    detected = amps[a, n - a]
    detected_sq = float(np.sum(weights[a, n - a]))
    leaked_sq = float(np.sum(weights[a_chi > 0]))
    norm_sq = detected_sq + leaked_sq
    if not norm_sq > tol.pruning:
        raise ConsistencyError("input state has vanishing norm")
    return detected / math.sqrt(norm_sq), detected_sq / norm_sq, leaked_sq / norm_sq


def project_onto_detectors(
    ensemble: ParticleEnsemble,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SectorDecomposition:
    """Project the symmetrized ensemble state onto the two-detector subspace.

    Up and down particles never share a mode, so the state is a product of
    an up and a down block (:func:`_detector_block`), and the outcome with
    alpha up and beta down particles at L has amplitude U[alpha] * D[beta];
    outcomes are grouped into sectors by q = alpha + beta.  The weight of
    the a_chi > 0 outcomes (phi < pi/2) is ``leak_probability``, summed
    rather than taken as the complement, so that probabilities plus leak
    summing to one is a genuine cross-check.
    """
    total = ensemble.n_total
    if total > PROJECTION_SIZE_LIMIT:
        raise SizeLimitError(
            f"projection is capped at N <= {PROJECTION_SIZE_LIMIT}, got N = {total}"
        )
    kets = ensemble.kets(tol=tol)
    n = ensemble.n_up
    up, up_detected, up_leaked = _detector_block(kets[:n], Spin.UP, tol)
    down, _, down_leaked = _detector_block(kets[n:], Spin.DOWN, tol)
    amps = np.outer(up, down)

    sectors: List[Sector] = []
    for q in range(total, -1, -1):
        group: Dict[OccupationKey, complex] = {}
        for alpha in range(max(0, q - (total - n)), min(q, n) + 1):
            amp = complex(amps[alpha, q - alpha])
            if abs(amp) > tol.pruning:
                key = detection_key(ensemble, DetectionMatrixSpec(alpha, q - alpha))
                group[key] = amp
        p = sum(abs(v) ** 2 for v in group.values())
        if p < tol.pruning:
            continue
        root = math.sqrt(p)
        state = SymmetricKet(
            total,
            Statistics.BOSON,
            {k: v / root for k, v in group.items()},
            normalized=True,
            tol=tol,
        )
        sectors.append(Sector(q, p, state))

    # an outcome leaks when either block has a particle in its remainder mode
    leak = up_leaked + up_detected * down_leaked
    return SectorDecomposition(tuple(sectors), leak)


def _side_particle_count(state: SymmetricKet, side_labels: Tuple[str, ...]) -> int:
    counts = {
        sum(1 for lab in key if lab[0] in side_labels) for key in state.keys()
    }
    if len(counts) != 1:
        raise SectorError(
            f"state is not confined to one particle-number sector on {side_labels}"
        )
    return counts.pop()


def sector_reduced_density(
    state: SymmetricKet,
    traced_side: str = "L",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DensityMatrix:
    """Reduced density matrix of a sector state after tracing out one side.

    The traced side's spin-resolved occupation basis |side^a up, side^(q-a) down>
    for a = 0..q is used as the subsystem identity.
    """
    if traced_side not in ("L", "R"):
        raise ConsistencyError(f"traced_side must be 'L' or 'R', got {traced_side!r}")
    if not state.keys():
        raise SectorError("sector state is empty")
    q = _side_particle_count(state, (traced_side,))
    basis = [
        occupation_key(
            [(traced_side, Spin.UP)] * a + [(traced_side, Spin.DOWN)] * (q - a)
        )
        for a in range(q + 1)
    ]
    return symmetrized_partial_trace(pure_to_density(state, tol=tol), basis, tol=tol)


def sector_entanglement(
    state: SymmetricKet,
    measure: str = "entropy",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Entanglement of one sector state across the two detector sides.

    Reads the squared Schmidt coefficients l_i across L|R and evaluates
    the chosen measure: "entropy" in bits, or "concurrence" with the
    cross-term normalization sqrt(sum_{i<j} l_i l_j) = sqrt((1 - sum l_i^2)/2),
    equal to the product of the two Schmidt coefficients on two-term
    sectors and to half the I-concurrence.  This is the convention whose
    postselected average reproduces the closed forms in
    measures.two_boson_average_concurrence and
    measures.three_boson_average_concurrence.
    """
    if measure not in MEASURES:
        raise ConsistencyError(
            f"unknown measure {measure!r}, expected one of {MEASURES}"
        )
    matrix = mode_split_matrix(state, ModeSplit())[0]
    weights = np.linalg.svd(matrix, compute_uv=False) ** 2
    weights /= np.sum(weights)
    if measure == "entropy":
        return entropy_bits(weights, tol)
    # pairwise products, not 1 - sum l^2: the subtraction would turn
    # normalization residue of rank-1 sectors into sqrt-amplified noise
    return math.sqrt(float(np.sum(weights[1:] * np.cumsum(weights)[:-1])))


def entanglement_of_particles(
    ensemble: ParticleEnsemble,
    measure: str = "concurrence",
    tol: Tolerances = DEFAULT_TOLERANCES,
    decomposition: Optional[SectorDecomposition] = None,
) -> float:
    """Postselected average entanglement sum_q p_q E(sector_q).

    Sector weights are renormalized to sum to one when some probability
    leaks outside the detector subspace.  Returns 0 when every particle
    misses both detectors.
    """
    if decomposition is None:
        decomposition = project_onto_detectors(ensemble, tol=tol)
    total_p = sum(s.probability for s in decomposition.sectors)
    if total_p <= tol.pruning:
        return 0.0
    value = 0.0
    for sector in decomposition.sectors:
        weight = sector.probability / total_p
        value += weight * sector_entanglement(sector.state, measure, tol=tol)
    return value


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the spatial-coherence separability criterion."""

    criterion_holds: bool
    entanglement: float
    separable: bool


def theorem1_separability_check(
    ensemble: ParticleEnsemble,
    measure: str = "concurrence",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SeparabilityVerdict:
    """Check the coherence criterion: if every spin-up particle or every
    spin-down particle has zero spatial coherence, the projected state is
    separable.  The converse does not hold.
    """
    cs = ensemble.coherences()
    ups = cs[: ensemble.n_up]
    downs = cs[ensemble.n_up :]
    criterion = all(c <= tol.coherence_zero for c in ups) or all(
        c <= tol.coherence_zero for c in downs
    )
    value = entanglement_of_particles(ensemble, measure=measure, tol=tol)
    return SeparabilityVerdict(criterion, value, value < tol.separability)
