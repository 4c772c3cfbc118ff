"""Detector projection of boson ensembles and coherence-based separability.

An ensemble of N bosons with pseudospins meets two distinguishable
detectors L and R.  Projecting the symmetrized state onto the detector
subspace and grouping outcomes by the number q of particles found at L
(particle-number superselection) yields a sector decomposition whose
weighted entanglement is the postselected "entanglement of particles".
This is the object model over the spin-block fold (:mod:`identangle.fold`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .algebra import DensityMatrix, pure_to_density, symmetrized_partial_trace
from .errors import BoundsError, ConsistencyError, SectorError
from .fold import _project_batch, _sector_walk, sweep_grid, weight_measure
from .measures import ModeSplit, _dicke_key, schmidt_coefficients
from .states import OccupationKey, ParticleEnsemble, Statistics, SymmetricKet
from .tolerances import DEFAULT_TOLERANCES as TOL


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


def detection_key(ensemble: ParticleEnsemble, alpha: int, beta: int) -> OccupationKey:
    """Occupation key of the detector outcome |L^alpha up, L^beta down, R...>."""
    n, total = ensemble.n_up, ensemble.n_total
    if not 0 <= alpha <= n:
        raise BoundsError(f"alpha = {alpha} outside [0, {n}]")
    if not 0 <= beta <= total - n:
        raise BoundsError(f"beta = {beta} outside [0, {total - n}]")
    # already canonical: L before R
    return _dicke_key("L", alpha + beta, alpha) + _dicke_key("R", total - alpha - beta, n - alpha)


def build_detection_matrix(
    ensemble: ParticleEnsemble, alpha: int, beta: int
) -> np.ndarray:
    """Overlap matrix A with A[j, k] = <detector bra j | particle ket k>.

    Rows run over the outcome bras in the order L-up (alpha), L-down (beta),
    R-up, R-down; columns over the input kets (ups first).  Spin-mismatched
    entries vanish, so the matrix splits into the block pattern
    [[C_a, 0, S_(n-a), 0], [0, C_b, 0, S_(N-n-b)]] up to a row ordering.
    The entries are the kets' amplitudes (:func:`states.mode_ket`).
    """
    kets = ensemble.kets()
    # the canonical key order is the row order above
    return np.array(
        [[ket.amplitude(label) for ket in kets] for label in detection_key(ensemble, alpha, beta)],
        dtype=complex,
    )


def project_onto_detectors(
    ensemble: ParticleEnsemble,
) -> SectorDecomposition:
    """Project the symmetrized ensemble state onto the two-detector subspace.

    The projection of :func:`fold._project_batch` for one ensemble, with
    each sector (:func:`fold._sector_walk`) returned as a normalized state over the
    detector outcome keys and the weight of the outcomes outside the
    detectors as ``leak_probability``.  Raises ConsistencyError when the
    sector probabilities plus the leak miss one by more than
    ``TOL.normalization``.
    """
    outcomes, _, p, leak = _project_batch(ensemble.n_up, *ensemble.angle_rows())
    sectors: List[Sector] = []
    for q, probability, state in _sector_walk(outcomes[0], p[0]):
        amps = {
            detection_key(ensemble, alpha, q - alpha): value
            for alpha, value in state
        }
        ket = SymmetricKet(ensemble.n_total, Statistics.BOSON, amps, normalized=True)
        sectors.append(Sector(q, probability, ket))
    return SectorDecomposition(tuple(sectors), float(leak[0]))


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
    basis = [_dicke_key(traced_side, q, a) for a in range(q + 1)]
    return symmetrized_partial_trace(pure_to_density(state), basis)


def sector_entanglement(
    state: SymmetricKet,
    measure: str = "entropy",
) -> float:
    """Entanglement of one sector state across the two detector sides.

    Takes the squared Schmidt coefficients l_i across L|R
    (:func:`measures.schmidt_coefficients` of a :class:`measures.ModeSplit`)
    and evaluates the chosen measure with
    :func:`fold.weight_measure`: "entropy" in bits, or "concurrence"
    with the cross-term normalization sqrt(sum_{i<j} l_i l_j) =
    sqrt((1 - sum l_i^2)/2), equal to the product of the two Schmidt
    coefficients on two-term sectors and to half the I-concurrence.  This
    is the convention whose postselected average reproduces the closed
    forms in measures.two_boson_average_concurrence and
    measures.three_boson_average_concurrence.  The reference route for
    :func:`fold.sweep_grid`, which reads the same weights from the outcomes.
    """
    weights = np.square(schmidt_coefficients(state, ModeSplit()))
    return float(weight_measure(weights, weights.size, measure))


def entanglement_of_particles(
    ensemble: ParticleEnsemble,
    measure: str = "concurrence",
) -> float:
    """Postselected average entanglement sum_q p_q E(sector_q).

    :func:`fold.sweep_grid` on the ensemble's one row: each sector's measure is
    read from its Schmidt weights, and the sector weights are renormalized
    to sum to one when some probability leaks outside the detector
    subspace.  Returns 0 when every particle misses both detectors.
    """
    return float(sweep_grid(ensemble.n_up, *ensemble.angle_rows(), measure)[2][0])


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the spatial-coherence separability criterion."""

    criterion_holds: bool
    entanglement: float
    separable: bool


def theorem1_separability_check(
    ensemble: ParticleEnsemble,
) -> SeparabilityVerdict:
    """Check the coherence criterion: if every spin-up particle or every
    spin-down particle has zero spatial coherence, the projected state is
    separable.  The converse does not hold.  The verdict reads the average
    concurrence; whether it vanishes does not depend on the measure.
    """
    cs = [m.coherence() for m in ensemble.modes]
    ups = cs[: ensemble.n_up]
    downs = cs[ensemble.n_up :]
    criterion = all(c <= TOL.coherence_zero for c in ups) or all(
        c <= TOL.coherence_zero for c in downs
    )
    value = entanglement_of_particles(ensemble, "concurrence")
    return SeparabilityVerdict(criterion, value, value < TOL.separability)
