"""Detector projection of boson ensembles and coherence-based separability.

An ensemble of N bosons with pseudospins meets two distinguishable
detectors L and R.  Projecting the symmetrized state onto the detector
subspace and grouping outcomes by the number q of particles found at L
(particle-number superselection) yields a sector decomposition whose
weighted entanglement is the postselected "entanglement of particles".
The same per-spin fold gives transition amplitudes between two ensembles.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .algebra import DensityMatrix, pure_to_density, symmetrized_partial_trace
from .errors import (
    BoundsError,
    ConsistencyError,
    RowError,
    SectorError,
    SizeLimitError,
)
from .measures import ModeSplit, _dicke_key, mode_split_matrix, weight_measure
from .states import (
    OccupationKey,
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
    SymmetricKet,
    mode_ket,
    wrap_phase,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

#: a block's unnormalized norm^2 reaches N! when all its modes coincide,
#: and 171! overflows a double
PROJECTION_SIZE_LIMIT = 170


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

    def kets(self) -> List[SingleParticleKet]:
        return [
            mode_ket(mode, spin)
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
    # already canonical: L before R, up before down
    return (
        (("L", Spin.UP),) * spec.alpha
        + (("L", Spin.DOWN),) * spec.beta
        + (("R", Spin.UP),) * (n - spec.alpha)
        + (("R", Spin.DOWN),) * (total - n - spec.beta)
    )


def build_detection_matrix(
    ensemble: ParticleEnsemble, spec: DetectionMatrixSpec
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
        [[ket.amplitude(label) for ket in kets] for label in detection_key(ensemble, spec)],
        dtype=complex,
    )


def _require_rows(ok: np.ndarray, message: Callable[[int], str]):
    """Raise RowError naming the first row where ``ok`` is False."""
    if not ok.all():
        row = int(ok.argmin())
        raise RowError(row, message(row))


@functools.lru_cache(maxsize=PROJECTION_SIZE_LIMIT + 1)
def _block_layout(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constants of the n-particle fold: the outcome indices (a, n - a),
    the sqrt(a_L! a_R! a_chi!) scale and the a_chi > 0 mask."""
    a = np.arange(n + 1)
    # a_chi, clipped to 0 where a_L + a_R > n and the coefficients vanish
    a_chi = np.clip(n - np.add.outer(a, a), 0, None)
    root_fact = np.sqrt([float(math.factorial(k)) for k in a])
    scale = np.outer(root_fact, root_fact) * root_fact[a_chi]
    layout = (a, n - a, scale, a_chi > 0)
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


def _fock_block(c: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Unnormalized Fock amplitudes of one spin block over a batch of G states.

    ``c``, ``s`` and ``r`` have shape (G, n) and hold each particle's
    amplitude on L, R and the remainder mode chi.  The block state
    a'(k_1) ... a'(k_n)|vac> over the modes (L, R, chi) has amplitude
    sqrt(a_L! a_R! a_chi!) times the coefficient of x^a_L y^a_R z^a_chi in
    prod_k (c_k x + s_k y + r_k z), a_chi = n - a_L - a_R.  Returns these
    amplitudes indexed [:, a_L, a_R], shape (G, n+1, n+1), zero where
    a_L + a_R > n.
    """
    g, n = c.shape
    # after k particles only a_L, a_R <= k carry coefficients
    coeffs = np.ones((g, 1, 1), dtype=complex)
    # particle k's amplitudes at [k], shaped (G, 1, 1) to scale whole arrays
    cs, ss, rs = (x.T[:, :, None, None] for x in (c, s, r))
    for k in range(n):
        nxt = np.zeros((g, k + 2, k + 2), dtype=complex)
        nxt[:, :-1, :-1] = rs[k] * coeffs
        nxt[:, 1:, :-1] += cs[k] * coeffs
        nxt[:, :-1, 1:] += ss[k] * coeffs
        coeffs = nxt
    return coeffs * _block_layout(n)[2]


def _detector_block(
    c: np.ndarray, s: np.ndarray, r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detector amplitudes of one spin block over a batch of G states.

    From the Fock amplitudes of :func:`_fock_block`, returns the normalized
    amplitudes B[:, a] of the outcomes a_L = a, a_R = n - a, shape
    (G, n+1), their total weight (G,), and the weight of the outcomes with
    a_chi > 0 (G,).  Raises RowError on the first state of vanishing norm.
    """
    left, right, _, leaks = _block_layout(c.shape[1])
    amps = _fock_block(c, s, r)
    weights = amps.real ** 2 + amps.imag ** 2
    detected = amps[:, left, right]
    detected_sq = weights[:, left, right].sum(axis=1)
    leaked_sq = weights[:, leaks].sum(axis=1)
    norm_sq = detected_sq + leaked_sq
    _require_rows(norm_sq > TOL.pruning, lambda row: "input state has vanishing norm")
    return (
        detected / np.sqrt(norm_sq)[:, None],
        detected_sq / norm_sq,
        leaked_sq / norm_sq,
    )


@functools.lru_cache(maxsize=PROJECTION_SIZE_LIMIT + 1)
def _sector_layout(n_up: int, n_down: int) -> Tuple[np.ndarray, np.ndarray]:
    """(q, alpha) position of each outcome (alpha, beta), q = alpha + beta."""
    alpha, beta = np.indices((n_up + 1, n_down + 1))
    layout = (alpha + beta, alpha)
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


def _phases(angles: np.ndarray) -> np.ndarray:
    """e^{i angle}, with the angle wrapped into [0, 2*pi) as SpatialMode does."""
    wrapped = wrap_phase(angles)
    phases = np.empty(angles.shape, dtype=complex)
    phases.real = np.cos(wrapped)
    phases.imag = np.sin(wrapped)
    return phases


def _require_fold_size(what: str, total: int):
    if total > PROJECTION_SIZE_LIMIT:
        raise SizeLimitError(
            f"{what} is capped at N <= {PROJECTION_SIZE_LIMIT}, got N = {total}"
        )


def _mode_amplitudes(
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes (c, s, r) on L, R and the remainder mode chi of the
    particles with the given (G, N) mode angles.

    They are those of :func:`states.mode_ket`, pruned at ``TOL.pruning``; a
    particle off unit norm by more than ``TOL.normalization`` raises
    RowError on its row.
    """
    sin_phi = np.sin(phi)
    c = sin_phi * np.cos(theta)
    s = sin_phi * np.sin(theta) * _phases(omega)
    r = np.cos(phi) * _phases(gamma)
    for amps in (c, s, r):
        amps[np.abs(amps) <= TOL.pruning] = 0.0
    norm = np.sqrt(np.abs(c) ** 2 + np.abs(s) ** 2 + np.abs(r) ** 2)
    unit = np.abs(norm - 1.0) <= TOL.normalization
    _require_rows(
        unit.all(axis=1),
        lambda row: "single-particle ket must be unit norm, "
        f"got {float(norm[row][~unit[row]][0])!r}",
    )
    return c, s, r


def _project_batch(
    n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Detector projection of G ensembles given their (G, N) mode angles,
    particles ordered spin-up first.

    Each particle's amplitudes on L, R and the remainder mode chi are those
    of :func:`_mode_amplitudes`.  Up and down particles never share a mode,
    so each state is a product of an up and a down block
    (:func:`_detector_block`), and the outcome with alpha up and beta down
    particles at L has amplitude U[alpha] * D[beta].
    Outcomes with |amplitude| <= ``TOL.pruning`` are dropped and the rest
    grouped into sectors by q = alpha + beta; a sector below
    ``TOL.pruning`` reads as empty (probability 0).  Returns the outcome
    amplitudes (G, n_up+1, N-n_up+1), their kept weights by sector
    (G, N+1, n_up+1) indexed by (q, alpha), the sector probabilities
    (G, N+1) and the leak (G,).

    The leak is the weight of the a_chi > 0 outcomes (phi < pi/2), summed
    rather than taken as the complement, so that probabilities plus leak
    summing to one is a genuine cross-check, made before empty sectors are
    zeroed: the projected state has unit norm, so a deviation above
    ``TOL.normalization`` raises RowError on the first failing row.
    """
    total = theta.shape[1]
    _require_fold_size("projection", total)
    c, s, r = _mode_amplitudes(theta, omega, phi, gamma)
    up, up_detected, up_leaked = _detector_block(c[:, :n_up], s[:, :n_up], r[:, :n_up])
    down, _, down_leaked = _detector_block(c[:, n_up:], s[:, n_up:], r[:, n_up:])
    outcomes = up[:, :, None] * down[:, None, :]
    weights = outcomes.real ** 2 + outcomes.imag ** 2
    weights[np.abs(outcomes) <= TOL.pruning] = 0.0
    q, alpha = _sector_layout(n_up, total - n_up)
    by_sector = np.zeros((len(outcomes), total + 1, n_up + 1))
    by_sector[:, q, alpha] = weights
    p = by_sector.sum(axis=2)
    # an outcome leaks when either block has a particle in its remainder mode
    leak = up_leaked + up_detected * down_leaked
    deviation = p.sum(axis=1) + leak - 1.0
    _require_rows(
        np.abs(deviation) <= TOL.normalization,
        lambda row: f"sector probabilities plus leak miss one by {deviation[row]:.3e}",
    )
    p[p < TOL.pruning] = 0.0
    return outcomes, by_sector, p, leak


def fold_amplitude(
    bra_n_up: int,
    ket_n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> complex:
    """Amplitude <bra|ket> between two symmetrized boson product states.

    Row 0 of the (2, N) angle arrays holds the bra's particles, row 1 the
    ket's, each spin-up first.  The overlap matrix is block-diagonal by
    spin, and each block has rank at most 3 (every mode lies in
    span{L, R, chi}), so its permanent is the sum of conj(F_bra) F_ket over
    the Fock amplitudes of :func:`_fock_block`.  The product of the two
    block permanents is divided by sqrt(prod nu! prod mu!), nu and mu the
    repeat counts of exactly equal (c, s, r) within a block of the bra and
    of the ket, as in :func:`algebra.transition_amplitude`.  Different
    n_up give exactly 0.  Raises SizeLimitError above N = 170.
    """
    _require_fold_size("amplitude", theta.shape[1])
    c, s, r = _mode_amplitudes(theta, omega, phi, gamma)
    if bra_n_up != ket_n_up:
        return 0j
    blocks = (slice(None, ket_n_up), slice(ket_n_up, None))
    value = 1.0
    for block in blocks:
        bra, ket = _fock_block(c[:, block], s[:, block], r[:, block])
        value *= np.vdot(bra, ket)
    # factor by factor, since prod nu! * prod mu! can overflow a double
    root_repeats = 1.0
    for row in zip(c.tolist(), s.tolist(), r.tolist()):
        triples = list(zip(*row))
        for block in blocks:
            for k in Counter(triples[block]).values():
                root_repeats *= math.sqrt(math.factorial(k))
    return complex(value / root_repeats)


def _angle_rows(ensemble: ParticleEnsemble) -> np.ndarray:
    """theta, omega, phi and gamma of the ensemble's particles, shape (4, 1, N)."""
    return np.array(
        [[(m.theta, m.omega, m.phi, m.gamma) for m in ensemble.modes]]
    ).transpose(2, 0, 1)


def _sector_walk(
    outcomes: np.ndarray, p: np.ndarray
) -> List[Tuple[int, float, List[Tuple[int, complex]]]]:
    """The nonempty sectors of one projection of :func:`_project_batch`,
    from its outcome amplitudes (n_up+1, N-n_up+1) and sector
    probabilities (N+1,), as (q, p_q, state) with q descending.

    A sector's state lists (alpha, amplitude) with alpha ascending: the
    outcome amplitudes above ``TOL.pruning``, divided by sqrt(p_q) and
    pruned again.  Raises ConsistencyError when a state is off unit norm by
    more than ``TOL.normalization``.
    """
    outcomes = outcomes.tolist()
    n_up, n_down = len(outcomes) - 1, len(outcomes[0]) - 1
    sectors = []
    for q, probability in reversed(list(enumerate(p.tolist()))):
        if probability == 0.0:
            continue
        root = math.sqrt(probability)
        state = []
        for alpha in range(max(0, q - n_down), min(q, n_up) + 1):
            amp = outcomes[alpha][q - alpha]
            value = amp / root
            if abs(amp) > TOL.pruning and abs(value) > TOL.pruning:
                state.append((alpha, value))
        norm = math.sqrt(sum(abs(value) ** 2 for _, value in state))
        if abs(norm - 1.0) > TOL.normalization:
            raise ConsistencyError(f"sector q = {q} has norm {norm!r}")
        sectors.append((q, probability, state))
    return sectors


def project_onto_detectors(
    ensemble: ParticleEnsemble,
) -> SectorDecomposition:
    """Project the symmetrized ensemble state onto the two-detector subspace.

    The projection of :func:`_project_batch` for one ensemble, with each
    sector (:func:`_sector_walk`) returned as a normalized state over the
    detector outcome keys and the weight of the outcomes outside the
    detectors as ``leak_probability``.  Raises ConsistencyError when the
    sector probabilities plus the leak miss one by more than
    ``TOL.normalization``.
    """
    outcomes, _, p, leak = _project_batch(ensemble.n_up, *_angle_rows(ensemble))
    sectors: List[Sector] = []
    for q, probability, state in _sector_walk(outcomes[0], p[0]):
        amps = {
            detection_key(ensemble, DetectionMatrixSpec(alpha, q - alpha)): value
            for alpha, value in state
        }
        ket = SymmetricKet(ensemble.n_total, Statistics.BOSON, amps, normalized=True)
        sectors.append(Sector(q, probability, ket))
    return SectorDecomposition(tuple(sectors), float(leak[0]))


def sweep_grid(
    n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
    measure: str = "concurrence",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projection and postselected entanglement of G ensembles at once.

    The angle arrays have shape (G, N), particles ordered spin-up first
    (n_up of them), and lie in the ranges SpatialMode accepts.  Returns the
    sector probabilities p (G, N+1), the leak (G,) and the postselected
    average of ``measure`` (G,); row g equals :func:`project_onto_detectors`
    of the ensemble in that row.

    The entanglement is :func:`_postselected` of the projection.  A failed
    check raises RowError naming the first failing row.
    """
    _, by_sector, p, leak = _project_batch(n_up, theta, omega, phi, gamma)
    return p, leak, _postselected(by_sector, p, measure)


def _schmidt_weights(by_sector: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Schmidt weights across L|R of the sectors of :func:`_project_batch`,
    (G, N+1, n_up+1): sector q's outcome weights |U[alpha] D[q-alpha]|^2 / p_q,
    one term each, since distinct alpha give distinct keys on both sides
    (:func:`sector_entanglement` reads them from an SVD); empty sectors read 0.
    """
    return np.divide(
        by_sector, p[..., None], out=np.zeros_like(by_sector), where=p[..., None] > 0.0
    )


def _postselected(
    by_sector: np.ndarray, p: np.ndarray, measure: str
) -> np.ndarray:
    """Postselected average of ``measure`` over G projections, from the
    kept outcome weights (G, N+1, n_up+1) and sector probabilities (G, N+1)
    of :func:`_project_batch`.

    Each sector's measure is read from its :func:`_schmidt_weights`, one
    term per kept outcome.  A row whose sum(p) is at most ``TOL.pruning``
    reads 0.
    """
    terms = np.count_nonzero(by_sector, axis=2)
    sector_values = weight_measure(_schmidt_weights(by_sector, p), terms, measure)
    # postselected: sector weights renormalized over the detected probability
    total_p = p.sum(axis=1)[:, None]
    share = np.divide(p, total_p, out=np.zeros_like(p), where=total_p > TOL.pruning)
    return (share * sector_values).sum(axis=1)


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

    Splits the state's keys into an L|R coefficient matrix
    (:func:`measures.mode_split_matrix`), takes its squared singular values
    l_i and evaluates the chosen measure with
    :func:`measures.weight_measure`: "entropy" in bits, or "concurrence"
    with the cross-term normalization sqrt(sum_{i<j} l_i l_j) =
    sqrt((1 - sum l_i^2)/2), equal to the product of the two Schmidt
    coefficients on two-term sectors and to half the I-concurrence.  This
    is the convention whose postselected average reproduces the closed
    forms in measures.two_boson_average_concurrence and
    measures.three_boson_average_concurrence.  The reference route for
    :func:`sweep_grid`, which reads the same weights from the outcomes.
    """
    matrix = mode_split_matrix(state, ModeSplit())[0]
    weights = np.linalg.svd(matrix, compute_uv=False) ** 2
    weights /= weights.sum()
    return float(weight_measure(weights, weights.size, measure))


def entanglement_of_particles(
    ensemble: ParticleEnsemble,
    measure: str = "concurrence",
) -> float:
    """Postselected average entanglement sum_q p_q E(sector_q).

    :func:`sweep_grid` on the ensemble's one row: each sector's measure is
    read from its outcome weights, and the sector weights are renormalized
    to sum to one when some probability leaks outside the detector
    subspace.  Returns 0 when every particle misses both detectors.
    """
    return float(sweep_grid(ensemble.n_up, *_angle_rows(ensemble), measure)[2][0])


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the spatial-coherence separability criterion."""

    criterion_holds: bool
    entanglement: float
    separable: bool


def theorem1_separability_check(
    ensemble: ParticleEnsemble,
    measure: str = "concurrence",
) -> SeparabilityVerdict:
    """Check the coherence criterion: if every spin-up particle or every
    spin-down particle has zero spatial coherence, the projected state is
    separable.  The converse does not hold.
    """
    cs = ensemble.coherences()
    ups = cs[: ensemble.n_up]
    downs = cs[ensemble.n_up :]
    criterion = all(c <= TOL.coherence_zero for c in ups) or all(
        c <= TOL.coherence_zero for c in downs
    )
    value = entanglement_of_particles(ensemble, measure=measure)
    return SeparabilityVerdict(criterion, value, value < TOL.separability)
