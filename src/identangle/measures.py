"""Entanglement and coherence quantifiers.

Von Neumann entropy, pure-state I-concurrence, Schmidt decompositions
across detector modes or particle-label groups, and closed-form reference
expressions for the two- and three-boson detector averages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import BipartitionError, ConsistencyError, NormalizationError, SectorError
from .fold import _project_batch, _require_fold_size, weight_measure
from .states import (
    OccupationKey,
    ParticleEnsemble,
    SpatialMode,
    Spin,
    Statistics,
    SymmetricKet,
    occupation_key,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

if TYPE_CHECKING:
    from .algebra import DensityMatrix


def von_neumann_entropy(
    rho: DensityMatrix,
) -> float:
    """Entropy -sum(l * log2(l)) in bits of the eigenvalues l of a
    trace-1 density matrix (:func:`fold.weight_measure`, each nonzero
    eigenvalue a term)."""
    trace = rho.trace
    if abs(trace - 1.0) > TOL.trace_check:
        raise NormalizationError(
            f"entropy requires unit trace, got {trace!r}"
        )
    weights = rho.eigenvalues()
    return float(weight_measure(weights, "entropy"))


@dataclass(frozen=True)
class ModeSplit:
    """Bipartition of the spatial labels into detector sides "L" and "R"."""


@dataclass(frozen=True)
class LabelSplit:
    """Bipartition of the particle labels into groups of n_left and n_right."""

    n_left: int
    n_right: int


Bipartition = Union[ModeSplit, LabelSplit]


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt data of a pure bipartite state.

    Coefficients are real, nonnegative, descending, with squares summing to
    one; phases are absorbed into the right basis.  ``bipartition`` records
    ("modes", n_left_particles, n_right_particles) or
    ("labels", n_left_labels, n_right_labels).
    """

    coefficients: Tuple[float, ...]
    left_basis: Tuple[SymmetricKet, ...]
    right_basis: Tuple[SymmetricKet, ...]
    bipartition: Tuple[str, int, int]


def schmidt_decompose(
    psi: SymmetricKet,
    bipartition: Bipartition,
) -> SchmidtResult:
    """Schmidt decomposition of a normalized pure state.

    Mode splits factor the occupation keys across the two detector
    labels and require a fixed particle count on each side.  Label
    splits treat a state whose particles all share one spatial mode as a
    symmetric spin state and split its particle labels into two groups.
    The coefficients are :func:`schmidt_coefficients`, from the same
    matrix and SVD.
    """
    m, split, basis_keys = _schmidt_matrix(psi, bipartition, "schmidt_decompose")
    u, s, vh = np.linalg.svd(m)
    order, rows = _kept(s)
    keep = order[rows > 0.0]
    left_keys, right_keys = basis_keys()
    _, n_left, n_right = split
    left = tuple(
        _basis_ket(n_left, left_keys, u[:, i], psi.statistics) for i in keep
    )
    right = tuple(
        _basis_ket(n_right, right_keys, vh[i, :].conj(), psi.statistics)
        for i in keep
    )
    return SchmidtResult(tuple(s[keep].tolist()), left, right, split)


def schmidt_coefficients(
    psi: SymmetricKet,
    bipartition: Bipartition,
) -> Tuple[float, ...]:
    """Schmidt coefficients of a normalized pure state, descending: the
    ``coefficients`` of :func:`schmidt_decompose`, with the same checks,
    without building its basis kets.  This is the one-case call of
    :func:`schmidt_coefficient_rows`."""
    row = schmidt_coefficient_rows([(psi, bipartition)])[0]
    return tuple(row[row > 0.0].tolist())


def schmidt_coefficient_rows(cases: Sequence[Tuple[SymmetricKet, Bipartition]]) -> np.ndarray:
    """(C, K) Schmidt coefficients of C (unit ket, bipartition) cases, with
    the checks of :func:`schmidt_coefficients`: row c holds case c's
    coefficients, descending, then zeros up to K, the largest number of
    singular values of any case's matrix.

    Each matrix shape's matrices go through one full SVD call, and LAPACK
    factors each of them on its own, so every row is its case's SVD alone,
    bit for bit.
    """
    matrices = [_schmidt_matrix(psi, bipartition, "schmidt_coefficients")[0] for psi, bipartition in cases]
    values = np.zeros((len(matrices), max((min(m.shape) for m in matrices), default=0)))
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for case, m in enumerate(matrices):
        shapes.setdefault(m.shape, []).append(case)
    for members in shapes.values():
        # the full SVD, as schmidt_decompose runs it: LAPACK's values-only
        # route can differ from it in the last bit
        _, s, _ = np.linalg.svd(np.array([matrices[case] for case in members]))
        values[members, : s.shape[1]] = s
    # the padding zeros sort after every singular value and are cut
    return _kept(values)[1]


def _kept(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(order, rows) of values along their last axis, the one rule that
    cuts and orders Schmidt coefficients: ``order`` sorts each row largest
    first (ties in index order), and ``rows`` holds the values in that
    order where they are above ``TOL.schmidt_cutoff`` and 0 where they are
    cut, so a row's kept values lead it and are its nonzero entries."""
    order = np.argsort(-values, axis=-1, kind="stable")
    rows = np.take_along_axis(values, order, axis=-1)
    return order, np.where(rows > TOL.schmidt_cutoff, rows, 0.0)


#: the keys of a coefficient matrix's rows and columns, built when called
_BasisKeys = Callable[[], Tuple[List[OccupationKey], List[OccupationKey]]]


def _schmidt_matrix(
    psi: SymmetricKet, bipartition: Bipartition, caller: str
) -> Tuple[np.ndarray, Tuple[str, int, int], _BasisKeys]:
    """(M, bipartition record, keys) of a unit ket: M is the coefficient
    matrix across ``bipartition``, whose singular values are the Schmidt
    coefficients, and keys() gives the keys of its rows and columns."""
    norm = psi.norm()
    if abs(norm - 1.0) > TOL.normalization:
        raise NormalizationError(f"{caller} needs a unit ket, norm = {norm!r}")
    if isinstance(bipartition, ModeSplit):
        m, left_keys, right_keys, n_left = mode_split_matrix(psi)
        split = ("modes", n_left, psi.n_particles - n_left)
        return m, split, lambda: (left_keys, right_keys)
    if isinstance(bipartition, LabelSplit):
        m, mode = label_split_matrix(psi, bipartition)
        nx, ny = bipartition.n_left, bipartition.n_right
        return m, ("labels", nx, ny), lambda: (
            [_dicke_key(mode, nx, kx) for kx in range(nx + 1)],
            [_dicke_key(mode, ny, ky) for ky in range(ny + 1)],
        )
    raise BipartitionError(f"unsupported bipartition {bipartition!r}")


def mode_split_matrix(
    psi: SymmetricKet,
) -> Tuple[np.ndarray, List[OccupationKey], List[OccupationKey], int]:
    """Coefficient matrix of a state across the detector split "L" | "R".

    Returns (M, left_keys, right_keys, n_left) with
    M[i, j] = <left_keys[i], right_keys[j]|psi>; the singular values of M
    are the Schmidt coefficients.  Every key must hold the same number
    n_left of particles on the left side.
    """
    pairs: Dict[Tuple[OccupationKey, OccupationKey], complex] = {}
    counts = set()
    for key, value in psi.items():
        left = [lab for lab in key if lab[0] == "L"]
        right = [lab for lab in key if lab[0] == "R"]
        if len(left) + len(right) != len(key):
            raise BipartitionError(
                f"key {key} has support outside the requested mode split"
            )
        counts.add(len(left))
        pairs[(occupation_key(left), occupation_key(right))] = value
    if len(counts) != 1:
        raise BipartitionError(
            "mode split requires a fixed particle number on each side; "
            f"left counts seen: {sorted(counts)}"
        )
    left_keys = sorted({lk for lk, _ in pairs})
    right_keys = sorted({rk for _, rk in pairs})
    m = np.zeros((len(left_keys), len(right_keys)), dtype=complex)
    li = {k: i for i, k in enumerate(left_keys)}
    ri = {k: i for i, k in enumerate(right_keys)}
    for (lk, rk), value in pairs.items():
        m[li[lk], ri[rk]] = value
    return m, left_keys, right_keys, counts.pop()


def label_split_matrix(
    psi: SymmetricKet, split: LabelSplit
) -> Tuple[np.ndarray, str]:
    """Coefficient matrix of a one-mode boson state across particle-label
    groups of split.n_left and split.n_right.

    Returns (M, mode) with M[kx, ky] the amplitude of kx spin-up particles
    among the left labels and ky among the right ones, in each group's
    normalized Dicke basis; the singular values of M are the Schmidt
    coefficients.
    """
    if psi.statistics is not Statistics.BOSON:
        raise BipartitionError("label splits are defined for bosonic states")
    n = psi.n_particles
    if split.n_left + split.n_right != n or split.n_left < 1 or split.n_right < 1:
        raise BipartitionError(
            f"label split {split} incompatible with {n} particles"
        )
    modes = {lab[0] for key in psi.keys() for lab in key}
    if len(modes) != 1:
        raise BipartitionError(
            "label split requires all particles in one spatial mode, "
            f"found modes {sorted(modes)}"
        )
    nx, ny = split.n_left, split.n_right
    m = np.zeros((nx + 1, ny + 1), dtype=complex)
    for key, value in psi.items():
        k = sum(1 for lab in key if lab[1] is Spin.UP)
        for kx in range(max(0, k - ny), min(k, nx) + 1):
            ky = k - kx
            weight = math.sqrt(
                math.comb(nx, kx) * math.comb(ny, ky) / math.comb(n, k)
            )
            m[kx, ky] += value * weight
    return m, modes.pop()


def _dicke_key(mode: str, n: int, ups: int) -> OccupationKey:
    """Key of n particles in ``mode``, ``ups`` of them spin-up, in
    canonical order: up before down."""
    return ((mode, Spin.UP),) * ups + ((mode, Spin.DOWN),) * (n - ups)


def _basis_ket(
    n: int,
    keys: Sequence[OccupationKey],
    column: np.ndarray,
    statistics: Statistics,
) -> SymmetricKet:
    amps = {k: complex(v) for k, v in zip(keys, column)}
    return SymmetricKet(n, statistics, amps, normalized=True)


def concurrence_pure(
    psi: SymmetricKet,
    bipartition: Bipartition,
) -> float:
    """I-concurrence sqrt(2 * (1 - Tr(rho_reduced^2))) of a pure state.

    Equals 2 * l1 * l2 for Schmidt-rank-2 states.  Taken as twice the
    cross-term measure of :func:`fold.weight_measure` of the squared
    :func:`schmidt_coefficients` (which check the unit norm), so a rank-1
    state reads exactly 0.
    """
    weights = np.square(schmidt_coefficients(psi, bipartition))
    return float(2.0 * weight_measure(weights, "concurrence"))


# ---------------------------------------------------------------------------
# Closed-form references for detector-projected boson ensembles.
#
# Both expressions give the postselected average of the sector cross-term
# measure l1*l2 (half the I-concurrence on rank-2 sectors), which is the
# convention used by detection.entanglement_of_particles for the
# "concurrence" flavor.
# ---------------------------------------------------------------------------


def two_boson_average_concurrence(theta1, theta2):
    """Closed form C1*C2/4 for two opposite-spin bosons at two detectors,
    elementwise over theta_1 and theta_2 (scalars or broadcastable arrays).

    Independent of the relative phases.  C_j = 2*cos(theta_j)*sin(theta_j).
    """
    c1 = 2.0 * np.cos(theta1) * np.sin(theta1)
    c2 = 2.0 * np.cos(theta2) * np.sin(theta2)
    return 0.25 * c1 * c2


def _positive(x):
    """x where x > 0, else 0.0 (NaN and -0.0 included): max(0.0, x) elementwise."""
    return np.where(x > 0.0, x, 0.0)


def _three_angles(thetas, omegas) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """The thetas and the omegas of particles 1, 2 and 3, each of shape
    (...), from arrays of shape (..., 3); the trailing dimension of both
    must be 3."""
    particles = []
    for name, values in (("thetas", thetas), ("omegas", omegas)):
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (3,):
            raise ConsistencyError(f"exactly three angles are required, got {name} of shape {values.shape}")
        particles.append((values[..., 0], values[..., 1], values[..., 2]))
    return particles[0], particles[1]


def three_boson_projected_norm_sq(thetas, omegas):
    """Squared norm of the unnormalized projected state of three bosons
    (two spin-up, one spin-down) written in its conventional amplitude form,
    for thetas and omegas of shape (..., 3).

    Equals c1^2 c2^2 + s1^2 s2^2 + P^2 / 2 with P the magnitude of the
    interference sum of the two spin-up particles.
    """
    (t1, t2, _), _ = _three_angles(thetas, omegas)
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    p_sq = _interference_sq(thetas, omegas)
    return c1 * c1 * c2 * c2 + s1 * s1 * s2 * s2 + 0.5 * p_sq


def _interference_sq(thetas, omegas):
    (t1, t2, _), (w1, w2, _) = _three_angles(thetas, omegas)
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    return (
        c1 * c1 * s2 * s2
        + s1 * s1 * c2 * c2
        + 2.0 * np.cos(w1 - w2) * c1 * s1 * c2 * s2
    )


def three_boson_average_concurrence(thetas, omegas):
    """Closed-form average concurrence for three bosons (two up, one down),
    for thetas and omegas of shape (..., 3).

    P * sin(t3) * cos(t3) * (c1 c2 + s1 s2) / (sqrt(2) * N) with N the
    squared norm of :func:`three_boson_projected_norm_sq`.  Matches the
    numerical postselected average of the sector cross-term measure.
    """
    (t1, t2, t3), _ = _three_angles(thetas, omegas)
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    c3, s3 = np.cos(t3), np.sin(t3)
    p = np.sqrt(_positive(_interference_sq(thetas, omegas)))
    norm_sq = three_boson_projected_norm_sq(thetas, omegas)
    return p * s3 * c3 * (c1 * c2 + s1 * s2) / (math.sqrt(2.0) * norm_sq)


def three_boson_average_concurrence_coherences(c1, c2, c3, delta_omega, same_side):
    """Coherence-variable form of :func:`three_boson_average_concurrence`,
    elementwise over broadcastable arrays (or scalars).

    The square roots carry opposite signs that flip with the branch:
    ``same_side`` is True when theta_1 and theta_2 lie on the same side of
    pi/4 (then the cos(delta) bracket takes the minus sign and the other
    bracket the plus sign), False when they straddle it.  A coherence
    outside [0, 1] anywhere raises ConsistencyError naming the first one,
    in the order of the cases and (c1, c2, c3) within a case.
    """
    c1, c2, c3 = np.broadcast_arrays(c1, c2, c3)
    coherences = np.stack([c1, c2, c3], axis=-1)
    bad = ~((0.0 <= coherences) & (coherences <= 1.0 + TOL.normalization))
    if bad.any():
        raise ConsistencyError(f"coherences must lie in [0, 1], got {float(coherences[bad][0])}")
    eps = np.where(same_side, 1.0, -1.0)
    root = np.sqrt(_positive((1.0 - c1 * c1) * (1.0 - c2 * c2)))
    first = _positive(1.0 + c1 * c2 * np.cos(delta_omega) - eps * root)
    second = _positive(1.0 + c1 * c2 + eps * root)
    norm_sq = 0.5 * (1.0 + eps * root) + 0.25 * first
    return c3 * np.sqrt(first * second) / (4.0 * math.sqrt(2.0) * norm_sq)


# ---------------------------------------------------------------------------
# Schmidt equivalence of particle-label and detector-mode decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchmidtEquivalenceReport:
    """Comparison of label-based and mode-based Schmidt coefficients."""

    input_coefficients: Tuple[float, ...]
    output_coefficients: Tuple[float, ...]
    max_abs_diff: float
    sector_probability: float


def dicke_state(
    n_total: int,
    n_up: int,
) -> SymmetricKet:
    """Symmetric state of n_total bosons in spatial mode "psi", n_up spin-up."""
    if not 0 <= n_up <= n_total or n_total < 1:
        raise ConsistencyError(f"invalid spin split ({n_up} of {n_total})")
    return SymmetricKet(
        n_total, Statistics.BOSON, {_dicke_key("psi", n_total, n_up): 1.0 + 0j}, normalized=True
    )


def label_split_coefficients(n_total: int, n_up: int, n_left: int) -> Tuple[float, ...]:
    """Schmidt coefficients of the Dicke state (n_total, n_up) across
    particle-label groups of n_left and n_right = n_total - n_left, from the
    closed-form weights C(n_left, k) C(n_right, n_up - k) / C(n_total, n_up)
    of k spin-up particles on the left (:func:`_schmidt_coefficients`)."""
    n_right = n_total - n_left
    ks = range(max(0, n_up - n_right), min(n_up, n_left) + 1)
    weights = [math.comb(n_left, k) * math.comb(n_right, n_up - k) / math.comb(n_total, n_up) for k in ks]
    return _schmidt_coefficients(weights)


def _schmidt_coefficients(weights) -> Tuple[float, ...]:
    """Square roots of Schmidt weights, cut and ordered by :func:`_kept`
    as :func:`schmidt_decompose` cuts them."""
    row = _kept(np.sqrt(weights))[1]
    return tuple(row[row > 0.0].tolist())


def verify_schmidt_equivalence(
    n_total: int,
    n_up: int,
    theta,
    omega,
    split: Tuple[int, int],
) -> SchmidtEquivalenceReport:
    """Compare label-group Schmidt coefficients with mode-split ones.

    The reference input is the fully overlapping state of ``n_total``
    bosons in one mode with ``n_up`` spin-up; its particle labels are split
    into groups of sizes ``split``.  Each particle's mode is then divided
    over the two detectors (theta, omega per particle, or shared scalars),
    the outcome with local particle numbers equal to ``split`` is
    postselected, and its Schmidt coefficients across the detector modes
    are compared against the input ones.  Equal (theta, omega) for all
    particles reproduces the input coefficients exactly; distinct angles
    generally do not, and the deviation is reported.

    Input: :func:`label_split_coefficients`; output: the sector's Schmidt
    weights from :func:`fold._project_batch` (:func:`schmidt_decompose` is
    the SVD reference route for both).
    """
    n_left, n_right = split
    if n_left + n_right != n_total:
        raise ConsistencyError(
            f"split {split} does not partition {n_total} particles"
        )
    if n_left < 1 or n_right < 1:
        raise ConsistencyError("both sides of the split must be nonempty")
    # before any per-particle work, which alone would take seconds at N = 10^6
    _require_fold_size("projection", n_total)
    thetas = _broadcast_angle(theta, n_total, "theta")
    omegas = _broadcast_angle(omega, n_total, "omega")
    if not 0 <= n_up <= n_total:
        raise ConsistencyError(f"invalid spin split ({n_up} of {n_total})")
    # SpatialMode checks the angles and supplies phi and gamma
    ensemble = ParticleEnsemble(n_up, [SpatialMode(theta=t, omega=w) for t, w in zip(thetas, omegas)])
    _, weights, p, _ = _project_batch(n_up, *ensemble.angle_rows())
    probability = float(p[0, n_left])
    if probability == 0.0:
        raise SectorError(f"sector q = {n_left} is empty or absent")
    input_coeffs = label_split_coefficients(n_total, n_up, n_left)
    output_coeffs = _schmidt_coefficients(weights[0, n_left])
    return SchmidtEquivalenceReport(
        input_coefficients=input_coeffs,
        output_coefficients=output_coeffs,
        max_abs_diff=coefficient_distance(input_coeffs, output_coeffs),
        sector_probability=probability,
    )


def coefficient_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Largest difference between two descending coefficient lists, the
    shorter one padded with zeros."""
    return max(abs(x - y) for x, y in itertools.zip_longest(a, b, fillvalue=0.0))


def _broadcast_angle(value, n: int, name: str) -> Tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * n
    values = tuple(float(v) for v in value)
    if len(values) != n:
        raise ConsistencyError(
            f"{name} must be a scalar or a sequence of length {n}, got {len(values)}"
        )
    return values
