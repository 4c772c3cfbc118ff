"""Single-particle kets, detector modes, and symmetrized many-particle states.

Many-particle states are stored sparsely as amplitudes over occupation keys:
sorted multisets of (spatial label, spin) basis pairs.  The canonical key
collapses the permutation redundancy of the pseudo-labeled product form,
while :func:`expand_first_quantized` keeps the literal sum over label
permutations available as a brute-force oracle.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import ConsistencyError, NullStateError, SizeLimitError
from .tolerances import DEFAULT_TOLERANCES as TOL

EXPANSION_SIZE_LIMIT = 6

#: spatial label of the undetected remainder mode shared by all particles
REMAINDER_LABEL = "chi"


class Spin(enum.Enum):
    UP = "up"
    DOWN = "down"

    # members are singletons compared by identity.  Enum's __hash__ hashes
    # the name in Python, which every basis-label lookup paid; the identity
    # hash runs in C.  No output depends on the order of a set of labels.
    __hash__ = object.__hash__

    @property
    def index(self) -> int:
        return 0 if self is Spin.UP else 1

    def __lt__(self, other):
        if not isinstance(other, Spin):
            return NotImplemented
        return self.index < other.index


class Statistics(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


#: one orthonormal single-particle basis state: (spatial label, spin)
BasisLabel = Tuple[str, Spin]
#: canonical (sorted) multiset of basis labels for an N-particle state
OccupationKey = Tuple[BasisLabel, ...]


def _label_sort_key(label: BasisLabel):
    return (label[0], label[1].index)


def occupation_key(labels: Iterable[BasisLabel]) -> OccupationKey:
    """Canonical sorted occupation key from an iterable of basis labels."""
    return tuple(sorted(labels, key=_label_sort_key))


#: a mode's angles, in the row order of a (4, ..., N) angle array
_MODE_ANGLES = ("theta", "omega", "phi", "gamma")


def _wrap(phase: float) -> float:
    """A phase wrapped into [0, 2*pi) by the rule of fold.wrap_phase: the
    second remainder maps the 2*pi that -1e-20 % (2*pi) rounds to onto 0,
    and a wrapped phase stays as it is."""
    return float(phase) % (2.0 * math.pi) % (2.0 * math.pi)


def _check_mode_rows(angles: np.ndarray):
    """:class:`SpatialMode`'s checks on (4, ..., N) angle rows, each run
    once on its whole row: every angle finite, theta and phi in [0, pi/2].
    Raises ConsistencyError naming the first failing value of the first
    failing check, in SpatialMode's words."""
    bounded = angles[::2]
    if np.isfinite(angles).all() and bounded.min(initial=0.0) >= 0.0 and bounded.max(initial=0.0) <= math.pi / 2:
        return
    for name, row in zip(_MODE_ANGLES, angles):
        bad = ~np.isfinite(row)
        if bad.any():
            raise ConsistencyError(f"{name} must be finite, got {row[bad][0].item()}")
    for name, row in (("theta", angles[0]), ("phi", angles[2])):
        bad = ~((row >= 0.0) & (row <= math.pi / 2))
        if bad.any():
            raise ConsistencyError(f"{name} must lie in [0, pi/2], got {row[bad][0].item()}")


@dataclass(frozen=True)
class SpatialMode:
    """Spatial state of one particle relative to two detectors L and R.

    theta mixes the two detector modes, omega is the relative phase of the
    R component, phi weights the detector subspace against an orthogonal
    remainder mode (phi = pi/2 puts the particle fully in span{L, R}), and
    gamma is the phase of that remainder.  All modes share one remainder
    state, labeled ``REMAINDER_LABEL``.
    """

    theta: float
    omega: float = 0.0
    phi: float = math.pi / 2
    gamma: float = 0.0

    def __post_init__(self):
        for name in _MODE_ANGLES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConsistencyError(f"{name} must be finite, got {value}")
        for name in ("theta", "phi"):
            value = getattr(self, name)
            if not 0.0 <= value <= math.pi / 2:
                raise ConsistencyError(f"{name} must lie in [0, pi/2], got {value}")
        object.__setattr__(self, "omega", _wrap(self.omega))
        object.__setattr__(self, "gamma", _wrap(self.gamma))

    def coherence(self) -> float:
        """Off-diagonal weight 2*cos(theta)*sin(theta) in the {L, R} basis."""
        return 2.0 * math.cos(self.theta) * math.sin(self.theta)


def _sparse_inner(bra: Dict, ket: Dict) -> complex:
    """sum_k conj(bra[k]) * ket[k] over the keys the two amplitude dicts
    share, iterating the smaller one (the bra's when equal in size)."""
    if len(bra) > len(ket):
        return sum(bra[k].conjugate() * v for k, v in ket.items() if k in bra)
    return sum(v.conjugate() * ket[k] for k, v in bra.items() if k in ket)


class SingleParticleKet:
    """Complex amplitude vector over the (spatial label, spin) basis.

    Amplitudes below the pruning threshold are dropped at construction,
    and the ket must have unit norm.  Instances are treated as immutable
    values; do not mutate the mapping returned by :meth:`items`.
    """

    __slots__ = ("_amps",)

    def __init__(
        self,
        amplitudes: Mapping[BasisLabel, complex],
    ):
        amps = {
            label: complex(value)
            for label, value in amplitudes.items()
            if abs(value) > TOL.pruning
        }
        self._amps = amps
        n = self.norm()
        if abs(n - 1.0) > TOL.normalization:
            raise ConsistencyError(
                f"single-particle ket must be unit norm, got {n!r}"
            )

    def items(self):
        return self._amps.items()

    def labels(self):
        return self._amps.keys()

    def amplitude(self, label: BasisLabel) -> complex:
        return self._amps.get(label, 0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self._amps.values()))

    def inner(self, other: "SingleParticleKet") -> complex:
        """<self|other> in the shared orthonormal basis."""
        return _sparse_inner(self._amps, other._amps)

    def signature(self) -> tuple:
        """Hashable canonical form used to detect exactly equal kets."""
        return tuple(sorted(self._amps.items(), key=lambda kv: _label_sort_key(kv[0])))

    def __repr__(self):
        parts = ", ".join(
            f"{lab[0]}{'u' if lab[1] is Spin.UP else 'd'}: {amp:.4g}"
            for lab, amp in sorted(self._amps.items(), key=lambda kv: _label_sort_key(kv[0]))
        )
        return f"SingleParticleKet({{{parts}}})"


def mode_ket(mode: SpatialMode, spin: Spin) -> SingleParticleKet:
    """Unit-norm single-particle ket for a spatial mode with a fixed spin.

    Amplitudes are sin(phi)cos(theta) on (L, spin), sin(phi)sin(theta)e^{i omega}
    on (R, spin) and cos(phi)e^{i gamma} on the remainder mode
    (REMAINDER_LABEL, spin).
    """
    return _mode_ket(spin, mode.theta, mode.omega, mode.phi, mode.gamma)


#: each spin's basis labels L, R and remainder, in :func:`mode_ket`'s order
_MODE_LABELS = {spin: (("L", spin), ("R", spin), (REMAINDER_LABEL, spin)) for spin in Spin}


def _mode_ket(spin: Spin, theta: float, omega: float, phi: float, gamma: float) -> SingleParticleKet:
    """:func:`mode_ket` of the mode of these angles, which pass
    :class:`SpatialMode`'s checks, its phases wrapped as SpatialMode wraps
    them.  Its amplitudes are pruned and converted as SingleParticleKet's
    constructor does; their norm is one up to rounding for any finite
    angles, so the ket skips the constructor's norm check."""
    left_label, right_label, rest_label = _MODE_LABELS[spin]
    sin_phi = math.sin(phi)
    left = sin_phi * math.cos(theta)
    # rect(r, a) is r cos(a) + i r sin(a), the parts of r * complex(cos(a), sin(a)), in one call
    right = cmath.rect(sin_phi * math.sin(theta), _wrap(omega))
    rest = cmath.rect(math.cos(phi), _wrap(gamma))
    amps = {}
    if abs(left) > TOL.pruning:
        amps[left_label] = complex(left)
    if abs(right) > TOL.pruning:
        amps[right_label] = right
    if abs(rest) > TOL.pruning:
        amps[rest_label] = rest
    ket = SingleParticleKet.__new__(SingleParticleKet)
    ket._amps = amps
    return ket


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

    def kets(self) -> List[SingleParticleKet]:
        return [
            mode_ket(mode, Spin.UP if j < self.n_up else Spin.DOWN)
            for j, mode in enumerate(self.modes)
        ]

    def angle_rows(self) -> np.ndarray:
        """theta, omega, phi and gamma of the particles, shape (4, 1, N):
        the angle arrays of a one-row fold."""
        return np.array([[(m.theta, m.omega, m.phi, m.gamma) for m in self.modes]]).transpose(2, 0, 1)


def normalization_total(multiplicities: Sequence[int], n_total: int) -> float:
    """Normalization factor sqrt(prod(nu_j!) / N!) of the symmetrized state.

    ``multiplicities`` are the repeat counts of the distinct single-particle
    states; they must be positive and sum to ``n_total``.
    """
    mults = list(multiplicities)
    if any(v < 1 for v in mults):
        raise ConsistencyError(f"multiplicities must be >= 1, got {mults}")
    if sum(mults) != n_total:
        raise ConsistencyError(
            f"multiplicities {mults} do not sum to n_total = {n_total}"
        )
    numerator = math.prod(math.factorial(v) for v in mults)
    return math.sqrt(numerator / math.factorial(n_total))


def normalization_subsystem(sub_states: Sequence, n_total: int) -> float:
    """Normalization factor of an n-particle subsystem state on N labels.

    Equals sqrt((N - n)! * prod(mu_j!) / N!) with mu the multiplicities of
    the ``sub_states`` entries.  Entries may be hashables or
    SingleParticleKet instances (compared by exact amplitude equality).
    """
    n = len(sub_states)
    if n < 1:
        raise ConsistencyError("subsystem must contain at least one state")
    if n > n_total:
        raise ConsistencyError(
            f"subsystem size {n} exceeds total particle number {n_total}"
        )
    counts = Counter(_state_key(s) for s in sub_states)
    numerator = math.factorial(n_total - n) * math.prod(
        math.factorial(v) for v in counts.values()
    )
    return math.sqrt(numerator / math.factorial(n_total))


def _state_key(state):
    if isinstance(state, SingleParticleKet):
        return state.signature()
    return state


def ket_multiplicities(kets: Sequence[SingleParticleKet]) -> List[int]:
    """Repeat counts of exactly equal kets, in first-appearance order."""
    counts: Dict[tuple, int] = {}
    for ket in kets:
        sig = ket.signature()
        counts[sig] = counts.get(sig, 0) + 1
    return list(counts.values())


class SymmetricKet:
    """Permutation-symmetric N-particle state as sparse occupation amplitudes.

    ``normalized=True`` asserts unit norm; unnormalized instances are
    intermediate algebra objects with no norm constraint.  Fermionic keys
    with a repeated basis pair are rejected (Pauli exclusion).
    """

    __slots__ = ("n_particles", "statistics", "_amps")

    def __init__(
        self,
        n_particles: int,
        statistics: Statistics,
        amplitudes: Mapping[OccupationKey, complex],
        *,
        normalized: bool = False,
    ):
        if n_particles < 0:
            raise ConsistencyError("n_particles must be >= 0")
        amps: Dict[OccupationKey, complex] = {}
        for key, value in amplitudes.items():
            if len(key) != n_particles:
                raise ConsistencyError(
                    f"occupation key {key} does not hold {n_particles} particles"
                )
            canon = occupation_key(key)
            if canon != tuple(key):
                raise ConsistencyError(f"occupation key {key} is not canonical")
            if statistics is Statistics.FERMION and len(set(key)) != len(key):
                raise ConsistencyError(
                    f"fermionic key {key} repeats a basis pair (Pauli exclusion)"
                )
            if abs(value) > TOL.pruning:
                amps[canon] = complex(value)
        self.n_particles = n_particles
        self.statistics = statistics
        self._amps = amps
        if normalized:
            n = self.norm()
            if abs(n - 1.0) > TOL.normalization:
                raise ConsistencyError(
                    f"state flagged normalized has norm {n!r}"
                )

    @property
    def amplitudes(self) -> Dict[OccupationKey, complex]:
        return dict(self._amps)

    def amplitude(self, key: OccupationKey) -> complex:
        return self._amps.get(occupation_key(key), 0j)

    def keys(self):
        return self._amps.keys()

    def items(self):
        return self._amps.items()

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self._amps.values()))

    def inner(self, other: "SymmetricKet") -> complex:
        """<self|other>; both states must share particle number and statistics."""
        if self.n_particles != other.n_particles:
            raise ConsistencyError(
                "inner product requires equal particle numbers "
                f"({self.n_particles} vs {other.n_particles})"
            )
        if self.statistics is not other.statistics:
            raise ConsistencyError("inner product requires matching statistics")
        return _sparse_inner(self._amps, other._amps)

    def normalized_copy(self) -> "SymmetricKet":
        n = self.norm()
        if n <= TOL.pruning:
            raise NullStateError("cannot normalize a null state")
        return SymmetricKet(
            self.n_particles,
            self.statistics,
            {k: v / n for k, v in self._amps.items()},
            normalized=True,
        )

    def __repr__(self):
        return (
            f"SymmetricKet(n={self.n_particles}, {self.statistics.value}, "
            f"{len(self._amps)} keys, norm={self.norm():.6g})"
        )


def _creation_fold(
    kets: Sequence[SingleParticleKet], statistics: Statistics
) -> Dict[OccupationKey, complex]:
    """Fold kets through mode creation operators.

    Returns amplitudes <key| a'(k_1) ... a'(k_N) |vac>; for bosons this is
    perm(A_key) / sqrt(prod(n_b!)), for fermions det(A_key) with the
    canonical (lexicographic) key order as the +1 reference.
    """
    amps: Dict[OccupationKey, complex] = {(): 1 + 0j}
    fermion = statistics is Statistics.FERMION
    for ket in reversed(kets):
        new: Dict[OccupationKey, complex] = {}
        for key, coeff in amps.items():
            for label, amp in ket.items():
                if fermion:
                    if label in key:
                        continue
                    below = sum(
                        1 for k in key if _label_sort_key(k) < _label_sort_key(label)
                    )
                    factor = -amp if below % 2 else amp
                else:
                    factor = amp * math.sqrt(key.count(label) + 1)
                new_key = occupation_key(key + (label,))
                prev = new.get(new_key, 0j)
                new[new_key] = prev + coeff * factor
        amps = new
    return amps


def symmetrize_product(
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> SymmetricKet:
    """(Anti)symmetrized product state with the combinatorial normalization.

    The returned state carries the normalization factor of
    :func:`normalization_total`; it has unit norm exactly when the distinct
    input kets are mutually orthogonal.  Use :func:`make_product_state` for
    a state normalized to unit norm regardless of overlaps.
    """
    fold = _creation_fold(kets, statistics)
    scale = math.sqrt(
        math.prod(math.factorial(v) for v in ket_multiplicities(kets))
    )
    amps = {k: v / scale for k, v in fold.items()}
    return SymmetricKet(len(kets), statistics, amps)


def make_product_state(
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> SymmetricKet:
    """Unit-norm (anti)symmetrized state of the given single-particle kets.

    Raises NullStateError when the antisymmetrized state vanishes
    identically (two equal fermionic kets).
    """
    if not kets:
        raise ConsistencyError("at least one ket is required")
    return symmetrize_product(kets, statistics).normalized_copy()


def expand_first_quantized(
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> Dict[Tuple[int, ...], complex]:
    """Literal pseudo-labeled expansion of the symmetrized product state.

    Sums over all N! label permutations with coefficient
    (sign) / sqrt(N! * prod(nu_j!)).  The result maps slot assignments to
    collected coefficients: key[a] is the index (first occurrence) of the
    input ket occupying pseudo-label slot a, and permutations that permute
    exactly equal kets merge into one term.  Collecting the assignments in
    the single-particle basis and normalizing reproduces
    :func:`make_product_state`.
    """
    slots, coeffs = _expansion_terms(kets, statistics)
    return dict(zip(map(tuple, slots.tolist()), coeffs.tolist()))


def _expansion_terms(
    kets: Sequence[SingleParticleKet], statistics: Statistics
) -> Tuple[np.ndarray, np.ndarray]:
    """The slot assignments (T, N) and complex coefficients (T,) of
    :func:`expand_first_quantized`, in its order.

    Each permutation's row names the first occurrence of each slot's ket;
    equal rows merge in order of first appearance, their coefficients
    summed in permutation order, and terms that cancel are dropped.
    """
    return _pattern_terms(_ket_pattern(kets), statistics)


def _ket_pattern(kets: Sequence[SingleParticleKet]) -> Tuple[int, ...]:
    """The equal-ket pattern: the index of each ket's first exactly equal
    ket, one with the same (label, amplitude) pairs and so the same
    :meth:`SingleParticleKet.signature`, unsorted."""
    first: Dict[frozenset, int] = {}
    return tuple(first.setdefault(frozenset(ket.items()), idx) for idx, ket in enumerate(kets))


def _pattern_terms(
    pattern: Tuple[int, ...], statistics: Statistics
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_expansion_terms` of kets with the equal-ket pattern
    ``pattern`` (:func:`_ket_pattern`), which fixes its terms alone."""
    n = len(pattern)
    if n == 0:
        raise ConsistencyError("at least one ket is required")
    if n > EXPANSION_SIZE_LIMIT:
        raise SizeLimitError(
            f"expand_first_quantized is capped at N <= {EXPANSION_SIZE_LIMIT}, got N = {n}"
        )
    reps = np.array(pattern)
    multiplicities = np.bincount(reps)
    base = 1.0 / math.sqrt(
        math.factorial(n) * math.prod(math.factorial(v) for v in multiplicities.tolist())
    )
    perms, odd = _permutations(n)
    slots = reps[perms]
    coeffs = np.full(len(perms), base)
    if statistics is Statistics.FERMION:
        coeffs[odd] = -base
    if len(set(pattern)) < n:
        # equal rows share a base-n code; keep each row's first appearance
        codes = slots @ n ** np.arange(n)
        _, first_at, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first_at)
        slots = slots[first_at[order]]
        coeffs = np.bincount(inverse, coeffs, len(first_at))[order]
    keep = np.abs(coeffs) > TOL.pruning
    return slots[keep], coeffs[keep].astype(complex)


@lru_cache(maxsize=None)
def _permutations(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n! permutations of range(n) in ``itertools.permutations`` order,
    as read-only rows, and whether each is odd."""
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    odd = _odd_inversions(perms)
    perms.flags.writeable = odd.flags.writeable = False
    return perms, odd


def _odd_inversions(rows: np.ndarray) -> np.ndarray:
    """Whether each row has an odd number of pairs i < j with row[i] > row[j]."""
    inversions = np.zeros(len(rows), dtype=np.intp)
    for i in range(rows.shape[1] - 1):
        inversions += (rows[:, i, None] > rows[:, i + 1 :]).sum(axis=1)
    return inversions % 2 == 1
