"""Spin-block references for the outputs of ``identangle``.

These are written from the physics, not from the package: up and down
particles never share a mode, so an ensemble is a product of an up-block
and a down-block Fock state over three modes each (L, R and the remainder
chi).  A block's amplitude at counts (a_L, a_R, a_chi) is
sqrt(a_L! a_R! a_chi!) times the coefficient of x^a_L y^a_R z^a_chi in
prod_k (c_k x + s_k y + r_k z), with (c_k, s_k, r_k) particle k's mode
amplitudes.  Everything the CLI prints follows from the two blocks:

- detector amplitudes U[a] D[q - a], sector probabilities and the leak;
- each sector is in Schmidt form across L|R (distinct a give orthogonal
  L and R occupations), so its weights are |U[a] D[q - a]|^2 / p_q;
- the permanent of a bra/ket overlap matrix, which has rank 3 per block,
  is sum_a a_L! a_R! a_chi! conj(B[a]) K[a] over the block polynomials.

The cost is polynomial in N, so every operation of a run can be checked.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: amplitudes at or below this are dropped by the package (``tol.pruning``)
PRUNING = 1e-14
#: comparison tolerance of the package (``tol.comparison``)
COMPARISON = 1e-10

Triple = Tuple[complex, complex, complex]


def mode_triple(particle: Dict) -> Triple:
    """(L, R, chi) amplitudes of one configured particle (radians)."""
    theta = particle["theta"]
    omega = particle.get("omega", 0.0) % (2.0 * math.pi)
    phi = particle.get("phi", math.pi / 2)
    gamma = particle.get("gamma", 0.0) % (2.0 * math.pi)
    sin_phi = math.sin(phi)
    amps = (
        complex(sin_phi * math.cos(theta)),
        sin_phi * math.sin(theta) * complex(math.cos(omega), math.sin(omega)),
        math.cos(phi) * complex(math.cos(gamma), math.sin(gamma)),
    )
    return tuple(a if abs(a) > PRUNING else 0j for a in amps)


def spin_blocks(particles: Sequence[Dict]) -> Tuple[List[Triple], List[Triple]]:
    ups = [mode_triple(p) for p in particles if p["spin"] == "up"]
    downs = [mode_triple(p) for p in particles if p["spin"] == "down"]
    return ups, downs


def block_polynomial(triples: Sequence[Triple]) -> np.ndarray:
    """Coefficients C[a_L, a_R] of prod_k (c_k x + s_k y + r_k z);
    the chi power is n - a_L - a_R."""
    n = len(triples)
    coeffs = np.zeros((n + 1, n + 1), dtype=complex)
    coeffs[0, 0] = 1.0
    for c, s, r in triples:
        nxt = r * coeffs
        nxt[1:, :] += c * coeffs[:-1, :]
        nxt[:, 1:] += s * coeffs[:, :-1]
        coeffs = nxt
    return coeffs


def _factorial_weights(n: int) -> np.ndarray:
    """W[a_L, a_R] = a_L! a_R! a_chi! with a_chi = n - a_L - a_R (0 outside)."""
    w = np.zeros((n + 1, n + 1))
    for a in range(n + 1):
        for b in range(n + 1 - a):
            w[a, b] = math.factorial(a) * math.factorial(b) * math.factorial(n - a - b)
    return w


def block_amplitudes(triples: Sequence[Triple]) -> np.ndarray:
    """Fock amplitudes of a block, indexed [a_L, a_R] (unnormalized)."""
    return block_polynomial(triples) * np.sqrt(_factorial_weights(len(triples)))


class Projection:
    """Reference detector projection of one ensemble."""

    def __init__(self, particles: Sequence[Dict]):
        ups, downs = spin_blocks(particles)
        self.n_up, self.n_down = len(ups), len(downs)
        u = block_amplitudes(ups)
        d = block_amplitudes(downs)
        norm = math.sqrt(float(np.sum(np.abs(u) ** 2) * np.sum(np.abs(d) ** 2)))
        # detector outcomes: a_chi = 0, so a_R = n - a_L in each block
        u_det = np.array([u[a, self.n_up - a] for a in range(self.n_up + 1)])
        d_det = np.array([d[b, self.n_down - b] for b in range(self.n_down + 1)])
        #: amp[alpha, beta]: alpha up and beta down particles at L
        self.amp = np.outer(u_det, d_det) / norm
        weights = np.abs(self.amp) ** 2
        n_total = self.n_up + self.n_down
        self.p = np.zeros(n_total + 1)
        for alpha in range(self.n_up + 1):
            for beta in range(self.n_down + 1):
                self.p[alpha + beta] += weights[alpha, beta]
        self.leak = max(0.0, 1.0 - float(np.sum(self.p)))
        self.entropy, self.concurrence = self._averages(weights)

    def sector_mask(self, q: int) -> np.ndarray:
        """Boolean mask of the (alpha, beta) entries of ``amp`` in sector q."""
        return np.add.outer(np.arange(self.n_up + 1), np.arange(self.n_down + 1)) == q

    def _averages(self, weights: np.ndarray) -> Tuple[float, float]:
        total = sum(p for p in self.p if p >= PRUNING)
        if total <= PRUNING:
            return 0.0, 0.0
        entropy = concurrence = 0.0
        for q, p_q in enumerate(self.p):
            if p_q < PRUNING:
                continue
            lams = [
                weights[alpha, q - alpha] / p_q
                for alpha in range(self.n_up + 1)
                if 0 <= q - alpha <= self.n_down
            ]
            s = -sum(l * math.log2(l) for l in lams if l > PRUNING)
            # sum_{i<j} l_i l_j without the cancellation of (1 - sum l^2)/2
            pairs, running = 0.0, 0.0
            for l in lams:
                pairs += l * running
                running += l
            entropy += p_q / total * max(s, 0.0)
            concurrence += p_q / total * math.sqrt(pairs)
        return entropy, concurrence


def _multiplicity_norm(triples: Sequence[Triple]) -> float:
    """prod over groups of exactly equal kets of (group size)!."""
    counts: Dict[Triple, int] = {}
    for t in triples:
        counts[t] = counts.get(t, 0) + 1
    return float(math.prod(math.factorial(v) for v in counts.values()))


def block_permanent(bra: Sequence[Triple], ket: Sequence[Triple]) -> complex:
    """Permanent of the overlap matrix <bra_i|ket_j> of one spin block."""
    if len(bra) != len(ket):
        return 0j
    bra_poly = block_polynomial([tuple(a.conjugate() for a in t) for t in bra])
    ket_poly = block_polynomial(ket)
    return complex(np.sum(_factorial_weights(len(ket)) * bra_poly * ket_poly))


def permanent(bra_particles: Sequence[Dict], ket_particles: Sequence[Dict]) -> complex:
    """Permanent of the full overlap matrix (zero across spins)."""
    bra_up, bra_down = spin_blocks(bra_particles)
    ket_up, ket_down = spin_blocks(ket_particles)
    return block_permanent(bra_up, ket_up) * block_permanent(bra_down, ket_down)


def transition_amplitude(bra_particles: Sequence[Dict], ket_particles: Sequence[Dict]) -> complex:
    """<bra|ket> between symmetrized product states: the permanent over
    sqrt(prod nu! of both sides), nu the repeat counts of equal kets."""
    bra_up, bra_down = spin_blocks(bra_particles)
    ket_up, ket_down = spin_blocks(ket_particles)
    # kets of different spin never compare equal, so the blocks factor
    norm = math.sqrt(
        _multiplicity_norm(bra_up) * _multiplicity_norm(bra_down)
        * _multiplicity_norm(ket_up) * _multiplicity_norm(ket_down)
    )
    return permanent(bra_particles, ket_particles) / norm
