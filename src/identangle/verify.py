"""Randomized verification suites.

Each suite returns a report dict with at least ``suite``, ``cases``,
``failures`` and ``max_error`` and is deterministic for a fixed seed.
These back the command-line ``verify`` command and the acceptance tests.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .detection import (
    ParticleEnsemble,
    entanglement_of_particles,
    project_onto_detectors,
    sector_reduced_density,
)
from .errors import ConfigError
from .measures import (
    LabelSplit,
    dicke_state,
    schmidt_decompose,
    three_boson_average_concurrence,
    three_boson_average_concurrence_coherences,
    two_boson_average_concurrence,
    verify_schmidt_equivalence,
)
from .oracles import expansion_inner_product, project_by_substitution
from .states import (
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
)
from .algebra import transition_amplitude
from .tolerances import DEFAULT_TOLERANCES, Tolerances

DEFAULT_SEED = 7


def random_ensemble(
    rng: np.random.Generator,
    n_total: int,
    n_up: Optional[int] = None,
    allow_leak: bool = False,
) -> ParticleEnsemble:
    """Random detector ensemble; ``allow_leak`` draws phi below pi/2 half
    the time."""
    if n_up is None:
        n_up = int(rng.integers(0, n_total + 1))
    modes = []
    for _ in range(n_total):
        phi = math.pi / 2
        if allow_leak and rng.random() < 0.5:
            phi = float(rng.uniform(0.2, math.pi / 2))
        modes.append(
            SpatialMode(
                theta=float(rng.uniform(0.0, math.pi / 2)),
                omega=float(rng.uniform(0.0, 2.0 * math.pi)),
                phi=phi,
                gamma=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        )
    return ParticleEnsemble(n_up, tuple(modes))


def random_ket(rng: np.random.Generator, labels: Sequence) -> SingleParticleKet:
    v = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    v /= np.linalg.norm(v)
    return SingleParticleKet({lab: complex(a) for lab, a in zip(labels, v)})


_LR_LABELS = (
    ("L", Spin.UP),
    ("L", Spin.DOWN),
    ("R", Spin.UP),
    ("R", Spin.DOWN),
)


def suite_theorem1(
    seed: int = DEFAULT_SEED,
    cases: int = 1000,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Dict:
    """Zero-coherence criterion: forcing one spin group's thetas to 0 or
    pi/2 must leave every sector reduced state rank one and the average
    entanglement at zero."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_error = 0.0
    for _ in range(cases):
        n_total = int(rng.integers(2, 7))
        n_up = int(rng.integers(0, n_total + 1))
        force_up = bool(rng.integers(0, 2))
        modes = []
        for j in range(n_total):
            forced = (j < n_up) if force_up else (j >= n_up)
            if forced:
                theta = 0.0 if rng.random() < 0.5 else math.pi / 2
            else:
                theta = float(rng.uniform(0.0, math.pi / 2))
            modes.append(
                SpatialMode(theta=theta, omega=float(rng.uniform(0, 2 * math.pi)))
            )
        ensemble = ParticleEnsemble(n_up, tuple(modes))
        value = entanglement_of_particles(ensemble, "concurrence", tol=tol)
        max_error = max(max_error, value)
        ok = value < tol.separability
        for sector in project_onto_detectors(ensemble, tol=tol).sectors:
            evs = sector_reduced_density(sector.state, tol=tol).eigenvalues()
            second = float(evs[-2]) if len(evs) > 1 else 0.0
            max_error = max(max_error, second)
            if second > tol.separability:
                ok = False
        if not ok:
            failures += 1
    return {
        "suite": "theorem1",
        "cases": cases,
        "failures": failures,
        "max_error": max_error,
    }


def suite_n2_closed_form(
    seed: int = DEFAULT_SEED,
    grid: int = 20,
    omega_draws: int = 10,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Dict:
    """Two-boson average concurrence against the closed form C1*C2/4 on a
    theta grid with random phases."""
    rng = np.random.default_rng(seed)
    thetas = np.linspace(0.0, math.pi / 2, grid)
    failures = 0
    max_error = 0.0
    cases = 0
    for t1 in thetas:
        for t2 in thetas:
            expected = two_boson_average_concurrence(float(t1), float(t2))
            for _ in range(omega_draws):
                w1, w2 = rng.uniform(0.0, 2.0 * math.pi, 2)
                ensemble = ParticleEnsemble(
                    1,
                    (
                        SpatialMode(theta=float(t1), omega=float(w1)),
                        SpatialMode(theta=float(t2), omega=float(w2)),
                    ),
                )
                value = entanglement_of_particles(ensemble, "concurrence", tol=tol)
                err = abs(value - expected)
                max_error = max(max_error, err)
                cases += 1
                if err >= tol.comparison:
                    failures += 1
    return {
        "suite": "n2-closed-form",
        "cases": cases,
        "failures": failures,
        "max_error": max_error,
    }


def suite_n3_closed_form(
    seed: int = DEFAULT_SEED,
    cases: int = 500,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Dict:
    """Three-boson average concurrence against the closed form, in both the
    angle variables and the coherence variables with the branch sign rule.

    Half the draws put theta_1 and theta_2 on the same side of pi/4, half
    on opposite sides, so both branches of the sign rule are exercised.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    max_error = 0.0
    threshold = max(tol.comparison, 1e-9)
    for case in range(cases):
        if case % 2 == 0:
            # same side of pi/4
            side = rng.random() < 0.5
            lo, hi = (0.0, math.pi / 4) if side else (math.pi / 4, math.pi / 2)
            t1, t2 = rng.uniform(lo, hi, 2)
        else:
            t1 = rng.uniform(0.0, math.pi / 4)
            t2 = rng.uniform(math.pi / 4, math.pi / 2)
            if rng.random() < 0.5:
                t1, t2 = t2, t1
        t3 = rng.uniform(0.0, math.pi / 2)
        w1, w2, w3 = rng.uniform(0.0, 2.0 * math.pi, 3)
        thetas = (float(t1), float(t2), float(t3))
        omegas = (float(w1), float(w2), float(w3))
        ensemble = ParticleEnsemble(
            2, tuple(SpatialMode(theta=t, omega=w) for t, w in zip(thetas, omegas))
        )
        value = entanglement_of_particles(ensemble, "concurrence", tol=tol)
        theta_form = three_boson_average_concurrence(thetas, omegas)
        same_side = (t1 - math.pi / 4) * (t2 - math.pi / 4) >= 0.0
        coherence_form = three_boson_average_concurrence_coherences(
            2.0 * math.cos(t1) * math.sin(t1),
            2.0 * math.cos(t2) * math.sin(t2),
            2.0 * math.cos(t3) * math.sin(t3),
            w1 - w2,
            same_side,
        )
        err = max(abs(value - theta_form), abs(value - coherence_form))
        max_error = max(max_error, err)
        if err >= threshold:
            failures += 1
    return {
        "suite": "n3-closed-form",
        "cases": cases,
        "failures": failures,
        "max_error": max_error,
    }


def suite_schmidt(
    seed: int = DEFAULT_SEED,
    max_n: int = 6,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Dict:
    """Label-split Schmidt coefficients against the binomial closed form,
    plus the mode-splitting equivalence for the three-particle pattern."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_error = 0.0
    cases = 0
    for n_total in range(2, max_n + 1):
        for n_up in range(0, n_total + 1):
            state = dicke_state(n_total, n_up, tol=tol)
            for n_left in range(1, n_total):
                n_right = n_total - n_left
                result = schmidt_decompose(state, LabelSplit(n_left, n_right), tol=tol)
                expected = sorted(
                    (
                        math.sqrt(
                            math.comb(n_left, kx)
                            * math.comb(n_right, n_up - kx)
                            / math.comb(n_total, n_up)
                        )
                        for kx in range(
                            max(0, n_up - n_right), min(n_up, n_left) + 1
                        )
                    ),
                    reverse=True,
                )
                got = list(result.coefficients)
                width = max(len(got), len(expected))
                got += [0.0] * (width - len(got))
                expected = expected + [0.0] * (width - len(expected))
                err = max(abs(a - b) for a, b in zip(got, expected))
                max_error = max(max_error, err)
                cases += 1
                if err >= tol.comparison:
                    failures += 1
    # mode splitting at shared random angles reproduces the input form
    for _ in range(10):
        theta = float(rng.uniform(0.1, math.pi / 2 - 0.1))
        omega = float(rng.uniform(0.0, 2.0 * math.pi))
        report = verify_schmidt_equivalence(3, 2, theta, omega, (2, 1), tol=tol)
        expected_pair = sorted((math.sqrt(1 / 3), math.sqrt(2 / 3)), reverse=True)
        err = max(
            report.max_abs_diff,
            max(
                abs(a - b)
                for a, b in zip(report.output_coefficients, expected_pair)
            ),
        )
        max_error = max(max_error, err)
        cases += 1
        if err >= tol.comparison:
            failures += 1
    return {
        "suite": "schmidt",
        "cases": cases,
        "failures": failures,
        "max_error": max_error,
    }


def suite_oracle(
    seed: int = DEFAULT_SEED,
    cases_per_n: int = 200,
    max_n: int = 5,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Dict:
    """Permanent-path amplitudes and projection against the literal
    permutation-expansion oracles."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_error = 0.0
    cases = 0
    for n in range(1, max_n + 1):
        for _ in range(cases_per_n):
            bras = [random_ket(rng, _LR_LABELS) for _ in range(n)]
            kets = [random_ket(rng, _LR_LABELS) for _ in range(n)]
            fast = transition_amplitude(bras, kets, Statistics.BOSON)
            slow = expansion_inner_product(bras, kets, Statistics.BOSON)
            err = abs(fast - slow)
            max_error = max(max_error, err)
            cases += 1
            if err >= tol.comparison:
                failures += 1
    for n in range(2, max_n + 1):
        for _ in range(cases_per_n):
            ensemble = random_ensemble(rng, n, allow_leak=False)
            decomposition = project_onto_detectors(ensemble, tol=tol)
            oracle_sectors, oracle_leak = project_by_substitution(ensemble, tol=tol)
            err = abs(decomposition.leak_probability - oracle_leak)
            for sector in decomposition.sectors:
                reference = oracle_sectors.get(sector.q, {})
                root_p = math.sqrt(sector.probability)
                for key, value in sector.state.items():
                    err = max(err, abs(value * root_p - reference.get(key, 0j)))
            max_error = max(max_error, err)
            cases += 1
            if err >= tol.comparison:
                failures += 1
    return {
        "suite": "oracle",
        "cases": cases,
        "failures": failures,
        "max_error": max_error,
    }


SUITES: Dict[str, Callable[..., Dict]] = {
    "theorem1": suite_theorem1,
    "n2-closed-form": suite_n2_closed_form,
    "n3-closed-form": suite_n3_closed_form,
    "schmidt": suite_schmidt,
    "oracle": suite_oracle,
}


_SIZE_KEYWORD = {
    "theorem1": "cases",
    "n2-closed-form": "omega_draws",
    "n3-closed-form": "cases",
    "oracle": "cases_per_n",
}


def run_suite(
    name: str,
    seed: int = DEFAULT_SEED,
    tol: Tolerances = DEFAULT_TOLERANCES,
    cases: Optional[int] = None,
) -> Dict:
    """Run a named suite; ``cases`` rescales its dominant sample count."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    try:
        suite = SUITES[name]
    except KeyError:
        raise ConfigError(
            f"unknown suite {name!r}; expected one of {sorted(SUITES)}"
        ) from None
    kwargs = {}
    if cases is not None:
        if cases < 1:
            raise ConfigError("cases must be >= 1")
        if name not in _SIZE_KEYWORD:
            raise ConfigError(f"suite {name!r} has a fixed size and takes no cases")
        kwargs[_SIZE_KEYWORD[name]] = cases
    return suite(seed=seed, tol=tol, **kwargs)
