"""Randomized verification suites.

Each suite returns a report dict with ``suite``, ``cases``, ``failures``,
``max_error`` and ``worst_case`` (the seed, index and inputs of the case
with the largest error) and is deterministic for a fixed seed.  The
closed-form suites are array programs with no per-case Python:
``n3-closed-form`` draws its cases as one block (:func:`_n3_draws`) and
evaluates both closed forms once over all of them, and ``n2-closed-form``
draws, folds and scores its rows one :func:`fold.fold_chunks` chunk at a
time, so its memory does not grow with ``cases``.  ``theorem1`` and
``oracle``, whose draws branch case by case, stack their (n_up, (4, N)
angle rows) cases and fold them one chunk at a time through
:func:`_groups`; ``schmidt``'s ten mode splits are one fold.  The oracle
suite checks the ``amplitude`` fold route on each pair and the
``project`` fold route against expansion oracles built from the cases'
rows.  Every resizable suite takes its size as ``cases``
(:func:`run_suite` takes 1 to ``MAX_CASES``), and none takes a
tolerance: :func:`_report` alone counts failures.  These back the
command-line ``verify`` command and the acceptance tests.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import ANGLES
from .errors import ConfigError
from .fold import _postselected, _project_batch, fold_amplitude, fold_chunks, sweep_grid
from .measures import (
    LabelSplit,
    _schmidt_coefficients,
    coefficient_distance,
    dicke_state,
    label_split_coefficients,
    schmidt_coefficients,
    three_boson_average_concurrence,
    three_boson_average_concurrence_coherences,
    two_boson_average_concurrence,
)
from .tolerances import comparison_from_env

DEFAULT_SEED = 7
#: largest ``cases`` :func:`run_suite` takes: every suite folds chunk by
#: chunk and ``n2-closed-form`` (400 fold cases per unit) also draws so, but
#: ``theorem1`` and ``oracle`` hold all their drawn cases, and ``oracle``
#: runs about 5 s at 1000
MAX_CASES = 1000


def random_ensemble(
    rng: np.random.Generator,
    n_total: int,
    n_up: Optional[int] = None,
    allow_leak: bool = False,
) -> Tuple[int, np.ndarray]:
    """Random detector ensemble as an (n_up, (4, N) angle rows) case;
    ``allow_leak`` draws phi below pi/2 half the time."""
    if n_up is None:
        n_up = int(rng.integers(0, n_total + 1))
    columns = []
    for _ in range(n_total):
        phi = math.pi / 2
        if allow_leak and rng.random() < 0.5:
            phi = float(rng.uniform(0.2, math.pi / 2))
        theta = float(rng.uniform(0.0, math.pi / 2))
        omega = float(rng.uniform(0.0, 2.0 * math.pi))
        columns.append((theta, omega, phi, float(rng.uniform(0.0, 2.0 * math.pi))))
    return n_up, np.array(columns).T


def _angles(thetas, omegas) -> np.ndarray:
    """(4, ..., N) angle rows of particles with phi and gamma at their
    defaults, from thetas and omegas of shape (..., N)."""
    shape = np.shape(thetas)
    return np.array([thetas, omegas, np.full(shape, ANGLES["phi"][0]), np.full(shape, ANGLES["gamma"][0])])


def _ensemble_inputs(case: Tuple[int, np.ndarray]) -> Dict:
    """n_up and the (wrapped) angle lists of a case, as JSON values."""
    n_up, rows = case
    return {"n_up": n_up, **dict(zip(ANGLES, rows.tolist()))}


def _report(
    suite: str,
    seed: int,
    errors: Sequence[float],
    inputs: Callable[[int], Dict],
) -> Dict:
    """Suite report over the per-case errors, the one place failures are
    counted: every case whose error is not below :func:`comparison_from_env`,
    a NaN error included.  ``worst_case`` names the case with the largest
    error (the first, on ties; the first NaN, if any) and holds ``inputs``
    of it, or is None when the suite ran no case."""
    if len(errors) == 0:
        return {"suite": suite, "cases": 0, "failures": 0, "max_error": 0.0, "worst_case": None}
    worst = int(np.argmax(errors))
    worst_error = float(errors[worst])
    failures = np.count_nonzero(~(np.asarray(errors) < comparison_from_env()))
    return {
        "suite": suite,
        "cases": len(errors),
        "failures": int(failures),
        "max_error": worst_error if math.isnan(worst_error) else max(0.0, worst_error),
        "worst_case": {"suite": suite, "seed": seed, "case": worst, "inputs": inputs(worst)},
    }


def _groups(cases: Sequence[Tuple[int, np.ndarray]]) -> Iterator[Tuple[int, List[int], np.ndarray]]:
    """n_up, the case indices in draw order and the (4, G, N) stacked angle
    rows of each :func:`fold.fold_chunks` chunk of each (N, n_up) group of
    (n_up, (4, N) angle rows) cases; one fold evaluates a chunk."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for case, (n_up, rows) in enumerate(cases):
        groups.setdefault((rows.shape[1], n_up), []).append(case)
    for (n_total, n_up), members in groups.items():
        for chunk in fold_chunks(n_up, n_total, len(members)):
            yield n_up, members[chunk], np.stack([cases[case][1] for case in members[chunk]], axis=1)


def suite_theorem1(
    seed: int = DEFAULT_SEED,
    cases: int = 1000,
) -> Dict:
    """Zero-coherence criterion: forcing one spin group's thetas to 0 or
    pi/2 must leave every sector reduced state rank one (second Schmidt
    weight zero) and the average entanglement at zero; a case's error is
    the larger of the two."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(cases):
        n_total = int(rng.integers(2, 7))
        n_up = int(rng.integers(0, n_total + 1))
        force_up = bool(rng.integers(0, 2))
        thetas, omegas = [], []
        for j in range(n_total):
            forced = (j < n_up) if force_up else (j >= n_up)
            if forced:
                thetas.append(0.0 if rng.random() < 0.5 else math.pi / 2)
            else:
                thetas.append(float(rng.uniform(0.0, math.pi / 2)))
            omegas.append(float(rng.uniform(0, 2 * math.pi)))
        draws.append((n_up, _angles(thetas, omegas)))
    errors = np.empty(cases)
    for n_up, members, angles in _groups(draws):
        _, weights, p, _ = _project_batch(n_up, *angles)
        # all weights but each sector's largest: their maximum is the largest second weight
        seconds = np.sort(weights, axis=2)[:, :, :-1].max(axis=(1, 2), initial=0.0)
        errors[members] = np.maximum(_postselected(weights, p, "concurrence"), seconds)
    return _report("theorem1", seed, errors, lambda case: _ensemble_inputs(draws[case]))


def suite_n2_closed_form(
    seed: int = DEFAULT_SEED,
    cases: int = 10,
) -> Dict:
    """Two-boson average concurrence against the closed form C1*C2/4 on a
    20 x 20 theta grid, with ``cases`` random phase pairs per grid point.

    Row r of the 400 * ``cases`` rows is grid point r // ``cases``.  The
    rows are drawn, folded and scored one :func:`fold.fold_chunks` chunk at
    a time (consecutive draws give the stream of one draw); only the errors
    and each chunk's worst phase pair, one of which is the report's worst
    case, outlive their chunk."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, math.pi / 2, 20)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    closed = two_boson_average_concurrence(points[:, 0], points[:, 1])
    rows = len(points) * cases
    errors = np.empty(rows)
    worst_omegas = {}
    for chunk in fold_chunks(1, 2, rows):
        point = np.arange(chunk.start, chunk.stop) // cases
        omegas = rng.uniform(0.0, 2.0 * math.pi, (len(point), 2))
        values = sweep_grid(1, *_angles(points[point], omegas), "concurrence")[2]
        errors[chunk] = np.abs(values - closed[point])
        if len(point):
            worst = int(np.argmax(errors[chunk]))
            worst_omegas[chunk.start + worst] = omegas[worst]

    def inputs(case: int) -> Dict:
        return _ensemble_inputs((1, _angles(points[case // cases], worst_omegas[case])))

    return _report("n2-closed-form", seed, errors, inputs)


def _n3_draws(rng: np.random.Generator, cases: int) -> np.ndarray:
    """The (thetas, omegas) of ``cases`` three-boson cases, shape (2, cases,
    3), from one block of 7 uniform doubles u0..u6 per case.

    An even case puts theta_1 and theta_2 (u1, u2) on one side of pi/4,
    the lower one when u0 < 0.5; an odd case puts theta_1 (u0) below pi/4
    and theta_2 (u1) above it, swapped when u2 < 0.5; theta_3 (u3) and the
    omegas (u4..u6) follow.  ``rng.uniform(lo, hi)`` maps a double u to
    ``lo + (hi - lo) * u``, and every theta range is pi/4 or pi/2 wide
    exactly, so this is the stream of one scalar draw per double, case by
    case.
    """
    quarter = math.pi / 4
    u = rng.random((cases, 7))
    same_side = np.where(u[:, :1] < 0.5, 0.0, quarter) + quarter * u[:, 1:3]
    straddle = np.stack([quarter * u[:, 0], quarter + quarter * u[:, 1]], axis=1)
    straddle = np.where(u[:, 2:3] < 0.5, straddle[:, ::-1], straddle)
    drawn = np.empty((2, cases, 3))
    drawn[0, :, :2] = np.where((np.arange(cases) % 2 == 0)[:, None], same_side, straddle)
    drawn[0, :, 2] = math.pi / 2 * u[:, 3]
    drawn[1] = 2.0 * math.pi * u[:, 4:]
    return drawn


def suite_n3_closed_form(
    seed: int = DEFAULT_SEED,
    cases: int = 500,
) -> Dict:
    """Three-boson average concurrence against the closed form, in both the
    angle variables and the coherence variables with the branch sign rule.

    Half the draws put theta_1 and theta_2 on the same side of pi/4, half
    on opposite sides, so both branches of the sign rule are exercised.
    """
    thetas, omegas = _n3_draws(np.random.default_rng(seed), cases)
    angles = _angles(thetas, omegas)
    values = sweep_grid(2, *angles, "concurrence")[2]
    t1, t2 = thetas[:, 0], thetas[:, 1]
    same_side = (t1 - math.pi / 4) * (t2 - math.pi / 4) >= 0.0
    coherences = 2.0 * np.cos(thetas) * np.sin(thetas)
    theta_forms = three_boson_average_concurrence(thetas, omegas)
    coherence_forms = three_boson_average_concurrence_coherences(
        *coherences.T, omegas[:, 0] - omegas[:, 1], same_side
    )
    errors = np.maximum(np.abs(values - theta_forms), np.abs(values - coherence_forms))
    return _report("n3-closed-form", seed, errors, lambda case: _ensemble_inputs((2, angles[:, case])))


def label_split_error(
    n_total: int, n_up: int, n_left: int
) -> float:
    """Largest deviation of the label-split Schmidt coefficients of the
    Dicke state (n_total, n_up) across n_left | n_total - n_left, by SVD,
    from the binomial closed form."""
    state = dicke_state(n_total, n_up)
    coefficients = schmidt_coefficients(state, LabelSplit(n_left, n_total - n_left))
    expected = label_split_coefficients(n_total, n_up, n_left)
    return coefficient_distance(coefficients, expected)


def suite_schmidt(
    seed: int = DEFAULT_SEED,
) -> Dict:
    """Label-split Schmidt coefficients against the binomial closed form at
    N = 2..6, plus the mode-splitting equivalence for the three-particle
    pattern: a mode-split case's error is the
    :func:`measures.verify_schmidt_equivalence` ``max_abs_diff`` of (3, 2) at
    its shared angles, split (2, 1), from one fold of all ten cases."""
    rng = np.random.default_rng(seed)
    errors = []
    inputs = []
    for n_total in range(2, 7):
        for n_up in range(0, n_total + 1):
            for n_left in range(1, n_total):
                errors.append(label_split_error(n_total, n_up, n_left))
                inputs.append({"n_total": n_total, "n_up": n_up, "n_left": n_left})
    # mode splitting at shared random angles reproduces the input form
    shared = []
    for _ in range(10):
        theta = float(rng.uniform(0.1, math.pi / 2 - 0.1))
        omega = float(rng.uniform(0.0, 2.0 * math.pi))
        shared.append((theta, omega))
        inputs.append({"theta": theta, "omega": omega})
    # a case's three particles all at its angles
    thetas, omegas = np.repeat(np.array(shared).T[:, :, None], 3, axis=2)
    _, weights, _, _ = _project_batch(2, *_angles(thetas, omegas))
    expected = label_split_coefficients(3, 2, 2)
    for sector in weights[:, 2]:
        errors.append(coefficient_distance(_schmidt_coefficients(sector), expected))
    return _report("schmidt", seed, errors, inputs.__getitem__)


def amplitude_oracle_error(bra: Tuple[int, np.ndarray], ket: Tuple[int, np.ndarray]) -> float:
    """|fold amplitude - expansion oracle| of two boson (n_up, (4, N) angle
    rows) cases, the fold run as the ``amplitude`` command runs it: on their
    spin-up-first angle rows, row 0 the bra's."""
    from .oracles import expansion_inner_product, rows_ensemble

    angles = np.stack([bra[1], ket[1]], axis=1)
    fast = fold_amplitude(bra[0], ket[0], *angles)
    return abs(fast - expansion_inner_product(rows_ensemble(*bra).kets(), rows_ensemble(*ket).kets()))


def projection_oracle_error(
    case: Tuple[int, np.ndarray],
) -> float:
    """Largest deviation of the fold projection's leak and raw outcome
    amplitudes of a case from :func:`oracles.project_by_substitution`, over
    every outcome (alpha, beta): the oracle's amplitude of the key with alpha
    spin-up and beta spin-down particles at L, 0 where the oracle has none."""
    return float(_projection_oracle_errors([case])[0])


def _projection_oracle_errors(cases: Sequence[Tuple[int, np.ndarray]]) -> np.ndarray:
    """:func:`projection_oracle_error` of each case, from one fold per (N,
    n_up) group; a fold's rows are independent, so each error is the one
    case's alone, bit for bit."""
    from .oracles import project_by_substitution, rows_ensemble

    errors = np.empty(len(cases))
    for n_up, members, angles in _groups(cases):
        outcomes, _, _, leak = _project_batch(n_up, *angles)
        for row, case in enumerate(members):
            sectors, oracle_leak = project_by_substitution(rows_ensemble(*cases[case]))
            reference = np.zeros_like(outcomes[row])
            for q, amplitudes in sectors.items():
                for key, value in amplitudes.items():
                    alpha = sum(spin.value == "up" for side, spin in key if side == "L")
                    reference[alpha, q - alpha] = value
            errors[case] = max(
                abs(float(leak[row]) - oracle_leak), float(np.abs(outcomes[row] - reference).max())
            )
    return errors


def suite_oracle(
    seed: int = DEFAULT_SEED,
    cases: int = 200,
) -> Dict:
    """The fold routes of the ``amplitude`` and ``project`` commands against
    the literal permutation-expansion oracles: ``cases`` amplitudes at each
    N = 1..5 between ensembles of equal n_up, whose particles leave the
    detectors half the time, then ``cases`` leak-free projections at each
    N = 2..5."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in range(1, 6):
        for _ in range(cases):
            ket = random_ensemble(rng, n, allow_leak=True)
            pairs.append((random_ensemble(rng, n, ket[0], allow_leak=True), ket))
    draws = [random_ensemble(rng, n) for n in range(2, 6) for _ in range(cases)]
    errors = [amplitude_oracle_error(bra, ket) for bra, ket in pairs]
    errors += _projection_oracle_errors(draws).tolist()

    def inputs(case: int) -> Dict:
        if case < len(pairs):
            bra, ket = pairs[case]
            return {"bra": _ensemble_inputs(bra), "ket": _ensemble_inputs(ket)}
        return _ensemble_inputs(draws[case - len(pairs)])

    return _report("oracle", seed, errors, inputs)


SUITES: Dict[str, Callable[..., Dict]] = {
    "theorem1": suite_theorem1,
    "n2-closed-form": suite_n2_closed_form,
    "n3-closed-form": suite_n3_closed_form,
    "schmidt": suite_schmidt,
    "oracle": suite_oracle,
}


def run_suite(
    name: str,
    seed: int = DEFAULT_SEED,
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
        if not 1 <= cases <= MAX_CASES:
            raise ConfigError(f"cases must lie in [1, {MAX_CASES}], got {cases}")
        if name == "schmidt":
            raise ConfigError(f"suite {name!r} has a fixed size and takes no cases")
        kwargs["cases"] = cases
    return suite(seed=seed, **kwargs)
