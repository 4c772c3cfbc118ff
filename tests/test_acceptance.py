"""Acceptance criteria.

One test per criterion, each printing a PASS line with the observed error
so the whole gate can be read off a verbose run:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from identangle.detection import (
    ParticleEnsemble,
    entanglement_of_particles,
    project_onto_detectors,
    sector_reduced_density,
)
from identangle.measures import verify_schmidt_equivalence
from identangle.oracles import rows_ensemble
from identangle.permanent import permanent_naive, permanent_ryser
from identangle.states import SpatialMode
from identangle.verify import (
    random_rows,
    suite_n2_closed_form,
    suite_n3_closed_form,
    suite_oracle,
    suite_schmidt,
    suite_theorem1,
)

SEED = 20240811


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS {detail}")


def test_criterion_1_two_boson_closed_form():
    """N=2 average concurrence equals C1*C2/4 on a 20x20 grid, under 5 s."""
    start = time.perf_counter()
    report = suite_n2_closed_form(seed=SEED, cases=10)
    elapsed = time.perf_counter() - start
    assert report["failures"] == 0, report
    assert report["max_error"] < 1e-10
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"max_error={report['max_error']:.3e} runtime={elapsed:.2f}s "
               f"cases={report['cases']}")


def test_criterion_2_two_boson_reduced_matrix():
    """Sector q=1 reduced eigenvalues match the closed-form weights."""
    rng = np.random.default_rng(SEED)
    max_error = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.05, math.pi / 2 - 0.05, 2)
        w1, w2 = rng.uniform(0, 2 * math.pi, 2)
        ens = ParticleEnsemble(
            1,
            (SpatialMode(theta=t1, omega=w1), SpatialMode(theta=t2, omega=w2)),
        )
        sector = project_onto_detectors(ens).sector(1)
        evs = sorted(sector_reduced_density(sector.state).eigenvalues())
        a2 = (math.sin(t1) * math.cos(t2)) ** 2
        b2 = (math.cos(t1) * math.sin(t2)) ** 2
        expected = sorted([a2 / (a2 + b2), b2 / (a2 + b2)])
        max_error = max(
            max_error, max(abs(x - y) for x, y in zip(evs, expected))
        )
    assert max_error < 1e-10
    _report(2, f"max_error={max_error:.3e} cases=100")


def test_criterion_3_three_boson_closed_form():
    """N=3 average concurrence matches the closed form on both sign branches."""
    report = suite_n3_closed_form(seed=SEED, cases=500)
    assert report["failures"] == 0, report
    assert report["max_error"] < 1e-9
    _report(3, f"max_error={report['max_error']:.3e} cases={report['cases']}")


def test_criterion_4_three_boson_phase_counterexample():
    """Full up-coherence with opposite phases stays separable."""
    worst = 0.0
    for c3 in (0.3, 0.7, 1.0):
        theta3 = math.asin(c3) / 2
        ens = ParticleEnsemble(
            2,
            (
                SpatialMode(theta=math.pi / 4, omega=1.3),
                SpatialMode(theta=math.pi / 4, omega=1.3 + math.pi),
                SpatialMode(theta=theta3, omega=0.4),
            ),
        )
        for measure in ("entropy", "concurrence"):
            value = entanglement_of_particles(ens, measure)
            worst = max(worst, value)
            assert value < 1e-10, (c3, measure, value)
    _report(4, f"max_entanglement={worst:.3e} C3 in (0.3, 0.7, 1.0), both measures")


def test_criterion_5_theorem1_property_suite():
    """1000 zero-coherence ensembles: rank-1 sectors, zero entanglement."""
    report = suite_theorem1(seed=SEED, cases=1000)
    assert report["failures"] == 0, report
    assert report["max_error"] < 1e-10
    _report(5, f"failures=0 max_error={report['max_error']:.3e} cases=1000")


def test_criterion_6_schmidt_equivalence():
    """Mode splitting reproduces the label-split Schmidt coefficients."""
    report = verify_schmidt_equivalence(3, 2, 0.8, 2.1, (2, 1))
    expected = sorted([math.sqrt(1 / 3), math.sqrt(2 / 3)], reverse=True)
    pair_err = max(
        abs(a - b) for a, b in zip(report.input_coefficients, expected)
    )
    assert report.max_abs_diff < 1e-10
    assert pair_err < 1e-10
    suite = suite_schmidt(seed=SEED)
    assert suite["failures"] == 0, suite
    assert suite["max_error"] < 1e-10
    _report(6, f"(3,2,(2,1)) diff={report.max_abs_diff:.3e}; "
               f"binomial-vs-SVD max_error={suite['max_error']:.3e} "
               f"cases={suite['cases']}")


def test_criterion_7_oracle_equivalence():
    """Fold amplitudes and projections match the expansion oracles."""
    report = suite_oracle(seed=SEED, cases=200)
    assert report["failures"] == 0, report
    assert report["max_error"] < 1e-10
    _report(7, f"max_error={report['max_error']:.3e} cases={report['cases']}")


def test_criterion_8_permanent_kernels():
    """Ryser matches the permutation sum; all-ones permanents are exact."""
    rng = np.random.default_rng(SEED)
    max_rel = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        slow = permanent_naive(m)
        fast = permanent_ryser(m)
        rel = abs(fast - slow) / (1 + abs(slow))
        max_rel = max(max_rel, rel)
        assert rel < 1e-10
    for n in range(1, 13):
        assert permanent_ryser(np.ones((n, n))) == math.factorial(n)
    _report(8, f"max_rel_error={max_rel:.3e} cases=500; all-ones exact to n=12")


def test_criterion_9_completeness():
    """Sector probabilities plus leak sum to one, including leaky modes."""
    rng = np.random.default_rng(SEED)
    max_error = 0.0
    for n_total in range(2, 7):
        n_ups = rng.integers(0, n_total + 1, 200).tolist()
        for n_up, rows in zip(n_ups, random_rows(rng, 200, n_total, allow_leak=True).transpose(1, 0, 2)):
            dec = project_onto_detectors(rows_ensemble(n_up, rows))
            total = sum(s.probability for s in dec.sectors) + dec.leak_probability
            max_error = max(max_error, abs(total - 1))
    assert max_error < 1e-10
    _report(9, f"max_error={max_error:.3e} cases=1000")
