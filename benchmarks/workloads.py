"""Seeded inputs, operations and output checks of each workload.

A workload is a list of operations, each one in-process call of the
``identangle`` command line on JSON files written here.  Every run repeats
that list in whole rounds.  The seed only draws angles, phases, leak and
edge choices, spin orders and verify seeds; the particle numbers, n_up
spreads and grid sizes are fixed, so each workload does the same amount
of work on every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import reference

HALF_PI = math.pi / 2
TWO_PI = 2.0 * math.pi

#: end-to-end throughput metrics fed by the operations, with their units
THROUGHPUT_UNITS = {
    "project_per_s": "ensembles/s",
    "amplitude_per_s": "amplitudes/s",
    "sweep_points_per_s": "points/s",
    "verify_cases_per_s": "cases/s",
}


class CheckError(Exception):
    """An operation's output disagrees with the reference."""


@dataclass
class Op:
    """One CLI call.  ``metric`` names the throughput it feeds (None: it
    feeds none) and ``units`` how much work it counts there once it
    succeeds."""

    label: str
    argv: List[str]
    metric: Optional[str]
    units: int
    check: Callable[[str], None]
    same_output_as: Optional[int] = None
    #: a known fault of the program makes this op fail on its fixed inputs:
    #: a non-zero exit or a check miss counts in ``failed``, not as an error
    expect_fail: bool = False


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    return path


def _expect(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


# -- input generation -----------------------------------------------------


def random_ensemble(
    rng: np.random.Generator,
    n: int,
    n_up: int,
    *,
    leak: bool = False,
    edge: bool = False,
    repeat: bool = False,
    shuffle: bool = True,
) -> List[Dict]:
    """Particles of one ensemble config (radians).

    ``leak`` lowers phi below pi/2 on up to a third of the particles,
    ``edge`` puts one or two thetas at 0 or pi/2, ``repeat`` copies one
    particle's mode onto another of the same spin, and ``shuffle`` mixes
    the spins in the file so the CLI has to reorder them.
    """
    particles = [
        {
            "spin": "up" if j < n_up else "down",
            "theta": float(rng.uniform(0.0, HALF_PI)),
            "omega": float(rng.uniform(0.0, TWO_PI)),
        }
        for j in range(n)
    ]
    if leak:
        count = int(rng.integers(1, max(1, n // 3) + 1))
        for j in rng.choice(n, size=count, replace=False):
            particles[int(j)]["phi"] = float(rng.uniform(0.6, 1.45))
            particles[int(j)]["gamma"] = float(rng.uniform(0.0, TWO_PI))
    if edge:
        for j in rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False):
            particles[int(j)]["theta"] = 0.0 if rng.random() < 0.5 else HALF_PI
    if repeat:
        groups = [g for g in (range(n_up), range(n_up, n)) if len(g) >= 2]
        if groups:
            group = groups[int(rng.integers(len(groups)))]
            src, dst = rng.choice(list(group), size=2, replace=False)
            particles[int(dst)] = dict(particles[int(src)])
    if shuffle:
        particles = [particles[int(j)] for j in rng.permutation(n)]
    return particles


def perturbed(rng: np.random.Generator, particles: Sequence[Dict]) -> List[Dict]:
    """A nearby ensemble with the same spins, so the overlap stays large."""
    out = []
    for p in particles:
        q = dict(p)
        q["theta"] = float(min(HALF_PI, max(0.0, p["theta"] + rng.normal(0.0, 0.15))))
        q["omega"] = float(p["omega"] + rng.normal(0.0, 0.3))
        if "phi" in p:
            q["phi"] = float(min(1.5, max(0.5, p["phi"] + rng.normal(0.0, 0.1))))
        out.append(q)
    return out


def _config(particles: Sequence[Dict]) -> Dict:
    return {"statistics": "boson", "degrees": False, "particles": list(particles)}


# -- checks ---------------------------------------------------------------


def _key_counts(key) -> Dict[str, int]:
    counts = {"Lup": 0, "Ldown": 0, "Rup": 0, "Rdown": 0}
    for label, spin in key:
        name = label + spin
        _expect(name in counts, f"detector key holds a non-detector label {label!r}")
        counts[name] += 1
    return counts


def check_project(particles: Sequence[Dict]) -> Callable[[str], None]:
    ref = reference.Projection(particles)
    tol = reference.COMPARISON
    order = sorted(range(len(particles)), key=lambda j: particles[j]["spin"] != "up")

    def check(text: str):
        record = json.loads(text)
        _expect(record["n_particles"] == len(particles), "n_particles differs")
        _expect(record["n_up"] == ref.n_up, "n_up differs")
        _expect(record["source_order"] == order, "source_order differs")
        _expect(abs(record["leak"] - ref.leak) <= tol, f"leak {record['leak']} != {ref.leak}")
        amp = np.zeros_like(ref.amp)
        reported = set()
        for sector in record["sectors"]:
            q, p = sector["q"], sector["p"]
            reported.add(q)
            _expect(abs(p - ref.p[q]) <= tol, f"p_{q} {p} != {ref.p[q]}")
            root = math.sqrt(p)
            for entry in sector["amplitudes"]:
                c = _key_counts(entry["key"])
                alpha, beta = c["Lup"], c["Ldown"]
                _expect(alpha + beta == q, f"key in sector {q} holds {alpha + beta} at L")
                _expect(
                    c["Rup"] == ref.n_up - alpha and c["Rdown"] == ref.n_down - beta,
                    "key particle counts differ",
                )
                amp[alpha, beta] = complex(entry["re"], entry["im"]) * root
        # an absent sector reads as p_q = 0; the package drops sectors below
        # tol.pruning, and their amplitudes are then undefined
        expected = ref.amp.copy()
        for q, p in enumerate(ref.p):
            if q not in reported:
                _expect(p <= tol, f"sector {q} with p = {p} is missing")
                expected[ref.sector_mask(q)] = 0.0
        worst = float(np.max(np.abs(amp - expected)))
        _expect(worst <= tol, f"detector amplitudes differ by {worst:.3e}")
        ent = record["entanglement"]
        _expect(abs(ent["entropy"] - ref.entropy) <= tol, f"entropy {ent['entropy']} != {ref.entropy}")
        _expect(
            abs(ent["concurrence"] - ref.concurrence) <= tol,
            f"concurrence {ent['concurrence']} != {ref.concurrence}",
        )

    return check


def check_amplitude(bra: Sequence[Dict], ket: Sequence[Dict]) -> Callable[[str], None]:
    expected = reference.transition_amplitude(bra, ket)

    def check(text: str):
        record = json.loads(text)
        got = complex(record["amplitude"]["re"], record["amplitude"]["im"])
        err = abs(got - expected)
        _expect(
            err <= reference.COMPARISON * abs(expected),
            f"amplitude {got} != {expected} (relative {err / abs(expected):.3e})",
        )
        _expect(record["n_particles"] == len(ket), "n_particles differs")
        _expect(record["statistics"] == "boson" and record["method"] == "ryser", "method differs")

    return check


def grid_axis(start: float, stop: float, steps: int) -> List[float]:
    """The values of a start/stop/steps axis, in the sweep spec's definition."""
    if steps == 1:
        return [start]
    h = (stop - start) / (steps - 1)
    return [start + k * h for k in range(steps)]


def check_sweep(
    particles: Sequence[Dict], paths: Sequence[str], axes: Sequence[Sequence[float]]
) -> Callable[[str], None]:
    """CSV rows against the reference, with the entropy measure."""
    n = len(particles)
    header = list(paths) + [f"p_{q}" for q in range(n + 1)] + ["leak", "entanglement"]
    expected = []
    for point in _grid(axes):
        point_particles = [dict(p) for p in particles]
        for path, value in zip(paths, point):
            index, attr = path[len("particles["):].split("].")
            point_particles[int(index)][attr] = value
        ref = reference.Projection(point_particles)
        expected.append(list(point) + list(ref.p) + [ref.leak, ref.entropy])
    expected = np.array(expected)
    n_axes = len(paths)

    def check(text: str):
        rows = list(csv.reader(io.StringIO(text)))
        _expect(rows and rows[0] == header, "sweep header differs")
        _expect(len(rows) - 1 == len(expected), f"sweep holds {len(rows) - 1} rows, expected {len(expected)}")
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        _expect(got.shape == expected.shape, "sweep row width differs")
        _expect(np.array_equal(got[:, :n_axes], expected[:, :n_axes]), "sweep grid points differ")
        worst = float(np.max(np.abs(got[:, n_axes:] - expected[:, n_axes:])))
        _expect(worst <= reference.COMPARISON, f"sweep rows differ by {worst:.3e}")

    return check


def _grid(axes: Sequence[Sequence[float]]):
    points = [()]
    for values in axes:
        points = [p + (v,) for p in points for v in values]
    return points


def check_verify(suite: str, cases: int) -> Callable[[str], None]:
    def check(text: str):
        record = json.loads(text)
        _expect(record["suite"] == suite, "suite differs")
        _expect(record["failures"] == 0, f"{record['failures']} failures")
        _expect(record["cases"] == cases, f"ran {record['cases']} cases, asked for {cases}")

    return check


# -- operations -----------------------------------------------------------


def project_op(
    workdir: str, name: str, particles: List[Dict], metric: Optional[str] = "project_per_s", expect_fail: bool = False
) -> Op:
    path = _write(workdir, name + ".json", _config(particles))
    return Op(name, ["project", "--config", path], metric, 1, check_project(particles), expect_fail=expect_fail)


def amplitude_op(workdir: str, name: str, bra: List[Dict], ket: List[Dict], expect_fail: bool = False) -> Op:
    ket_path = _write(workdir, name + "-ket.json", _config(ket))
    bra_path = _write(workdir, name + "-bra.json", _config(bra))
    return Op(
        name,
        ["amplitude", "--config", ket_path, "--bra-config", bra_path],
        "amplitude_per_s",
        1,
        check_amplitude(bra, ket),
        expect_fail=expect_fail,
    )


def sweep_ops(
    workdir: str, name: str, particles: List[Dict], axes: List[Dict], first_index: int
) -> List[Op]:
    """The same sweep with one and with two threads; ``first_index`` is the
    position the first op will take in the workload's list."""
    config_path = _write(workdir, name + ".json", _config(particles))
    spec_path = _write(workdir, name + "-spec.json", {"axes": axes})
    values = [
        axis["values"] if "values" in axis else grid_axis(axis["start"], axis["stop"], axis["steps"])
        for axis in axes
    ]
    for path, vals in zip((a["path"] for a in axes), values):
        if path.endswith(".theta") and not all(0.0 <= v <= HALF_PI for v in vals):
            raise ValueError(f"{name}: the {path} grid leaves [0, pi/2]")
    paths = [axis["path"] for axis in axes]
    check = check_sweep(particles, paths, values)
    points = math.prod(len(v) for v in values)
    base = ["sweep", "--config", config_path, "--sweep", spec_path, "--measure", "entropy"]
    return [
        Op(name + "-t1", base + ["--threads", "1"], "sweep_points_per_s", points, check),
        # timed but not reported: see README.md on sweep_points_per_s_t2
        Op(name + "-t2", base + ["--threads", "2"], None, points, check, same_output_as=first_index),
    ]


def verify_ops(rng: np.random.Generator, suites: Dict[str, Optional[int]]) -> List[Op]:
    """``suites`` maps a suite to its --cases value (None: the suite's own size)."""
    ops = []
    for suite, cases in suites.items():
        argv = ["verify", suite, "--seed", str(int(rng.integers(1, 2 ** 31 - 1)))]
        if cases is not None:
            argv += ["--cases", str(cases)]
        expected = expected_verify_cases(suite, cases)
        ops.append(Op("verify-" + suite, argv, "verify_cases_per_s", expected, check_verify(suite, expected)))
    return ops


def expected_verify_cases(suite: str, cases: Optional[int]) -> int:
    """Case count a suite reports for a --cases value (suite sizes in verify.py)."""
    if suite == "oracle":
        return (cases or 200) * (5 + 4)  # amplitudes at n = 1..5, projections at n = 2..5
    if suite == "n2-closed-form":
        return 20 * 20 * (cases or 10)  # theta grid of 20 x 20, cases phase draws each
    if suite == "schmidt":
        return sum((n + 1) * (n - 1) for n in range(2, 7)) + 10
    return cases or {"theorem1": 1000, "n3-closed-form": 500}[suite]


def small_ops(
    rng: np.random.Generator, workdir: str, sizes: Sequence[int], n_project: int, n_amplitude: int
) -> List[Op]:
    """Many small ``project`` and ``amplitude`` calls, cycling through
    ``sizes``.  Sizes and n_up follow a fixed pattern, so the work does
    not depend on the seed."""
    ops = []
    for k in range(n_project):
        n = sizes[k % len(sizes)]
        particles = random_ensemble(rng, n, (7 * k) % (n + 1), leak=k % 2 == 0, edge=k % 3 == 0, repeat=k % 4 == 1)
        ops.append(project_op(workdir, f"project-small-{k}", particles))
    for k in range(n_amplitude):
        n = sizes[k % len(sizes)]
        ket = random_ensemble(rng, n, (5 * k) % (n + 1), leak=k % 2 == 1, repeat=k % 3 == 0)
        ops.append(amplitude_op(workdir, f"amplitude-small-{k}", perturbed(rng, ket), ket))
    return ops


def self_check(seed: int):
    """Check both references against the package's brute-force oracles at
    N <= 5 (``project_by_substitution`` and ``permanent_naive``) before
    they are trusted to check the timed operations."""
    from identangle.algebra import overlap_matrix
    from identangle.detection import ParticleEnsemble
    from identangle.oracles import project_by_substitution
    from identangle.permanent import permanent_naive
    from identangle.states import SpatialMode

    def ensemble(particles):
        ordered = sorted(particles, key=lambda p: p["spin"] != "up")
        modes = tuple(
            SpatialMode(theta=p["theta"], omega=p["omega"], phi=p.get("phi", HALF_PI), gamma=p.get("gamma", 0.0))
            for p in ordered
        )
        return ParticleEnsemble(sum(p["spin"] == "up" for p in particles), modes)

    rng = np.random.default_rng([seed, 0])
    for k in range(40):
        n = 1 + k % 5
        ket = random_ensemble(
            rng, n, int(rng.integers(0, n + 1)), leak=k % 2 == 0, edge=k % 3 == 0, repeat=k % 4 == 0
        )
        bra = perturbed(rng, ket)
        ref = reference.Projection(ket)
        sectors, leak = project_by_substitution(ensemble(ket))
        err = abs(leak - ref.leak)
        for amps in sectors.values():
            for key, value in amps.items():
                c = _key_counts([(label, spin.value) for label, spin in key])
                err = max(err, abs(value - ref.amp[c["Lup"], c["Ldown"]]))
        perm = permanent_naive(overlap_matrix(ensemble(bra).kets(), ensemble(ket).kets()))
        err = max(err, abs(perm - reference.permanent(bra, ket)) / max(1.0, abs(perm)))
        _expect(err <= reference.COMPARISON, f"reference self-check case {k} off by {err:.3e}")


# -- workloads ------------------------------------------------------------

#: seeded N <= 12 projections of large-n: (N, distance of n_up from N/2)
#: per ensemble; single-spin N = 12 ensembles are on fixed inputs instead
LARGE_N_PROJECTIONS = [(10, 5), (10, 3), (10, 1), (10, 0), (11, 5.5), (11, 2.5), (11, 0.5), (12, 4), (12, 2)]
#: fixed single-spin N = 12 projection of large-n: the draw of
#: ``default_rng(SINGLE_SPIN_N12_DRAW)`` misses tol.comparison (see README.md),
#: as about one single-spin N = 12 draw in a hundred does
SINGLE_SPIN_N12_DRAW = [12, 320]
#: seeded amplitudes of large-n, at N = 14
LARGE_N_AMPLITUDES = 8
#: N = 16 projections of large-n; they exceed the projection size limit
OVER_CAP_PROJECTIONS = 2
#: N = 16 amplitudes of large-n, on fixed inputs: the Ryser permanent
#: misses tol.comparison on some pairs at this size (see README.md)
N16_AMPLITUDES = 4


def large_n(seed: int, workdir: str) -> List[Op]:
    rng = np.random.default_rng([seed, 1])
    ops: List[Op] = []
    leaks = rng.permutation([k % 2 == 0 for k in range(len(LARGE_N_PROJECTIONS))])
    for k, (n, distance) in enumerate(LARGE_N_PROJECTIONS):
        sign = 1 if rng.random() < 0.5 else -1
        n_up = int(round(n / 2 + sign * distance))
        particles = random_ensemble(
            rng, n, n_up, leak=bool(leaks[k]), edge=k % 3 == 1, repeat=k % 3 == 2
        )
        ops.append(project_op(workdir, f"project-{k}-n{n}", particles))
    for k in range(LARGE_N_AMPLITUDES):
        n_up = int(rng.integers(5, 10))
        ket = random_ensemble(rng, 14, n_up, leak=k % 2 == 0, repeat=k % 4 == 1)
        ops.append(amplitude_op(workdir, f"amplitude-{k}-n14", perturbed(rng, ket), ket))
    # the fixed inputs do not depend on the seed, so every run fails the same calls
    particles = random_ensemble(np.random.default_rng(SINGLE_SPIN_N12_DRAW), 12, 12, edge=True)
    ops.append(project_op(workdir, "project-single-spin-n12", particles, metric=None, expect_fail=True))
    fixed = np.random.default_rng(16)
    for k in range(OVER_CAP_PROJECTIONS):
        particles = random_ensemble(fixed, 16, 8, leak=k == 1)
        ops.append(project_op(workdir, f"project-overcap-{k}-n16", particles, metric=None, expect_fail=True))
    for k in range(N16_AMPLITUDES):
        n_up = int(fixed.integers(6, 11))
        ket = random_ensemble(fixed, 16, n_up, leak=k % 2 == 0, repeat=k % 4 == 1)
        ops.append(amplitude_op(workdir, f"amplitude-fixed-{k}-n16", perturbed(fixed, ket), ket, expect_fail=True))
    particles = random_ensemble(rng, 9, 4, shuffle=False)
    particles[int(rng.integers(9))].update(phi=float(rng.uniform(0.6, 1.45)), gamma=0.5)
    axes = [
        {"path": "particles[0].theta", "start": 0.2, "stop": 1.3, "steps": 2},
        {"path": "particles[4].omega", "values": [float(v) for v in rng.uniform(0.0, TWO_PI, 2)]},
    ]
    ops += sweep_ops(workdir, "sweep-n9", particles, axes, len(ops))
    ops += verify_ops(rng, {"n3-closed-form": 100})
    return ops


#: dense-sweep grid: theta steps x omega values, at N = 4
DENSE_THETA_STEPS = 20
DENSE_OMEGA_VALUES = 24


def dense_sweep(seed: int, workdir: str) -> List[Op]:
    rng = np.random.default_rng([seed, 2])
    particles = random_ensemble(rng, 4, 2, shuffle=False)
    particles[int(rng.integers(4))].update(
        phi=float(rng.uniform(0.6, 1.45)), gamma=float(rng.uniform(0.0, TWO_PI))
    )
    axes = [
        {"path": "particles[0].theta", "start": 0.0, "stop": float(rng.uniform(1.3, 1.57)),
         "steps": DENSE_THETA_STEPS},
        {"path": "particles[2].omega",
         "values": sorted(float(v) for v in rng.uniform(0.0, TWO_PI, DENSE_OMEGA_VALUES))},
    ]
    ops = sweep_ops(workdir, "sweep-dense", particles, axes, 0)
    # 80 amplitudes (under 0.1 s a round) spread by 9 % between runs; 240 take a quarter second
    ops += small_ops(rng, workdir, [4], n_project=24, n_amplitude=240)
    ops += verify_ops(rng, {"schmidt": None, "n2-closed-form": 1})
    return ops


def oracle_verify(seed: int, workdir: str) -> List[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = verify_ops(
        rng,
        {"oracle": 10, "theorem1": 100, "n2-closed-form": 1, "n3-closed-form": 100, "schmidt": None},
    )
    ops += small_ops(rng, workdir, [2, 3, 4, 5, 6], n_project=25, n_amplitude=80)
    particles = random_ensemble(rng, 4, 2, leak=True, shuffle=False)
    axes = [
        {"path": "particles[0].theta", "start": 0.0, "stop": 1.5, "steps": 8},
        {"path": "particles[2].omega", "values": [float(v) for v in rng.uniform(0.0, TWO_PI, 8)]},
    ]
    ops += sweep_ops(workdir, "sweep-small", particles, axes, len(ops))
    return ops


WORKLOADS: Dict[str, Callable[[int, str], List[Op]]] = {
    "large-n": large_n,
    "dense-sweep": dense_sweep,
    "oracle-verify": oracle_verify,
}
