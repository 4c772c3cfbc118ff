"""``identangle sweep`` against the per-row projection.

A sweep folds each spin block's fixed particles once and continues that
fold per setting of the axes that move the block, so its rows must match
``fold._project_batch`` of each row's ensemble within ``tol.comparison``
and print the same bytes for any thread count.  A chunk whose settings
fail a run-time check is evaluated again, row by row, by
``fold.sweep_grid``, which names the first failing row; a chunk that
passes never reaches it.
"""

import json
import math
import os

import numpy as np
import pytest

from identangle import fold
from identangle.cli import MEASURES, main
from identangle.config import ANGLES, parse_ensemble_config
from identangle.errors import RowError
from identangle.tolerances import DEFAULT_TOLERANCES

from conftest import CliRunner

HALF_PI = math.pi / 2


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def axis_values(axis):
    """The points of a spec axis, as the parser computes them."""
    if "values" in axis:
        return axis["values"]
    start, stop, steps = axis["start"], axis["stop"], axis["steps"]
    if steps == 1:
        return [start]
    h = (stop - start) / (steps - 1)
    return [start + k * h for k in range(steps)]


def grid_angles(config, axes):
    """(4, G, N) angles in radians of every grid row, per row."""
    points = [()]
    for axis in axes:
        points = [point + (value,) for point in points for value in axis_values(axis)]
    angles = np.repeat(config.angles()[:, None], len(points), axis=1)
    for column, axis in enumerate(axes):
        stored, attr = config.locate(axis["path"])
        row = list(ANGLES).index(attr)
        bounded = ANGLES[attr][1]
        bound = 90.0 if config.degrees else HALF_PI
        for g, point in enumerate(points):
            value = min(max(point[column], 0.0), bound) if bounded else point[column]
            angles[row, g, stored] = value * config.radians_per_unit
    return points, angles


def random_particles(rng, n_total, degrees):
    bound = 90.0 if degrees else HALF_PI
    n_up = int(rng.choice([0, n_total, int(rng.integers(0, n_total + 1))]))
    spins = ["up"] * n_up + ["down"] * (n_total - n_up)
    rng.shuffle(spins)
    particles = []
    for spin in spins:
        particle = {"spin": spin, "theta": float(rng.uniform(0.0, bound))}
        if rng.random() < 0.7:
            particle["omega"] = float(rng.uniform(-2.0, 2.0) * bound)
        if rng.random() < 0.3:
            particle["phi"] = float(rng.uniform(0.4, 1.0) * bound)  # leaks
            particle["gamma"] = float(rng.uniform(0.0, 4.0) * bound)
        particles.append(particle)
    return particles


def random_axis(rng, path, degrees):
    bound = 90.0 if degrees else HALF_PI
    high = bound if path.endswith(("theta", "phi")) else 4.0 * bound
    low = 0.3 * bound if path.endswith("phi") else 0.0
    steps = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        return {"path": path, "values": [float(rng.uniform(low, high)) for _ in range(steps)]}
    return {"path": path, "start": float(rng.uniform(low, high)), "stop": float(rng.uniform(low, high)), "steps": steps}


def random_spec(rng, particles, degrees):
    """One to three axes, and the kind of spec they make."""
    blocks = {spin: [i for i, p in enumerate(particles) if p["spin"] == spin] for spin in ("up", "down")}
    kinds = ["one"]
    if len(particles) > 1:
        kinds.append("two particles")
    if blocks["up"] and blocks["down"]:
        kinds += ["both blocks", "three axes, interleaved"]
    kind = str(rng.choice(kinds + ["one angle pair"]))
    angles = list(ANGLES)
    first = int(rng.integers(len(particles)))
    if kind == "one":
        paths = [f"particles[{first}].{rng.choice(angles)}"]
    elif kind == "one angle pair":
        pair = rng.choice(len(angles), 2, replace=False)
        paths = [f"particles[{first}].{angles[k]}" for k in pair]
    elif kind == "both blocks":
        up, down = int(rng.choice(blocks["up"])), int(rng.choice(blocks["down"]))
        paths = [f"particles[{up}].{rng.choice(angles)}", f"particles[{down}].{rng.choice(angles)}"]
    elif kind == "three axes, interleaved":
        # axes 0 and 2 move one block, axis 1 the other
        outer, inner = (blocks["up"], blocks["down"]) if rng.random() < 0.5 else (blocks["down"], blocks["up"])
        (a, b), (x, y) = rng.choice(outer, 2), rng.choice(angles, 2, replace=False)
        paths = [f"particles[{a}].{x}", f"particles[{int(rng.choice(inner))}].{rng.choice(angles)}", f"particles[{b}].{y}"]
    else:
        second = int(rng.choice([i for i in range(len(particles)) if i != first]))
        paths = [f"particles[{first}].{rng.choice(angles)}", f"particles[{second}].{rng.choice(angles)}"]
    return kind, [random_axis(rng, path, degrees) for path in paths]


def test_sweep_rows_match_the_per_row_projection(runner, tmp_path):
    rng = np.random.default_rng(3030)
    tol = DEFAULT_TOLERANCES.comparison
    seen = set()
    specs = 0
    while specs < 320:
        draw = rng.random()
        n_total = int(rng.integers(61, 171)) if draw < 0.03 else int(rng.integers(13, 61)) if draw < 0.15 else int(rng.integers(2, 13))
        degrees = bool(rng.random() < 0.25)
        particles = random_particles(rng, n_total, degrees)
        kind, axes = random_spec(rng, particles, degrees)
        payload = {"particles": particles}
        if degrees:
            payload["degrees"] = True
        measure = MEASURES[specs % 2]
        cfg, sweep = write(tmp_path, "cfg.json", payload), write(tmp_path, "sweep.json", {"axes": axes})
        result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep, "--measure", measure])
        assert result.exit_code == 0, result.output
        config = parse_ensemble_config(json.dumps(payload))
        points, angles = grid_angles(config, axes)
        rows = [[float(v) for v in line.split(",")] for line in result.output.splitlines()[1:]]
        assert len(rows) == len(points)
        for g, row in enumerate(rows):
            _, weights, p, leak = fold._project_batch(config.n_up, *angles[:, g : g + 1])
            want = [*p[0], leak[0], fold._postselected(weights, p, measure)[0]]
            got = row[len(axes):]
            assert max(abs(a - b) for a, b in zip(got, want)) <= tol, (specs, g, payload, axes)
        swept = {config.locate(axis["path"])[0] for axis in axes}
        moved = {"up" if k < config.n_up else "down" for k in swept}
        seen.add(kind)
        seen.add("N > 60" if n_total > 60 else "N <= 60")
        seen.add("a block no axis moves" if len(moved) == 1 and 0 < config.n_up < n_total else "")
        seen.add("both spins first" if particles[0]["spin"] == "down" else "")
        seen.add("phi axis with leak" if any(axis["path"].endswith("phi") for axis in axes) else "")
        seen.add("degrees" if degrees else "")
        specs += 1
    assert seen >= {
        "one", "one angle pair", "two particles", "both blocks", "three axes, interleaved", "N > 60", "N <= 60",
        "a block no axis moves", "both spins first", "phi axis with leak", "degrees",
    }, seen


def test_sweep_bytes_do_not_depend_on_threads(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # one particle per spin block: 16 / 2^2 = 4 rows per chunk, so in the
    # first grid the chunk boundaries at rows 4, 8 and 12 each fall inside
    # a run of 5 rows that share one up-block setting
    monkeypatch.setattr(fold, "CHUNK_ENTRIES", 16)
    leaky = {"particles": [
        {"spin": "down", "theta": 0.9, "omega": 0.4, "phi": 1.1, "gamma": 2.0},
        {"spin": "up", "theta": 0.2, "omega": 1.3},
    ]}
    cases = [
        (leaky, [
            {"path": "particles[1].theta", "values": [0.1, 0.7, 1.4]},
            {"path": "particles[0].omega", "start": 0.0, "stop": 6.0, "steps": 5},
        ]),
        (leaky, [{"path": "particles[0].phi", "start": 0.2, "stop": HALF_PI, "steps": 11}]),
        ({"particles": leaky["particles"] + [{"spin": "up", "theta": 1.1, "phi": 0.8}]}, [
            {"path": "particles[2].theta", "values": [0.1, 0.7, 1.4]},
            {"path": "particles[1].gamma", "values": [0.5, 2.5]},
            {"path": "particles[0].theta", "values": [0.3, 1.2]},
        ]),
    ]
    for config, axes in cases:
        cfg, sweep = write(tmp_path, "cfg.json", config), write(tmp_path, "sweep.json", {"axes": axes})
        for fmt in ("csv", "json"):
            outputs = [
                runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep, "--format", fmt, "--threads", threads])
                for threads in ("1", "2")
            ]
            assert all(result.exit_code == 0 for result in outputs), outputs
            assert outputs[0].stdout_bytes == outputs[1].stdout_bytes


def per_row_error(config, axes, measure):
    """The first failing row of the grid and its message, as per-row
    projections chunk by chunk (:func:`fold.sweep_grid`) report it."""
    points, angles = grid_angles(config, axes)
    with pytest.raises(RowError) as info:
        fold.sweep_grid(config.n_up, *angles, measure)
    row = info.value.row
    named = ", ".join(f"{axis['path']} = {value!r}" for axis, value in zip(axes, points[row]))
    return f"error: grid row {row} ({named}): {info.value}"


def skewed_phases(low, high):
    """``fold._phases`` with the phases of angles in [low, high] off unit
    modulus: their particles fail the single-particle norm check."""
    phases = fold._phases

    def skewed(angles):
        return phases(angles) * np.where((low <= angles) & (angles <= high), 1.001, 1.0)

    return skewed


def vanishing_block(size, cut):
    """``fold._detector_block`` with the (size - 1)-particle blocks whose
    Fock amplitude at a_L = size - 1 lies below ``cut`` zeroed."""
    block = fold._detector_block

    def zeroed(amps):
        if amps.shape[1] == size:
            amps = amps * (np.abs(amps[:, size - 1, 0]) >= cut)[:, None, None]
        return block(amps)

    return zeroed


def leaking_block(cut):
    """``fold._detector_block`` whose one-particle blocks with |c| < cut
    leak 1e-6 more than they hold: sum p + leak misses one."""
    block = fold._detector_block

    def skewed(amps):
        detected_amps, detected, leaked = block(amps)
        if amps.shape[1] == 2:
            leaked = leaked + 1e-6 * (np.abs(amps[:, 1, 0]) < cut)
        return detected_amps, detected, leaked

    return skewed


# one up particle and two down ones (file order: down, up, down), so that the
# up block's Fock arrays are 2 x 2 and the down block's 3 x 3
THREE = {"particles": [
    {"spin": "down", "theta": 0.3, "omega": 0.5},
    {"spin": "up", "theta": 0.4, "omega": 1.0},
    {"spin": "down", "theta": 0.8, "omega": 1.5, "phi": 1.2},
]}
MANY_THETAS = [0.3, 0.5, 1.3, 0.5, 1.4, 0.2]
# the down block of THREE moves with axes 0 and 2, so its settings change
# every row; the up block's runs of four rows cross the chunk boundaries
INTERLEAVED = [
    {"path": "particles[0].theta", "values": [0.3, 1.2]},
    {"path": "particles[1].omega", "values": [0.1, 1.2, 0.3]},
    {"path": "particles[2].theta", "values": [0.3, 0.5, 1.45, 0.4]},
]

#: (what fails, the patch, config, axes)
FAILURES = [
    ("norm of a swept particle", ("_phases", skewed_phases(2.0, 2.5)), THREE, [
        {"path": "particles[2].theta", "values": MANY_THETAS},
        {"path": "particles[1].omega", "values": [0.1, 0.2, 2.2, 0.3]},
    ]),
    ("norm of the down block's swept particle first", ("_phases", skewed_phases(2.0, 2.5)), THREE, [
        {"path": "particles[1].omega", "values": [0.1, 2.2]},
        {"path": "particles[0].omega", "values": [0.1, 0.2, 2.1, 0.3]},
    ]),
    ("norm of both blocks' swept particles in one row", ("_phases", skewed_phases(2.0, 2.5)), THREE, [
        {"path": "particles[0].omega", "values": [0.3, 2.1]},
        {"path": "particles[1].omega", "values": [0.1, 0.2, 0.4, 2.2]},
    ]),
    ("norm of a fixed particle, a swept one first", ("_phases", skewed_phases(2.0, 2.5)), {"particles": [
        {"spin": "up", "theta": 0.4, "omega": 1.0},
        {"spin": "up", "theta": 0.9, "omega": 2.3},
        {"spin": "down", "theta": 0.8},
    ]}, [{"path": "particles[0].omega", "values": [2.2, 0.3]}]),
    ("vanishing up block", ("_detector_block", vanishing_block(2, math.cos(1.0))), THREE, [
        {"path": "particles[2].theta", "values": MANY_THETAS},
        {"path": "particles[1].theta", "values": [0.1, 1.2, 0.3, 1.5]},
    ]),
    ("vanishing down block", ("_detector_block", vanishing_block(3, 0.05)), THREE, [
        {"path": "particles[1].theta", "values": [0.1, 1.2, 0.3]},
        {"path": "particles[2].theta", "values": [0.3, 1.55, 0.5, 1.56]},
    ]),
    ("vanishing down block, moved by axes 0 and 2", ("_detector_block", vanishing_block(3, 0.1)), THREE, INTERLEAVED),
    ("vanishing block no axis moves, after a norm failure", ("_detector_block", vanishing_block(2, 1.0)), THREE, [
        {"path": "particles[2].omega", "values": [0.1, 0.2, 2.2]},
    ]),
    ("sum p + leak", ("_detector_block", leaking_block(math.cos(1.0))), THREE, [
        {"path": "particles[2].theta", "values": MANY_THETAS},
        {"path": "particles[1].theta", "values": [0.1, 0.3, 1.2]},
    ]),
]


@pytest.mark.parametrize("what, patch, config, axes", FAILURES, ids=[case[0] for case in FAILURES])
def test_each_check_names_the_first_failing_row_as_the_per_row_route(runner, tmp_path, monkeypatch, what, patch, config, axes):
    # three rows per chunk, so that the grids cross chunk boundaries
    monkeypatch.setattr(fold, "CHUNK_ENTRIES", 27)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(fold, *patch)
    if what.endswith("after a norm failure"):
        monkeypatch.setattr(fold, "_phases", skewed_phases(2.0, 2.5))
    cfg, sweep = write(tmp_path, "cfg.json", config), write(tmp_path, "sweep.json", {"axes": axes})
    expected = per_row_error(parse_ensemble_config(json.dumps(config)), axes, "entropy")
    out = tmp_path / "out.csv"
    for threads in ("1", "2"):
        result = runner.invoke(main, [
            "sweep", "--config", cfg, "--sweep", sweep, "--measure", "entropy", "--threads", threads, "--output", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert result.output == expected + "\n"
        assert not out.exists()


def test_only_a_failing_chunk_runs_again_row_by_row(runner, tmp_path, monkeypatch):
    # three rows per chunk: the down block of THREE holds two particles
    monkeypatch.setattr(fold, "CHUNK_ENTRIES", 27)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sweep_grid, calls = fold.sweep_grid, []

    def counted(n_up, theta, omega, *rest):
        calls.append(omega[:, 2].tolist())
        return sweep_grid(n_up, theta, omega, *rest)

    monkeypatch.setattr(fold, "sweep_grid", counted)
    cfg = write(tmp_path, "cfg.json", THREE)
    one = write(tmp_path, "one.json", {"axes": [
        {"path": "particles[2].omega", "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 2.2, 0.8]},
    ]})
    interleaved = write(tmp_path, "interleaved.json", {"axes": INTERLEAVED})
    for sweep in (one, interleaved):
        for threads in ("1", "2"):
            result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep, "--threads", threads])
            assert result.exit_code == 0, result.output
    assert calls == []
    # the particle at omega = 2.2 fails its norm check in row 7, the third chunk's second row
    monkeypatch.setattr(fold, "_phases", skewed_phases(2.0, 2.5))
    for threads in ("1", "2"):
        calls.clear()
        result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", one, "--threads", threads])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: grid row 7 (particles[2].omega = 2.2): ")
        assert calls == [[0.7, 2.2, 0.8]]
