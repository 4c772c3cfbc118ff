"""Command-line interface.

Subcommands: ``amplitude`` (transition amplitude between two configured
states), ``project`` (detector projection with sector entanglement),
``sweep`` (parameter grids streamed as CSV), ``schmidt`` (mode-splitting
equivalence report), ``verify`` (randomized verification suites) and
``echo-config`` (canonical serialization of a config).

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
Commands raise IdentangleError for a bad input, and the subcommand class
:class:`_Command` alone reports it: one ``error:`` line, exit 2.  The
environment variable ``IDENTANGLE_TOL`` overrides the default comparison
tolerance.  Every subcommand rejects an invalid value, but only ``verify``
uses it, for the one threshold every suite counts failures against; every
other output is the same for any valid value.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import click
import numpy as np

from .config import (
    EnsembleConfig,
    SweepAxis,
    dump_ensemble_config,
    parse_ensemble_config,
    parse_sweep_spec,
)
from .errors import ConfigError, ConsistencyError, IdentangleError, RowError
from .fold import _postselected, _project_batch, _sector_walk, fermion_amplitude, fold_amplitude, sweep_grid
from .measures import verify_schmidt_equivalence
from .states import Statistics, _odd_inversions
from .tolerances import comparison_from_env
from .verify import DEFAULT_SEED, SUITES, run_suite


def _fail_usage(message: str):
    # not click.echo: it caches every stream it writes to and never frees it
    sys.stderr.write(f"error: {message}\n")
    sys.exit(2)


class _Command(click.Command):
    """A subcommand that reports any IdentangleError, an invalid
    ``IDENTANGLE_TOL`` included, as a usage error (:func:`_fail_usage`);
    click answers ``--help`` before ``invoke`` runs."""

    def invoke(self, ctx: click.Context):
        try:
            comparison_from_env()
            return super().invoke(ctx)
        except IdentangleError as exc:
            _fail_usage(str(exc))


def _read_input(what: str, path: str, parse):
    """``parse`` of the text of the input file ``path``; an unreadable
    file or a parse error raises ConfigError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    try:
        return parse(text)
    except IdentangleError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _require_bosons(config: EnsembleConfig):
    if config.statistics is not Statistics.BOSON:
        raise ConfigError("detector projection is defined for bosonic ensembles only")


def _output_stream(output: str):
    """The stream ``--output`` names, as a context manager that leaves stdout open."""
    if output == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(output, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output {output}: {exc}") from None


def _write_output(text: str, output: str):
    with _output_stream(output) as stream:
        stream.write(text + "\n")


@click.group()
def main():
    """Identical-particle entanglement toolkit."""


main.command_class = _Command


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Ket-side ensemble config (JSON).")
@click.option("--bra-config", "bra_path", required=True, type=click.Path(), help="Bra-side ensemble config (JSON).")
@click.option("--output", default="-", show_default=True)
def amplitude(config_path: str, bra_path: str, output: str):
    """Transition amplitude between two configured product states."""
    ket_config = _read_input("config", config_path, parse_ensemble_config)
    bra_config = _read_input("config", bra_path, parse_ensemble_config)
    if ket_config.n_total != bra_config.n_total:
        raise ConfigError(
            f"particle number mismatch: ket has {ket_config.n_total}, "
            f"bra has {bra_config.n_total}"
        )
    if ket_config.statistics is not bra_config.statistics:
        raise ConfigError("bra and ket configs disagree on statistics")
    boson = ket_config.statistics is Statistics.BOSON
    # (4, 2, N): row 0 of each angle the bra's, row 1 the ket's
    angles = np.array([bra_config.angles(), ket_config.angles()]).swapaxes(0, 1)
    fold = fold_amplitude if boson else fermion_amplitude
    value = fold(bra_config.n_up, ket_config.n_up, *angles)
    if not boson:
        # stored spin-up first: each side's reordering flips a fermion state by its sign
        flips = _odd_inversions(np.array([bra_config.source_order, ket_config.source_order]))
        if flips[0] != flips[1]:
            value = -value
    record = {
        "amplitude": {"re": value.real, "im": value.imag},
        # "ryser" names the permanent kernel that once computed boson values;
        # it stays so that the record keeps its format
        "method": "ryser" if boson else "determinant",
        "statistics": ket_config.statistics.value,
        "n_particles": ket_config.n_total,
    }
    _write_output(json.dumps(record, indent=2), output)


#: the labels of an outcome key, L-up, L-down, R-up and R-down, each as
#: json.dumps(record, indent=2) renders it inside a "key" list, plus ",\n"
_KEY_LABELS = tuple(
    f'            [\n              "{side}",\n              "{spin}"\n            ],\n'
    for side in ("L", "R")
    for spin in ("up", "down")
)


def _sector_json(
    q: int, probability: float, state: List[Tuple[int, complex]], n_up: int, n_down: int
) -> str:
    """JSON text of sector q in the ``project`` record, from its state
    (:func:`fold._sector_walk`) with alpha descending, each key
    rendered from its four label counts.  The fold's checks admit only
    finite values, whose repr is their JSON.
    """
    entries = []
    for alpha, value in reversed(state):
        counts = (alpha, q - alpha, n_up - alpha, n_down - q + alpha)
        labels = "".join(label * count for label, count in zip(_KEY_LABELS, counts))
        entries.append(
            f'        {{\n          "key": [\n{labels[:-2]}\n          ],\n'
            f'          "re": {value.real!r},\n          "im": {value.imag!r}\n        }}'
        )
    amplitudes = ",\n".join(entries)
    return (
        f'    {{\n      "q": {q},\n      "p": {probability!r},\n'
        f'      "amplitudes": [\n{amplitudes}\n      ]\n    }}'
    )


def _project_json(config: EnsembleConfig) -> str:
    """The ``project`` record as json.dumps(record, indent=2) renders it,
    from one fold (:func:`fold._project_batch`): sectors q descending,
    the leak and both postselected measures."""
    _require_bosons(config)
    n_up = config.n_up
    outcomes, by_sector, p, leak = _project_batch(n_up, *config.angles()[:, None])
    sectors = [
        _sector_json(q, probability, state, n_up, config.n_total - n_up)
        for q, probability, state in _sector_walk(outcomes[0], p[0])
    ]
    record = {
        "n_particles": config.n_total,
        "n_up": n_up,
        "source_order": list(config.source_order),
        "sectors": None,  # replaced by the rendered sectors
        "leak": float(leak[0]),
        "entanglement": {
            measure: float(_postselected(by_sector, p, measure)[0])
            for measure in ("entropy", "concurrence")
        },
    }
    sectors_json = "[\n" + ",\n".join(sectors) + "\n  ]" if sectors else "[]"
    return json.dumps(record, indent=2).replace(
        '"sectors": null', '"sectors": ' + sectors_json, 1
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--output", default="-", show_default=True)
def project(config_path: str, output: str):
    """Project the configured ensemble onto the detectors and report the
    sector decomposition plus both entanglement averages."""
    config = _read_input("config", config_path, parse_ensemble_config)
    _write_output(_project_json(config), output)


#: complex entries in one fold array of a sweep chunk: G * (n + 1)^2 for
#: the larger spin block.  The chunk size follows from this and the block
#: sizes alone, so rows do not depend on --threads.
SWEEP_CHUNK_ENTRIES = 1 << 16


def _sweep_chunk(
    bounds: Tuple[int, int],
    config: EnsembleConfig,
    axes: List[SweepAxis],
    measure: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid rows [start, stop) as (axis values, p, leak, entanglement) arrays.

    A failed consistency check names the first failing row and its axis
    values.
    """
    start, stop = bounds
    index = np.unravel_index(np.arange(start, stop), [len(axis.values) for axis in axes])
    values = np.column_stack([axis.values[i] for axis, i in zip(axes, index)])
    angles = np.repeat(config.angles()[:, None], stop - start, axis=1)
    for column, axis in enumerate(axes):
        angles[axis.row, :, axis.particle] = values[:, column]
    try:
        p, leak, entanglement = sweep_grid(config.n_up, *angles, measure)
    except RowError as exc:
        point = ", ".join(
            f"{axis.path} = {value!r}"
            for axis, value in zip(axes, values[exc.row].tolist())
        )
        raise ConsistencyError(f"grid row {start + exc.row} ({point}): {exc}") from None
    return values, p, leak, entanglement


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--sweep", "sweep_path", required=True, type=click.Path(), help="Sweep spec (JSON).")
@click.option("--measure", type=click.Choice(["entropy", "concurrence"]), default="concurrence", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--output", default="-", show_default=True)
def sweep(config_path, sweep_path, measure, fmt, threads, output):
    """Evaluate the projection over a parameter grid.

    The grid is evaluated in chunks of rows as numpy arrays
    (:func:`fold.sweep_grid`); with --threads above one, up to that
    many threads (never more than there are chunks) evaluate chunks side by
    side.  Every chunk is evaluated before anything is written, so a failing
    grid row writes no output.  Rows follow the lexicographic grid order of
    the sweep axes and are identical for any thread count.
    """
    config = _read_input("config", config_path, parse_ensemble_config)
    _require_bosons(config)
    axes = _read_input("sweep spec", sweep_path, functools.partial(parse_sweep_spec, config=config))
    if threads < 1:
        raise ConfigError("--threads must be >= 1")

    paths = [axis.path for axis in axes]
    size = math.prod(len(axis.values) for axis in axes)
    n = config.n_total
    block = max(config.n_up, n - config.n_up) + 1
    chunk = max(1, SWEEP_CHUNK_ENTRIES // block ** 2)
    bounds = [(start, min(start + chunk, size)) for start in range(0, size, chunk)]
    evaluate = functools.partial(
        _sweep_chunk, config=config, axes=axes, measure=measure
    )
    workers = min(threads, len(bounds))
    if workers == 1:
        results = [evaluate(b) for b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, bounds))

    if fmt == "json":
        records = [
            {
                "parameters": dict(zip(paths, point)),
                "p": {str(q): value for q, value in enumerate(probs) if value != 0.0},
                "leak": leak,
                "entanglement": ent,
            }
            for values, p, leaks, ents in results
            for point, probs, leak, ent in zip(
                values.tolist(), p.tolist(), leaks.tolist(), ents.tolist()
            )
        ]
        _write_output(json.dumps(records, indent=2), output)
        return

    header = paths + [f"p_{q}" for q in range(n + 1)] + ["leak", "entanglement"]
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with _output_stream(output) as stream:
        stream.write(",".join(header) + "\n")
        for values, p, leak, ent in results:
            rows = np.column_stack([values, p, leak, ent]).tolist()
            stream.write("".join(row_format % tuple(row) for row in rows))


@main.command()
@click.option("--n-total", type=int, required=True, help="Total particle number.")
@click.option("--n-up", type=int, required=True, help="Spin-up particle count.")
@click.option("--theta", default="0.7853981633974483", show_default=True,
              help="Scalar or comma-separated list of mixing angles.")
@click.option("--omega", default="0.0", show_default=True,
              help="Scalar or comma-separated list of phases.")
@click.option("--split", required=True, help="Local particle numbers, e.g. 2,1.")
@click.option("--output", default="-", show_default=True)
def schmidt(n_total, n_up, theta, omega, split, output):
    """Compare label-group Schmidt coefficients with the mode-split ones."""
    try:
        n_left, n_right = map(int, split.split(","))
    except ValueError:  # a part that is no integer, or not two parts
        raise ConfigError(f"--split must be two comma-separated integers, got {split!r}") from None
    report = verify_schmidt_equivalence(
        n_total,
        n_up,
        _parse_angles(theta),
        _parse_angles(omega),
        (n_left, n_right),
    )
    record = {
        "input_coeffs": list(report.input_coefficients),
        "output_coeffs": list(report.output_coefficients),
        "max_abs_diff": report.max_abs_diff,
        "sector_probability": report.sector_probability,
    }
    _write_output(json.dumps(record, indent=2), output)


def _parse_angles(text: str):
    """Scalar or list of angles; every comma-separated part must be a float."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad angle list {text!r}") from None
    return values[0] if len(values) == 1 else values


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--cases", type=int, default=None, help="Override the suite's sample count (not for schmidt).")
@click.option("--output", default="-", show_default=True)
def verify(suite: str, seed: int, cases: Optional[int], output: str):
    """Run a named verification suite; exits 1 on any failure."""
    report = run_suite(suite, seed=seed, cases=cases)
    _write_output(json.dumps(report, indent=2), output)
    if report["failures"]:
        sys.exit(1)


@main.command("echo-config")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--output", default="-", show_default=True)
def echo_config(config_path: str, output: str):
    """Parse a config and emit its canonical serialization (round-trip aid)."""
    config = _read_input("config", config_path, parse_ensemble_config)
    _write_output(dump_ensemble_config(config), output)


if __name__ == "__main__":
    main()
