"""Command-line interface.

Subcommands: ``amplitude`` (transition amplitude between two configured
states), ``project`` (detector projection with sector entanglement),
``sweep`` (parameter grids streamed as CSV), ``schmidt`` (mode-splitting
equivalence report), ``verify`` (randomized verification suites) and
``echo-config`` (canonical serialization of a config).

Each subcommand is a plain function whose options :data:`COMMANDS`
lists; :func:`main` parses the arguments against that table.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
A bad argument or input raises IdentangleError, and :func:`main` alone
reports it: one ``error:`` line, exit 2.  The environment variable
``IDENTANGLE_TOL`` overrides the default comparison tolerance.  Every
subcommand rejects an invalid value, but only ``verify`` uses it, for the
one threshold every suite counts failures against; every other output is
the same for any valid value.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import ConfigError, ConsistencyError, IdentangleError, RowError
from .tolerances import comparison_from_env

if TYPE_CHECKING:
    import numpy as np

    from .config import EnsembleConfig, SweepAxis

# Each command imports what it runs, so that --help and a usage error
# load no numpy, and project, sweep and amplitude no oracle, measure or
# object-model module.  The option table therefore holds these values as
# literals; tests pin them to fold.MEASURES, verify.SUITES and
# verify.DEFAULT_SEED.
MEASURES = ("entropy", "concurrence")
SUITE_NAMES = ("n2-closed-form", "n3-closed-form", "oracle", "schmidt", "theorem1")
DEFAULT_SEED = 7


def _fail_usage(message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(2)


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
    from .states import Statistics

    if config.statistics is not Statistics.BOSON:
        raise ConfigError("detector projection is defined for bosonic ensembles only")


def _discard_stdout():
    """Point stdout at devnull, so that the flush at exit does not fail
    again on what is still buffered."""
    if sys.stdout is sys.__stdout__:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@contextlib.contextmanager
def _output_stream(output: str):
    """The stream ``--output`` names, flushed at the end; stdout stays open.

    An OSError from opening, writing or flushing raises ConfigError naming
    the output, except a BrokenPipeError, which :func:`main` handles.
    """
    try:
        with contextlib.nullcontext(sys.stdout) if output == "-" else open(output, "w", encoding="utf-8") as stream:
            yield stream
            stream.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        if output == "-":
            _discard_stdout()
        raise ConfigError(f"cannot write output {'stdout' if output == '-' else output}: {exc}") from None


def _write_output(text: str, output: str):
    with _output_stream(output) as stream:
        stream.write(text + "\n")


def amplitude(config_path: str, bra_path: str, output: str):
    """Transition amplitude between two configured product states."""
    import numpy as np

    from .config import parse_ensemble_config
    from .fold import fermion_amplitude, fold_amplitude
    from .states import Statistics, _odd_inversions

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
        # stored spin-up first: each side's reordering flips a fermion state by
        # its sign; an exact zero stays 0.0, whatever the file order
        flips = _odd_inversions(np.array([bra_config.source_order, ket_config.source_order]))
        if flips[0] != flips[1] and value != 0:
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
    from .fold import _postselected, _project_batch, _sector_walk

    _require_bosons(config)
    n_up = config.n_up
    outcomes, weights, p, leak = _project_batch(n_up, *config.angles()[:, None])
    sectors = [
        _sector_json(q, probability, state, n_up, config.n_total - n_up)
        for q, probability, state in _sector_walk(outcomes[0], weights[0], p[0])
    ]
    record = {
        "n_particles": config.n_total,
        "n_up": n_up,
        "source_order": list(config.source_order),
        "sectors": None,  # replaced by the rendered sectors
        "leak": float(leak[0]),
        "entanglement": {
            measure: float(_postselected(weights, p, measure)[0])
            for measure in MEASURES
        },
    }
    sectors_json = "[\n" + ",\n".join(sectors) + "\n  ]" if sectors else "[]"
    return json.dumps(record, indent=2).replace(
        '"sectors": null', '"sectors": ' + sectors_json, 1
    )


def project(config_path: str, output: str):
    """Project the configured ensemble onto the detectors and report the
    sector decomposition plus both entanglement averages."""
    from .config import parse_ensemble_config

    config = _read_input("config", config_path, parse_ensemble_config)
    _write_output(_project_json(config), output)


def _sweep_chunk(
    rows: slice,
    config: EnsembleConfig,
    axes: List[SweepAxis],
    measure: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid rows ``rows`` as (axis values, p, leak, entanglement) arrays.

    A failed consistency check names the first failing row and its axis
    values.
    """
    import numpy as np

    from .fold import sweep_grid

    index = np.unravel_index(np.arange(rows.start, rows.stop), [len(axis.values) for axis in axes])
    values = np.column_stack([axis.values[i] for axis, i in zip(axes, index)])
    angles = np.repeat(config.angles()[:, None], len(values), axis=1)
    for column, axis in enumerate(axes):
        angles[axis.row, :, axis.particle] = values[:, column]
    try:
        p, leak, entanglement = sweep_grid(config.n_up, *angles, measure)
    except RowError as exc:
        point = ", ".join(
            f"{axis.path} = {value!r}"
            for axis, value in zip(axes, values[exc.row].tolist())
        )
        raise ConsistencyError(f"grid row {rows.start + exc.row} ({point}): {exc}") from None
    return values, p, leak, entanglement


def sweep(config_path, sweep_path, measure, fmt, threads, output):
    """Evaluate the projection over a parameter grid.

    The grid is evaluated in the chunks of rows of :func:`fold.fold_chunks`,
    each as numpy arrays (:func:`fold.sweep_grid`); with --threads above
    one, up to that many threads (never more than there are chunks or
    CPUs) evaluate chunks side by side.  Every chunk is evaluated before
    anything is written, so a failing grid row writes no output.  Rows
    follow the lexicographic grid order of the sweep axes and are
    identical for any thread count.
    """
    import numpy as np

    from .config import parse_ensemble_config, parse_sweep_spec
    from .fold import fold_chunks

    config = _read_input("config", config_path, parse_ensemble_config)
    _require_bosons(config)
    axes = _read_input("sweep spec", sweep_path, functools.partial(parse_sweep_spec, config=config))
    if threads < 1:
        raise ConfigError("--threads must be >= 1")

    paths = [axis.path for axis in axes]
    n = config.n_total
    chunks = fold_chunks(config.n_up, n, math.prod(len(axis.values) for axis in axes))
    evaluate = functools.partial(
        _sweep_chunk, config=config, axes=axes, measure=measure
    )
    # pool.map submits every chunk, and each submission may start a thread
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers == 1:
        results = [evaluate(rows) for rows in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, chunks))

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


def schmidt(n_total, n_up, theta, omega, split, output):
    """Compare label-group Schmidt coefficients with the mode-split ones."""
    from .measures import verify_schmidt_equivalence

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


def verify(suite: str, seed: int, cases: Optional[int], output: str):
    """Run a named verification suite; exits 1 on any failure."""
    from .verify import run_suite

    report = run_suite(suite, seed=seed, cases=cases)
    _write_output(json.dumps(report, indent=2), output)
    if report["failures"]:
        sys.exit(1)


def echo_config(config_path: str, output: str):
    """Parse a config and emit its canonical serialization (round-trip aid)."""
    from .config import dump_ensemble_config, parse_ensemble_config

    config = _read_input("config", config_path, parse_ensemble_config)
    _write_output(dump_ensemble_config(config), output)


#: the default of an argument that must be given
REQUIRED = object()


class Option(NamedTuple):
    """One argument of a command: ``flag`` is ``--name`` for an option
    and the metavar of a positional argument otherwise; ``convert`` is
    ``str``, ``int`` or the tuple of accepted values."""

    flag: str
    param: str
    convert: Union[type, Tuple[str, ...]]
    default: object
    help: str


_OUTPUT = Option("--output", "output", str, "-", "Output file; - for stdout.")

#: command name -> (function, its arguments)
COMMANDS = {
    "amplitude": (amplitude, (
        Option("--config", "config_path", str, REQUIRED, "Ket-side ensemble config (JSON)."),
        Option("--bra-config", "bra_path", str, REQUIRED, "Bra-side ensemble config (JSON)."),
        _OUTPUT,
    )),
    "project": (project, (
        Option("--config", "config_path", str, REQUIRED, "Ensemble config (JSON)."),
        _OUTPUT,
    )),
    "sweep": (sweep, (
        Option("--config", "config_path", str, REQUIRED, "Ensemble config (JSON)."),
        Option("--sweep", "sweep_path", str, REQUIRED, "Sweep spec (JSON)."),
        Option("--measure", "measure", MEASURES, "concurrence", "Entanglement measure."),
        Option("--format", "fmt", ("csv", "json"), "csv", "Output format."),
        Option("--threads", "threads", int, 1, "Threads that evaluate grid chunks (at most one per CPU)."),
        _OUTPUT,
    )),
    "schmidt": (schmidt, (
        Option("--n-total", "n_total", int, REQUIRED, "Total particle number."),
        Option("--n-up", "n_up", int, REQUIRED, "Spin-up particle count."),
        Option("--theta", "theta", str, "0.7853981633974483", "Scalar or comma-separated list of mixing angles."),
        Option("--omega", "omega", str, "0.0", "Scalar or comma-separated list of phases."),
        Option("--split", "split", str, REQUIRED, "Local particle numbers, e.g. 2,1."),
        _OUTPUT,
    )),
    "verify": (verify, (
        Option("SUITE", "suite", SUITE_NAMES, REQUIRED, "The suite to run."),
        Option("--seed", "seed", int, DEFAULT_SEED, "Seed of the suite's random draws."),
        Option("--cases", "cases", int, None, "Override the suite's sample count (not for schmidt)."),
        _OUTPUT,
    )),
    "echo-config": (echo_config, (
        Option("--config", "config_path", str, REQUIRED, "Ensemble config (JSON)."),
        _OUTPUT,
    )),
}


def _convert(name: str, option: Option, text: str):
    if option.convert is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{name}: {option.flag} must be an integer, got {text!r}") from None
    if option.convert is not str and text not in option.convert:
        raise ConfigError(f"{name}: {option.flag} must be one of {', '.join(option.convert)}, got {text!r}")
    return text


def _parse(name: str, args: Sequence[str]) -> Optional[dict]:
    """The keyword arguments of command ``name`` from its arguments, or
    None when they ask for ``--help``.  ``--flag value`` takes the next
    argument as it is, ``-3`` or ``--help`` included; ``--flag=value``
    works too, and a repeated option keeps its last value.  A bad
    argument raises ConfigError."""
    options = COMMANDS[name][1]
    flags = {option.flag: option for option in options if option.flag.startswith("--")}
    positional = [option for option in options if not option.flag.startswith("--")]
    given = {}
    tokens = iter(args)
    for token in tokens:
        if token == "--help":
            return None
        if token.startswith("-") and token != "-":
            flag, has_value, value = token.partition("=")
            if flag not in flags:
                raise ConfigError(f"{name}: no such option {flag}")
            if not has_value:
                value = next(tokens, None)
                if value is None:
                    raise ConfigError(f"{name}: {flag} needs a value")
            given[flags[flag].param] = value
        elif positional:
            given[positional.pop(0).param] = token
        else:
            raise ConfigError(f"{name}: unexpected argument {token!r}")
    kwargs = {}
    for option in options:
        if option.param in given:
            kwargs[option.param] = _convert(name, option, given[option.param])
        elif option.default is REQUIRED:
            raise ConfigError(f"{name}: missing {option.flag}")
        else:
            kwargs[option.param] = option.default
    return kwargs


def _help(prog_name: str, name: Optional[str] = None) -> str:
    """Help text of command ``name``, or of the program for None."""
    import inspect

    if name is None:
        usage, doc, heading = f"{prog_name} COMMAND [OPTIONS]", main.__doc__, "Commands"
        rows = [
            (command, " ".join(function.__doc__.split("\n\n")[0].split()))
            for command, (function, _) in COMMANDS.items()
        ]
    else:
        function, options = COMMANDS[name]
        positional = "".join(f" {option.flag}" for option in options if not option.flag.startswith("--"))
        usage, doc, heading = f"{prog_name} {name}{positional} [OPTIONS]", function.__doc__, "Options"
        rows = []
        for option in options:
            kind = {int: "INTEGER", str: "TEXT"}.get(option.convert) or "[" + "|".join(option.convert) + "]"
            if option.default is REQUIRED:
                note = "[required]"
            else:
                note = "" if option.default is None else f"[default: {option.default}]"
            rows.append((option.flag, "  ".join(filter(None, (kind, option.help, note)))))
    width = max(len(left) for left, _ in rows)
    lines = [f"Usage: {usage}", "", inspect.cleandoc(doc), "", f"{heading}:"]
    lines += [f"  {left.ljust(width)}  {right}" for left, right in rows]
    return "\n".join(lines)


def main(args: Optional[Sequence[str]] = None, prog_name: str = "identangle"):
    """Identical-particle entanglement toolkit."""
    # --help first, before IDENTANGLE_TOL is read; then parse, check the
    # tolerance and run, each step reporting IdentangleError as a usage error
    args = sys.argv[1:] if args is None else list(args)
    try:
        if args[:1] == ["--help"]:
            _write_output(_help(prog_name), "-")
            return
        if not args or args[0] not in COMMANDS:
            what = f"no such command {args[0]!r}" if args else "missing command"
            raise ConfigError(f"{what}; expected one of {', '.join(COMMANDS)}")
        kwargs = _parse(args[0], args[1:])
        if kwargs is None:
            _write_output(_help(prog_name, args[0]), "-")
            return
        comparison_from_env()
        COMMANDS[args[0]][0](**kwargs)
    except IdentangleError as exc:
        _fail_usage(str(exc))
    except BrokenPipeError:
        # the reader of stdout left early
        _discard_stdout()
        sys.exit(1)
    except KeyboardInterrupt:
        sys.stderr.write("Aborted!\n")
        sys.exit(1)


if __name__ == "__main__":
    main()
