"""Command-line interface.

Subcommands: ``amplitude`` (transition amplitude between two configured
states), ``project`` (detector projection with sector entanglement),
``sweep`` (parameter grids streamed as CSV or JSON), ``schmidt``
(mode-splitting equivalence report), ``verify`` (randomized verification
suites) and ``echo-config`` (canonical serialization of a config).

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
from typing import TYPE_CHECKING, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    _write_pieces((text,), output)


def _write_pieces(pieces: Iterable[str], output: str):
    """Write each of the pieces as it is taken, then a newline, to the
    stream ``--output`` names (:func:`_output_stream`)."""
    with _output_stream(output) as stream:
        for piece in pieces:
            stream.write(piece)
        stream.write("\n")


def _float_json(value: float) -> str:
    """``value`` as json.dumps renders it: its repr when finite."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


def amplitude(config_path: str, bra_path: str, output: str):
    """Transition amplitude between two configured product states."""
    import numpy as np

    from .config import parse_ensemble_config, stacked_angles
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
    angles = stacked_angles([bra_config, ket_config])
    fold = fold_amplitude if boson else fermion_amplitude
    value = fold(bra_config.n_up, ket_config.n_up, *angles)
    if not boson:
        # stored spin-up first: each side's reordering flips a fermion state by
        # its sign; an exact zero stays 0.0, whatever the file order
        flips = _odd_inversions(np.array([bra_config.source_order, ket_config.source_order]))
        if flips[0] != flips[1] and value != 0:
            value = -value
    # the record as json.dumps(record, indent=2) renders it; "ryser" names the
    # permanent kernel that once computed boson values, and stays so that the
    # record keeps its format
    _write_output(
        f'{{\n  "amplitude": {{\n    "re": {_float_json(value.real)},\n    "im": {_float_json(value.imag)}\n  }},\n'
        f'  "method": "{"ryser" if boson else "determinant"}",\n'
        f'  "statistics": "{ket_config.statistics.value}",\n  "n_particles": {ket_config.n_total}\n}}',
        output,
    )


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


def _project_json(config: EnsembleConfig) -> Iterator[str]:
    """The ``project`` record as json.dumps(record, indent=2) renders it,
    in pieces rendered from templates as they are taken: sectors q
    descending, the leak and both postselected measures.  The fold
    (:func:`fold._project_batch`), :func:`fold._sector_walk` and both
    averages, with every check they make, run when this is called; only the
    rendering waits, a sector at a time."""
    from .fold import _postselected, _project_batch, _sector_walk

    _require_bosons(config)
    n_up = config.n_up
    outcomes, weights, p, leak = _project_batch(n_up, *config.angles()[:, None])
    sectors = _sector_walk(outcomes[0], weights[0], p[0])
    source_order = ",\n".join(f"    {index}" for index in config.source_order)
    entanglement = ",\n".join(
        f'    "{measure}": {_float_json(float(_postselected(weights, p, measure)[0]))}'
        for measure in MEASURES
    )

    def pieces():
        yield (
            f'{{\n  "n_particles": {config.n_total},\n  "n_up": {n_up},\n'
            f'  "source_order": [\n{source_order}\n  ],\n  "sectors": '
        )
        for count, (q, probability, state) in enumerate(sectors):
            yield ",\n" if count else "[\n"
            yield _sector_json(q, probability, state, n_up, config.n_total - n_up)
        yield (
            ("\n  ]" if sectors else "[]")
            + f',\n  "leak": {_float_json(float(leak[0]))},\n  "entanglement": {{\n{entanglement}\n  }}\n}}'
        )

    return pieces()


def project(config_path: str, output: str):
    """Project the configured ensemble onto the detectors and report the
    sector decomposition plus both entanglement averages."""
    from .config import parse_ensemble_config

    config = _read_input("config", config_path, parse_ensemble_config)
    _write_pieces(_project_json(config), output)


def _sweep_chunk(
    rows: slice, grid, axes: List[SweepAxis], measure: str
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The grid rows ``rows`` of ``grid`` (:class:`fold.GridSweep`) as
    (each axis's value index, p, leak, entanglement) arrays.

    A failed consistency check names the first failing row and its axis
    values.
    """
    import numpy as np

    index = np.unravel_index(np.arange(rows.start, rows.stop), [len(axis.values) for axis in axes])
    try:
        return (index, *grid.rows(rows.start, rows.stop, measure))
    except RowError as exc:
        point = ", ".join(f"{axis.path} = {axis.values[i[exc.row]].item()!r}" for axis, i in zip(axes, index))
        raise ConsistencyError(f"grid row {rows.start + exc.row} ({point}): {exc}") from None


def _row_texts(
    values: List[np.ndarray], index: Sequence[np.ndarray], keys: Sequence[str], render, sep: str
) -> List[str]:
    """Each row's axis text: for every axis a, ``keys[a]`` and the
    ``render`` of the row's value ``values[a][index[a]]``, joined by
    ``sep``.  Each axis value the rows hold is rendered once, so there are
    never more texts than rows."""
    parts = []
    for axis, key, i in zip(values, keys, index):
        low = int(i.min())
        texts = [key + render(value) for value in axis[low : int(i.max()) + 1].tolist()]
        parts.append(map(texts.__getitem__, (i - low).tolist()))
    return list(parts[0]) if len(parts) == 1 else list(map(sep.join, zip(*parts)))


def _sweep_json(paths: List[str], values: List[np.ndarray], results) -> Iterator[str]:
    """The sweep records as json.dumps(records, indent=2) renders them, a
    chunk's records at a time.

    A record lists the axis values, the nonzero p_q keyed by q, the leak
    and the entanglement of one grid row, in the order of ``results``
    (:func:`_sweep_chunk` chunks, each row's value on axis a being
    ``values[a][index]``), each rendered from a template: a value's JSON
    is its repr when finite, json.dumps otherwise.  Each chunk renders each
    axis value it holds once (:func:`_row_texts`).
    """
    import numpy as np

    keys = [json.dumps(path) + ": " for path in paths]
    yield "["
    for count, (index, p, leak, ent) in enumerate(results):
        table = np.column_stack([p, leak, ent])
        text = repr if np.isfinite(table).all() else _float_json
        texts = _row_texts(values, index, keys, _float_json, ",\n      ")
        records = []
        for parameters, row in zip(texts, table.tolist()):
            probs = ",\n      ".join(
                [f'"{q}": {text(value)}' for q, value in enumerate(row[:-2]) if value != 0.0]
            )
            records.append(
                f'  {{\n    "parameters": {{\n      {parameters}\n    }},\n    "p": '
                + (f"{{\n      {probs}\n    }}" if probs else "{}")
                + f',\n    "leak": {text(row[-2])},\n    "entanglement": {text(row[-1])}\n  }}'
            )
        yield (",\n" if count else "\n") + ",\n".join(records)
    yield "\n]"


def sweep(config_path, sweep_path, measure, fmt, threads, output):
    """Evaluate the projection over a parameter grid.

    The grid is evaluated as one :class:`fold.GridSweep`: each spin block's
    fixed particles are folded once per sweep, and each chunk of rows
    (:func:`fold.fold_chunks`) continues a block's fold once per distinct
    setting of the axes that move it.  A chunk whose settings fail a check
    is evaluated again, row by row, by :func:`fold.sweep_grid`, which
    names the first failing row.  With --threads above one, up to that
    many threads (never more than there are chunks or CPUs) evaluate
    chunks side by side.  Every chunk is evaluated before anything is
    written, so a failing grid row writes no output; the CSV rows or JSON
    records are then rendered and written a chunk at a time.  Rows follow
    the lexicographic grid order of the sweep axes and are identical for
    any thread count; each chunk formats each axis value it holds once.
    """
    import numpy as np

    from .config import parse_ensemble_config, parse_sweep_spec
    from .fold import GridSweep, fold_chunks

    config = _read_input("config", config_path, parse_ensemble_config)
    _require_bosons(config)
    axes = _read_input("sweep spec", sweep_path, functools.partial(parse_sweep_spec, config=config))
    if threads < 1:
        raise ConfigError("--threads must be >= 1")

    paths = [axis.path for axis in axes]
    n = config.n_total
    # in radians, as parse_ensemble_config stores a value given in the file
    grid = GridSweep(
        config.n_up,
        config.angles(),
        [(axis.row, axis.particle, axis.values * config.radians_per_unit) for axis in axes],
    )
    chunks = fold_chunks(config.n_up, n, math.prod(len(axis.values) for axis in axes))
    evaluate = functools.partial(_sweep_chunk, grid=grid, axes=axes, measure=measure)
    # pool.map submits every chunk, and each submission may start a thread
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers == 1:
        results = [evaluate(rows) for rows in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, chunks))

    if fmt == "json":
        _write_pieces(_sweep_json(paths, [axis.values for axis in axes], results), output)
        return

    header = paths + [f"p_{q}" for q in range(n + 1)] + ["leak", "entanglement"]
    values, keys = [axis.values for axis in axes], [""] * len(axes)
    row_format = ",%.17g" * (n + 3) + "\n"
    with _output_stream(output) as stream:
        stream.write(",".join(header) + "\n")
        for index, p, leak, ent in results:
            rows = np.column_stack([p, leak, ent]).tolist()
            prefixes = _row_texts(values, index, keys, "%.17g".__mod__, ",")
            stream.write("".join([prefix + row_format % tuple(row) for prefix, row in zip(prefixes, rows)]))


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
