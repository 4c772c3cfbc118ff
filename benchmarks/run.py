"""identangle benchmark: one workload per run, closed loop, one process.

    python3 benchmarks/run.py --workload large-n --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  Each operation is an in-process call of
the click entry point ``identangle.cli.main`` on JSON files the seeded
generator wrote, so the timings include config parsing and JSON/CSV
output but not interpreter start, which is measured on its own as
``setup_s``.  Every output is checked against the spin-block references
of ``reference.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy

from tracing import Tracer, layer_of, span_times
from workloads import THROUGHPUT_UNITS, WORKLOADS, CheckError, self_check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: interpreter launches timed for setup_s, after one untimed launch
SETUP_LAUNCHES = 9
#: fewest timed rounds of an untraced run, so the medians have a middle
MIN_ROUNDS = 3
#: seconds between speed samples while operations run
SAMPLE_INTERVAL = 0.05
#: calls of the calibration loop per speed sample (about 2 ms)
CALIBRATION_CALLS = 25
#: calibration-loop speed (calls/s) that reported times refer to: about
#: the median sampled speed on the 2-vCPU machine of the README's figures
REFERENCE_SPEED = 7500.0


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import identangle from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "identangle", "__init__.py")):
        _fail(f"no identangle sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import identangle.cli

    where = os.path.dirname(os.path.abspath(identangle.cli.__file__))
    if where != os.path.join(SRC, "identangle"):
        _fail(f"identangle was imported from {where}, not from {SRC}")
    return identangle.cli


def _calibration_loop() -> float:
    """Fixed work in the package's style: complex products, dicts keyed
    by sorted tuples and one small numpy eigensolve."""
    amps = {}
    row = [complex(0.1 * i, 1.0 - 0.05 * i) for i in range(8)]
    for k in range(60):
        key = tuple(sorted(((k * 7) % 5, (k * 3) % 4, k % 3)))
        p = 1 + 0j
        for v in row:
            p *= v
        amps[key] = amps.get(key, 0j) + p
    m = numpy.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 0.5]])
    return sum(abs(v) ** 2 for v in amps.values()) + float(numpy.linalg.eigvalsh(m)[0])


class SpeedMeter:
    """Turns wall time into reference seconds.

    On a shared host the speed of one core swings by about +-25 % within
    a second and drifts from minute to minute, as other tenants come and
    go.  So while operations run, a timer signal interrupts the main
    thread every ``SAMPLE_INTERVAL`` seconds to time a few calls of a
    fixed calibration loop.  An operation's reference time is its wall
    time, less the samples taken inside it, times the mean speed of the
    samples over it and on either side, over ``REFERENCE_SPEED``: the time
    it would take on a machine where the loop runs at that speed.
    """

    def __init__(self):
        self.starts: List[float] = []
        self.samples: List[Tuple[float, float, float]] = []

    def sample(self, *_):
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            _calibration_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.samples.append((start, end, CALIBRATION_CALLS / (end - start)))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def reference_seconds(self, start: float, end: float) -> float:
        """Needs a sample taken after ``end``."""
        lo = max(0, bisect.bisect_right(self.starts, start) - 1)
        hi = bisect.bisect_left(self.starts, end)
        window = self.samples[lo:hi + 1]
        speed = statistics.fmean(s[2] for s in window)
        own = sum(e - s for s, e, _ in window if s >= start and e <= end)
        return (end - start - own) * speed / REFERENCE_SPEED


def measure_setup(meter: SpeedMeter) -> float:
    """Median time of a fresh ``python -m identangle.cli --help``.

    The launches run unsampled, so the timer does not compete with the
    child, and pinned with the speed samples around them to one CPU.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        meter.sample()
        for launch in range(SETUP_LAUNCHES + 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "identangle.cli", "--help"],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            end = time.perf_counter()
            meter.sample()
            if proc.returncode != 0:
                _fail(f"identangle --help exited {proc.returncode}: {proc.stderr.decode().strip()}")
            if launch:
                times.append(meter.reference_seconds(start, end))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


class Runner:
    """Runs whole rounds of a workload's operations and checks them."""

    def __init__(self, cli, ops, meter: SpeedMeter, tracer=None):
        self.cli = cli
        self.ops = ops
        self.meter = meter
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[Tuple[str, int, str], int] = {}
        self.errors: List[str] = []

    def invoke(self, argv: List[str]) -> Tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.cli.main(argv, prog_name="identangle")
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception as exc:  # a traceback is a failed operation, not a crash
                code = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
        return code, out.getvalue(), err.getvalue()

    def round(self, traced: bool) -> Dict:
        """One round; returns per-metric [units, reference seconds] and the
        wall seconds spent in operations."""
        spans = []
        succeeded: List[bool] = []
        outputs: List[Optional[str]] = []
        output_bytes = 0
        # start every round from a collected heap, so the collector runs at
        # the same points of each round and not at random ones
        gc.collect()
        with self.meter.sampling():
            for op in self.ops:
                start = time.perf_counter()
                if traced:
                    code, out, err = self.tracer.run_op("cli." + op.argv[0], self.invoke, op.argv)
                else:
                    code, out, err = self.invoke(op.argv)
                spans.append((start, time.perf_counter()))
                output_bytes += len(out.encode())
                outputs.append(out if code == 0 else None)
                succeeded.append(self._check(op, code, out, err, outputs))
        # a failed operation's work and time count in no throughput
        totals: Dict[str, List[float]] = {metric: [0, 0.0] for metric in THROUGHPUT_UNITS}
        for op, (start, end), ok in zip(self.ops, spans, succeeded):
            if op.metric is not None and ok:
                totals[op.metric][0] += op.units
                totals[op.metric][1] += self.meter.reference_seconds(start, end)
        wall = sum(end - start for start, end in spans)
        return {"totals": totals, "wall": wall, "output_bytes": output_bytes}

    def _check(self, op, code: int, out: str, err: str, outputs: List[Optional[str]]) -> bool:
        """Counts the operation; returns whether it succeeded.  A problem
        with an ``expect_fail`` operation counts in ``failed``; any other
        problem is a check error and makes the run incorrect."""
        self.attempted += 1
        problem = None
        if code != 0:
            lines = (err.strip() or "no message").splitlines()
            problem = lines[-1]
        try:
            # a failing verify suite exits 1 but still prints its report
            if code == 0 or out.strip():
                op.check(out)
            if code == 0 and op.same_output_as is not None and out != outputs[op.same_output_as]:
                raise ValueError(f"output differs from {self.ops[op.same_output_as].label}")
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            problem = message if problem is None else f"{problem}; {message}"
        if problem is None:
            return True
        if op.expect_fail:
            self.failed += 1
            key = (op.label, code, problem)
            self.failures[key] = self.failures.get(key, 0) + 1
        else:
            self.errors.append(f"{op.label}: exit {code}: {problem}")
        return False


def _median_rate(rounds: List[Dict], metric: str) -> float:
    return statistics.median(units / secs if secs else 0.0 for units, secs in (r["totals"][metric] for r in rounds))


def end_to_end(runner: Runner, seconds: float) -> Dict[str, Dict]:
    setup = measure_setup(runner.meter)
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        rounds.append(runner.round(traced=False))
        took = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() + took > deadline:
            break
    metrics = {"setup_s": {"value": setup, "unit": "s"}}
    for metric, unit in THROUGHPUT_UNITS.items():
        metrics[metric] = {"value": _median_rate(rounds, metric), "unit": unit}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    print(f"rounds: {len(rounds)}", file=sys.stderr)
    return metrics


#: per-layer metrics: name -> (unit, source, key); see per_layer()
PER_LAYER = {
    "permanent.calls": ("count", "count", "permanent"),
    "permanent.s": ("s", "layer", "permanent"),
    "permanent.ops": ("count", "count", "permanent.ops"),
    "detection.project_onto_detectors.calls": ("count", "count", "detection.project_onto_detectors.calls"),
    "detection.project_onto_detectors.self_s": ("s", "self", "detection.project_onto_detectors"),
    "detection.outcomes": ("count", "count", "detection.outcomes"),
    "detection.sectors": ("count", "count", "detection.sectors"),
    "detection.sector_entanglement.calls": ("count", "count", "detection.sector_entanglement.calls"),
    "detection.sector_entanglement.s": ("s", "total", "detection.sector_entanglement"),
    "detection.prob_sum_dev_max": ("1", "max", "detection.prob_sum_dev_max"),
    "algebra.symmetrized_partial_trace.s": ("s", "total", "algebra.symmetrized_partial_trace"),
    "algebra.pure_to_density.s": ("s", "total", "algebra.pure_to_density"),
    "algebra.density_matrices": ("count", "count", "algebra.density_matrices"),
    "algebra.transition_amplitude.calls": ("count", "count", "algebra.transition_amplitude.calls"),
    "algebra.transition_amplitude.self_s": ("s", "self", "algebra.transition_amplitude"),
    "measures.von_neumann_entropy.s": ("s", "total", "measures.von_neumann_entropy"),
    "states.make_product_state.calls": ("count", "count", "states.make_product_state.calls"),
    "states.make_product_state.s": ("s", "total", "states.make_product_state"),
    "states.keys": ("count", "count", "states.keys"),
    "states.expand_first_quantized.s": ("s", "total", "states.expand_first_quantized"),
    "config.parse.s": ("s", "total", "config.parse"),
    "config.with_value.s": ("s", "total", "config.with_value"),
    "oracles.s": ("s", "layer", "oracles"),
    "verify.self_s": ("s", "self_layer", "verify"),
    "cli.self_s": ("s", "self_layer", "cli"),
    "cli.output_bytes": ("bytes", "count", "cli.output_bytes"),
    "trace.overhead_s": ("s", "overhead", None),
}


def _layer_values(spans, counts, maxima) -> Dict[str, float]:
    total, self_time, layer = span_times(spans)
    values = {}
    for name, (unit, source, key) in PER_LAYER.items():
        if source == "count":
            if key in counts:
                values[name] = counts[key]
            else:  # a layer's call count sums the calls of its traced functions
                values[name] = sum(v for k, v in counts.items() if k.startswith(key + ".") and k.endswith(".calls"))
        elif source == "layer":
            values[name] = layer.get(key, 0.0)
        elif source == "total":
            values[name] = total.get(key, 0.0)
        elif source == "self":
            values[name] = self_time.get(key, 0.0)
        elif source == "self_layer":
            values[name] = sum(v for k, v in self_time.items() if layer_of(k) == key)
        elif source == "max":
            values[name] = maxima.get(key, 0.0)
    return values


def per_layer(runner: Runner, seconds: float, trace_path: str) -> Dict[str, Dict]:
    """Alternate untraced and traced rounds; counts come from the traced
    rounds (identical in each), times are medians over them, and the
    overhead is the traced minus the untraced median round time."""
    tracer = runner.tracer
    plain, traced = [], []
    spans = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain.append(runner.round(traced=False)["wall"])
        tracer.install()
        try:
            result = runner.round(traced=True)
        finally:
            tracer.uninstall()
        spans, counts, maxima = tracer.collect()
        counts["cli.output_bytes"] = result["output_bytes"]
        values = _layer_values(spans, counts, maxima)
        values["wall"] = result["wall"]
        counted = [k for k, (unit, _, _) in PER_LAYER.items() if unit in ("count", "bytes")]
        differ = [k for k in counted if traced and values[k] != traced[0][k]]
        if differ:
            runner.errors.append(f"traced round {len(traced) + 1} differs from the first in {', '.join(differ)}")
        traced.append(values)
        took = time.perf_counter() - start
        if time.perf_counter() + took > deadline:
            break
    with open(trace_path, "w", encoding="utf-8") as handle:
        for sid, parent, name, t0, t1 in spans:
            handle.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}) + "\n")
    metrics = {}
    for name, (unit, source, _) in PER_LAYER.items():
        if source == "overhead":
            value = statistics.median(v["wall"] for v in traced) - statistics.median(plain)
        elif unit in ("count", "bytes") or source == "max":
            value = traced[0][name]
        else:
            value = statistics.median(v[name] for v in traced)
        metrics[name] = {"value": value, "unit": unit}
    print(f"traced rounds: {len(traced)}; last round's spans in {trace_path}", file=sys.stderr)
    return metrics


def run_record(workload: str, seed: int, runner: Runner) -> Dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "calibration_speed_median": statistics.median(s[2] for s in runner.meter.samples),
        "reference_speed": REFERENCE_SPEED,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": [
            {"op": op, "exit_code": code, "message": message, "times": times}
            for (op, code, message), times in sorted(runner.failures.items())
        ],
        "check_errors": runner.errors[:20],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    cli = _import_package()
    os.environ.pop("IDENTANGLE_TOL", None)
    workdir = os.path.join(WORK, f"{workload}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        self_check(seed)
    except CheckError as exc:
        _fail(str(exc))
    ops = WORKLOADS[workload](seed, workdir)
    runner = Runner(cli, ops, SpeedMeter(), Tracer() if trace else None)
    if trace:
        metrics = per_layer(runner, seconds, os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl"))
    else:
        metrics = end_to_end(runner, seconds)
    print("record: " + json.dumps(run_record(workload, seed, runner)))
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> Dict:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:14s} {name:42s} {metric['value']:.6g} {metric['unit']}")
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="large-n, dense-sweep, oracle-verify or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        if args.workload not in WORKLOADS:
            _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or all")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
