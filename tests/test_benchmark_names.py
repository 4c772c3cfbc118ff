"""The package names the benchmark calls before every run.

``benchmarks/workloads.py::self_check`` checks its references against
``project_by_substitution``, ``ParticleEnsemble(...).kets()``,
``SpatialMode``, ``overlap_matrix`` and ``permanent_naive``, and
``benchmarks/tracing.py`` patches functions and methods by name, among
them ``EnsembleConfig.with_value``.  A dropped or retyped name fails every
benchmark run, so it fails here first.  The benchmark files are only read.
"""

import importlib
import pathlib
import sys

from identangle import verify

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmark_self_check_and_tracer_find_their_names(monkeypatch):
    # no bytecode cache written into the benchmark directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    workloads.self_check(1)
    run_suite, suites = verify.run_suite, dict(verify.SUITES)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert verify.run_suite is not run_suite
    finally:
        tracer.uninstall()
    assert verify.run_suite is run_suite
    assert verify.SUITES == suites
