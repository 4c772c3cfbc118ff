import contextlib
import io
from typing import NamedTuple

import numpy as np
import pytest

from identangle.detection import sector_entanglement
from identangle.states import SingleParticleKet, Spin
from identangle.tolerances import DEFAULT_TOLERANCES

LR_LABELS = (
    ("L", Spin.UP),
    ("L", Spin.DOWN),
    ("R", Spin.UP),
    ("R", Spin.DOWN),
)


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout, then stderr
    stdout_bytes: bytes


class CliRunner:
    """Runs a command-line entry point in process with captured streams.

    Unlike click's runner of that name, an exception other than
    SystemExit propagates: a crash fails the test instead of reading as
    exit code 1.
    """

    def invoke(self, main, args):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return Result(code, out.getvalue() + err.getvalue(), out.getvalue().encode())


def random_ket(rng, labels=LR_LABELS):
    v = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    v /= np.linalg.norm(v)
    return SingleParticleKet({lab: complex(a) for lab, a in zip(labels, v)})


def svd_route_entanglement(decomposition, measure):
    """Postselected entanglement of a projection through the reference route:
    sum_q (p_q / sum p) * sector_entanglement(sector_q), 0 when sum p <=
    the pruning tolerance."""
    total_p = sum(s.probability for s in decomposition.sectors)
    if total_p <= DEFAULT_TOLERANCES.pruning:
        return 0.0
    return sum(
        s.probability / total_p * sector_entanglement(s.state, measure)
        for s in decomposition.sectors
    )


def random_complex_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
