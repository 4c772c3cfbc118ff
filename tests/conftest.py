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
