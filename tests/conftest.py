import os

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gridpairs.gridset import Mode

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


#: Box side per dimension, and the budget of fine points, (n + 1)^m per
#: coarse point, that caps a cluster's size: one point in 4-D at n >= 7.
CLUSTER_SPANS = {1: 6, 2: 4, 3: 3, 4: 2}
FINE_BUDGET = 5_000


@st.composite
def two_clusters(draw):
    """Two clusters, the second shifted by 0, 10^6 or 10^23 (past int64)."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(2, 9))
    cell = st.tuples(*[st.integers(0, CLUSTER_SPANS[dim] - 1)] * dim)
    size = max(1, min(CLUSTER_SPANS[dim] ** dim,
                      FINE_BUDGET // (n + 1) ** dim))
    first = draw(st.frozensets(cell, min_size=1, max_size=size))
    second = draw(st.frozensets(cell, max_size=size))
    shift = draw(st.sampled_from([0, 10**6, 10**23]))
    points = first | {tuple(c + shift for c in p) for p in second}
    return dim, n, draw(st.sampled_from(list(Mode))), points
