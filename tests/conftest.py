import pytest
from hypothesis import HealthCheck, settings

from qtlie.matrices import ExactMatrix
from qtlie.repn import GradedOperator
from qtlie.torus import make_torus

settings.register_profile(
    "exact",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def e1():
    """Rank 2, one pair of order 2: the smallest noncommutative instance."""
    return make_torus(2, 1, [2])


@pytest.fixture(scope="session")
def e2():
    """Rank 2, one pair of order 3."""
    return make_torus(2, 1, [3])


@pytest.fixture(scope="session")
def e3():
    """Rank 3, one pair of order 2, one free direction."""
    return make_torus(3, 1, [2])


@pytest.fixture(scope="session")
def e1_wide():
    """Same torus as e1 but with the coefficient field enlarged to Q(i)."""
    return make_torus(2, 1, [2], L=4)


@pytest.fixture(scope="session")
def commutative():
    return make_torus(2, 0, [])


@pytest.fixture
def commutator_calls(monkeypatch):
    """Counts the commutators of dense matrices and of graded operators."""
    calls = []
    for cls in (ExactMatrix, GradedOperator):
        def counted(self, other, commutator=cls.commutator):
            calls.append(1)
            return commutator(self, other)

        monkeypatch.setattr(cls, "commutator", counted)
    return calls
