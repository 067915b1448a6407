import json
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from slicekit import ProblemInstance, covering_condition

FIXTURES = Path(__file__).resolve().parent.parent / "instances"


def load(name: str) -> ProblemInstance:
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    return ProblemInstance(
        n=doc["n"],
        digit_sets=tuple(tuple(s) for s in doc["digit_sets"]),
        coefficients=tuple(doc["coefficients"]),
    )


@pytest.fixture(scope="session")
def cantor_diff():
    """x = -b1 + b2 over the middle-thirds set, base 3."""
    return load("cantor_diff")


@pytest.fixture(scope="session")
def cantor_sum():
    return load("cantor_sum")


@pytest.fixture(scope="session")
def base7_double():
    """x = -2*b1 + b2 over the {0,3,4,6} base-7 set."""
    return load("base7_double")


@pytest.fixture(scope="session")
def base6_mixed():
    """x = -b1 + b2, digit sets {0,3,5} and {0,4,5} in base 6."""
    return load("base6_mixed")


@pytest.fixture(scope="session")
def cantor_double_diff():
    """x = -2*b1 + b2 over the middle-thirds set."""
    return load("cantor_double_diff")


@pytest.fixture(scope="session")
def no_cover():
    """Base-4 {0,3} squared with m=(1,1); the projections leave gaps."""
    return load("no_cover")


@pytest.fixture(scope="session")
def full_interval():
    """Base-2 with both digits: the set is all of [0,1]."""
    return load("full_interval")


@st.composite
def counting_instances(draw):
    """Instances that meet exact_card's hypotheses, which
    ``test_properties.instances`` meets in about one draw in 500: digit sets
    {0, 2, 4, ...} have no adjacent digits, and about half the coefficient
    draws cover."""
    n = draw(st.integers(3, 7))
    l = draw(st.integers(2, 3))
    coeffs = tuple(draw(st.integers(-4, 4).filter(bool)) for _ in range(l))
    digits = tuple(range(0, n, 2))
    inst = ProblemInstance(n=n, digit_sets=(digits,) * l, coefficients=coeffs)
    assume(covering_condition(inst))
    return inst
