import pytest

from anyonforge import AnyonModel, BraidWord


@pytest.fixture(scope="session")
def model2() -> AnyonModel:
    return AnyonModel(2)


@pytest.fixture(scope="session")
def model3() -> AnyonModel:
    return AnyonModel(3)


@pytest.fixture(scope="session")
def model8() -> AnyonModel:
    return AnyonModel(8)


@pytest.fixture(scope="session")
def b1_word() -> BraidWord:
    """A 40-letter k=3 B1 weave at distance 5.2e-5, where the square root
    in the free-phase column rule magnifies the routes' rounding gaps."""
    signed = ("-1 -2 -2 -2 -2 1 1 2 2 -1 -1 2 2 2 2 1 1 2 2 2 2 -1 -1 -2 -2 "
              "-2 -2 -2 -2 1 1 2 2 -1 -1 -2 -2 -2 -2 1")
    return BraidWord(4, tuple((abs(int(t)), 1 if int(t) > 0 else -1)
                              for t in signed.split()))
