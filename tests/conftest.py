import mpmath
import pytest

from relscott import solve_tf


@pytest.fixture(scope="session")
def tf_solution():
    """One shared neutral-atom solve at the default tolerance."""
    return solve_tf(1e-8)


@pytest.fixture(autouse=True)
def mpmath_default_precision():
    """Every test starts and ends at mpmath's default 15 digits: tests and
    oracles that need more set it with mpmath.workdps, so no precision
    leaks from one test into the next."""
    assert mpmath.mp.dps == 15, f"mpmath.mp.dps is {mpmath.mp.dps} when the test starts"
    yield
    assert mpmath.mp.dps == 15, f"the test left mpmath.mp.dps at {mpmath.mp.dps}"
