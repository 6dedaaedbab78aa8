"""Helpers shared by the test modules: a child interpreter's stdout, and the
edge-case floats the hypothesis tests draw."""

import os
import subprocess
import sys

from hypothesis import strategies as st

# +-0, subnormals, the smallest normal, 1e+-300, the largest float, +-inf and
# nan, an int that converts to a float and two beyond every float, and two
# non-numbers (a numeric string and None), besides any float and ordinary values
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, float("inf"), -float("inf"), float("nan"),
    10**200, 10**400, -10**400, "3", None,
]) | st.floats(allow_nan=True, allow_infinity=True) | st.floats(0.5, 200.0)


def child_stdout(code: str, **env: str) -> str:
    """stdout of `python -c code` in a child process; env is added to the
    child's environment alone, so settings read at start-up (thread counts,
    numpy's CPU features) reach the child and not this process."""
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, **env},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout
