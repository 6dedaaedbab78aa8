import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demos that write a file take its path as the first argument; the others ignore it
    out = tmp_path / f"{demo.stem}.csv"
    proc = subprocess.run([sys.executable, str(demo), str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
