"""Run the relscott CLI under the tracer and save its spans (traced `atom` runs).

    python3 perfbench/cli_child.py SPANS.npz <relscott arguments>

The parent benchmark sets PYTHONPATH to the checkout's src and merges the
saved spans under the operation that started this process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.install()
    with tr.span("cli.import"):
        import relscott.cli
    code = relscott.cli.main(argv)
    np.savez(spans_path, **tr.arrays())
    return code


if __name__ == "__main__":
    sys.exit(main())
