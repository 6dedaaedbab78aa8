"""The spectral shift s(gamma) and the Scott coefficient q = 1/2 + s.

Tabulates the shift against Schwinger's closed-form approximation
(zeta(3) - 5 pi^2/24) gamma^2, writes a plot-ready CSV, and probes the
strong-coupling limit where q approaches about -1.91.

Run: python demos/scott_shift_curve.py [out.csv]
"""

import sys

import relscott.cli
from relscott import SCHWINGER_COEFFICIENT, schwinger_shift, shift


def main() -> int:
    print(f"Schwinger coefficient: {SCHWINGER_COEFFICIENT:.9f}")
    print(f"{'gamma':>8} {'s(gamma)':>14} {'q = 1/2 + s':>14} {'Schwinger q':>14} {'tail':>10}")
    for i in range(12):
        g = 0.0 + 0.9 * i / 11
        res = shift(g, 1e-8)
        q = 0.5 + res.value
        q_schw = 0.5 + schwinger_shift(g)
        print(f"{g:8.4f} {res.value:14.9f} {q:14.9f} {q_schw:14.9f} {res.tail_estimate:10.1e}")

    print("\nstrong-coupling approach to the limit (about -1.91):")
    for eps in (1e-4, 1e-6, 1e-8, 1e-10):
        res = shift(1.0 - eps, 1e-6)
        print(f"  gamma = 1 - {eps:.0e}:  q = {0.5 + res.value:.6f}")

    if len(sys.argv) < 2:
        return 0
    path = sys.argv[1]
    status = relscott.cli.main(["curve", "--gamma-min", "0", "--gamma-max", "0.9", "--steps", "12",
                                "--out", path])
    print(f"\nwrote {path}" if status == 0 else f"\n{path} not written")
    return status


if __name__ == "__main__":
    sys.exit(main())
