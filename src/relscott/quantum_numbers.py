"""Relativistic quantum-number bookkeeping.

An angular-momentum channel is a pair (l, j) with j = l +- 1/2 and j >= 1/2;
a bound level inside a channel is indexed by n >= 1, with principal quantum
number n + l.  The azimuthal number m is never enumerated: every in-scope
quantity is m-independent, so sums carry the channel degeneracy 2j + 1
instead.  Summing 2j + 1 over the (at most two) channels of a fixed l gives
the familiar block dimension 2(2l + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# the largest principal number n + l that a float holds exactly
PRINCIPAL_MAX = 2**53


@dataclass(frozen=True)
class ChannelIndex:
    """Angular-momentum channel (l, j), j = l +- 1/2, j >= 1/2."""

    l: int
    j: float

    def __post_init__(self) -> None:
        if not isinstance(self.l, int) or self.l < 0:
            raise ValueError(f"l must be a nonnegative integer, got {self.l!r}")
        if not (abs(self.j) < PRINCIPAL_MAX and 2.0 * self.j % 2.0 == 1.0):
            raise ValueError(f"j must be a half-integer (1/2, 3/2, ...), got {self.j!r}")
        if self.j < 0.5:
            raise ValueError(f"j must be >= 1/2, got {self.j!r}")
        if abs(int(2.0 * self.j) - 2 * self.l) != 1:  # in ints: l may exceed any float
            raise ValueError(f"j must equal l - 1/2 or l + 1/2, got l={self.l}, j={self.j}")

    @property
    def kappa_bar(self) -> float:
        """j + 1/2, a positive integer-valued float; the natural Dirac channel weight."""
        return self.j + 0.5


@dataclass(frozen=True)
class LevelIndex:
    """Bound level: n-th eigenvalue (n >= 1) within a channel."""

    n: int
    channel: ChannelIndex

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= PRINCIPAL_MAX - self.channel.l:
            raise ValueError(f"n must be an integer >= 1 with n + l <= 2**53, "
                             f"got n={self.n!r}, l={self.channel.l}")

    @property
    def principal(self) -> int:
        """Principal quantum number n + l."""
        return self.n + self.channel.l


def kappa_bars(l: int) -> tuple[float, ...]:
    """kb = j + 1/2 of the channels of orbital angular momentum l, in increasing j.

    (1.0,) for l = 0, (l, l + 1) otherwise.  Plain floats and no validation.
    """
    return (1.0,) if l == 0 else (float(l), float(l + 1))


def channels_for_l(l: int) -> list[ChannelIndex]:
    """Channels of orbital angular momentum l, in increasing j.

    l=0 has the single channel (0, 1/2); l>=1 has (l, l-1/2) and (l, l+1/2).
    """
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    return [ChannelIndex(l, kb - 0.5) for kb in kappa_bars(l)]


def dirac_degeneracy(channel: ChannelIndex) -> int:
    """Degeneracy 2j + 1 of a Dirac level in the given channel."""
    return int(round(2.0 * channel.j + 1.0))


def iter_channels(l_max: int) -> Iterator[ChannelIndex]:
    """All channels with l <= l_max, in (increasing l, increasing j) order.

    This ordering is the canonical channel order of every channel sum in the
    package (scott_shift._channel_arrays builds its arrays in the same order).
    """
    for l in range(l_max + 1):
        yield from channels_for_l(l)
