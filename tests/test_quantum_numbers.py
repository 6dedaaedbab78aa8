import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relscott import ChannelIndex, LevelIndex, channels_for_l, dirac_degeneracy, iter_channels


def test_l0_single_channel():
    assert channels_for_l(0) == [ChannelIndex(0, 0.5)]


def test_l1_both_couplings():
    assert channels_for_l(1) == [ChannelIndex(1, 0.5), ChannelIndex(1, 1.5)]


def test_l5_couplings():
    assert channels_for_l(5) == [ChannelIndex(5, 4.5), ChannelIndex(5, 5.5)]


def test_degeneracy_values():
    assert dirac_degeneracy(ChannelIndex(0, 0.5)) == 2
    assert dirac_degeneracy(ChannelIndex(1, 1.5)) == 4


def test_l1_block_dimension():
    assert sum(dirac_degeneracy(c) for c in channels_for_l(1)) == 6  # 2(2l+1)


@given(st.integers(min_value=0, max_value=500))
def test_block_dimension_rule(l):
    total = sum(dirac_degeneracy(c) for c in channels_for_l(l))
    assert total == (2 if l == 0 else 2 * (2 * l + 1))


@given(st.integers(min_value=0, max_value=500))
def test_channels_valid_and_sorted(l):
    chans = channels_for_l(l)
    assert len(chans) == len(set(chans))
    assert all(c.j >= 0.5 for c in chans)
    assert [c.j for c in chans] == sorted(c.j for c in chans)


def test_invalid_channels_rejected():
    with pytest.raises(ValueError):
        ChannelIndex(0, -0.5)
    with pytest.raises(ValueError):
        ChannelIndex(2, 0.5)  # j must be l +- 1/2
    with pytest.raises(ValueError):
        ChannelIndex(1, 1.0)  # integer j
    with pytest.raises(ValueError):
        ChannelIndex(-1, 0.5)
    for j in (10**400, -10**400, "0.5", None):  # never converted to a float
        with pytest.raises(ValueError, match="j must be a half-integer"):
            ChannelIndex(0, j)
    assert ChannelIndex(0, np.array(0.5)).j == 0.5  # a 0-d array compares like its float


def test_channels_for_l_names_a_bad_l():
    for l in (-1, 1.5):
        with pytest.raises(ValueError, match=f"^l must be a nonnegative integer, got {l!r}$"):
            channels_for_l(l)


def test_level_index_validation():
    c = ChannelIndex(2, 1.5)
    assert LevelIndex(3, c).principal == 5
    with pytest.raises(ValueError):
        LevelIndex(0, c)


def test_iter_channels_order():
    seq = list(iter_channels(3))
    assert seq[0] == ChannelIndex(0, 0.5)
    keys = [(c.l, c.j) for c in seq]
    assert keys == sorted(keys)
    assert len(seq) == 1 + 2 * 3
