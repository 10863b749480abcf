"""Light-cone timing bounds and the length-contraction factor."""

import pytest
from hypothesis import given, settings, strategies as st

from lcdisc import (
    InvalidParameterError,
    RulerTiming,
    lorentz_factor,
    ruler_min_time,
    scan_time_ball,
)


def test_scan_time_examples():
    assert scan_time_ball(0.0) == 0.0
    assert scan_time_ball(2.0) == 2.0
    assert scan_time_ball(7.25) == 7.25


@settings(max_examples=100)
@given(R=st.floats(0.0, 1e9))
def test_scan_time_is_radius(R):
    assert scan_time_ball(R) == R


def test_scan_time_validation():
    with pytest.raises(InvalidParameterError):
        scan_time_ball(-1.0)
    with pytest.raises(InvalidParameterError):
        scan_time_ball(float("inf"))


def test_ruler_examples():
    timing = ruler_min_time(2.0, 4.0)
    assert timing == RulerTiming(min_time=1.0, indistinguishable=False)
    assert ruler_min_time(4.0, 2.0).min_time == 1.0
    assert not ruler_min_time(3.0, 3.5).indistinguishable
    # Equal lengths still get a timing value but are flagged as hopeless.
    equal = ruler_min_time(2.0, 2.0)
    assert equal == RulerTiming(min_time=1.0, indistinguishable=True)


def test_ruler_observer_position():
    assert ruler_min_time(2.0, 4.0, observer_position=0.0).min_time == 2.0
    assert ruler_min_time(2.0, 4.0, observer_position=1.0).min_time == 2.0
    assert ruler_min_time(2.0, 4.0, observer_position=0.25).min_time == 1.5


@settings(max_examples=100)
@given(L1=st.floats(0.01, 100.0), L2=st.floats(0.01, 100.0),
       x=st.floats(0.0, 1.0))
def test_ruler_properties(L1, L2, x):
    timing = ruler_min_time(L1, L2, x)
    l_min = min(L1, L2)
    # Symmetric in the two lengths, bounded by L_min/2 and L_min.
    assert timing.min_time == ruler_min_time(L2, L1, x).min_time
    assert 0.5 * l_min <= timing.min_time <= l_min
    assert timing.indistinguishable == (L1 == L2)


def test_ruler_validation():
    with pytest.raises(InvalidParameterError):
        ruler_min_time(0.0, 2.0)
    with pytest.raises(InvalidParameterError):
        ruler_min_time(2.0, -1.0)
    with pytest.raises(InvalidParameterError):
        ruler_min_time(2.0, 4.0, observer_position=1.2)
    with pytest.raises(InvalidParameterError):
        ruler_min_time(float("nan"), 1.0)


def test_lorentz_factor_examples():
    import math
    assert lorentz_factor(0.0) == 1.0
    assert lorentz_factor(0.6) == pytest.approx(0.8, abs=1e-15)
    assert lorentz_factor(0.99) == math.sqrt(1.0 - 0.99 * 0.99)


def test_lorentz_factor_monotone_grid():
    betas = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    values = [lorentz_factor(b) for b in betas]
    assert all(b < a for a, b in zip(values, values[1:]))


@settings(max_examples=100)
@given(beta=st.floats(0.0, 0.999999))
def test_lorentz_factor_range(beta):
    value = lorentz_factor(beta)
    assert 0.0 < value <= 1.0


def test_lorentz_factor_validation():
    for bad in (1.0, -0.1, float("nan"), 2.0):
        with pytest.raises(InvalidParameterError):
            lorentz_factor(bad)
