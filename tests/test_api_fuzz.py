"""Hypothesis fuzz of the public p_t and amplitude API.

Every call either returns a probability in [0, 1] (a finite complex
amplitude for ``amplitude_on_radii``; one probability per time for the
sweeps) or raises an ``LcdiscError`` subclass, whatever mix of finite,
non-finite and negative inputs, and of array shapes, it gets.  Finite
inputs stay in a box where one call costs milliseconds: the quadrature's
node count grows with |t| and with the largest radius.
"""

import dataclasses
import math

import numpy as np
from hypothesis import (
    HealthCheck,
    example,
    given,
    settings,
    strategies as st,
)
from hypothesis.extra.numpy import array_shapes, arrays

from lcdisc import (
    ExponentialFamily,
    GaussianFamily,
    LcdiscError,
    amplitude_on_radii,
    inside_probability,
    inside_probability_sweep,
    make_profile,
    optimal_measurement_time,
    outside_probability,
    outside_probability_sweep,
)

_GAUSS = make_profile(GaussianFamily(k0=5.0, sigma=1.0))
_PROFILES = st.sampled_from([
    _GAUSS,
    make_profile(ExponentialFamily(kappa=2.0), offset_d=1.0),
])
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NEGATIVE = st.floats(-1e300, 0.0, exclude_max=True)


def _length(hi):
    """A radius or distance: in [0, hi], non-finite or negative."""
    return st.floats(0.0, hi) | _NON_FINITE | _NEGATIVE


# times may be negative; only their size is bounded
_TIME = st.floats(-40.0, 40.0) | _NON_FINITE
_TOL = st.just(1e-8) | st.floats(1e-12, 1e-4) | _NON_FINITE | _NEGATIVE
# arrays of times: one time, empty, a row or a matrix
_TIMES = arrays(np.float64,
                st.just(()) | array_shapes(min_dims=1, max_dims=2,
                                           min_side=0, max_side=4),
                elements=_TIME)
_FUZZ = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _is_probability(p) -> bool:
    return isinstance(p, float) and 0.0 <= p <= 1.0


@_FUZZ
@given(profile=_PROFILES, R=_length(6.0), t=_TIME, prob_tol=_TOL,
       center_distance=st.none() | _length(6.0))
def test_fuzz_inside_probability(profile, R, t, prob_tol, center_distance):
    if center_distance is not None:
        profile = dataclasses.replace(profile, offset_d=center_distance)
    try:
        p = inside_probability(profile, R, t, prob_tol)
    except LcdiscError:
        return
    assert _is_probability(p)


@_FUZZ
@given(profile=_PROFILES, R=_length(6.0), t=_TIME, prob_tol=_TOL)
def test_fuzz_outside_probability(profile, R, t, prob_tol):
    try:
        p = outside_probability(profile, R, t, prob_tol)
    except LcdiscError:
        return
    assert _is_probability(p)


@settings(_FUZZ, max_examples=20)
@given(profile=_PROFILES, R=_length(4.0),
       window=st.tuples(st.floats(-10.0, 30.0) | _NON_FINITE,
                        st.floats(-10.0, 30.0) | _NON_FINITE),
       n_grid=st.integers(-2, 24), prob_tol=_TOL)
def test_fuzz_optimal_measurement_time(profile, R, window, n_grid, prob_tol):
    try:
        best = optimal_measurement_time(profile, R, window, n_grid, prob_tol)
    except LcdiscError:
        return
    assert _is_probability(best.p_t_star)
    assert window[0] <= best.t_star <= window[1]


@_FUZZ
@given(profile=_PROFILES, r=st.lists(_length(30.0), max_size=8), t=_TIME,
       amp_tol=_TOL)
def test_fuzz_amplitude_on_radii(profile, r, t, amp_tol):
    try:
        amp = amplitude_on_radii(profile, np.array(r, dtype=float), t, amp_tol)
    except LcdiscError:
        return
    assert amp.dtype == np.complex128
    assert amp.shape == (len(r),)
    assert np.all(np.isfinite(amp))


@_FUZZ
@given(profile=_PROFILES, R=_length(6.0), t=_TIMES, prob_tol=_TOL,
       sweep=st.sampled_from([inside_probability_sweep,
                              outside_probability_sweep]))
# finite matrices, which broadcast into a bare NumPy error when not rejected
@example(profile=_GAUSS, R=1.0, t=np.array([[0.0, 1.0], [2.0, 3.0]]),
         prob_tol=1e-8, sweep=inside_probability_sweep)
@example(profile=_GAUSS, R=1.0, t=np.array([[0.5]]), prob_tol=1e-8,
         sweep=outside_probability_sweep)
@example(profile=_GAUSS, R=1.0, t=np.array(0.5), prob_tol=1e-8,
         sweep=inside_probability_sweep)
def test_fuzz_probability_sweeps(profile, R, t, prob_tol, sweep):
    try:
        p = sweep(profile, R, t, prob_tol)
    except LcdiscError:
        return
    # a 0-d array is one time; more than one dimension is rejected
    assert t.ndim <= 1
    assert p.dtype == np.float64
    assert p.shape == (t.size,)
    assert np.all((0.0 <= p) & (p <= 1.0))
