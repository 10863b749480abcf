"""Momentum-profile construction, normalization, and cutoff selection."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import lcdisc
from lcdisc import (
    ExponentialFamily,
    GaussianFamily,
    HelicityChannel,
    InvalidParameterError,
    NumericFailureError,
    channel_overlap,
    make_profile,
    momentum_norm,
)
from lcdisc import amplitude
from lcdisc.quadrature import GAUSS_W, GAUSS_X

# Frozen regression values for the standard Gaussian profile (k0=5, sigma=1).
GAUSS_NORM_CONST = 0.11268862875671706
GAUSS_K_MAX = 11.499252408795826
EXPO_K_MAX_RANGE = (30.0, 34.0)


def _trapezoid_weight(profile, lo, hi, n=400001, normalized=True):
    k = np.linspace(lo, hi, n)
    g = profile.magnitude(k) if normalized else profile.family.shape(k)
    return 2.0 * np.pi * np.trapezoid(k * g * g, k)


def test_gaussian_norm_const_matches_trapezoid_oracle(gauss_profile):
    total = _trapezoid_weight(
        gauss_profile, 0.0, gauss_profile.family.far_cutoff(),
        normalized=False)
    oracle = 1.0 / np.sqrt(total)
    assert gauss_profile.norm_const == pytest.approx(oracle, rel=1e-9)


def test_gaussian_norm_const_matches_closed_form(gauss_profile):
    # For k0/sigma = 5 the weight integral is sqrt(2*pi)*sigma*k0 up to a
    # truncated negative-k correction of order 1e-7.
    closed = 1.0 / np.sqrt(2.0 * np.pi * np.sqrt(2.0 * np.pi) * 5.0)
    assert gauss_profile.norm_const == pytest.approx(closed, rel=1e-6)


def test_gaussian_norm_const_frozen(gauss_profile):
    assert gauss_profile.norm_const == pytest.approx(GAUSS_NORM_CONST,
                                                     rel=1e-10)


def test_exponential_norm_const_closed_form(expo_profile):
    # 2*pi * int k^3 exp(-2k/kappa) dk = 3*pi*kappa^4/4 exactly.
    kappa = 2.0
    closed = 1.0 / np.sqrt(3.0 * np.pi * kappa ** 4 / 4.0)
    assert expo_profile.norm_const == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("fixture", ["gauss_profile", "expo_profile"])
def test_momentum_norm_is_unit(fixture, request):
    profile = request.getfixturevalue(fixture)
    assert momentum_norm(profile) == pytest.approx(1.0, abs=1e-9)


def test_momentum_norm_scales_with_amplitude(gauss_profile):
    import dataclasses
    doubled = dataclasses.replace(gauss_profile,
                                  norm_const=2.0 * gauss_profile.norm_const)
    assert momentum_norm(doubled) == pytest.approx(4.0, rel=1e-9)


def test_momentum_norm_unnormalized_oracle(gauss_profile):
    import dataclasses
    raw = dataclasses.replace(gauss_profile, norm_const=1.0)
    oracle = _trapezoid_weight(raw, 0.0, raw.k_max, normalized=False)
    assert momentum_norm(raw) == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("k0,sigma", [(47.35, 0.01009), (50.0, 0.01)])
def test_momentum_norm_resolves_narrow_gaussians(k0, sigma):
    # panels k_max / 1024 wide span several sigma here and read 1 - 1.7e-6
    # at (50, 0.01); a quarter sigma resolves the bump
    profile = make_profile(GaussianFamily(k0, sigma))
    assert abs(momentum_norm(profile) - 1.0) <= 2.0 * lcdisc.TAIL_MASS_BOUND


def test_offset_profile_keeps_unit_norm():
    profile = make_profile(ExponentialFamily(kappa=2.0), offset_d=10.0)
    assert profile.offset_d == 10.0
    assert momentum_norm(profile) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("fixture", ["gauss_profile", "expo_profile"])
def test_cutoff_tail_weight_below_bound(fixture, request):
    profile = request.getfixturevalue(fixture)
    far = profile.family.far_cutoff()
    assert 0.0 < profile.k_max < far
    tail = _trapezoid_weight(profile, profile.k_max, far)
    assert tail <= lcdisc.TAIL_MASS_BOUND


def test_cutoff_regression(gauss_profile, expo_profile):
    assert gauss_profile.k_max == pytest.approx(GAUSS_K_MAX, rel=1e-6)
    assert EXPO_K_MAX_RANGE[0] < expo_profile.k_max < EXPO_K_MAX_RANGE[1]


def test_momentum_width(gauss_profile, expo_profile):
    assert gauss_profile.family.momentum_width == 1.0
    assert expo_profile.family.momentum_width == 2.0


def test_offset_recorded(gauss_profile, gauss_d10):
    assert gauss_profile.offset_d == 0.0
    assert gauss_d10.offset_d == 10.0


def test_magnitude_matches_shape(gauss_profile):
    k = np.linspace(0.0, gauss_profile.k_max, 64)
    expected = gauss_profile.norm_const * gauss_profile.family.shape(k)
    assert np.array_equal(gauss_profile.magnitude(k), expected)


def test_make_profile_deterministic():
    a = make_profile(GaussianFamily(5.0, 1.0))
    b = make_profile(GaussianFamily(5.0, 1.0))
    assert a.norm_const == b.norm_const
    assert a.k_max == b.k_max


def test_channel_overlap_orthonormal():
    plus, minus = HelicityChannel.PLUS, HelicityChannel.MINUS
    assert channel_overlap(plus, plus) == 1.0
    assert channel_overlap(minus, minus) == 1.0
    assert channel_overlap(plus, minus) == 0.0
    assert channel_overlap(minus, plus) == 0.0


@pytest.mark.parametrize("bad", [
    lambda: GaussianFamily(k0=0.0, sigma=1.0),
    lambda: GaussianFamily(k0=5.0, sigma=0.0),
    lambda: GaussianFamily(k0=5.0, sigma=-1.0),
    lambda: GaussianFamily(k0=float("nan"), sigma=1.0),
    lambda: ExponentialFamily(kappa=0.0),
    lambda: ExponentialFamily(kappa=float("inf")),
])
def test_invalid_family_parameters(bad):
    with pytest.raises(InvalidParameterError):
        make_profile(bad())


def test_invalid_offset():
    with pytest.raises(InvalidParameterError):
        make_profile(GaussianFamily(5.0, 1.0), offset_d=-0.5)
    with pytest.raises(InvalidParameterError):
        make_profile(GaussianFamily(5.0, 1.0), offset_d=float("nan"))


@settings(max_examples=20, deadline=None)
@given(k0=st.floats(0.5, 12.0), sigma=st.floats(0.1, 3.0))
def test_gaussian_norm_property(k0, sigma):
    profile = make_profile(GaussianFamily(k0=k0, sigma=sigma))
    assert momentum_norm(profile) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(kappa=st.floats(0.2, 6.0))
def test_exponential_norm_property(kappa):
    profile = make_profile(ExponentialFamily(kappa=kappa))
    assert momentum_norm(profile) == pytest.approx(1.0, abs=1e-8)


def _grid_edges(family):
    """The 4097 candidate cuts, 1024 to a decade up to the far cutoff."""
    k_far = family.far_cutoff()
    return [k_far * 10.0 ** ((i - 4096) / 1024) for i in range(4097)]


def _segment_major_k_max(family):
    """The grid edge that the norm integral by 8-point Gauss segments on the
    k_max grid, summed from the top down, picks as k_max."""
    edges = np.array([0.0] + _grid_edges(family))
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * GAUSS_X[None, :]
    s = family.shape(nodes)
    segment_mass = (half[:, None] * GAUSS_W[None, :] *
                    (nodes * s * s)).sum(axis=1)
    total = float(segment_mass.sum())
    tail = np.concatenate((np.cumsum(segment_mass[::-1])[::-1], [0.0]))
    covered = np.nonzero(tail / total < amplitude.TAIL_MASS_BOUND)[0]
    return float(edges[covered[0]])


def _dense_mass(family):
    """integral_0^far k shape(k)^2 dk on 8-point Gauss panels a quarter of
    the profile's width wide, so a narrow Gaussian is resolved as well as a
    wide one."""
    k_far = family.far_cutoff()
    width = (family.sigma if isinstance(family, GaussianFamily)
             else family.kappa) / 4.0
    edges = np.linspace(0.0, k_far, math.ceil(k_far / width) + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * GAUSS_X
    s = family.shape(nodes)
    return math.fsum((half[:, None] * GAUSS_W * (nodes * s * s)).ravel())


@settings(max_examples=100, deadline=None)
@given(family=st.builds(GaussianFamily, k0=st.floats(0.05, 50.0),
                        sigma=st.floats(0.01, 10.0)) |
       st.builds(ExponentialFamily, kappa=st.floats(0.01, 20.0)))
# k0/sigma = 4693 and 5000: the grid's segments are 10 sigma wide there
@example(family=GaussianFamily(47.35, 0.01009))
@example(family=GaussianFamily(50.0, 0.01))
def test_closed_form_norm_keeps_grid_cut(family):
    profile = make_profile(family)
    assert profile.k_max == _segment_major_k_max(family)
    norm = 2.0 * math.pi * profile.norm_const ** 2 * _dense_mass(family)
    assert abs(norm - 1.0) <= 1e-12


_EXTREME = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(family=st.builds(GaussianFamily, k0=_EXTREME, sigma=_EXTREME) |
       st.builds(ExponentialFamily, kappa=_EXTREME))
# sigma * sigma, u * u or (kappa/2)^4 leave the float range at these
@example(family=GaussianFamily(5.0, 1e-300))
@example(family=GaussianFamily(5.0, 1e300))
@example(family=GaussianFamily(1e300, 1.0))
@example(family=ExponentialFamily(1e80))
# k0 + 30 sigma rounds to k0, where half of the mass lies above
@example(family=GaussianFamily(5.0, 1e-17))
def test_extreme_finite_parameters_give_a_profile_or_numeric_failure(family):
    try:
        profile = make_profile(family)
    except NumericFailureError:
        return
    assert math.isfinite(profile.norm_const) and profile.norm_const > 0.0
    assert 0.0 < profile.k_max <= family.far_cutoff()
    assert (family.tail_mass(profile.k_max)
            < lcdisc.TAIL_MASS_BOUND * family.tail_mass(0.0))


def _grid_k_max(family):
    """The first edge of the 4097-point geometric grid up to the far cutoff
    whose tail is below the bound, found by bisecting the whole grid; None
    where no edge leaves so small a tail."""
    edges = _grid_edges(family)
    bound = lcdisc.TAIL_MASS_BOUND * family.tail_mass(0.0)
    cut = bisect.bisect_left(edges, True,
                             key=lambda k: family.tail_mass(k) < bound)
    return edges[cut] if cut < len(edges) else None


@settings(max_examples=300, deadline=None)
@given(family=st.builds(GaussianFamily, k0=st.floats(0.05, 50.0),
                        sigma=st.floats(0.01, 32.0)) |
       st.builds(ExponentialFamily, kappa=st.floats(1e-3, 1e3)) |
       st.builds(GaussianFamily, k0=_EXTREME, sigma=_EXTREME) |
       st.builds(ExponentialFamily, kappa=_EXTREME))
# k0 + 30 sigma rounds to k0: no edge leaves a small enough tail
@example(family=GaussianFamily(5.0, 1e-17))
@example(family=GaussianFamily(1e300, 1.0))
@example(family=GaussianFamily(5.0, 1.0))
@example(family=ExponentialFamily(2.0))
def test_k_max_is_the_first_grid_edge_below_the_bound(family):
    assume(0.0 < 2.0 * math.pi * family.tail_mass(0.0) < math.inf)
    expected = _grid_k_max(family)
    if expected is None:
        with pytest.raises(NumericFailureError, match="far cutoff"):
            make_profile(family)
    else:
        assert make_profile(family).k_max == expected
