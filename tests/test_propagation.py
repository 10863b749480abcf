"""Position amplitude, radial grids, cap weights, and ball probabilities."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lcdisc import (
    ExponentialFamily,
    GaussianFamily,
    InvalidParameterError,
    NumericFailureError,
    Priors,
    ResourceLimitError,
    amplitude_on_radii,
    default_r_max,
    inside_probability,
    inside_probability_sweep,
    make_profile,
    outside_probability,
    quantile_radius,
    radial_density_grid,
    sphere_cap_weight,
    tradeoff_curve,
)
from lcdisc import _kernels, propagation
from lcdisc.discrimination import MAX_TIME_GRID
from lcdisc.quadrature import (
    MAX_PANELS,
    EvenGrid,
    PanelRule,
    panel_width,
    piecewise_gauss_panels,
)

from graded_panels import graded_gauss_panels
import oracle3d

# Frozen regression values for the standard Gaussian profile (k0=5, sigma=1).
# The amplitude values integrate over the stored [0, k_max] interval, so they
# carry the (bounded) cutoff truncation along with the quadrature.
AMP_R1_T0 = -0.169235086158698 + 0.0j
AMP_R1_T3 = 0.004150710280765928 + 0.0031688912988680215j
INSIDE_G_D0_R2_T0 = 0.9998676918917029
INSIDE_G_D10_R2_T10 = 9.370065357e-03
INSIDE_E_D0_R2_T0 = 0.9997536775


def _amp_oracle(profile, r, t, n=200001):
    """Dense-trapezoid amplitude over the profile's own truncated interval."""
    k = np.linspace(0.0, profile.k_max, n)
    # np.sinc(x) = sin(pi x) / (pi x), 1 at x = 0
    f = (k ** 1.5 * profile.magnitude(k) * np.sinc(k * r / np.pi) *
         np.exp(-1j * k * t))
    return np.trapezoid(f, k) / np.sqrt(np.pi)


def test_amplitude_matches_trapezoid_oracle(gauss_profile):
    for t in (0.0, 3.0):
        got = amplitude_on_radii(gauss_profile, np.array([1.0]), t)[0]
        assert got == pytest.approx(_amp_oracle(gauss_profile, 1.0, t),
                                    abs=1e-8)


def test_amplitude_frozen(gauss_profile):
    assert amplitude_on_radii(gauss_profile, np.array([1.0]), 0.0)[0] == \
        pytest.approx(AMP_R1_T0, abs=1e-6)
    assert amplitude_on_radii(gauss_profile, np.array([1.0]), 3.0)[0] == \
        pytest.approx(AMP_R1_T3, abs=1e-6)


def test_amplitude_real_at_t0(gauss_profile):
    # exp(-i k t) == 1 at t = 0, so the integrand is purely real.
    amp = amplitude_on_radii(gauss_profile, np.linspace(0.0, 5.0, 17), 0.0)
    assert np.max(np.abs(amp.imag)) < 1e-12


def test_amplitude_center_value(gauss_profile):
    # j0(0) = 1 reduces A(0, 0) to the plain k^{3/2} g moment.
    k = np.linspace(0.0, gauss_profile.k_max, 200001)
    moment = np.trapezoid(k ** 1.5 * gauss_profile.magnitude(k),
                          k) / np.sqrt(np.pi)
    assert amplitude_on_radii(gauss_profile, np.array([0.0]), 0.0)[0] == \
        pytest.approx(moment, abs=1e-8)


def test_amplitude_rejects_negative_radius(gauss_profile):
    with pytest.raises(InvalidParameterError):
        amplitude_on_radii(gauss_profile, np.array([-0.5, 1.0]), 0.0)


def test_amplitude_unreachable_tolerance_raises(gauss_profile):
    with pytest.raises(NumericFailureError) as excinfo:
        amplitude_on_radii(gauss_profile, np.array([1.0]), 0.0,
                           amp_tol=1e-18)
    assert excinfo.value.estimate > 1e-18
    assert "estimate" in str(excinfo.value)


def test_default_r_max(gauss_profile, gauss_d10, expo_profile):
    assert default_r_max(gauss_profile, 0.0) == 10.0
    assert default_r_max(gauss_profile, 7.5) == 17.5
    assert default_r_max(gauss_d10, -3.0) == 23.0
    # ten lengths 1/kappa: kappa=2 gives a 5-unit tail allowance
    assert default_r_max(expo_profile, 0.0) == 5.0


@pytest.mark.parametrize("fixture,t", [
    ("gauss_profile", 0.0),
    ("gauss_profile", 7.5),
    ("gauss_d10", 0.0),
    ("expo_profile", 5.0),
])
def test_grid_norm_unit_at_defaults(fixture, t, request):
    grid = radial_density_grid(request.getfixturevalue(fixture), t)
    assert grid.grid_norm == pytest.approx(1.0, abs=1e-6)
    assert not grid.coverage_warning


def test_grid_norm_preserved_under_evolution(gauss_profile):
    n0 = radial_density_grid(gauss_profile, 0.0, r_max=25.0).grid_norm
    n3 = radial_density_grid(gauss_profile, 3.0, r_max=25.0).grid_norm
    assert abs(n0 - n3) < 2e-6


def test_grid_norm_unit_on_explicit_grids(gauss_profile):
    assert radial_density_grid(gauss_profile, 0.0, r_max=20.0,
                               n_points=2048).grid_norm == pytest.approx(
        1.0, abs=1e-6)
    assert radial_density_grid(gauss_profile, 10.0, r_max=40.0,
                               n_points=2048).grid_norm == pytest.approx(
        1.0, abs=1e-6)


def test_grid_fields_consistent(gauss_profile):
    grid = radial_density_grid(gauss_profile, 2.0, n_points=256)
    # the record holds its samples; every other value is derived
    assert [f.name for f in dataclasses.fields(grid)] == \
        ["time_t", "r_grid", "amp"]
    assert grid.time_t == 2.0
    assert grid.r_grid[0] == 0.0
    assert np.all(np.diff(grid.r_grid) > 0.0)
    assert np.array_equal(grid.density, np.abs(grid.amp) ** 2)


def _trapezoid_norm(grid):
    """The grid norm in np.trapezoid's order of operations, as
    radial_density_grid once computed it."""
    r = grid.r_grid
    f = r * r * grid.density
    return float(4.0 * math.pi * np.add.reduce(
        (r[1:] - r[:-1]) * (f[1:] + f[:-1]) / 2.0))


def _check_derived(grid):
    assert np.array_equal(grid.density, np.abs(grid.amp) ** 2)
    r = grid.r_grid
    f = 4.0 * math.pi * r * r * grid.density
    assert np.array_equal(grid.cell_masses,
                          0.5 * (f[1:] + f[:-1]) * (r[1:] - r[:-1]))
    norm = grid.grid_norm
    assert norm == np.add.reduce(grid.cell_masses)
    assert grid.coverage_warning == (
        not (math.isfinite(norm) and norm >= 1.0 - propagation.COVERAGE_BOUND))
    # a few ulps apart at most: the same terms, rounded in another order
    assert abs(norm - _trapezoid_norm(grid)) <= 1e-15 * max(1.0, norm)


@settings(max_examples=40, deadline=None)
@given(gaussian=st.booleans(), width=st.floats(0.5, 2.0),
       d=st.floats(0.0, 3.0), t=st.floats(-4.0, 4.0),
       r_max=st.none() | st.floats(0.5, 30.0),
       n_points=st.integers(16, 600), scale=st.floats(0.25, 2.0))
def test_grid_record_derives_from_its_samples(gaussian, width, d, t, r_max,
                                              n_points, scale):
    family = (GaussianFamily(k0=5.0 * width, sigma=width) if gaussian
              else ExponentialFamily(kappa=2.0 * width))
    grid = radial_density_grid(make_profile(family, offset_d=d), t,
                               r_max=r_max, n_points=n_points)
    _check_derived(grid)
    # a record with other samples derives its own values, not the
    # first record's
    for amp in (scale * grid.amp, np.zeros_like(grid.amp)):
        _check_derived(dataclasses.replace(grid, amp=amp))
    assert dataclasses.replace(grid, amp=0.5 * grid.amp).coverage_warning


def test_grid_coverage_warning_on_short_grid(gauss_profile):
    grid = radial_density_grid(gauss_profile, 0.0, r_max=1.0)
    assert grid.coverage_warning
    assert grid.grid_norm < 1.0 - 1e-6


def test_grid_validation(gauss_profile):
    with pytest.raises(InvalidParameterError):
        radial_density_grid(gauss_profile, 0.0, r_max=0.0)
    with pytest.raises(InvalidParameterError):
        radial_density_grid(gauss_profile, 0.0, n_points=8)


def test_grid_points_must_be_an_integer(monkeypatch, gauss_profile):
    # rejected before any work, a whole float too; NumPy integers pass
    def no_work(*args, **kwargs):
        raise AssertionError("work done before n_points was checked")

    monkeypatch.setattr(propagation, "amplitude_on_radii", no_work)
    for n_points in (100.5, 100.0):
        with pytest.raises(InvalidParameterError, match="integer"):
            radial_density_grid(gauss_profile, 0.0, n_points=n_points)
    monkeypatch.undo()
    grid = radial_density_grid(gauss_profile, 0.0, n_points=np.int64(100))
    assert grid.r_grid.size == 100


def test_exponential_density_peaks_at_center(expo_profile):
    for n_points in (2048, 20480):
        grid = radial_density_grid(expo_profile, 0.0, n_points=n_points)
        assert int(np.argmax(grid.density)) == 0


def test_quantile_radius(gauss_profile):
    grid = radial_density_grid(gauss_profile, 0.0)
    assert quantile_radius(grid, 0.0) == 0.0
    r50 = quantile_radius(grid, 0.5)
    r99 = quantile_radius(grid, 0.99)
    assert 0.0 < r50 < r99 < grid.r_grid[-1]
    assert 1.30 < r99 < 1.46
    with pytest.raises(InvalidParameterError):
        quantile_radius(grid, 1.5)


def _cap_weight_oracle(rho, R, d, n=200001):
    """Solid-angle fraction via trapezoid of the inside indicator in cos."""
    u = np.linspace(-1.0, 1.0, n)
    dist_sq = d * d + rho[:, None] ** 2 + 2.0 * d * rho[:, None] * u[None, :]
    inside = (dist_sq <= R * R).astype(float)
    return 0.5 * np.trapezoid(inside, u, axis=1)


@pytest.mark.parametrize("R,d", [(2.0, 1.0), (1.0, 2.5), (3.0, 3.0),
                                 (2.0, 0.5)])
def test_cap_weight_matches_indicator_oracle(R, d):
    rho = np.linspace(0.01, R + d + 1.0, 57)
    got = sphere_cap_weight(rho, R, d)
    assert np.max(np.abs(got - _cap_weight_oracle(rho, R, d))) < 1e-4


def test_cap_weight_limit_regions():
    rho = np.linspace(0.0, 8.0, 101)
    w = sphere_cap_weight(rho, 3.0, 1.0)
    assert np.all(w[rho <= 2.0] == 1.0)
    assert np.all(w[rho >= 4.0] == 0.0)
    w = sphere_cap_weight(rho, 1.0, 3.0)
    assert np.all(w[rho <= 2.0] == 0.0)
    assert np.all(w[rho >= 4.0] == 0.0)


def test_cap_weight_concentric_indicator():
    rho = np.array([0.0, 0.5, 1.999, 2.001, 5.0])
    assert np.array_equal(sphere_cap_weight(rho, 2.0, 0.0),
                          np.array([1.0, 1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("R", [0.0, 5e-324, 1e-300, 0.5, 2.0, 1e150,
                               1.7e308])
def test_cap_weight_concentric_edges_are_exact(R):
    # the general formula alone must give the indicator bit for bit
    rng = np.random.default_rng(7)
    rho = np.concatenate((
        [0.0, 5e-324, R, np.nextafter(R, 0.0), np.nextafter(R, np.inf),
         2.0 * R, 1e308, np.inf],
        R * rng.uniform(0.0, 1.0, 1000), R * rng.uniform(1.0, 1.05, 1000),
        rng.uniform(0.0, 10.0, 1000)))
    w = sphere_cap_weight(rho, R, 0.0)
    expected = (rho < R).astype(float)
    assert np.array_equal(w, expected)
    assert not np.any(np.signbit(w))


def test_cap_weight_keeps_the_shape_of_rho():
    rho = np.array([[0.5, 1.5], [3.0, np.nan]])
    w = sphere_cap_weight(rho, 2.0, 1.0)
    assert w.shape == (2, 2)
    assert np.array_equal(w, [[1.0, 0.625], [0.0, np.nan]], equal_nan=True)
    assert sphere_cap_weight(1.5, 2.0, 1.0).shape == ()
    assert float(sphere_cap_weight(1.5, 2.0, 1.0)) == 0.625


@settings(max_examples=200, deadline=None)
@given(R=st.floats(0.1, 5.0), d=st.floats(0.0, 5.0),
       rho=st.floats(0.001, 12.0))
def test_cap_weight_bounded(R, d, rho):
    w = float(sphere_cap_weight(np.array([rho]), R, d)[0])
    assert 0.0 <= w <= 1.0


@settings(max_examples=200, deadline=None)
@given(R=st.floats(2.0 ** -10, 2.0 ** 10),
       d=st.just(0.0) | st.floats(2.0 ** -10, 2.0 ** 10),
       fractions=st.lists(st.floats(0.0, 1.25), min_size=1, max_size=20),
       m=st.integers(-1000, 1000))
def test_cap_weight_is_exact_under_powers_of_two(R, d, fractions, m):
    # radii up to 1.25 (R + d) reach every case; none may be subnormal
    rho = np.array(fractions) * (R + d)
    scaled = np.ldexp(rho, m)
    assume(np.all((rho == 0.0) |
                  (np.minimum(rho, scaled) >= np.finfo(float).tiny)))
    assert np.array_equal(
        sphere_cap_weight(scaled, math.ldexp(R, m), math.ldexp(d, m)),
        sphere_cap_weight(rho, R, d))


@pytest.mark.parametrize("length", [2.2250738585072014e-308,
                                    4.0194834632912396e-283, 1e-200])
def test_outside_probability_at_tiny_lengths(length):
    # u* of the cap weight at d = R this small was 0/0, a RuntimeWarning
    # that pyproject.toml turns into an error
    profile = make_profile(GaussianFamily(k0=1.0, sigma=1.0),
                           offset_d=length)
    assert outside_probability(profile, length, 0.0) == 1.0


def test_inside_probability_frozen(gauss_profile, gauss_d10, expo_profile):
    assert inside_probability(gauss_profile, 2.0, 0.0) == pytest.approx(
        INSIDE_G_D0_R2_T0, abs=1e-6)
    assert inside_probability(gauss_d10, 2.0, 10.0) == pytest.approx(
        INSIDE_G_D10_R2_T10, abs=1e-6)
    assert inside_probability(expo_profile, 2.0, 0.0) == pytest.approx(
        INSIDE_E_D0_R2_T0, abs=1e-6)


def test_inside_probability_edge_radii(gauss_profile, expo_profile):
    assert inside_probability(gauss_profile, 0.0, 5.0) == 0.0
    assert inside_probability(gauss_profile, 25.0, 0.0) == pytest.approx(
        1.0, abs=1e-6)
    assert inside_probability(expo_profile, 60.0, 0.0) == pytest.approx(
        1.0, abs=1e-6)


def test_inside_probability_ball_below_resolution(gauss_d3):
    # d - R and d + R round to the same float: an empty radial support, and
    # no probability inside, where the rule once failed on an empty array
    assert inside_probability(gauss_d3, 1e-38, 1.0) == 0.0
    assert inside_probability(gauss_d3, 1e-300, 0.0) == 0.0
    # a concentric ball narrower than the smallest normal float
    concentric = dataclasses.replace(gauss_d3, offset_d=0.0)
    assert inside_probability(concentric, 5e-324, 0.0) == 0.0


def test_inside_probability_monotone_in_radius(gauss_profile):
    values = np.array([inside_probability(gauss_profile, R, 0.0)
                       for R in np.linspace(0.0, 4.0, 20)])
    assert np.all(np.diff(values) >= -1e-9)


def test_inside_probability_recentering(gauss_d3, gauss_profile):
    # Moving the packet center to the origin must reproduce the concentric
    # geometry whatever offset the profile was built with.
    moved = inside_probability(dataclasses.replace(gauss_d3, offset_d=0.0),
                               1.5, 2.0)
    concentric = inside_probability(gauss_profile, 1.5, 2.0)
    base = inside_probability(gauss_d3, 1.5, 2.0)
    assert moved == pytest.approx(concentric, rel=1e-12)
    assert moved > base  # packet starts centered, so more mass is inside


def test_inside_sweep_matches_scalar(gauss_d3):
    ts = np.array([0.0, 2.5, 7.0])
    sweep = inside_probability_sweep(gauss_d3, 2.0, ts)
    scalars = np.array([inside_probability(gauss_d3, 2.0, t) for t in ts])
    assert np.max(np.abs(sweep - scalars)) < 1e-9


# inside_probability_sweep at t = 0, 1.7 and 13 on the standard Gaussian
# profile, as float.hex, with rho panels resolving k_max and the ladder
# from 1 panel per period.  Each value sits within 6e-16 of
# _dense_inside_probability, whose sums use the direct sin(z) / z table; a
# change that moves a bit must show that it stays as close.
SWEEP_BITS = {
    (0.0, 1.5): ["0x1.fdc711bf97a1dp-1", "0x1.6422d0b69ec69p-2",
                 "0x1.6d2c9a1eef58bp-39"],
    (1.0, 2.0): ["0x1.fcf2a95a97228p-1", "0x1.15a5ca2eedb9dp-1",
                 "0x1.37b12946cb9b2p-38"],
    (6.0, 2.0): ["0x1.8be677bab1902p-40", "0x1.80fe14cef6d68p-27",
                 "0x1.44cf3e8b1acc8p-38"],
}


@pytest.mark.parametrize("d,R", list(SWEEP_BITS),
                         ids=["d0", "kink", "far"])
def test_inside_sweep_bits_frozen(d, R):
    profile = make_profile(GaussianFamily(k0=5.0, sigma=1.0), offset_d=d)
    got = inside_probability_sweep(profile, R, np.array([0.0, 1.7, 13.0]))
    assert [float(p).hex() for p in got] == SWEEP_BITS[d, R]


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=200, deadline=None)
@given(k=st.lists(st.floats(0.0, 1e3) | _SIGNED_ZEROS, min_size=1,
                  max_size=16),
       t=st.lists(st.floats(-1e4, 1e4) | _SIGNED_ZEROS, min_size=1,
                  max_size=8),
       data=st.data())
def test_phase_coeffs_bit_equal_complex_exp(k, t, data):
    # cos and sin into the real and imaginary parts give the bits of the
    # complex exp they replace, signed zeros included
    k, t = np.array(k), np.array(t)
    envelope = np.array(data.draw(st.lists(
        st.floats(0.0, 10.0), min_size=k.size, max_size=k.size)))
    got = propagation._phase_coeffs(envelope, k, t)
    expected = envelope[:, None] * np.exp(-1j * np.multiply.outer(k, t))
    assert got.tobytes() == expected.tobytes()


_EPS = float(np.finfo(float).eps)


@settings(max_examples=200, deadline=None)
@given(k=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=16),
       start=st.floats(-50.0, 50.0),
       span=st.floats(1e-6, 100.0),
       n=st.integers(2, MAX_TIME_GRID),
       form=st.sampled_from([EvenGrid.linspace,
                             EvenGrid.between]),
       data=st.data())
def test_even_times_coeffs_match_direct(k, start, span, n, form, data):
    # coefficients by doubling against cos and sin at every time.  The
    # direct path is off by about eps |k t|; the squares of the step carry
    # its rounding along, so column i can be off by i eps / 2 more
    k = np.array(k)
    # a subnormal envelope rounds by more than eps times itself
    envelope = np.array(data.draw(st.lists(
        st.floats(0.0, 10.0, allow_subnormal=False), min_size=k.size,
        max_size=k.size)))
    times = form(start, start + span, n)
    got = propagation._phase_coeffs(envelope, k, times)
    expected = propagation._phase_coeffs(envelope, k, times.nodes)
    assert got.shape == expected.shape == (k.size, times.nodes.size)
    max_kt = k * np.max(np.abs(times.nodes))
    bound = 4.0 * _EPS * (n + max_kt) * envelope
    assert np.all(np.abs(got - expected) <= bound[:, None])


@pytest.mark.parametrize("family", [GaussianFamily(k0=5.0, sigma=1.0),
                                    ExponentialFamily(kappa=2.0)],
                         ids=["gauss", "expo"])
@pytest.mark.parametrize("t", [0.0, -1.25, 3.7])
def test_one_time_grid_gives_array_bits(family, t):
    profile = make_profile(family, offset_d=1.0)
    ball = propagation.BallQuadrature(profile, 2.0, 8.0)
    # the one inner time of [t - 1, t + 1] is t itself
    times = EvenGrid.between(t - 1.0, t + 1.0, 1)
    assert times.nodes.tolist() == [t]
    assert ball.p_in(times).tobytes() == ball.p_in(np.array([t])).tobytes()


def test_ball_quadrature_rejects_times_past_t_max(gauss_d3):
    ball = propagation.BallQuadrature(gauss_d3, 1.0, 6.5)
    assert ball.p_in(np.array([-6.5, 0.0, 6.5])).shape == (3,)
    for ts in ([0.0, 6.5 + 1e-9], [-7.0], [math.nan], []):
        with pytest.raises(InvalidParameterError):
            ball.p_in(np.array(ts))
    for t_max in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            propagation.BallQuadrature(gauss_d3, 1.0, t_max)


def test_ball_quadrature_reuses_its_tables(monkeypatch, gauss_d3):
    # a second call fills no table and gives the bits of a fresh quadrature
    ts = np.array([0.0, 2.5, 7.0])
    expected = propagation.BallQuadrature(gauss_d3, 2.0, 7.0).p_in(ts[:2])
    ball = propagation.BallQuadrature(gauss_d3, 2.0, 7.0)
    fills = []
    real = _kernels._ACTIVE.j0_table
    monkeypatch.setattr(_kernels._ACTIVE, "j0_table",
                        lambda rule, k: fills.append(1) or real(rule, k))
    ball.p_in(ts)
    first = len(fills)
    assert first > 0
    assert ball.p_in(ts[:2]).tobytes() == expected.tobytes()
    assert len(fills) == first


def _level_coeffs(envelope, k, t):
    """One level's phase coefficients filled on their own: for an even
    grid, the first time's as an array holding it, then the step's row."""
    if not isinstance(t, EvenGrid):
        return envelope[:, None] * _kernels.exp_ikx(np.negative(t), k).T
    out = np.empty((t.size, k.size), dtype=np.complex128)
    out[0] = _level_coeffs(envelope, k, t.nodes[:1])[:, 0]
    step = _kernels.exp_ikx(np.array([-t.step]), k)[0]
    return _kernels.fill_by_doubling(out, step).T


def _p_in_per_level(ball, times):
    """``ball.p_in(times)`` with every level's coefficients filled on their
    own."""
    def evaluate(panels_per_period):
        level = ball._level(panels_per_period)
        k = level.table.k
        amp = _kernels.weighted_j0_gemm(
            level.table, k, _level_coeffs(level.envelope, k, times))
        return level.weights @ (amp.real ** 2 + amp.imag ** 2)

    return propagation._converged(evaluate, ball.prob_tol, "ball")[0]


@pytest.mark.parametrize("keep", ["kept", "streamed", "first-kept"])
@pytest.mark.parametrize("family,d,R,t_max,prob_tol,n_levels", [
    (GaussianFamily(k0=5.0, sigma=1.0), 3.0, 1.0, 6.5, 1e-8, 2),
    (ExponentialFamily(kappa=2.0), 0.0, 1.0, 6.5, 1e-8, 2),
    # climbs to DENSITY_LADDER[3], past the two levels filled together
    (ExponentialFamily(kappa=1.25), 1.5, 1.5, 4.0, 1e-14, 4),
], ids=["gauss", "expo", "expo-climbs"])
def test_first_two_levels_share_one_fill(monkeypatch, family, d, R, t_max,
                                         prob_tol, n_levels, keep):
    # the first two levels' coefficients come from one fill over their k
    # nodes joined end to end; each level's result must have the bits of a
    # fill of its own, on sweeps, arrays and one time, and on a second
    # call, which reuses the joined nodes
    profile = make_profile(family, offset_d=d)
    results = []
    real = propagation._converged

    def recording(evaluate, tol, what):
        def recorded(panels_per_period):
            result = evaluate(panels_per_period)
            results.append(result.tobytes())
            return result
        return real(recorded, tol, what)

    monkeypatch.setattr(propagation, "_converged", recording)
    if keep == "first-kept":
        sizing = propagation.BallQuadrature(profile, R, t_max, prob_tol)
        first = sizing._level(propagation.DENSITY_LADDER[0])
        monkeypatch.setattr(_kernels, "MAX_KEPT_TABLE_BYTES",
                            2 * first.table.nbytes)
    elif keep == "streamed":
        monkeypatch.setattr(_kernels, "MAX_KEPT_TABLE_BYTES", 0)
    calls = [EvenGrid.linspace(0.0, t_max, 32),
             EvenGrid.between(1.0, 2.0, 16),
             np.array([t_max, 0.0, -1.7]),
             np.array([1.25])]
    ball, reference = (
        propagation.BallQuadrature(profile, R, t_max, prob_tol)
        for _ in range(2))
    for times in calls:
        # the result, then every level's that the guard compared
        got = [ball.p_in(times).tobytes(), *results]
        results.clear()
        expected = [_p_in_per_level(reference, times).tobytes(), *results]
        results.clear()
        assert got == expected
    ladder = propagation.DENSITY_LADDER[:n_levels]
    assert sorted(ball._levels) == list(ladder)
    kept = [ball._levels[p].table.blocks is not None for p in ladder]
    assert kept == {"kept": [True] * n_levels,
                    "streamed": [False] * n_levels,
                    "first-kept": [True] + [False] * (n_levels - 1)}[keep]


def test_profile_k_sides_follow_the_frequency():
    # one profile at alternating k-rule frequencies: |t| = 12, then the
    # ball's rho_max (t = 0.5 < d + R), then the grid's largest radius, then
    # |t| = 12 again.  A slot built at another frequency must never serve a
    # call: every result has the bits of the same call on a fresh profile
    def fresh():
        return make_profile(GaussianFamily(k0=5.0, sigma=1.0), offset_d=3.0)

    calls = [lambda p: inside_probability(p, 1.0, 12.0),
             lambda p: inside_probability(p, 1.0, 0.5),
             lambda p: amplitude_on_radii(
                 p, EvenGrid.linspace(0.0, 6.0, 97), 0.5),
             lambda p: inside_probability(p, 1.0, 12.0)]
    profile = fresh()
    for call in calls:
        assert (np.asarray(call(profile)).tobytes()
                == np.asarray(call(fresh())).tobytes())
        assert 0 < len(profile._k_sides) <= len(propagation.DENSITY_LADDER)
    for _, k, envelope in profile._k_sides.values():
        for stored in (k, envelope):
            with pytest.raises(ValueError):
                stored[0] = 1.0
    # the store is no part of the profile's value
    assert profile == fresh() and hash(profile) == hash(fresh())
    assert "_k_sides" not in repr(profile)


def test_profile_k_sides_shared_across_threads():
    # threads that share one profile at two frequencies keep replacing each
    # other's slots; each reads a slot's (frequency, k, envelope) at once,
    # so every result keeps the bits of a fresh profile's
    family = ExponentialFamily(kappa=2.0)
    expected = {t: inside_probability(make_profile(family, 3.0), 1.0, t)
                for t in (0.5, 12.0)}
    profile = make_profile(family, 3.0)
    got = []

    def work(t):
        for _ in range(20):
            got.append(inside_probability(profile, 1.0, t) == expected[t])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in (0.5, 12.0, 0.5, 12.0)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [True] * 80


def test_kept_tables_filled_across_threads():
    # threads that share one quadrature may each fill a level's table on
    # its first call of many times; one fill is kept, and every result
    # keeps the bits of a fresh quadrature's
    profile = make_profile(ExponentialFamily(kappa=2.0), 0.0)
    ts = np.array([0.0, 2.5, 7.0])
    expected = propagation.BallQuadrature(profile, 6.0, 7.0).p_in(ts)
    ball = propagation.BallQuadrature(profile, 6.0, 7.0)
    got = []

    def work():
        for _ in range(5):
            got.append(ball.p_in(ts).tobytes() == expected.tobytes())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [True] * 20
    assert all(level.table.blocks for level in ball._levels.values())


def _n_blocks(rule):
    """How many j0 table blocks a gemm fills on the nodes of ``rule``."""
    return len(range(0, rule.centres.size, _kernels._GEMM_CHUNK_PANELS))


def _counting_fills(monkeypatch):
    """A list that gains one entry per j0 table block filled."""
    fills = []
    real = _kernels._ACTIVE.j0_table
    monkeypatch.setattr(_kernels._ACTIVE, "j0_table",
                        lambda rule, k: fills.append(1) or real(rule, k))
    return fills


@pytest.mark.parametrize("family,d", [
    (GaussianFamily(k0=5.0, sigma=1.0), 3.0),
    # level 2's rho rule spans two blocks of 32 panels
    (ExponentialFamily(kappa=2.0), 0.0),
], ids=["gauss", "expo"])
def test_levels_past_the_budget_stream_their_tables(monkeypatch, family, d):
    # a quadrature whose levels are all past MAX_KEPT_TABLE_BYTES keeps no
    # table and fills every block again on each call, to the bits of one
    # that keeps them, whose blocks are contracted one at a time too
    profile = make_profile(family, offset_d=d)
    ts = np.array([0.0, 2.5, 7.0])
    kept = propagation.BallQuadrature(profile, 6.0, 7.0)
    expected = [kept.p_in(ts), kept.p_in(ts[:2])]
    fills = _counting_fills(monkeypatch)
    monkeypatch.setattr(_kernels, "MAX_KEPT_TABLE_BYTES", 0)
    ball = propagation.BallQuadrature(profile, 6.0, 7.0)
    assert ball.p_in(ts).tobytes() == expected[0].tobytes()
    first = len(fills)
    assert first > 2  # more blocks than levels
    assert ball.p_in(ts[:2]).tobytes() == expected[1].tobytes()
    second = len(fills) - first
    assert all(level.table.blocks is None
               for level in ball._levels.values())
    # every block again, as many as a quadrature that keeps them fills once
    monkeypatch.undo()
    fills = _counting_fills(monkeypatch)
    propagation.BallQuadrature(profile, 6.0, 7.0).p_in(ts[:2])
    assert second == len(fills)


@settings(max_examples=100, deadline=None)
@given(family=st.one_of(
           st.builds(GaussianFamily, k0=st.floats(0.5, 16.0),
                     sigma=st.floats(0.1, 4.0)),
           st.builds(ExponentialFamily, kappa=st.floats(0.25, 8.0))),
       d=st.floats(0.0, 10.0), R=st.floats(1e-3, 10.0),
       t_max=st.floats(0.0, 40.0))
def test_each_level_table_takes_twice_the_bytes_below(family, d, R, t_max):
    # the k nodes double from one ladder level to the next and the rho
    # nodes never shrink, so each level's table takes at least twice the
    # bytes of the level below.  A table keeps its blocks when twice its
    # bytes fit in the bound, so the tables a quadrature keeps over all its
    # levels stay under the bound, here at every bound that keeps a level
    ball = propagation.BallQuadrature(make_profile(family, offset_d=d), R,
                                      t_max)
    sizes = [ball._level(p).table.nbytes for p in propagation.DENSITY_LADDER]
    assert sizes[0] > 0
    assert all(above >= 2 * below for below, above in zip(sizes, sizes[1:]))
    for bound in (2 * size for size in sizes):
        assert sum(size for size in sizes if 2 * size <= bound) <= bound


@pytest.mark.parametrize("family,d", [
    (GaussianFamily(k0=5.0, sigma=1.0), 3.0),
    (ExponentialFamily(kappa=2.0), 0.0),
], ids=["gauss", "expo"])
def test_only_calls_of_many_times_fill_tables(monkeypatch, family, d):
    # one default quadrature: a call of one time fills no table and gives
    # the bits of inside_probability; the next call of 16 times fills each
    # block once and keeps it, and a further call fills none, with the bits
    # of a fresh quadrature's.  A level past the budget streams on every
    # call, with the kept bits
    profile = make_profile(family, offset_d=d)
    R, t = 6.0, -7.0
    ts = EvenGrid.linspace(0.0, 7.0, 16)
    expected_one = inside_probability(profile, R, t)
    expected_many = propagation.BallQuadrature(profile, R, 7.0).p_in(ts)

    def no_fill(rule, k):
        raise AssertionError("a call of one time filled a j0 table")

    ball = propagation.BallQuadrature(profile, R, abs(t))
    with monkeypatch.context() as patch:
        patch.setattr(_kernels._ACTIVE, "j0_table", no_fill)
        assert ball.p_in(np.array([t]))[0] == expected_one
    assert all(level.table.blocks is None
               for level in ball._levels.values())

    fills = _counting_fills(monkeypatch)
    assert ball.p_in(ts).tobytes() == expected_many.tobytes()
    blocks = sum(_n_blocks(level.table.rule)
                 for level in ball._levels.values())
    assert len(fills) == blocks
    assert all(level.table.blocks is not None
               for level in ball._levels.values())
    assert ball.p_in(ts).tobytes() == expected_many.tobytes()
    assert len(fills) == blocks

    # room for the first level's table only: the levels above it stream on
    # every call of many times
    sizing = propagation.BallQuadrature(profile, R, 7.0)
    monkeypatch.setattr(
        _kernels, "MAX_KEPT_TABLE_BYTES",
        2 * sizing._level(propagation.DENSITY_LADDER[0]).table.nbytes)
    fills.clear()
    ball = propagation.BallQuadrature(profile, R, 7.0)
    for _ in range(2):
        assert ball.p_in(ts).tobytes() == expected_many.tobytes()
    first, *above = (ball._levels[p].table for p in sorted(ball._levels))
    assert first.blocks is not None
    assert above and all(table.blocks is None for table in above)
    assert len(fills) == blocks + sum(_n_blocks(table.rule)
                                      for table in above)


def test_inside_probability_validation(gauss_profile):
    with pytest.raises(InvalidParameterError):
        inside_probability(gauss_profile, -1.0, 0.0)
    # a profile built without make_profile skips its offset check
    for offset_d in (-1.0, math.nan):
        with pytest.raises(InvalidParameterError):
            inside_probability(
                dataclasses.replace(gauss_profile, offset_d=offset_d),
                2.0, 0.0)
    with pytest.raises(NumericFailureError):
        inside_probability(gauss_profile, 2.0, 0.0, prob_tol=1e-18)


@pytest.mark.parametrize("call", [
    lambda g: inside_probability(g, 2.0, math.nan),
    lambda g: inside_probability(g, 2.0, math.inf),
    lambda g: inside_probability(g, math.nan, 0.0),
    lambda g: amplitude_on_radii(g, np.array([math.nan]), 0.0),
    lambda g: amplitude_on_radii(g, np.array([1.0]), math.nan),
    lambda g: inside_probability_sweep(g, 2.0, np.array([])),
], ids=["t_nan", "t_inf", "R_nan", "r_nan", "amp_t_nan", "empty_sweep"])
def test_non_finite_or_empty_input_raises(gauss_profile, call):
    with pytest.raises(InvalidParameterError):
        call(gauss_profile)


@pytest.mark.parametrize("call", [
    lambda g: inside_probability_sweep(g, 1.0, np.array([[0.0, 1.0],
                                                         [2.0, 3.0]])),
    lambda g: inside_probability_sweep(g, 1.0, np.array([[0.5]])),
    lambda g: amplitude_on_radii(g, np.array([[0.0, 1.0], [2.0, 3.0]]), 0.0),
    lambda g: tradeoff_curve(g, Priors(0.5), [[1.0]], (0.0, 5.0),
                             fixed_t=0.0),
], ids=["sweep_2x2", "sweep_1x1", "radii_2x2", "curve_radii_1x1"])
def test_arrays_of_more_than_one_dimension_raise(call):
    with pytest.raises(InvalidParameterError, match="1-D"):
        call(make_profile(GaussianFamily(k0=5.0, sigma=1.0), offset_d=1.0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_not_finite_and_positive_raises(gauss_profile, tol):
    # R = 0 takes no quadrature, so the check sits with the argument checks
    for R in (0.0, 1.0):
        with pytest.raises(InvalidParameterError, match="prob_tol"):
            inside_probability(gauss_profile, R, 0.0, prob_tol=tol)
    with pytest.raises(InvalidParameterError, match="amp_tol"):
        amplitude_on_radii(gauss_profile, np.array([1.0]), 0.0, amp_tol=tol)


@pytest.mark.parametrize("call", [
    lambda g: inside_probability(g, 1.0, 1e15),
    lambda g: amplitude_on_radii(g, np.array([1e15]), 0.0),
    lambda g: inside_probability(g, 1.0, 1.7e308),
    lambda g: amplitude_on_radii(g, np.array([1.7e308]), 0.0),
], ids=["t_huge", "r_huge", "t_max_float", "r_max_float"])
def test_huge_time_or_radius_hits_panel_cap(gauss_profile, call):
    # the k rule would need ~4e15 panels, or more than a float holds:
    # refused before any allocation, without printing an overflowed count
    with pytest.raises(ResourceLimitError) as excinfo:
        call(gauss_profile)
    assert "inf" not in str(excinfo.value)


def _sin_over_z(z):
    """The direct np.sin(z) / z table, with j0(0) = 1 where z underflows."""
    with np.errstate(invalid="ignore"):
        return np.where(z == 0.0, 1.0, np.sin(z) / z)


def _direct_sums(r, k, coeffs):
    """sum_j coeffs[j, m] j0(k[j] r[i]) on the direct sin(z) / z table,
    filled 256 radii at a time: one real product with the [re|im] view of
    the coefficients per block, so it shares no code with the kernels."""
    stacked = np.ascontiguousarray(coeffs).view(np.float64)
    blocks = [_sin_over_z(np.multiply.outer(r[lo:lo + 256], k)) @ stacked
              for lo in range(0, r.size, 256)]
    return np.concatenate(blocks).view(np.complex128)


def _dense_inside_probability(profile, R, t, panels_per_period=32.0):
    """P_in on graded Gauss panels far denser than the library ever uses."""
    d = profile.offset_d
    lo, hi = max(0.0, d - R), d + R
    kink = abs(R - d)
    breaks = [lo, kink, hi] if lo < kink < hi else [lo, hi]
    rule = piecewise_gauss_panels(
        np.array(breaks), panel_width(2.0 * profile.k_max, panels_per_period))
    rho, w_rho = rule.nodes, rule.weights
    # the library's k frequency floor: the profile's own scale
    frequency = max(rho.max(), abs(t), 1.0 / profile.family.momentum_width)
    k_rule = graded_gauss_panels(
        0.0, profile.k_max, panel_width(frequency, panels_per_period), 24)
    k, w_k = k_rule.nodes, k_rule.weights
    coeffs = (w_k * k ** 1.5 * profile.magnitude(k) * np.exp(-1j * k * t)
              / math.sqrt(math.pi))
    amp = _direct_sums(rho, k, coeffs[:, None])[:, 0]
    weights = 4.0 * math.pi * w_rho * rho * rho * sphere_cap_weight(rho, R, d)
    return float(weights @ (amp.real ** 2 + amp.imag ** 2))


@pytest.fixture(scope="module")
def expo_narrow_d35():
    return make_profile(ExponentialFamily(kappa=0.55), offset_d=3.5)


@pytest.mark.parametrize("fixture,R,t", [
    ("gauss_profile", 2.0, 0.0),
    ("gauss_d3", 1.5, 2.0),
    ("gauss_d10", 2.0, 10.0),
    ("expo_profile", 2.0, 0.0),
    ("expo_narrow_d35", 1.0, 2.0),
])
def test_inside_probability_matches_dense_reference(fixture, R, t, request):
    profile = request.getfixturevalue(fixture)
    got = inside_probability(profile, R, t)
    assert abs(got - _dense_inside_probability(profile, R, t)) <= 1e-13


_FAMILIES = (
    st.builds(GaussianFamily, k0=st.floats(0.5, 8.0),
              sigma=st.floats(0.1, 1.5)) |
    st.builds(ExponentialFamily, kappa=st.floats(0.5, 2.0)))


@settings(max_examples=60, deadline=None)
@given(family=_FAMILIES,
       d=st.just(0.0) | st.floats(0.0, 8.0),
       R=st.floats(1e-3, 0.05) | st.floats(0.05, 6.0),
       t=st.just(0.0) | st.floats(0.0, 30.0))
# tiny balls that one rho panel covers at the first two levels: while the k
# rule halved its width, the levels agreed to the bit and to 5e-10 and the
# errors were 1.7e-13 and 2.3e-12
@example(family=GaussianFamily(k0=2.70077, sigma=0.51578), d=0.0,
         R=0.007194, t=0.0)
@example(family=GaussianFamily(k0=6.68836, sigma=0.41126), d=1.15,
         R=0.0267, t=0.0)
# a narrow profile inside the first k panel, whose graded panels a k rule
# that halved its width per level kept: the error was 6.6e-6 with levels 2
# and 4 agreeing to the bit
@example(family=GaussianFamily(k0=1.63506, sigma=0.11172), d=0.0,
         R=0.3231, t=0.0)
def test_ball_probability_within_tolerance_and_estimate(family, d, R, t):
    # wide balls, late times and tiny balls of both families.  Where the
    # ball and time are short the profile, not the oscillation, sets the
    # width of the reference's k panels, so it runs at 32 panels per
    # period there and at 8 elsewhere
    profile = make_profile(family, offset_d=d)
    ball = propagation.BallQuadrature(profile, R, t)
    estimates = []
    real = propagation._converged

    def recording(*args):
        result = real(*args)
        estimates.append(result[1])
        return result

    # one time takes the sums by angle addition, two the j0 tables
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "_converged", recording)
        got = [ball.p_in(np.array(ts))[0] for ts in ([t], [t, t])]
    density = 32.0 if max(d + R, t) < 4.0 else 8.0
    dense = _dense_inside_probability(profile, R, t, density)
    for value, estimate in zip(got, estimates):
        error = abs(value - dense)
        assert error <= ball.prob_tol
        assert error <= estimate + 1e-12


def test_tiny_ball_on_narrow_gaussian_within_tolerance():
    # with k panels that followed only max(rho, |t|), floored at 1, p_in
    # gave 1.8491930594e-06 against 1.7509249217e-06 from the dense
    # reference, 9.8e-8 apart and 10x past prob_tol
    profile = make_profile(GaussianFamily(k0=5.875, sigma=0.1))
    R = 0.0078125
    got = inside_probability(profile, R, 0.0)
    assert abs(got - _dense_inside_probability(profile, R, 0.0)) <= \
        propagation.DEFAULT_PROB_TOL


# the model has no length scale: (k, r, t) -> (lambda k, r / lambda,
# t / lambda) leaves p_t unchanged, and lambda = 2^m scales every input
# exactly; (family, d, R, t), the last the tiny ball on a narrow Gaussian
_DILATION_CASES = [
    (GaussianFamily(k0=5.0, sigma=1.0), 3.0, 1.0, 2.0),
    (ExponentialFamily(kappa=2.0), 1.5, 1.5, 1.0),
    (GaussianFamily(k0=1.0, sigma=0.5), 0.0, 2.0, 0.0),
    (GaussianFamily(k0=5.875, sigma=0.1), 0.0, 0.0078125, 0.0),
]


def _dilated(family, scale):
    if isinstance(family, GaussianFamily):
        return GaussianFamily(k0=family.k0 * scale, sigma=family.sigma * scale)
    return ExponentialFamily(kappa=family.kappa * scale)


@pytest.mark.parametrize("family,d,R,t", _DILATION_CASES)
def test_p_t_is_dilation_invariant(family, d, R, t):
    # no rule may carry a length of its own: a unit length in the panel
    # widths raised ResourceLimitError at 2^-30 and 2^30.  Even m give the
    # same bits; at odd m the envelope's k^{3/2} scales by 2^{1.5 m}, which
    # is not a power of two, and rounds differently
    reference = outside_probability(make_profile(family, d), R, t)
    for m in range(-40, 41):
        scale = 2.0 ** m
        profile = make_profile(_dilated(family, scale), d / scale)
        got = outside_probability(profile, R / scale, t / scale)
        if m % 2 == 0:
            assert got == reference, m
        else:
            assert abs(got - reference) <= 1e-15, m


@settings(max_examples=200, deadline=None)
@given(family=st.builds(GaussianFamily, k0=st.floats(0.05, 50.0),
                        sigma=st.floats(0.01, 32.0)) |
       st.builds(ExponentialFamily, kappa=st.floats(1e-3, 1e3)),
       d=st.just(0.0) | st.floats(0.0, 10.0),
       t=st.just(0.0) | st.floats(-20.0, 20.0))
# the old exponential extent added 10 kappa, a wavenumber, to d + |t|
@example(family=ExponentialFamily(2.0), d=0.0, t=0.0)
def test_k_max_and_default_extent_dilate_exactly(family, d, t):
    # the cut's candidates and the default grid extent are the profile's
    # own scale times numbers fixed by the family's shape, so lambda = 2^m
    # moves them by exact powers of two
    profile = make_profile(family, d)
    norm_power = 1 if isinstance(family, GaussianFamily) else 2
    for m in range(-40, 41):
        scale = 2.0 ** m
        dilated = make_profile(_dilated(family, scale), d / scale)
        assert dilated.k_max == profile.k_max * scale, m
        assert dilated.norm_const == \
            profile.norm_const / scale ** norm_power, m
        assert default_r_max(dilated, t / scale) == \
            default_r_max(profile, t) / scale, m


def _dense_amplitude(profile, r, t):
    """A(r, t) over the profile's own [0, k_max] on graded Gauss panels far
    denser than the library ever uses, summed on the direct j0 table."""
    frequency = max(float(np.max(r)), abs(t),
                    1.0 / profile.family.momentum_width)
    width = min(panel_width(frequency, 16.0), 0.02)
    rule = graded_gauss_panels(0.0, profile.k_max, width, 24)
    k = rule.nodes
    coeffs = (rule.weights * k ** 1.5 * profile.magnitude(k) *
              np.exp(-1j * k * t) / math.sqrt(math.pi))
    return _direct_sums(r, k, coeffs[:, None])[:, 0]


@settings(max_examples=90, deadline=None)
@given(case=st.tuples(
    _FAMILIES,
    st.lists(st.just(0.0) | st.floats(0.0, 1.0) | st.floats(0.0, 20.0),
             min_size=1, max_size=4),
    st.just(0.0) | st.floats(-10.0, 10.0)) | st.tuples(
    # narrow Gaussians near the origin, where a unit length in the rules
    # once made the ladder's levels agree on a wrong value or refuse
    st.builds(GaussianFamily, k0=st.floats(0.5, 16.0),
              sigma=st.floats(0.01, 0.1)),
    st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1, max_size=4),
    st.just(0.0) | st.floats(-2.0, 2.0)))
# a narrow profile inside the first k panel, whose graded panels a k rule
# that halved its width per level kept: A(0) was 8.8e-5 off with levels 2
# and 4 agreeing to within amp_tol
@example(case=(GaussianFamily(k0=1.63506, sigma=0.11172), [0.0, 0.3], 0.0))
# a k rule whose panels followed only max(r, |t|), floored at 1, outran the
# ladder on this narrow fast profile and raised NumericFailureError
@example(case=(GaussianFamily(k0=8.0, sigma=0.1), [0.0], 0.0))
def test_amplitude_within_tolerance_and_estimate(case):
    family, r, t = case
    profile = make_profile(family)
    r = np.array(r)
    estimates = []
    real = propagation._converged

    def recording(*args):
        result = real(*args)
        estimates.append(result[1])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "_converged", recording)
        got = amplitude_on_radii(profile, r, t)
    error = np.max(np.abs(got - _dense_amplitude(profile, r, t)))
    assert error <= propagation.DEFAULT_AMP_TOL
    assert error <= estimates[0] + 1e-12


@pytest.mark.parametrize("t", [0.0, 2.0, 13.0, 40.0])
@pytest.mark.parametrize("fixture", ["gauss_profile", "gauss_d3",
                                     "expo_profile"])
def test_grid_centre_matches_amplitude_at_origin(fixture, t, request):
    # the grid's angle-addition row r = 0 against the direct sum at r = 0,
    # each on its own k rule
    profile = request.getfixturevalue(fixture)
    grid = radial_density_grid(profile, t, n_points=4097)
    at_origin = amplitude_on_radii(profile, [0.0], t)[0]
    assert abs(grid.amp[0] - at_origin) <= 1e-13


def test_oracle_agrees_on_coarse_grid(gauss_profile):
    exact = inside_probability(gauss_profile, 2.0, 0.0)
    brute = oracle3d.inside_probability_3d(gauss_profile, 2.0, 0.0, grid_n=64)
    assert abs(brute - exact) / exact < 1e-3


def test_oracle_reaches_unity_on_covering_ball(gauss_profile):
    # A ball holding essentially all the mass must integrate to 1 within
    # the oracle's own resolution.
    brute = oracle3d.inside_probability_3d(gauss_profile, 4.0, 0.0, grid_n=64)
    assert brute == pytest.approx(1.0, abs=2e-3)


def test_oracle_fold_matches_per_cell_count():
    # on a dyadic grid every sum is exact, so one count per class of
    # mirrored and axis-swapped cells must give each cell's own count
    _, centres, h = oracle3d.cells(1.0, 32)
    frac, centroid = oracle3d.cell_inside_fractions(centres, 1.0, h)
    for cell, got_frac, got_centroid in zip(centres, frac, centroid):
        points = cell + h * oracle3d.SUBCELLS
        inside = points[np.sum(points * points, axis=1) <= 1.0]
        assert got_frac == len(inside) / len(points)
        assert np.array_equal(got_centroid, inside.mean(axis=0)
                              if len(inside) else cell)


@pytest.mark.parametrize("grid_n", [16, 17])
@pytest.mark.parametrize("d", [0.0, 0.7, 3.0])
def test_oracle_folded_interior_keeps_per_radius_sums(grid_n, d):
    # one interior cell per mirror-and-swap class, weighted by its class's
    # count, against every interior cell: the same radii and sums, to the
    # bit; an odd grid has cells on the x = 0 and y = 0 planes
    inner, boundary, h = oracle3d.cells(1.0, grid_n)
    kept, count = oracle3d.fold_interior(inner)
    assert np.sum(count) == len(inner)
    assert len(kept) < len(inner) / 4
    folded = oracle3d.per_radius(*oracle3d.sample_radii(
        kept, count, boundary, 1.0, d, h))
    unfolded = oracle3d.per_radius(*oracle3d.sample_radii(
        inner, np.ones(len(inner)), boundary, 1.0, d, h))
    for got, expected in zip(folded, unfolded):
        assert got.tobytes() == expected.tobytes()


def test_amplitude_norm_invariance_against_rescaled_profile(gauss_profile):
    # Doubling the profile amplitude quadruples every probability.
    doubled = dataclasses.replace(gauss_profile,
                                  norm_const=2.0 * gauss_profile.norm_const)
    base = inside_probability(gauss_profile, 1.0, 0.0)
    assert inside_probability(doubled, 1.0, 0.0) == pytest.approx(4.0 * base,
                                                                  rel=1e-9)


def test_piecewise_rule_shares_one_half_width_per_interval():
    rule = piecewise_gauss_panels(np.array([0.0, 1.3, 1.3, 9.0]), 0.2)
    # 7 panels on [0, 1.3], none on the empty [1.3, 1.3], 39 on [1.3, 9]
    assert rule.centres.size == 46
    assert np.all(rule.half_widths[:7] == 1.3 / 14)
    assert np.all(rule.half_widths[7:] == 7.7 / 78)
    assert np.all(rule.nodes == (rule.centres[:, None] +
                                 rule.half_widths[:, None] *
                                 np.polynomial.legendre.leggauss(8)[0])
                  .ravel())
    assert np.all((rule.nodes > 0.0) & (rule.nodes < 9.0))
    # each nonempty interval is declared one run of evenly spaced panels
    assert rule.run_starts == (0, 7)
    assert rule.runs() == [(0, 7), (7, 46)]
    # the 8-point rule integrates degree-15 polynomials exactly
    assert rule.weights @ rule.nodes ** 15 == pytest.approx(9.0 ** 16 / 16,
                                                            rel=1e-13)


def test_subdivide_splits_every_panel():
    # halving the width of a graded rule keeps all of its graded panels;
    # subdividing splits each one, the innermost too
    rule = graded_gauss_panels(0.0, 3.0, 3.0, 4)
    halved = graded_gauss_panels(0.0, 3.0, 1.5, 4)
    assert np.isin(rule.centres, halved.centres).sum() == 4
    split = rule.subdivide(2)
    assert split.centres.size == 2 * rule.centres.size
    assert not np.any(np.isin(rule.centres, split.centres))
    lo = split.centres - split.half_widths
    hi = split.centres + split.half_widths
    assert np.allclose(lo[1::2], hi[::2], rtol=0.0, atol=1e-15)
    assert np.allclose((lo[::2] + hi[1::2]) / 2, rule.centres,
                       rtol=0.0, atol=1e-15)
    assert split.weights @ split.nodes ** 15 == pytest.approx(3.0 ** 16 / 16,
                                                              rel=1e-13)
    # split panels declare no runs: each is a run of its own
    assert split.run_starts is None
    assert split.runs()[:2] == [(0, 1), (1, 2)]
    same = rule.subdivide(1)
    assert np.all(same.nodes == rule.nodes)
    assert np.all(same.weights == rule.weights)
    n = MAX_PANELS // 2 + 1
    wide = PanelRule(np.arange(float(n)), np.full(n, 0.5))
    with pytest.raises(ResourceLimitError):
        wide.subdivide(2)


@pytest.mark.parametrize("times", [
    np.array([0.0]), np.array([13.0]), np.array([40.0]),
    np.linspace(0.0, 40.0, 32),
], ids=["t0", "t13", "t40", "sweep32"])
@pytest.mark.parametrize("family,d,R", [
    (GaussianFamily(k0=5.0, sigma=1.0), 0.0, 1.5),
    (GaussianFamily(k0=5.0, sigma=1.0), 1.0, 2.0),
    (GaussianFamily(k0=5.0, sigma=1.0), 6.0, 2.0),
    (ExponentialFamily(kappa=2.0), 0.0, 1.5),
    (ExponentialFamily(kappa=2.0), 1.0, 2.0),
    (ExponentialFamily(kappa=2.0), 6.0, 2.0),
], ids=["gauss-d0", "gauss-kink", "gauss-far", "expo-d0", "expo-kink",
        "expo-far"])
def test_sweep_matches_direct_table(monkeypatch, family, d, R, times):
    # the angle-addition table against the direct table on the same rules
    profile = make_profile(family, offset_d=d)
    got = inside_probability_sweep(profile, R, times)
    monkeypatch.setattr(
        propagation, "weighted_j0_gemm",
        lambda r, k, c: _direct_sums(r.rule.nodes, k, c))
    expected = inside_probability_sweep(profile, R, times)
    assert np.max(np.abs(got - expected)) <= 1e-14
