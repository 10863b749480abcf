"""Error calculus, time optimization, and the radius-error tradeoff."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lcdisc
from lcdisc import _kernels, discrimination, propagation
from lcdisc import (
    DiscriminationReport,
    InvalidParameterError,
    Priors,
    accessible_error,
    build_report,
    inaccessible_error,
    map_error,
    optimal_measurement_time,
    outside_probability,
    outside_probability_sweep,
    posteriors_on_unknown,
    strategy_error,
    total_error,
    tradeoff_curve,
)
from lcdisc.quadrature import EvenGrid

probs = st.floats(0.0, 1.0)


def test_priors_fields():
    priors = Priors(0.3)
    assert priors.pi0 == 0.3
    assert priors.pi1 == 0.7


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
def test_priors_validation(bad):
    with pytest.raises(InvalidParameterError):
        Priors(bad)


def test_posteriors_equal_priors():
    assert posteriors_on_unknown(Priors(0.3)) == (0.3, 0.7)
    assert posteriors_on_unknown(Priors(1.0)) == (1.0, 0.0)


def test_accessible_error_is_zero():
    assert accessible_error() == 0.0


def test_error_values():
    assert total_error(Priors(0.5), 1.0) == 0.5
    assert total_error(Priors(0.5), 0.0) == 0.0
    assert total_error(Priors(1.0), 0.7) == 0.0
    assert total_error(Priors(0.3), 0.5) == pytest.approx(2 * 0.3 * 0.7 * 0.5)
    assert map_error(Priors(0.3), 0.5) == pytest.approx(0.3 * 0.5)


@settings(max_examples=200)
@given(pi0=probs, p_t=probs)
def test_error_decomposition_identity(pi0, p_t):
    priors = Priors(pi0)
    total = total_error(priors, p_t)
    assert total == accessible_error() + inaccessible_error(priors, p_t)
    assert total == pytest.approx(2.0 * pi0 * (1.0 - pi0) * p_t, abs=1e-15)


@settings(max_examples=200)
@given(pi0=probs, p_t=probs)
def test_error_symmetry_and_bounds(pi0, p_t):
    mirrored = total_error(Priors(1.0 - pi0), p_t)
    assert total_error(Priors(pi0), p_t) == pytest.approx(mirrored, abs=1e-15)
    # Probability matching is maximized by even priors and never beats MAP.
    assert total_error(Priors(pi0), p_t) <= 0.5 * p_t + 1e-15
    assert map_error(Priors(pi0), p_t) <= total_error(Priors(pi0),
                                                      p_t) + 1e-15


def test_strategy_dispatch():
    priors = Priors(0.3)
    assert strategy_error("paper", priors, 0.5) == total_error(priors, 0.5)
    assert strategy_error("map", priors, 0.5) == map_error(priors, 0.5)
    with pytest.raises(InvalidParameterError):
        strategy_error("bogus", priors, 0.5)


def test_error_rejects_bad_probability():
    with pytest.raises(InvalidParameterError):
        total_error(Priors(0.5), 1.5)
    with pytest.raises(InvalidParameterError):
        map_error(Priors(0.5), float("nan"))


def test_outside_probability_complements_inside(gauss_profile):
    from lcdisc import inside_probability
    p_in = inside_probability(gauss_profile, 2.0, 0.0)
    assert outside_probability(gauss_profile, 2.0, 0.0) == pytest.approx(
        1.0 - p_in, abs=1e-12)
    assert outside_probability(gauss_profile, 0.0, 0.0) == 1.0
    assert outside_probability(gauss_profile, 25.0, 0.0) <= 1e-6


def test_outside_sweep_matches_scalar(gauss_d3):
    ts = np.array([0.0, 1.5, 4.0])
    sweep = outside_probability_sweep(gauss_d3, 1.0, ts)
    scalars = [outside_probability(gauss_d3, 1.0, t) for t in ts]
    assert np.max(np.abs(sweep - np.array(scalars))) < 1e-9


def test_optimal_time_concentric_prefers_t0(gauss_profile):
    # A packet already centered on the ball only spreads with time, so the
    # window edge t = 0 is optimal and the boundary warning must fire.
    sweep = outside_probability_sweep(gauss_profile, 2.0,
                                      np.linspace(0.0, 2.0, 12))
    assert np.all(np.diff(sweep) >= -1e-9)
    with pytest.warns(UserWarning, match="boundary"):
        best = optimal_measurement_time(gauss_profile, 2.0, (0.0, 2.0),
                                        n_grid=12)
    assert best.t_star == 0.0
    assert best.on_boundary


def test_optimal_time_degenerate_window(gauss_d10):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best = optimal_measurement_time(gauss_d10, 2.0, (5.0, 5.001))
    assert 5.0 <= best.t_star <= 5.001


def test_optimal_time_interior_minimum(gauss_d10):
    best = optimal_measurement_time(gauss_d10, 2.0, (6.0, 14.0), n_grid=17)
    assert 9.0 < best.t_star < 11.0
    assert not best.on_boundary
    # The reported value can never beat any directly evaluated time.
    ts = np.linspace(6.0, 14.0, 50)
    sweep = outside_probability_sweep(gauss_d10, 2.0, ts)
    assert best.p_t_star <= sweep.min() + 1e-12


def test_optimal_time_earliest_tie(gauss_profile):
    # R large enough that p_t is pinned at the clip floor over the whole
    # window; every candidate ties and the earliest time must win.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best = optimal_measurement_time(gauss_profile, 30.0, (0.0, 1.0),
                                        n_grid=9)
    assert best.t_star == 0.0


def test_optimal_time_sweep_count(gauss_d10, monkeypatch):
    # Every p_t evaluation, scalar or batched, is one p_in call on a ball
    # quadrature; a search makes all of its own on one quadrature.
    sweeps = []
    real = propagation.BallQuadrature.p_in

    def counting(self, t_values):
        sweeps.append(t_values)
        return real(self, t_values)

    monkeypatch.setattr(propagation.BallQuadrature, "p_in", counting)
    optimal_measurement_time(gauss_d10, 2.0, (0.0, 20.0))
    assert 2 <= len(sweeps) <= 8


def _search_fills(monkeypatch, profile):
    """The j0 table fills of one search, by block and k nodes, and the
    times of each of its sweeps."""
    fills, sweeps = [], []
    real_fill = _kernels._ACTIVE.j0_table
    real_p_in = propagation.BallQuadrature.p_in

    def fill(rule, k):
        fills.append((rule.centres.tobytes(), rule.half_widths.tobytes(),
                      k.tobytes()))
        return real_fill(rule, k)

    def p_in(self, t_values):
        sweeps.append(np.array(t_values))
        return real_p_in(self, t_values)

    with monkeypatch.context() as patch:
        patch.setattr(_kernels._ACTIVE, "j0_table", fill)
        patch.setattr(propagation.BallQuadrature, "p_in", p_in)
        optimal_measurement_time(profile, 1.0, (0.0, 6.5))
    return fills, sweeps


def test_search_fills_each_table_block_once(monkeypatch):
    profile = lcdisc.make_profile(lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
                                  offset_d=3.5)
    with monkeypatch.context() as patch:
        patch.setattr(discrimination, "TIME_TOL", 1e-2)
        short_fills, short_sweeps = _search_fills(monkeypatch, profile)
    fills, sweeps = _search_fills(monkeypatch, profile)
    # each (ladder level, block) pair is filled at most once per search,
    # however many zoom steps reuse it
    assert len(set(fills)) == len(fills)
    assert len(sweeps) > len(short_sweeps)
    assert len(fills) == len(short_fills)


def test_search_streams_levels_past_the_kept_table_budget(monkeypatch):
    # a budget with room for the first ladder level's table only: that level
    # is filled once per search, the second streams and is filled on every
    # sweep, and the search returns the bits of one that keeps both
    profile = lcdisc.make_profile(lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
                                  offset_d=3.5)
    first, second = propagation.DENSITY_LADDER[:2]
    sizing = propagation.BallQuadrature(profile, 1.0, 6.5)
    level1 = sizing._level(first)
    budget = sizing.kept_bytes
    level2 = sizing._level(second)
    assert 0 < budget < sizing.kept_bytes
    expected = optimal_measurement_time(profile, 1.0, (0.0, 6.5))

    fills, balls = [], []
    real_fill = _kernels._ACTIVE.j0_table
    real_p_in = propagation.BallQuadrature.p_in

    def p_in(self, t_values):
        balls.append(self)
        return real_p_in(self, t_values)

    monkeypatch.setattr(propagation, "MAX_KEPT_TABLE_BYTES", budget)
    monkeypatch.setattr(_kernels._ACTIVE, "j0_table",
                        lambda rule, k: fills.append(k.size) or
                        real_fill(rule, k))
    monkeypatch.setattr(propagation.BallQuadrature, "p_in", p_in)
    got = optimal_measurement_time(profile, 1.0, (0.0, 6.5))
    assert got == expected
    assert len(set(map(id, balls))) == 1
    assert balls[0].kept_bytes == budget
    # this search reaches the first two levels only
    n1, n2 = (len(range(0, level.table.rule.centres.size,
                        _kernels._GEMM_CHUNK_PANELS))
              for level in (level1, level2))
    assert fills.count(level1.k.size) == n1
    assert fills.count(level2.k.size) == n2 * len(balls)
    assert len(fills) == n1 + n2 * len(balls)


@pytest.mark.parametrize("family,d,R,t", [
    (lcdisc.GaussianFamily(k0=5.0, sigma=1.0), 1.5, 1.0, 20.0),
    # a kink in the rho rule: two runs of panels, the first from rho = 0
    (lcdisc.GaussianFamily(k0=4.0, sigma=0.8), 0.5, 2.0, 0.0),
    # level 2's rho rule spans two gemm blocks of panels
    (lcdisc.ExponentialFamily(kappa=2.0), 0.0, 6.0, 7.0),
], ids=["gauss", "kink", "expo-wide"])
def test_scalar_outside_probability_fills_no_table(monkeypatch, family, d,
                                                   R, t):
    # a p_t at one time contracts one column per ladder level, by angle
    # addition, and agrees with the kept tables' contraction, which a call
    # of two columns fills
    profile = lcdisc.make_profile(family, offset_d=d)
    kept = propagation.BallQuadrature(profile, R, t)
    expected = 1.0 - float(kept.p_in(np.array([t, t]))[0])
    assert all(level.table.blocks for level in kept._levels.values())

    def no_fill(rule, k):
        raise AssertionError("a scalar p_t filled a j0 table")

    monkeypatch.setattr(_kernels._ACTIVE, "j0_table", no_fill)
    assert outside_probability(profile, R, t) == pytest.approx(expected,
                                                               abs=1e-14)


@pytest.mark.parametrize("family", [
    lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
    lcdisc.ExponentialFamily(kappa=2.0),
], ids=["gauss", "expo"])
def test_search_quadrature_matches_fresh_sweeps(monkeypatch, family):
    # the zoom steps use the k rule of the window end; a fresh sweep uses
    # the k rule of its own latest time
    profile = lcdisc.make_profile(family, offset_d=3.5)
    _, sweeps = _search_fills(monkeypatch, profile)
    ball = propagation.BallQuadrature(profile, 1.0, 6.5)
    for ts in sweeps[1:]:
        fresh = propagation.inside_probability_sweep(profile, 1.0, ts)
        assert np.max(np.abs(ball.p_in(ts) - fresh)) <= \
            propagation.DEFAULT_PROB_TOL


@pytest.mark.parametrize("family", [
    lcdisc.GaussianFamily(k0=4.0, sigma=0.8),
    lcdisc.ExponentialFamily(kappa=0.5),
], ids=["gauss", "expo"])
def test_search_on_even_times_matches_search_on_arrays(monkeypatch, family):
    # the sweeps' coefficients by doubling against cos and sin at each time
    profile = lcdisc.make_profile(family, offset_d=3.5)
    got = optimal_measurement_time(profile, 1.0, (0.0, 6.5))
    real_p_in = propagation.BallQuadrature.p_in

    def p_in(self, t_values):
        assert isinstance(t_values, EvenGrid)
        return real_p_in(self, t_values.nodes)

    monkeypatch.setattr(propagation.BallQuadrature, "p_in", p_in)
    expected = optimal_measurement_time(profile, 1.0, (0.0, 6.5))
    assert got.t_star == expected.t_star
    assert abs(got.p_t_star - expected.p_t_star) <= 1e-15
    assert got.on_boundary == expected.on_boundary


def test_optimal_time_validation(gauss_profile):
    with pytest.raises(InvalidParameterError, match="t_lo < t_hi"):
        optimal_measurement_time(gauss_profile, 2.0, (1.0, 1.0))
    # a non-finite end is named as such, not as a misordered window
    for window in ((-math.inf, 6.0), (0.0, math.inf), (math.nan, 6.0),
                   (0.0, math.nan)):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            optimal_measurement_time(gauss_profile, 2.0, window)
    with pytest.raises(InvalidParameterError):
        optimal_measurement_time(gauss_profile, 2.0, (0.0, 1.0), n_grid=4)


def test_time_grid_must_be_an_integer(monkeypatch, gauss_d3):
    # rejected before any work, a whole float too; NumPy integers pass
    def no_work(*args, **kwargs):
        raise AssertionError("work done before n_grid was checked")

    monkeypatch.setattr(discrimination, "BallQuadrature", no_work)
    monkeypatch.setattr(discrimination, "outside_probability", no_work)
    for n_grid in (8.9, 32.0):
        with pytest.raises(InvalidParameterError, match="integer"):
            optimal_measurement_time(gauss_d3, 1.0, (0.0, 6.5),
                                     n_grid=n_grid)
        for fixed_t in (None, 1.0):
            with pytest.raises(InvalidParameterError, match="integer"):
                tradeoff_curve(gauss_d3, Priors(0.5), [1.0], (0.0, 6.5),
                               n_grid=n_grid, fixed_t=fixed_t)
    monkeypatch.undo()
    assert optimal_measurement_time(gauss_d3, 1.0, (0.0, 6.5),
                                    n_grid=np.int64(8)) == \
        optimal_measurement_time(gauss_d3, 1.0, (0.0, 6.5), n_grid=8)


def test_build_report_fields():
    report = build_report(Priors(0.3), R=2.0, t_meas=1.5, p_t=0.25)
    assert isinstance(report, DiscriminationReport)
    assert report.R == 2.0
    assert report.t_meas == 1.5
    assert report.p_t == 0.25
    assert report.P_e == pytest.approx(2 * 0.3 * 0.7 * 0.25)
    assert (report.posterior0, report.posterior1) == (0.3, 0.7)
    assert report.scan_T == 2.0
    assert report.total_T == 3.5


def test_tradeoff_curve_shrinks_error(gauss_d10):
    reports = tradeoff_curve(gauss_d10, Priors(0.5),
                             np.array([1.0, 2.0, 4.0, 8.0]), (6.0, 14.0),
                             n_grid=12)
    errors = [r.P_e for r in reports]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    for r in reports:
        assert r.P_e == pytest.approx(2 * 0.25 * r.p_t, abs=1e-12)
        assert r.total_T == r.t_meas + r.R


def test_tradeoff_curve_fixed_time(gauss_profile):
    reports = tradeoff_curve(gauss_profile, Priors(0.4),
                             np.array([0.5, 2.0, 25.0]), (0.0, 1.0),
                             fixed_t=0.0)
    for r in reports:
        assert r.t_meas == 0.0
        assert r.p_t == pytest.approx(
            outside_probability(gauss_profile, r.R, 0.0), abs=1e-12)
    # A ball covering essentially all the mass drives the error to zero.
    assert reports[-1].P_e <= 1e-6 * 2.0 * 0.4 * 0.6


@pytest.mark.parametrize("family", [
    lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
    lcdisc.ExponentialFamily(kappa=2.0),
], ids=["gauss", "expo"])
def test_tradeoff_curve_fixed_time_shares_k_rules(monkeypatch, family):
    # at t = 12 every ball (d = 3, R <= 1.3) lies inside |t|, so each
    # radius's k rule resolves |t| alone and the three radii share one k
    # rule per ladder level; each p_t keeps the bits of a fresh profile's
    radii = [0.7, 1.0, 1.3]
    builds = []
    real = propagation._k_rule
    monkeypatch.setattr(propagation, "_k_rule",
                        lambda *args: builds.append(args[-1]) or real(*args))
    reports = tradeoff_curve(lcdisc.make_profile(family, offset_d=3.0),
                             Priors(0.4), np.array(radii), (0.0, 1.0),
                             fixed_t=12.0)
    assert builds == list(propagation.DENSITY_LADDER[:2])
    assert [r.p_t for r in reports] == [
        outside_probability(lcdisc.make_profile(family, offset_d=3.0), R,
                            12.0)
        for R in radii]


def test_tradeoff_curve_zero_radius_reaches_prior_error(gauss_profile):
    report = tradeoff_curve(gauss_profile, Priors(0.3), np.array([0.0]),
                            (0.0, 1.0), fixed_t=0.0)[0]
    assert report.p_t == 1.0
    assert report.P_e == total_error(Priors(0.3), 1.0)


def test_tradeoff_curve_validation(gauss_profile):
    with pytest.raises(InvalidParameterError):
        tradeoff_curve(gauss_profile, Priors(0.5), np.array([]), (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        tradeoff_curve(gauss_profile, Priors(0.5), np.array([2.0, 1.0]),
                       (0.0, 1.0))


def test_sweep_clips_once_with_one_warning(monkeypatch, gauss_profile):
    monkeypatch.setattr(discrimination, "inside_probability_sweep",
                        lambda *args: np.array([1.0 + 1e-5, 1.0 + 2e-5, 0.5]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = outside_probability_sweep(gauss_profile, 1.0, np.arange(3.0))
    assert p.tolist() == [0.0, 0.0, 0.5]
    assert [w.category for w in caught] == [UserWarning]
