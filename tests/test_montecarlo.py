"""Monte Carlo trials: sampling fidelity, determinism, and error rates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Generator, Philox

from lcdisc import (
    DetectionSampler,
    ErrorEstimate,
    ExponentialFamily,
    GaussianFamily,
    InvalidParameterError,
    InvalidStateError,
    Priors,
    ResourceLimitError,
    TrialBatch,
    estimate_error,
    make_profile,
    outside_probability,
    philox_uniforms,
    quantile_radius,
    radial_density_grid,
    run_trials,
)
from lcdisc import montecarlo, propagation


def _uniforms(seed, n):
    return philox_uniforms(seed, np.arange(n, dtype=np.uint64))


def _concat(batches):
    """One batch holding every trial of ``batches``, in order."""
    assert [b.start for b in batches] == \
        list(np.cumsum([0] + [b.rho.size for b in batches[:-1]]))
    return TrialBatch(start=0, **{
        field.name: np.concatenate([getattr(b, field.name) for b in batches])
        for field in dataclasses.fields(TrialBatch) if field.name != "start"})


def _same(a, b):
    return a.start == b.start and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(TrialBatch) if f.name != "start")


@pytest.fixture(scope="module")
def sampler(gauss_profile):
    return DetectionSampler.for_profile(gauss_profile, 0.0)


def test_trial_rng_substreams_independent():
    a = philox_uniforms(7, [0])
    b = philox_uniforms(7, [1])
    assert not np.array_equal(a, b)
    # Same seed and index reproduce the stream bit for bit.
    assert np.array_equal(a, philox_uniforms(7, [0]))
    # Different seeds decorrelate the same trial index.
    assert not np.array_equal(a, philox_uniforms(8, [0]))


def test_sampler_radius_quantiles(gauss_profile, sampler):
    draws = sampler.radii(_uniforms(123, 20000)[1])
    grid = radial_density_grid(gauss_profile, 0.0)
    for q in (0.25, 0.5, 0.75):
        expected = quantile_radius(grid, q)
        got = float(np.quantile(draws, q))
        assert got == pytest.approx(expected, abs=0.02)


def test_sampler_draws_in_range(gauss_profile, sampler):
    batch, = run_trials(gauss_profile, Priors(0.5), 1.0, 0.0, 200, 5)
    assert np.all((batch.rho >= 0.0) & (batch.rho <= sampler._r[-1]))
    assert np.all(np.abs(batch.cos_theta) <= 1.0)


# CDF values with repeats (cells of no mass, span 0) and uniforms that
# often equal a CDF value
_UNIT = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(cdf=st.lists(_UNIT, min_size=2, max_size=40).map(sorted),
       u=st.lists(_UNIT.filter(lambda x: x < 1.0), max_size=200).map(sorted))
@example(cdf=[0.0, 0.5, 0.5, 0.5, 1.0], u=[0.0, 0.0, 0.5, 0.5, 0.75])
@example(cdf=[0.0, 0.0, 1.0, 1.0], u=[])
def test_cdf_positions_are_searchsorted(cdf, u):
    cdf, u = np.array(cdf), np.array(u)
    got = montecarlo._cdf_positions(cdf, u)
    assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


def test_sampler_radii_match_a_search_per_uniform(sampler):
    u = _uniforms(3, 10000)[1]
    i = np.searchsorted(sampler._cdf, u, side="right")
    i = np.clip(i - 1, 0, sampler._r.size - 2)
    cdf, r = sampler._cdf, sampler._r
    span = cdf[i + 1] - cdf[i]
    frac = np.divide(u - cdf[i], span, out=np.zeros_like(u),
                     where=span > 0.0)
    expected = r[i] + frac * (r[i + 1] - r[i])
    assert sampler.radii(u).tobytes() == expected.tobytes()
    # any shape of uniforms, one radius each
    square = sampler.radii(u[:100].reshape(10, 10))
    assert square.shape == (10, 10)
    assert square.tobytes() == expected[:100].tobytes()


def test_sampler_direction_isotropic(gauss_profile):
    batch, = run_trials(gauss_profile, Priors(0.5), 1.0, 0.0, 20000, 11)
    cos_z = batch.cos_theta
    # cos(theta) should be uniform in [-1, 1]: mean 0, variance 1/3.
    assert abs(cos_z.mean()) < 3.0 / math.sqrt(3.0 * 20000)
    assert cos_z.var() == pytest.approx(1.0 / 3.0, abs=0.02)


def test_sampler_rejects_undersized_grid(gauss_profile):
    grid = radial_density_grid(gauss_profile, 0.0, r_max=1.0)
    with pytest.raises(InvalidStateError):
        DetectionSampler(grid)


def test_sampler_rejects_zero_mass(gauss_profile):
    grid = radial_density_grid(gauss_profile, 0.0)
    dead = dataclasses.replace(grid, amp=np.zeros_like(grid.amp))
    with pytest.raises(InvalidStateError):
        DetectionSampler(dead)


@pytest.mark.parametrize("bad", [math.nan, math.inf],
                         ids=["nan", "inf"])
def test_sampler_rejects_non_finite_amplitude(gauss_profile, bad):
    grid = radial_density_grid(gauss_profile, 0.0)
    amp = grid.amp.copy()
    amp[100] = bad
    with pytest.raises(InvalidStateError):
        DetectionSampler(dataclasses.replace(grid, amp=amp))


def test_sampler_rejects_zero_width_grid(gauss_profile):
    grid = radial_density_grid(gauss_profile, 0.0)
    flat = dataclasses.replace(grid, r_grid=np.ones_like(grid.r_grid))
    with pytest.raises(InvalidStateError):
        DetectionSampler(flat)


def test_run_trial_fields(gauss_profile):
    batch, = run_trials(gauss_profile, Priors(0.5), 1.0, 0.0, 1000, 1)
    assert batch.start == 0
    assert all(getattr(batch, f.name).shape == (1000,)
               for f in dataclasses.fields(TrialBatch) if f.name != "start")
    inside = batch.inside
    assert 0 < np.count_nonzero(inside) < 1000
    assert np.all(batch.correct[inside])
    assert np.array_equal(batch.guess_plus[inside], batch.true_plus[inside])
    assert np.array_equal(batch.correct, batch.guess_plus == batch.true_plus)


def test_run_trial_strategy_validation(gauss_profile):
    with pytest.raises(InvalidParameterError):
        list(run_trials(gauss_profile, Priors(0.5), 2.0, 0.0, 1000, 1,
                        strategy="bogus"))


def test_trials_deterministic(gauss_profile):
    kwargs = dict(priors=Priors(0.5), R=1.0, t=0.0, n_trials=500, seed=42)
    first, = run_trials(gauss_profile, **kwargs)
    second, = run_trials(gauss_profile, **kwargs)
    assert _same(first, second)
    shifted, = run_trials(gauss_profile, priors=Priors(0.5), R=1.0,
                          t=0.0, n_trials=500, seed=43)
    assert not _same(first, shifted)


def test_estimate_deterministic(gauss_profile):
    kwargs = dict(priors=Priors(0.5), R=1.0, t=0.0, n_trials=2000, seed=9)
    assert estimate_error(gauss_profile, **kwargs) == \
        estimate_error(gauss_profile, **kwargs)


def test_estimate_matches_analytic(gauss_profile):
    est = estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0,
                         n_trials=20000, seed=3)
    assert isinstance(est, ErrorEstimate)
    p_t = outside_probability(gauss_profile, 1.0, 0.0)
    assert est.p_t == pytest.approx(p_t, abs=1e-12)
    assert est.analytic_rate == pytest.approx(0.5 * p_t, abs=1e-12)
    assert abs(est.empirical_rate - est.analytic_rate) <= 3.0 * est.std_err
    # Unknown outcomes happen with probability p_t.
    band = 3.0 * math.sqrt(p_t * (1.0 - p_t) / est.n_trials)
    assert abs(est.unknown_rate - p_t) <= band


def test_estimate_map_strategy(gauss_profile):
    est = estimate_error(gauss_profile, Priors(0.3), 1.0, 0.0,
                         n_trials=20000, seed=3, strategy="map")
    p_t = outside_probability(gauss_profile, 1.0, 0.0)
    assert est.analytic_rate == pytest.approx(0.3 * p_t, abs=1e-12)
    assert abs(est.empirical_rate - est.analytic_rate) <= \
        3.0 * est.std_err + 1e-12


def test_estimate_zero_radius_matches_priors(gauss_profile):
    # R = 0 forces every outcome unknown; matching errs at rate 2 pi0 pi1.
    est = estimate_error(gauss_profile, Priors(0.5), 0.0, 0.0,
                         n_trials=10000, seed=17)
    assert est.p_t == 1.0
    assert est.unknown_rate == 1.0
    assert est.analytic_rate == 0.5
    assert abs(est.empirical_rate - 0.5) <= 3.0 * est.std_err


def test_estimate_certain_prior_never_errs(gauss_profile):
    est = estimate_error(gauss_profile, Priors(1.0), 0.0, 0.0,
                         n_trials=1000, seed=2)
    assert est.n_errors == 0
    assert est.analytic_rate == 0.0
    assert est.std_err == 0.0


def test_estimate_huge_ball_never_errs(gauss_profile):
    est = estimate_error(gauss_profile, Priors(0.5), 30.0, 0.0,
                         n_trials=1000, seed=2)
    assert est.n_errors == 0
    assert est.n_unknown == 0


def test_estimate_on_trial_callback(gauss_profile):
    batches = []
    est = estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0,
                         n_trials=1000, seed=5, on_batch=batches.append)
    every = _concat(batches)
    assert every.rho.size == 1000
    assert np.count_nonzero(~every.correct) == est.n_errors
    assert np.count_nonzero(~every.inside) == est.n_unknown
    assert _same(every, _concat(list(run_trials(
        gauss_profile, Priors(0.5), 1.0, 0.0, 1000, 5))))


def test_estimate_requires_min_trials(gauss_profile):
    with pytest.raises(InvalidParameterError):
        estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0, n_trials=10,
                       seed=0)


@pytest.mark.parametrize("n_trials,seed", [(1000.5, 1), (1000, 1.5)],
                         ids=["float-trials", "float-seed"])
def test_trials_and_seed_must_be_integers(monkeypatch, gauss_profile,
                                          n_trials, seed):
    # rejected before the p_t or the sampler does any work
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the arguments were checked")

    monkeypatch.setattr(montecarlo, "outside_probability", no_work)
    monkeypatch.setattr(montecarlo.DetectionSampler, "for_profile", no_work)
    with pytest.raises(InvalidParameterError, match="integer"):
        estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0,
                       n_trials=n_trials, seed=seed)
    with pytest.raises(InvalidParameterError, match="integer"):
        next(run_trials(gauss_profile, Priors(0.5), 1.0, 0.0, n_trials,
                        seed))


def test_trial_count_is_capped_before_any_work(monkeypatch, gauss_profile):
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the trial count was checked")

    monkeypatch.setattr(montecarlo, "outside_probability", no_work)
    monkeypatch.setattr(montecarlo.DetectionSampler, "for_profile", no_work)
    n_trials = montecarlo.MAX_TRIALS + 1
    with pytest.raises(ResourceLimitError, match="cap"):
        estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0,
                       n_trials=n_trials, seed=1)
    with pytest.raises(ResourceLimitError, match="cap"):
        next(run_trials(gauss_profile, Priors(0.5), 1.0, 0.0, n_trials, 1))
    # the cap itself passes
    assert montecarlo._check_run("paper", montecarlo.MAX_TRIALS, 1) == \
        (montecarlo.MAX_TRIALS, 1)


def test_unknown_strategy_is_rejected_before_any_work(monkeypatch,
                                                     gauss_profile):
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the strategy was checked")

    monkeypatch.setattr(montecarlo, "outside_probability", no_work)
    monkeypatch.setattr(montecarlo.DetectionSampler, "for_profile", no_work)
    with pytest.raises(InvalidParameterError, match="unknown strategy"):
        estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0, n_trials=1000,
                       seed=1, strategy="bogus")
    with pytest.raises(InvalidParameterError, match="unknown strategy"):
        next(run_trials(gauss_profile, Priors(0.5), 1.0, 0.0, 1000, 1,
                        strategy="bogus"))


@pytest.mark.parametrize("family,d,R,t", [
    (lambda scale: ExponentialFamily(kappa=2.0 * scale), 1.5, 1.5, 1.0),
    (lambda scale: GaussianFamily(k0=5.0 * scale, sigma=scale), 1.0, 1.5, 0.5),
], ids=["exponential", "gaussian"])
def test_estimate_is_dilation_invariant(family, d, R, t):
    # every length the sampler chooses, its default grid extent too, is
    # the profile's own, so lambda = 2^m makes the same decisions
    def estimate(scale):
        est = estimate_error(make_profile(family(scale), d / scale),
                             Priors(0.5), R / scale, t / scale,
                             n_trials=20000, seed=7)
        return est.n_errors, est.n_unknown, est.p_t

    reference = estimate(1.0)
    assert estimate(2.0 ** -4) == reference
    assert estimate(2.0 ** 4) == reference


def test_offset_inside_test_uses_direction(gauss_d3):
    # With the packet center off the ball center, whether a firing lands
    # inside depends on direction, not only on rho; check the quoted
    # inequality on a batch of trials drawn from the documented uniforms.
    sampler = DetectionSampler.for_profile(gauss_d3, 0.0)
    u = _uniforms(21, 200)
    rho = sampler.radii(u[1])
    cos_theta = 2.0 * u[2] - 1.0
    dist_sq = 9.0 + rho * rho + 6.0 * rho * cos_theta
    batch, = run_trials(gauss_d3, Priors(0.5), 2.5, 0.0, 200, 21)
    assert np.array_equal(batch.inside, dist_sq <= 2.5 * 2.5)
    assert np.array_equal(batch.rho, rho)
    assert np.array_equal(batch.cos_theta, cos_theta)


@pytest.mark.parametrize("seed", [0, 893741986, 2 ** 128 - 1])
def test_philox_uniforms_match_numpy(seed):
    index = [0, 1, 2 ** 32, 2 ** 63]
    expected = np.array([Generator(Philox(key=seed, counter=i << 64)).random(5)
                         for i in index]).T
    assert np.array_equal(philox_uniforms(seed, index), expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1),
       index=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6))
def test_philox_uniforms_match_numpy_drawn(seed, index):
    # every bit of the key and of the trial index goes through the 128-bit
    # products, so the high word's carries are all exercised
    expected = np.array([Generator(Philox(key=seed, counter=i << 64)).random(5)
                         for i in index]).T
    assert np.array_equal(philox_uniforms(seed, index), expected)


def _numpy_block(seed, i, block, words):
    """Words 0 .. words - 1 of counter block ``block`` of trial ``i``, as
    numpy's own Philox gives them: block 1 is draws 0-3, block 2 draws 4-7."""
    draws = Generator(Philox(key=seed, counter=i << 64)).random(8)
    return draws[4 * (block - 1):4 * (block - 1) + words]


_BLOCK_WORDS = st.tuples(st.sampled_from([1, 2]), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1),
       index=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6),
       block_words=_BLOCK_WORDS)
@example(seed=2 ** 128 - 1, index=[2 ** 64 - 1, 0], block_words=(2, 1))
def test_philox_block_matches_numpy(seed, index, block_words):
    block, words = block_words
    got = montecarlo._philox_block(seed, np.array(index, dtype=np.uint64),
                                   block, words)
    expected = np.array([_numpy_block(seed, i, block, words)
                         for i in index]).T
    assert got.shape == (words, len(index))
    assert np.array_equal(got, expected)


_SLICE = montecarlo._PHILOX_SLICE


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1), base=st.integers(0, 2 ** 64 - 1),
       size=st.integers(1, 2 * _SLICE + 3), block_words=_BLOCK_WORDS,
       probes=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
@example(seed=1, base=2 ** 64 - _SLICE, size=_SLICE + 1, block_words=(1, 4),
         probes=[])
@example(seed=2 ** 127 + 12345, base=0, size=2 * _SLICE + 1,
         block_words=(2, 1), probes=[])
def test_philox_block_across_slices(seed, base, size, block_words, probes):
    # consecutive trial indices, which wrap past 2^64 - 1, in an array long
    # enough to take several passes of the rounds; the first and last
    # trial of every pass, and a few drawn ones, against numpy
    block, words = block_words
    index = np.arange(size, dtype=np.uint64) + np.uint64(base)
    got = montecarlo._philox_block(seed, index, block, words)
    assert got.shape == (words, size)
    edges = np.arange(0, size, _SLICE)
    positions = {0, size - 1, *edges.tolist(), *(edges[1:] - 1).tolist(),
                 *(int(p * size) for p in probes)}
    for j in sorted(positions):
        assert np.array_equal(
            got[:, j], _numpy_block(seed, int(index[j]), block, words)), j


def _scalar_trial(sampler, priors, R, d, strategy, seed, index):
    """One trial drawn the way the randomness contract reads, one uniform
    at a time from numpy's own Philox; the reference for the array path."""
    rng = Generator(Philox(key=seed, counter=index << 64))
    true_plus = rng.random() < priors.pi0
    u = rng.random()
    cdf, r = sampler._cdf, sampler._r
    i = int(np.searchsorted(cdf, u, side="right")) - 1
    i = min(max(i, 0), len(r) - 2)
    span = cdf[i + 1] - cdf[i]
    frac = (u - cdf[i]) / span if span > 0.0 else 0.0
    rho = float(r[i] + frac * (r[i + 1] - r[i]))
    cos_theta = 2.0 * rng.random() - 1.0
    rng.random()  # phi
    inside = d * d + rho * rho + 2.0 * d * rho * cos_theta <= R * R
    if inside:
        guess_plus = true_plus
    elif strategy == "paper":
        guess_plus = rng.random() < priors.pi0
    else:
        guess_plus = priors.pi0 >= priors.pi1
    return true_plus, rho, cos_theta, inside, guess_plus


@pytest.mark.parametrize("strategy", ["paper", "map"])
def test_batch_matches_scalar_reference(gauss_d3, strategy):
    priors, R, t, seed, n = Priors(0.4), 2.5, 1.0, 2 ** 100 + 9, 300
    sampler = DetectionSampler.for_profile(gauss_d3, t)
    batch, = run_trials(gauss_d3, priors, R, t, n, seed, strategy)
    got = list(zip(batch.true_plus.tolist(), batch.rho.tolist(),
                   batch.cos_theta.tolist(), batch.inside.tolist(),
                   batch.guess_plus.tolist()))
    assert got == [_scalar_trial(sampler, priors, R, 3.0, strategy, seed, i)
                   for i in range(n)]
    assert 0 < np.count_nonzero(batch.inside) < n


def test_chunk_size_does_not_change_trials(gauss_d3, monkeypatch):
    kwargs = dict(priors=Priors(0.4), R=2.5, t=1.0, n_trials=3000, seed=6)
    whole = list(run_trials(gauss_d3, **kwargs))
    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 700)
    chunked = list(run_trials(gauss_d3, **kwargs))
    assert len(whole) == 1
    assert [b.rho.size for b in chunked] == [700, 700, 700, 700, 200]
    assert _same(_concat(chunked), whole[0])


@pytest.mark.parametrize("strategy", ["paper", "map"])
def test_block_2_only_for_the_trials_that_read_it(gauss_d3, monkeypatch,
                                                 strategy):
    block_2_index = []
    real_block = montecarlo._philox_block

    def counting_block(seed, index, block, words):
        if block == 2:
            block_2_index.append(np.array(index))
        return real_block(seed, index, block, words)

    monkeypatch.setattr(montecarlo, "_philox_block", counting_block)
    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 700)
    batches = list(run_trials(gauss_d3, Priors(0.4), 2.5, 1.0, 3000, 6,
                              strategy))
    if strategy == "map":
        assert block_2_index == []
        return
    # one call per batch, on exactly the trials outside the ball
    assert len(block_2_index) == len(batches) == 5
    for index, batch in zip(block_2_index, batches):
        assert 0 < index.size < batch.rho.size
        outside = batch.start + np.flatnonzero(~batch.inside)
        assert np.array_equal(index, outside)


def test_seed_outside_key_range_rejected(gauss_profile):
    for seed in (-1, 2 ** 128):
        with pytest.raises(InvalidParameterError):
            estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0, 1000, seed)


def test_estimate_counts_are_python_ints(gauss_profile):
    est = estimate_error(gauss_profile, Priors(0.5), 1.0, 0.0, 1000, 4)
    assert type(est.n_errors) is int and type(est.n_unknown) is int


def _expo_offset():
    return make_profile(ExponentialFamily(kappa=0.55), offset_d=2.0)


def test_r_max_reaches_the_sampler():
    # an explicit grid at the default extent, 8.5, misses more than
    # COVERAGE_BOUND of this profile's mass and is not widened
    with pytest.raises(InvalidStateError):
        estimate_error(_expo_offset(), Priors(0.5), 1.5, 1.0, 1000, 1,
                       r_max=8.5)
    est = estimate_error(_expo_offset(), Priors(0.5), 1.5, 1.0, 1000, 1,
                         r_max=60.0)
    assert est.n_trials == 1000


def test_default_grid_doubles_until_it_covers(monkeypatch):
    # 21.18 -> 42.36 -> 84.73: the second doubling covers the mass
    sampler = DetectionSampler.for_profile(_expo_offset(), 1.0)
    assert sampler._r[-1] == 4.0 * (3.0 + 10.0 / 0.55)
    monkeypatch.setattr(propagation, "MAX_EXTENT_DOUBLINGS", 1)
    with pytest.raises(InvalidStateError, match="increase r_max"):
        DetectionSampler.for_profile(_expo_offset(), 1.0)


@pytest.mark.parametrize("case", ["centred-paper", "offset-map",
                                  "exponential-r_max"])
def test_million_trials_within_3_sigma(case, gauss_profile, gauss_d3):
    profile, priors, R, t, strategy, r_max = {
        "centred-paper": (gauss_profile, Priors(0.5), 1.0, 0.0, "paper",
                          None),
        "offset-map": (gauss_d3, Priors(0.3), 2.5, 1.0, "map", None),
        "exponential-r_max": (_expo_offset(), Priors(0.5), 1.5, 1.0,
                              "paper", 60.0),
    }[case]
    n = 1_000_000
    est = estimate_error(profile, priors, R, t, n, seed=20261018,
                         strategy=strategy, r_max=r_max)
    assert abs(est.empirical_rate - est.analytic_rate) <= 3.0 * est.std_err
    unknown_band = 3.0 * math.sqrt(est.p_t * (1.0 - est.p_t) / n)
    assert abs(est.unknown_rate - est.p_t) <= unknown_band
