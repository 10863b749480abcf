"""The j0 kernels: accuracy, validation and the table-fill lookup."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lcdisc
from lcdisc import _kernels, propagation
from lcdisc._kernels import (
    PanelTable,
    available_backends,
    backend_name,
    cos_sin_rows,
    panel_j0_table,
    weighted_j0_gemm,
    weighted_j0_sum,
)
from lcdisc.propagation import DENSITY_LADDER
from lcdisc.quadrature import (
    EvenGrid,
    PanelRule,
    panel_width,
    piecewise_gauss_panels,
)

# largest k node of the standard Gaussian profile, about 11.7
_K_MAX = lcdisc.make_profile(lcdisc.GaussianFamily(k0=5.0, sigma=1.0)).k_max


def _reference_j0(z):
    # np.sinc(x) = sin(pi x)/(pi x) handles z = 0 exactly.
    return np.sinc(np.asarray(z) / np.pi)


def test_available_backends_include_numpy():
    assert available_backends() == ("numpy",)
    assert backend_name() == "numpy"


def test_gemm_looks_up_table_fill_per_block(monkeypatch):
    # e2ebench times the table fill by wrapping _ACTIVE.j0_table, so the
    # gemm must look it up there once per block of _GEMM_CHUNK_PANELS panels
    calls = []

    def counting(rule, k):
        calls.append(rule.centres.size)
        return panel_j0_table(rule, k)

    monkeypatch.setattr(_kernels._ACTIVE, "j0_table", counting)
    rule = piecewise_gauss_panels(np.array([0.0, 20.0]), 0.25)
    assert rule.centres.size == 80
    k = np.linspace(0.0, 12.0, 40)
    got = weighted_j0_gemm(PanelTable(rule, k), k,
                           np.ones((40, 2), dtype=complex))
    assert calls == [32, 32, 16]
    assert got.shape == (rule.size, 2)


def test_j0_sum_matches_reference():
    rng = np.random.default_rng(0)
    r = np.concatenate(([0.0, 1e-9], rng.uniform(0.0, 50.0, 64)))
    k = np.sort(rng.uniform(0.0, 12.0, 256))
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    got = weighted_j0_sum(r, k, coeffs)
    expected = _reference_j0(np.outer(r, k)) @ coeffs
    scale = np.sum(np.abs(coeffs))
    assert np.max(np.abs(got - expected)) < 1e-13 * scale


def test_j0_table_matches_reference():
    rng = np.random.default_rng(1)
    # radii from 1e-3, next to the origin, out to 200
    rule = piecewise_gauss_panels(np.array([0.0, 0.05, 200.0]), 40.0)
    k = np.sort(np.concatenate(([0.0, 1e-8], rng.uniform(0.0, 30.0, 100))))
    table = panel_j0_table(rule, k)
    expected = _reference_j0(np.outer(rule.nodes, k))
    assert table.shape == (48, 102)
    assert np.max(np.abs(table - expected)) < 1e-14
    # j0(0) = 1 exactly on the zero wavenumber.
    assert np.all(table[:, 0] == 1.0)


def test_j0_small_argument_series():
    # sin(k r) / k divided by r needs no series at small k r: over 40,000
    # z in (0, 1e-4], sin(z) / z sat within 1.5 ulp of 40-digit mpmath,
    # the series 1 - z^2 / 6 within 0.51
    r = np.full(8, 1.0)
    k = np.geomspace(1e-12, 9e-5, 8)
    coeffs = np.ones(8, dtype=complex)
    got = weighted_j0_sum(r, k, coeffs)
    expected = np.sum(_reference_j0(k))
    assert got[0].real == pytest.approx(expected, rel=1e-14)
    # the one small-argument rule: where k_max r is below _SIN_LIMIT_KX,
    # every j0 is 1 to within eps / 4 and a sum is exactly the
    # coefficients' sum, with no division by a zero or subnormal r; above
    # it each sum is divided by its r.  Array radii, an even grid from 0
    # with a subnormal step, and a one-column panel contraction
    rng = np.random.default_rng(12)
    k = np.concatenate(([0.0], np.sort(rng.uniform(0.0, _K_MAX, 60)),
                        [_K_MAX]))
    coeffs = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
    limit = _kernels._SIN_LIMIT_KX / _K_MAX
    below, above = limit * (1.0 - 1e-9), limit * (1.0 + 1e-9)
    radii = np.array([0.0, 5e-324, 1e-310, 1e-300, below, above,
                      2.0 * limit])
    grid = EvenGrid(np.arange(16.0) * 5e-324, 5e-324)
    rule = piecewise_gauss_panels(np.array([0.0, 5e-324, 1e-310, 1e-300,
                                            0.5 * limit, 2.0 * limit]),
                                  0.25)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        sums = [(radii, weighted_j0_sum(radii, k, coeffs)),
                (grid.nodes, weighted_j0_sum(grid, k, coeffs)),
                (rule.nodes,
                 weighted_j0_gemm(PanelTable(rule, k), k,
                                  coeffs[:, None])[:, 0])]
    scale = np.sum(np.abs(coeffs))
    for x, got in sums:
        small = x * _K_MAX < _kernels._SIN_LIMIT_KX
        assert np.all(got[small] == np.sum(coeffs))
        expected = _sin_over_z(np.multiply.outer(x[~small], k)) @ coeffs
        assert np.all(np.abs(got[~small] - expected) <= 1e-15 * scale)
    assert np.sum(radii * _K_MAX < _kernels._SIN_LIMIT_KX) == 5
    assert np.any(rule.nodes * _K_MAX >= _kernels._SIN_LIMIT_KX)


def test_gemm_matches_sum():
    rng = np.random.default_rng(2)
    # 640 nodes: several blocks of 256 table rows
    rule = piecewise_gauss_panels(np.array([0.0, 20.0]), 0.25)
    k = np.sort(rng.uniform(0.0, 12.0, 96))
    coeffs = rng.normal(size=(96, 3)) + 1j * rng.normal(size=(96, 3))
    table = weighted_j0_gemm(PanelTable(rule, k), k, coeffs)
    for col in range(3):
        direct = weighted_j0_sum(rule.nodes, k, coeffs[:, col])
        scale = np.sum(np.abs(coeffs[:, col]))
        assert np.max(np.abs(table[:, col] - direct)) < 1e-12 * scale


def test_gemm_matches_two_real_products():
    # One gemm against the interleaved [re | im] coefficients must equal the
    # table times each part separately.
    rng = np.random.default_rng(4)
    rule = piecewise_gauss_panels(np.array([0.0, 20.0]), 0.5)
    k = np.sort(rng.uniform(0.0, 12.0, 80))
    coeffs = rng.normal(size=(80, 5)) + 1j * rng.normal(size=(80, 5))
    table = panel_j0_table(rule, k)
    expected = table @ coeffs.real + 1j * (table @ coeffs.imag)
    got = weighted_j0_gemm(PanelTable(rule, k), k, coeffs)
    scale = np.sum(np.abs(coeffs), axis=0)
    assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-13 * scale)


def test_input_validation():
    r = np.array([1.0])
    with pytest.raises(ValueError):
        weighted_j0_sum(r, np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        weighted_j0_sum(r, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        weighted_j0_sum(r, np.array([1.0, 2.0]), np.array([1.0]))
    rule = piecewise_gauss_panels(np.array([0.0, 1.0]), 1.0)
    k = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_j0_gemm(PanelTable(rule, k), k, np.array([1.0, 2.0]))


def test_empty_inputs():
    assert weighted_j0_sum(np.empty(0), np.array([1.0]),
                           np.array([1.0 + 0j])).shape == (0,)
    out = weighted_j0_sum(np.array([1.0]), np.empty(0), np.empty(0))
    assert out.shape == (1,)
    assert out[0] == 0.0


def test_fallback_direct():
    # arbitrary radii, whose sin(k r) / k tables np.sin fills directly
    z = np.array([0.0, 1e-6, 0.5, 3.14159, 40.0])
    got = weighted_j0_sum(z, np.array([1.0]), np.array([1.0]))
    assert np.max(np.abs(got - _reference_j0(z))) < 1e-15


def _sin_over_z(z):
    """The direct np.sin(z) / z table, with j0(0) = 1 where z underflows."""
    with np.errstate(invalid="ignore"):
        return np.where(z == 0.0, 1.0, np.sin(z) / z)


def _panel_run(draw, level):
    """Centres of one run of panels with the half-width of a ladder level's
    rho rule."""
    half = 0.5 * panel_width(_K_MAX, level)
    centres = draw(st.lists(st.floats(half, 50.0), min_size=1, max_size=24))
    return centres, [half] * len(centres)


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       levels=st.lists(st.sampled_from(DENSITY_LADDER), min_size=1,
                       max_size=2),
       k=st.lists(st.floats(0.0, _K_MAX, exclude_min=True), min_size=1,
                  max_size=64).map(sorted),
       z=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=64))
def test_j0_tables_match_sin_over_z(data, levels, k, z):
    # the angle-addition fill of a panel rule, with one or two runs of
    # half-widths, against sin(z)/z on the rule's nodes
    runs = [_panel_run(data.draw, level) for level in levels]
    rule = PanelRule(np.concatenate([c for c, _ in runs]),
                     np.concatenate([h for _, h in runs]))
    k = np.array(k)
    zk = np.multiply.outer(rule.nodes, k)
    got = panel_j0_table(rule, k)
    assert np.max(np.abs(got - _sin_over_z(zk))) <= 1e-13
    # the panel table and the arbitrary-radius sums at k = 1, on panels
    # of half-width 1e-3 next to each z, so nodes run from 4e-5 to 1e5
    z = np.array(z)
    wide = PanelRule(z + 1e-3, np.full(z.size, 1e-3))
    direct = weighted_j0_sum(wide.nodes, np.array([1.0]), np.array([1.0]))
    assert np.max(np.abs(direct - _sin_over_z(wide.nodes))) <= 1e-13
    table = panel_j0_table(wide, np.array([1.0]))[:, 0]
    assert np.max(np.abs(table - _sin_over_z(wide.nodes))) <= 1e-13


_EPS = float(np.finfo(float).eps)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 33, 128]),
       first=st.floats(-50.0, 50.0),
       step=st.floats(1e-6, 2.0) | st.floats(-2.0, -1e-6),
       k=st.lists(st.floats(0.0, 100.0) | st.floats(0.0, 1e-300),
                  min_size=1, max_size=16).map(sorted))
def test_cos_sin_rows_match_direct(n, first, step, k):
    # rows by doubling against np.cos and np.sin at every point, within
    # the bound of the time sweeps' doubling: the direct values are off by
    # about eps |k x|, and row j by j eps / 2 more
    k = np.array(k)
    x = first + step * np.arange(n)
    rows = cos_sin_rows(EvenGrid(x, step), k)
    assert rows.shape == (n, k.size)
    kx = np.multiply.outer(x, k)
    bound = 4.0 * _EPS * (n + np.max(np.abs(kx)))
    assert np.all(np.abs(rows.real - np.cos(kx)) <= bound)
    assert np.all(np.abs(k * rows.imag - np.sin(kx)) <= bound)
    # sin(k x) / k itself, which tends to x as k goes to 0, against
    # x j0(k |x|), relative to the largest |x|
    direct = x[:, None] * _reference_j0(np.abs(kx))
    assert np.all(np.abs(rows.imag - direct)
                  <= bound * np.max(np.abs(x)))


def test_cos_sin_rows_take_the_limit_at_zero_k():
    # sin(k x) / k is x exactly at k = 0, and below the limit, with no
    # 0/0 on the way; the points are not dyadic, so sums would round
    x = 0.1 + 0.3 * np.arange(33)
    k = np.array([0.0, 0.0, 5e-324, 1e-12, 2.0])
    with np.errstate(divide="raise", invalid="raise"):
        rows = cos_sin_rows(EvenGrid(x, 0.3), k)
    assert np.all(rows.real[:, :2] == 1.0)
    assert np.all(rows.imag[:, :4] == x[:, None])
    assert np.all(np.isfinite(rows))
    assert np.max(np.abs(rows.imag[:, 4] - np.sin(2.0 * x) / 2.0)) < 1e-14


@settings(max_examples=60, deadline=None)
@given(start=st.floats(0.0, 5.0),
       widths=st.lists(st.floats(1e-3, 6.0), min_size=1, max_size=3),
       level=st.sampled_from(DENSITY_LADDER),
       k=st.lists(st.floats(0.0, _K_MAX), min_size=1,
                  max_size=64).map(sorted))
def test_piecewise_rule_tables_match_sin_over_z(start, widths, level, k):
    # the tables of declared runs, one per interval, whole and through the
    # gemm's blocks, which cut the runs, against sin(z)/z on the nodes
    breaks = start + np.concatenate(([0.0], np.cumsum(widths)))
    rule = piecewise_gauss_panels(breaks, panel_width(_K_MAX, level))
    assert len(rule.run_starts) == len(widths)
    k = np.array(k)
    expected = _sin_over_z(np.multiply.outer(rule.nodes, k))
    assert np.max(np.abs(panel_j0_table(rule, k) - expected),
                  initial=0.0) <= 1e-13
    blocks = np.concatenate([np.empty((0, k.size)),
                             *_kernels._panel_blocks(rule, k)])
    assert np.max(np.abs(blocks - expected), initial=0.0) <= 1e-13


@pytest.mark.parametrize("breaks", [
    [0.0, 5e-324],
    [0.0, 1e-320, 1.0],
    [0.0, 5e-324, 2e-323, 0.5],
], ids=["one-panel", "subnormal-then-wide", "two-subnormal"])
def test_panel_table_at_underflowed_nodes(breaks):
    # panels narrower than the subnormal range round nodes to 0, where the
    # table's row is j0(0) = 1, as sin(z) / z gives, with no warning
    rule = piecewise_gauss_panels(np.array(breaks), 0.25)
    k = np.array([0.0, 1e-3, 1.0, 7.5, _K_MAX])
    with np.errstate(divide="raise", invalid="raise"):
        table = panel_j0_table(rule, k)
    expected = _sin_over_z(np.multiply.outer(rule.nodes, k))
    assert np.max(np.abs(table - expected)) <= 1e-13


def test_gemm_blocks_cut_runs(monkeypatch):
    # blocks of _GEMM_CHUNK_PANELS panels start a run at their first panel
    # and keep the rule's run starts inside them
    rule = piecewise_gauss_panels(np.array([0.0, 4.0, 7.0]), 0.1)
    assert rule.run_starts == (0, 40)
    seen = []

    def recording(block, k):
        seen.append((block.centres.size, block.run_starts))
        return panel_j0_table(block, k)

    monkeypatch.setattr(_kernels._ACTIVE, "j0_table", recording)
    k = np.linspace(0.0, 12.0, 30)
    got = weighted_j0_gemm(PanelTable(rule, k), k,
                           np.eye(30, dtype=complex))
    assert seen == [(32, (0,)), (32, (0, 8)), (6, (0,))]
    assert np.max(np.abs(got.real - _reference_j0(
        np.multiply.outer(rule.nodes, k)))) <= 1e-13


def test_panel_table_through_gemm():
    # a rule of two runs, more panels than one gemm block holds, and a zero
    # wavenumber, where j0 = 1
    rule = piecewise_gauss_panels(np.array([0.0, 1.3, 9.0]), 0.2)
    assert rule.centres.size > _kernels._GEMM_CHUNK_PANELS
    assert np.unique(rule.half_widths).size == 2
    rng = np.random.default_rng(5)
    k = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 12.0, 60))))
    coeffs = rng.normal(size=(61, 3)) + 1j * rng.normal(size=(61, 3))
    table = panel_j0_table(rule, k)
    assert np.max(np.abs(table - _reference_j0(np.outer(rule.nodes, k)))) \
        <= 1e-13
    assert np.all(table[:, 0] == 1.0)
    got = weighted_j0_gemm(PanelTable(rule, k), k, coeffs)
    expected = _reference_j0(np.outer(rule.nodes, k)) @ coeffs
    scale = np.sum(np.abs(coeffs), axis=0)
    assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-13 * scale)


def _one_column_gap(rule, k, coeffs):
    """Largest gap between the one-column contraction of ``rule``, which
    fills no table, and the table's product, over sum |coeffs|."""
    def no_fill(rule, k):
        raise AssertionError("a one-column contraction filled a j0 table")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels._ACTIVE, "j0_table", no_fill)
        got = weighted_j0_gemm(PanelTable(rule, k), k, coeffs[:, None])
    assert got.shape == (rule.size, 1)
    expected = panel_j0_table(rule, k) @ coeffs
    return np.max(np.abs(got[:, 0] - expected)) / np.sum(np.abs(coeffs))


_BALL_FAMILIES = (
    st.builds(lcdisc.GaussianFamily, k0=st.floats(0.5, 8.0),
              sigma=st.floats(0.1, 1.5)) |
    st.builds(lcdisc.ExponentialFamily, kappa=st.floats(0.5, 2.0)))


@settings(max_examples=150, deadline=None)
@given(family=_BALL_FAMILIES,
       R=st.floats(2.0 ** -10, 16.0),
       # the packet at the ball's edge, or drawn: inside or beyond it
       d=st.none() | st.floats(0.0, 8.0),
       t=st.just(0.0) | st.floats(0.0, 30.0),
       level=st.sampled_from(DENSITY_LADDER[:3]))
# sums from the panel centres, not the lower edges, were 1.2e-14 off here
@example(family=lcdisc.ExponentialFamily(kappa=1.25), R=1.5, d=None, t=0.0,
         level=2.0)
@example(family=lcdisc.ExponentialFamily(kappa=2.0), R=2.0 ** -10, d=6.0,
         t=17.0, level=2.0)
def test_one_column_gemm_matches_table(family, R, d, t, level):
    # a ball's rho rule and the coefficients of its k rule at one time, as
    # a p_t at that time contracts them
    profile = lcdisc.make_profile(family, offset_d=R if d is None else d)
    rule = propagation._rho_rule(profile, R, level)
    k, w = propagation._k_rule(profile, float(rule.nodes.max()), t, level)
    coeffs = propagation._phase_coeffs(
        propagation._envelope(profile, k, w), k, np.array([t]))[:, 0]
    assert _one_column_gap(rule, k, coeffs) <= 1e-14


def test_one_column_gemm_at_a_zero_node():
    # a run narrower than the subnormal range rounds nodes to 0, where
    # every j0 is 1 and the sum is the coefficients' sum; a k node at 0
    rule = piecewise_gauss_panels(np.array([0.0, 5e-324, 1.0, 2.5]), 0.25)
    assert np.any(rule.nodes == 0.0)
    rng = np.random.default_rng(11)
    k = np.concatenate(([0.0], np.sort(rng.uniform(0.0, _K_MAX, 80))))
    coeffs = rng.normal(size=81) + 1j * rng.normal(size=81)
    with np.errstate(divide="raise", invalid="raise"):
        assert _one_column_gap(rule, k, coeffs) <= 1e-14


# k nodes below any k rule's, with their coefficients: k x below
# _SIN_LIMIT_KX at every radius for the first two, and at small radii for
# the third, so the sums take the limit columns of sin(k x) / k
_TINY_K = np.array([0.0, 1e-12, 1e-9])
_TINY_COEFFS = np.array([0.3 - 0.2j, -0.1 + 0.4j, 0.25 + 0.05j])


def _amplitude_terms(profile, r_max, t, level):
    """An amplitude's k nodes and coefficients at one ladder level, with
    the tiny nodes _TINY_K in front."""
    k, w = propagation._k_rule(profile, r_max, t, level)
    coeffs = propagation._phase_coeffs(
        propagation._envelope(profile, k, w), k, np.array([t])).ravel()
    return (np.concatenate((_TINY_K, k)),
            np.concatenate((_TINY_COEFFS, coeffs)))


@pytest.mark.parametrize("size", [16, 257, 1000, 4097])
@pytest.mark.parametrize("t", [0.0, 2.0, 13.0, 40.0])
@pytest.mark.parametrize("family", [
    lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
    lcdisc.ExponentialFamily(kappa=2.0),
], ids=["gauss", "expo"])
def test_uniform_grid_sum_matches_direct(family, t, size):
    # the angle-addition sum on a uniform grid from r = 0 against the direct
    # sum on the same radii, at the k nodes and coefficients of an
    # amplitude's first two levels, tiny k nodes included; sizes below, at
    # and past one block, with a last block of one row
    profile = lcdisc.make_profile(family)
    r_max = propagation.default_r_max(profile, t)
    assert _TINY_K[1] * r_max < _kernels._SIN_LIMIT_KX
    grid = EvenGrid.linspace(0.0, r_max, size)
    assert np.array_equal(grid.nodes, np.linspace(0.0, r_max, size))
    # e2ebench counts a sum's rows as np.size of its radii
    assert np.size(grid) == size
    for level in DENSITY_LADDER[:2]:
        k, coeffs = _amplitude_terms(profile, r_max, t, level)
        got = weighted_j0_sum(grid, k, coeffs)
        direct = weighted_j0_sum(grid.nodes, k, coeffs)
        assert got.shape == (size,)
        scale = np.sum(np.abs(coeffs))
        assert np.max(np.abs(got - direct)) <= 1e-13 * scale
        # j0(0) = 1: the sum at r = 0 is the sum of the coefficients
        assert got[0] == pytest.approx(np.sum(coeffs), rel=1e-14)


_UNIFORM_FAMILIES = [lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
                     lcdisc.ExponentialFamily(kappa=2.0)]


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(_UNIFORM_FAMILIES),
       size=st.integers(2, 5000),
       r_max=st.floats(1e-3, 200.0),
       t=st.floats(-40.0, 40.0),
       level=st.sampled_from(DENSITY_LADDER[:2]))
def test_uniform_grid_sum_matches_direct_drawn(family, size, r_max, t, level):
    # the factorized sum on drawn grids, sizes off the block edges too,
    # against the direct sum on the same radii
    profile = lcdisc.make_profile(family)
    grid = EvenGrid.linspace(0.0, r_max, size)
    k, coeffs = _amplitude_terms(profile, r_max, t, level)
    got = weighted_j0_sum(grid, k, coeffs)
    direct = weighted_j0_sum(grid.nodes, k, coeffs)
    assert got.shape == (size,)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(coeffs))
    assert got[0] == pytest.approx(np.sum(coeffs), rel=1e-14)


@pytest.mark.parametrize("start", [0.5, 3.0])
@pytest.mark.parametrize("family", _UNIFORM_FAMILIES, ids=["gauss", "expo"])
def test_even_grid_sum_from_any_start(family, start):
    # a grid of radii away from r = 0 has no row that skips the division
    profile = lcdisc.make_profile(family)
    r_max = propagation.default_r_max(profile, 3.0)
    grid = EvenGrid.linspace(start, r_max, 1000)
    for level in DENSITY_LADDER[:2]:
        k, w = propagation._k_rule(profile, r_max, 3.0, level)
        coeffs = propagation._phase_coeffs(
            propagation._envelope(profile, k, w), k,
            np.array([3.0])).ravel()
        got = weighted_j0_sum(grid, k, coeffs)
        direct = weighted_j0_sum(grid.nodes, k, coeffs)
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(coeffs))


def test_uniform_grid_sum_memory_is_bounded():
    # one 2^18-radius sum at 840 k nodes, in products of _CHUNK_BASES block
    # bases, stays under the 58.2 MiB that j0 table blocks of 128 rows
    # peaked at; one product over all 2048 bases peaks at 141 MiB
    k = np.linspace(0.0, 12.0, 840)
    coeffs = np.exp(-0.5 * (k - 5.0) ** 2 - 1j * k)
    grid = EvenGrid.linspace(0.0, 200.0, 1 << 18)
    tracemalloc.start()
    try:
        got = weighted_j0_sum(grid, k, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 58 * 2 ** 20
    # rows around the edges of blocks and of products, against the direct sum
    chunk = _kernels._CHUNK_BASES * _kernels._BLOCK_ROWS
    rows = np.array([1, 127, 128, 129, chunk - 1, chunk, chunk + 1,
                     5 * chunk + 300, grid.size - 1])
    direct = weighted_j0_sum(grid.nodes[rows], k, coeffs)
    assert np.max(np.abs(got[rows] - direct)) <= 1e-13 * np.sum(np.abs(coeffs))
