"""The j0 kernels: accuracy, validation and the table-fill lookup."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lcdisc
from lcdisc import _kernels, propagation
from lcdisc._kernels import (
    UniformRadii,
    available_backends,
    backend_name,
    j0_table,
    panel_j0_table,
    weighted_j0_gemm,
    weighted_j0_sum,
)
from lcdisc.propagation import DENSITY_LADDER
from lcdisc.quadrature import PanelRule, panel_width, piecewise_gauss_panels

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
    got = weighted_j0_gemm(rule, k, np.ones((40, 2), dtype=complex))
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
    # Below the series switchover sin(z)/z in floats is noisier than the
    # series; values must stay within an ulp-scale band of the reference.
    r = np.full(8, 1.0)
    k = np.geomspace(1e-12, 9e-5, 8)
    coeffs = np.ones(8, dtype=complex)
    got = weighted_j0_sum(r, k, coeffs)
    expected = np.sum(_reference_j0(k))
    assert got[0].real == pytest.approx(expected, rel=1e-14)


def test_gemm_matches_sum():
    rng = np.random.default_rng(2)
    # 640 nodes: several blocks of 256 table rows
    rule = piecewise_gauss_panels(np.array([0.0, 20.0]), 0.25)
    k = np.sort(rng.uniform(0.0, 12.0, 96))
    coeffs = rng.normal(size=(96, 3)) + 1j * rng.normal(size=(96, 3))
    table = weighted_j0_gemm(rule, k, coeffs)
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
    got = weighted_j0_gemm(rule, k, coeffs)
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
    with pytest.raises(ValueError):
        weighted_j0_gemm(rule, np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_empty_inputs():
    assert weighted_j0_sum(np.empty(0), np.array([1.0]),
                           np.array([1.0 + 0j])).shape == (0,)
    out = weighted_j0_sum(np.array([1.0]), np.empty(0), np.empty(0))
    assert out.shape == (1,)
    assert out[0] == 0.0


def test_fallback_direct():
    z = np.array([0.0, 1e-6, 0.5, 3.14159, 40.0])
    got = j0_table(np.array([1.0]), z)[0]
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
    # the panel and direct tables at k = 1, on panels of half-width 1e-3
    # next to each z, so nodes run from 4e-5 to 1e5
    z = np.array(z)
    wide = PanelRule(z + 1e-3, np.full(z.size, 1e-3))
    direct = j0_table(wide.nodes, np.array([1.0]))[:, 0]
    assert np.max(np.abs(direct - _sin_over_z(wide.nodes))) <= 1e-13
    table = panel_j0_table(wide, np.array([1.0]))[:, 0]
    assert np.max(np.abs(table - _sin_over_z(wide.nodes))) <= 1e-13


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
    got = weighted_j0_gemm(rule, k, coeffs)
    expected = _reference_j0(np.outer(rule.nodes, k)) @ coeffs
    scale = np.sum(np.abs(coeffs), axis=0)
    assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-13 * scale)


@pytest.mark.parametrize("size", [16, 257, 1000, 4097])
@pytest.mark.parametrize("t", [0.0, 2.0, 13.0, 40.0])
@pytest.mark.parametrize("family", [
    lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
    lcdisc.ExponentialFamily(kappa=2.0),
], ids=["gauss", "expo"])
def test_uniform_grid_sum_matches_direct(family, t, size):
    # the angle-addition sum on a uniform grid from r = 0 against the direct
    # sum on the same radii, at the k nodes and coefficients of an
    # amplitude's first two levels, graded tiny k nodes included; sizes
    # below, at and past one block, with a last block of one row
    profile = lcdisc.make_profile(family)
    r_max = propagation.default_r_max(profile, t)
    grid = UniformRadii(r_max, size)
    assert np.array_equal(grid.nodes, np.linspace(0.0, r_max, size))
    # e2ebench counts a sum's rows as np.size of its radii
    assert np.size(grid) == size
    for level in DENSITY_LADDER[:2]:
        rule = propagation._k_rule(profile, grid.r_max, t, level)
        assert rule.nodes[0] < 1e-5
        coeffs = propagation._phase_coeffs(
            propagation._envelope(profile, rule), rule.nodes,
            np.array([t])).ravel()
        got = weighted_j0_sum(grid, rule.nodes, coeffs)
        direct = weighted_j0_sum(grid.nodes, rule.nodes, coeffs)
        assert got.shape == (size,)
        scale = np.sum(np.abs(coeffs))
        assert np.max(np.abs(got - direct)) <= 1e-13 * scale
        # j0(0) = 1: the sum at r = 0 is the sum of the coefficients
        assert got[0] == pytest.approx(np.sum(coeffs), rel=1e-14)
