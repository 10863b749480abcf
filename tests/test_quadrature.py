"""Rules and even grids: np.linspace's points without np.linspace, and
the k rule's panels at its branch point."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import lcdisc
from lcdisc import propagation
from lcdisc.errors import InvalidParameterError
from lcdisc.propagation import DENSITY_LADDER
from lcdisc.quadrature import (
    GAUSS_ORDER,
    GAUSS_W,
    GAUSS_X,
    EvenGrid,
    gauss_panels,
    panel_width,
    piecewise_gauss_panels,
)

from graded_panels import graded_gauss_panels

_STARTS = (st.floats(-1e6, 1e6, allow_subnormal=False) | st.just(0.0) |
           st.floats(-1e300, -1e-300))
# steps from 1e-300 up: subnormal ones are rejected (see below)
_STEPS = st.floats(1e-300, 1e6) | st.floats(-300.0, 6.0).map(
    lambda e: 10.0 ** e)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=300, deadline=None)
@given(start=_STARTS, step=_STEPS, size=st.integers(2, 4096))
@example(start=0.0, step=1e-300, size=4096)
@example(start=-5.0, step=2.5, size=5)
def test_even_grids_are_linspace_bits(start, step, size):
    stop = start + step * (size - 1)
    assume(math.isfinite(stop) and stop != start)
    grid = EvenGrid.linspace(start, stop, size)
    assert _bits(grid.nodes) == _bits(np.linspace(start, stop, size))
    assert grid.step == (stop - start) / (size - 1)
    inner = EvenGrid.between(start, stop, size)
    assert _bits(inner.nodes) == _bits(np.linspace(start, stop,
                                                   size + 2)[1:-1])
    assert inner.step == (stop - start) / (size + 1)


@settings(max_examples=300, deadline=None)
@given(a=_STARTS, width=_STEPS, n_panels=st.integers(1, 4096))
@example(a=0.0, width=5e-324, n_panels=2024)
@example(a=0.0, width=1e-300, n_panels=4096)
def test_gauss_panel_edges_are_linspace_bits(a, width, n_panels):
    b = a + width * n_panels
    assume(math.isfinite(b) and b > a)
    rule = gauss_panels(a, b, width)
    # the rule as it was built from np.linspace's edges
    edges = np.linspace(a, b, rule.centres.size + 1)
    assert _bits(rule.centres) == _bits(0.5 * (edges[1:] + edges[:-1]))
    assert _bits(rule.half_widths) == _bits(0.5 * (edges[1:] - edges[:-1]))


@pytest.mark.parametrize("build", [
    lambda: EvenGrid.linspace(0.0, 5e-324, 3),
    lambda: EvenGrid.linspace(-1e-322, -1e-323, 100),
    lambda: EvenGrid.between(0.0, 5e-324, 1),
], ids=["linspace", "negative", "between"])
def test_even_grid_rejects_a_step_that_underflows(build):
    # np.linspace spreads such a range by a branch of its own
    with pytest.raises(InvalidParameterError, match="underflows"):
        build()


def test_even_grid_of_equal_ends_is_linspace():
    grid = EvenGrid.linspace(-0.0, -0.0, 4)
    assert _bits(grid.nodes) == _bits(np.linspace(-0.0, -0.0, 4))
    assert grid.step == 0.0


def test_nodes_and_weights_are_computed_when_read():
    rule = graded_gauss_panels(0.0, 3.0, 0.5, 4)
    finer = rule.subdivide(2)
    # subdividing reads only centres and half-widths
    assert "nodes" not in vars(rule) and "weights" not in vars(rule)
    assert finer.size == 2 * rule.size == 16 * rule.centres.size
    half = finer.half_widths[:, None]
    assert _bits(finer.nodes) == _bits(finer.centres[:, None] +
                                       half * GAUSS_X)
    assert _bits(finer.weights) == _bits(half * GAUSS_W)


def test_gauss_rule_is_leggauss_to_the_bit():
    # the literal rule is leggauss(8)'s; the j0 kernels mirror the positive
    # nodes into the negative ones, so they must be antisymmetric exactly
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    assert _bits(GAUSS_X) == _bits(x)
    assert _bits(GAUSS_W) == _bits(w)
    assert _bits(GAUSS_X) == _bits(-GAUSS_X[::-1])


def test_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial took about 3.5 ms of every start-up, for 16 numbers
    code = ("import sys, lcdisc._kernels, lcdisc.cli; "
            "print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.path.dirname(
                                  os.path.dirname(lcdisc.__file__))})
    assert out.stdout.strip() == "False"


def test_subdivide_into_one_part_is_the_rule():
    rule = piecewise_gauss_panels(np.array([0.0, 1.0, 2.5]), 0.3)
    assert rule.subdivide(1) is rule


@pytest.mark.parametrize("r_peak,t", [(3.0, 2.0), (0.5, 0.0), (40.0, 1.0)])
def test_k_rule_maps_the_branch_point_to_a_polynomial(r_peak, t):
    # the k rule's first 8 nodes are the panel [0, a] in u = sqrt(k), where
    # k^{3/2 + m} dk = 2 u^{4 + 2m} du is a polynomial of degree at most
    # 14, which 8 Gauss nodes integrate exactly; 8 nodes in k are 4.8e-6
    # off at m = 0
    profile = lcdisc.make_profile(lcdisc.GaussianFamily(k0=5.0, sigma=1.0))
    k, w = propagation._k_rule(profile, r_peak, t, DENSITY_LADDER[0])
    frequency = max(r_peak, t, 1.0 / profile.family.momentum_width)
    coarsest = gauss_panels(0.0, profile.k_max,
                            panel_width(frequency, DENSITY_LADDER[0]))
    a = coarsest.half_widths[0]
    assert 0.0 < k[0] and k[GAUSS_ORDER - 1] < a < k[GAUSS_ORDER]
    plain_k = 0.5 * a * (1.0 + GAUSS_X)
    plain_w = 0.5 * a * GAUSS_W
    for m in range(6):
        power = 1.5 + m
        exact = a ** (power + 1.0) / (power + 1.0)
        got = w[:GAUSS_ORDER] @ k[:GAUSS_ORDER] ** power
        assert abs(got - exact) <= 1e-14 * exact
    exact = a ** 2.5 / 2.5
    assert abs(plain_w @ plain_k ** 1.5 - exact) > 1e-6 * exact


@pytest.mark.parametrize("level", DENSITY_LADDER)
def test_k_rule_node_counts(level):
    # 16 L nodes on the first coarsest panel [0, 2a], 8 L of them in u on
    # [0, a]; 8 L on every other panel
    profile = lcdisc.make_profile(lcdisc.ExponentialFamily(kappa=2.0))
    k, w = propagation._k_rule(profile, 6.0, 3.0, level)
    coarsest = gauss_panels(0.0, profile.k_max,
                            panel_width(6.0, DENSITY_LADDER[0]))
    parts = round(level / DENSITY_LADDER[0])
    a = coarsest.half_widths[0]
    assert k.size == w.size == \
        GAUSS_ORDER * parts * (coarsest.centres.size + 1)
    assert np.count_nonzero(k < a) == GAUSS_ORDER * parts
    assert np.count_nonzero(k < 2.0 * a) == 2 * GAUSS_ORDER * parts
    assert np.all(k[1:] > k[:-1]) and k[-1] < profile.k_max
    # the weights of a rule on [0, k_max] sum to k_max
    assert np.sum(w) == pytest.approx(profile.k_max, rel=1e-14)
