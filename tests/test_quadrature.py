"""Rules and even grids: np.linspace's points without np.linspace."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lcdisc.errors import InvalidParameterError
from lcdisc.quadrature import (
    GAUSS_W,
    GAUSS_X,
    EvenGrid,
    gauss_panels,
    piecewise_gauss_panels,
)

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
@given(a=_STARTS, width=_STEPS, n_panels=st.integers(1, 4096),
       grade=st.sampled_from([0, 12]))
@example(a=0.0, width=5e-324, n_panels=2024, grade=0)
@example(a=0.0, width=1e-300, n_panels=4096, grade=12)
def test_gauss_panel_edges_are_linspace_bits(a, width, n_panels, grade):
    b = a + width * n_panels
    assume(math.isfinite(b) and b > a)
    rule = gauss_panels(a, b, width, grade=grade)
    # the rule as it was built from np.linspace's edges
    n_uniform = rule.centres.size - grade
    edges = np.linspace(a, b, n_uniform + 1)
    if grade > 0:
        graded = a + (edges[1] - a) * np.ldexp(1.0,
                                               -np.arange(grade, 0, -1))
        edges = np.concatenate(([a], graded, edges[1:]))
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
    rule = gauss_panels(0.0, 3.0, 0.5, grade=4)
    finer = rule.subdivide(2)
    # subdividing reads only centres and half-widths
    assert "nodes" not in vars(rule) and "weights" not in vars(rule)
    assert finer.size == 2 * rule.size == 16 * rule.centres.size
    half = finer.half_widths[:, None]
    assert _bits(finer.nodes) == _bits(finer.centres[:, None] +
                                       half * GAUSS_X)
    assert _bits(finer.weights) == _bits(half * GAUSS_W)


def test_subdivide_into_one_part_is_the_rule():
    rule = piecewise_gauss_panels(np.array([0.0, 1.0, 2.5]), 0.3)
    assert rule.subdivide(1) is rule
