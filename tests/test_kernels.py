"""Backend-agnostic j0 kernels: accuracy, agreement, and selection."""

import numpy as np
import pytest

from lcdisc._kernels import (
    _fallback,
    available_backends,
    backend_name,
    set_backend,
    weighted_j0_gemm,
    weighted_j0_sum,
)


def _reference_j0(z):
    # np.sinc(x) = sin(pi x)/(pi x) handles z = 0 exactly.
    return np.sinc(np.asarray(z) / np.pi)


def test_available_backends_include_numpy():
    names = available_backends()
    assert "numpy" in names
    assert backend_name() in names


def test_set_backend_rejects_unknown(restore_backend):
    with pytest.raises(ValueError):
        set_backend("cuda")


@pytest.fixture(params=sorted(available_backends()))
def backend(request, restore_backend):
    set_backend(request.param)
    return request.param


def test_j0_sum_matches_reference(backend):
    rng = np.random.default_rng(0)
    r = np.concatenate(([0.0, 1e-9], rng.uniform(0.0, 50.0, 64)))
    k = np.sort(rng.uniform(0.0, 12.0, 256))
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    got = weighted_j0_sum(r, k, coeffs)
    expected = _reference_j0(np.outer(r, k)) @ coeffs
    scale = np.sum(np.abs(coeffs))
    assert np.max(np.abs(got - expected)) < 1e-13 * scale


def test_j0_table_matches_reference(backend):
    rng = np.random.default_rng(1)
    r = np.concatenate(([0.0], rng.uniform(0.0, 200.0, 40)))
    k = np.sort(np.concatenate(([0.0, 1e-8], rng.uniform(0.0, 30.0, 100))))
    from lcdisc import _kernels
    table = _kernels._ACTIVE.j0_table(np.ascontiguousarray(r),
                                      np.ascontiguousarray(k))
    expected = _reference_j0(np.outer(r, k))
    assert table.shape == (41, 102)
    assert np.max(np.abs(table - expected)) < 1e-14
    # j0(0) = 1 exactly, on the zero radius and the zero wavenumber.
    assert np.all(table[0] == 1.0)
    assert np.all(table[:, 0] == 1.0)


def test_j0_small_argument_series(backend):
    # Below the series switchover sin(z)/z in floats is noisier than the
    # series; values must stay within an ulp-scale band of the reference.
    r = np.full(8, 1.0)
    k = np.geomspace(1e-12, 9e-5, 8)
    coeffs = np.ones(8, dtype=complex)
    got = weighted_j0_sum(r, k, coeffs)
    expected = np.sum(_reference_j0(k))
    assert got[0].real == pytest.approx(expected, rel=1e-14)


def test_gemm_matches_sum(backend):
    rng = np.random.default_rng(2)
    r = rng.uniform(0.0, 20.0, 700)  # spans several 256-row chunks
    k = np.sort(rng.uniform(0.0, 12.0, 96))
    coeffs = rng.normal(size=(96, 3)) + 1j * rng.normal(size=(96, 3))
    table = weighted_j0_gemm(r, k, coeffs)
    for col in range(3):
        direct = weighted_j0_sum(r, k, coeffs[:, col])
        scale = np.sum(np.abs(coeffs[:, col]))
        assert np.max(np.abs(table[:, col] - direct)) < 1e-12 * scale


def test_gemm_matches_two_real_products(backend):
    # One gemm against the interleaved [re | im] coefficients must equal the
    # table times each part separately.
    from lcdisc import _kernels
    rng = np.random.default_rng(4)
    r = rng.uniform(0.0, 20.0, 300)
    k = np.sort(rng.uniform(0.0, 12.0, 80))
    coeffs = rng.normal(size=(80, 5)) + 1j * rng.normal(size=(80, 5))
    table = _kernels._ACTIVE.j0_table(r, k)
    expected = table @ coeffs.real + 1j * (table @ coeffs.imag)
    got = weighted_j0_gemm(r, k, coeffs)
    scale = np.sum(np.abs(coeffs), axis=0)
    assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-13 * scale)


def test_backends_agree():
    names = available_backends()
    if len(names) < 2:
        pytest.skip("only one backend compiled in")
    rng = np.random.default_rng(3)
    r = rng.uniform(0.0, 80.0, 300)
    k = np.sort(rng.uniform(0.0, 15.0, 400))
    coeffs = rng.normal(size=400) + 1j * rng.normal(size=400)
    results = {}
    initial = backend_name()
    try:
        for name in names:
            set_backend(name)
            results[name] = weighted_j0_sum(r, k, coeffs)
    finally:
        set_backend(initial)
    scale = np.sum(np.abs(coeffs))
    assert np.max(np.abs(results["numpy"] - results["compiled"])) < \
        1e-13 * scale


def test_input_validation(backend):
    r = np.array([1.0])
    with pytest.raises(ValueError):
        weighted_j0_sum(r, np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        weighted_j0_sum(r, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        weighted_j0_sum(r, np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        weighted_j0_gemm(r, np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_empty_inputs(backend):
    assert weighted_j0_sum(np.empty(0), np.array([1.0]),
                           np.array([1.0 + 0j])).shape == (0,)
    out = weighted_j0_sum(np.array([1.0]), np.empty(0), np.empty(0))
    assert out.shape == (1,)
    assert out[0] == 0.0


def test_fallback_direct():
    z = np.array([0.0, 1e-6, 0.5, 3.14159, 40.0])
    got = _fallback.j0_table(np.array([1.0]), z)[0]
    assert np.max(np.abs(got - _reference_j0(z))) < 1e-15
