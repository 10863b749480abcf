"""Backend selection and batched evaluation of j0-weighted sums.

Two interchangeable backends evaluate j0(z) = sin(z)/z tables and weighted
sums: a compiled C extension and a pure NumPy fallback.  The compiled one is
used when importable; ``LCDISC_BACKEND=numpy|compiled`` or :func:`set_backend`
overrides the choice.  Within a backend results are deterministic because
every summation order is fixed.

Time sweeps fill j0 tables on the nodes of a
:class:`~lcdisc.quadrature.PanelRule`: the compiled backend evaluates
sin(z)/z on every node directly in C, the NumPy backend builds the table by
angle addition from the panel geometry, which needs far fewer np.sin calls.
"""

from __future__ import annotations

import os

import numpy as np

from lcdisc._kernels import _fallback
from lcdisc.quadrature import PanelRule

try:
    from lcdisc._kernels import _core
except ImportError:
    _core = None

# panels per table block: 256 rows of 8 Gauss nodes each
_GEMM_CHUNK_PANELS = 32


def _as_vec(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


class _CompiledBackend:
    name = "compiled"

    @staticmethod
    def j0_sum(r: np.ndarray, k: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            inv_k = np.where(k > 0.0, 1.0 / k, 0.0)
        out_re = np.empty(r.shape[0])
        out_im = np.empty(r.shape[0])
        _core.j0_sum(_as_vec(r), _as_vec(k), inv_k,
                     _as_vec(coeffs.real), _as_vec(coeffs.imag),
                     out_re, out_im)
        return out_re + 1j * out_im

    @staticmethod
    def j0_table(rule: PanelRule, k: np.ndarray) -> np.ndarray:
        # one C sin per entry beats the NumPy angle-addition fill several
        # times over, so the geometry is not needed here
        with np.errstate(divide="ignore"):
            inv_k = np.where(k > 0.0, 1.0 / k, 0.0)
        out = np.empty((rule.size, k.shape[0]))
        _core.j0_table(rule.nodes, _as_vec(k), inv_k, out)
        return out


class _NumpyBackend:
    name = "numpy"

    @staticmethod
    def j0_sum(r: np.ndarray, k: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        return _fallback.j0_sum(r, k, np.asarray(coeffs, dtype=np.complex128))

    @staticmethod
    def j0_table(rule: PanelRule, k: np.ndarray) -> np.ndarray:
        return _fallback.panel_j0_table(rule, k)


_BACKENDS = {"numpy": _NumpyBackend}
if _core is not None:
    _BACKENDS["compiled"] = _CompiledBackend


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def _initial_backend():
    requested = os.environ.get("LCDISC_BACKEND")
    if requested is not None:
        if requested not in _BACKENDS:
            raise ImportError(
                f"LCDISC_BACKEND={requested!r} is not available; "
                f"choose from {sorted(_BACKENDS)}"
            )
        return _BACKENDS[requested]
    return _BACKENDS.get("compiled", _NumpyBackend)


_ACTIVE = _initial_backend()


def backend_name() -> str:
    return _ACTIVE.name


def set_backend(name: str) -> None:
    global _ACTIVE
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(_BACKENDS)}"
        )
    _ACTIVE = _BACKENDS[name]


def _check_k(k: np.ndarray) -> np.ndarray:
    k = _as_vec(k)
    if k.size and (k[0] < 0.0 or np.any(np.diff(k) < 0.0)):
        raise ValueError("k nodes must be nonnegative and sorted ascending")
    return k


def weighted_j0_sum(r: np.ndarray, k: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Return out[i] = sum_j coeffs[j] * j0(k[j] * r[i]) as complex128."""
    r = _as_vec(r)
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != k.shape:
        raise ValueError("coeffs must have one entry per k node")
    return _ACTIVE.j0_sum(r, k, coeffs)


def weighted_j0_gemm(r: PanelRule, k: np.ndarray,
                     coeffs: np.ndarray) -> np.ndarray:
    """Batched form: out[i, m] = sum_j coeffs[j, m] * j0(k[j] * r[i]).

    The radii r[i] are the nodes of the :class:`PanelRule` ``r``.  The j0
    table for a block of panels is built once and reused across all columns
    through one real BLAS product, which is what makes time sweeps cheap.
    A C-contiguous complex matrix viewed as float64 is the real matrix whose
    columns alternate real and imaginary parts, so the product with that
    view, viewed back as complex, is the complex result.
    """
    k = _check_k(k)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[0] != k.shape[0]:
        raise ValueError("coeffs must have shape (len(k), n_columns)")
    stacked = np.ascontiguousarray(coeffs).view(np.float64)
    out = np.empty((r.size, stacked.shape[1]))
    row = 0
    for lo in range(0, r.centres.size, _GEMM_CHUNK_PANELS):
        hi = lo + _GEMM_CHUNK_PANELS
        block = PanelRule(r.centres[lo:hi], r.half_widths[lo:hi])
        np.matmul(_ACTIVE.j0_table(block, k), stacked,
                  out=out[row:row + block.size])
        row += block.size
    return out.view(np.complex128)
