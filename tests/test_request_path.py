"""The CLI's request paths reach NumPy only through C: ufuncs, their
reductions, array methods and C functions.

NumPy's Python-level helpers (np.linspace, np.any, np.errstate, ...) cost
50-550 us each on their first call in a request, after other work has
evicted them from the caches, against 40-100 us for the ufunc or array
method that does their arithmetic.  A small ``optimal-time``,
``error-curve --fixed-t`` and ``monte-carlo --trials-csv`` request run
under a profile hook, and the test fails when a frame of lcdisc calls
straight into a function defined in NumPy's Python source.  The array-function dispatchers of ``numpy/_core/multiarray.py``
(``concatenate``, ``where``, ``bincount``, ...) are the only such
functions allowed: each returns its arguments for a C function.
"""

import os
import sys

import numpy as np
import pytest

import lcdisc
from lcdisc import _csvrows, cli

_NUMPY = os.path.dirname(np.__file__) + os.sep
_LCDISC = os.path.dirname(lcdisc.__file__) + os.sep
_DISPATCHERS = os.path.join(_NUMPY, "_core", "multiarray.py")

_GAUSSIAN = ("--family", "gaussian", "--k0", "5", "--sigma", "1")
_EXPONENTIAL = ("--family", "exponential", "--kappa", "2")


def _numpy_python_calls(argv: list[str]) -> list[str]:
    """``cli.main(argv)``'s calls from lcdisc into NumPy's Python source,
    as "numpy file:function <- lcdisc file:function"."""
    calls = []

    def hook(frame, event, arg):
        if event != "call":
            return
        callee, caller = frame.f_code, frame.f_back
        if (callee.co_filename.startswith(_NUMPY)
                and callee.co_filename != _DISPATCHERS
                and caller is not None
                and caller.f_code.co_filename.startswith(_LCDISC)):
            calls.append(
                f"{os.path.relpath(callee.co_filename, _NUMPY)}:"
                f"{callee.co_name} <- "
                f"{os.path.basename(caller.f_code.co_filename)}:"
                f"{caller.f_code.co_name}")

    # the CSV tables are built on a process's first CSV: build them here
    _csvrows._tables.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        status = cli.main(argv)
    finally:
        sys.setprofile(previous)
    assert status == 0
    return calls


@pytest.mark.parametrize("command", ["optimal-time", "error-curve",
                                     "monte-carlo"])
def test_request_path_calls_no_numpy_python_helper(command, tmp_path):
    out = str(tmp_path / "out")
    argv = {
        "optimal-time": ["optimal-time", *_EXPONENTIAL, "--d", "3",
                         "--R", "1", "--t-lo", "0", "--t-hi", "6"],
        "error-curve": ["error-curve", *_GAUSSIAN, "--d", "1.5",
                        "--R-min", "0.7", "--R-max", "1.4", "--R-count",
                        "3", "--fixed-t", "4",
                        "--output", out],
        "monte-carlo": ["monte-carlo", *_GAUSSIAN, "--d", "1.5", "--R", "1",
                        "--t", "1", "--trials", "1000",
                        "--trials-csv", out, "--output", out + ".json"],
    }[command]
    calls = _numpy_python_calls(argv)
    assert not calls, "\n".join(sorted(set(calls)))
