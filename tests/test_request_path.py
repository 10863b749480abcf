"""The CLI's request paths reach NumPy and the standard library's argparse,
json, dataclasses, contextlib and copy only through C: ufuncs, their
reductions, array methods and C functions.

NumPy's Python-level helpers (np.linspace, np.any, np.errstate, ...) cost
50-550 us each on their first call in a request, after other work has
evicted them from the caches, against 40-100 us for the ufunc or array
method that does their arithmetic.  The standard library's are as dear:
argparse's ``parse_args`` took 0.21-0.29 ms a request, and
``json.dumps(indent=2)``, which runs json's Python encoder, 0.34-0.45 ms.
A small ``optimal-time``, ``error-curve --fixed-t`` (its CSV to a file and
to stdout), ``monte-carlo --trials-csv`` and ``dump-density`` request run
under a profile hook, and the test fails when a frame of lcdisc calls
straight into a function defined in NumPy's Python source or in one of
those five modules.  The array-function dispatchers of
``numpy/_core/multiarray.py`` (``concatenate``, ``where``, ``bincount``,
...) are the only such functions allowed: each returns its arguments for a
C function.
"""

import argparse
import contextlib
import copy
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

import lcdisc
from lcdisc import _csvrows, cli

_LCDISC = os.path.dirname(lcdisc.__file__) + os.sep
# the Python source each rule keeps requests out of, as file-name prefixes
_NUMPY = (os.path.dirname(np.__file__) + os.sep,)
_STDLIB = (os.path.dirname(json.__file__) + os.sep, argparse.__file__,
           dataclasses.__file__, contextlib.__file__, copy.__file__)
_DISPATCHERS = os.path.join(_NUMPY[0], "_core", "multiarray.py")

_GAUSSIAN = ("--family", "gaussian", "--k0", "5", "--sigma", "1")
_EXPONENTIAL = ("--family", "exponential", "--kappa", "2")


def _python_calls(argv: list[str], source: tuple[str, ...]) -> list[str]:
    """``cli.main(argv)``'s calls from lcdisc into Python files whose names
    start with one of ``source``, as "callee file:function <- lcdisc
    file:function"."""
    calls = []

    def hook(frame, event, arg):
        if event != "call":
            return
        callee, caller = frame.f_code, frame.f_back
        if (callee.co_filename.startswith(source)
                and callee.co_filename != _DISPATCHERS
                and caller is not None
                and caller.f_code.co_filename.startswith(_LCDISC)):
            calls.append(
                f"{callee.co_filename}:{callee.co_name} <- "
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


def _argv(command: str, tmp_path) -> list[str]:
    out = str(tmp_path / "out")
    return {
        "optimal-time": ["optimal-time", *_EXPONENTIAL, "--d", "3",
                         "--R", "1", "--t-lo", "0", "--t-hi", "6"],
        "error-curve": ["error-curve", *_GAUSSIAN, "--d", "1.5",
                        "--R-min", "0.7", "--R-max", "1.4", "--R-count",
                        "3", "--fixed-t", "4",
                        "--output", out],
        "monte-carlo": ["monte-carlo", *_GAUSSIAN, "--d", "1.5", "--R", "1",
                        "--t", "1", "--trials", "1000",
                        "--trials-csv", out, "--output", out + ".json"],
        # CSV on stdout, through its binary buffer
        "error-curve-stdout": ["error-curve", *_EXPONENTIAL, "--d", "1.5",
                               "--R-list", "0.7,1", "--fixed-t", "2"],
        "dump-density": ["dump-density", *_GAUSSIAN, "--d", "1", "--t", "1",
                         "--n-points", "512"],
    }[command]


_COMMANDS = ["optimal-time", "error-curve", "monte-carlo",
             "error-curve-stdout", "dump-density"]


@pytest.mark.parametrize("command", _COMMANDS)
def test_request_path_calls_no_numpy_python_helper(command, tmp_path):
    calls = _python_calls(_argv(command, tmp_path), _NUMPY)
    assert not calls, "\n".join(sorted(set(calls)))


@pytest.mark.parametrize("command", _COMMANDS)
def test_request_path_calls_no_stdlib_python_helper(command, tmp_path):
    calls = _python_calls(_argv(command, tmp_path), _STDLIB)
    assert not calls, "\n".join(sorted(set(calls)))
