"""Benchmark the j0 evaluation backends against each other.

Times the two operations that dominate every computation in the package: the
fused weighted sum (one amplitude per radius) and the table-fill path used by
time sweeps.  Reported rates are millions of j0 evaluations per second.

Run as:  python3 benchmarks/bench_kernels.py [--rows N] [--cols N] [--reps N]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# run from a checkout: import lcdisc from its src/, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lcdisc import _kernels  # noqa: E402


def bench_op(label: str, op, evals: int, reps: int) -> float:
    op()  # warm up
    best = min(timeit(op) for _ in range(reps))
    rate = evals / best / 1e6
    print(f"  {label:<18s} {best * 1e3:8.2f} ms   {rate:8.1f} M j0/s")
    return rate


def timeit(op) -> float:
    start = time.perf_counter()
    op()
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=200_000,
                        help="number of radii (default 200000)")
    parser.add_argument("--cols", type=int, default=1536,
                        help="number of k nodes (default 1536)")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions, best time wins (default 3)")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    r = np.sort(rng.uniform(0.0, 25.0, args.rows))
    k = np.sort(rng.uniform(1e-3, 12.0, args.cols))
    coeffs = (rng.normal(size=args.cols) + 1j * rng.normal(size=args.cols))
    coeffs *= 1.0 / args.cols
    gemm_cols = 16
    coeff_mat = np.tile(coeffs[:, None], (1, gemm_cols))
    evals = args.rows * args.cols

    initial = _kernels.backend_name()
    results: dict[str, float] = {}
    try:
        for name in _kernels.available_backends():
            _kernels.set_backend(name)
            print(f"backend: {name}")
            results[name] = bench_op(
                "weighted_j0_sum",
                lambda: _kernels.weighted_j0_sum(r, k, coeffs),
                evals, args.reps)
            bench_op(
                f"gemm x{gemm_cols}",
                lambda: _kernels.weighted_j0_gemm(r, k, coeff_mat),
                evals * gemm_cols, args.reps)
    finally:
        _kernels.set_backend(initial)

    if len(results) == 2:
        speedup = results["compiled"] / results["numpy"]
        print(f"compiled/numpy speedup on weighted_j0_sum: {speedup:.1f}x")


if __name__ == "__main__":
    main()
