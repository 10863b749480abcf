"""Benchmark the j0 evaluation backends against each other.

Times the two operations that dominate every computation in the package: the
fused weighted sum (one amplitude per radius) and the table-fill path used by
time sweeps.  Reported rates are millions of j0 evaluations per second.  A
last row per backend times its j0 table on a panel rule of the size a
ball-probability sweep fills (18 panels x 8 nodes x 800 k nodes), with the
sin/cos evaluations it makes and its cost per table entry: the NumPy
backend fills it by angle addition, the compiled one directly.  A closing
row times the direct np.sin(z)/z table on the same nodes, which the
angle-addition fill replaces.

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
from lcdisc._kernels import _fallback  # noqa: E402
from lcdisc.quadrature import GAUSS_ORDER, PanelRule  # noqa: E402

# the table-fill rows: panels of width 0.25 from rho = 1, as in a
# ball-probability sweep
FILL_PANELS = 18
FILL_K_NODES = 800


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


def bench_table_fill(label: str, fill, calls: int, entries: int,
                     reps: int) -> None:
    def op():
        for _ in range(20):  # one table alive at a time, as in a gemm
            fill()

    op()  # warm up
    best = min(timeit(op) for _ in range(reps)) / 20
    print(f"  {label:<18s} {best * 1e3:8.3f} ms   "
          f"{best / entries * 1e9:6.2f} ns/entry   {calls:7d} sin/cos")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=200_000,
                        help="number of radii, rounded down to whole "
                        "8-node panels (default 200000)")
    parser.add_argument("--cols", type=int, default=1536,
                        help="number of k nodes (default 1536)")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions, best time wins (default 3)")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    # the radii: nodes of equal panels on [0, 25], as the gemm takes them
    n_panels = max(1, args.rows // GAUSS_ORDER)
    half = 12.5 / n_panels
    rule = PanelRule(half * np.arange(1.0, 2.0 * n_panels, 2.0),
                     np.full(n_panels, half))
    r = rule.nodes
    k = np.sort(rng.uniform(1e-3, 12.0, args.cols))
    coeffs = (rng.normal(size=args.cols) + 1j * rng.normal(size=args.cols))
    coeffs *= 1.0 / args.cols
    gemm_cols = 16
    coeff_mat = np.tile(coeffs[:, None], (1, gemm_cols))
    evals = r.size * args.cols
    fill_rule = PanelRule(1.125 + 0.25 * np.arange(FILL_PANELS),
                          np.full(FILL_PANELS, 0.125))
    fill_k = np.sort(rng.uniform(1e-3, 12.0, FILL_K_NODES))
    entries = fill_rule.size * fill_k.size
    fill_calls = {
        "numpy": 2 * (FILL_PANELS + GAUSS_ORDER) * FILL_K_NODES,
        "compiled": entries,
    }

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
                lambda: _kernels.weighted_j0_gemm(rule, k, coeff_mat),
                evals * gemm_cols, args.reps)
            bench_table_fill(
                "rule table",
                lambda: _kernels._ACTIVE.j0_table(fill_rule, fill_k),
                fill_calls[name], entries, args.reps)
    finally:
        _kernels.set_backend(initial)
    print("direct np.sin(z)/z")
    bench_table_fill(
        "direct table",
        lambda: _fallback.j0_table(fill_rule.nodes, fill_k),
        entries, entries, args.reps)

    if len(results) == 2:
        speedup = results["compiled"] / results["numpy"]
        print(f"compiled/numpy speedup on weighted_j0_sum: {speedup:.1f}x")


if __name__ == "__main__":
    main()
