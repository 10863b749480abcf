"""Per-layer tracing of lcdisc from outside the package.

Each layer's public functions are wrapped in the namespace of the module
that imports them (for example ``lcdisc.propagation.weighted_j0_gemm``), so
the library itself is unchanged.  A wrapper records a span (name, parent,
start, end) and the work counts readable from the call's arguments.  Spans
live in memory per request and are reduced to metrics when the run ends.

Layers are lcdisc's modules: amplitude, quadrature, _kernels (``kernels``
here), propagation, discrimination, montecarlo and cli.  Per-trial Monte
Carlo functions are deliberately not wrapped: their call count would make
the tracer, not the trial loop, the thing being measured.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from quantiles import Span, ancestor_named, median, self_times

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects the spans of the request currently running."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn: Callable,
             attrs: Callable[..., dict] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(name, stack[-1] if stack else -1,
                        attrs=attrs(*args, **kwargs) if attrs else {})
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _sweep_attrs(*args, **kwargs) -> dict:
    return {"times": int(np.size(_arg(args, kwargs, 2, "t_values")))}


def _gemm_attrs(r, k, coeffs) -> dict:
    return {"rows": int(np.size(r)), "k": int(np.size(k)),
            "cols": int(np.shape(coeffs)[1])}


def _sum_attrs(r, k, coeffs) -> dict:
    return {"rows": int(np.size(r)), "k": int(np.size(k))}


def _table_attrs(r, k) -> dict:
    return {"rows": int(np.size(r)), "k": int(np.size(k))}


def _trials_attrs(*args, **kwargs) -> dict:
    return {"trials": int(_arg(args, kwargs, 4, "n_trials"))}


def _targets() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, attrs reader) for every wrapped call."""
    import lcdisc._kernels as kernels
    import lcdisc.cli as cli
    import lcdisc.discrimination as discrimination
    import lcdisc.montecarlo as montecarlo
    import lcdisc.propagation as propagation

    return [
        (cli, "make_profile", "amplitude.make_profile", None),
        (cli, "optimal_measurement_time", "discrimination.optimize", None),
        (discrimination, "optimal_measurement_time",
         "discrimination.optimize", None),
        (cli, "tradeoff_curve", "discrimination.curve", None),
        (discrimination, "outside_probability", "discrimination.outside",
         None),
        (montecarlo, "outside_probability", "discrimination.outside", None),
        # the scalar p_t path reaches the sweep through propagation's own
        # global, the batched optimizer sweep through discrimination's import
        (propagation, "inside_probability_sweep", "propagation.sweep",
         _sweep_attrs),
        (discrimination, "inside_probability_sweep", "propagation.sweep",
         _sweep_attrs),
        (propagation, "amplitude_on_radii", "propagation.amp", None),
        (cli, "radial_density_grid", "propagation.density_grid", None),
        (montecarlo, "radial_density_grid", "propagation.density_grid", None),
        (propagation, "gauss_panels", "quadrature.rule", None),
        (propagation, "piecewise_gauss_panels", "quadrature.rule", None),
        (propagation, "weighted_j0_gemm", "kernels.gemm", _gemm_attrs),
        (propagation, "weighted_j0_sum", "kernels.sum", _sum_attrs),
        # the gemm fills its j0 table through the active backend; wrapping
        # that call splits table fill from the BLAS contraction
        (kernels._ACTIVE, "j0_table", "kernels.table", _table_attrs),
        (montecarlo, "estimate_error", "montecarlo.estimate", _trials_attrs),
        (montecarlo.DetectionSampler, "for_profile", "montecarlo.sampler",
         None),
    ]


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them again."""
    saved = []
    for owner, attr, name, attrs in _targets():
        raw = vars(owner)[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(tracer.wrap(name, raw.__func__, attrs))
        else:
            wrapped = tracer.wrap(name, raw, attrs)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore() -> None:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return restore


@dataclass
class TracedRequest:
    """One traced request: its spans, its outside wall time and its files."""

    spans: list[Span]
    latency_s: float
    untraced_latency_s: float
    bytes_written: int
    exit_code: int


# per_layer metric name -> (unit, better); the order is the report's order
PER_LAYER = {
    "amplitude.make_profile.calls": ("count", "lower"),
    "amplitude.make_profile.busy_s": ("s", "lower"),
    "quadrature.rules": ("count", "lower"),
    "quadrature.busy_s": ("s", "lower"),
    "quadrature.k_nodes_per_eval": ("count", "lower"),
    "quadrature.rho_nodes_per_eval": ("count", "lower"),
    "kernels.table.calls": ("count", "lower"),
    "kernels.table.busy_s": ("s", "lower"),
    "kernels.table.j0_evals": ("count", "lower"),
    "kernels.table.j0_per_s": ("1/s", "higher"),
    "kernels.gemm.calls": ("count", "lower"),
    "kernels.gemm.self_s": ("s", "lower"),
    "kernels.gemm.columns_per_call": ("count", "higher"),
    "kernels.gemm.bytes_computed": ("B", "lower"),
    "kernels.sum.calls": ("count", "lower"),
    "kernels.sum.busy_s": ("s", "lower"),
    "kernels.sum.j0_evals": ("count", "lower"),
    "kernels.sum.j0_per_s": ("1/s", "higher"),
    "kernels.j0_evals_per_p_t": ("count", "lower"),
    "propagation.sweep.calls": ("count", "lower"),
    "propagation.sweep.times": ("count", "lower"),
    "propagation.sweep.busy_s": ("s", "lower"),
    "propagation.sweep.self_s": ("s", "lower"),
    "propagation.amp.calls": ("count", "lower"),
    "propagation.amp.self_s": ("s", "lower"),
    "propagation.density_grid.busy_s": ("s", "lower"),
    "propagation.coarse_work_frac": ("ratio", "lower"),
    "propagation.numeric_failures": ("count", "lower"),
    "discrimination.optimize.calls": ("count", "lower"),
    "discrimination.optimize.busy_s": ("s", "lower"),
    "discrimination.optimize.self_s": ("s", "lower"),
    "discrimination.p_t_evals_per_search": ("count", "lower"),
    "discrimination.times_per_search": ("count", "lower"),
    "montecarlo.trials": ("count", "higher"),
    "montecarlo.sampler_setup_s": ("s", "lower"),
    "montecarlo.loop_s": ("s", "lower"),
    "montecarlo.trials_per_s": ("1/s", "higher"),
    "cli.requests": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "trace.latency_p50_s": ("s", "lower"),
    "trace.untraced_latency_p50_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Totals:
    """Sums over a set of requests, keyed by span name and quantity."""

    def __init__(self, requests: Sequence[TracedRequest]):
        self.n = len(requests)
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, float] = {}
        for request in requests:
            self._add(request.spans)

    def _count(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    def _add(self, spans: list[Span]) -> None:
        selfs = self_times(spans)
        kernel_j0: dict[int, list[int]] = {}
        for i, span in enumerate(spans):
            name = span.name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + span.duration
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            attrs = span.attrs
            if "k" in attrs:
                j0 = attrs["rows"] * attrs["k"]
                self._count(name + ".j0", j0)
                self._count(name + ".k", attrs["k"])
                self._count(name + ".rows", attrs["rows"])
                if name != "kernels.table":
                    kernel_j0.setdefault(span.parent, []).append(j0)
            if name == "kernels.gemm":
                rows, k, cols = attrs["rows"], attrs["k"], attrs["cols"]
                self._count("gemm.cols", cols)
                # j0 table (float64) + coefficients and output (complex128)
                self._count("gemm.bytes", 8 * rows * k + 16 * k * cols +
                            16 * rows * cols)
            if name == "propagation.sweep":
                self._count("sweep.times", attrs["times"])
                owner = ancestor_named(spans, i, "discrimination.optimize")
                if owner >= 0:
                    self._count("search.p_t_evals", 1)
                    self._count("search.times", attrs["times"])
            if name in ("propagation.sweep", "propagation.amp") and \
                    span.error == "NumericFailureError":
                self._count("numeric_failures", 1)
            if name == "montecarlo.estimate":
                self._count("trials", attrs["trials"])
        # every two-resolution quadrature keeps its finest kernel call; the
        # rest of the j0 work under the same parent only guards the result
        for j0s in kernel_j0.values():
            self._count("j0.all", sum(j0s))
            self._count("j0.coarse", sum(j0s) - max(j0s))

    def per_request_calls(self, name: str) -> float:
        return self.calls.get(name, 0) / self.n

    def per_request(self, table: dict, name: str) -> float:
        return table.get(name, 0) / self.n


def layer_metrics(requests: Sequence[TracedRequest],
                  prefix: int) -> dict[str, float]:
    """Reduce traced requests to the per-layer metrics in ``PER_LAYER``.

    Counts are per request over the first ``prefix`` requests, which are the
    same inputs in every run of a seed, so they repeat exactly.  Times are
    per request over all traced requests; rates divide totals over all of
    them.
    """
    every = _Totals(requests)
    first = _Totals(requests[:prefix])
    w = first.work
    kernel_calls = first.calls.get("kernels.gemm", 0) + \
        first.calls.get("kernels.sum", 0)
    searches = first.calls.get("discrimination.optimize", 0)
    loop_s = every.self_s.get("montecarlo.estimate", 0.0)
    latencies = [r.latency_s for r in requests]
    untraced = [r.untraced_latency_s for r in requests]
    unattributed = [r.latency_s - sum(s.duration for s in r.spans
                                      if s.parent < 0)
                    for r in requests]
    metrics = {
        "amplitude.make_profile.calls":
            first.per_request_calls("amplitude.make_profile"),
        "amplitude.make_profile.busy_s":
            every.per_request(every.busy, "amplitude.make_profile"),
        "quadrature.rules": first.per_request_calls("quadrature.rule"),
        "quadrature.busy_s": every.per_request(every.busy, "quadrature.rule"),
        "quadrature.k_nodes_per_eval": _ratio(
            w.get("kernels.gemm.k", 0) + w.get("kernels.sum.k", 0),
            kernel_calls),
        "quadrature.rho_nodes_per_eval": _ratio(
            w.get("kernels.gemm.rows", 0), first.calls.get("kernels.gemm", 0)),
        "kernels.table.calls": first.per_request_calls("kernels.table"),
        "kernels.table.busy_s": every.per_request(every.busy, "kernels.table"),
        "kernels.table.j0_evals": first.per_request(w, "kernels.table.j0"),
        "kernels.table.j0_per_s": _ratio(
            every.work.get("kernels.table.j0", 0),
            every.busy.get("kernels.table", 0.0)),
        "kernels.gemm.calls": first.per_request_calls("kernels.gemm"),
        "kernels.gemm.self_s": every.per_request(every.self_s, "kernels.gemm"),
        "kernels.gemm.columns_per_call": _ratio(
            w.get("gemm.cols", 0), first.calls.get("kernels.gemm", 0)),
        "kernels.gemm.bytes_computed": first.per_request(w, "gemm.bytes"),
        "kernels.sum.calls": first.per_request_calls("kernels.sum"),
        "kernels.sum.busy_s": every.per_request(every.busy, "kernels.sum"),
        "kernels.sum.j0_evals": first.per_request(w, "kernels.sum.j0"),
        "kernels.sum.j0_per_s": _ratio(
            every.work.get("kernels.sum.j0", 0),
            every.busy.get("kernels.sum", 0.0)),
        "kernels.j0_evals_per_p_t": _ratio(
            w.get("kernels.table.j0", 0) + w.get("kernels.sum.j0", 0),
            w.get("sweep.times", 0)),
        "propagation.sweep.calls":
            first.per_request_calls("propagation.sweep"),
        "propagation.sweep.times": first.per_request(w, "sweep.times"),
        "propagation.sweep.busy_s":
            every.per_request(every.busy, "propagation.sweep"),
        "propagation.sweep.self_s":
            every.per_request(every.self_s, "propagation.sweep"),
        "propagation.amp.calls": first.per_request_calls("propagation.amp"),
        "propagation.amp.self_s":
            every.per_request(every.self_s, "propagation.amp"),
        "propagation.density_grid.busy_s":
            every.per_request(every.busy, "propagation.density_grid"),
        "propagation.coarse_work_frac": _ratio(w.get("j0.coarse", 0),
                                               w.get("j0.all", 0)),
        "propagation.numeric_failures": every.work.get("numeric_failures", 0),
        "discrimination.optimize.calls":
            first.per_request_calls("discrimination.optimize"),
        "discrimination.optimize.busy_s":
            every.per_request(every.busy, "discrimination.optimize"),
        "discrimination.optimize.self_s":
            every.per_request(every.self_s, "discrimination.optimize"),
        "discrimination.p_t_evals_per_search": _ratio(
            w.get("search.p_t_evals", 0), searches),
        "discrimination.times_per_search": _ratio(
            w.get("search.times", 0), searches),
        "montecarlo.trials": first.per_request(w, "trials"),
        "montecarlo.sampler_setup_s":
            every.per_request(every.busy, "montecarlo.sampler"),
        "montecarlo.loop_s": every.per_request(every.self_s,
                                               "montecarlo.estimate"),
        "montecarlo.trials_per_s": _ratio(every.work.get("trials", 0), loop_s),
        "cli.requests": len(requests),
        "cli.self_s": every.per_request(every.self_s, ROOT_SPAN),
        "cli.bytes_written": _ratio(
            sum(r.bytes_written for r in requests[:prefix]), first.n),
        "cli.exit_nonzero": sum(r.exit_code != 0 for r in requests),
        "trace.latency_p50_s": median(latencies),
        "trace.untraced_latency_p50_s": median(untraced),
        "trace.overhead_frac": median(latencies) / median(untraced) - 1.0,
        "trace.unattributed_s": _ratio(sum(unattributed), len(requests)),
    }
    assert list(metrics) == list(PER_LAYER)
    return metrics
