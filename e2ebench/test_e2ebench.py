"""Unit tests for the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest e2ebench -q
"""

from __future__ import annotations

from pathlib import Path

import pytest

from layers import (ROOT_SPAN, PER_LAYER, TracedRequest, Tracer, instrument,
                    layer_metrics)
from quantiles import Span, self_times, tail
from workloads import PRIMES, WORKLOADS, design, halton, make_requests

SRC = Path(__file__).resolve().parent.parent / "src"


def test_tail_is_the_order_statistic_with_ten_samples_beyond():
    values = [float(v) for v in range(30, 0, -1)]
    value, percentile, count = tail(values)
    assert value == 20.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert count == 30


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)
    assert tail([1.0] * 10 + [2.0]) == (1.0, 100.0 / 11, 11)


def test_self_time_subtracts_only_direct_children():
    spans = [Span("root", -1, 0.0, 10.0), Span("a", 0, 1.0, 4.0),
             Span("a.child", 1, 2.0, 3.0), Span("b", 0, 5.0, 9.0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(s.name, s.parent) for s in tracer.spans] == \
        [("outer", -1), ("inner", 0), ("inner", 0)]
    assert sum(self_times(tracer.spans)) == \
        pytest.approx(tracer.spans[0].duration, abs=1e-12)


def test_tracer_records_the_error_and_reraises():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("f", fail)()
    assert tracer.spans[0].error == "KeyError"
    assert tracer.spans[0].end >= tracer.spans[0].start


def _request(spans: list[Span]) -> TracedRequest:
    return TracedRequest(spans=spans, latency_s=1.0, untraced_latency_s=1.0,
                         bytes_written=10, exit_code=0)


def test_coarse_work_is_everything_but_the_finest_kernel_call():
    spans = [Span(ROOT_SPAN, -1, 0.0, 1.0),
             Span("propagation.sweep", 0, 0.1, 0.9, {"times": 3}),
             Span("kernels.gemm", 1, 0.2, 0.5, {"rows": 4, "k": 8, "cols": 3}),
             Span("kernels.gemm", 1, 0.5, 0.6, {"rows": 2, "k": 4, "cols": 3})]
    metrics = layer_metrics([_request(spans)], prefix=1)
    assert metrics["propagation.coarse_work_frac"] == pytest.approx(8 / 40)
    assert metrics["quadrature.k_nodes_per_eval"] == 6.0
    assert metrics["quadrature.rho_nodes_per_eval"] == 3.0
    assert metrics["kernels.gemm.columns_per_call"] == 3.0
    assert metrics["propagation.sweep.times"] == 3
    assert metrics["kernels.gemm.bytes_computed"] == \
        8 * (32 + 8) + 16 * (8 * 3 + 4 * 3) + 16 * (4 * 3 + 2 * 3)
    assert set(metrics) == set(PER_LAYER)


def test_requests_are_a_pure_function_of_the_seed():
    for name, spec in WORKLOADS.items():
        requests = make_requests(name, 5)
        assert len(requests) == spec.count
        assert requests == make_requests(name, 5)
        assert requests != make_requests(name, 6)


def test_design_jitters_each_halton_point_within_half_a_cell():
    assert [halton(i, 2) for i in range(3)] == [0.5, 0.25, 0.75]
    count = 40
    for seed in (1, 2):
        points = design(seed=seed, count=count, dims=len(PRIMES))
        for i, point in enumerate(points):
            for axis, x in enumerate(point):
                assert 0.0 <= x < 1.0
                assert abs(x - halton(i, PRIMES[axis])) <= 0.5 / count
    assert design(1, count, 3) != design(2, count, 3)


def test_design_keeps_the_median_point_of_each_axis_across_seeds():
    count = 40
    for axis in range(3):
        medians = [sorted(p[axis] for p in design(seed, count, 3))[count // 2]
                   for seed in range(1, 11)]
        assert max(medians) - min(medians) <= 1.0 / count


def _traced_counts(tmp_path, monkeypatch) -> dict[str, float]:
    monkeypatch.syspath_prepend(str(SRC))
    import lcdisc.cli as cli

    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    main = tracer.wrap(ROOT_SPAN, cli.main)
    traced = []
    for request in make_requests("evaluate", 2)[:2]:
        tracer.reset()
        restore = instrument(tracer)
        try:
            code = main(list(request.argv))
        finally:
            restore()
        traced.append(TracedRequest(tracer.spans, 1.0, 1.0, 0, code))
    metrics = layer_metrics(traced, prefix=2)
    return {name: value for name, value in metrics.items()
            if PER_LAYER[name][0] in ("count", "B", "ratio")
            and not name.startswith("trace.")}


def test_counts_repeat_exactly(tmp_path, monkeypatch):
    first = _traced_counts(tmp_path, monkeypatch)
    second = _traced_counts(tmp_path, monkeypatch)
    assert first == second
    assert first["propagation.sweep.calls"] == 3
    assert first["kernels.gemm.calls"] == 6
    assert first["propagation.numeric_failures"] == 0
