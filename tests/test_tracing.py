"""The benchmark's per-layer tracer still reaches every layer it wraps."""

from pathlib import Path

from lcdisc import cli
from lcdisc.quadrature import GAUSS_ORDER

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


def test_every_traced_layer_fires(tmp_path, monkeypatch):
    # and the j0 table and gemm spans count their rows: every rule holds a
    # positive multiple of GAUSS_ORDER nodes, so an argument that lost its
    # size, and reads as 1 row, fails here
    monkeypatch.syspath_prepend(str(E2EBENCH))
    from layers import Tracer, _targets, instrument
    from workloads import WORKLOADS, make_requests

    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    seen = set()
    for workload in WORKLOADS:
        request = make_requests(workload, 1)[0]
        tracer.reset()
        restore = instrument(tracer)
        try:
            assert cli.main(list(request.argv)) == 0
        finally:
            restore()
        seen |= {span.name for span in tracer.spans}
        rows = [span.attrs["rows"] for span in tracer.spans
                if span.name in ("kernels.gemm", "kernels.table")]
        assert rows
        assert all(n > 0 and n % GAUSS_ORDER == 0 for n in rows), workload
    assert seen == {name for _, _, name, _ in _targets()}
