"""The benchmark's per-layer tracer still reaches every layer it wraps."""

from pathlib import Path

from lcdisc import cli

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


def test_every_traced_layer_fires(tmp_path, monkeypatch):
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
    assert seen == {name for _, _, name, _ in _targets()}
