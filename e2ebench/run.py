"""End-to-end benchmark of lcdisc through its command line.

Run from the repository root:

    python3 e2ebench/run.py --workload optimize --seed 1 --seconds 30 --trace 0

One client sends a workload's fixed set of ``lcdisc.cli.main(argv)``
requests in a closed loop (each request starts when the previous one
finishes), pass after pass over the set, for ``--seconds`` seconds, then
finishes the request in flight.  Every output lands in a scratch
directory inside the checkout and is parsed and checked; a non-zero exit or
a failed check counts the request as failed.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines above it record the environment, the output digest
and every metric by name with its unit.

lcdisc is imported from ``src/`` of the checkout holding this script; the
run exits with status 2 and no result if that source tree is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from quantiles import median, tail
from workloads import WORKLOADS, make_requests

# One BLAS thread, set before NumPy loads.  On a small shared machine a
# second BLAS thread only turns other processes' load into latency noise
# (the j0 table fill, most of the work, is single-threaded either way).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".e2ebench_tmp"
DEFAULT_SEED = 1
# process starts timed per run for setup_s, spread evenly over the run so
# that one spell of a slow host does not set them all; the median is reported
SETUP_PROBES = 5
# a run stops sending requests past this even if its first pass is not done,
# so that it ends well inside its time limit
HARD_STOP_S = 150.0

END_TO_END = {
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "throughput_per_ref": "1/ref",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Setup:
    cli: object
    kernels: object
    requests: list


def setup(workload: str, seed: int) -> Setup:
    """Import numpy and lcdisc from the checkout, pick the backend, generate
    the requests.  This is what ``setup_s`` times."""
    src = ROOT / "src"
    if not (src / "lcdisc" / "__init__.py").is_file():
        raise SetupError(f"no lcdisc source tree at {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (timed as part of setup)

    import lcdisc._kernels as kernels
    import lcdisc.cli as cli

    if Path(cli.__file__).resolve().parent != src / "lcdisc":
        raise SetupError(f"lcdisc imported from {cli.__file__}, not {src}")
    kernels.backend_name()
    return Setup(cli, kernels, make_requests(workload, seed))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its setup."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--probe-setup", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise SetupError(f"setup probe exited with status {code}")
    return elapsed


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(ctx: Setup, workload: str, seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": ctx.kernels.backend_name(),
        "available_backends": list(ctx.kernels.available_backends()),
        "blas_threads": _blas_threads(),
        "workload": workload,
        "seed": seed,
    }


class Runner:
    """Sends requests, checks their outputs and keeps the digest."""

    def __init__(self, workload: str):
        self.check = WORKLOADS[workload].check
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.digested = 0

    def send(self, request, call) -> tuple[float, int, dict[str, bytes]]:
        """Run one request through ``call``; returns (latency, exit, files)."""
        start = time.perf_counter()
        try:
            code = call(list(request.argv))
        except Exception:
            traceback.print_exc()
            code = -1
        latency = time.perf_counter() - start
        files = {}
        for name in request.outputs:
            path = Path(name)
            if path.is_file():
                files[name] = path.read_bytes()
                path.unlink()
        return latency, code, files

    def verify(self, request, code: int, files: dict[str, bytes],
               problems: list[str] | None = None) -> None:
        """Count the request, and count it failed if it exited non-zero, if
        its outputs fail the workload's checks or if ``problems`` is set."""
        self.attempted += 1
        problems = list(problems or [])
        if code != 0:
            problems.append(f"exit status {code}")
        else:
            try:
                problems += self.check(request, files)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            print(f"request {request.index} failed: {'; '.join(problems)}",
                  file=sys.stderr)

    def record(self, request, code: int, files: dict[str, bytes]) -> None:
        self.digest.update(" ".join(request.argv).encode() + b"\0")
        self.digest.update(str(code).encode() + b"\0")
        for name in request.outputs:
            self.digest.update(name.encode() + b"\0" +
                               files.get(name, b"") + b"\0")
        self.digested += 1


def _passes(ctx: Setup, seconds: float):
    """Yield (pass number, request), pass after pass over the requests, until
    ``seconds`` have passed and the first pass is complete."""
    start = time.perf_counter()
    n = 0
    while True:
        for request in ctx.requests:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (n > 0 and elapsed >= seconds):
                return
            yield n, request
        n += 1


def _outputs_digest(code: int, files: dict[str, bytes]) -> tuple:
    return code, sorted((name, hashlib.sha256(data).digest())
                        for name, data in files.items())


class Reference:
    """A fixed computation timed beside every request.

    Half of its time fills a j0 table (sin(z)/z on an outer product) and
    contracts it with a complex matrix in NumPy, as lcdisc's hot path does;
    the other half is a pure-Python loop, as lcdisc's per-request and
    per-trial code is.  It runs on fixed sizes and without lcdisc, so no
    change to lcdisc moves it.  On a shared host, the same code runs up to
    1.8 times slower for minutes at a time, as other tenants come and go; a
    request's latency divided by the reference's time beside it cancels most
    of that drift.
    """

    ROWS, COLS, RHS = 160, 2048, 8
    LOOPS = 60000

    def __init__(self):
        import numpy

        self._np = numpy
        self._rho = numpy.linspace(0.01, 4.0, self.ROWS)
        self._k = numpy.linspace(0.01, 12.0, self.COLS)
        self._coeffs = numpy.full((self.COLS, self.RHS), 1.0 + 1.0j)

    def time(self) -> float:
        start = time.perf_counter()
        z = self._np.multiply.outer(self._rho, self._k)
        (self._np.sin(z) / z) @ self._coeffs
        table, acc = {}, 0.0
        for i in range(self.LOOPS):
            acc += i * 0.5
            table[i & 255] = acc
        return time.perf_counter() - start


def run_untraced(ctx: Setup, runner: Runner, seconds: float,
                 probe: Callable[[], float]) -> dict:
    """Time every request once per pass, between two timings of the
    reference.  A call's cost is its latency over the mean of those two;
    a request's cost is the median over its passes.  Every pass is checked,
    and a later pass must write the same bytes as the first.  Between
    requests, ``probe`` times a fresh process's setup ``SETUP_PROBES``
    times, evenly over the run."""
    start = time.perf_counter()
    probes = [probe()]
    reference = Reference()
    reference.time()
    ref_before = reference.time()
    costs: dict[int, list[float]] = {}
    latencies, refs = [], [ref_before]
    first: dict[int, tuple] = {}
    for n, request in _passes(ctx, seconds):
        latency, code, files = runner.send(request, ctx.cli.main)
        ref_after = reference.time()
        digest = _outputs_digest(code, files)
        if n == 0:
            first[request.index] = digest
            runner.record(request, code, files)
        runner.verify(request, code, files,
                      ["outputs differ from the first pass"]
                      if digest != first[request.index] else None)
        costs.setdefault(request.index, []).append(
            2.0 * latency / (ref_before + ref_after))
        latencies.append(latency)
        refs.append(ref_after)
        if len(probes) < SETUP_PROBES and time.perf_counter() - start >= \
                len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
            ref_after = reference.time()
        ref_before = ref_after
    cost = [median(runs) for runs in costs.values()]
    value, percentile, count = tail(cost)
    print(f"{len(latencies)} timed calls, {len(latencies) / len(cost):.2f} "
          f"passes over {len(cost)} requests")
    print(f"latency_tail_ref is p{percentile:.1f} of {count} requests "
          f"(the 11th largest)")
    wall_tail, wall_percentile, wall_count = tail(latencies)
    print(f"not gated, wall clock over every call: latency_p50_s = "
          f"{median(latencies):.6g} s, latency_tail_s = {wall_tail:.6g} s "
          f"(p{wall_percentile:.1f} of {wall_count}), throughput_rps = "
          f"{len(latencies) / sum(latencies):.6g} 1/s; reference p50 "
          f"{median(refs):.6g} s")
    print("setup probes " + " ".join(f"{p:.4g}" for p in probes) + " s")
    return {
        "latency_p50_ref": median(cost),
        "latency_tail_ref": value,
        "throughput_per_ref": len(cost) / sum(cost),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median(probes),
    }


def run_traced(ctx: Setup, runner: Runner, seconds: float) -> dict:
    """Run every request untraced and traced, alternating which goes first,
    so that the tracing overhead compares identical inputs."""
    from layers import (ROOT_SPAN, TracedRequest, Tracer, instrument,
                        layer_metrics)

    tracer = Tracer()
    traced_main = tracer.wrap(ROOT_SPAN, ctx.cli.main)

    def send_traced(request):
        tracer.reset()
        restore = instrument(tracer)
        try:
            return runner.send(request, traced_main)
        finally:
            restore()

    traced = []
    for n, request in _passes(ctx, seconds):
        if request.index % 2 == 0:
            plain = runner.send(request, ctx.cli.main)
            traced_s, traced_code, traced_files = send_traced(request)
        else:
            traced_s, traced_code, traced_files = send_traced(request)
            plain = runner.send(request, ctx.cli.main)
        plain_s, plain_code, plain_files = plain
        runner.verify(request, plain_code, plain_files)
        runner.verify(request, traced_code, traced_files,
                      ["tracing changed the outputs"]
                      if traced_files != plain_files else None)
        if n == 0:
            runner.record(request, plain_code, plain_files)
        traced.append(TracedRequest(
            spans=tracer.spans, latency_s=traced_s,
            untraced_latency_s=plain_s,
            bytes_written=sum(len(b) for b in traced_files.values()),
            exit_code=traced_code))
    return layer_metrics(traced, len(ctx.requests))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        ctx = setup(args.workload, args.seed)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
    except SetupError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2

    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(ctx, args.workload, args.seed),
                              sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    cwd = os.getcwd()
    runner = Runner(args.workload)
    try:
        os.chdir(workdir)
        if args.trace:
            values = run_traced(ctx, runner, args.seconds)
        else:
            values = run_untraced(
                ctx, runner, args.seconds,
                lambda: probe_setup(args.workload, args.seed))
    except SetupError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    if args.trace:
        from layers import PER_LAYER
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        units = END_TO_END
        values = {name: values[name] for name in END_TO_END}
    print(f"digest sha256={runner.digest.hexdigest()} "
          f"requests={runner.digested}")
    print(f"fail_frac = {runner.failed / max(runner.attempted, 1):.6g} "
          f"(failed {runner.failed} of {runner.attempted} attempted)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = runner.failed == 0 and runner.digested == len(ctx.requests)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
