"""gsfactor benchmark: one closed-loop, single-client workload per run.

    python3 benchmark/run.py --workload verify_mixed --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it runs each request once with span wrappers installed
(see spans.py) and once without, reports the per-layer metrics and the
difference in wall time as the tracing overhead.  Every output is checked
after the timed region.  The last line of stdout is the result as one JSON object; a fuller
report (census, run health, failures) goes to .bench_out/.
"""

import os

# DigitKernel multiplies with numpy `@` on OpenBLAS, which is built for up to
# 64 threads; pin it (and any other BLAS) to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5  # fresh-interpreter set-up samples; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it


def _load_program():
    """Import gsfactor from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gsfactor", "__init__.py")):
        raise SystemExit(f"error: no gsfactor sources under {SRC}")
    sys.path.insert(0, SRC)
    import gsfactor

    if not os.path.abspath(gsfactor.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: gsfactor was imported from {gsfactor.__file__}")


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return res.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gsfactor", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _calibration_ms() -> float:
    """Median of three timings of a fixed pure-Python loop.  Taken before and
    after the run, it shows a machine slowed by its neighbours, which the
    process CPU time does not."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _health() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg_before": os.getloadavg(),
        "calibration_ms_before": _calibration_ms(),
    }


def _setup_samples(fields) -> list:
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), *map(str, fields)]
    return [
        float(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)
        for _ in range(SETUP_PROBES)
    ]


def _build_ctxs(fields) -> dict:
    from gsfactor import dickson, ffield

    return {q: dickson.build_ctx(ffield.make_field_q(q)) for q in fields}


def _timed_loop(call, stream, seconds=None, on_request=None):
    """Closed loop: issue requests until `seconds` have passed (or the stream
    ends).  A request that raises is kept with its exception as output."""
    reqs, outs, lat = [], [], []
    cpu0 = time.process_time()
    t0 = now = time.perf_counter()
    for req in stream:
        if seconds is not None and now - t0 >= seconds:
            break
        if on_request is not None:
            on_request(len(reqs))
        start = time.perf_counter()
        try:
            out = call(req)
        except Exception as exc:  # a failed request, counted in error_rate
            out = exc
        now = time.perf_counter()
        reqs.append(req)
        outs.append(out)
        lat.append(now - start)
    return reqs, outs, lat, now - t0, time.process_time() - cpu0


def _failures(wl, reqs, outs) -> list:
    """Indices and reasons of the requests whose output is wrong."""
    bad = []
    for i, (req, out) in enumerate(zip(reqs, outs)):
        if isinstance(out, Exception):
            bad.append((i, f"{req!r}: {out!r}"))
            continue
        try:
            ok = wl.check(req, out)
        except Exception as exc:  # a check that cannot read the output fails it
            bad.append((i, f"{req!r}: unreadable output ({exc!r})"))
            continue
        if not ok:
            bad.append((i, f"{req!r}: wrong output"))
    return bad


def _tail(latencies: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, read by nearest rank; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name, seed, seconds, trace, tiny=False, tamper=None) -> tuple:
    """Run one workload; returns (result line dict, full report dict).

    `tiny` keeps every field at or below 31 (self-test sizes); `tamper`, if
    given, rewrites each output before the checks (self-test only)."""
    from spans import Tracer

    from workloads import WORKLOADS

    health = _health()
    wl = WORKLOADS[name](seed, tiny)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        report["setup_samples_s"] = _setup_samples(wl.fields)
    t0 = time.perf_counter()
    wl.setup(_build_ctxs(wl.fields))
    report["setup_in_process_s"] = time.perf_counter() - t0

    if trace:
        # Each request runs twice, traced and untraced, in alternating order,
        # so the tracing overhead is measured on the same inputs at the same
        # moment; this machine's speed drifts by 10-25% over minutes.
        tracer = Tracer()
        traced_call = tracer.wrap("request", wl.call)
        walls = []

        def timed(fn, req):
            start = time.perf_counter()
            return fn(req), time.perf_counter() - start

        def traced(req):
            tracer.install()
            try:
                return timed(traced_call, req)
            finally:
                tracer.uninstall()

        def paired(req):
            if tracer.current_request % 2:
                plain, t_plain = timed(wl.call, req)
                out, t_traced = traced(req)
            else:
                out, t_traced = traced(req)
                plain, t_plain = timed(wl.call, req)
            walls.append((t_traced, t_plain))
            return [out, plain]

        reqs, outs, lat, wall, cpu = _timed_loop(
            paired, wl.requests(), seconds, lambda i: setattr(tracer, "current_request", i)
        )
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{name}.npz"))
        metrics = tracer.layer_metrics(len(reqs))
        traced_s = sum(t for t, _ in walls)
        plain_s = sum(p for _, p in walls)
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        share = (traced_s - plain_s) / plain_s if plain_s else 0.0
        metrics["trace.overhead_share"] = (share, "ratio")
        bad = {}
        for run in (0, 1):  # the traced and the untraced output of each request
            bad.update(_failures(wl, reqs, [o if isinstance(o, Exception) else o[run] for o in outs]))
        failures = sorted(bad.items())
    else:
        reqs, outs, lat, wall, cpu = _timed_loop(wl.call, wl.requests(), seconds)
        if tamper is not None:
            outs = [tamper(r, o) for r, o in zip(reqs, outs)]
        failures = _failures(wl, reqs, outs)
        tail_value, tail_pct = _tail(lat)
        report["latency_tail"] = {"percentile": tail_pct, "samples": len(lat)}
        report["census"] = wl.census(reqs)
        # a stream that wraps around repeats inputs; a cache would gain only there
        report["census"]["repeat_share"] = 1 - len(set(reqs)) / len(reqs)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "requests_per_s": ((len(reqs) - len(failures)) / wall, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "setup_s": (statistics.median(report["setup_samples_s"]), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }

    health["loadavg_after"] = os.getloadavg()
    health["calibration_ms_after"] = _calibration_ms()
    report.update(
        health=health,
        attempted=len(reqs),
        failed=len(failures),
        error_rate=len(failures) / len(reqs),
        wall_s=wall,
        cpu_s=cpu,
        cpu_share=cpu / wall,
        failures=[reason for _, reason in failures[:20]],
    )
    result = {
        "correct": not failures,
        "attempted": len(reqs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1, default=str)
    print(
        f"{args.workload} seed={args.seed}: {report['attempted']} requests in "
        f"{report['wall_s']:.2f} s wall, {report['cpu_s']:.2f} s cpu "
        f"(cpu share {report['cpu_share']:.3f}), error_rate {report['error_rate']:.4f}"
    )
    if "latency_tail" in report:
        tl = report["latency_tail"]
        print(f"latency_tail_ms is p{tl['percentile']:.2f} of {tl['samples']} requests")
        print("census: " + json.dumps(report["census"]))
    for reason in report["failures"]:
        print(f"FAILED {reason}")
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
