#!/usr/bin/env python3
"""relsem benchmark: seeded workloads, checked outputs, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are ``represent-corpus``, ``closure-classify`` and
``smallest-oracle`` (see workloads.py).  Load is closed-loop: one process,
one thread, one operation at a time.  A run measures whole rounds until
``--seconds`` of operation time and at least MIN_OPS operations have
accumulated.  Each result is checked against an independent route right
after its operation, outside the operation's timing.

Times are reported at the reference speed.  A calibration loop runs before
every operation, and the operation's seconds are multiplied by REFERENCE_S
over that calibration time.  On a shared machine that cancels most of the
slow and fast spells of the processor.  The set-up probes are spread over
the measurement, and each is scaled by the calibrations taken just before
and after it.  The run pins itself, and its set-up probes, to one
processor.  The unscaled figures are printed as "raw" lines and kept in
the record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures the
same inputs untraced and then traced, each for half as long, and reports
the per-layer metrics of tracing.py (unscaled) together with
``trace.overhead_ratio`` (untraced over traced operations per second).  The last line of standard output is
the JSON result; a fuller record, with the environment, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 150          # p90 needs >= 100 (ten beyond it); 150 steadies it
WALL_LIMIT_S = 70.0    # per measurement, so that a run ends within 180 s
SETUP_PROBES = 9
CALIBRATION_LOOPS = 2000
REFERENCE_S = 0.010    # calibration time on the reference machine


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
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
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate() -> float:
    """Seconds that a fixed loop shaped like relsem's hot code takes right now.

    The loop writes and reads numpy scalars, packs bits into int64 masks and
    builds tuples and dict entries, as the kernels, the closure and the
    table checks do.  On a shared machine its time follows the slow and
    fast spells of the processor, so dividing by it removes them.
    """
    rows = numpy.zeros((64, 9), dtype=numpy.uint8)
    masks = numpy.zeros(16, dtype=numpy.int64)
    seen = {}
    acc = 0
    gc.disable()  # a collection would time the previous operation's garbage
    try:
        start = time.perf_counter()
        for i in range(CALIBRATION_LOOPS):
            r = i & 63
            rows[r, i % 9] = i & 7
            masks[i & 15] |= numpy.int64(1) << (i % 40)
            key = tuple(int(v) for v in rows[r, :3])
            if key not in seen:
                seen[key] = (key, acc & 0xFFFF, i >> 4)
            acc += (int(masks[(i * 7) & 15]) >> 3) ^ len(seen)
            if len(seen) > 200:
                seen.clear()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Measurement:
    """Per-operation seconds and calibrations, set-up probes, failures."""

    def __init__(self):
        self.seconds = []
        self.calibrations = []
        self.setup = []  # (seconds, calibration) per set-up probe
        self.failures = []

    def timing_metrics(self, scaled=True) -> dict:
        lat = [s * 1e3 * (REFERENCE_S / c if scaled else 1.0)
               for s, c in zip(self.seconds, self.calibrations)]
        return {
            "ops_per_s": (1e3 * len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (float(numpy.percentile(lat, 50)), "ms"),
            "latency_p90_ms": (float(numpy.percentile(lat, 90)), "ms"),
        }

    def setup_s(self, scaled=True) -> float:
        return statistics.median(s * (REFERENCE_S / c if scaled else 1.0)
                                 for s, c in self.setup)


def check(workload, item, result):
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        return workload.check(item, result)
    except Exception as exc:  # a check that cannot run is a failure too
        return f"check raised {type(exc).__name__}: {exc}"


def measure(workload, seconds, min_ops=MIN_OPS, tracer=None,
            probe=None) -> Measurement:
    """Run whole rounds, timing each operation and then checking it.

    With ``probe`` set to the workload's name, SETUP_PROBES set-up probes
    are run between operations, evenly over the ``seconds`` measured.
    """
    m = Measurement()
    wall = time.perf_counter()
    for batch in workload.rounds():
        for item in batch:
            if (probe is not None and len(m.setup) < SETUP_PROBES
                    and sum(m.seconds) >= len(m.setup) * seconds / SETUP_PROBES):
                m.setup.append(setup_probe(probe))
            gc.collect()  # each operation starts from a clean heap, as in a CLI call
            m.calibrations.append(calibrate())
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.run(item)
                else:
                    result = tracer.run_op(workload.run, item)
            except Exception as exc:  # a raised operation counts as failed
                result = exc
            m.seconds.append(time.perf_counter() - start)
            problem = check(workload, item, result)
            if problem is not None:
                m.failures.append(problem)
        if sum(m.seconds) >= seconds and len(m.seconds) >= min_ops:
            break
        if time.perf_counter() - wall >= WALL_LIMIT_S:
            break
    while probe is not None and len(m.setup) < SETUP_PROBES:
        m.setup.append(setup_probe(probe))
    return m


def setup_probe(name) -> tuple:
    """Seconds of one fresh-process probe, and the calibration around it."""
    before = calibrate()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True)
    after = calibrate()
    return float(out.stdout.strip().splitlines()[-1]), (before + after) / 2


def main(argv=None) -> int:
    args = parse_args(argv)
    # One processor for the run and its probes: the processors of a shared
    # machine differ in speed from moment to moment, and moving between
    # them showed as noise in every figure.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if not (SRC / "relsem" / "__init__.py").is_file():
        print(f"relsem sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relsem
    from relsem import _accel

    if Path(relsem.__file__).resolve().parent != SRC / "relsem":
        print(f"imported relsem from {relsem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    cls.run(cls.warmup_input())

    metrics = {}
    raw = {}
    spans = None
    if args.trace == 0:
        m = measure(cls(args.seed), args.seconds, probe=args.workload)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics.update(m.timing_metrics())
        metrics["success_ratio"] = (1.0 - len(m.failures) / len(m.seconds), "ratio")
        metrics["setup_s"] = (m.setup_s(), "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        raw = m.timing_metrics(scaled=False)
        raw["setup_s"] = (m.setup_s(scaled=False), "s")
        measurements = [m]
    else:
        # Per-layer figures are means per operation and carry no bound, so
        # each side of a traced run measures half as much, to keep it short.
        plain = measure(cls(args.seed), args.seconds / 2, MIN_OPS // 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(cls(args.seed), args.seconds / 2, MIN_OPS // 2,
                             tracer=tracer)
        finally:
            tracer.uninstall()
        units = tracing.metric_units()
        for name, value in tracer.layer_metrics().items():
            metrics[name] = (value, units[name])
        metrics["trace.overhead_ratio"] = (
            plain.timing_metrics()["ops_per_s"][0]
            / traced.timing_metrics()["ops_per_s"][0], "ratio")
        spans = tracer.spans
        measurements = [plain, traced]

    attempted = sum(len(m.seconds) for m in measurements)
    failures = [f for m in measurements for f in m.failures]
    env = {
        "commit": commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "backend": _accel.backend(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "pinned_to_cpu": cpu, "operations": attempted,
        "load": "closed loop, 1 client",
    }
    print("env: " + json.dumps(env))
    for problem in failures[:10]:
        print(f"FAILED: {problem}")
    label = f"{args.workload} [{env['backend']} backend]"
    for name, (value, unit) in metrics.items():
        print(f"{label} {name} = {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"{label} raw {name} = {value:.6g} {unit}")

    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "failures": failures, "metrics": as_json,
              "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
              "seconds": [m.seconds for m in measurements],
              "calibrations": [m.calibrations for m in measurements],
              "setup": [m.setup for m in measurements]}
    if spans is not None:
        record["spans"] = spans
    out_file = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(json.dumps({
        "correct": attempted >= 1 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": as_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
