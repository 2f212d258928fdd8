"""Run one benchmark workload and print its metrics as the last line (JSON).

    python3 perfbench/run.py --workload stream-gf8 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run, whose cycles alternate between traced and
untraced so that the tracing overhead is measured in the same process. Every
operation's output is checked; a wrong output or an exception counts as a
failed operation. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_SAMPLES = 8  # spread over the run, at least this many
PROBE_TIMEOUT_S = 60

# End-to-end metric units; BENCHMARK.json names the same metrics.
UNITS = {
    "encode_MBps": "MB/s",
    "decode_MBps": "MB/s",
    "read_MBps": "MB/s",
    "repair_MBps": "MB/s",
    "setup_s": "s",
    "peak_rss_MB": "MB",
    "stored_bytes_per_user_byte": "ratio",
    "repair_cross_rack_per_alpha": "ratio",
}


# The benchmark's own fixed pure-Python loop, shaped like the program's hot
# paths: table lookups, XOR and small allocations. On a shared host the CPU's
# speed drifts by up to 1.5x over minutes, and this loop slows down with the
# program. Each operation's time is scaled by REFERENCE_LOOP_S over the
# loop's time measured around it, so metrics read as on the machine the
# benchmark was sized on (2 cores, Python 3.11) at its usual speed.
REFERENCE_LOOP_S = 0.005
_LOG = [0] + list(range(255))
_EXP = list(range(1, 256)) * 2


def reference_loop() -> int:
    acc = 0
    rows = []
    for i in range(30000):
        a = i & 255
        if a:
            acc ^= _EXP[_LOG[a] + _LOG[(i * 7) & 255 or 1]]
        if not i & 63:
            rows.append([acc] * 8)
    return acc


class Speed:
    """The machine's speed relative to the reference, measured between
    operations at most every ``every_s`` seconds (the median of ``loops``
    timings of the reference loop)."""

    def __init__(self, every_s: float = 0.2, loops: int = 5):
        self.every_s, self.loops = every_s, loops
        self.points: list = []  # (time measured, scale)

    def update(self, force: bool = False) -> None:
        if not force and self.points and time.perf_counter() < self.points[-1][0] + self.every_s:
            return
        times = []
        for _ in range(self.loops):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
        self.points.append((time.perf_counter(), REFERENCE_LOOP_S / statistics.median(times)))

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's length times the mean scale of the measurements
        just before and just after it."""
        i = bisect.bisect_right(self.points, (t0, math.inf))
        around = [s for _, s in self.points[max(i - 1, 0) : i + 1]]
        return (t1 - t0) * statistics.fmean(around)

    def scales(self) -> list:
        return [s for _, s in self.points]


class SetupProbes:
    """Set-up times of fresh interpreters, from start to inputs ready.

    Samples are taken between operations, one per ``interval`` seconds, so
    that they spread over the run.
    """

    def __init__(self, workload: str, seed: int, workdir: str, interval: float, speed: Speed):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.interval, self.speed = interval, speed
        self.intervals: list = []  # (start, ready)
        self._next = 0.0

    def maybe(self) -> None:
        if time.perf_counter() >= self._next:
            self.take()
            self._next = time.perf_counter() + self.interval

    def take(self) -> None:
        probe_dir = os.path.join(self.workdir, f"probe{len(self.intervals)}")
        os.makedirs(probe_dir)
        argv = [sys.executable, PROBE, self.workload, str(self.seed), probe_dir]
        self.speed.update()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        self.speed.update()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {rc} without getting ready")
        self.intervals.append((t0, t1))
        shutil.rmtree(probe_dir)


def run_cycles(wl, seconds: float, speed: Speed, tracer=None, probes=None) -> dict:
    """Run cycles of the workload's operations for ``seconds``.

    Returns each successful operation's (kind, start, end, traced cycle?).
    An untraced run stops at the first operation boundary past the deadline,
    once a whole cycle is done. A traced run stops after whole cycles only,
    at least two: even cycles are traced and odd ones are not, which gives
    the tracing overhead.
    """
    ops = []
    attempted = failed = 0
    min_cycles = 2 if tracer else 1
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 0
        if tracer:
            tracer.install() if traced else tracer.uninstall()
        for step in wl.cycle(index):
            if tracer is None and index >= min_cycles and time.perf_counter() >= deadline:
                break
            if probes:
                probes.maybe()
            attempted += 1
            try:
                if step.prepare:
                    step.prepare()
                gc.collect()
                speed.update()
                with tracer.op(step.kind) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    out = step.run()
                    t1 = time.perf_counter()
                speed.update()
                why = step.check(out)
            except Exception:  # counted as a failed operation, never dropped
                why = traceback.format_exc()
            if why:
                failed += 1
                if failed <= 3:
                    print(f"FAILED {step.kind} in cycle {index}: {why}", file=sys.stderr)
                continue
            ops.append((step.kind, t0, t1, index, traced))
        index += 1
        if index >= min_cycles and time.perf_counter() >= deadline:
            break
    if tracer:
        tracer.uninstall()
    speed.update(force=True)
    return {"ops": ops, "cycles": index, "attempted": attempted, "failed": failed}


def op_samples(res: dict, speed: Speed, kinds) -> tuple:
    """Per kind, the scaled and the measured operation times."""
    scaled = {kind: [] for kind in kinds}
    raw = {kind: [] for kind in kinds}
    for kind, t0, t1, _, _ in res["ops"]:
        scaled[kind].append(speed.scaled(t0, t1))
        raw[kind].append(t1 - t0)
    return scaled, raw


def highest_percentile(xs: list):
    """The highest whole percentile with at least ten samples beyond it."""
    p = int(100 * (1 - 10 / len(xs))) if len(xs) >= 20 else 0
    return (p, statistics.quantiles(xs, n=100)[p - 1]) if p > 50 else None


def report_samples(scaled: dict, raw: dict, op_bytes: dict) -> None:
    for kind, xs in scaled.items():
        if not xs:
            print(f"{kind}: no successful samples")
            continue
        line = f"{kind}: n={len(xs)} median={statistics.median(xs) * 1e3:.2f} ms"
        hi = highest_percentile(xs)
        line += f" p{hi[0]}={hi[1] * 1e3:.2f} ms" if hi else " (too few samples for a tail percentile)"
        line += f", as measured median={statistics.median(raw[kind]) * 1e3:.2f} ms"
        print(f"{line}; {op_bytes[kind]} bytes per operation")


def end_to_end(wl, scaled: dict, setup: list) -> dict:
    def mbps(kind):
        xs = scaled[kind]
        return wl.op_bytes[kind] / statistics.median(xs) / 1e6 if xs else 0.0

    cross = wl.cross_rack_symbols / wl.repaired_symbols if wl.repaired_symbols else 0.0
    values = {
        "encode_MBps": mbps("encode"),
        "decode_MBps": mbps("decode"),
        "read_MBps": mbps("read"),
        "repair_MBps": mbps("repair"),
        "setup_s": statistics.median(setup),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stored_bytes_per_user_byte": wl.stored_bytes_per_user_byte,
        "repair_cross_rack_per_alpha": cross,
    }
    return {name: (values[name], UNITS[name]) for name in UNITS}


def per_layer(wl, res: dict, speed: Speed, tracer) -> dict:
    busy = {}  # cycle -> (traced, scaled seconds in its operations)
    for _, t0, t1, cycle, traced in res["ops"]:
        busy[cycle] = (traced, busy.get(cycle, (traced, 0.0))[1] + speed.scaled(t0, t1))
    on = [b for traced, b in busy.values() if traced]
    off = [b for traced, b in busy.values() if not traced]
    metrics = layers.layer_metrics(tracer, tracer.summarize(), len(on), wl.stripes)
    overhead = (statistics.median(on) / statistics.median(off) - 1) * 100 if on and off else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    if tracer.absent:
        print("absent (recorded as 0): " + ", ".join(tracer.absent))
    if tracer.counter_errors:
        print(f"counts not taken: {tracer.counter_errors}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mbrr = workloads.import_program()
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = probes = None
        speed = Speed()
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()  # before set-up, which builds the field tables
        else:
            probes = SetupProbes(
                args.workload, args.seed, workdir, args.seconds / SETUP_SAMPLES, speed
            )
        wl = workloads.make(args.workload)
        wl.setup(mbrr, args.seed, workdir)
        res = run_cycles(wl, args.seconds, speed, tracer, probes)
        while probes and len(probes.intervals) < SETUP_SAMPLES:
            probes.take()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {res['cycles']} cycles, "
          f"{wl.stripes} stripes per operation")
    scaled, raw = op_samples(res, speed, wl.op_bytes)
    report_samples(scaled, raw, wl.op_bytes)
    if tracer:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.bin")
        tracer.write(spans)
        print(f"{len(tracer.start)} spans -> {spans}")
        metrics = per_layer(wl, res, speed, tracer)
    else:
        setup = [speed.scaled(t0, t1) for t0, t1 in probes.intervals]
        print("setup_s samples: " + " ".join(f"{x:.4f}" for x in setup) + "; as measured: "
              + " ".join(f"{t1 - t0:.4f}" for t0, t1 in probes.intervals))
        metrics = end_to_end(wl, scaled, setup)
    scales = speed.scales()
    print(f"speed vs reference: {len(scales)} measurements, {min(scales):.3f} to {max(scales):.3f}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
