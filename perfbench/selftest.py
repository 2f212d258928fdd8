"""Self-tests of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py [--workloads cluster-prime ...]

Checks that:
  * the tracer records a missing module, name or method as absent, wraps a
    function in every module that binds it, and undoes its wrapping;
  * each workload runs correctly in both modes and emits exactly the metric
    names and units of BENCHMARK.json;
  * the layer contrasts the workloads were chosen for hold: no shard I/O on
    cluster-prime, a precoding-matrix build on wide-gf16 but none on
    stream-gf8, and no Decoder.reconstruct call in the wide-gf16 fast read;
  * the span file written by a traced run reads back;
  * in a directory holding only BENCHMARK.json and this directory, the
    benchmark fails without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

# (workload, per-layer metric, predicate, what it means)
CONTRASTS = (
    ("cluster-prime", "cli.read_shard.calls", lambda v: v == 0, "no shard file is read"),
    ("stream-gf8", "systematic.precoding_matrix.build_s", lambda v: v == 0, "no precoding matrix is built"),
    ("wide-gf16", "systematic.precoding_matrix.build_s", lambda v: v > 0, "the precoding matrix is built"),
    ("wide-gf16", "reconstruct.Decoder.reconstruct.calls_in_read", lambda v: v == 0,
     "the fast read never calls the decoder"),
)


def check_tracer(failures: list) -> None:
    mbrr = workloads.import_program()
    bogus = layers.Tracer(targets=(
        ("no_such_module", "f"),
        ("systematic", "no_such_function"),
        ("reconstruct", "Decoder.no_such_method"),
        ("reconstruct", "NoSuchClass.reconstruct"),
    ))
    bogus.install()
    if len(bogus.absent) != 4 or bogus._patches:
        failures.append(f"tracer: missing names not all recorded as absent: {bogus.absent}")
    bogus.uninstall()

    original = mbrr.systematic.precoding_matrix
    tracer = layers.Tracer()
    tracer.install()
    try:
        bound = {mbrr.precoding_matrix, mbrr.systematic.precoding_matrix, mbrr.cli.precoding_matrix}
        if len(bound) != 1 or original in bound:
            failures.append("tracer: precoding_matrix not wrapped in every module binding it")
        if tracer.absent:
            failures.append(f"tracer: targets absent at this commit: {tracer.absent}")
    finally:
        tracer.uninstall()
    if mbrr.cli.precoding_matrix is not original:
        failures.append("tracer: uninstall left a wrapper behind")


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(name: str, bench: dict, failures: list) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, name, trace)
        if proc.returncode != 0:
            failures.append(f"{name} trace {trace}: exited {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"{name} trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            failures.append(f"{name} trace {trace}: {result['failed']} of {result['attempted']} failed")
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            failures.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json {section}: "
                            f"extra {sorted(set(got) - set(want))}, missing {sorted(set(want) - set(got))}, "
                            f"units {[k for k in got if k in want and got[k] != want[k]]}")
        if trace == 0:
            zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
            if zero:
                failures.append(f"{name}: end-to-end metrics not above 0: {zero}")
            continue
        for workload, metric, holds, meaning in CONTRASTS:
            if workload == name and not holds(result["metrics"][metric]["value"]):
                failures.append(f"{name}: {metric} = {result['metrics'][metric]['value']}, "
                                f"but {meaning} here")
        names, arrays = layers.load_spans(os.path.join(HERE, "out", f"spans-{name}-seed1.bin"))
        spans = len(arrays["start_ns"])
        if not spans or any(arrays["end_ns"][i] < arrays["start_ns"][i] for i in range(spans)):
            failures.append(f"{name}: span file empty or has spans ending before they start")
        if not any(n.startswith(layers.OP_PREFIX) for n in names):
            failures.append(f"{name}: span file has no operation spans")


def check_without_program(failures: list) -> None:
    bare = os.path.join(HERE, "work", f"selftest-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, "cluster-prime", 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            failures.append("without the program source the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.NAMES))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures: list = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.NAMES):
        failures.append("BENCHMARK.json workloads differ from workloads.NAMES")
    check_tracer(failures)
    check_without_program(failures)
    for name in args.workloads:
        print(f"checking {name}", flush=True)
        check_workload(name, bench, failures)
    for why in failures:
        print(f"FAIL {why}")
    print("selftest: " + ("all checks passed" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
