"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads stream-gf8 --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --json perfbench/out/runs.json

Runs are sequential, with the run length of BENCHMARK.json. The spread of a
metric is the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; each is
compared with the metric's bound, and ``steady`` means below a third of it.
``--trace 1`` collects the per-layer metrics instead (no bounds).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run and the summary here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    all_ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_one(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, spr = spread(values) if len(values) > 1 else (values[0], 0.0)
            bound = bounds.get(name)
            row = {"median": med, "spread": spr, "unit": runs[0]["metrics"][name]["unit"]}
            line = f"  {name:52s} median {med:<12.6g} spread {spr:7.2%}"
            if bound is not None and name != "setup_s":
                row["steady"] = spr < bound / 3
                all_ok &= spr <= bound
                line += f"  bound {bound:.2f} {'steady' if row['steady'] else 'NOT steady'}"
            summary[name] = row
            print(line)
        all_ok &= all(r["correct"] for r in runs)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
