"""One set-up sample: import the program, build its field tables, make the inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints ``ready`` once set-up is done; run.py times a fresh interpreter from
its start to that line.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make(name).setup(workloads.import_program(), seed, workdir)
    print("ready", flush=True)
