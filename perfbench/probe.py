"""Set up one workload in a fresh process, then print ``ready``.

``run.py`` launches this script and times it from launch until the
``ready`` line: that interval is one sample of ``setup_s``, covering the
interpreter start, the ncgflow import and the generation of every input
of the workload through ``cli.build_config``.

    python3 perfbench/probe.py <workload> <seed> <scratch dir>
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, target = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    cli = workloads.import_ncgflow(Path(__file__).resolve().parents[1])
    workloads.build(cli, name, seed, target)
    print("ready", flush=True)
