"""Set-up probe: one fresh process that gets a workload ready, then exits.

``run.py`` starts this script several times; each prints ``ready`` and the
CPU seconds it took since its start: interpreter start, ``import relkin``
and building the workload's spaces and scenarios from its generated inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, workdir)
    print("ready", time.process_time(), flush=True)
