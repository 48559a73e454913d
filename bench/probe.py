"""Set-up probe: a fresh process that imports ufgkit and builds one workload's inputs.

    python3 bench/probe.py WORKLOAD SEED

``run.py`` times whole runs of this script for ``setup_s``.  The probe
prints the machine-speed scale it saw and the time its speed samples
took (see ``speed.py``), so the parent can rescale the wall time of the
core the probe actually ran on.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Speedometer  # noqa: E402

if __name__ == "__main__":
    with Speedometer() as speed:
        import workloads

        workloads.load_package()
        workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
    print(speed.scale(), speed.spent_s)
