"""Wall-clock benchmark of this repository's own code.

``benchmarks/`` regenerates the paper's figures in *virtual* time (what
the modelled testbed would take); ``bench/`` measures what our Python
takes in *wall-clock* time, end to end and layer by layer.  It lives
outside ``src/`` so that a change claiming a gain cannot edit what
measures it.  See ``bench/README.md``.

Run one workload the way the benchmark driver does::

    python3 -m bench --workload launch_storm --seed 1 --seconds 25 --trace 0

or the whole suite (timed run, then traced run, of every workload)::

    python3 -m bench --seed 1
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout this package sits in
ROOT = Path(__file__).resolve().parent.parent
#: the program under test; nothing is installed, so put it on the path
SRC = ROOT / "src"
#: scratch output (traces, temp files); listed in .gitignore
OUT = ROOT / "bench" / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

MIB = 1 << 20
