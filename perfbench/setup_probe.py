"""Set-up probe: import expurg, build the named preset instances, print the clock.

    python3 perfbench/setup_probe.py PRESET [PRESET ...]

The last line of standard output is ``time.monotonic()`` taken when the
instances are built; the caller subtracts the clock it read before starting
this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from expurg import cli, finite, presets, type_enum  # noqa: E402,F401
from expurg.ensembles import EnsembleSpec  # noqa: E402

for name in sys.argv[1:]:
    channel, metric, q_in = presets.load_preset(name)
    EnsembleSpec("iid", q_in)
    EnsembleSpec("cc", q_in)
print(time.monotonic())
