"""Regenerate bench/bounds_reference.json, the bounds-scan reference table.

The table holds a fixed pool of random configurations, drawn like the test
suite's (gains U(0.1, 10), powers U(0.1, 20)), with every bounds-scan output
for each, plus the outer bounds of the paper's symmetric channel that the
ref-region check compares against.  The benchmark checks the bounds it
computes against these values within 1e-9, so regenerate the table only when
a change of the bounds is intended.

Usage: python3 bench/make_reference.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from coopic import bounds  # noqa: E402
from coopic.model import ChannelGains, PowerBudget  # noqa: E402
from workloads import (  # noqa: E402
    REF_POWERS, REFERENCE_TABLE, bound_triple, bounds_record, ref_gains)

POOL_SIZE = 48
POOL_SEED = 2606


def main() -> None:
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        gains = [float(x) for x in rng.uniform(0.1, 10.0, size=6)]
        powers = [float(x) for x in rng.uniform(0.1, 20.0, size=4)]
        record = bounds_record(ChannelGains(*gains), PowerBudget(*powers))
        pool.append({"gains": gains, "powers": powers, **record})
    g = ref_gains()
    table = {"pool_seed": POOL_SEED, "pool": pool,
             "ref": {"tc_outer": bound_triple(bounds.tc_outer_region(g, REF_POWERS)),
                     "rc_outer": bound_triple(bounds.rc_outer_region(g, REF_POWERS))}}
    REFERENCE_TABLE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
