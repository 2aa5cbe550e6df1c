"""Record the rows reference.json holds, from the program as checked out.

    python3 ddbench/record_reference.py [workload ...]

Run from the root of a ddlink checkout at the commit whose results later
runs must reproduce. For each workload it stores the results.csv text of
the warm-up batch and the digests of the first batches at the workload's
default seed (the seed of its config).
"""

import json
import sys
import time

from run import run_child
from workloads import WORKLOADS
from worker import REFERENCE


def main(argv):
    names = argv or list(WORKLOADS)
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names:
        out = run_child("record", name, 0, 0, time.monotonic() + 600)
        if not out["correct"]:
            print(f"{name}: {out['problems']}", file=sys.stderr)
            return 1
        ref[name] = out["reference"]
        print(f"{name}: warm-up and {len(ref[name]['batches'])} batches recorded")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
