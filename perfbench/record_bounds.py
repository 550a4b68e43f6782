"""Record the BoundReport digest of every triple the bounds workload can draw.

The bounds workload checks each report against this file, so bound values
must stay bit-identical.  Regenerate only when a change is meant to alter
bound values, from the repository root:

    python3 perfbench/record_bounds.py
"""

import json

import workloads as W
from run import DIGESTS, bound_digest, load_caforge


def main():
    cf = load_caforge()
    digests = {
        f"{t},{k},{v}": bound_digest(cf.bound_report(cf.Parameters(t, k, v)))
        for t in W.BOUNDS_T
        for v in W.BOUNDS_V
        for k in W.bounds_k_range(t)
    }
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
