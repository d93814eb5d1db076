"""Record the exact-suite reference documents the benchmark checks against.

Run from the repository root:

    python3 benchmarks/record_reference.py

The exact-suite commands are seed-independent except for topo-qutrit's
sampled outcome, which is dropped here and checked only for range. Only
the "results" part of each document is kept, so config echoes (seed,
threads) do not enter the comparison. Re-record only when a change is
meant to alter these documents, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402
from workloads import EXACT_SUITE, REFERENCE_PATH  # noqa: E402


def main() -> int:
    cli = bench.load_program()
    reference = {}
    for label, argv in EXACT_SUITE:
        rc, _, text, err = bench.invoke(cli, [*argv, "--seed", "0", "-o", "-"])
        if rc != 0:
            print(f"{label} exited {rc}: {err}", file=sys.stderr)
            return 1
        results = json.loads(text)["results"]
        if label.startswith("topo_"):
            results.pop("sampled_outcome")
        reference[label] = results
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
