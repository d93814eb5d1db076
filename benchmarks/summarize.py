"""Summarize benchmark runs left in .bench_results/ into one result file.

Run from the repository root after a set of runs, for example

    for w in noisy-prepare-6x4 exact-suite; do
      for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 benchmarks/bench.py --workload $w --seed $s --seconds 40 --trace 0
      done
      python3 benchmarks/bench.py --workload $w --seed 1 --seconds 40 --trace 1
    done
    python3 benchmarks/summarize.py benchmarks/results/<name>.json

For each workload it keeps, per end-to-end and report metric, the median,
the quartiles (statistics.quantiles, n=4) and the spread (quartile
distance over the median) across the untraced runs, and the traced
runs' per-layer metrics and self-time table as they were reported.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(os.path.dirname(HERE), ".bench_results")


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def summarize(paths: list[str]) -> dict:
    runs: dict[str, dict[str, list]] = {}
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        entry = runs.setdefault(result["workload"], {"untraced": [], "traced": []})
        entry["traced" if result["trace"] else "untraced"].append(result)
    out = {}
    for workload, entry in sorted(runs.items()):
        every = entry["untraced"] + entry["traced"]
        summary = {"seeds": sorted(r["seed"] for r in entry["untraced"]),
                   "all_correct": all(r["correct"] for r in every),
                   "git_shas": sorted({r["env"]["git_sha"] for r in every}),
                   "env": [r["env"] for r in entry["untraced"][:1]]}
        for section in ("metrics", "report"):
            names = entry["untraced"][0][section] if entry["untraced"] else {}
            summary[section] = {
                name: {"unit": m["unit"],
                       **_stats([r[section][name]["value"] for r in entry["untraced"]])}
                for name, m in names.items()}
        summary["traced"] = [{k: r[k] for k in ("seed", "env", "correct", "metrics", "notes",
                                                "layers", "determinism")}
                             for r in entry["traced"]]
        out[workload] = summary
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    paths = sorted(glob.glob(os.path.join(RESULTS_DIR, "*-trace[01].json")))
    if not paths:
        print(f"no results under {RESULTS_DIR}", file=sys.stderr)
        return 1
    with open(argv[0], "w") as fh:
        json.dump(summarize(paths), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"summarized {len(paths)} runs into {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
