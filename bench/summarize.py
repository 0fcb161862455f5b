"""Summarize the run records in bench/out/ per workload and metric.

    python3 bench/summarize.py [--write bench/reference.json]

For every end-to-end metric: the runs' median, quartiles (as
statistics.quantiles(values, n=4) gives them) and spread, the quartile
distance as a share of the median.  Per-layer metrics are medians over
the traced runs.  Prints a table; --write also stores the summary.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def summarize(records: list[dict]) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = sorted((r for r in records if r["workload"] == workload),
                      key=lambda r: r["seed"])
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = summary[workload] = {
            "seeds": [r["seed"] for r in plain],
            "traced_seeds": [r["seed"] for r in traced],
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "end_to_end": {}, "per_layer": {}}
        for name, m in (plain[0]["metrics"] if plain else {}).items():
            values = [r["metrics"][name]["value"] for r in plain]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            entry["end_to_end"][name] = {"unit": m["unit"], "runs": len(values),
                                         "median": med, "q1": q1, "q3": q3,
                                         "spread": (q3 - q1) / med}
        for name, m in (traced[0]["metrics"] if traced else {}).items():
            entry["per_layer"][name] = {"unit": m["unit"], "median": statistics.median(
                r["metrics"][name]["value"] for r in traced)}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", help="also store the summary as JSON here")
    args = ap.parse_args(argv)
    records = []
    for path in glob.glob(os.path.join(OUT, "result-*.json")):
        with open(path) as fh:
            records.append(json.load(fh))
    summary = summarize(records)
    for workload, entry in summary.items():
        print(f"{workload}: seeds {entry['seeds']}, failed share {entry['failed_share']}")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:16s} median {m['median']:10.4f} {m['unit']:4s} "
                  f"q1 {m['q1']:10.4f} q3 {m['q3']:10.4f} spread {m['spread']:.4f}")
        for name, m in entry["per_layer"].items():
            print(f"  {name:30s} {m['median']:14.6g} {m['unit']}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
