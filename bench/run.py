"""Benchmark of invkloos: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload lfun-tower --seed 1 --seconds 40 --trace 0

Each round runs in a fresh single-threaded process (worker.py) that
imports invkloos from src/ next to this directory, builds its own field
tables and checks every item it computes.  Rounds repeat while another
one fits in --seconds (at least MIN_ROUNDS of them); metrics are medians
over rounds.  --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics
of the traced ones, with trace.overhead_s = traced wall_s minus
untraced wall_s.
The last stdout line is {"correct", "attempted", "failed", "metrics"};
the full record also goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("lfun-tower", "lfun-primes", "verify-sweep")

MIN_ROUNDS = 2       # untraced rounds per run, so wall_s is a median
SETUP_SAMPLES = 5    # set-ups per run behind the setup_s median
RUN_LIMIT_S = 170    # a run has 180 s to print its result

SINGLE_THREADED = dict(os.environ, **{v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "first_result_s": "s",
             "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_rate"):
        return "points/s"
    return "count"


def start_round(args, deadline: float, *, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=SINGLE_THREADED, text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "invkloos", "__init__.py")):
        print(f"bench: no invkloos sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    longest = 0.0
    while True:
        t = time.monotonic()
        plain.append(start_round(args, deadline))
        if args.trace:
            traced.append(start_round(args, deadline, trace=True))
        now = time.monotonic()
        longest = max(longest, now - t)
        # stop before a further round would end past --seconds
        enough = args.trace or len(plain) >= MIN_ROUNDS
        if (enough and now + longest - start > args.seconds) or \
                now + longest > deadline - 10:
            break
    setups = [r["setup_s"] for r in plain]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(start_round(args, deadline, setup_only=True)["setup_s"])

    rounds = plain + traced
    med = statistics.median
    if args.trace:
        metrics = {name: {"value": med(r["layers"][name] for r in traced),
                          "unit": layer_unit(name)}
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = {
            "value": med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in plain),
            "unit": "s"}
    else:
        values = {"setup_s": med(setups),
                  **{k: med(r[k] for r in plain)
                     for k in ("wall_s", "first_result_s", "peak_rss_mib")}}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    result = {"correct": all(r["wrong"] == 0 for r in rounds),
              "attempted": sum(r["items"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}

    for r in rounds:
        for err in r["errors"]:
            print(f"bench: {err}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setups=setups,
                  rounds=rounds, machine={"python": platform.python_version(),
                                          "platform": platform.platform(),
                                          "cpus": os.cpu_count()})
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
